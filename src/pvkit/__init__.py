"""Valuation of deterministic cash flows as signed measures on [0, inf).

A cash flow is a finite signed measure: point payments (atoms) plus
piecewise-polynomial payment densities.  Prices are integrals of a
discount curve against that measure, returned with certified enclosing
brackets.  The package also covers forward prices, internal rates of
return, two-currency markets, finite quote sets (arbitrage detection
with exact certificates), and positive linear pricing rules that no
single discount curve can represent.

The public names resolve lazily (PEP 562): ``import pvkit`` loads no
submodule, and a name's module is imported on first access, so a caller
that needs no numerics (the arbitrage checker, the measure
decompositions) never loads numpy.
"""
import importlib

__version__ = "0.1.0"

# the module that defines each public name
_MODULES = {
    "arbitrage": ("Arbitrage", "ArbitrageFree", "NonUniqueImpliedPricesError", "Quote",
                  "QuoteSet", "check", "implied_curve"),
    "curves": ("FlatCurve", "ScaledCurve", "SpotGridCurve", "SvenssonCurve",
               "forward_discount", "forward_rate", "forward_rate_composition_check",
               "spot_rate"),
    "dual_functional": ("PRESETS", "DualFunctional", "choquet_gap", "double_density",
                        "dual_price"),
    "errors": ("DomainError", "SchemaError"),
    "fx": ("DualCashFlow", "DualCurrencyMarket", "convert_measure_with_bound",
           "fx_forward", "price_dual"),
    "measures": ("NULL", "Atom", "CashFlow", "DensityPiece", "JordanDecomposition",
                 "LebesgueDecomposition", "density", "dirac", "distribution",
                 "is_nonnegative", "jordan", "lebesgue", "mass", "total_mass",
                 "total_variation", "trace", "translate"),
    "pricing": ("YieldBound", "YieldResult", "default_tolerance", "forward_price", "irr",
                "price", "yield_bound_check"),
    "quadrature": ("Bracket",),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
