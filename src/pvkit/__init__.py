"""Valuation of deterministic cash flows as signed measures on [0, inf).

A cash flow is a finite signed measure: point payments (atoms) plus
piecewise-polynomial payment densities.  Prices are integrals of a
discount curve against that measure, returned with certified enclosing
brackets.  The package also covers forward prices, internal rates of
return, two-currency markets, finite quote sets (arbitrage detection
with exact certificates), and positive linear pricing rules that no
single discount curve can represent.
"""
from .arbitrage import (
    Arbitrage,
    ArbitrageFree,
    NonUniqueImpliedPricesError,
    Quote,
    QuoteSet,
    check,
    implied_curve,
)
from .curves import (
    FlatCurve,
    ScaledCurve,
    SpotGridCurve,
    SvenssonCurve,
    forward_discount,
    forward_rate,
    forward_rate_composition_check,
    spot_rate,
)
from .dual_functional import (
    PRESETS,
    DualFunctional,
    choquet_gap,
    double_density,
    dual_price,
)
from .errors import DomainError, SchemaError
from .fx import (
    DualCashFlow,
    DualCurrencyMarket,
    convert_measure_with_bound,
    fx_forward,
    price_dual,
)
from .measures import (
    NULL,
    Atom,
    CashFlow,
    DensityPiece,
    JordanDecomposition,
    LebesgueDecomposition,
    density,
    dirac,
    distribution,
    is_nonnegative,
    jordan,
    lebesgue,
    mass,
    total_mass,
    total_variation,
    trace,
    translate,
)
from .pricing import (
    YieldBound,
    YieldResult,
    default_tolerance,
    forward_price,
    irr,
    price,
    yield_bound_check,
)
from .quadrature import Bracket

__version__ = "0.1.0"

__all__ = [
    "Arbitrage",
    "ArbitrageFree",
    "Atom",
    "Bracket",
    "CashFlow",
    "DensityPiece",
    "DomainError",
    "DualCashFlow",
    "DualCurrencyMarket",
    "DualFunctional",
    "FlatCurve",
    "JordanDecomposition",
    "LebesgueDecomposition",
    "NULL",
    "NonUniqueImpliedPricesError",
    "PRESETS",
    "Quote",
    "QuoteSet",
    "ScaledCurve",
    "SchemaError",
    "SpotGridCurve",
    "SvenssonCurve",
    "YieldBound",
    "YieldResult",
    "check",
    "choquet_gap",
    "convert_measure_with_bound",
    "default_tolerance",
    "density",
    "dirac",
    "distribution",
    "double_density",
    "dual_price",
    "forward_discount",
    "forward_price",
    "forward_rate",
    "forward_rate_composition_check",
    "fx_forward",
    "implied_curve",
    "irr",
    "is_nonnegative",
    "jordan",
    "lebesgue",
    "mass",
    "price",
    "price_dual",
    "spot_rate",
    "total_mass",
    "total_variation",
    "trace",
    "translate",
    "yield_bound_check",
]
