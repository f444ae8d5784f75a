"""The names ``pvkit`` exports, pinned so that a change to them is deliberate."""
import pvkit

PUBLIC = [
    "Arbitrage", "ArbitrageFree", "Atom", "Bracket", "CashFlow", "DensityPiece",
    "DomainError", "DualCashFlow", "DualCurrencyMarket", "DualFunctional",
    "FlatCurve", "JordanDecomposition", "LebesgueDecomposition", "NULL",
    "NonUniqueImpliedPricesError", "PRESETS", "Quote", "QuoteSet", "ScaledCurve",
    "SchemaError", "SpotGridCurve", "SvenssonCurve", "YieldBound", "YieldResult",
    "check", "choquet_gap", "convert_measure_with_bound", "default_tolerance",
    "density", "dirac", "distribution", "double_density", "dual_price",
    "forward_discount", "forward_price", "forward_rate",
    "forward_rate_composition_check", "fx_forward", "implied_curve", "irr",
    "is_nonnegative", "jordan", "lebesgue", "mass", "price", "price_dual",
    "spot_rate", "total_mass", "total_variation", "trace", "translate",
    "yield_bound_check",
]


def test_public_names_are_pinned():
    assert sorted(pvkit.__all__) == PUBLIC
    assert len(set(pvkit.__all__)) == len(pvkit.__all__) == 52


def test_every_public_name_resolves():
    for name in pvkit.__all__:
        assert hasattr(pvkit, name), name
