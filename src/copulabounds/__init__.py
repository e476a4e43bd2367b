"""Improved Frechet-Hoeffding copula bounds and model-free option price
intervals for two-asset payoffs under known marginals.

The public names load with their submodule on first use (PEP 562), so a
bare ``import copulabounds`` imports neither numpy nor scipy and leaves
the process environment alone.
"""

import importlib as _importlib

# public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "constrained": (
            "ConstraintError", "ConstraintSet", "bounds_from_max_options",
            "bounds_from_second_to_default", "constraints_from_csv",
            "constraints_from_price_csv", "lower_bound", "upper_bound",
        ),
        "functional": (
            "LevelRangeError", "MonotoneFunctional", "SurfaceFunctional",
            "bound_surfaces_for_levels", "invert_lower", "invert_upper",
        ),
        "marginals": (
            "Exponential", "LognormalMartingale", "Marginal", "Tabulated",
            "from_call_prices", "marginal_from_csv",
        ),
        "pricing": (
            "InconsistentIntervalError", "PayoffSpec", "PriceInterval", "basket",
            "best_off_call", "best_off_put", "call_on_max", "call_on_min",
            "digital_default_prices", "payoff_sign", "payoff_value", "price",
            "price_batch", "price_interval", "put_on_max", "put_on_min", "spread",
            "worst_off_call", "worst_off_put",
        ),
        "quadrature": ("QuadratureError",),
        "surfaces": (
            "FRECHET_LOWER", "FRECHET_UPPER", "PRODUCT", "CopulaSurface",
            "ValidationReport", "frechet_lower", "frechet_upper",
            "gaussian_copula", "validate_copula", "validate_quasi_copula",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    # the submodules bound here on import are not re-exported
    return sorted({*__all__, *(n for n in globals() if n.startswith("_"))})
