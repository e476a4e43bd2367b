"""The package's public names, pinned.

A name added to or removed from the package is an API change: update
``PUBLIC`` together with the README.
"""

import importlib
import inspect

import pytest

import copulabounds as cb

PUBLIC = {
    # constrained
    "ConstraintError", "ConstraintSet", "bounds_from_max_options",
    "bounds_from_second_to_default", "classify", "constraints_from_csv",
    "constraints_from_price_csv", "lower_bound", "upper_bound",
    # functional
    "LevelRangeError", "MonotoneFunctional", "SurfaceFunctional",
    "bound_surfaces_for_level", "bound_surfaces_for_levels", "invert_lower", "invert_upper", "value_of",
    # marginals
    "Exponential", "LognormalMartingale", "Marginal", "Tabulated", "exponential",
    "from_call_prices", "lognormal_martingale", "marginal_from_csv", "tabulated",
    # pricing
    "InconsistentIntervalError", "PayoffSpec", "PriceInterval", "basket",
    "best_off_call", "best_off_put", "call_on_max", "call_on_min",
    "digital_default_prices", "payoff_sign", "payoff_value", "price", "price_batch",
    "price_interval", "product_xy", "put_on_max", "put_on_min", "spread",
    "survival_weight", "worst_off_call", "worst_off_put",
    # quadrature
    "QuadratureError",
    # surfaces
    "FRECHET_LOWER", "FRECHET_UPPER", "PRODUCT", "CopulaSurface", "Rectangle",
    "ValidationReport", "bivariate_normal_cdf", "frechet_lower", "frechet_upper",
    "gaussian_copula", "one_point_lower", "one_point_upper", "reflect_second",
    "survival_value", "validate_copula", "validate_quasi_copula", "volume",
}

MODULES = [
    "cli", "constrained", "functional", "marginals", "pricing", "quadrature",
    "scenarios", "surfaces",
]


def test_package_exports_exactly_the_pinned_names():
    exported = {
        name for name in dir(cb)
        if not name.startswith("_") and not inspect.ismodule(getattr(cb, name))
    }
    assert sorted(exported - PUBLIC) == []
    assert sorted(PUBLIC - exported) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"copulabounds.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_export_is_listed_in_a_module_all():
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"copulabounds.{name}").__all__)
    assert sorted(PUBLIC - listed) == []
