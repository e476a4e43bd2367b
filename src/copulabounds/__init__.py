"""Improved Frechet-Hoeffding copula bounds and model-free option price
intervals for two-asset payoffs under known marginals."""

from .constrained import (
    ConstraintError,
    ConstraintSet,
    bounds_from_max_options,
    bounds_from_second_to_default,
    classify,
    constraints_from_csv,
    constraints_from_price_csv,
    lower_bound,
    upper_bound,
)
from .functional import (
    LevelRangeError,
    MonotoneFunctional,
    SurfaceFunctional,
    bound_surfaces_for_level,
    bound_surfaces_for_levels,
    invert_lower,
    invert_upper,
    value_of,
)
from .marginals import (
    Exponential,
    LognormalMartingale,
    Marginal,
    Tabulated,
    exponential,
    from_call_prices,
    lognormal_martingale,
    marginal_from_csv,
    tabulated,
)
from .pricing import (
    InconsistentIntervalError,
    PayoffSpec,
    PriceInterval,
    basket,
    best_off_call,
    best_off_put,
    call_on_max,
    call_on_min,
    digital_default_prices,
    payoff_sign,
    payoff_value,
    price,
    price_batch,
    price_interval,
    product_xy,
    put_on_max,
    put_on_min,
    spread,
    survival_weight,
    worst_off_call,
    worst_off_put,
)
from .quadrature import QuadratureError
from .surfaces import (
    FRECHET_LOWER,
    FRECHET_UPPER,
    PRODUCT,
    CopulaSurface,
    Rectangle,
    ValidationReport,
    bivariate_normal_cdf,
    frechet_lower,
    frechet_upper,
    gaussian_copula,
    one_point_lower,
    one_point_upper,
    reflect_second,
    survival_value,
    validate_copula,
    validate_quasi_copula,
    volume,
)

__version__ = "0.1.0"
