"""Improved Frechet-Hoeffding copula bounds and model-free option price
intervals for two-asset payoffs under known marginals."""

from .constrained import (
    ConstraintError,
    ConstraintSet,
    bounds_from_max_options,
    bounds_from_second_to_default,
    constraints_from_csv,
    constraints_from_price_csv,
    lower_bound,
    upper_bound,
)
from .functional import (
    LevelRangeError,
    MonotoneFunctional,
    SurfaceFunctional,
    bound_surfaces_for_levels,
    invert_lower,
    invert_upper,
)
from .marginals import (
    Exponential,
    LognormalMartingale,
    Marginal,
    Tabulated,
    from_call_prices,
    marginal_from_csv,
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
    put_on_max,
    put_on_min,
    spread,
    worst_off_call,
    worst_off_put,
)
from .quadrature import QuadratureError
from .surfaces import (
    FRECHET_LOWER,
    FRECHET_UPPER,
    PRODUCT,
    CopulaSurface,
    ValidationReport,
    frechet_lower,
    frechet_upper,
    gaussian_copula,
    validate_copula,
    validate_quasi_copula,
)

__version__ = "0.1.0"
