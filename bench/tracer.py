"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``copulabounds`` layer
from outside the library: module functions (every module namespace that
imported the function by name gets the wrapper), ``Marginal`` subclass
methods, ``MonotoneFunctional`` methods, ``Rule`` integration and
``CopulaSurface.__call__``, which is classified by ``structure[0]``.
Each call records one span: name, start, end, parent span and a size
(points, nodes).  Spans stay in memory; ``Tracer.dump`` writes them out
once the run is over.  Nothing is wrapped unless ``install`` is called,
so untraced runs execute the library untouched.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and nest, so the self times of all
spans add up to the duration of the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# CopulaSurface.structure[0] -> span name
SURFACE_KINDS = {
    "gaussian": "surfaces.gaussian",
    "frechet-upper": "surfaces.frechet",
    "frechet-lower": "surfaces.frechet",
    "product": "surfaces.product",
    "point-set-upper": "constrained.envelope",
    "point-set-lower": "constrained.envelope",
    "functional-upper": "functional.envelope",
    "functional-lower": "functional.envelope",
}
_SURFACE_SPANS = frozenset(SURFACE_KINDS.values()) | {"surfaces.other"}

# Every span name the wrappers record, in report order.
SPAN_NAMES = (
    "marginals.quantile",
    "marginals.cdf",
    "quadrature.rule",
    "quadrature.refine_sign_changes",
    "quadrature.integrate",
    "surfaces.gaussian",
    "surfaces.frechet",
    "surfaces.product",
    "surfaces.other",
    "surfaces.validate",
    "constrained.build",
    "constrained.envelope",
    "functional.setup",
    "functional.levels",
    "functional.envelope",
    "functional.invert",
    "functional.map",
    "pricing.price",
    "pricing.price_interval",
    "scenarios.run",
    "scenarios.check_rows",
    "scenarios.write_rows",
    "scenarios.validate",
    "cli.main",
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self.key: list = []
        self._stack = [-1]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.key.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, size: int = 0, key=None) -> None:
        self.end[i] = perf_counter()
        self.size[i] = int(size)
        self.key[i] = key
        self._stack.pop()

    def wrap(self, name, fn, size_of=None, key_of=None):
        """Wrapper of ``fn`` recording one span named ``name`` (a string,
        or a callable of the call's arguments returning one)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name(args) if callable(name) else name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                size = size_of(args, kwargs, out) if size_of else 0
                key = key_of(args, kwargs) if key_of else None
                tracer.close(i, size, key)

        return traced

    # -- installation ------------------------------------------------------

    def _replace_function(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("copulabounds"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on.  An entry
        point the library no longer has is skipped; its metrics read zero."""
        for mod_name, attr, span, size_of, key_of in _FUNCTIONS:
            fn = getattr(importlib.import_module(f"copulabounds.{mod_name}"), attr, None)
            if fn is not None:
                self._replace_function(fn, self.wrap(span, fn, size_of, key_of))
        for mod_name, cls_name, attr, span, size_of in _METHODS:
            cls = getattr(importlib.import_module(f"copulabounds.{mod_name}"), cls_name, None)
            if cls is not None and attr in cls.__dict__:
                self._replace_method(cls, attr, self.wrap(span, cls.__dict__[attr], size_of))
        marginal = importlib.import_module("copulabounds.marginals").Marginal
        for cls in (marginal, *_subclasses(marginal)):
            for attr in ("quantile", "quantile_unchecked", "cdf"):
                if attr in cls.__dict__:
                    span = "marginals.cdf" if attr == "cdf" else "marginals.quantile"
                    self._replace_method(cls, attr, self.wrap(span, cls.__dict__[attr], _size_arg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.names, dtype=str),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "size": np.asarray(self.size, dtype=np.int64),
        }

    def dump(self, path) -> None:
        """Write all spans as compressed numpy arrays."""
        np.savez_compressed(path, **self.arrays())


def _size_arg(args, kwargs, out):
    return np.size(args[1]) if len(args) > 1 else 0


def _size_rule(args, kwargs, out):
    return out.nodes.size if out is not None else 0


def _size_integrate(args, kwargs, out):
    return args[0].nodes.size


def _size_three(args, kwargs, out):
    """Points of a batched one-point map or inversion: (self, a, b, x)."""
    return np.broadcast(*(np.asarray(a) for a in args[1:4])).size if len(args) > 3 else 0


def _size_surface(args, kwargs, out):
    return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size if len(args) > 2 else 0


def _surface_span(args):
    s = args[0].structure
    return SURFACE_KINDS.get(s[0] if s else None, "surfaces.other")


def _rule_key(args, kwargs):
    return (_freeze(args), _freeze(sorted(kwargs.items())))


def _price_key(args, kwargs):
    """(payoff, marginals, quadrature arguments): everything but the surface."""
    rest = tuple(repr(a) for i, a in enumerate(args) if i != 1)
    return (rest, tuple(sorted((k, repr(v)) for k, v in kwargs.items() if k != "surface")))


# (module, function, span name, size, key) for module-level entry points
_FUNCTIONS = (
    ("quadrature", "unit_rule", "quadrature.rule", _size_rule, _rule_key),
    ("quadrature", "interval_rule", "quadrature.rule", _size_rule, _rule_key),
    ("quadrature", "refine_sign_changes", "quadrature.refine_sign_changes", None, None),
    ("surfaces", "validate_copula", "surfaces.validate", None, None),
    ("surfaces", "validate_quasi_copula", "surfaces.validate", None, None),
    ("constrained", "upper_bound", "constrained.build", None, None),
    ("constrained", "lower_bound", "constrained.build", None, None),
    ("constrained", "bounds_from_max_options", "constrained.build", None, None),
    ("constrained", "bounds_from_second_to_default", "constrained.build", None, None),
    ("functional", "_invert_batch", "functional.invert", _size_three, None),
    ("functional", "bound_surfaces_for_level", "functional.levels", None, None),
    ("pricing", "price", "pricing.price", None, _price_key),
    ("pricing", "price_interval", "pricing.price_interval", None, None),
    ("scenarios", "run_scenario", "scenarios.run", None, None),
    ("scenarios", "check_rows", "scenarios.check_rows", None, None),
    ("scenarios", "write_rows", "scenarios.write_rows", None, None),
    ("scenarios", "validate_scenario_surfaces", "scenarios.validate", None, None),
    ("cli", "main", "cli.main", None, None),
)

# (module, class, method, span name or namer, size) for methods
_METHODS = (
    ("quadrature", "Rule", "integrate", "quadrature.integrate", _size_integrate),
    ("quadrature", "Rule", "integrate_checked", "quadrature.integrate", _size_integrate),
    ("surfaces", "CopulaSurface", "__call__", _surface_span, _size_surface),
    ("functional", "MonotoneFunctional", "__init__", "functional.setup", None),
    ("functional", "MonotoneFunctional", "at_one_point_upper", "functional.map", _size_three),
    ("functional", "MonotoneFunctional", "at_one_point_lower", "functional.map", _size_three),
)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _freeze(obj):
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return tuple(obj.ravel().tolist())
    return obj


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def _nearest(names: list[str], parent: list[int], target: str) -> list[int]:
    """Index of the nearest span named ``target`` at or above each span."""
    out = [-1] * len(names)
    for i, (nm, p) in enumerate(zip(names, parent)):
        out[i] = i if nm == target else (out[p] if p >= 0 else -1)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (metric name -> value).

    Every span name has a ``<name>.self_s`` metric, so the self-time
    metrics add up to the traced wall time.
    """
    names = tracer.names
    unknown = set(names) - set(SPAN_NAMES)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    arr = tracer.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"]).tolist()
    size = tracer.size

    calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    points: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    for nm, sz, st in zip(names, size, own):
        calls[nm] += 1
        points[nm] += sz
        self_s[nm] += st

    def ratio(num, den):
        return num / den if den else 0.0

    def keys_of(target):
        return [k for nm, k in zip(names, tracer.key) if nm == target]

    def size_under(kinds, ancestor):
        anc = _nearest(names, tracer.parent, ancestor)
        return sum(sz for nm, sz, a in zip(names, size, anc) if a >= 0 and nm in kinds)

    m: dict[str, float] = {}
    for nm in ("marginals.quantile", "marginals.cdf", "functional.map", "functional.invert"):
        m[f"{nm}.calls"] = calls[nm]
        m[f"{nm}.points"] = points[nm]
    for nm in ("quadrature.rule", "quadrature.refine_sign_changes", "quadrature.integrate",
               "functional.setup", "pricing.price", "pricing.price_interval"):
        m[f"{nm}.calls"] = calls[nm]
    rule_keys = keys_of("quadrature.rule")
    m["quadrature.rule.nodes"] = points["quadrature.rule"]
    m["quadrature.rule.cache_hit_ratio"] = ratio(len(rule_keys) - len(set(rule_keys)), len(rule_keys))
    for nm in ("surfaces.gaussian", "surfaces.frechet", "surfaces.product", "constrained.envelope"):
        m[f"{nm}.points"] = points[nm]

    m["functional.levels"] = calls["functional.levels"]
    requested = points["functional.envelope"]
    distinct = size_under({"functional.invert"}, "functional.envelope")
    m["functional.envelope.points_requested"] = requested
    m["functional.envelope.points_distinct"] = distinct
    m["functional.envelope.cache_hit_ratio"] = ratio(requested - distinct, requested)
    m["functional.map_points_per_inversion"] = ratio(
        points["functional.map"], points["functional.invert"]
    )

    price_keys = keys_of("pricing.price")
    m["pricing.surface_points_per_price"] = ratio(
        size_under(_SURFACE_SPANS, "pricing.price"), len(price_keys)
    )
    m["pricing.distinct_payoff_ratio"] = ratio(len(set(price_keys)), len(price_keys))

    for nm in SPAN_NAMES:
        m[f"{nm}.self_s"] = self_s[nm]
    return m


def root_wall(tracer: Tracer) -> float:
    """Summed duration of the outermost spans: the traced wall time."""
    return sum(e - b for b, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
