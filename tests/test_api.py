"""The package's public names, pinned.

A name added to or removed from the package is an API change: update
``PUBLIC`` together with the README.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import copulabounds as cb

PUBLIC = {
    # constrained
    "ConstraintError", "ConstraintSet", "bounds_from_max_options",
    "bounds_from_second_to_default", "constraints_from_csv",
    "constraints_from_price_csv", "lower_bound", "upper_bound",
    # functional
    "LevelRangeError", "MonotoneFunctional", "SurfaceFunctional",
    "bound_surfaces_for_levels", "invert_lower", "invert_upper",
    # marginals
    "Exponential", "LognormalMartingale", "Marginal", "Tabulated", "from_call_prices",
    "marginal_from_csv",
    # pricing
    "InconsistentIntervalError", "PayoffSpec", "PriceInterval", "basket",
    "best_off_call", "best_off_put", "call_on_max", "call_on_min",
    "digital_default_prices", "payoff_sign", "payoff_value", "price", "price_batch",
    "price_interval", "put_on_max", "put_on_min", "spread",
    "worst_off_call", "worst_off_put",
    # quadrature
    "QuadratureError",
    # surfaces
    "FRECHET_LOWER", "FRECHET_UPPER", "PRODUCT", "CopulaSurface",
    "ValidationReport", "frechet_lower", "frechet_upper",
    "gaussian_copula", "validate_copula", "validate_quasi_copula",
}

README = Path(__file__).parent.parent / "README.md"
SRC = str(Path(__file__).parent.parent / "src")

MODULES = [
    "cli", "constrained", "functional", "marginals", "pricing", "quadrature",
    "scenarios", "surfaces",
]


def test_package_exports_exactly_the_pinned_names():
    # the submodules, bound on the package once imported, are not listed
    exported = {name for name in dir(cb) if not name.startswith("_")}
    assert sorted(exported - PUBLIC) == []
    assert sorted(PUBLIC - exported) == []
    assert sorted(n for n in PUBLIC if not hasattr(cb, n)) == []


def _fresh(code, **env):
    """Standard output of ``code`` run in a new interpreter that imports
    the package from ``src``, with OPENBLAS_NUM_THREADS unset unless
    given in ``env``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": SRC, **env},
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_bare_import_loads_neither_numpy_nor_scipy():
    code = ("import sys, copulabounds\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    assert _fresh(code) == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_blas_workers():
    # numpy and scipy each start an OpenBLAS pool of one worker per extra core
    code = ("import os, copulabounds.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _fresh(code) == "1 1"


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import os, copulabounds.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_star_import_binds_exactly_the_pinned_names():
    code = ("from copulabounds import *\n"
            "print(' '.join(sorted(n for n in dir() if not n.startswith('_'))))")
    assert _fresh(code).split() == sorted(PUBLIC)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"copulabounds.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_export_is_listed_in_a_module_all():
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"copulabounds.{name}").__all__)
    assert sorted(PUBLIC - listed) == []


def test_every_public_name_is_in_the_readme():
    text = README.read_text()
    assert sorted(n for n in PUBLIC if not re.search(rf"\b{n}\b", text)) == []


def test_readme_library_tour_runs():
    block = README.read_text().split("## Library tour", 1)[1]
    code = block.split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    iv = scope["iv"]
    assert iv.lower <= iv.upper
    assert scope["prices"].shape == (1, 6)
