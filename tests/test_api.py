"""The package's public names and the README's claims, pinned.

A name added to or removed from the package is an API change: update
``PUBLIC`` together with the README.  Every guarantee the README lists
names a test or CI step that exists, and every measured table's chosen
row is the constant the code ships.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import copulabounds as cb
from copulabounds import cli, constrained, functional, pricing, quadrature
from copulabounds.scenarios import SCENARIOS

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

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
SRC = str(ROOT / "src")
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

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


def _section(text, marker):
    """The text after the heading line ``marker`` up to the next heading of
    its level or above."""
    level = marker.split(" ", 1)[0]
    _, found, body = text.partition(f"\n{marker}\n")
    assert found, f"no heading {marker!r}"
    return re.split(rf"^#{{1,{len(level)}}} ", body, flags=re.M)[0]


def _guarantees(text) -> list[str]:
    """The README's numbered guarantees, each on one line."""
    items = re.split(r"^\d+\. ", _section(text, "## Guarantees"), flags=re.M)[1:]
    return [" ".join(item.split()) for item in items]


def _cited_tests(item) -> list[str]:
    return re.findall(r"`(tests/\w+\.py::[\w:]+)`", item)


def _cited_steps(item) -> list[str]:
    return re.findall(r'CI step "([^"]+)"', item)


def _test_exists(test_id) -> bool:
    path, *names = test_id.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return names[-1].startswith("test") and isinstance(node, ast.FunctionDef)


def _missing_checks(text) -> list[str]:
    """The tests and CI steps the guarantees of README ``text`` name that
    do not exist, and every guarantee that names none."""
    steps = set(re.findall(r"^\s*- name: (.+?)\s*$", WORKFLOW.read_text(), flags=re.M))
    missing = []
    for number, item in enumerate(_guarantees(text), 1):
        tests, named_steps = _cited_tests(item), _cited_steps(item)
        if not tests and not named_steps:
            missing.append(f"guarantee {number} names no check")
        missing += [t for t in tests if not _test_exists(t)]
        missing += [f"CI step {s!r}" for s in named_steps if s not in steps]
    return missing


def test_every_guarantee_names_checks_that_exist():
    text = README.read_text()
    assert len(_guarantees(text)) >= 10
    assert _missing_checks(text) == []


def _tables(heading) -> list[tuple[list[str], list[list[str]]]]:
    """``(header, rows)`` of each table under ``### heading`` of the
    README's Numerical notes, cells stripped."""
    notes = _section(README.read_text(), "## Numerical notes")
    lines = _section(notes, f"### {heading}").splitlines()
    tables, rows = [], None
    for line in lines + [""]:
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if rows is None:
                rows = [cells]
            elif not set("".join(cells)) <= set("-: "):
                rows.append(cells)
        elif rows is not None:
            tables.append((rows[0], rows[1:]))
            rows = None
    return tables


def _chosen(heading, first_header) -> list[str]:
    """The cells of the one bold row of the table under ``### heading``
    whose first header cell is ``first_header``, bold marks removed."""
    [rows] = [rows for header, rows in _tables(heading) if header[0] == first_header]
    [row] = [r for r in rows if any(c.startswith("**") for c in r)]
    return [c.strip("*") for c in row]


def _fractions(cell) -> tuple[float, ...]:
    return tuple(float(Fraction(f)) for f in cell.split(", "))


def test_measured_tables_choose_the_shipped_constants():
    assert int(_chosen("Unit grid", "`UNIT_PANELS`")[0]) == quadrature.UNIT_PANELS
    assert int(_chosen("Map rule", "N")[0]) == functional._MAP_NODES
    assert _fractions(_chosen("Grading splits", "onset splits")[0]) == functional._ONSET_SPLITS
    assert _fractions(_chosen("Grading splits", "cusp splits")[0]) == functional._CUSP_SPLITS
    assert _fractions(_chosen("Grading splits", "`_GRADING_KEEP`")[0]) == (pricing._GRADING_KEEP,)
    assert float(_chosen("Merged tails", "threshold")[0]) == quadrature._TAIL_SURVIVAL
    [thresholds, *_] = _chosen("Allocator thresholds", "thresholds (mmap / trim)")
    mmap, trim = (int(t.removesuffix(" MB")) << 20 for t in thresholds.split(" / "))
    assert (mmap, trim) == (cli._MMAP_THRESHOLD, cli._TRIM_THRESHOLD)
    assert int(_chosen("Block sizes", "`_MAP_BLOCK`")[0]) == functional._MAP_BLOCK
    assert int(_chosen("Block sizes", "`_BLOCK_POINTS`")[0]) == constrained._BLOCK_POINTS


def test_panels_table_chooses_each_scenarios_default():
    [(_, rows)] = [t for t in _tables("Path panels") if t[0][0] == "sweep"]
    chosen, sweep = {}, None
    for row in rows:
        sweep = row[0].split(",")[0] or sweep
        if row[1].startswith("**"):
            chosen.setdefault(sweep, set()).add(int(row[1].strip("*")))
    want = {name: {spec.defaults["panels"]} for name, spec in SCENARIOS.items()
            if "panels" in spec.defaults}
    assert chosen == want


def test_every_readme_citation_in_the_source_has_its_table():
    # a comment or docstring cites a measured default as "(README: <heading>)"
    cited = []
    for path in sorted((ROOT / "src" / "copulabounds").glob("*.py")):
        for line in path.read_text().splitlines():
            if "README" in line:
                match = re.search(r"README: ([^)]+)\)", line)
                assert match, f"{path.name}: {line.strip()}"
                cited.append(match.group(1))
    assert cited
    for heading in sorted(set(cited)):
        tables = _tables(heading)
        assert any("**" in cell for _, rows in tables for row in rows for cell in row), heading
