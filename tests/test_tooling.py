import ast
import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

import qsnom

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# the README's library tour, the sweep entry points the benchmark reads
# from the package, and the error classes under the README's "Error types"
EXPORTS = {
    "__version__",
    "DielectricSample",
    "TipDipole",
    "derive_image",
    "ModelConfig",
    "build_hamiltonian_pair",
    "rs_pt2",
    "validate_against_exact",
    "InitialCoefficients",
    "photon_report",
    "consistency_report",
    "forward",
    "InversionProblem",
    "invert_permittivity",
    "SweepSpec",
    "run_sweep",
    "basis_index",
    "QsnomError",
    "UnsupportedPermittivityError",
    "DegenerateGapError",
    "DegenerateDenominatorError",
    "ShiftExceedsGapError",
    "OutOfBracketError",
    "NoConvergenceError",
    "ConfigError",
}


def test_every_tracer_patch_target_resolves():
    # the traced benchmark wraps these names and cannot start without them
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.PATCHES
    assert missing == []


def _dotted(node: ast.AST) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def _benchmark_references() -> set[str]:
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name and name.startswith("qsnom."):
                    names.add(name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsnom"):
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.startswith("qsnom."))
    return names


def _resolves(name: str) -> bool:
    obj = qsnom
    for part in name.split(".")[1:]:
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except (ImportError, AttributeError):
                return False
        obj = getattr(obj, part)
    return True


def test_every_name_the_benchmark_reads_resolves():
    # a name the benchmark reads and the package lacks fails the whole run
    names = _benchmark_references()
    assert {"qsnom.SweepSpec", "qsnom.run_sweep", "qsnom.basis_index"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_package_exports_the_documented_names():
    assert len(qsnom.__all__) == len(set(qsnom.__all__))
    assert set(qsnom.__all__) == EXPORTS
    assert all(hasattr(qsnom, name) for name in qsnom.__all__)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, "README.md", "exec"), {})
    assert float(stdout.getvalue()) == pytest.approx(11.7, rel=1e-9)
