import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsnom

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DIFFFUZZ = ROOT / "tools" / "difffuzz.py"

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


def _resolve(name: str) -> object | None:
    """The object a dotted ``qsnom.`` name reads, or ``None`` if it lacks one."""
    obj = qsnom
    for part in name.split(".")[1:]:
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except (ImportError, AttributeError):
                return None
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_reads_resolves():
    # a name the benchmark reads and the package lacks fails the whole run
    names = _benchmark_references()
    assert {"qsnom.SweepSpec", "qsnom.run_sweep", "qsnom.basis_index"} <= names
    assert sorted(n for n in names if _resolve(n) is None) == []


def _benchmark_calls() -> list[tuple[str, int, list[str]]]:
    """``(dotted name, positional count, keywords)`` of each call the
    benchmark makes into qsnom.

    A name imported from qsnom is expanded to its dotted form. A starred
    argument or a ``**`` mapping is left out: only what is written out
    can be checked.
    """
    calls = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsnom")
            for alias in node.names
        }
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and _dotted(node.func)
            if not name:
                continue
            head, dot, rest = name.partition(".")
            name = imported.get(head, head) + dot + rest
            if name.startswith("qsnom."):
                positional = sum(not isinstance(a, ast.Starred) for a in node.args)
                keywords = [k.arg for k in node.keywords if k.arg is not None]
                calls.append((name, positional, keywords))
    return calls


def test_every_call_the_benchmark_makes_binds():
    # a parameter the benchmark passes and the package lacks fails the run
    calls = _benchmark_calls()
    assert {
        "qsnom.TipDipole",
        "qsnom.InversionProblem",
        "qsnom.SweepSpec.from_range",
        "qsnom.closedform.photon_report",
    } <= {name for name, _, _ in calls}
    unbound = []
    for name, positional, keywords in calls:
        signature = inspect.signature(_resolve(name))
        try:
            signature.bind_partial(*range(positional), **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    assert unbound == []


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


def _difffuzz(old, new, draws):
    return subprocess.run(
        [sys.executable, str(DIFFFUZZ), str(old), str(new), "--draws", str(draws)],
        capture_output=True, text=True, timeout=600,
    )


def test_difffuzz_finds_no_difference_on_one_tree():
    proc = _difffuzz(ROOT, ROOT, 40)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 of 360 outcomes changed over 40 draws (seed 1)\n"


def test_difffuzz_reports_a_changed_tree(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "src" / "qsnom" / "__init__.py"
    # the changed tree doubles g in every forward result
    init.write_text(init.read_text() + (
        "\nimport dataclasses as _dc\n"
        "_forward = forward\n"
        "def forward(*args, **kwargs):\n"
        "    result = _forward(*args, **kwargs)\n"
        "    return _dc.replace(result, g=2.0 * result.g)\n"
    ))
    proc = _difffuzz(ROOT, tree, 10)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "  .g: " in proc.stdout
    assert "ForwardResult -> ForwardResult" in proc.stdout
