"""Each demo's stdout against the bytes recorded in ``tests/data/demos``.

A demo runs as ``__main__`` with numpy's ``RuntimeWarning`` raised as
an error, as CI runs it. To record an intended change, run the demo
and write its stdout over ``tests/data/demos/<demo name>.txt``.
"""

import io
import runpy
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_has_a_record():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_stdout_matches_record(demo):
    stdout = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout):
        warnings.simplefilter("error", RuntimeWarning)
        runpy.run_path(str(demo), run_name="__main__")
    assert stdout.getvalue().encode() == (RECORDED / f"{demo.stem}.txt").read_bytes()
