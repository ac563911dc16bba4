"""Per-call timings of qsnom's layers, printed as a Markdown table.

Run from the repository root:

    python3 perfbench/baseline.py

Each row is the median over repeats of the mean time per call within a
repeat; subprocess rows time whole ``qsnom`` commands, interpreter start
and imports included. BLAS threads are pinned as in ``run.py``. This is
a layer table for orientation; the end-to-end figures come from
``run.py``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path.cwd()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = str(ROOT / "src")
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import qsnom  # noqa: E402
from qsnom import closedform  # noqa: E402
from worker import import_times  # noqa: E402


def per_call(fn, repeats: int = 7, budget_s: float = 0.2) -> float:
    """Median seconds per call over ``repeats`` repeats of ~``budget_s``."""
    number = max(1, int(budget_s / max(timeit.timeit(fn, number=1), 1e-7)))
    return statistics.median(t / number for t in timeit.repeat(fn, number=number, repeat=repeats))


def subprocess_s(argv: list[str], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds:.3g} s"


def main() -> None:
    a = closedform.InitialCoefficients.ground_state()
    alpha = qsnom.DielectricSample(11.7).alpha
    tip = qsnom.TipDipole(omega=1.0, height_nm=0.5)
    sample = qsnom.DielectricSample(11.7)
    cfg1 = qsnom.ModelConfig(n_max=1, kappa=1.0)
    cfg50 = qsnom.ModelConfig(n_max=50, kappa=1.0)
    pair = qsnom.build_hamiltonian_pair(tip, sample, cfg1)
    ref = qsnom.basis_index(0, 0, 1, 2)
    obs = {m: qsnom.forward(11.7, 0.5, 1.0, 1.0, method=m).omega_s for m in ("closed", "oracle")}
    problems = {m: qsnom.InversionProblem(obs[m], 0.5, 1.0, 1.0, method=m) for m in obs}
    iters = {m: qsnom.invert_permittivity(problems[m]).iterations for m in obs}
    spec = qsnom.SweepSpec.from_range(
        "epsilon_d", 1.01, 100.0, 1000, spacing="log", fixed={"R": 1.0, "omega": 1.0, "kappa": 0.05}
    )
    imports = import_times(repeats=5)
    rows = [
        ("`energy_shift`", fmt(per_call(lambda: closedform.energy_shift(1.0, 0.5, alpha, 1.0, 1.0)))),
        ("`photon_report`", fmt(per_call(lambda: closedform.photon_report(a, 0.5, alpha, 1.0, 1.0)))),
        ("`build_hamiltonian_pair` n_max=1 / 50",
         f"{fmt(per_call(lambda: qsnom.build_hamiltonian_pair(tip, sample, cfg1)))} / "
         f"{fmt(per_call(lambda: qsnom.build_hamiltonian_pair(tip, sample, cfg50)))}"),
        ("`rs_pt2` / `validate_against_exact` (n_max=1)",
         f"{fmt(per_call(lambda: qsnom.rs_pt2(pair.h0, pair.delta_h, ref)))} / "
         f"{fmt(per_call(lambda: qsnom.validate_against_exact(pair.h0, pair.delta_h, ref)))}"),
        ("`forward` closed / oracle",
         f"{fmt(per_call(lambda: qsnom.forward(11.7, 0.5, 1.0, 1.0)))} / "
         f"{fmt(per_call(lambda: qsnom.forward(11.7, 0.5, 1.0, 1.0, method='oracle')))}"),
        ("`invert_permittivity` closed / oracle",
         f"{fmt(per_call(lambda: qsnom.invert_permittivity(problems['closed'])))} / "
         f"{fmt(per_call(lambda: qsnom.invert_permittivity(problems['oracle'])))}"
         f" ({iters['closed']} / {iters['oracle']} brentq iterations)"),
        ("`run_sweep`, 1000 points", fmt(per_call(lambda: qsnom.run_sweep(spec), repeats=3, budget_s=0))),
        ("`consistency_report`, 4 heights",
         fmt(per_call(lambda: qsnom.consistency_report(3.0, (0.5, 1.0, 2.0, 4.0))))),
        ("`qsnom simulate` / `qsnom invert` subprocess",
         f"{fmt(subprocess_s(['-m', 'qsnom.cli', 'simulate']))} / "
         f"{fmt(subprocess_s(['-m', 'qsnom.cli', 'invert', '--set', 'observed_omega_s=0.9999']))}"),
        ("`import qsnom.cli` (of it, `scipy.optimize`)",
         f"{imports['qsnom.cli']:.0f} ms ({imports['scipy.optimize']:.0f} ms)"),
    ]
    print(f"Host reference {calib.sample() * 1e3:.2f} ms (nominal {calib.NOMINAL_S * 1e3:.2f} ms); times are raw.")
    print("| layer | per call |\n| --- | --- |")
    for name, value in rows:
        print(f"| {name} | {value} |")


if __name__ == "__main__":
    main()
