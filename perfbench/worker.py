"""One measuring process: set up a workload, run its closed loop, report.

``run.py`` starts this script in a fresh interpreter, so its set-up time
covers interpreter start, importing qsnom and building the seeded
inputs. The last line of standard output is one JSON object for
``run.py``. Not meant to be run by hand.

    worker.py WORKLOAD SEED SECONDS MODE WORKDIR

MODE is ``setup`` (set up, report the ready time, exit), ``plain``
(untraced whole passes over the op list for SECONDS) or ``traced``
(untraced whole passes for half of SECONDS, then traced whole passes
for the other half).
WORKDIR takes the files that ``cli-batch`` commands write.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calib

REF_EVERY_S = 0.2  # host-speed reference between ops at least this often
MIN_PASSES = 3  # so that a slow cli-batch run still holds 24 commands


def _peak_rss_mib(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _loop(wl, seconds: float, tracer=None) -> dict:
    """Run whole passes over the op list for ``seconds``; check the ops
    afterwards.

    The deadline is only looked at between passes, so every op runs
    equally often and each run has the same mix of operation kinds. A
    pass starts only if one more pass as long as the last one ends
    before the deadline; the first ``MIN_PASSES`` passes always run.
    Host-speed reference samples (``calib.take``) are taken between
    ops: every ``REF_EVERY_S`` for the in-process reference, at each
    pass boundary for the start-up reference, which runs for most of a
    second.
    """
    n = len(wl.ops)
    starts: list[float] = []
    latencies: list[float] = []
    raws: list[object] = []
    ref_times: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    end = last_ref = start - REF_EVERY_S
    pass_start = pass_s = start
    i = 0
    while True:
        if wl.reference == "startup":
            due = i % n == 0
        else:
            due = end - last_ref >= REF_EVERY_S
        if due:
            refs.append(calib.take(wl.reference))
            last_ref = time.perf_counter()
            ref_times.append(last_ref)
        if i % n == 0 and i:
            pass_s, pass_start = end - pass_start, end
            if i >= MIN_PASSES * n and end + pass_s > deadline:
                break
        if tracer is not None:
            tracer.begin_op(i % n)
        t0 = time.perf_counter()
        raw = wl.execute(i % n)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        starts.append(t0)
        latencies.append(end - t0)
        raws.append(raw)
        i += 1
    if wl.reference != "startup":  # the loop ends on a pass boundary
        refs.append(calib.take(wl.reference))
        ref_times.append(time.perf_counter())
    reasons = Counter()
    good = 0
    written = 0
    for k, raw in enumerate(raws):
        reason = wl.check(k % n, raw)
        if reason is None:
            good += 1
        else:
            reasons[reason] += 1
        if hasattr(wl, "bytes_written"):
            written += wl.bytes_written(raw)
    return {
        "attempted": len(raws),
        "good": good,
        "wall_s": end - start,
        "starts_s": starts,
        "latencies_s": latencies,
        "reference": wl.reference,
        "ref_times_s": ref_times,
        "refs_s": refs,
        "reasons": dict(reasons),
        "bytes_written": written,
    }


def _goodput(loop: dict) -> float:
    """Good ops per second of normalised op time."""
    return loop["good"] / (sum(calib.normalised_ms(loop)) / 1e3)


def import_times(repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time of qsnom.cli and scipy.optimize, in ms."""
    import subprocess

    samples: dict[str, list[float]] = {"qsnom.cli": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qsnom.cli"],
            capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1000.0)
    return {k: statistics.median(v) for k, v in samples.items()}


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    import workloads

    wl = workloads.make(name, seed, workdir, in_process=(mode == "traced"))
    ready = time.monotonic()
    result: dict[str, object] = {"ready": ready}
    if mode == "plain":
        result.update(_loop(wl, seconds))
        result["peak_rss_mib"] = _peak_rss_mib(wl.rss_scope)
    elif mode == "traced":
        from tracer import Tracer

        plain = _loop(wl, seconds / 2)
        with Tracer() as tracer:
            traced = _loop(wl, seconds / 2, tracer=tracer)
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = _goodput(traced) / max(_goodput(plain), 1e-12)
        layer["fail_ratio"] = 1.0 - traced["good"] / traced["attempted"]
        layer["cli.bytes_written"] = traced["bytes_written"] / traced["attempted"]
        imports = import_times()
        layer["cli.import_ms"] = imports["qsnom.cli"]
        layer["cli.import_scipy_ms"] = imports["scipy.optimize"]
        tracer.dump(Path(__file__).resolve().parent / "out" / f"spans-{name}.npz")
        result.update(
            attempted=traced["attempted"],
            good=traced["good"],
            reasons=traced["reasons"],
            layer=layer,
        )
    if mode != "setup":
        result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
