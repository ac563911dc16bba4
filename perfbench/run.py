"""qsnom benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload invert-map --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report. A JSON record with the environment
is also written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # fresh interpreters set up besides the measuring one
BLAS_THREADS = "1"  # one client in one process; <= nproc on any machine
TIME_LIMIT_S = 170  # a run must end within 180 s
WORKLOADS = ("invert-map", "oracle-scan", "cli-batch")


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], env: dict[str, str], cwd: Path, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its start time and its JSON report.

    The worker gets its own process group, so a worker that overruns
    ``deadline`` is killed together with any ``qsnom`` command it runs.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: worker {args[3]} overran the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"perfbench: worker {args[3]} exited with {proc.returncode}")
    return started, json.loads(stdout.strip().splitlines()[-1])


def _environment(root: Path, worker_env: dict[str, str]) -> dict[str, object]:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qsnom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "blas_threads": {k: worker_env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def _end_to_end(res: dict, setups: list[float], startups: list[float]):
    """End-to-end metrics, timings in host-normalised time, and the raw figures."""
    raw_ms = [s * 1e3 for s in res["latencies_s"]]
    norm_ms = calib.normalised_ms(res)
    good = res["good"]
    tail, pct, beyond = _tail(norm_ms)
    setup_s = statistics.median(setups) * calib.STARTUP_NOMINAL_S / statistics.median(startups)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "goodput_per_s": {"value": good / (sum(norm_ms) / 1e3), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(norm_ms), "unit": "ms"},
        "latency_tail_ms": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
    }
    raw = {
        "goodput_per_s": good / res["wall_s"],
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_tail_ms": _tail(raw_ms)[0],
        "setup_s": statistics.median(setups),
        "host_scale_median": statistics.median(
            calib.NOMINAL[res["reference"]] / r for r in res["refs_s"]
        ),
        "startup_scale": calib.STARTUP_NOMINAL_S / statistics.median(startups),
    }
    tail_info = {"percentile": pct, "samples_beyond": beyond, "samples": len(norm_ms)}
    return metrics, raw, tail_info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qsnom" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from a qsnom checkout root (src/qsnom not found)\n")
        return 2
    out_dir = HERE / "out"
    work_dir = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = _env(root)
    common = [args.workload, str(args.seed), repr(args.seconds)]
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # each set-up is paired with a fresh interpreter importing the
        # libraries alone, which gives the host's start-up speed
        setups, startups = [], []
        for _ in range(SETUP_PROBES):
            startups.append(calib.startup_reference(env))
            started, probe = _worker(common + ["setup", str(work_dir)], env, root, deadline)
            setups.append(probe["ready"] - started)
        startups.append(calib.startup_reference(env))
        mode = "traced" if args.trace else "plain"
        started, res = _worker(common + [mode, str(work_dir)], env, root, deadline)
        setups.append(res["ready"] - started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, good = res["attempted"], res["good"]
    reasons = res["reasons"]
    correct = all(r.startswith("known:") for r in reasons)
    record: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**_environment(root, env), **res.get("versions", {})},
        "failure_reasons": reasons,
        "setup_samples_s": setups,
        "startup_reference_s": startups,
    }
    lines = [f"qsnom benchmark  workload={args.workload} seed={args.seed} trace={args.trace}"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in _layer_units(res["layer"]).items()}
        record["layer_all"] = res["layer"]
    else:
        metrics, record["raw"], tail_info = _end_to_end(res, setups, startups)
        record["latency_tail"] = tail_info
        lines.append(
            f"  fail_ratio {(attempted - good) / attempted:.6g} ratio"
            f"  ({attempted - good} of {attempted} ops)"
        )
        lines.append(
            f"  latency_tail_ms is p{tail_info['percentile']:.2f} of"
            f" {tail_info['samples']} samples, {tail_info['samples_beyond']} beyond it"
        )
    for name, m in metrics.items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    for reason, count in sorted(reasons.items()):
        lines.append(f"  failed ops: {count} x {reason}")
    record["metrics"] = metrics
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - good,
        "metrics": metrics,
    }))
    return 0


def _layer_units(layer: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Declared per-layer metrics with units; absent counters read 0."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (float(layer.get(m["name"], 0.0)), m["unit"]) for m in declared}


if __name__ == "__main__":
    sys.exit(main())
