"""Steadiness check: run the benchmark in rounds and compare the medians.

Run from the repository root:

    python3 perfbench/steady.py                  # 2 rounds x 10 seeds x every workload
    python3 perfbench/steady.py --held-out       # seeds kept out of tuning

For every workload and end-to-end metric it prints each round's median
and spread (distance between the first and third quartile, as a share
of the median) next to the metric's bound from BENCHMARK.json. A round
is steady when every spread is below its bound; two rounds agree when
no metric's later median is worse than the first by more than its
bound. Each run measures for BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TUNING_SEEDS = 1  # seeds 1.. were used while the benchmark was tuned
HELD_OUT_SEEDS = 1001  # seeds 1001.. were not, and are kept for claims
SEEDS = 10  # runs per workload and round


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seeds from {HELD_OUT_SEEDS} on")
    args = parser.parse_args()
    first = HELD_OUT_SEEDS if args.held_out else TUNING_SEEDS
    seeds = range(first, first + SEEDS)
    metrics = bench["end_to_end"]

    values = {}  # (round, workload, metric) -> list of values
    started = time.monotonic()
    for rnd in range(args.rounds):
        for workload in workloads:
            for seed in seeds:
                res = _run(workload, seed, seconds)
                if not res["correct"]:
                    print(f"round {rnd + 1} {workload} seed {seed}: correct=false")
                for m in metrics:
                    value = res["metrics"][m["name"]]["value"]
                    values.setdefault((rnd, workload, m["name"]), []).append(value)
    print(f"{len(workloads) * len(seeds) * args.rounds} runs in"
          f" {time.monotonic() - started:.0f} s, seeds {seeds.start}..{seeds.stop - 1}")

    ok = True
    header = f"{'workload':12} {'metric':16} {'bound':>5}"
    header += "".join(f" {'median' + str(r + 1):>12} {'spread' + str(r + 1):>8}" for r in range(args.rounds))
    print(header + "   drift  verdict")
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(values[(r, workload, name)]) for r in range(args.rounds)]
            spreads = [_spread(values[(r, workload, name)]) for r in range(args.rounds)]
            line = f"{workload:12} {name:16} {bound:5.2f}"
            line += "".join(f" {md:12.6g} {sp:8.4f}" for md, sp in zip(meds, spreads))
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = max(sign * (md - meds[0]) / meds[0] for md in meds)
            failures = []
            if max(spreads) >= bound:
                failures.append("SPREAD>BOUND")
            if drift > bound:
                failures.append("DRIFT>BOUND")
            ok = ok and not failures
            note = "spread>bound/3" if max(spreads) >= bound / 3 else "ok"
            print(f"{line} {drift:+7.4f}  {' '.join(failures) or note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
