"""Differential fuzz: the same seeded draws through two source trees.

Run from anywhere:

    python3 tools/difffuzz.py OLD_TREE NEW_TREE [--draws N] [--seed S]

Each tree runs the draws in its own subprocess, with its ``src/`` first
on ``PYTHONPATH``. A draw calls ``forward`` and ``invert_permittivity``
on both routes, ``consistency_report``, and ``photon_report`` and
``beta_coefficients`` on the same arguments. Each inversion runs twice,
so the second call meets the band the first one left in the band
cache. Each parameter is drawn log-uniformly from a physical range or,
one time in five, from a list of extreme values (zero, negatives,
subnormals, huge values, inf and nan). A call's outcome is its returned value, read
through its public fields and properties with floats as hex, or its
error class and message, plus any warning it emitted. Every outcome
that differs between the trees is printed, then a count of the class
transitions. The exit status is 0 when nothing differs, 1 when
something does and 2 when a tree cannot be run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

EXTREMES = (0.0, -1.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e300, 1e308, math.inf, math.nan)
EPSILON_EXTREMES = EXTREMES + (1.0, 1.001, 1e17)
ALPHA_EXTREMES = (0.0, 1.0 - 2.0**-53, 1.0, -0.1, math.nan)
MAX_ITERS = (200, 200, 10, 1)


# ------------------------------------------------------------------ child
def _pick(rng: random.Random, lo: float, hi: float, extremes: tuple) -> float:
    if rng.random() < 0.2:
        return rng.choice(extremes)
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random) -> dict:
    """Every random number a draw uses, taken before any call runs, so
    both trees see the same inputs whatever their outcomes."""
    raw = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in raw))
    return {
        "epsilon_d": _pick(rng, 1.0, 1e4, EPSILON_EXTREMES),
        "height_nm": _pick(rng, 0.2, 10.0, EXTREMES),
        "omega": _pick(rng, 0.05, 5.0, EXTREMES),
        "kappa": _pick(rng, 1e-3, 2.0, EXTREMES),
        "round_trip": rng.random() < 0.5,
        "fraction": _pick(rng, 0.3, 1.02, EXTREMES),
        "max_iter": rng.choice(MAX_ITERS),
        "alpha": _pick(rng, 1e-3, 0.999, ALPHA_EXTREMES),
        "ground": rng.random() < 0.5,
        "coefficients": [x / norm for x in raw],
    }


def _encode(value: object) -> object:
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        # public properties too, so a value that stores its numbers packed
        # and reads them back through properties encodes as one with fields
        names = {f.name for f in dataclasses.fields(value)}
        names.update(n for n, a in vars(type(value)).items() if isinstance(a, property))
        public = sorted(n for n in names if not n.startswith("_"))
        return {"type": type(value).__name__, **{n: _encode(getattr(value, n)) for n in public}}
    return repr(value)


def _non_finite(encoded: object) -> bool:
    if isinstance(encoded, str):
        return encoded in ("nan", "inf", "-inf")
    if isinstance(encoded, list):
        return any(_non_finite(v) for v in encoded)
    if isinstance(encoded, dict):
        return any(_non_finite(v) for v in encoded.values())
    return False


def _outcome(call) -> tuple[str, object]:
    """``(class label, encoded outcome)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # every class is an outcome to compare
            label, encoded = type(exc).__name__, f"{type(exc).__name__}: {exc}"
        else:
            encoded = _encode(result)
            label = type(result).__name__ + (" non-finite" if _non_finite(encoded) else "")
    if caught:
        label += " +warning"
        encoded = {"outcome": encoded, "warnings": [
            f"{w.category.__name__}: {w.message}" for w in caught
        ]}
    return label, encoded


def _run(draws: int, seed: int) -> None:
    import qsnom
    from qsnom import closedform

    print(json.dumps({"qsnom": str(Path(qsnom.__file__).resolve())}))
    rng = random.Random(seed)
    for index in range(draws):
        d = _draw(rng)
        point = (d["epsilon_d"], d["height_nm"], d["omega"], d["kappa"])
        calls = []
        for method in ("closed", "oracle"):
            calls.append((f"forward[{method}]", point,
                          lambda m=method: qsnom.forward(*point, method=m)))
            observed = d["omega"] * d["fraction"]
            if d["round_trip"]:
                try:
                    observed = qsnom.forward(*point, method=method).omega_s
                except Exception:  # the forward call's own outcome shows it
                    pass
            args = (observed, d["height_nm"], d["omega"], d["kappa"])
            invert = (lambda a=args, m=method: qsnom.invert_permittivity(
                qsnom.InversionProblem(*a, max_iter=d["max_iter"], method=m)))
            # the second call finds the band the first one computed
            calls.append((f"invert[{method}]", args + (d["max_iter"],), invert))
            calls.append((f"invert[{method}] again", args + (d["max_iter"],), invert))
        heights = (d["height_nm"], 2.0 * d["height_nm"], 4.0 * d["height_nm"])
        calls.append(("consistency_report", (d["epsilon_d"], heights, d["omega"], d["kappa"]),
                      lambda: qsnom.consistency_report(
                          d["epsilon_d"], heights, omega=d["omega"], kappa=d["kappa"])))
        a = (1.0, 0.0, 0.0, 0.0) if d["ground"] else tuple(d["coefficients"])
        args = (a, d["height_nm"], d["alpha"], d["omega"], d["kappa"])
        calls.append(("photon_report", args, lambda: qsnom.photon_report(
            closedform.InitialCoefficients(*a), *args[1:])))
        calls.append(("beta_coefficients", args, lambda: closedform.beta_coefficients(
            closedform.InitialCoefficients(*a), *args[1:])))
        for name, args, call in calls:
            label, encoded = _outcome(call)
            print(json.dumps({"draw": index, "call": name, "args": repr(args),
                              "label": label, "outcome": encoded}))


# ----------------------------------------------------------------- parent
def _collect(tree: Path, draws: int, seed: int) -> list[dict]:
    env = dict(os.environ)
    src = str(tree / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run",
         "--draws", str(draws), "--seed", str(seed)],
        capture_output=True, text=True, env=env, cwd=tree,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"the draws failed to run on {tree}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    loaded = Path(lines[0]["qsnom"])
    if not loaded.is_relative_to((tree / "src").resolve()):
        _fail(f"{tree} ran qsnom from {loaded}")
    return lines[1:]


def _fail(message: str) -> None:
    print(f"difffuzz: {message}", file=sys.stderr)
    raise SystemExit(2)


def _field_changes(old: object, new: object, path: str = "") -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [c for k in old for c in _field_changes(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in _field_changes(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path or '.'}: {old} -> {new}"]


def compare(old_tree: Path, new_tree: Path, draws: int, seed: int) -> int:
    old = _collect(old_tree, draws, seed)
    new = _collect(new_tree, draws, seed)
    transitions: Counter[str] = Counter()
    changed = 0
    for a, b in zip(old, new, strict=True):
        if a["outcome"] == b["outcome"]:
            continue
        changed += 1
        # a round-trip inversion measures the tree's own forward result,
        # so a changed forward map changes its input
        moved = "" if a["args"] == b["args"] else " (input changed)"
        transitions[f"{a['label']} -> {b['label']}{moved}"] += 1
        print(f"draw {a['draw']} {a['call']}{a['args']}")
        if moved:
            print(f"  input now {b['call']}{b['args']}")
        if a["label"] == b["label"]:
            for change in _field_changes(a["outcome"], b["outcome"]):
                print(f"  {change}")
        else:
            print(f"  old: {json.dumps(a['outcome'])}")
            print(f"  new: {json.dumps(b['outcome'])}")
    print(f"{changed} of {len(old)} outcomes changed over {draws} draws (seed {seed})")
    for transition, count in sorted(transitions.items()):
        print(f"  {count:6d}  {transition}")
    return 1 if changed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--draws", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        _run(args.draws, args.seed)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_TREE NEW_TREE")
    return compare(*(t.resolve() for t in args.trees), args.draws, args.seed)


if __name__ == "__main__":
    sys.exit(main())
