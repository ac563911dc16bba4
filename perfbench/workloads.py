"""The three benchmark workloads: inputs from a seed, one op, its check.

Every workload is a closed loop driven by one client: ``execute(i)``
runs operation ``i`` of the seeded op list and returns its raw outcome,
``check(i, raw)`` compares that outcome with the expected one and
returns ``None`` or a failure reason. A reason starting with
``known:`` names a defect recorded in the README; it still counts as a
failed operation. Every other reason marks the run as incorrect.

Op lists are built from fixed blocks whose order and parameters the
seed draws, so each workload keeps the same mix of operation kinds on
every seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import qsnom
import qsnom.cli
import qsnom.crosscheck
import qsnom.inversion
from qsnom import closedform
from qsnom.errors import OutOfBracketError, QsnomError, ShiftExceedsGapError

OMEGA = 1.0

@dataclass(frozen=True)
class Raised:
    """An exception returned by ``execute`` as a value, so the timed call
    is the operation alone and the check runs after the loop. Only the
    class and message are kept: a traceback would keep its frames alive
    and grow the process with every failed op."""

    kind: type
    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "Raised":
        return cls(type(exc), str(exc))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


# ---------------------------------------------------------------- invert-map
@dataclass(frozen=True)
class Pixel:
    height_nm: float
    method: str
    observed: float
    truth: float | None  # None: the observation lies outside the band
    hi_raises: bool  # forward at the bracket top raises ShiftExceedsGapError


class InvertMap:
    """One op inverts one pixel's measured frequency to a permittivity."""

    name = "invert-map"
    rss_scope = "self"
    reference = "in-process"
    HEIGHTS = (0.3, 0.5, 1.0, 2.0)
    KAPPA = 1.0
    EPS_RANGE = (1.01, 100.0)
    # per height and block: three closed-route pixels, one oracle-route
    # pixel and one pixel outside the band (above omega or below the floor)
    KINDS = ("closed", "closed", "closed", "oracle", "outside")
    OUTSIDE = {0.3: "above", 0.5: "below", 1.0: "above", 2.0: "below"}
    BLOCKS = 12
    REL_TOL = 1e-6

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # forward at the default bracket top gives the band floor, or
        # raises where the shift there exceeds the gap
        bracket_hi = qsnom.InversionProblem(OMEGA, 1.0, OMEGA, self.KAPPA).bracket[1]
        self.floors: dict[tuple[float, str], float | None] = {}
        for height in self.HEIGHTS:
            for method in ("closed", "oracle"):
                try:
                    floor = self._forward(bracket_hi, height, method)
                except ShiftExceedsGapError:
                    floor = None
                self.floors[height, method] = floor
        # Truths are stratified: each (height, route) pair draws one truth
        # from each of its equal slices of log(eps), in seeded order, so the
        # mix of easy and hard inversions is the same on every seed.
        strata = {}
        for kind in set(self.KINDS) - {"outside"}:
            n = self.BLOCKS * self.KINDS.count(kind)
            for height in self.HEIGHTS:
                strata[height, kind] = [(k, n) for k in rng.sample(range(n), n)]
        self.ops: list[Pixel] = []
        for _ in range(self.BLOCKS):
            block = []
            for height in self.HEIGHTS:
                for kind in self.KINDS:
                    if kind == "outside":
                        block.append(self._outside(rng, height))
                    else:
                        stratum = strata[height, kind].pop()
                        block.append(self._inside(rng, height, kind, stratum))
            rng.shuffle(block)
            self.ops.extend(block)

    def _forward(self, eps: float, height: float, method: str) -> float:
        return qsnom.forward(eps, height, OMEGA, self.KAPPA, method=method).omega_s

    def _inside(
        self, rng: random.Random, height: float, method: str, stratum: tuple[int, int]
    ) -> Pixel:
        lo, hi = (math.log(v) for v in self.EPS_RANGE)
        k, n = stratum
        truth = math.exp(lo + (k + rng.random()) / n * (hi - lo))
        # a truth whose own forward raises is no measurement: draw again
        while True:
            try:
                observed = self._forward(truth, height, method)
            except ShiftExceedsGapError:
                truth = _log_uniform(rng, *self.EPS_RANGE)
                continue
            break
        hi_raises = self.floors[height, method] is None
        return Pixel(height, method, observed, truth, hi_raises)

    def _outside(self, rng: random.Random, height: float) -> Pixel:
        floor = self.floors[height, "closed"]
        if self.OUTSIDE[height] == "above" or floor is None:
            observed = OMEGA * (1.0 + rng.uniform(1e-3, 0.05))
        else:
            observed = floor * (1.0 - rng.uniform(0.01, 0.5))
        return Pixel(height, "closed", observed, None, floor is None)

    def execute(self, i: int):
        px = self.ops[i]
        problem = qsnom.InversionProblem(
            observed_omega_s=px.observed,
            height_nm=px.height_nm,
            omega=OMEGA,
            kappa=self.KAPPA,
            method=px.method,
        )
        try:
            return qsnom.inversion.invert_permittivity(problem).epsilon_d
        except Exception as exc:  # classed by check()
            return Raised.of(exc)

    def check(self, i: int, raw) -> str | None:
        px = self.ops[i]
        if isinstance(raw, Raised):
            if issubclass(raw.kind, ShiftExceedsGapError) and px.hi_raises:
                return "known:invert-evaluates-bracket-hi"
            if px.truth is None and issubclass(raw.kind, OutOfBracketError):
                return None
            return f"unexpected:{raw.kind.__name__}"
        if px.truth is None:
            return "wrong:returned-outside-band"
        if not _close(raw, px.truth, self.REL_TOL):
            return "wrong:epsilon"
        return None


# --------------------------------------------------------------- oracle-scan
@dataclass(frozen=True)
class Scan:
    epsilon_d: float
    n_max: int


class OracleScan:
    """One op is one closed-form against numeric consistency report."""

    name = "oracle-scan"
    rss_scope = "self"
    reference = "in-process"
    HEIGHTS = (0.5, 1.0, 2.0, 4.0)
    KAPPA = 0.05
    EPS_RANGE = (1.5, 50.0)
    N_MAX = (1, 8, 32, 64, 128)  # register side 4 * (n_max + 1): 8 .. 516
    BLOCKS = 2
    EXPONENT_TOL = 1e-6

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ops: list[Scan] = []
        for _ in range(self.BLOCKS):
            block = [Scan(_log_uniform(rng, *self.EPS_RANGE), k) for k in self.N_MAX]
            rng.shuffle(block)
            self.ops.extend(block)

    def execute(self, i: int):
        op = self.ops[i]
        try:
            return qsnom.crosscheck.consistency_report(
                op.epsilon_d, self.HEIGHTS, omega=OMEGA, kappa=self.KAPPA, n_max=op.n_max
            )
        except Exception as exc:
            return Raised.of(exc)

    def check(self, i: int, raw) -> str | None:
        if isinstance(raw, Raised):
            return f"unexpected:{raw.kind.__name__}"
        if abs(raw.closed_height_exponent + 3.0) > self.EXPONENT_TOL:
            return "wrong:closed-exponent"
        if abs(raw.oracle_height_exponent + 6.0) > self.EXPONENT_TOL:
            return "wrong:oracle-exponent"
        if not raw.scaling_mismatch:
            return "wrong:scaling-mismatch"
        for row in raw.rows:
            values = (
                row.g, row.delta_e_closed, row.delta_e_oracle, row.delta_e_exact,
                row.pt2_exact_residual, row.beta1_closed, row.beta1_oracle,
            )
            if not all(math.isfinite(v) for v in values):
                return "wrong:non-finite-row"
        return None


# ----------------------------------------------------------------- cli-batch
@dataclass
class Command:
    kind: str
    argv: list[str]  # after the program name; ``--out`` is appended per run
    exit_code: int
    expected: object  # library values the output must reproduce


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: bytes
    stderr: bytes
    out: bytes | None
    meta: bytes | None


def _sets(**kv: object) -> list[str]:
    argv: list[str] = []
    for key, value in kv.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return argv


class CliBatch:
    """One op is one ``qsnom`` command run as a fresh subprocess.

    ``in_process`` runs the same argv lists through ``qsnom.cli.main`` in
    the benchmark process instead; the traced run uses it.
    """

    name = "cli-batch"
    rss_scope = "children"
    KAPPA = 1.0
    HEIGHTS = (0.5, 1.0, 2.0)
    SWEEP_POINTS = 1000
    ORACLE_HEIGHTS = (0.5, 1.0, 2.0, 4.0)

    def __init__(self, seed: int, workdir: Path, in_process: bool = False) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.in_process = in_process
        # commands in fresh interpreters follow the start-up reference
        self.reference = "in-process" if in_process else "startup"
        self.env = dict(os.environ)
        self.ops: list[Command] = [
            self._simulate(rng, "closed"),
            self._simulate(rng, "oracle"),
            self._invert(rng, "closed"),
            self._invert(rng, "oracle"),
            self._invert_outside(rng),
            self._sweep_epsilon(rng),
            self._sweep_height(rng),
            self._oracle_check(rng),
        ]
        rng.shuffle(self.ops)
        self.first: dict[int, CliOutcome] = {}

    # -- command construction ----------------------------------------
    def _simulate(self, rng: random.Random, method: str) -> Command:
        eps = _log_uniform(rng, 1.5, 50.0)
        height = rng.choice(self.HEIGHTS)
        fr = qsnom.forward(eps, height, OMEGA, self.KAPPA, method=method)
        beta = closedform.beta_coefficients(
            closedform.InitialCoefficients.ground_state(), height, fr.alpha, OMEGA, self.KAPPA
        )
        expected = {
            "method": method,
            "epsilon_d": fr.epsilon_d,
            "alpha": fr.alpha,
            "g_eV": fr.g,
            "delta_e_eV": fr.delta_e,
            "omega_s": fr.omega_s,
            "amplitude": fr.amplitude,
            "beta_closed_1": beta.beta1,
            "near_field_ratio": fr.near_field_ratio,
            "warnings": "; ".join(fr.warnings),
        }
        argv = ["simulate"] + _sets(
            epsilon_d=eps, R_nm=height, kappa=self.KAPPA, forward_method=method
        )
        return Command(f"simulate-{method}", argv, 0, expected)

    def _invert(self, rng: random.Random, method: str) -> Command:
        eps = _log_uniform(rng, 1.5, 50.0)
        height = rng.choice(self.HEIGHTS)
        observed = qsnom.forward(eps, height, OMEGA, self.KAPPA, method=method).omega_s
        result = qsnom.invert_permittivity(
            qsnom.InversionProblem(observed, height, OMEGA, self.KAPPA, method=method)
        )
        expected = {
            "observed_omega_s": observed,
            "epsilon_d": result.epsilon_d,
            "iterations": float(result.iterations),
            "residual": result.residual,
            "method": method,
        }
        argv = ["invert"] + _sets(
            observed_omega_s=observed, R_nm=height, kappa=self.KAPPA, forward_method=method
        )
        return Command(f"invert-{method}", argv, 0, expected)

    def _invert_outside(self, rng: random.Random) -> Command:
        observed = OMEGA * (1.0 + rng.uniform(1e-3, 0.05))
        argv = ["invert"] + _sets(observed_omega_s=observed, R_nm=1.0, kappa=self.KAPPA)
        return Command("invert-outside", argv, qsnom.cli.EXIT_MODEL, "OutOfBracketError")

    def _sweep_rows(self, spec: qsnom.SweepSpec) -> list[list[object]]:
        """Expected rows: each point evaluates only the routes its columns need."""
        need_oracle = "delta_e_oracle_eV" in spec.outputs
        rows = []
        for value in spec.values:
            params = dict(spec.fixed)
            params[spec.axis] = value
            args = (params["epsilon_d"], params["R"], params["omega"], params["kappa"])
            row: dict[str, object] = {name: None for name in spec.outputs}
            try:
                fr = qsnom.forward(*args, near_field_factor=spec.near_field_factor)
                oracle = (
                    qsnom.forward(*args, near_field_factor=spec.near_field_factor, method="oracle")
                    if need_oracle
                    else None
                )
            except QsnomError as exc:
                rows.append([value, *row.values(), "", f"{type(exc).__name__}: {exc}"])
                continue
            available = {
                "alpha": fr.alpha,
                "g_eV": fr.g,
                "delta_e_closed_eV": fr.delta_e,
                "delta_e_oracle_eV": oracle.delta_e if oracle else None,
                "omega_s": fr.omega_s,
                "amplitude": fr.amplitude,
                "near_field_ratio": fr.near_field_ratio,
            }
            rows.append(
                [value, *(available[n] for n in spec.outputs), "; ".join(fr.warnings), ""]
            )
        return rows

    def _sweep_epsilon(self, rng: random.Random) -> Command:
        start = rng.uniform(1.01, 1.5)
        stop = rng.uniform(50.0, 100.0)
        height = rng.choice(self.HEIGHTS)
        spec = qsnom.SweepSpec.from_range(
            "epsilon_d", start, stop, self.SWEEP_POINTS, spacing="log",
            fixed={"R": height, "omega": OMEGA, "kappa": self.KAPPA},
        )
        argv = ["sweep"] + _sets(
            sweep_axis="epsilon_d", sweep_start=start, sweep_stop=stop,
            sweep_count=self.SWEEP_POINTS, sweep_spacing="log", R_nm=height,
            kappa=self.KAPPA,
        )
        return Command("sweep-epsilon", argv, 0, self._sweep_rows(spec))

    def _sweep_height(self, rng: random.Random) -> Command:
        # at epsilon_d = 3 the closed route fails below R ~ 0.292 nm and
        # the oracle route below R ~ 0.37 nm; the sweep has points in both
        # failing stretches and in the valid range above them
        values = sorted(
            [rng.uniform(0.2, 0.28)]
            + [rng.uniform(0.30, 0.36) for _ in range(2)]
            + [rng.uniform(0.4, 2.0) for _ in range(5)]
        )
        spec = qsnom.SweepSpec(
            "R", values, {"epsilon_d": 3.0, "omega": OMEGA, "kappa": self.KAPPA},
            outputs=("omega_s",),
        )
        argv = ["sweep"] + _sets(
            sweep_axis="R", sweep_values=",".join(repr(v) for v in spec.values),
            epsilon_d=3.0, kappa=self.KAPPA, sweep_outputs="omega_s",
        )
        return Command("sweep-height", argv, 0, self._sweep_rows(spec))

    def _oracle_check(self, rng: random.Random) -> Command:
        eps = _log_uniform(rng, 1.5, 50.0)
        report = qsnom.consistency_report(eps, self.ORACLE_HEIGHTS, omega=OMEGA)
        rows = [
            [eps, r.alpha, r.height_nm, r.g, r.delta_e_closed, r.delta_e_oracle,
             r.delta_e_exact, r.pt2_exact_residual, r.beta1_closed, r.beta1_oracle,
             report.closed_height_exponent, report.oracle_height_exponent,
             report.scaling_mismatch, "; ".join(r.warnings), ""]
            for r in report.rows
        ]
        argv = ["oracle-check"] + _sets(
            oracle_epsilon_values=repr(eps),
            oracle_heights_nm=",".join(repr(h) for h in self.ORACLE_HEIGHTS),
        )
        return Command("oracle-check", argv, 0, rows)

    # -- running ------------------------------------------------------
    def _paths(self, i: int) -> tuple[Path, Path]:
        out = self.workdir / f"op{i}.out"
        return out, out.with_suffix(".meta")

    def execute(self, i: int) -> CliOutcome:
        cmd = self.ops[i]
        out, meta = self._paths(i)
        for path in (out, meta):
            path.unlink(missing_ok=True)
        argv = cmd.argv + ["--out", str(out)]
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = qsnom.cli.main(argv)
            streams = (stdout.getvalue().encode(), stderr.getvalue().encode())
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "qsnom.cli", *argv],
                capture_output=True, env=self.env, check=False,
            )
            code, streams = proc.returncode, (proc.stdout, proc.stderr)
        return CliOutcome(
            code, *streams,
            out.read_bytes() if out.exists() else None,
            meta.read_bytes() if meta.exists() else None,
        )

    def bytes_written(self, raw: CliOutcome) -> int:
        return len(raw.out or b"") + len(raw.meta or b"")

    def check(self, i: int, raw: CliOutcome) -> str | None:
        cmd = self.ops[i]
        first = self.first.setdefault(i, raw)
        if (first.stdout, first.out, first.meta) != (raw.stdout, raw.out, raw.meta):
            return "wrong:rerun-not-byte-identical"
        if raw.code != cmd.exit_code:
            return f"wrong:exit-{raw.code}"
        if cmd.exit_code == 0 and raw.meta is None:
            return "wrong:missing-meta"
        return self._check_values(cmd, raw)

    def _check_values(self, cmd: Command, raw: CliOutcome) -> str | None:
        if cmd.kind == "invert-outside":
            if cmd.expected.encode() not in raw.stderr or raw.out is not None:
                return "wrong:outside-invert-report"
            return None
        if cmd.kind.startswith(("simulate", "invert")):
            lines = raw.stdout.decode().splitlines()
            got = dict(line.split("=", 1) for line in lines)
            if raw.out != raw.stdout:
                return "wrong:out-differs-from-stdout"
            for key, want in cmd.expected.items():
                if not _same_cell(got.get(key), want):
                    return f"wrong:{key}"
            return None
        rows = list(csv.reader(io.StringIO((raw.out or b"").decode())))[1:]
        if len(rows) != len(cmd.expected):
            return "wrong:row-count"
        mismatched = [
            (got, want) for got, want in zip(rows, cmd.expected)
            if not all(_same_cell(g, w) for g, w in zip(got, want))
        ]
        if not mismatched:
            return None
        # ROADMAP defect 3: the sweep also evaluates the oracle route for
        # columns that do not need it, and its failure empties the row
        if cmd.kind == "sweep-height" and all(
            want[-1] == "" and got[-1].startswith("ShiftExceedsGapError")
            for got, want in mismatched
        ):
            return "known:sweep-couples-routes"
        return "wrong:sweep-cells"


def _same_cell(got: str | None, want: object) -> bool:
    if got is None:
        return False
    if want is None:
        return got == ""
    if isinstance(want, bool):
        return got == ("true" if want else "false")
    if isinstance(want, float):
        try:
            return float(got) == want
        except ValueError:
            return False
    return got == str(want)


def make(name: str, seed: int, workdir: Path, in_process: bool = False):
    if name == InvertMap.name:
        return InvertMap(seed)
    if name == OracleScan.name:
        return OracleScan(seed)
    if name == CliBatch.name:
        return CliBatch(seed, workdir, in_process)
    raise ValueError(f"unknown workload {name!r}")

