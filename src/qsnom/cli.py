"""Command-line harness: simulate, sweep, invert, oracle-check.

Configuration is a flat key=value file; ``--set key=value`` entries win
over the file, the file wins over defaults, and unknown keys are
rejected. Exit codes: 0 success, 2 configuration or validation error,
3 model or runtime error (float overflow included), 4 I/O error. Set
``QSNOM_LOG`` to ``quiet``, ``info`` or ``debug`` for stderr
diagnostics. All table output uses 17-significant-digit floats and bare
newline line endings, so rerunning a configuration reproduces the bytes
exactly.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__, closedform, crosscheck
from .errors import ConfigError, QsnomError
from .hamiltonian import N_MAX_LIMIT
from .inversion import (
    SWEEP_AXES,
    SWEEP_COUNT_LIMIT,
    SWEEP_OUTPUTS,
    InversionProblem,
    SweepSpec,
    forward,
    invert_permittivity,
    run_sweep,
)

log = logging.getLogger("qsnom")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

ORACLE_CHECK_COLUMNS = (
    "epsilon_d",
    "alpha",
    "height_nm",
    "g_eV",
    "delta_e_closed_eV",
    "delta_e_oracle_eV",
    "delta_e_exact_eV",
    "pt2_exact_residual_eV",
    "beta1_closed",
    "beta1_oracle",
    "closed_height_exponent",
    "oracle_height_exponent",
    "scaling_mismatch",
    "warnings",
    "error",
)


@dataclass
class RunConfig:
    """Resolved run configuration; field names double as config keys."""

    epsilon_d: float = 3.0
    R_nm: float = 1.0
    omega_eV: float = 1.0
    kappa: float = 0.05
    n_max: int = 1
    photon_energy_eV: float | None = None
    near_field_factor: float = 0.1
    forward_method: str = "closed"
    tol_rel: float = 1e-10
    observed_omega_s: float | None = None
    bracket_lo: float = 1.0 + 1e-9
    bracket_hi: float = 1e6
    max_iter: int = 200
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_count: int | None = None
    sweep_spacing: str = "linear"
    sweep_outputs: tuple[str, ...] = SWEEP_OUTPUTS
    oracle_epsilon_values: tuple[float, ...] = (3.0,)
    oracle_heights_nm: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} must list at least one number, got {raw!r}")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_str_list(key: str, raw: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not parts:
        raise ConfigError(f"{key} must list at least one name, got {raw!r}")
    return parts


def _parse_choice(*options: str) -> Callable[[str, str], str]:
    def inner(key: str, raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"{key} must be one of {options}, got {raw!r}")
        return raw

    return inner


_PARSERS: dict[str, Callable[[str, str], object]] = {
    "epsilon_d": _parse_float,
    "R_nm": _parse_float,
    "omega_eV": _parse_float,
    "kappa": _parse_float,
    "n_max": _parse_int,
    "photon_energy_eV": _parse_float,
    "near_field_factor": _parse_float,
    "forward_method": _parse_choice("closed", "oracle"),
    "tol_rel": _parse_float,
    "observed_omega_s": _parse_float,
    "bracket_lo": _parse_float,
    "bracket_hi": _parse_float,
    "max_iter": _parse_int,
    "sweep_axis": _parse_choice(*SWEEP_AXES),
    "sweep_values": _parse_float_list,
    "sweep_start": _parse_float,
    "sweep_stop": _parse_float,
    "sweep_count": _parse_int,
    "sweep_spacing": _parse_choice("linear", "log"),
    "sweep_outputs": _parse_str_list,
    "oracle_epsilon_values": _parse_float_list,
    "oracle_heights_nm": _parse_float_list,
}


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment."""
    text = path.read_text(encoding="utf-8")
    entries: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{number}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigError(f"{path}:{number}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def parse_overrides(pairs: Sequence[str]) -> dict[str, str]:
    entries: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigError(f"--set repeats key {key!r}")
        entries[key] = value.strip()
    return entries


def _validate(cfg: RunConfig) -> None:
    def require(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    require(cfg.epsilon_d >= 1, f"epsilon_d must be >= 1, got {cfg.epsilon_d!r}")
    require(cfg.R_nm > 0, f"R_nm must be positive, got {cfg.R_nm!r}")
    require(cfg.omega_eV > 0, f"omega_eV must be positive, got {cfg.omega_eV!r}")
    require(cfg.kappa > 0, f"kappa must be positive, got {cfg.kappa!r}")
    require(
        1 <= cfg.n_max <= N_MAX_LIMIT,
        f"n_max must lie in 1..{N_MAX_LIMIT}, got {cfg.n_max!r}",
    )
    if cfg.photon_energy_eV is not None:
        require(
            cfg.photon_energy_eV > 0,
            f"photon_energy_eV must be positive, got {cfg.photon_energy_eV!r}",
        )
    require(
        cfg.near_field_factor > 0,
        f"near_field_factor must be positive, got {cfg.near_field_factor!r}",
    )
    require(cfg.tol_rel > 0, f"tol_rel must be positive, got {cfg.tol_rel!r}")
    if cfg.observed_omega_s is not None:
        require(
            cfg.observed_omega_s > 0,
            f"observed_omega_s must be positive, got {cfg.observed_omega_s!r}",
        )
    require(cfg.bracket_lo > 1, f"bracket_lo must exceed 1, got {cfg.bracket_lo!r}")
    require(
        cfg.bracket_hi > cfg.bracket_lo,
        f"bracket_hi must exceed bracket_lo, got {cfg.bracket_hi!r}",
    )
    require(cfg.max_iter >= 1, f"max_iter must be >= 1, got {cfg.max_iter!r}")
    if cfg.sweep_count is not None:
        require(cfg.sweep_count >= 2, f"sweep_count must be >= 2, got {cfg.sweep_count!r}")
        require(
            cfg.sweep_count <= SWEEP_COUNT_LIMIT,
            f"sweep_count must be <= {SWEEP_COUNT_LIMIT}, got {cfg.sweep_count!r}",
        )
    unknown = [c for c in cfg.sweep_outputs if c not in SWEEP_OUTPUTS]
    require(
        not unknown,
        f"sweep_outputs contains unknown column {unknown[0] if unknown else ''!r};"
        f" valid: {SWEEP_OUTPUTS}",
    )


def resolve_config(
    file_entries: dict[str, str],
    overrides: dict[str, str],
) -> RunConfig:
    """Merge defaults, file entries, and overrides; reject unknown keys."""
    cfg = RunConfig()
    merged = dict(file_entries)
    merged.update(overrides)
    for key, raw in merged.items():
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {sorted(_PARSERS)}"
            )
        setattr(cfg, key, parser(key, raw))
    _validate(cfg)
    return cfg


def _meta_path(out: Path) -> Path:
    return out.with_suffix(".meta")


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Open a new file beside ``path`` and rename it onto ``path`` on success.

    If the block raises, the new file is removed and ``path`` keeps its
    old content. The new file gets the permissions a plain ``open``
    would give it.
    """
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def _write_meta(out: Path, cfg: RunConfig, command: str) -> None:
    lines = [f"artifact=qsnom {__version__}", f"command={command}"]
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name}={_fmt(getattr(cfg, f.name))}")
    _write_text(_meta_path(out), "\n".join(lines) + "\n")
    log.info("wrote metadata sidecar %s", _meta_path(out))


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    log.info("wrote %d rows to %s", len(rows), path)


def _emit_report(text: str, out: Path | None, cfg: RunConfig, command: str) -> None:
    sys.stdout.write(text)
    if out is not None:
        _write_text(out, text)
        _write_meta(out, cfg, command)


def _cmd_simulate(cfg: RunConfig, out: Path | None) -> int:
    result = forward(
        cfg.epsilon_d,
        cfg.R_nm,
        cfg.omega_eV,
        cfg.kappa,
        near_field_factor=cfg.near_field_factor,
        n_max=cfg.n_max,
        photon_energy=cfg.photon_energy_eV,
        method=cfg.forward_method,
    )
    beta = closedform.beta_coefficients(
        closedform.InitialCoefficients.ground_state(),
        cfg.R_nm,
        result.alpha,
        cfg.omega_eV,
        cfg.kappa,
    )
    pairs = [
        ("method", cfg.forward_method),
        ("epsilon_d", result.epsilon_d),
        ("alpha", result.alpha),
        ("g_eV", result.g),
        ("delta_e_eV", result.delta_e),
        ("omega_s", result.omega_s),
        ("amplitude", result.amplitude),
        ("probability_weight", result.amplitude**2),
        ("beta_closed_1", beta.beta1),
        ("beta_closed_2", beta.beta2),
        ("beta_closed_3", beta.beta3),
        ("beta_closed_4", beta.beta4),
        ("near_field_ratio", result.near_field_ratio),
        ("near_field_pass", result.near_field_passed),
        ("warnings", "; ".join(result.warnings)),
    ]
    text = "\n".join(f"{k}={_fmt(v)}" for k, v in pairs) + "\n"
    _emit_report(text, out, cfg, "simulate")
    return EXIT_OK


def _cmd_invert(cfg: RunConfig, out: Path | None) -> int:
    if cfg.observed_omega_s is None:
        raise ConfigError("invert requires observed_omega_s")
    try:
        problem = InversionProblem(
            observed_omega_s=cfg.observed_omega_s,
            height_nm=cfg.R_nm,
            omega=cfg.omega_eV,
            kappa=cfg.kappa,
            bracket=(cfg.bracket_lo, cfg.bracket_hi),
            tol_rel=cfg.tol_rel,
            max_iter=cfg.max_iter,
            method=cfg.forward_method,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = invert_permittivity(problem)
    log.debug("inversion finished in %d iterations", result.iterations)
    pairs = [
        ("observed_omega_s", cfg.observed_omega_s),
        ("epsilon_d", result.epsilon_d),
        ("iterations", result.iterations),
        ("residual", result.residual),
        ("method", cfg.forward_method),
    ]
    text = "\n".join(f"{k}={_fmt(v)}" for k, v in pairs) + "\n"
    _emit_report(text, out, cfg, "invert")
    return EXIT_OK


def _build_sweep_spec(cfg: RunConfig) -> SweepSpec:
    if cfg.sweep_axis is None:
        raise ConfigError("sweep requires sweep_axis")
    fixed = {
        "epsilon_d": cfg.epsilon_d,
        "R": cfg.R_nm,
        "omega": cfg.omega_eV,
        "kappa": cfg.kappa,
    }
    fixed.pop(cfg.sweep_axis)
    range_keys = (cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    try:
        if cfg.sweep_values is not None:
            if any(v is not None for v in range_keys):
                raise ConfigError(
                    "give either sweep_values or sweep_start/stop/count, not both"
                )
            return SweepSpec(
                axis=cfg.sweep_axis,
                values=cfg.sweep_values,
                fixed=fixed,
                outputs=cfg.sweep_outputs,
                near_field_factor=cfg.near_field_factor,
            )
        if any(v is None for v in range_keys):
            raise ConfigError(
                "sweep requires sweep_values or all of sweep_start/stop/count"
            )
        return SweepSpec.from_range(
            axis=cfg.sweep_axis,
            start=cfg.sweep_start,
            stop=cfg.sweep_stop,
            count=cfg.sweep_count,
            spacing=cfg.sweep_spacing,
            fixed=fixed,
            outputs=cfg.sweep_outputs,
            near_field_factor=cfg.near_field_factor,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_sweep(cfg: RunConfig, out: Path | None) -> int:
    if out is None:
        raise ConfigError("sweep requires --out for the CSV table")
    spec = _build_sweep_spec(cfg)
    rows = run_sweep(spec)
    header = ("axis_value",) + spec.outputs + ("warnings", "error")
    _write_csv(out, header, [[row[c] for c in header] for row in rows])
    _write_meta(out, cfg, "sweep")
    return EXIT_OK


def _exponent_cell(exponent: float) -> float | None:
    """An exponent that cannot be fitted (a zero shift) is an empty cell."""
    return None if math.isnan(exponent) else exponent


def _cmd_oracle_check(cfg: RunConfig, out: Path | None) -> int:
    if out is None:
        raise ConfigError("oracle-check requires --out for the CSV table")
    table: list[list[object]] = []
    failures: list[tuple[float, Exception]] = []
    for eps in cfg.oracle_epsilon_values:
        try:
            report = crosscheck.consistency_report(
                eps,
                cfg.oracle_heights_nm,
                omega=cfg.omega_eV,
                kappa=cfg.kappa,
                n_max=cfg.n_max,
                photon_energy=cfg.photon_energy_eV,
            )
        except (QsnomError, ValueError, ArithmeticError) as exc:
            alpha = (eps - 1.0) / (eps + 1.0)
            failures.append((alpha, exc))
            table.append(
                [eps, alpha] + [None] * (len(ORACLE_CHECK_COLUMNS) - 4)
                + ["", f"{type(exc).__name__}: {exc}"]
            )
            continue
        for row in report.rows:
            table.append(
                [
                    eps,
                    row.alpha,
                    row.height_nm,
                    row.g,
                    row.delta_e_closed,
                    row.delta_e_oracle,
                    row.delta_e_exact,
                    row.pt2_exact_residual,
                    row.beta1_closed,
                    row.beta1_oracle,
                    _exponent_cell(report.closed_height_exponent),
                    _exponent_cell(report.oracle_height_exponent),
                    report.scaling_mismatch,
                    "; ".join(row.warnings),
                    "",
                ]
            )
    _write_csv(out, ORACLE_CHECK_COLUMNS, table)
    _write_meta(out, cfg, "oracle-check")
    if failures and len(failures) == len(cfg.oracle_epsilon_values):
        alpha, exc = failures[0]
        sys.stderr.write(
            f"oracle-check failed on every grid point; first failure at "
            f"alpha={alpha!r}: {exc}\n"
        )
        return EXIT_MODEL
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "invert": _cmd_invert,
    "oracle-check": _cmd_oracle_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsnom",
        description="Scattered-photon model of a tip dipole over a dielectric",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "one parameter point, text report"),
        ("sweep", "one-axis parameter sweep, CSV table"),
        ("invert", "recover permittivity from an observed frequency"),
        ("oracle-check", "closed-form vs numeric comparison, CSV table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="key=value file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        cmd.add_argument("--out", type=Path, default=None, help="output path")
    return parser


def _setup_logging() -> None:
    raw = os.environ.get("QSNOM_LOG", "quiet")
    if raw not in _LOG_LEVELS:
        raise ConfigError(
            f"QSNOM_LOG must be one of {tuple(_LOG_LEVELS)}, got {raw!r}"
        )
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(_LOG_LEVELS[raw])


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _setup_logging()
        file_entries = read_config_file(args.config) if args.config else {}
        overrides = parse_overrides(args.overrides)
        cfg = resolve_config(file_entries, overrides)
        log.debug("resolved config: %s", cfg)
        if args.out is not None and not args.out.name:
            raise ConfigError(
                f"--out {args.out} names no file; give an output file name"
            )
        if args.out is not None and _meta_path(args.out) == args.out:
            raise ConfigError(
                f"--out {args.out} is its own .meta sidecar path;"
                " choose an output name without the .meta suffix"
            )
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (QsnomError, ArithmeticError) as exc:
        sys.stderr.write(f"model error: {type(exc).__name__}: {exc}\n")
        return EXIT_MODEL
    except ValueError as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
