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
import io
import logging
import math
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

from . import __version__, closedform, crosscheck
from .errors import ConfigError, QsnomError
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


_Rule = Callable[[Any, "RunConfig"], "str | None"]


def _known_columns(names: tuple[str, ...], cfg: RunConfig) -> str | None:
    unknown = [c for c in names if c not in SWEEP_OUTPUTS]
    if unknown:
        return f"contains unknown column {unknown[0]!r}; valid: {SWEEP_OUTPUTS}"
    return None


def _rule(ok: Callable[[Any, RunConfig], bool], phrase: str) -> _Rule:
    """A rule that fails with ``phrase`` and the value where ``ok`` is false."""

    def check(value: Any, cfg: RunConfig) -> str | None:
        return None if ok(value, cfg) else f"{phrase}, got {value!r}"

    return check


def _at_least(low: int) -> _Rule:
    return _rule(lambda v, _: v >= low, f"must be >= {low}")


_POSITIVE = _rule(lambda v, _: v > 0, "must be positive")


def _each(rule: _Rule) -> _Rule:
    """Apply ``rule`` to every entry of a list value; report the first failure."""

    def check(values: tuple, cfg: RunConfig) -> str | None:
        for value in values:
            problem = rule(value, cfg)
            if problem is not None:
                return problem
        return None

    return check


def _key(default: object, parse: Callable[[str, str], object], *rules: _Rule) -> Any:
    """Declare a config key: its default, its parser and its rules."""
    return field(default=default, metadata={"parse": parse, "rules": rules})


@dataclass
class RunConfig:
    """Resolved run configuration; field names double as config keys.

    Each field declares its key once: the default, the parser of its
    text value, and the rules the resolved value must pass. A rule
    returns what is wrong with the value, or ``None``; a key left unset
    (``None``) passes every rule.
    """

    epsilon_d: float = _key(3.0, _parse_float, _at_least(1))
    R_nm: float = _key(1.0, _parse_float, _POSITIVE)
    omega_eV: float = _key(1.0, _parse_float, _POSITIVE)
    kappa: float = _key(0.05, _parse_float, _POSITIVE)
    near_field_factor: float = _key(0.1, _parse_float, _POSITIVE)
    forward_method: str = _key("closed", _parse_choice("closed", "oracle"))
    tol_rel: float = _key(1e-10, _parse_float, _POSITIVE)
    observed_omega_s: float | None = _key(None, _parse_float, _POSITIVE)
    bracket_lo: float = _key(
        1.0 + 1e-9, _parse_float, _rule(lambda v, _: v > 1, "must exceed 1")
    )
    bracket_hi: float = _key(
        1e6,
        _parse_float,
        _rule(lambda v, cfg: v > cfg.bracket_lo, "must exceed bracket_lo"),
    )
    max_iter: int = _key(200, _parse_int, _at_least(1))
    sweep_axis: str | None = _key(None, _parse_choice(*SWEEP_AXES))
    sweep_values: tuple[float, ...] | None = _key(None, _parse_float_list)
    sweep_start: float | None = _key(None, _parse_float)
    sweep_stop: float | None = _key(None, _parse_float)
    sweep_count: int | None = _key(
        None,
        _parse_int,
        _at_least(2),
        _rule(
            lambda v, _: v <= SWEEP_COUNT_LIMIT, f"must be <= {SWEEP_COUNT_LIMIT}"
        ),
    )
    sweep_spacing: str = _key("linear", _parse_choice("linear", "log"))
    sweep_outputs: tuple[str, ...] = _key(
        SWEEP_OUTPUTS, _parse_str_list, _known_columns
    )
    oracle_epsilon_values: tuple[float, ...] = _key((3.0,), _parse_float_list)
    oracle_heights_nm: tuple[float, ...] = _key(
        (0.5, 1.0, 2.0, 4.0), _parse_float_list, _each(_POSITIVE)
    )


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
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


def resolve_config(
    file_entries: dict[str, str],
    overrides: dict[str, str],
) -> RunConfig:
    """Merge defaults, file entries, and overrides; reject unknown keys.

    Every given value is parsed before any rule runs, and the rules then
    run over the resolved values in field order, defaults included.
    """
    cfg = RunConfig()
    keys = {f.name: f.metadata for f in fields(RunConfig)}
    merged = dict(file_entries)
    merged.update(overrides)
    for key, raw in merged.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}; valid keys: {sorted(keys)}")
        setattr(cfg, key, keys[key]["parse"](key, raw))
    for key, meta in keys.items():
        value = getattr(cfg, key)
        if value is None:
            continue
        for rule in meta["rules"]:
            problem = rule(value, cfg)
            if problem is not None:
                raise ConfigError(f"{key} {problem}")
    return cfg


def _meta_path(out: Path) -> Path:
    return out.with_suffix(".meta")


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Open a new file beside ``path`` and rename it onto ``path`` on success.

    If the block raises, the new file is removed and ``path`` keeps its
    old content. The new file gets the permissions a plain ``open``
    would give it. An ``OSError`` from creating or renaming the new file
    names ``path``, since the new file's random name means nothing to
    the caller once it is gone.
    """
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_pair(out: Path, text: str, cfg: RunConfig, command: str) -> None:
    """Write ``text`` to ``out`` and the run's ``.meta`` sidecar as a pair.

    Both go to new files first. The sidecar is renamed into place before
    the table, so if either write fails ``out`` keeps its old content,
    or stays absent.
    """
    lines = [f"artifact=qsnom {__version__}", f"command={command}"]
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name}={_fmt(getattr(cfg, f.name))}")
    # the inner block exits, and renames its file, first
    with _replacing(out) as table, _replacing(_meta_path(out)) as meta:
        table.write(text)
        meta.write("\n".join(lines) + "\n")
    log.info("wrote %s and its metadata sidecar %s", out, _meta_path(out))


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buffer.getvalue()


def _emit_report(text: str, out: Path | None, cfg: RunConfig, command: str) -> None:
    sys.stdout.write(text)
    if out is not None:
        _write_pair(out, text, cfg, command)


def _cmd_simulate(cfg: RunConfig, out: Path | None) -> int:
    result = forward(
        cfg.epsilon_d,
        cfg.R_nm,
        cfg.omega_eV,
        cfg.kappa,
        near_field_factor=cfg.near_field_factor,
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
    text = _csv_text(header, [[row[c] for c in header] for row in rows])
    _write_pair(out, text, cfg, "sweep")
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
            )
        except (QsnomError, ValueError, ArithmeticError) as exc:
            alpha = (eps - 1.0) / (eps + 1.0) if eps != -1.0 else None
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
    _write_pair(out, _csv_text(ORACLE_CHECK_COLUMNS, table), cfg, "oracle-check")
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
