import csv
import io
import logging
import math
import os
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsnom import cli, crosscheck, inversion
from qsnom.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    ORACLE_CHECK_COLUMNS,
    main,
    parse_overrides,
    read_config_file,
    resolve_config,
)
from qsnom.errors import ConfigError, DegenerateGapError


SWEEP_RANGE = [
    "sweep", "--set", "sweep_axis=R", "--set", "sweep_start=1", "--set", "sweep_stop=2",
]


def report_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestConfigFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# geometry\n\nepsilon_d = 4.0\nR_nm=2.0\n")
        assert read_config_file(path) == {"epsilon_d": "4.0", "R_nm": "2.0"}

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon_d 4.0\n")
        with pytest.raises(ConfigError, match="="):
            read_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kappa=0.1\nkappa=0.2\n")
        with pytest.raises(ConfigError, match="kappa"):
            read_config_file(path)

    def test_override_needs_separator(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["kappa"])

    def test_precedence_defaults_file_overrides(self):
        cfg = resolve_config({"epsilon_d": "4.0"}, {"epsilon_d": "5.0"})
        assert cfg.epsilon_d == 5.0
        assert cfg.R_nm == 1.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="couplng"):
            resolve_config({}, {"couplng": "1.0"})

    def test_validation_names_config_key(self):
        with pytest.raises(ConfigError, match="R_nm"):
            resolve_config({}, {"R_nm": "-1"})

    def test_list_values_parsed(self):
        cfg = resolve_config({}, {"sweep_values": "1,2,3"})
        assert cfg.sweep_values == (1.0, 2.0, 3.0)

    def test_unreadable_float_rejected(self):
        with pytest.raises(ConfigError, match="omega_eV"):
            resolve_config({}, {"omega_eV": "fast"})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # every value is parsed before any rule runs
            ({"R_nm": "-1", "omega_eV": "fast"}, "omega_eV must be a number"),
            # rules run in field order, not in the order keys are given
            ({"kappa": "0", "R_nm": "-1"}, "R_nm must be positive"),
            # the default bracket_hi is checked against a given bracket_lo
            ({"bracket_lo": "2e6"}, "bracket_hi must exceed bracket_lo, got 1000000.0"),
        ],
    )
    def test_first_error_reported(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            resolve_config({}, overrides)
        assert str(info.value).startswith(message)

    def test_non_finite_file_entry_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon_d = inf\n")
        with pytest.raises(ConfigError, match="epsilon_d must be finite"):
            resolve_config(read_config_file(path), {})

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("sweep_values", ",", "sweep_values must list at least one number, got ','"),
            ("sweep_outputs", ",", "sweep_outputs must list at least one name, got ','"),
        ],
    )
    def test_empty_list_rejected(self, key, raw, message):
        with pytest.raises(ConfigError) as info:
            resolve_config({}, {key: raw})
        assert str(info.value) == message

    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"kappa=\xff\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {path}: not UTF-8 text: invalid start byte at byte 6\n"
        )


class TestExitCodes:
    def test_ok(self, capsys):
        assert main(["simulate"]) == EXIT_OK
        assert "omega_s=" in capsys.readouterr().out

    def test_config_error(self, capsys):
        assert main(["simulate", "--set", "R_nm=-1"]) == EXIT_CONFIG
        assert "R_nm" in capsys.readouterr().err

    def test_model_error(self, capsys):
        code = main(
            [
                "invert",
                "--set",
                "observed_omega_s=1.2",
                "--set",
                "kappa=1",
                "--set",
                "R_nm=0.5",
            ]
        )
        assert code == EXIT_MODEL
        assert "model error" in capsys.readouterr().err

    def test_permittivity_whose_alpha_rounds_to_one(self, capsys):
        code = main(["simulate", "--set", "epsilon_d=1e17"])
        assert code == EXIT_MODEL
        assert capsys.readouterr().err == (
            "model error: UnsupportedPermittivityError: epsilon_d must be small"
            " enough that alpha = (epsilon_d - 1)/(epsilon_d + 1) rounds below 1,"
            " got 1e+17\n"
        )

    def test_io_error(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "table.csv"
        code = main(["sweep", "--set", "sweep_axis=epsilon_d",
                     "--set", "sweep_values=1,2", "--out", str(missing)])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_config_file_not_found_is_io(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "none.cfg")])
        assert code == EXIT_IO

    def test_bad_override_shape(self, capsys):
        assert main(["simulate", "--set", "kappa"]) == EXIT_CONFIG

    def test_invert_requires_observation(self, capsys):
        assert main(["invert"]) == EXIT_CONFIG
        assert "observed_omega_s" in capsys.readouterr().err

    def test_plain_model_value_error_is_model_error(self, monkeypatch, capsys):
        # the library's contract lets a model function raise ValueError
        def plain(*args, **kwargs):
            raise ValueError("alpha must lie in [0, 1), got 1.0")

        monkeypatch.setattr(cli, "forward", plain)
        assert main(["simulate"]) == EXIT_MODEL
        assert capsys.readouterr().err == "model error: alpha must lie in [0, 1), got 1.0\n"

    @pytest.mark.parametrize(
        "command, override",
        [
            ("simulate", "R_nm=inf"),
            ("simulate", "kappa=nan"),
            ("oracle-check", "oracle_heights_nm=1,inf"),
        ],
    )
    def test_non_finite_value_is_config_error(
        self, tmp_path, capsys, command, override
    ):
        out = tmp_path / "report.txt"
        code = main([command, "--set", override, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"{override.split('=')[0]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_height_in_the_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["oracle-check", "--set", "oracle_heights_nm=3,-1",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: oracle_heights_nm must be positive, got -1.0\n"
        )
        assert not out.exists()

    def test_repeated_set_key_is_config_error(self, capsys):
        code = main(["simulate", "--set", "kappa=0.1", "--set", "kappa=0.2"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "kappa" in captured.err
        assert captured.out == ""

    def test_out_that_is_its_own_sidecar_rejected(self, tmp_path, capsys):
        out = tmp_path / "run.meta"
        assert main(["simulate", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "sidecar" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_out_with_empty_name_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out", "."]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--out . names no file" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, override, error",
        [
            # 2R overflows, and so does the near-field ratio
            ("simulate", "R_nm=1e308", "OverflowError"),
            # ||beta|| divides by the gap twice instead of by its square,
            # which rounded to 0, so the gap check names the failure
            ("simulate", "omega_eV=1e-300", "ShiftExceedsGapError"),
            # (2R)^3 rounds to 0; the shift past the gap names the failure
            ("simulate", "R_nm=1e-300", "ShiftExceedsGapError"),
        ],
    )
    def test_float_overflow_is_model_error(
        self, tmp_path, capsys, command, override, error
    ):
        code = main([command, "--set", override, "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.err.startswith(f"model error: {error}: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_difference_gap_underflow_is_a_shift_past_the_gap(self, capsys):
        # omega (1 - alpha^2) rounds to 0; the shift, not beta, names the failure
        code = main(["simulate", "--set", "epsilon_d=19", "--set", "omega_eV=5e-324"])
        assert code == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.err.startswith("model error: ShiftExceedsGapError: ")
        assert "Traceback" not in captured.err

    def test_n_max_above_the_limit_is_config_error(self, capsys):
        start = time.perf_counter()
        code = main(["simulate", "--set", "n_max=100000000"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert elapsed < 1.0
        assert err.startswith("config error: unknown config key 'n_max'; valid keys: ")

    @pytest.mark.parametrize("key", ["n_max", "photon_energy_eV"])
    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    def test_photon_register_keys_are_unknown(self, tmp_path, capsys, command, key):
        out = tmp_path / "o.txt"
        assert main([command, "--set", f"{key}=1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown config key {key!r}; valid keys: ")
        assert "n_max" not in err.partition("valid keys")[2]
        assert "photon_energy_eV" not in err.partition("valid keys")[2]
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_free_energy_is_model_error(self, tmp_path, capsys):
        # omega + omega_img is finite, the one-photon level above it is not
        argv = ["simulate", "--set", "epsilon_d=2.5", "--set", "R_nm=1",
                "--set", "omega_eV=1e308", "--set", "kappa=1e-12",
                "--set", "forward_method=oracle", "--out", str(tmp_path / "o.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "model error: OverflowError: free energy of the top level omega +"
            " omega_image + n_max*omega is not finite: omega=1e+308,"
            " omega_image=1.836734693877551e+307, n_max=1\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_count_above_the_limit_is_config_error(self, tmp_path, capsys):
        limit = inversion.SWEEP_COUNT_LIMIT
        for count in (limit + 1, 10**18):
            code = main(
                SWEEP_RANGE
                + ["--set", f"sweep_count={count}", "--out", str(tmp_path / "s.csv")]
            )
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: sweep_count must be <= {limit}, got {count}\n"
            )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_count_at_the_limit_runs(self, tmp_path):
        limit = inversion.SWEEP_COUNT_LIMIT
        out = tmp_path / "s.csv"
        argv = SWEEP_RANGE + [
            "--set", f"sweep_count={limit}", "--set", "sweep_outputs=alpha", "--out", str(out)
        ]
        assert main(argv) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == limit + 1

    def test_invert_near_the_surface(self, capsys):
        # the bracket top lies past the point where the shift reaches
        # the gap; the measurement itself is inside the band
        code = main(
            ["invert", "--set", "observed_omega_s=0.5", "--set", "R_nm=0.3",
             "--set", "kappa=1"]
        )
        assert code == EXIT_OK
        report = report_dict(capsys.readouterr().out)
        assert float(report["epsilon_d"]) == pytest.approx(2.0673, abs=1e-4)
        assert report["iterations"] == "0"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["simulate", "--set", "forward_method=oracle", "--set", "kappa=1e300"],
             EXIT_MODEL, "model error: OverflowError: "),
            (["sweep", "--set", "sweep_axis=kappa",
              "--set", "sweep_values=1e-300,1e150,1e300",
              "--set", "sweep_outputs=delta_e_oracle_eV,g_eV"], EXIT_OK, ""),
        ],
    )
    def test_huge_coupling_warns_nothing(self, tmp_path, capsys, argv, code, err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--out", str(tmp_path / "o.csv")]) == code
        assert capsys.readouterr().err.startswith(err)


    @pytest.mark.parametrize(
        "overrides, err",
        [
            # the second-order shift underflows to 0 while its first-order
            # coefficient overflows
            (["omega_eV=1e-320", "kappa=1e-200"],
             "model error: OverflowError: first-order coefficient of level 3 in"
             " level 0 overflows: (inf+nanj)\n"),
            # the coefficient overflows before the shift meets the gap check
            (["omega_eV=1e-310"],
             "model error: OverflowError: first-order coefficient of level 3 in"
             " level 0 overflows: (inf+nanj)\n"),
        ],
        ids=["tiny-omega-and-kappa", "tiny-omega"],
    )
    def test_overflowing_coefficient_at_a_subnormal_gap(self, capsys, overrides, err):
        argv = ["simulate", "--set", "forward_method=oracle"]
        for override in overrides:
            argv += ["--set", override]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_coupling_whose_square_underflows_is_a_model_error(self, capsys, method):
        # g = 1e-170 eV squares below the float range, yet g^2 / gap is far
        # past the 1e-300 eV gap
        argv = ["simulate", "--set", "epsilon_d=3", "--set", "R_nm=1",
                "--set", "omega_eV=1e-300", "--set", "kappa=1.6e-169",
                "--set", f"forward_method={method}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("model error: ShiftExceedsGapError: ")

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("height", ["1e100", "1e200", "1e300"])
    def test_far_heights_answer(self, capsys, height, method):
        # (2R)^3 overflows past R ~ 3e102 nm, where g and the shift are ~0
        argv = ["simulate", "--set", f"R_nm={height}", "--set", f"forward_method={method}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        report = report_dict(capsys.readouterr().out)
        assert 0.0 <= float(report["g_eV"]) < 1e-300
        assert report["near_field_pass"] == "false"
        assert "near-field check failed" in report["warnings"]

    def test_nan_near_field_ratio_is_a_model_error(self, capsys):
        # 2R and hbar*c/omega both overflow, and their ratio is nan
        argv = ["simulate", "--set", "R_nm=1e308", "--set", "omega_eV=5e-324"]
        assert main(argv) == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "model error: OverflowError: near-field ratio overflows:"
            " separation inf nm over reduced wavelength inf nm\n"
        )

    def test_infinite_coupling_on_the_oracle_is_an_overflow_error(
        self, tmp_path, capsys
    ):
        out = tmp_path / "oracle.csv"
        argv = ["oracle-check", "--set", "kappa=1e308",
                "--set", "oracle_heights_nm=0.001,0.002", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err.startswith("oracle-check failed on every grid point;")
        assert err.endswith("coupling g = kappa*alpha/(2R)^3 is not finite: g=inf\n")
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all(row["error"].startswith("OverflowError: ") for row in rows)


class TestAtomicWrites:
    def test_failed_write_keeps_old_out_and_leaves_no_temporary(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "table.csv"
        args = [
            "sweep",
            "--set", "sweep_axis=epsilon_d",
            "--set", "sweep_values=1,3,11.7",
            "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cell cannot be formatted")

        rows = [
            {"axis_value": v, "warnings": "", "error": ""} for v in (1.0, 2.0)
        ]
        for row in rows:
            row.update(dict.fromkeys(cli.SWEEP_OUTPUTS, 0.5))
        rows[1]["error"] = Unprintable()
        monkeypatch.setattr(cli, "run_sweep", lambda spec: rows)
        with pytest.raises(RuntimeError, match="cannot be formatted"):
            main(args)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("old", [b"old table\n", None])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["invert", "--set", "observed_omega_s=0.9999"],
            ["sweep", "--set", "sweep_axis=epsilon_d", "--set", "sweep_values=1,3"],
            ["oracle-check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_sidecar_keeps_old_out(self, tmp_path, capsys, argv, old):
        out = tmp_path / "r.txt"
        if old is not None:
            out.write_bytes(old)
        (tmp_path / "r.meta").mkdir()
        assert main(argv + ["--out", str(out)]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["r.meta"] if old is None else ["r.meta", "r.txt"]
        )
        if old is not None:
            assert out.read_bytes() == old

    def test_failed_rename_names_the_destination(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        (tmp_path / "r.meta").mkdir()
        assert main(["simulate", "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 21] Is a directory: {str(tmp_path / 'r.meta')!r}\n"
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.meta"]

    @pytest.mark.parametrize(
        "old", [b"artifact=qsnom 0.0.9\ncommand=sweep\n", None], ids=["older", "none"]
    )
    def test_failed_table_rename_keeps_old_sidecar(self, tmp_path, capsys, old):
        out = tmp_path / "r.txt"
        out.mkdir()
        meta = tmp_path / "r.meta"
        if old is not None:
            meta.write_bytes(old)
        assert main(["simulate", "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["r.txt"] if old is None else ["r.meta", "r.txt"]
        )
        assert list(out.iterdir()) == []
        if old is not None:
            assert meta.read_bytes() == old

    def test_failed_open_names_the_destination(self, tmp_path, capsys):
        out = tmp_path / "absent" / "r.txt"
        assert main(["simulate", "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_new_file_has_plain_open_permissions(self, tmp_path, capsys):
        reference = tmp_path / "reference.txt"
        reference.write_text("x")
        out = tmp_path / "report.txt"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        mode = os.stat(out).st_mode & 0o777
        assert mode == os.stat(reference).st_mode & 0o777
        assert out.read_text() == capsys.readouterr().out


class TestLogging:
    def test_invalid_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("QSNOM_LOG", "chatty")
        assert main(["simulate"]) == EXIT_CONFIG
        assert "QSNOM_LOG" in capsys.readouterr().err

    def test_debug_diagnostics(self, monkeypatch, capsys):
        monkeypatch.setenv("QSNOM_LOG", "debug")
        logging.getLogger().handlers.clear()
        assert main(["simulate"]) == EXIT_OK
        assert "resolved config" in capsys.readouterr().err

    def test_quiet_by_default(self, capsys):
        logging.getLogger().handlers.clear()
        assert main(["simulate"]) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestSimulate:
    def test_report_values(self, capsys):
        code = main(
            ["simulate", "--set", "kappa=1", "--set", "R_nm=0.5"]
        )
        assert code == EXIT_OK
        report = report_dict(capsys.readouterr().out)
        assert float(report["epsilon_d"]) == 3.0
        assert float(report["alpha"]) == 0.5
        assert float(report["delta_e_eV"]) == pytest.approx(-0.2, abs=1e-15)
        assert float(report["omega_s"]) == pytest.approx(0.8, abs=1e-15)
        assert float(report["amplitude"]) == pytest.approx(0.92, abs=1e-15)
        assert float(report["beta_closed_1"]) == pytest.approx(0.92, abs=1e-15)
        assert float(report["probability_weight"]) == pytest.approx(0.8464, rel=1e-12)
        assert report["near_field_pass"] == "true"

    def test_out_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "point.txt"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout
        meta = out.with_suffix(".meta").read_text()
        assert meta.startswith("artifact=qsnom 0.1.0\ncommand=simulate\n")
        assert "epsilon_d=3" in meta

    def test_config_file_round(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon_d=11.7\nkappa=1\nR_nm=0.5\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        report = report_dict(capsys.readouterr().out)
        assert float(report["delta_e_eV"]) == pytest.approx(
            -0.4151497570527231, rel=1e-13
        )

    def test_levels_tied_in_exact_arithmetic_warn_nothing(self, capsys):
        # with the resonant photon, |e,g,0> and |g,g,1> are one level, as
        # are |e,e,0> and |g,e,1>; the coupling links neither pair
        argv = ["simulate", "--set", "omega_eV=0.3", "--set", "R_nm=5",
                "--set", "kappa=0.001", "--set", "forward_method=oracle"]
        assert main(argv) == EXIT_OK
        assert report_dict(capsys.readouterr().out)["warnings"] == ""

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_near_vacuum_sample_warns_nothing(self, capsys, method):
        # the image gap of 2.5e-7 eV separates no pair the coupling links
        argv = ["simulate", "--set", "epsilon_d=1.001",
                "--set", f"forward_method={method}"]
        assert main(argv) == EXIT_OK
        assert report_dict(capsys.readouterr().out)["warnings"] == ""

    def test_oracle_method(self, capsys):
        code = main(["simulate", "--set", "forward_method=oracle"])
        assert code == EXIT_OK
        report = report_dict(capsys.readouterr().out)
        assert report["method"] == "oracle"
        assert float(report["delta_e_eV"]) == pytest.approx(-7.8125e-6, rel=1e-12)


class TestSweep:
    ARGS = [
        "sweep",
        "--set", "sweep_axis=epsilon_d",
        "--set", "sweep_values=1,3,11.7",
        "--set", "kappa=1",
        "--set", "R_nm=0.5",
    ]

    def test_requires_out(self, capsys):
        assert main(self.ARGS) == EXIT_CONFIG

    def test_golden_header_and_values(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "axis_value,alpha,g_eV,delta_e_closed_eV,delta_e_oracle_eV,"
            "omega_s,amplitude,near_field_ratio,warnings,error"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert first[3] == "0"
        third = lines[3].split(",")
        assert float(third[3]) == pytest.approx(-0.4151497570527231, rel=1e-13)

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            out1.with_suffix(".meta").read_bytes()
            == out2.with_suffix(".meta").read_bytes()
        )

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "omega.csv"
        code = main(
            [
                "sweep",
                "--set", "sweep_axis=omega",
                "--set", "sweep_values=0.3,1",
                "--set", "kappa=1",
                "--set", "R_nm=0.5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert "ShiftExceedsGapError" in lines[1]
        assert "ShiftExceedsGapError" not in lines[2]

    def test_range_spec(self, tmp_path):
        out = tmp_path / "range.csv"
        code = main(
            [
                "sweep",
                "--set", "sweep_axis=epsilon_d",
                "--set", "sweep_start=1",
                "--set", "sweep_stop=5",
                "--set", "sweep_count=5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]

    def test_values_and_range_conflict(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(self.ARGS + ["--set", "sweep_start=1", "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_missing_axis(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_partial_range(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(SWEEP_RANGE + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: sweep requires sweep_values or all of"
            " sweep_start/stop/count\n"
        )
        assert not out.exists()


class TestOracleCheck:
    def test_requires_out(self):
        assert main(["oracle-check"]) == EXIT_CONFIG

    def test_default_grid(self, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(ORACLE_CHECK_COLUMNS)
        assert len(lines) == 5
        mismatch_col = ORACLE_CHECK_COLUMNS.index("scaling_mismatch")
        for line in lines[1:]:
            assert line.split(",")[mismatch_col] == "true"

    def test_near_metallic_rows_annotated(self, tmp_path):
        out = tmp_path / "metal.csv"
        code = main(
            ["oracle-check", "--set", "oracle_epsilon_values=19999", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        alpha_col = ORACLE_CHECK_COLUMNS.index("alpha")
        for line in lines[1:]:
            assert float(line.split(",")[alpha_col]) == pytest.approx(0.9999, abs=1e-9)
            assert "perturbative regime" in line

    def test_undefined_exponent_is_an_empty_cell(self, tmp_path, capsys):
        for override, heights in (
            # at epsilon_d = 1 every shift is 0
            ("oracle_epsilon_values=1", 4),
            # repeated heights leave fewer than two distinct ones to fit
            ("oracle_heights_nm=1,1", 2),
            ("oracle_heights_nm=2,2,2", 3),
        ):
            out = tmp_path / f"{override}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["oracle-check", "--set", override, "--out", str(out)])
            assert code == EXIT_OK, override
            assert capsys.readouterr().err == ""
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert len(rows) == heights
            for row in rows:
                assert row["closed_height_exponent"] == ""
                assert row["oracle_height_exponent"] == ""
                assert row["error"] == ""

    def test_every_point_failing_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise DegenerateGapError("forced failure for the grid")

        monkeypatch.setattr(crosscheck, "consistency_report", explode)
        out = tmp_path / "fail.csv"
        assert main(["oracle-check", "--out", str(out)]) == EXIT_MODEL
        assert "alpha=" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert "DegenerateGapError: forced failure" in lines[1]

    def test_partial_failure_keeps_going(self, tmp_path, monkeypatch):
        real = crosscheck.consistency_report

        def flaky(eps, *args, **kwargs):
            if eps > 100.0:
                raise DegenerateGapError("forced failure above 100")
            return real(eps, *args, **kwargs)

        monkeypatch.setattr(crosscheck, "consistency_report", flaky)
        out = tmp_path / "partial.csv"
        code = main(
            [
                "oracle-check",
                "--set", "oracle_epsilon_values=3,19999",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert sum("DegenerateGapError" in line for line in lines) == 1

    def test_plain_error_at_one_point_is_recorded(self, tmp_path, capsys):
        for second, eps_cell, alpha_cell, error in (
            # alpha rounds to 1 above epsilon_d ~ 1e16, which the sample rejects
            (
                "1e17",
                "1e+17",
                "1",
                "UnsupportedPermittivityError: epsilon_d must be small enough that"
                " alpha = (epsilon_d - 1)/(epsilon_d + 1) rounds below 1, got 1e+17",
            ),
            # alpha = (eps - 1) / (eps + 1) has no value at eps = -1
            (
                "-1",
                "-1",
                "",
                "UnsupportedPermittivityError: epsilon_d must be >= 1, got -1.0",
            ),
        ):
            out = tmp_path / "grid.csv"
            override = f"oracle_epsilon_values=3,{second}"
            code = main(["oracle-check", "--set", override, "--out", str(out)])
            assert code == EXIT_OK
            assert capsys.readouterr().err == ""
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert [row["epsilon_d"] for row in rows] == ["3"] * 4 + [eps_cell]
            assert [row["error"] for row in rows[:4]] == [""] * 4
            assert rows[4]["alpha"] == alpha_cell
            assert rows[4]["error"] == error

    @pytest.mark.parametrize(
        "override, error",
        [
            ("oracle_epsilon_values=1e17,1e18", "UnsupportedPermittivityError: "),
            ("kappa=1e300", "OverflowError: "),
            # (2R)^3 rounds to 0 at the first height, where g overflows
            ("oracle_heights_nm=1e-300,1", "OverflowError: coupling g = "),
            ("oracle_epsilon_values=-1", "UnsupportedPermittivityError: "),
        ],
    )
    def test_every_point_failing_with_a_plain_error_exits_3(
        self, tmp_path, capsys, override, error
    ):
        out = tmp_path / "fail.csv"
        code = main(["oracle-check", "--set", override, "--out", str(out)])
        assert code == EXIT_MODEL
        err = capsys.readouterr().err
        assert err.startswith("oracle-check failed on every grid point;")
        assert "Traceback" not in err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all(row["error"].startswith(error) for row in rows)


FLOAT_KEYS = (
    "epsilon_d",
    "R_nm",
    "omega_eV",
    "kappa",
    "near_field_factor",
    "tol_rel",
    "observed_omega_s",
    "bracket_lo",
    "bracket_hi",
    "sweep_values",
    "sweep_start",
    "sweep_stop",
    "oracle_epsilon_values",
    "oracle_heights_nm",
)
INT_KEYS = ("max_iter", "sweep_count")
# values no check lets through, and values that validation must reject
HUGE_OR_TINY = st.tuples(
    st.sampled_from(FLOAT_KEYS),
    st.sampled_from(
        ("1e308", "1e300", "1e-200", "1e-300", "1e-310", "1e-320", "5e-324")
    ),
)
INVALID_OVERRIDES = st.tuples(
    st.sampled_from(FLOAT_KEYS + INT_KEYS),
    st.sampled_from(("nan", "inf", "-1", "0", "-1e300", "-1e-300")),
)
PLAIN_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), st.sampled_from(("0.5", "1", "3"))),
    st.tuples(st.sampled_from(INT_KEYS), st.sampled_from(("1", "2", "8"))),
    # keys the configuration no longer has
    st.tuples(st.sampled_from(("n_max", "photon_energy_eV")), st.just("1")),
    st.tuples(
        st.just("sweep_count"),
        st.sampled_from((str(inversion.SWEEP_COUNT_LIMIT + 1), str(10**18))),
    ),
    st.tuples(st.just("forward_method"), st.sampled_from(("closed", "oracle"))),
    st.tuples(st.just("sweep_axis"), st.sampled_from(cli.SWEEP_AXES)),
    # a valid entry beside a bad or a repeated one
    st.tuples(
        st.sampled_from(("oracle_epsilon_values", "oracle_heights_nm")),
        st.sampled_from(("3,-1", "1,1", "2,0,1", "0.5,1e300")),
    ),
)
# each command with what it needs to get past its own checks; sweep
# comes in both shapes
BASE_OVERRIDES = (
    ("simulate", {}),
    ("invert", {"observed_omega_s": "0.9999"}),
    ("oracle-check", {}),
    ("sweep", {"sweep_axis": "epsilon_d", "sweep_values": "1,3"}),
    (
        "sweep",
        {"sweep_axis": "R", "sweep_start": "1", "sweep_stop": "2", "sweep_count": "3"},
    ),
)


class TestRobustness:
    @settings(max_examples=300, deadline=None)
    # a subnormal gap with a tiny coupling on the oracle route
    @example(
        base=("simulate", {}),
        plain=[("forward_method", "oracle")],
        huge_or_tiny=[("omega_eV", "1e-320"), ("kappa", "1e-200")],
        invalid=[],
        repeat_key=False,
        out=None,
    )
    @given(
        base=st.sampled_from(BASE_OVERRIDES),
        plain=st.lists(PLAIN_OVERRIDES, max_size=3),
        huge_or_tiny=st.lists(HUGE_OR_TINY, max_size=2),
        invalid=st.lists(INVALID_OVERRIDES, max_size=1),
        repeat_key=st.sampled_from((False, False, False, True)),
        out=st.sampled_from(("fresh.txt", None, ".", "x.meta", "existing")),
    )
    def test_random_overrides_end_in_a_classed_exit(
        self, base, plain, huge_or_tiny, invalid, repeat_key, out
    ):
        """Every input ends in exit 0, 2, 3 or 4, never in an exception.

        Each run sets a few plain values, up to two huge or tiny ones
        (1e308 down to the subnormal 5e-324) and at most one of nan, inf,
        -1, 0, -1e300 and -1e-300. It
        may repeat a key or set a removed one (``n_max``,
        ``photon_energy_eV``), and it writes to a fresh file, to ``.``, to
        ``x.meta`` or to an existing directory. ``sweep_count`` is at
        most 8, or just or far above its limit, and a sweep gives its
        values as a list or as a range. The ``oracle-check`` grids may
        mix a valid entry with a bad or repeated one. On exit 0 every
        number that ``simulate`` and ``invert`` print, and every
        non-empty numeric cell of the ``oracle-check`` CSV, must be
        finite.
        """
        command, base_entries = base
        entries = dict(base_entries)
        entries.update(plain + huge_or_tiny + invalid)
        pairs = list(entries.items())
        if repeat_key and pairs:
            pairs.append(pairs[0])
        argv = [command]
        for key, value in pairs:
            argv += ["--set", f"{key}={value}"]
        if out is not None:
            argv += ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                os.mkdir("existing")
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = main(argv)
                table = ""
                if code == EXIT_OK and command == "oracle-check":
                    with open(out, encoding="utf-8") as fh:
                        table = fh.read()
            finally:
                os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MODEL, EXIT_IO)
        assert "Traceback" not in stderr.getvalue()
        if code != EXIT_OK:
            return
        if command == "oracle-check":
            values = [
                (name, value)
                for row in csv.DictReader(io.StringIO(table))
                for name, value in row.items()
            ]
        elif command in ("simulate", "invert"):
            values = list(report_dict(stdout.getvalue()).items())
        else:
            return
        for key, value in values:
            try:
                number = float(value)
            except ValueError:
                continue
            assert math.isfinite(number), f"{key}={value} from {argv}"
