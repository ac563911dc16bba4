import logging
import os

import pytest

from qsnom import cli, crosscheck
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

    def test_non_finite_file_entry_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon_d = inf\n")
        with pytest.raises(ConfigError, match="epsilon_d must be finite"):
            resolve_config(read_config_file(path), {})


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
