from __future__ import annotations

import pathlib
import shlex
import subprocess
import sys

import pytest

from cavmag.cli import EXIT_IO, EXIT_NO_STEADY_STATE, EXIT_OK, EXIT_USAGE, main
from cavmag.sweep import PRESET_NAMES


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[list[str]]:
    """argv of every ``cavmag ...`` line in the sh block of the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cavmag ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_value(out: str, key: str) -> str:
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return parts[1]
    raise AssertionError(f"no {key!r} row in output:\n{out}")


class TestPoint:
    def test_baseline_report(self, capsys):
        code, out, err = run(capsys, "point")
        assert code == EXIT_OK
        assert err == ""
        assert "stable" not in out
        assert report_value(out, "r") == "1"
        assert float(report_value(out, "E_mm")) == pytest.approx(1.25468819, abs=1e-6)
        assert report_value(out, "E_a1m1") == "0"

    def test_param_overrides(self, capsys):
        code, out, _ = run(
            capsys, "point", "--param", "r=0.4", "--param", "temperature=0.1"
        )
        assert code == EXIT_OK
        assert float(report_value(out, "E_mm")) == pytest.approx(0.602160068, abs=1e-6)
        assert report_value(out, "temperature_K") == "0.1"

    def test_csv_line(self, capsys):
        code, out, _ = run(capsys, "point", "--csv")
        assert code == EXIT_OK
        last = out.splitlines()[-1]
        fields = last.split(",")
        assert len(fields) == 4
        assert float(fields[1]) == pytest.approx(1.25468819, abs=1e-6)
        assert fields[2] == "0"

    def test_strong_squeezing_csv(self, capsys):
        code, out, err = run(capsys, "point", "--param", "r=6", "--csv")
        assert code == EXIT_OK
        assert err == ""
        fields = [float(x) for x in out.splitlines()[-1].split(",")]
        assert len(fields) == 4
        assert fields[0] > 0.0 and fields[1] > 0.0

    def test_near_singular_steady_state_exits_3(self, capsys):
        code, out, err = run(capsys, "point", "--param", "g=0", "--param", "kappa_m=1e-13")
        assert code == EXIT_NO_STEADY_STATE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "condition estimate" in err

    def test_unresolvable_negativity_exits_3(self, capsys):
        # E_aa = 16 at g = 0: nu_min = exp(-16)/2 is below what the
        # eigen-solve resolves at matrix scale exp(16)/2.
        code, out, err = run(capsys, "point", "--param", "r=8", "--param", "g=0")
        assert code == EXIT_NO_STEADY_STATE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "resolution" in err

    @pytest.mark.parametrize("r", ["355", "360", "711"])
    def test_overflowing_drive_exits_3(self, capsys, r):
        code, out, err = run(capsys, "point", "--param", f"r={r}")
        assert code == EXIT_NO_STEADY_STATE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "overflow" in err

    def test_extreme_temperature_reports_zeros(self, capsys):
        code, out, err = run(capsys, "point", "--param", "temperature=1e300", "--csv")
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[-1] == "0,0,0,0"

    def test_consecutive_calls_do_not_share_params(self, capsys):
        _, first, _ = run(capsys, "point", "--param", "r=0.4", "--param", "g=2", "--csv")
        _, second, _ = run(capsys, "point", "--param", "temperature=0.1", "--csv")
        _, fresh, _ = run(capsys, "point", "--csv")
        assert report_value(first, "r") == "0.4"
        assert report_value(second, "r") == "1"
        assert report_value(second, "g_over_kappa_a") == "5,5"
        assert report_value(fresh, "temperature_K") == "0"

    @pytest.mark.parametrize("entry", ["temperature=1.7e308", "kappa_a_hz=1e-302"])
    def test_non_finite_model_matrices_exit_3(self, capsys, entry):
        code, out, err = run(capsys, "point", "--param", entry)
        assert code == EXIT_NO_STEADY_STATE
        assert out == ""
        assert err == "error: drift or diffusion matrix overflows at these parameters\n"

    @pytest.mark.parametrize(
        "hz, kelvin, code",
        [("1e-300", "1e-300", EXIT_OK), ("5e-324", "5e-324", EXIT_OK), ("5e-324", "1e300", EXIT_NO_STEADY_STATE)],
    )
    def test_underflowing_quantum_energy_exits_0_or_3(self, capsys, hz, kelvin, code):
        # hbar omega underflows to 0 at these frequencies: the occupation is finite, or beyond float range.
        status, out, err = run(capsys, "point", "--param", f"omega_a_hz={hz}", "--param", f"temperature={kelvin}")
        assert status == code
        if code == EXIT_OK:
            assert err == "" and report_value(out, "E_mm") == "0"
        else:
            assert out == "" and err == "error: drift or diffusion matrix overflows at these parameters\n"

    def test_malformed_param(self, capsys):
        code, _, err = run(capsys, "point", "--param", "r0.4")
        assert code == EXIT_USAGE
        assert "PATH=VALUE" in err

    def test_unknown_path(self, capsys):
        code, _, err = run(capsys, "point", "--param", "bogus=1")
        assert code == EXIT_USAGE
        assert "unknown parameter path" in err

    def test_non_numeric_value(self, capsys):
        code, _, err = run(capsys, "point", "--param", "r=abc")
        assert code == EXIT_USAGE
        assert "not a number" in err


class TestSweep:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig4", "--resolution", "9")
        assert code == EXIT_OK
        data = [l for l in out.splitlines() if not l.startswith("# ")]
        assert data[0] == "axis1,E_aa,stable"
        assert len(data) == 10

    def test_presets_print_their_csv_in_order(self, capsys):
        argv = ("sweep", "--resolution", "3")
        code, both, err = run(capsys, *argv, "--preset", "fig4", "--preset", "fig2c")
        assert code == EXIT_OK and err == ""
        _, fig4, _ = run(capsys, *argv, "--preset", "fig4")
        _, fig2c, _ = run(capsys, *argv, "--preset", "fig2c")
        assert both == fig4 + fig2c

    def test_heatmap_written_for_two_axis_preset(self, capsys, tmp_path):
        argv = ("sweep", "--preset", "fig2c", "--resolution", "3")
        code, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        svg = (tmp_path / "fig2c.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" not in svg
        _, stdout_csv, _ = run(capsys, *argv)
        assert (tmp_path / "fig2c.csv").read_text() == stdout_csv

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "sweep", "--preset", "nope")
        assert code == EXIT_USAGE
        assert "available" in err

    def test_unwritable_out(self, capsys, tmp_path):
        # A regular file where a parent directory should be: unwritable
        # whatever the user's permissions.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ("sweep", "--preset", "fig4", "--resolution", "3")
        code, out, err = run(capsys, *argv, "--out-dir", str(blocker / "out"))
        assert code == EXIT_IO
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_missing_preset_without_out_dir(self, capsys):
        code, out, _ = run(capsys, "sweep", "--resolution", "2")
        assert code == EXIT_OK
        presets = [line for line in out.splitlines() if line.startswith("# preset: ")]
        assert presets == [f"# preset: {name}" for name in PRESET_NAMES]

    @pytest.mark.parametrize("option", ["--out", "--heatmap"])
    def test_removed_file_options_are_rejected(self, capsys, tmp_path, option):
        # Without abbreviations, "--out" is not taken for "--out-dir".
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--preset", "fig2c", option, str(tmp_path / "x")])
        assert excinfo.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "entries",
        ["g=2 r=0.3 kappa_m=0.7", "r=0.3", "kappa_m=0.7", "temperature=0.5", "theta=1"]
        + ["delta_a1=1", "delta_m2=1", "g2_over_g1=2"],
    )
    def test_param_the_preset_sets_exits_2_before_any_sweep(self, capsys, tmp_path, entries):
        path = entries.split("=")[0]
        params = [arg for entry in entries.split() for arg in ("--param", entry)]
        argv = ("sweep", "--preset", "fig4", "--resolution", "3", "--out-dir", str(tmp_path / "o"))
        code, out, err = run(capsys, *argv, *params)
        assert code == EXIT_USAGE
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: parameter {path!r} has no effect on preset fig4")
        assert not (tmp_path / "o").exists()

    def test_param_swept_by_one_requested_preset_is_refused(self, capsys):
        # fig3b sweeps g over fixed values, so a base g reaches no cell.
        argv = ("sweep", "--preset", "fig4", "--preset", "fig3b", "--resolution", "2")
        code, out, err = run(capsys, *argv, "--param", "g=3")
        assert code == EXIT_USAGE and out == ""
        assert "preset fig4" in err
        code, out, err = run(capsys, "sweep", "--preset", "fig3b", "--param", "g=3")
        assert code == EXIT_USAGE and out == ""
        assert "preset fig3b" in err

    def test_config_entry_the_preset_sets_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.kappa_a2 = 2\nparams.temperature = 0.3\n")
        code, out, err = run(capsys, "sweep", "--preset", "fig2c", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert "'temperature'" in err

    @pytest.mark.parametrize(
        "entries", ["kappa_a2=2", "kappa_a_hz=2e6", "omega_a_hz=9e9", "r=1 kappa_a2=2"]
    )
    def test_params_that_reach_the_grid_are_accepted(self, capsys, entries):
        params = [arg for entry in entries.split() for arg in ("--param", entry)]
        argv = ("sweep", "--resolution", "2")
        code, out, err = run(capsys, *argv, *params)
        assert code == EXIT_OK and err == ""
        _, plain, _ = run(capsys, *argv)
        assert out != plain

    def test_out_dir_writes_csv_and_svg_per_preset(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        argv = ("sweep", "--out-dir", str(out_dir), "--resolution", "3")
        code, out, _ = run(capsys, *argv, "--preset", "fig3b", "--preset", "fig2c")
        assert code == EXIT_OK
        assert out.splitlines() == [
            f"{name}: wrote {out_dir / name}.csv and {out_dir / name}.svg"
            for name in ("fig3b", "fig2c")
        ]
        for name in ("fig3b", "fig2c"):
            assert (out_dir / f"{name}.csv").read_text().startswith("# cavmag")
            assert (out_dir / f"{name}.svg").read_text().startswith("<svg")
        assert "<polyline" in (out_dir / "fig3b.svg").read_text()
        assert "<polyline" not in (out_dir / "fig2c.svg").read_text()

    def test_out_dir_runs_every_preset_by_default(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--out-dir", str(tmp_path), "--resolution", "2")
        assert code == EXIT_OK
        assert [line.split(":")[0] for line in out.splitlines()] == list(PRESET_NAMES)
        assert len(list(tmp_path.iterdir())) == 2 * len(PRESET_NAMES)

    @pytest.mark.parametrize(
        "extra",
        [
            ("--preset", "fig2c", "--resolution", "0"),
            ("--preset", "nope"),
        ],
        ids=["zero-resolution", "unknown-preset"],
    )
    def test_out_dir_argument_errors_exit_2_before_anything_is_written(
        self, capsys, tmp_path, extra
    ):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--out-dir", str(out_dir), *extra)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")
        assert not out_dir.exists()

    def test_resolution_too_large_to_allocate_exits_2(self, capsys, tmp_path):
        # 1e11 points need 745 GiB: numpy refuses the allocation at once.
        out_dir = tmp_path / "out"
        argv = ("sweep", "--preset", "fig4", "--resolution", "100000000000", "--out-dir", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: --resolution 100000000000 is too many points") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_repeated_sweeps_print_identical_csv(self, capsys):
        code1, out1, _ = run(capsys, "sweep", "--preset", "fig4", "--resolution", "5")
        code2, out2, _ = run(capsys, "sweep", "--preset", "fig4", "--resolution", "5")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


class TestThreshold:
    def test_moderate_drive(self, capsys):
        code, out, _ = run(capsys, "threshold", "--r", "0.4")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(0.848, abs=5e-3)

    def test_none_below_cap(self, capsys):
        code, out, _ = run(capsys, "threshold", "--r", "0.4", "--tmax", "0.3")
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_no_drive_is_usage_error(self, capsys):
        code, _, err = run(capsys, "threshold", "--r", "0")
        assert code == EXIT_USAGE
        assert "not entangled" in err

    def test_negative_squeeze_rejected(self, capsys):
        code, _, err = run(capsys, "threshold", "--r", "-1")
        assert code == EXIT_USAGE

    def test_r_range_prints_csv_with_empty_field_for_unentangled_r(self, capsys):
        code, out, _ = run(capsys, "threshold", "--r-range", "0", "2", "3", "--tmax", "3")
        assert code == EXIT_OK
        rows = out.splitlines()
        assert rows[:2] == ["r,threshold_K", "0,"]
        assert [row.split(",")[0] for row in rows[2:]] == ["1", "2"]
        assert all(float(row.split(",")[1]) > 0.0 for row in rows[2:])

    def test_r_range_leaves_threshold_above_tmax_empty(self, capsys):
        code, out, _ = run(capsys, "threshold", "--r-range", "0.4", "0.4", "1", "--tmax", "0.3")
        assert code == EXIT_OK
        assert out.splitlines() == ["r,threshold_K", "0.4,"]

    def test_r_range_out_dir_writes_csv_and_svg(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        argv = ("threshold", "--r-range", "0.05", "2", "3", "--out-dir", str(out_dir))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        csv_path = out_dir / "survival_temperature.csv"
        svg_path = out_dir / "survival_temperature.svg"
        assert out == f"survival_temperature: wrote {csv_path} and {svg_path}\n"
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "r,threshold_K"
        assert len(rows) == 4
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("count", ["0", "1.5", "-3"])
    def test_r_range_bad_count_exits_2_before_anything_is_written(
        self, capsys, tmp_path, count
    ):
        out_dir = tmp_path / "out"
        argv = ("threshold", "--r-range", "0.05", "2", count, "--out-dir", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "--r-range" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_r_range_count_too_large_to_allocate_exits_2(self, capsys, tmp_path):
        # 1e15 points need 7.11 PiB: numpy refuses the allocation at once.
        out_dir = tmp_path / "out"
        argv = ("threshold", "--r-range", "0", "1", "1e15", "--out-dir", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: --r-range N = 1e+15") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [("--r", "0.4", "--tol", "5e-324"), ("--r", "0.4", "--tol", "1e-320"), ("--r-range", "0.4", "0.5", "2", "--tol", "4e-324")],
        ids=["r-5e-324", "r-1e-320", "r-range-4e-324"],
    )
    def test_subnormal_tol_bisects_like_a_tiny_one(self, capsys, argv):
        code, out, err = run(capsys, "threshold", *argv)
        assert code == EXIT_OK and err == ""
        coarse = ("--tol", "1e-300")
        assert out == run(capsys, "threshold", *argv[:-2], *coarse)[1]
        assert "0.847884589" in out

    def test_out_dir_needs_r_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "threshold", "--r", "0.4", "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert "--r-range" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "entries, path",
        [
            (("--param", "r=1"), "r"),
            (("--param", "temperature=0.5"), "temperature"),
            (("--param", "r=1", "--param", "temperature=0.5"), "r"),
            (("--param", "g=4", "--param", "temperature=0"), "temperature"),
        ],
    )
    @pytest.mark.parametrize(
        "which", [("--r", "0.4"), ("--r-range", "0.05", "2", "3", "--out-dir", "OUT")]
    )
    def test_entries_the_search_replaces_are_refused(self, capsys, tmp_path, entries, path, which):
        out_dir = tmp_path / "out"
        which = tuple(str(out_dir) if arg == "OUT" else arg for arg in which)
        code, out, err = run(capsys, "threshold", *which, *entries)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: parameter '{path}' has no effect on threshold\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("path", ["r", "temperature"])
    def test_config_entries_the_search_replaces_are_refused(self, capsys, tmp_path, path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"params.g = 4\nparams.{path} = 0.5\n")
        code, out, err = run(capsys, "threshold", "--r", "0.4", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: parameter '{path}' has no effect on threshold\n"

    def test_other_entries_still_reach_the_search(self, capsys):
        _, plain, _ = run(capsys, "threshold", "--r", "0.4")
        code, moved, _ = run(capsys, "threshold", "--r", "0.4", "--param", "kappa_m=0.3")
        assert code == EXIT_OK
        assert moved != plain

    def test_far_ceiling_keeps_its_threshold(self, capsys):
        code, out, err = run(capsys, "threshold", "--r", "0.4", "--tmax", "1e300")
        assert (code, out, err) == (EXIT_OK, "0.847592935\n", "")

    def test_overflowing_ceiling_exits_3(self, capsys):
        code, out, err = run(capsys, "threshold", "--r", "0.4", "--tmax", "1.7e308")
        assert (code, out) == (EXIT_NO_STEADY_STATE, "")
        assert err == "error: drift or diffusion matrix overflows at these parameters\n"

    @pytest.mark.parametrize("hz", ["1e-300", "5e-324"])
    def test_underflowing_quantum_energy_exits_3(self, capsys, hz):
        code, out, err = run(capsys, "threshold", "--r", "0.5", "--tmax", "3", "--param", f"omega_a_hz={hz}")
        assert (code, out) == (EXIT_NO_STEADY_STATE, "")
        assert err == "error: drift or diffusion matrix overflows at these parameters\n"

    def test_r_and_r_range_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["threshold", "--r", "0.4", "--r-range", "0", "1", "2"])
        assert excinfo.value.code == 2


class TestConfig:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# drive setup\nparams.r = 0.4\nparams.temperature = 0.1\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(report_value(out, "E_mm")) == pytest.approx(0.602160068, abs=1e-6)

    def test_param_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.r = 0.4\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg), "--param", "r=1.0")
        assert code == EXIT_OK
        assert report_value(out, "r") == "1"

    def test_entries_apply_in_file_order(self, capsys, tmp_path):
        # g is in units of kappa_a: set before the second kappa_a_hz, it
        # is halved by it, as the same --param sequence would be.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.kappa_a_hz = 1e6\nparams.g = 5\nparams.kappa_a_hz = 2e6\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg))
        assert code == EXIT_OK
        argv = ("--param", "kappa_a_hz=1e6", "--param", "g=5", "--param", "kappa_a_hz=2e6")
        _, same, _ = run(capsys, "point", *argv)
        assert report_value(out, "g_over_kappa_a") == "2.5,2.5"
        assert out == same

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "point", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_IO
        assert "cannot read config file" in err

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.r = 0.4\nnot a config line\n")
        code, _, err = run(capsys, "point", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "line 2" in err


class TestTopLevel:
    def test_list_presets(self, capsys):
        code, out, _ = run(capsys, "list-presets")
        assert code == EXIT_OK
        names = [line.split()[0] for line in out.splitlines()]
        assert "fig2a" in names
        assert "fig6" in names
        assert len(names) == 9

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "cavmag" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavmag", "list-presets"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fig2a" in proc.stdout


class TestReadme:
    def test_cli_section_has_examples(self):
        assert len(readme_cli_examples()) >= 5

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_cli_example_exits_0(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err
