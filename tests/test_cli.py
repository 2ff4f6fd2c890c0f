import ast
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from transduce import cli

from transduce import (MixingBands, PhaseMatchInput, PumpGeometry,
                       damage_limited_power, default_db, delta_k, dumps_materials,
                       peak_field_from_power, peak_intensity, poling_period,
                       second_order_photoelasticity, three_wave_residual)

from conftest import unreadable_db

BANDS_ARGS = ["--material", "BaTiO3", "--pump1", "2600e-9", "--pump2", "2600e-9",
              "--phonon-ghz", "2"]


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "transduce", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def grab(stdout: str, name: str) -> float:
    m = re.search(rf"^{re.escape(name)} = (\S+)", stdout, re.MULTILINE)
    assert m, f"{name} not found in output:\n{stdout}"
    return float(m.group(1))


class TestUsage:
    def test_help_exits_zero(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "estimate-q" in cp.stdout

    def test_subcommand_help(self):
        for cmd in ("materials", "estimate-q", "field", "sweep-power",
                    "phasematch", "poling", "verify-thermo"):
            cp = run_cli(cmd, "--help")
            assert cp.returncode == 0, cmd

    @pytest.mark.parametrize("command", [None, "sweep-power"])
    def test_written_usage_names_what_argparse_would(self, command):
        # These two usages are written out, since argparse wraps them
        # differently from one Python version to the next; they must still
        # name each flag, metavar and choice in argparse's order.
        parser = cli.build_parser()
        if command:
            parser = parser._subparsers._group_actions[0].choices[command]
        written = parser.format_usage()
        parser.usage = None
        assert written.split() == parser.format_usage().split()

    def test_unknown_flag_is_usage_error(self):
        cp = run_cli("estimate-q", *BANDS_ARGS, "--frequency", "1")
        assert cp.returncode == 2

    def test_missing_required_flag_is_usage_error(self):
        cp = run_cli("estimate-q", "--material", "BaTiO3")
        assert cp.returncode == 2

    def test_unknown_material_is_data_error(self):
        cp = run_cli("estimate-q", "--material", "Unobtainium",
                     "--pump1", "2600e-9", "--pump2", "2600e-9", "--phonon-ghz", "2")
        assert cp.returncode == 1
        assert "Unobtainium" in cp.stderr

    @pytest.mark.parametrize("flag, value, name", [
        ("--pump1", "0", "lambda_p1"), ("--pump2", "-2.6e-6", "lambda_p2"),
        ("--pump1", "inf", "lambda_p1"), ("--phonon-ghz", "nan", "phonon_hz"),
        ("--axes", "x,y,z", "--axes must be comma-separated integers, got 'x,y,z'")])
    def test_bad_band_value_is_data_error(self, flag, value, name):
        args = {"--pump1": "2.6e-6", "--pump2": "2.6e-6", "--phonon-ghz": "5", flag: value}
        cp = run_cli("phasematch", "--material", "BaTiO3", "--length", "1e-3",
                     *(f"{k}={v}" for k, v in args.items()))
        assert cp.returncode == 1
        assert name in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_out_of_range_wavelength_is_data_error(self):
        cp = run_cli("estimate-q", "--material", "BaTiO3", "--pump1", "5e-6",
                     "--pump2", "5e-6", "--phonon-ghz", "2")
        assert cp.returncode == 1
        assert "validity" in cp.stderr


class TestEstimateQ:
    def test_golden_value_bit_for_bit(self, bto, bto_bands):
        chain = second_order_photoelasticity(bto, bto_bands)
        cp = run_cli("estimate-q", *BANDS_ARGS)
        assert cp.returncode == 0
        assert grab(cp.stdout, "q_eff") == chain.q_eff
        assert grab(cp.stdout, "abs_q_eff") == abs(chain.q_eff)
        assert grab(cp.stdout, "eta2") == chain.eta2
        assert grab(cp.stdout, "miller_Q") == chain.Q
        assert abs(grab(cp.stdout, "abs_q_eff") - 2.45e-2) / 2.45e-2 < 0.02

    def test_qpm_flag_reduces_deff(self):
        plain = run_cli("estimate-q", *BANDS_ARGS)
        poled = run_cli("estimate-q", *BANDS_ARGS, "--qpm")
        assert grab(poled.stdout, "d_eff") < grab(plain.stdout, "d_eff")


def _library_values(argv) -> dict:
    """Every ``name = value`` the CLI prints for ``argv``, from the library."""
    m = default_db().get("BaTiO3")
    bands = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)
    pm = PhaseMatchInput(bands=bands, material=m, length=100e-6)
    if argv[0] == "estimate-q":
        chain = second_order_photoelasticity(m, bands)
        out = {name: getattr(bands, name)
               for name in ("omega_p1", "omega_p2", "omega_m", "omega_t")}
        for i, label in enumerate(("pump1", "pump2", "output")):
            out.update({f"n_{label}": chain.n_bands[i],
                        f"eta1_rel_{label}": chain.eta1_rel_bands[i],
                        f"p_{label}": chain.p_entries[i]})
        return {**out, "d_eff": chain.d_eff, "eta2": chain.eta2, "miller_Q": chain.Q,
                "q_eff": chain.q_eff, "abs_q_eff": abs(chain.q_eff)}
    if argv[0] == "field":
        intensity = peak_intensity(1e-3, 1.2e-6)
        return {"peak_field": peak_field_from_power(PumpGeometry(1e-3, 1.2e-6, 2.26)),
                "peak_intensity": intensity, "damage_threshold": m.damage_threshold,
                "damage_limited_power": damage_limited_power(m, 1.2e-6),
                "intensity_over_threshold": intensity / m.damage_threshold}
    if argv[0] == "phasematch":
        out = vars(delta_k(pm))
    else:
        lam, sign = poling_period(pm)
        unpoled = delta_k(pm)
        pm = PhaseMatchInput(bands=bands, material=m, length=100e-6,
                             poling_period=lam, poling_sign=sign)
        poled = delta_k(pm)
        out = {"delta_k_unpoled": unpoled.delta_k, "poling_period": lam,
               "poling_sign": float(sign), "delta_k_poled": poled.delta_k,
               "efficiency": poled.efficiency}
    tw = three_wave_residual(pm)
    return {**out, "delta_k_3wm": tw.delta_k_3wm, "suppression_3wm": tw.suppression}


@pytest.mark.parametrize("argv", [
    ["estimate-q", *BANDS_ARGS],
    ["field", "--power", "1e-3", "--mfd", "1.2e-6", "--n-mode", "2.26",
     "--material", "BaTiO3"],
    ["phasematch", *BANDS_ARGS, "--length", "100e-6", "--three-wave"],
    ["poling", *BANDS_ARGS, "--length", "100e-6"]], ids=lambda argv: argv[0])
def test_every_printed_value_is_the_library_repr(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    printed = dict(re.findall(r"^(\w+) = (\S+)", out.getvalue(), re.MULTILINE))
    assert printed == {k: repr(v) for k, v in _library_values(argv).items()}


class TestMaterials:
    def test_list(self):
        cp = run_cli("materials")
        assert cp.returncode == 0
        assert "BaTiO3" in cp.stdout and "vacuum" in cp.stdout

    def test_show_is_valid_json(self):
        cp = run_cli("materials", "--show", "BaTiO3")
        assert cp.returncode == 0
        doc = json.loads(cp.stdout)
        assert doc["materials"][0]["name"] == "BaTiO3"

    def test_db_flag_overrides(self, tmp_path):
        db = default_db()
        only_vac = dumps_materials(db).replace("BaTiO3", "RenamedTitanate")
        path = tmp_path / "alt.json"
        path.write_text(only_vac)
        cp = run_cli("materials", "--db", str(path))
        assert "RenamedTitanate" in cp.stdout

    def test_env_var_is_lower_priority_than_flag(self, tmp_path, monkeypatch):
        import os
        env_db = tmp_path / "env.json"
        env_db.write_text(dumps_materials(default_db()).replace("BaTiO3", "EnvMaterial"))
        flag_db = tmp_path / "flag.json"
        flag_db.write_text(dumps_materials(default_db()).replace("BaTiO3", "FlagMaterial"))
        env = dict(os.environ, TRANSDUCE_DB=str(env_db))
        cp = run_cli("materials", env=env)
        assert "EnvMaterial" in cp.stdout
        cp = run_cli("materials", "--db", str(flag_db), env=env)
        assert "FlagMaterial" in cp.stdout and "EnvMaterial" not in cp.stdout

    @staticmethod
    def _batio3_with_null_entry(tmp_path, v, w):
        doc = json.loads(dumps_materials(default_db()))
        doc["materials"] = [m for m in doc["materials"] if m["name"] == "BaTiO3"]
        doc["materials"][0]["photoelastic"]["entries"][v][w] = None
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_null_photoelastic_entry_needed_by_the_bands_is_named(self, tmp_path):
        path = self._batio3_with_null_entry(tmp_path, 0, 2)
        cp = run_cli("estimate-q", "--db", path, *BANDS_ARGS)
        assert cp.returncode == 1
        assert "[0][2]" in cp.stderr and "Traceback" not in cp.stderr

    def test_null_photoelastic_entry_not_needed_is_unmeasured(self, tmp_path):
        path = self._batio3_with_null_entry(tmp_path, 3, 3)
        assert run_cli("estimate-q", "--db", path, *BANDS_ARGS).returncode == 0
        shown = run_cli("materials", "--db", path, "--show", "BaTiO3")
        assert shown.returncode == 0
        entries = json.loads(shown.stdout)["materials"][0]["photoelastic"]["entries"]
        assert entries[3][3] is None

    def test_overflowing_d_eff_is_data_error(self, tmp_path):
        doc = json.loads(dumps_materials(default_db()))
        doc["materials"][0]["d_eff_m_per_v"] = 1e300
        path = tmp_path / "db.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("estimate-q", "--db", str(path), *BANDS_ARGS)
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr.startswith("error: eta2 overflows for d_eff=1e+300")

    def test_broken_db_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        cp = run_cli("materials", "--db", str(bad))
        assert cp.returncode == 1

    @pytest.mark.parametrize("entry, message", [
        ("bad row", "material 'BaTiO3': dispersion.points[1] must be a sequence of "
                    "numbers, got 2e-06\n"),
        ("no name", "material entry without a 'name'\n")], ids=["bad-row", "no-name"])
    def test_malformed_entry_names_the_db_file(self, tmp_path, entry, message):
        # A malformed entry was named without its file.
        doc = json.loads(dumps_materials(default_db()))
        bto = next(m for m in doc["materials"] if m["name"] == "BaTiO3")
        if entry == "bad row":
            bto["dispersion"]["points"][1] = 2e-6
        else:
            del bto["name"]
        path = tmp_path / "bad-entry.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("materials", "--db", str(path))
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == f"error: {path}: {message}"

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_db_is_named(self, tmp_path, kind):
        path = unreadable_db(tmp_path, kind)
        cp = run_cli("materials", "--db", str(path))
        assert cp.returncode == 1
        assert cp.stderr.startswith(f"error: {path}: cannot read")
        assert "Traceback" not in cp.stderr


class TestField:
    def test_golden_field_bit_for_bit(self):
        cp = run_cli("field", "--power", "1e-3", "--mfd", "1.2e-6",
                     "--n-mode", "2.26", "--material", "BaTiO3")
        assert cp.returncode == 0
        lib = peak_field_from_power(PumpGeometry(1e-3, 1.2e-6, 2.26))
        assert grab(cp.stdout, "peak_field") == lib
        assert grab(cp.stdout, "damage_limited_power") == pytest.approx(6.11, rel=0.02)

    @pytest.mark.parametrize("argv", [
        ["field", "--power", "1e-3", "--mfd", "1e300", "--n-mode", "1.2e-6",
         "--material", "BaTiO3"],
        ["field", "--power", "2.6e-6", "--mfd", "1e-300", "--n-mode", "1.2e-6"],
        ["sweep-power", *BANDS_ARGS, "--mfd", "1e300", "--n-mode", "2.26",
         "--pmin", "1e-3", "--pmax", "6"]])
    def test_mfd_overflow_or_underflow_is_data_error(self, argv):
        cp = run_cli(*argv)
        assert cp.returncode == 1
        assert "error: mode-field diameter" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize("flags, name", [
        (["--power", "1e300", "--mfd", "1.2e-6", "--n-mode", "2.26"], "power=1e+300"),
        (["--power", "1e-3", "--mfd", "1.2e-6", "--n-mode", "1e-300"], "n_mode=1e-300"),
        (["--power", "1e-3", "--mfd", "1e100", "--n-mode", "1e300"], "n_mode=1e+300"),
        # It printed damage_limited_power = inf and exited 0.
        (["--power", "1e-3", "--mfd", "1e150", "--n-mode", "2.26", "--material", "BaTiO3"],
         "damage_threshold=5400000000000.0, mfd=1e+150")])
    def test_overflowing_field_is_data_error(self, flags, name):
        cp = run_cli("field", *flags)
        assert (cp.returncode, cp.stdout) == (1, "")
        what = "damage-limited power" if "--material" in flags else "peak field"
        assert cp.stderr.startswith(f"error: {what} overflows") and name in cp.stderr

    @pytest.mark.parametrize("bad", ["material", "db"])
    def test_bad_material_or_db_prints_nothing(self, tmp_path, bad):
        # Both printed peak_field and peak_intensity before the error.
        db = ["--db", str(tmp_path / "missing.json")] if bad == "db" else []
        cp = run_cli("field", "--power", "1e-3", "--mfd", "1.2e-6", "--n-mode", "2.26",
                     "--material", "nope" if bad == "material" else "BaTiO3", *db)
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr


class TestSweepPower:
    def test_csv_output(self):
        cp = run_cli("sweep-power", *BANDS_ARGS, "--mfd", "1.2e-6",
                     "--n-mode", "2.26", "--pmin", "1e-3", "--pmax", "6",
                     "--points", "5", "--csv")
        assert cp.returncode == 0
        lines = cp.stdout.strip().splitlines()
        assert lines[0].startswith("power_w,")
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 6.0

    def test_zero_g0_ref_is_used_and_rejected(self):
        cp = run_cli("sweep-power", *BANDS_ARGS, "--mfd", "1.2e-6", "--n-mode", "2.26",
                     "--pmin", "1e-3", "--pmax", "6", "--g0-ref", "0")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == "error: g0_ref must be positive, got 0.0\n"

    def test_overflowing_damage_limit_is_data_error(self):
        # The grid check against 10x an infinite limit passed, and it exited 0.
        cp = run_cli("sweep-power", *BANDS_ARGS, "--mfd", "1e150", "--n-mode", "2.26",
                     "--pmin", "1e-3", "--pmax", "6")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == ("error: damage-limited power overflows for "
                             "damage_threshold=5400000000000.0, mfd=1e+150\n")

    def test_table_output_mentions_extrapolation(self):
        cp = run_cli("sweep-power", *BANDS_ARGS, "--mfd", "1.2e-6",
                     "--n-mode", "2.26", "--pmin", "1e-3", "--pmax", "1",
                     "--points", "3")
        assert cp.returncode == 0
        assert "extrapolat" in cp.stdout


class TestPhasematchAndPoling:
    def test_phasematch_values(self):
        cp = run_cli("phasematch", *BANDS_ARGS, "--length", "100e-6")
        assert cp.returncode == 0
        assert grab(cp.stdout, "delta_k") == pytest.approx(-2464846.776837226,
                                                           rel=1e-12)

    def test_poling_solution_and_3wm(self):
        cp = run_cli("poling", *BANDS_ARGS, "--length", "100e-6")
        assert cp.returncode == 0
        assert grab(cp.stdout, "poling_period") == pytest.approx(2.5491180085611123e-6,
                                                                 rel=1e-12)
        assert grab(cp.stdout, "poling_sign") == -1.0
        assert grab(cp.stdout, "delta_k_poled") == 0.0
        assert grab(cp.stdout, "suppression_3wm") < 0.5

    def test_phasematch_sweep_csv(self):
        cp = run_cli("phasematch", *BANDS_ARGS, "--length", "100e-6",
                     "--sweep", "poling-period", "--sweep-start", "2e-6",
                     "--sweep-stop", "3e-6", "--sweep-points", "5", "--csv")
        assert cp.returncode == 0
        lines = cp.stdout.strip().splitlines()
        assert lines[0].startswith("sweep_value,")
        assert len(lines) == 6

    def test_pump_wavelength_sweep_csv_fields_are_plain_floats(self):
        cp = run_cli("phasematch", *BANDS_ARGS, "--length", "100e-6",
                     "--sweep", "pump-wavelength", "--sweep-start", "2.45e-6",
                     "--sweep-stop", "2.6e-6", "--sweep-points", "4", "--csv")
        assert cp.returncode == 0
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            for field in line.split(","):
                float(field)

    def test_sweep_value_just_past_the_window_is_shown_in_full(self):
        # np.linspace gives 2.7000000000000004e-06, which .6g printed as the
        # bound it crossed: "wavelength 2.7e-06 m outside ... [1.2e-06, 2.7e-06]".
        cp = run_cli("phasematch", *BANDS_ARGS, "--length", "1e-3",
                     "--sweep", "pump-wavelength", "--sweep-start", "2.5e-6",
                     "--sweep-stop", "2.9e-6", "--sweep-points", "3")
        assert cp.returncode == 1
        assert cp.stderr == ("error: wavelength 2.7000000000000004e-06 m outside "
                             "declared validity range [1.2e-06, 2.7e-06] m\n")
        assert cp.stdout == ""

    def test_zero_sweep_points_is_data_error(self):
        cp = run_cli("phasematch", *BANDS_ARGS, "--length", "100e-6",
                     "--sweep", "poling-period", "--sweep-start", "2e-6",
                     "--sweep-stop", "3e-6", "--sweep-points", "0")
        assert cp.returncode == 1
        assert cp.stderr == "error: --sweep-points must be >= 1\n"
        assert cp.stdout == ""

    def test_degenerate_warning(self, tmp_path):
        # dispersionless entry: 3WM matched together with 4WM
        doc = json.loads(dumps_materials(default_db()))
        flat = [m for m in doc["materials"] if m["name"] == "BaTiO3"][0]
        flat["name"] = "flat"
        flat["dispersion"]["points"] = [[1.31e-6, 2.0, 2.0, 2.0],
                                        [2.6e-6, 2.0, 2.0, 2.0]]
        doc["materials"] = [flat]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        cp = run_cli("poling", "--db", str(path), "--material", "flat",
                     "--pump1", "2600e-9", "--pump2", "2600e-9",
                     "--phonon-ghz", "2", "--length", "100e-6")
        assert cp.returncode == 0
        assert "phase matched too" in cp.stdout


SWEEP_ARGS = [*BANDS_ARGS, "--mfd", "1.2e-6", "--n-mode", "2.26"]
TERAHERTZ_PHONON_ARGS = ["--material", "BaTiO3", "--pump1", "2600e-9", "--pump2", "2600e-9",
                         "--phonon-ghz", "1000"]
SINC_OVERFLOW = "delta_k * length overflows for delta_k=-1256541153.5592482, length=1e+300"


@pytest.mark.parametrize("argv, message", [
    (["phasematch", *BANDS_ARGS, "--length", "100e-6", "--poling-period", "inf"],
     "poling period must be finite, with a finite 2 pi / period, got inf"),
    (["phasematch", *BANDS_ARGS, "--length", "100e-6", "--poling-period", "1e-320"],
     "poling period must be finite, with a finite 2 pi / period, got 1e-320"),
    (["sweep-power", *SWEEP_ARGS, "--pmin", "1e-3", "--pmax", "6", "--p-nominal", "inf"],
     "p_nominal must be positive and finite to form ratios, got inf"),
    (["sweep-power", *SWEEP_ARGS, "--pmin", "1e-3", "--pmax", "inf"],
     "--pmax must be finite, got inf"),
    (["sweep-power", *SWEEP_ARGS, "--pmin", "nan", "--pmax", "6"],
     "--pmin must be finite, got nan"),
    (["sweep-power", *SWEEP_ARGS, "--pmin", "1e-3", "--pmax=-1", "--log"],
     "--log requires a positive --pmax"),
    (["phasematch", *BANDS_ARGS, "--length", "100e-6", "--sweep", "poling-period",
      "--sweep-start", "2e-6", "--sweep-stop", "inf"],
     "--sweep-stop must be finite, got inf"),
    (["phasematch", *BANDS_ARGS, "--length", "100e-6", "--sweep", "pump-wavelength",
      "--sweep-start=-1e308", "--sweep-stop", "1e308"],
     "--sweep-stop - --sweep-start must be finite, got inf"),
    (["phasematch", *TERAHERTZ_PHONON_ARGS, "--length", "1e300"], SINC_OVERFLOW),
    (["poling", *TERAHERTZ_PHONON_ARGS, "--length", "1e300"], SINC_OVERFLOW)],
    ids=["poling-period-inf", "poling-period-1e-320", "p-nominal-inf", "pmax-inf",
         "pmin-nan", "log-pmax-negative", "sweep-stop-inf", "sweep-span-inf",
         "phasematch-length-1e300", "poling-length-1e300"])
def test_non_finite_grating_ratio_or_grid_bound_is_named(argv, message):
    # The first three exited 0 (no grating, 0.0 ratios) or named delta_k; the
    # grids printed a numpy RuntimeWarning, or named a NaN grid value or no
    # flag; the last two printed "error: math domain error" from sin(inf).
    cp = run_cli(*argv)
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == f"error: {message}\n"


# Both fail after their first results are computed: at the parent they printed
# those lines (7 and 5) on stdout before the error.
LATE_FAILURES = [
    (["phasematch", *BANDS_ARGS, "--length=1e305",
      "--poling-period=2.5491180085611123e-06", "--poling-sign=-1", "--three-wave"],
     "delta_k * length overflows for delta_k=-48331.76900286414, length=1e+305"),
    (["poling", *BANDS_ARGS[:-1], "0.03845", "--length=1e304"],
     "delta_k * length overflows for delta_k=-48332.18648715038, length=1e+304")]


@pytest.mark.parametrize("argv, message", LATE_FAILURES, ids=["phasematch", "poling"])
def test_a_late_failure_prints_nothing(argv, message):
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr == f"error: {message}\n"

class TestVerifyThermo:
    def test_nan_residual_fails(self):
        # 1e300 coefficients overflow the differences to NaN residuals.
        cp = run_cli("verify-thermo", "--trials", "3", "--coef-range", "1e300")
        assert cp.returncode == 1
        assert re.search(r"order2 +nan +FAIL", cp.stdout)

    def test_overflowing_coefficients_write_nothing_to_stderr(self):
        cp = run_cli("verify-thermo", "--trials", "3", "--coef-range", "1e300")
        assert cp.returncode == 1
        assert cp.stderr == ""

    @pytest.mark.parametrize("flag, value, name", [
        ("--tol", "inf", "tol"), ("--coef-range", "1e308", "--coef-range"),
        ("--coef-range", "nan", "--coef-range")])
    def test_non_finite_tol_or_coefficient_span_is_data_error(self, flag, value, name):
        cp = run_cli("verify-thermo", "--trials", "2", f"{flag}={value}")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr.startswith(f"error: {name} must be")

    def test_small_run_passes(self):
        cp = run_cli("verify-thermo", "--trials", "25", "--adversarial")
        assert cp.returncode == 0
        assert cp.stdout.count("PASS") >= 4
        assert "detected" in cp.stdout

    def test_zero_trials_is_data_error(self):
        cp = run_cli("verify-thermo", "--trials", "0")
        assert cp.returncode == 1
        assert "--trials" in cp.stderr
        assert "PASS" not in cp.stdout and "Traceback" not in cp.stderr

    def test_negative_seed_is_named(self):
        cp = run_cli("verify-thermo", "--trials", "2", "--seed", "-1")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == "error: --seed must be >= 0, got -1\n"

    def test_deterministic_given_seed(self):
        a = run_cli("verify-thermo", "--trials", "10", "--seed", "7")
        b = run_cli("verify-thermo", "--trials", "10", "--seed", "7")
        assert a.stdout == b.stdout

    def test_a_rung_passes_only_if_every_trial_report_passed_it(self, monkeypatch, capsys):
        # The table takes each rung's verdict from the reports' *_passed flags,
        # the one pass rule, not from a second comparison of the worst
        # residual with --tol: a report that fails order2 at residual 0 fails
        # the rung, and the residual column still shows the worst residual.
        from transduce import thermo
        verify = thermo.verify_relations

        def failing_order2(m, tol):
            return verify(m, tol).replace(order2_residual=0.0, order2_passed=False)
        monkeypatch.setattr(thermo, "verify_relations", failing_order2)
        assert cli.main(["verify-thermo", "--trials", "2"]) == 1
        rows = capsys.readouterr().out.splitlines()[2:6]
        assert [row.split()[0::2] for row in rows] == [
            ["order1", "PASS"], ["order2", "FAIL"], ["order3", "PASS"],
            ["factor2", "PASS"]]
        assert rows[1].split()[1] == "0.000000e+00"


WORKED_ARGVS = [
    ["materials"],
    ["materials", "--show", "BaTiO3"],
    ["estimate-q", *BANDS_ARGS],
    ["field", "--power", "1e-3", "--mfd", "1.2e-6", "--n-mode", "2.26",
     "--material", "BaTiO3"],
    ["phasematch", *BANDS_ARGS, "--length", "100e-6", "--three-wave"],
    ["poling", *BANDS_ARGS, "--length", "100e-6"],
]


LAYERS = ("errors", "estimator", "materials", "phasematch", "tensors", "thermo", "units")
# The package's public names by defining layer: the eager import block that
# the lazy exports replaced.
EXPORTS = {
    "errors": ["DataError", "MaterialFileError", "RangeError", "SingularityError",
               "TransduceError", "UnitError"],
    "estimator": ["CouplingBenchmark", "DesignReport", "MillerChain", "MixingBands",
                  "OPTOMECHANICAL_CRYSTAL_BENCHMARK", "PIEZO_OPTOMECHANICAL_BENCHMARK",
                  "PumpGeometry", "SweepRow", "damage_limited_power", "eta1_rel",
                  "eta2_from_Q", "eta2_from_deff", "interaction_density_3wm",
                  "interaction_density_4wm", "miller_Q", "peak_field_from_power",
                  "peak_intensity", "power_sweep", "q_eff_from_deff", "q_eff_from_eta2",
                  "second_order_photoelasticity", "virtual_photoelasticity"],
    "materials": ["DispersionModel", "Material", "MaterialDb", "default_db",
                  "dumps_materials", "load_materials", "loads_materials",
                  "refractive_index", "save_materials"],
    "phasematch": ["PhaseMatchInput", "PhaseMatchResult", "ThreeWaveResidual", "delta_k",
                   "pm_efficiency", "poling_period", "sweep", "three_wave_residual",
                   "wavevector_acoustic", "wavevector_optical"],
    "tensors": ["PhotoelasticTensor", "voigt_index", "voigt_pair"],
    "thermo": ["FreeEnergyModel", "RelationReport", "VectorFreeEnergyModel",
               "eval_free_energy", "eval_free_energy_vector", "efield_of",
               "efield_of_vector", "extract_eta2", "fd_partial", "stress_of",
               "stress_of_vector", "verify_relations", "verify_relations_pair",
               "verify_relations_vector"],
    "units": ["C_LIGHT", "Dimension", "EPS0", "Quantity"],
}
# What this module imports: errors, materials and estimator, and through
# them tensors and units.
CLI_LAYERS = ["errors", "estimator", "materials", "tensors", "units"]


def fresh_imports(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the layers it loaded (in the order
    of LAYERS) and whether it loaded numpy."""
    report = ("import json, sys\n"
              f"layers = [n for n in {LAYERS!r} if 'transduce.' + n in sys.modules]\n"
              "print(json.dumps({'layers': layers, 'numpy': 'numpy' in sys.modules}))")
    cp = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.splitlines()[-1])


class TestImportPath:
    """Each process loads only the layers it uses; only the array commands
    (sweeps, verify-thermo) load numpy, and a library user of ``thermo`` does
    not.  Structural checks, not timings."""

    def test_import_loads_no_layer(self):
        assert fresh_imports("import transduce") == {"layers": [], "numpy": False}

    def test_load_materials_loads_only_the_database_layers(self):
        code = ("import transduce, pathlib\n"
                "db = pathlib.Path(transduce.__file__).parent / 'data' / 'materials.json'\n"
                "assert transduce.load_materials(db).names()")
        assert fresh_imports(code) == {"layers": ["errors", "materials", "tensors"],
                                       "numpy": False}

    @pytest.mark.parametrize("argv, layers", [
        *((argv, CLI_LAYERS) for argv in WORKED_ARGVS[:4]),
        (["sweep-power", *BANDS_ARGS, "--mfd", "1.2e-6", "--n-mode", "2.26",
          "--pmin", "1e-3", "--pmax", "6", "--points", "3"], CLI_LAYERS),
        *((argv, sorted([*CLI_LAYERS, "phasematch"])) for argv in WORKED_ARGVS[4:]),
        (["verify-thermo", "--trials", "2"], sorted([*CLI_LAYERS, "thermo"]))],
        ids=["materials", "materials-show", "estimate-q", "field", "sweep-power",
             "phasematch", "poling", "verify-thermo"])
    def test_command_loads_only_its_layers(self, argv, layers):
        code = f"from transduce import cli\nassert cli.main({argv!r}) == 0"
        assert fresh_imports(code)["layers"] == layers

    def test_only_the_material_database_imports_tensors(self):
        # The Miller chain reads a band's entry by its axis, so folding
        # tensors into materials touches no other module.
        importers = sorted(
            path.stem for path in Path(cli.__file__).parent.glob("*.py")
            if any(isinstance(node, ast.ImportFrom) and node.module == "tensors"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
        assert importers == ["materials"]

    def test_thermo_loads_no_other_layer_and_no_numpy(self):
        # The two-component model stores floats and contracts them itself.
        code = ("from transduce.thermo import VectorFreeEnergyModel, verify_relations_vector\n"
                "m = VectorFreeEnergyModel(1.0, [0.5, -1.0], [[2.0, 0.5], [0.5, 3.0]],\n"
                "                          [0.25] * 8, [1.0, 2.0, 3.0, 4.0], [-0.5] * 8)\n"
                "assert verify_relations_vector(m).all_passed")
        assert fresh_imports(code) == {"layers": ["errors", "thermo", "units"],
                                       "numpy": False}

    def test_start_up_imports_neither_dataclasses_nor_inspect(self):
        # Frozen dataclasses imported both, and generated their methods at
        # import time, in every process that loaded a database.
        code = ("import pathlib, sys, transduce\n"
                "def loaded():\n"
                "    return sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
                "db = pathlib.Path(transduce.__file__).parent / 'data' / 'materials.json'\n"
                "transduce.load_materials(db)\n"
                "assert not loaded(), ('load_materials', loaded())\n"
                "import transduce.cli as cli\n"
                "assert not loaded(), ('import transduce.cli', loaded())\n"
                f"for argv in {WORKED_ARGVS!r}:\n"
                "    assert cli.main(argv) == 0, argv\n"
                "    assert not loaded(), (argv, loaded())")
        assert fresh_imports(code) == {"layers": sorted([*CLI_LAYERS, "phasematch"]),
                                       "numpy": False}

    def test_database_load_imports_no_path_or_typing_module(self):
        # pathlib and importlib.resources pulled in tempfile, shutil, random,
        # bz2, lzma and urllib; default_db() added zipfile and threading.
        # Under -S no .pth start-up hook preloads any of them.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (f"import sys\nsys.path.insert(0, {src!r})\n"
                "import os, transduce\n"
                "db = os.path.join(os.path.dirname(transduce.__file__), 'data', "
                "'materials.json')\n"
                "assert transduce.load_materials(db) == transduce.default_db()\n"
                "print(sorted({'pathlib', 'importlib.resources', 'tempfile', 'zipfile',\n"
                "              'typing'} & set(sys.modules)))")
        cp = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "[]\n"

    def test_every_export_is_its_layers_object(self):
        code = ("import importlib, transduce as T\n"
                f"exports = {EXPORTS!r}\n"
                "assert sorted(T.__all__) == sorted(n for v in exports.values() for n in v)\n"
                "for layer, names in exports.items():\n"
                "    mod = importlib.import_module(f'transduce.{layer}')\n"
                "    assert getattr(T, layer) is mod, layer\n"
                "    for name in names:\n"
                "        assert getattr(T, name) is getattr(mod, name), name\n"
                "        assert vars(T)[name] is getattr(mod, name), name\n"
                "assert set(T.__all__) | set(exports) <= set(dir(T))\n"
                "from transduce import *\n"
                "assert delta_k is T.delta_k")
        assert fresh_imports(code)["layers"] == list(LAYERS)

    def test_layer_attribute_imports_the_layer(self):
        # In this order each layer's own imports are loaded before it, so
        # every access finds its layer not yet imported.
        code = ("import sys, transduce\n"
                "for layer in ('errors', 'tensors', 'units', 'materials', 'estimator',\n"
                "              'phasematch', 'thermo'):\n"
                "    assert f'transduce.{layer}' not in sys.modules, layer\n"
                "    assert getattr(transduce, layer) is sys.modules[f'transduce.{layer}']")
        assert fresh_imports(code)["layers"] == list(LAYERS)

    def test_unknown_attribute_is_named(self):
        code = ("import transduce\n"
                "try:\n"
                "    transduce.no_such_name\n"
                "except AttributeError as exc:\n"
                "    assert 'no_such_name' in str(exc), exc\n"
                "else:\n"
                "    raise AssertionError('no AttributeError')")
        assert fresh_imports(code) == {"layers": [], "numpy": False}

    def test_single_point_commands_do_not_import_numpy(self):
        code = (
            "import sys\n"
            "import transduce\n"
            "from transduce import cli\n"
            "transduce.default_db()\n"
            f"for argv in {WORKED_ARGVS!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "assert not loaded, loaded\n")
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert "q_eff = " in cp.stdout and "poling_period = " in cp.stdout

    def test_sweep_power_csv_matches_geomspace_library_call(self, bto, bto_bands):
        import numpy as np
        from transduce import power_sweep
        cp = run_cli("sweep-power", *BANDS_ARGS, "--mfd", "1.2e-6", "--n-mode", "2.26",
                     "--pmin", "1e-4", "--pmax", "0.5", "--log", "--points", "17",
                     "--csv")
        assert cp.returncode == 0
        report = power_sweep(bto, bto_bands, np.geomspace(1e-4, 0.5, 17), 1.2e-6, 2.26)
        assert cp.stdout == report.to_csv()


# Fuzzed flags and their typical values.  A draw takes every flag from its
# typical value, the special values below and its own bad values in
# FUZZ_BAD_VALUES, or varies one flag only and keeps the rest typical.
_BANDS_FUZZ = {"--pump1": "2600e-9", "--pump2": "2600e-9", "--phonon-ghz": "2",
               "--strain-voigt": "2", "--axes": "0,1,2"}
FUZZ_FLAGS = {
    "field": {"--power": "1e-3", "--mfd": "1.2e-6", "--n-mode": "2.26"},
    "estimate-q": _BANDS_FUZZ,
    "phasematch": {**_BANDS_FUZZ, "--length": "100e-6", "--poling-period": "3e-6",
                   "--sweep-start": "2e-6", "--sweep-stop": "4e-6",
                   "--sweep-points": "5"},
    "poling": {**_BANDS_FUZZ, "--length": "100e-6"},
    "sweep-power": {**_BANDS_FUZZ, "--mfd": "1.2e-6", "--n-mode": "2.26",
                    "--pmin": "1e-3", "--pmax": "6", "--points": "5",
                    "--g0-ref": "2513.27", "--p-nominal": "0.77"},
}
FUZZ_BAD_VALUES = {"--axes": ["x,y,z", "0,1", "0,1,3", "2,1,0"]}
FUZZ_SWITCHES = {
    "estimate-q": ["--qpm"],
    "phasematch": ["--three-wave", "--sweep=poling-period", "--csv"],
    "sweep-power": ["--log", "--csv"],
}
SPECIAL_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "1e-320"]


def _argvs(sub, flags):
    """``sub`` with the flags drawn by ``flags`` and any of its switches."""
    switches = st.lists(st.sampled_from(FUZZ_SWITCHES.get(sub, [""])), unique=True)
    return st.builds(
        lambda f, on: [sub, "--material=BaTiO3", *(f"{k}={v}" for k, v in f.items()),
                       *filter(None, on)],
        flags, switches)


def _unusual(flag):
    """The special values and ``flag``'s own bad values."""
    return [*SPECIAL_VALUES, *FUZZ_BAD_VALUES.get(flag, [])]


def _fuzzed_argv(sub):
    return _argvs(sub, st.fixed_dictionaries({
        flag: st.sampled_from([typical, *_unusual(flag)])
        for flag, typical in FUZZ_FLAGS[sub].items()}))


def _one_unusual_flag_argv(sub):
    """Typical flags but one, so that its unusual value gets past the band
    flags to the grating, grid and ratio checks."""
    def with_unusual(flag):
        return _argvs(sub, st.fixed_dictionaries({
            **{k: st.just(v) for k, v in FUZZ_FLAGS[sub].items()},
            flag: st.sampled_from(_unusual(flag))}))
    return st.sampled_from(sorted(FUZZ_FLAGS[sub])).flatmap(with_unusual)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.one_of(*map(_fuzzed_argv, sorted(FUZZ_FLAGS)),
                 *map(_one_unusual_flag_argv, sorted(FUZZ_FLAGS))))
@example(["field", "--power=1e-3", "--mfd=1e300", "--n-mode=1.2e-6",
          "--material=BaTiO3"])
@example(["field", "--power=2.6e-6", "--mfd=1e-300", "--n-mode=1.2e-6"])
@example(["sweep-power", *BANDS_ARGS, "--mfd=1e300", "--n-mode=2.26",
          "--pmin=1e-3", "--pmax=6"])
@example(["field", "--power=1e300", "--mfd=1.2e-6", "--n-mode=2.26"])
@example(["field", "--power=1e-3", "--mfd=1.2e-6", "--n-mode=1e-300"])
@example(["sweep-power", *BANDS_ARGS, "--mfd=1.2e-6", "--n-mode=1e-300",
          "--pmin=1e-3", "--pmax=6"])
@example(["field", "--power=1e-3", "--mfd=1e100", "--n-mode=1e300"])
@example(["field", "--power=1e-3", "--mfd=1e150", "--n-mode=2.26", "--material=BaTiO3"])
@example(["sweep-power", *BANDS_ARGS, "--mfd=1e150", "--n-mode=2.26",
          "--pmin=1e-3", "--pmax=6"])
@example(["sweep-power", *BANDS_ARGS, "--mfd=1.2e-6", "--n-mode=2.26",
          "--pmin=1e-3", "--pmax=6", "--g0-ref=1e300", "--p-nominal=1e-300"])
@example(["phasematch", *BANDS_ARGS, "--length=100e-6", "--poling-period=inf"])
@example(["phasematch", *BANDS_ARGS, "--length=100e-6", "--poling-period=1e-320"])
@example(["sweep-power", *BANDS_ARGS, "--mfd=1.2e-6", "--n-mode=2.26",
          "--pmin=1e-3", "--pmax=inf", "--p-nominal=inf"])
@example(["phasematch", *BANDS_ARGS, "--length=100e-6", "--sweep=poling-period",
          "--sweep-start=2e-6", "--sweep-stop=inf"])
@example(LATE_FAILURES[0][0])
@example(LATE_FAILURES[1][0])
def test_fuzzed_cli_exits_0_1_or_2(argv):
    check_cli_oracle(argv)


NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


def check_cli_oracle(argv):
    """Exit 0, 1 or 2 with no traceback or warning, a success prints no inf
    or NaN, and an error prints nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    # Warnings are printed, as a user sees them, rather than raised.
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage error
            code = exc.code
    assert code in (0, 1, 2), argv
    assert (code == 2) == ("usage:" in err.getvalue()), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "Warning" not in err.getvalue(), (argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    if err.getvalue().startswith("error:"):
        assert out.getvalue() == "", (argv, out.getvalue())


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([[], ["--show=BaTiO3"], ["--show=vacuum"],
                        ["--show=Unobtainium"], ["--show="]]))
def test_fuzzed_materials(show):
    check_cli_oracle(["materials", *show])


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(st.fixed_dictionaries({
           "--trials": st.sampled_from(["1", "3", "0", "-1", "nan", "1e300"]),
           "--seed": st.sampled_from(["1", "7", "-1"]),
           "--coef-range": st.sampled_from(["10", *SPECIAL_VALUES, "1e154", "8e307"]),
           "--tol": st.sampled_from(["1e-6", *SPECIAL_VALUES])}),
       st.booleans())
@example({"--trials": "2", "--seed": "1", "--coef-range": "10", "--tol": "inf"}, False)
def test_fuzzed_verify_thermo(flags, adversarial):
    check_cli_oracle(["verify-thermo", *(f"{k}={v}" for k, v in flags.items()),
                      *(["--adversarial"] if adversarial else [])])


def _json_paths(node, path=()):
    """Every path into the JSON document ``node``, containers included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, (*path, key))


BUNDLED_DOC = json.loads(dumps_materials(default_db()))
DB_PATHS = [p for p in _json_paths(BUNDLED_DOC) if p]
DB_VALUES = [None, "x", True, 0, -1, 1e300]
DB_COMMANDS = [
    ["materials"], ["materials", "--show=BaTiO3"], ["estimate-q", *BANDS_ARGS],
    ["estimate-q", *BANDS_ARGS, "--qpm"],
    ["field", "--power=1e-3", "--mfd=1.2e-6", "--n-mode=2.26", "--material=BaTiO3"],
    ["sweep-power", *BANDS_ARGS, "--mfd=1.2e-6", "--n-mode=2.26", "--pmin=1e-3",
     "--pmax=6", "--points=3"],
    ["phasematch", *BANDS_ARGS, "--length=100e-6", "--three-wave"],
    ["poling", *BANDS_ARGS, "--length=100e-6"],
]


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DB_PATHS), st.sampled_from(DB_VALUES),
       st.sampled_from(DB_COMMANDS))
@example(("materials", 0, "d_eff_m_per_v"), 1e300, DB_COMMANDS[2])
@example(("materials", 0, "dispersion", "points", 0, 1), "2.27", DB_COMMANDS[0])
@example(("materials", 0, "qpm_order"), True, DB_COMMANDS[1])
def test_fuzzed_db_file(tmp_path_factory, path, value, argv):
    doc = json.loads(json.dumps(BUNDLED_DOC))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    db = tmp_path_factory.mktemp("db") / "db.json"
    db.write_text(json.dumps(doc))
    check_cli_oracle([*argv, f"--db={db}"])
