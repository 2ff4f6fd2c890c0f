"""Regenerate the goldens that pin every output of the toolkit.

    PYTHONPATH=src python3 tests/golden/regen.py

rewrites, next to this file:

* ``cli.json``: the exit code, stdout and stderr of each command of
  ``CLI_CASES``, run in process through ``transduce.cli.main``: every README
  command and error example, every ``--help`` text and ``--version``, the
  table and CSV of both sweep commands and ``verify-thermo`` on seeds 1-5;
* ``demos.json``: the stdout and stderr of each script in ``demos/``, run
  with ``runpy``;
* ``library_head.txt`` and ``library.sha256``: the text of the first
  ``HEAD_DESIGNS`` of ``N_DESIGNS`` seeded library designs, and the sha256
  of the text of all of them.

``tests/test_golden.py`` replays the same cases through the same functions
and compares, as ``replay.py`` does, without numpy or pytest, on any Python.  A change that moves a golden reruns this script and lists
each moved line, with its reason, in CHANGES.md.

The goldens must hold on any x86-64 machine, so no recorded byte passes
through a numpy transcendental at full precision: numpy may dispatch SIMD
versions of ``np.power`` and friends (SVML on AVX-512) that differ from libm
in the last bit.  The grids here are ``np.linspace`` (arithmetic only) and
the random draws come from ``random.Random`` or
``np.random.default_rng(seed).uniform``.  No command uses ``--log``
(``np.geomspace``), and the CSV file that demo 02 writes from an
``np.geomspace`` grid is not recorded; its stdout, at 4 digits, is.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import runpy
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path
from unittest import mock

from transduce import (MixingBands, PhaseMatchInput, PumpGeometry, TransduceError,
                       cli, damage_limited_power, default_db, delta_k,
                       loads_materials, peak_field_from_power, peak_intensity,
                       poling_period, second_order_photoelasticity,
                       three_wave_residual)
from transduce._record import Record

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parents[1] / "demos").glob("*.py"))

BANDS = "--material BaTiO3 --pump1 2600e-9 --pump2 2600e-9 --phonon-ghz 2"
SWEEP_POWER = f"sweep-power {BANDS} --mfd 1.2e-6 --n-mode 2.26 --pmin 1e-3 --pmax 6"
PHASEMATCH = f"phasematch {BANDS} --length 100e-6"
PUMP_SWEEP = f"{PHASEMATCH} --sweep pump-wavelength --sweep-start 2.5e-6 --sweep-stop 2.7e-6"
PERIOD_SWEEP = f"{PHASEMATCH} --sweep poling-period --sweep-start 2.5e-6 --sweep-stop 2.6e-6"
LATE = "--material BaTiO3 --pump1 2600e-9 --pump2 2600e-9 --phonon-ghz 0.03845"
FAST = "--material BaTiO3 --pump1 2600e-9 --pump2 2600e-9 --phonon-ghz 1000"
UNSHIFTED = "--material BaTiO3 --pump1 2600e-9 --pump2 2600e-9 --phonon-ghz 0"
SUBCOMMANDS = ("materials", "estimate-q", "field", "sweep-power", "phasematch",
               "poling", "verify-thermo")

# name -> command line (split on blanks).  A relative --db names a file that
# make_fixtures writes into the working directory.
CLI_CASES = {
    "materials": "materials",
    "materials-show": "materials --show BaTiO3",
    "estimate-q": f"estimate-q {BANDS}",
    "estimate-q-qpm": f"estimate-q {BANDS} --qpm",
    "estimate-q-axes-222": f"estimate-q {BANDS} --axes 2,2,2",
    "estimate-q-strain-column-3": f"estimate-q {BANDS} --strain-voigt 3",
    "estimate-q-vacuum": "estimate-q --material vacuum --pump1 2600e-9 --pump2 2600e-9 "
                         "--phonon-ghz 2",
    "field": "field --power 1e-3 --mfd 1.2e-6 --n-mode 2.26 --material BaTiO3",
    "field-no-material": "field --power 1e-3 --mfd 1.2e-6 --n-mode 2.26",
    "sweep-power-csv": f"{SWEEP_POWER} --csv",
    "sweep-power-table": SWEEP_POWER,
    "sweep-power-crystal": f"{SWEEP_POWER} --points 5 --benchmark crystal --p-nominal 0.5",
    "sweep-power-g0-ref": f"{SWEEP_POWER} --points 3 --g0-ref 1e3 --csv",
    "phasematch": PHASEMATCH,
    "phasematch-three-wave": f"{PHASEMATCH} --three-wave",
    "phasematch-poled-pump2": f"{PHASEMATCH} --poling-period 2.55e-6 --poling-sign -1 "
                              "--three-wave --pump-choice 2",
    # With no phonon the three-wave output is the pump itself: matched too.
    "phasematch-three-wave-matched": f"phasematch {UNSHIFTED} --length 100e-6 --three-wave",
    "phasematch-sweep-pump-table": f"{PUMP_SWEEP} --sweep-points 21",
    "phasematch-sweep-pump-csv": f"{PUMP_SWEEP} --sweep-points 21 --csv",
    "phasematch-sweep-pump-two-pumps": "phasematch --material BaTiO3 --pump1 2.5e-6 "
        "--pump2 2.7e-6 --phonon-ghz 2 --length 100e-6 --sweep pump-wavelength "
        "--sweep-start 2.5e-6 --sweep-stop 2.7e-6 --sweep-points 5 --csv",
    "phasematch-sweep-period-table": f"{PERIOD_SWEEP} --sweep-points 21",
    "phasematch-sweep-period-csv": f"{PERIOD_SWEEP} --sweep-points 21 --csv",
    "poling": f"poling {BANDS} --length 100e-6",
    "poling-already-matched": f"poling --db flat-index.json {UNSHIFTED} --length 100e-6",
    "poling-two-pumps-pump2": "poling --material BaTiO3 --pump1 2500e-9 --pump2 2650e-9 "
                              "--phonon-ghz 5 --length 1e-3 --pump-choice 2",
    "verify-thermo": "verify-thermo --trials 1000 --adversarial",
    **{f"verify-thermo-seed{s}": f"verify-thermo --trials 200 --seed {s} --adversarial"
       for s in range(1, 6)},
    "verify-thermo-coef-range-0": "verify-thermo --trials 2 --coef-range 0",
    "verify-thermo-coef-range-1e300": "verify-thermo --trials 20 --coef-range 1e300",
    # The README's error examples, and one of each other kind of failure.
    "error-late-failure": f"poling {LATE} --length 1e304",
    "error-field-n-mode": "field --power 1e-3 --mfd 1.2e-6 --n-mode 1e-300",
    "error-field-denominator": "field --power 1e-3 --mfd 1e100 --n-mode 1e300",
    "error-field-damage": "field --power 1e-3 --mfd 1e150 --n-mode 2.26 --material BaTiO3",
    "error-field-intensity-underflow": "field --power 1e-310 --mfd 1.2e-6 --n-mode 2.26 "
                                       "--material BaTiO3",
    "error-sweep-power-damage": f"sweep-power {BANDS} --mfd 1e150 --n-mode 2.26 "
                                "--pmin 1e-3 --pmax 6",
    "error-sound-speed": f"phasematch --db slow-sound.json {BANDS} --length 100e-6",
    "error-index-overflow": f"phasematch --db huge-index.json {BANDS} --length 100e-6",
    "error-index-underflow": f"estimate-q --db huge-index.json {BANDS}",
    "error-phasematch-overflow": f"phasematch {FAST} --length 1e300",
    # A phonon whose omega_m, or whose k_m, rounds to a subnormal float.
    "error-phonon-underflow": "estimate-q --material BaTiO3 --pump1 2600e-9 --pump2 2600e-9 "
                              "--phonon-ghz 1e-320",
    "error-acoustic-wavevector-underflow": "phasematch --material BaTiO3 --pump1 2600e-9 "
                                           "--pump2 2600e-9 --phonon-ghz 1e-315 "
                                           "--length 100e-6",
    "error-poling-overflow": f"poling {FAST} --length 1e300",
    # Two finite pump omegas whose sum, omega_t, overflows.
    "error-omega-t-overflow": "estimate-q --material BaTiO3 --pump1 1.2e-299 "
                              "--pump2 1.2e-299 --phonon-ghz 0",
    "error-unmeasured-entry": f"estimate-q --db null-entry.json {BANDS} --axes 1,2,2",
    "error-null-note": "materials --db null-note.json",
    "error-out-of-window": "estimate-q --material BaTiO3 --pump1 5e-6 --pump2 5e-6 "
                           "--phonon-ghz 2",
    "error-unknown-material": "estimate-q --material Unobtainium --pump1 2600e-9 "
                              "--pump2 2600e-9 --phonon-ghz 2",
    "error-unknown-mode": f"phasematch {BANDS} --length 100e-6 --acoustic-mode shear",
    "error-axes-text": f"estimate-q {BANDS} --axes x,y,z",
    "error-axes-range": f"estimate-q {BANDS} --axes 0,1,3",
    "error-g0-ref": f"{SWEEP_POWER} --g0-ref 0",
    "error-p-nominal": f"{SWEEP_POWER} --p-nominal inf",
    "error-points": f"{SWEEP_POWER} --points 0",
    "error-pmax": f"{SWEEP_POWER.replace('--pmax 6', '--pmax inf')}",
    "error-log-bound": f"{SWEEP_POWER.replace('--pmin 1e-3', '--pmin 0')} --log",
    "error-power-grid": f"{SWEEP_POWER.replace('--pmax 6', '--pmax 100')}",
    "error-poling-period-inf": f"{PHASEMATCH} --poling-period inf",
    "error-poling-period-subnormal": f"{PHASEMATCH} --poling-period 1e-320",
    "error-sweep-bounds": f"{PHASEMATCH} --sweep poling-period",
    "error-sweep-points": f"{PERIOD_SWEEP} --sweep-points 0",
    "error-tol-inf": "verify-thermo --tol inf",
    "error-coef-range": "verify-thermo --coef-range 1e308",
    "error-seed": "verify-thermo --seed -1",
    "error-trials": "verify-thermo --trials 0",
    "error-db-directory": "materials --db a-directory",
    "error-db-not-utf8": "materials --db not-utf8.json",
    "error-db-missing": "materials --db missing.json",
    "error-db-deep-nesting": "materials --db deep-nesting.json",
    "error-db-duplicate-key": f"estimate-q --db duplicate-key.json {BANDS}",
    "error-db-schema-true": "materials --db schema-true.json",
    "error-db-materials-misspelt": "materials --db materials-misspelt.json",
    "error-db-materials-missing": "materials --db materials-missing.json",
    "usage-no-command": "",
    "usage-unknown-flag": f"estimate-q {BANDS} --frequency 1",
    "usage-missing-flag": "estimate-q --material BaTiO3",
    "usage-bad-choice": f"{SWEEP_POWER} --benchmark nope",
    "help": "--help",
    **{f"help-{c}": f"{c} --help" for c in SUBCOMMANDS},
    "version": "--version",
}

N_DESIGNS, HEAD_DESIGNS, CORPUS_SEED = 3000, 200, 20260808
_ERRORS = (TransduceError, ValueError, ArithmeticError)
_FAILED = object()      # what a design step that raised returns


# The --db files: the bundled BaTiO3 entry with one value changed, by its
# path in the entry.
_DB_EDITS = {
    "slow-sound.json": (("v_sound_m_per_s", "longitudinal"), 1e-300),
    "huge-index.json": (("dispersion", "points"), [[1.31e-06, 4e301, 4e301, 4e301],
                                                   [2.6e-06, 4e301, 4e301, 4e301]]),
    "null-entry.json": (("photoelastic", "entries", 2, 2), None),
    "null-note.json": (("photoelastic", "note"), None),
    # n = 2.26 at every wavelength and axis: a degenerate design with no
    # phonon is phase matched unpoled.
    "flat-index.json": (("dispersion", "points"), [[1.31e-06, 2.26, 2.26, 2.26],
                                                   [2.6e-06, 2.26, 2.26, 2.26]]),
}


def make_fixtures(workdir: Path) -> None:
    """The files that the ``--db`` cases name, in ``workdir``."""
    bundled = (Path(cli.__file__).parent / "data" / "materials.json").read_text(encoding="utf-8")
    for name, ((*keys, last), value) in _DB_EDITS.items():
        batio3 = json.loads(bundled)["materials"][0]
        reduce(getitem, keys, batio3)[last] = value
        (workdir / name).write_text(json.dumps({"schema": 1, "materials": [batio3]}))
    # Files that no edit of a JSON value gives.  A 5001-digit integer has
    # no case: its message is Python's own, and 3.10 words it differently.
    batio3 = json.dumps({"schema": 1, "materials": [json.loads(bundled)["materials"][0]]})
    d_eff = '"d_eff_m_per_v": 1e-11'
    for name, text in [
            ("deep-nesting.json", "[" * 100000 + "]" * 100000),
            ("duplicate-key.json", batio3.replace(d_eff, f'{d_eff}, "d_eff_m_per_v": 2e-11')),
            ("schema-true.json", batio3.replace('"schema": 1', '"schema": true')),
            ("materials-misspelt.json", batio3.replace('"materials":', '"material":')),
            ("materials-missing.json", '{"schema": 1}')]:
        (workdir / name).write_text(text)
    (workdir / "not-utf8.json").write_bytes(b"\xff\xfe{}")
    (workdir / "a-directory").mkdir()


def replay(workdir: Path, argv: list[str] | None = None,
           demo: Path | None = None) -> dict:
    """Exit code, stdout and stderr (as lists of lines) of ``cli.main(argv)``
    or of the script ``demo``, run in process in ``workdir``, with an
    80-column terminal, no colour and no ``TRANSDUCE_DB``."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", "NO_COLOR": "1"}):
        for name in ("TRANSDUCE_DB", "FORCE_COLOR", "PYTHON_COLORS"):
            os.environ.pop(name, None)
        os.chdir(workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if demo is None:
                    code = cli.main(argv)
                else:       # a copy, since demo 02 writes its CSV next to itself
                    runpy.run_path(shutil.copy(demo, workdir), run_name="__main__")
                    code = 0
        except SystemExit as exc:      # argparse: --help, --version, usage errors
            code = exc.code
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue().splitlines(True),
            "stderr": err.getvalue().splitlines(True)}


def cli_golden(workdir: Path, name: str) -> dict:
    return {"argv": CLI_CASES[name], **replay(workdir, CLI_CASES[name].split())}


def _corpus_materials(rng: random.Random) -> list:
    """BaTiO3 and two tabulated and two Sellmeier materials drawn by ``rng``,
    with a window of about [0.7, 3.4] um and poles outside it."""
    entries = []
    for i, kind in enumerate(("tabulated-points", "sellmeier") * 2):
        lo, hi = rng.uniform(0.6e-6, 0.8e-6), rng.uniform(3.2e-6, 3.6e-6)
        if kind == "sellmeier":
            dispersion = {"sellmeier": [[[rng.uniform(1.5, 3.5), rng.uniform(0.1e-6, 0.3e-6) ** 2],
                                         [rng.uniform(0.2, 1.0), rng.uniform(8e-6, 12e-6) ** 2]]
                                        for _ in range(3)]}
        else:
            dispersion = {"points": [[lo + (hi - lo) * j / 7] + [rng.uniform(1.8, 2.4)
                                                                  for _ in range(3)]
                                     for j in range(8)]}
        entries.append({
            "name": f"{kind}-{i}",
            "dispersion": {"kind": kind, "valid_range_m": [lo, hi], **dispersion},
            # Some entries of the diagonal rows, which the chain reads, are unmeasured.
            "photoelastic": {"entries": [[None if v < 3 and rng.random() < 0.1
                                          else rng.uniform(-0.3, 0.8) for _ in range(6)]
                                         for v in range(6)], "note": "drawn"},
            "d_eff_m_per_v": rng.uniform(5e-12, 50e-12),
            "eps_r": [rng.uniform(4.0, 30.0) for _ in range(3)],
            "v_sound_m_per_s": {"longitudinal": rng.uniform(3000.0, 9000.0)},
            "damage_threshold_w_per_m2": rng.uniform(1e12, 1e13),
            "qpm_order": rng.choice((1, 3)),
        })
    drawn = loads_materials(json.dumps({"schema": 1, "materials": entries}))
    return [default_db().get("BaTiO3"), *(drawn.get(e["name"]) for e in entries)]


def _written(record: Record) -> tuple:
    """The values a design's line holds for ``record``: those of its
    ``vars()``, its fields and then what it derives from them (a
    MillerChain's eta1_rel_bands, eta2, Q and q_eff).  A record that holds
    its input record (a PhaseMatchResult or a ThreeWaveResidual holds its
    PhaseMatchInput, which the design's earlier lines give) is written as
    the values it derives alone."""
    values = vars(record)
    if any(isinstance(getattr(record, f), Record) for f in record._fields):
        return tuple(v for k, v in values.items() if k not in record._fields)
    return tuple(values.values())


def _design(i: int, rng: random.Random, materials: list) -> str:
    """The text of design ``i``: its material, axes and strain column, then
    each result (or the error it raised), one per line.  A result is given
    by its repr, a record's as its type name and the tuple of the values of
    ``_written``, so the line is not always the call that rebuilds it.  The
    names, which tests/test_records.py pins, are left out to keep the head
    file small; every float is a repr, so it carries every bit."""
    m = rng.choice(materials)
    pumps = (2.38e-6, 2.72e-6) if m.name == "BaTiO3" else (1.8e-6, 3.0e-6)
    l1, l2, ghz = rng.uniform(*pumps), rng.uniform(*pumps), rng.uniform(1.0, 10.0)
    axes = (rng.randrange(3), rng.randrange(3), rng.randrange(3))
    strain = 2 if rng.random() < 0.9 else rng.randrange(6)
    power, mfd = rng.uniform(1e-4, 1.0), rng.uniform(0.8e-6, 2e-6)
    n_mode, length = rng.uniform(1.5, 2.5), rng.uniform(50e-6, 500e-6)
    lines = [f"design {i}: {m.name} axes={axes} strain={strain}\n"]

    def record(label: str, fn):
        try:
            value = fn()
        except _ERRORS as exc:
            lines.append(f"  {label}: {type(exc).__name__}: {exc}\n")
            return _FAILED
        text = (f"{type(value).__name__}{_written(value)!r}"
                if isinstance(value, Record) else repr(value))
        lines.append(f"  {label}: {text}\n")
        return value

    bands = MixingBands.from_vacuum_wavelengths(l1, l2, ghz * 1e9, axes=axes,
                                                strain_voigt=strain)
    record("chain", lambda: second_order_photoelasticity(m, bands))
    record("field", lambda: peak_field_from_power(PumpGeometry(power, mfd, n_mode)))
    record("intensity", lambda: peak_intensity(power, mfd))
    record("damage_power", lambda: damage_limited_power(m, mfd))
    pm = PhaseMatchInput(bands, m, length)
    record("delta_k", lambda: delta_k(pm))
    solved = record("poling", lambda: poling_period(pm))
    if solved is not _FAILED:
        poled = pm if solved is None else pm.replace(poling_period=solved[0],
                                                     poling_sign=solved[1])
        record("delta_k_poled", lambda: delta_k(poled))
        record("three_wave_1", lambda: three_wave_residual(poled, 1))
        record("three_wave_2", lambda: three_wave_residual(poled, 2))
    return "".join(lines)


def corpus() -> list[str]:
    """The text of each of the ``N_DESIGNS`` seeded designs, in order."""
    rng = random.Random(CORPUS_SEED)
    materials = _corpus_materials(rng)
    return [_design(i, rng, materials) for i in range(N_DESIGNS)]


def sha256(texts: list[str]) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        make_fixtures(workdir)
        _write_json(HERE / "cli.json", {name: cli_golden(workdir, name) for name in CLI_CASES})
        _write_json(HERE / "demos.json", {d.name: replay(workdir, demo=d) for d in DEMOS})
    texts = corpus()
    (HERE / "library_head.txt").write_text("".join(texts[:HEAD_DESIGNS]), encoding="utf-8")
    (HERE / "library.sha256").write_text(sha256(texts) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
