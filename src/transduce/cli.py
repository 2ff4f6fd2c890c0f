"""Command-line interface.

Subcommands expose the estimation chain (estimate-q, field, sweep-power),
phase-matching design (phasematch, poling), the material database
(materials), and the thermodynamic verifier (verify-thermo) as deterministic
batch commands.  Optical bands are given as vacuum wavelengths in meters and
the phonon in GHz; everything is converted to angular frequencies internally.

Each ``_cmd_*`` handler computes and returns ``(exit code, lines)``; ``main``
alone writes, all of stdout at once after the handler has returned.  Exit
codes: 0 success; 1 a data/range/validation failure, with only ``error:
...`` on stderr, so a failure leaves stdout empty; 2 a usage error.
verify-thermo is the one command that exits 1 with output: its full table,
when a rung FAILs.

The database is resolved from --db, then the TRANSDUCE_DB environment
variable, then the bundled default.  Values printed as ``name = value`` use
full float precision (repr), so they are bit-identical to the corresponding
library call; wide sweep tables are formatted to 9 significant digits and
--csv switches to full-precision CSV.

Each command imports only the layers it uses.  This module imports
``errors``, ``materials`` and ``estimator`` (and so ``tensors`` and
``units``), enough for materials, estimate-q, field and sweep-power; the
phasematch and poling handlers import ``phasematch``, and verify-thermo
imports ``thermo``.  numpy is imported inside the array commands only
(sweep-power, phasematch --sweep, verify-thermo); the single-point commands
run on Python floats, so no module imported here may import numpy at module
level.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import _FINITE, TransduceError, _real_in
from .estimator import (CouplingBenchmark, MixingBands,
                        OPTOMECHANICAL_CRYSTAL_BENCHMARK,
                        PIEZO_OPTOMECHANICAL_BENCHMARK, PumpGeometry,
                        SweepRow, _over_threshold, damage_limited_power,
                        peak_field_from_power, peak_intensity, power_sweep,
                        second_order_photoelasticity)
from .materials import (Material, MaterialDb, default_db, dumps_materials,
                        load_materials)

ENV_DB = "TRANSDUCE_DB"
# The two usages that argparse wraps differently from one Python version to
# the next, written out (each option next to its metavar), so that every
# Python prints the same bytes; tests/test_cli.py checks that each names
# what argparse would.
_USAGE = """%(prog)s [-h] [--version]
                 {materials,estimate-q,field,sweep-power,phasematch,poling,verify-thermo}
                 ..."""
_SWEEP_POWER_USAGE = """%(prog)s [-h] [--db DB] --material MATERIAL --pump1 PUMP1
                             --pump2 PUMP2 --phonon-ghz PHONON_GHZ
                             [--axes AXES] [--acoustic-mode ACOUSTIC_MODE]
                             [--strain-voigt STRAIN_VOIGT] --mfd MFD
                             --n-mode N_MODE --pmin PMIN --pmax PMAX
                             [--points POINTS] [--log]
                             [--benchmark {piezo,crystal}] [--g0-ref G0_REF]
                             [--p-nominal P_NOMINAL] [--csv]"""
_BENCHMARKS = {"piezo": PIEZO_OPTOMECHANICAL_BENCHMARK,
               "crystal": OPTOMECHANICAL_CRYSTAL_BENCHMARK}


def _resolve_db(args) -> MaterialDb:
    path = args.db or os.environ.get(ENV_DB)
    return load_materials(path) if path else default_db()


def _material_and_bands(args) -> tuple[Material, MixingBands]:
    """The ``--material`` entry and the bands of the band flags, failing in
    flag order: the database, the material, then ``--axes`` and the bands."""
    m = _resolve_db(args).get(args.material)
    try:
        axes = tuple(int(a) for a in args.axes.split(","))
    except ValueError:
        raise ValueError("--axes must be comma-separated integers, "
                         f"got {args.axes!r}") from None
    return m, MixingBands.from_vacuum_wavelengths(
        args.pump1, args.pump2, args.phonon_ghz * 1e9,
        axes=axes, acoustic_mode=args.acoustic_mode,
        strain_voigt=args.strain_voigt)


def _grid(args, start: str, stop: str, points: str, log: bool = False):
    """The numpy grid (geometric if ``log``) that the flags named ``start``,
    ``stop`` and ``points`` ask for, after checking them once, by name."""
    import numpy as np
    lo, hi, n = (vars(args)[f[2:].replace("-", "_")] for f in (start, stop, points))
    if n < 1:
        raise ValueError(f"{points} must be >= 1")
    bounds = ((start, lo), (stop, hi))
    for name, v in bounds if log else ():
        if not v > 0:
            raise ValueError(f"--log requires a positive {name}")
    # A non-finite bound or span would turn into NaN grid values.
    for name, v in (*bounds, (f"{stop} - {start}", hi - lo)):
        _real_in(v, name, _FINITE)
    try:
        return (np.geomspace if log else np.linspace)(lo, hi, n)
    except (MemoryError, ValueError):   # numpy cannot allocate n points
        raise ValueError(f"{points} must be small enough for the grid to fit in memory, "
                         f"got {n}") from None


def _kv(name: str, value: float, unit: str = "") -> str:
    """The ``name = value`` line of a float, at full precision (repr)."""
    return f"{name} = {value!r}" + (f"  [{unit}]" if unit else "")


def _add_db_flag(p) -> None:
    p.add_argument("--db", help="material database file (overrides "
                                f"${ENV_DB} and the bundled default)")


def _add_band_flags(p) -> None:
    _add_db_flag(p)
    p.add_argument("--material", required=True, help="material name in the database")
    p.add_argument("--pump1", type=float, required=True,
                   help="pump 1 vacuum wavelength in meters")
    p.add_argument("--pump2", type=float, required=True,
                   help="pump 2 vacuum wavelength in meters")
    p.add_argument("--phonon-ghz", type=float, required=True,
                   help="phonon frequency in GHz")
    p.add_argument("--axes", default="0,1,2",
                   help="polarization axes of (pump1,pump2,output), default 0,1,2")
    p.add_argument("--acoustic-mode", default="longitudinal",
                   help="acoustic mode label for the sound-speed table")
    p.add_argument("--strain-voigt", type=int, default=2,
                   help="Voigt index of the strain column driven by the phonon")


# ----------------------------------------------------------------- materials

def _cmd_materials(args) -> tuple[int, list[str]]:
    db = _resolve_db(args)
    if args.show:
        m = db.get(args.show)
        return 0, [dumps_materials(MaterialDb(materials={m.name: m}))]
    lines = []
    for name in db.names():
        m = db.get(name)
        lo, hi = m.dispersion.valid_range_m
        lines.append(f"{name}: dispersion {m.dispersion.kind} over "
                     f"[{lo:.4g}, {hi:.4g}] m, d_eff {m.d_eff:.4g} m/V, "
                     f"damage {m.damage_threshold:.4g} W/m^2, "
                     f"modes {sorted(m.v_sound) or '-'}")
    return 0, lines


# ---------------------------------------------------------------- estimate-q

def _cmd_estimate_q(args) -> tuple[int, list[str]]:
    m, bands = _material_and_bands(args)
    chain = second_order_photoelasticity(m, bands, apply_qpm_reduction=args.qpm)
    lines = [_kv(name, getattr(bands, name), "rad/s")
             for name in ("omega_p1", "omega_p2", "omega_m", "omega_t")]
    for i, label in enumerate(("pump1", "pump2", "output")):
        lines += [_kv(f"n_{label}", chain.n_bands[i]),
                  _kv(f"eta1_rel_{label}", chain.eta1_rel_bands[i]),
                  _kv(f"p_{label}", chain.p_entries[i])]
    return 0, [*lines, _kv("d_eff", chain.d_eff, "m/V"),
               _kv("eta2", chain.eta2, "V m^3/C^2"),
               _kv("miller_Q", chain.Q, "V m^3/C^2"),
               _kv("q_eff", chain.q_eff, "m^2/C"),
               _kv("abs_q_eff", abs(chain.q_eff), "m^2/C")]


# --------------------------------------------------------------------- field

def _cmd_field(args) -> tuple[int, list[str]]:
    geom = PumpGeometry(power=args.power, mfd=args.mfd, n_mode=args.n_mode)
    field = peak_field_from_power(geom)
    intensity = peak_intensity(args.power, args.mfd)
    lines = [_kv("peak_field", field, "V/m"), _kv("peak_intensity", intensity, "W/m^2")]
    if args.material:
        m = _resolve_db(args).get(args.material)
        lines += [_kv("damage_threshold", m.damage_threshold, "W/m^2"),
                  _kv("damage_limited_power", damage_limited_power(m, args.mfd), "W"),
                  _kv("intensity_over_threshold", _over_threshold(intensity, m))]
    return 0, lines


# --------------------------------------------------------------- sweep-power

def _cmd_sweep_power(args) -> tuple[int, list[str]]:
    m, bands = _material_and_bands(args)
    powers = _grid(args, "--pmin", "--pmax", "--points", log=args.log)
    benchmark = (CouplingBenchmark(args.g0_ref, "user-supplied benchmark")
                 if args.g0_ref is not None else _BENCHMARKS[args.benchmark])
    report = power_sweep(m, bands, powers, args.mfd, args.n_mode,
                         benchmark=benchmark, p_nominal=args.p_nominal)
    if args.csv:
        return 0, report.to_csv().splitlines()
    return 0, [_kv("q_eff", report.chain.q_eff, "m^2/C"),
               _kv("p_nominal", report.p_nominal),
               f"benchmark: {report.benchmark.label} "
               f"(g0_ref = {report.benchmark.g0_ref!r} rad/s)",
               *(f"note: {note}" for note in report.notes),
               "  ".join(f"{name:>24s}" for name in SweepRow._fields),
               *("  ".join(f"{v:>24.9e}" for v in vars(r).values()) for r in report.rows)]


# ---------------------------------------------------------------- phasematch

def _cmd_phasematch(args) -> tuple[int, list[str]]:
    from .phasematch import PhaseMatchInput, delta_k, sweep, sweep_to_csv
    m, bands = _material_and_bands(args)
    pm_in = PhaseMatchInput(bands=bands, material=m, length=args.length,
                            poling_period=args.poling_period,
                            poling_sign=args.poling_sign)
    if args.sweep:
        if args.sweep_start is None or args.sweep_stop is None:
            raise ValueError("--sweep requires --sweep-start and --sweep-stop")
        rows = sweep(pm_in, args.sweep,
                     _grid(args, "--sweep-start", "--sweep-stop", "--sweep-points"))
        if args.csv:
            return 0, sweep_to_csv(rows).splitlines()
        return 0, [f"sweep over {args.sweep}",
                   f"{'value':>16s} {'delta_k_rad_per_m':>24s} {'efficiency':>14s}",
                   *(f"{v:>16.9e} {r.delta_k:>24.9e} {r.efficiency:>14.6e}"
                     for v, r in rows)]
    res = delta_k(pm_in)
    lines = [_kv(name, getattr(res, name), "rad/m")
             for name in ("k_t", "k_p1", "k_p2", "k_m", "k_poling", "delta_k")]
    lines.append(_kv("efficiency", res.efficiency))
    if args.three_wave:
        lines += _three_wave_lines(pm_in, args.pump_choice)
    return 0, lines


def _three_wave_lines(pm_in: PhaseMatchInput, pump_choice: int) -> list[str]:
    from .phasematch import three_wave_residual
    tw = three_wave_residual(pm_in, pump_choice=pump_choice)
    lines = [_kv("delta_k_3wm", tw.delta_k_3wm, "rad/m"),
             _kv("suppression_3wm", tw.suppression)]
    if tw.phase_matched:
        lines.append("warning: three-wave channel is phase matched too "
                     "(degenerate configuration)")
    return lines


# -------------------------------------------------------------------- poling

def _cmd_poling(args) -> tuple[int, list[str]]:
    from .phasematch import PhaseMatchInput, delta_k, poling_period
    m, bands = _material_and_bands(args)
    pm_in = PhaseMatchInput(bands=bands, material=m, length=args.length)
    unpoled = _kv("delta_k_unpoled", delta_k(pm_in).delta_k, "rad/m")
    solved = poling_period(pm_in)
    if solved is None:
        return 0, [unpoled, "no poling needed: process is already phase matched"]
    lam, sign = solved
    poled = pm_in.replace(poling_period=lam, poling_sign=sign)
    res = delta_k(poled)
    return 0, [unpoled, _kv("poling_period", lam, "m"), _kv("poling_sign", float(sign)),
               _kv("delta_k_poled", res.delta_k, "rad/m"),
               _kv("efficiency", res.efficiency),
               *_three_wave_lines(poled, args.pump_choice)]


# -------------------------------------------------------------- verify-thermo

def _cmd_verify_thermo(args) -> tuple[int, list[str]]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0 <= 2.0 * args.coef_range < math.inf:
        raise ValueError("--coef-range must be >= 0 with a finite span, "
                         f"got {args.coef_range}")
    import numpy as np
    from .thermo import (_RUNGS, FreeEnergyModel, RelationReport, VectorFreeEnergyModel,
                         _nan_first, efield_of, stress_of, verify_relations,
                         verify_relations_pair, verify_relations_vector)
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(_RUNGS, 0.0)
    for _ in range(args.trials):
        # Python floats: an overflow gives inf or NaN (and a FAIL), not a
        # numpy RuntimeWarning on stderr.
        coefs = rng.uniform(-args.coef_range, args.coef_range, size=6).tolist()
        rep = verify_relations(FreeEnergyModel(*coefs), tol=args.tol)
        for name in _RUNGS:
            worst[name] = max(worst[name], getattr(rep, f"{name}_residual"),
                              key=_nan_first)
    # The worst residuals (NaN first, from 0.0) pass exactly when every
    # trial passed, by the report's one rule.
    verdict = RelationReport(*worst.values(), args.tol)
    lines = [f"{args.trials} random scalar models, coefficients in "
             f"[-{args.coef_range:g}, {args.coef_range:g}], tol {args.tol:g}",
             f"{'relation':>10s} {'worst residual':>16s} {'status':>8s}",
             *(f"{name:>10s} {worst[name]:>16.6e} "
               f"{'PASS' if getattr(verdict, f'{name}_passed') else 'FAIL':>8s}"
               for name in _RUNGS)]

    coefs = rng.uniform(-args.coef_range, args.coef_range, size=(2, 6))
    vec = VectorFreeEnergyModel(c=coefs[0, 0], h=coefs[:, 1], eta1=rng.uniform(-10, 10, (2, 2)),
                                eta2=rng.uniform(-10, 10, (2, 2, 2)),
                                p=rng.uniform(-10, 10, (2, 2)),
                                q=rng.uniform(-10, 10, (2, 2, 2)))
    vrep = verify_relations_vector(vec, tol=args.tol)
    vworst = max((getattr(vrep, f"{name}_residual") for name in _RUNGS), key=_nan_first)
    lines.append(f"two-component spot check: worst residual {vworst:.6e} "
                 f"{'PASS' if vrep.all_passed else 'FAIL'}")
    ok = verdict.all_passed and vrep.all_passed

    if args.adversarial:
        m1 = FreeEnergyModel(c=1.0, h=1.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        m2 = FreeEnergyModel(c=1.0, h=2.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        rep = verify_relations_pair(
            lambda x, D: stress_of(m1, x, D),
            lambda x, D: efield_of(m2, x, D), tol=args.tol)
        lines.append(f"adversarial two-model fixture: order1 residual "
                     f"{rep.order1_residual:.6e} "
                     f"{'detected' if not rep.order1_passed else 'NOT DETECTED'}")
        ok = ok and not rep.order1_passed
    return (0 if ok else 1), lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduce", usage=_USAGE,
        description="Design calculations for optomechanical four-wave-mixing "
                    "transduction: second-order photoelasticity via Miller's "
                    "rule, pump-power scaling of the virtual photoelasticity, "
                    "quasi-phase-matching, and Maxwell-relation verification.")
    parser.add_argument("--version", action="version", version=__version__)
    # Each subcommand's prog is "transduce <name>", not the usage above.
    sub = parser.add_subparsers(dest="command", required=True, prog="transduce")

    p = sub.add_parser("materials", help="list or show database entries")
    _add_db_flag(p)
    p.add_argument("--show", help="print one material entry as JSON")
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("estimate-q",
                       help="effective second-order photoelasticity chain")
    _add_band_flags(p)
    p.add_argument("--qpm", action="store_true",
                   help="apply the 2/(n pi) d_eff reduction for an active poling")
    p.set_defaults(func=_cmd_estimate_q)

    p = sub.add_parser("field", help="pump field and intensity from power")
    _add_db_flag(p)
    p.add_argument("--power", type=float, required=True, help="pump power in W")
    p.add_argument("--mfd", type=float, required=True,
                   help="mode-field diameter in meters")
    p.add_argument("--n-mode", type=float, required=True, help="modal index")
    p.add_argument("--material", help="include damage margin for this material")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("sweep-power", usage=_SWEEP_POWER_USAGE,
                       help="virtual photoelasticity and scalings vs. power")
    _add_band_flags(p)
    p.add_argument("--mfd", type=float, required=True)
    p.add_argument("--n-mode", type=float, required=True)
    p.add_argument("--pmin", type=float, required=True, help="lowest power (W)")
    p.add_argument("--pmax", type=float, required=True, help="highest power (W)")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--log", action="store_true", help="logarithmic power grid")
    p.add_argument("--benchmark", choices=_BENCHMARKS, default="piezo",
                   help="published coupling benchmark for the g_scaled column")
    p.add_argument("--g0-ref", type=float,
                   help="override benchmark coupling (rad/s)")
    p.add_argument("--p-nominal", type=float,
                   help="override the nominal photoelasticity yardstick")
    p.add_argument("--csv", action="store_true", help="emit CSV on stdout")
    p.set_defaults(func=_cmd_sweep_power)

    p = sub.add_parser("phasematch", help="wavevector mismatch and efficiency")
    _add_band_flags(p)
    p.add_argument("--length", type=float, required=True,
                   help="interaction length in meters")
    p.add_argument("--poling-period", type=float)
    p.add_argument("--poling-sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--three-wave", action="store_true",
                   help="also report the competing three-wave channel")
    p.add_argument("--pump-choice", type=int, choices=(1, 2), default=1)
    p.add_argument("--sweep", choices=("pump-wavelength", "poling-period"))
    p.add_argument("--sweep-start", type=float)
    p.add_argument("--sweep-stop", type=float)
    p.add_argument("--sweep-points", type=int, default=50)
    p.add_argument("--csv", action="store_true", help="emit sweep as CSV")
    p.set_defaults(func=_cmd_phasematch)

    p = sub.add_parser("poling",
                       help="solve the poling period and check the 3WM channel")
    _add_band_flags(p)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--pump-choice", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=_cmd_poling)

    p = sub.add_parser("verify-thermo",
                       help="certify the Maxwell-relation ladder numerically")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--coef-range", type=float, default=10.0)
    p.add_argument("--adversarial", action="store_true",
                   help="also show that a broken (two-model) pair is detected")
    p.set_defaults(func=_cmd_verify_thermo)

    return parser


def main(argv=None) -> int:
    """Run one command and write its output: all of its lines once it has
    returned, or, if it raised, only ``error: ...`` on stderr (exit 1)."""
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
    except (TransduceError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
