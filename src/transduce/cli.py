"""Command-line interface.

Subcommands expose the estimation chain (estimate-q, field, sweep-power),
phase-matching design (phasematch, poling), the material database
(materials), and the thermodynamic verifier (verify-thermo) as deterministic
batch commands.  Optical bands are given as vacuum wavelengths in meters and
the phonon in GHz; everything is converted to angular frequencies internally.

Exit codes: 0 success, 1 data/range/validation failure, 2 usage error.
The database is resolved from --db, then the TRANSDUCE_DB environment
variable, then the bundled default.  Values printed as ``name = value`` use
full float precision (repr), so they are bit-identical to the corresponding
library call; wide sweep tables are formatted to 9 significant digits and
--csv switches to full-precision CSV.

numpy is imported inside the array commands only (sweep-power, phasematch
--sweep, verify-thermo); the single-point commands run on Python floats, so
this module and its imports must not import numpy at module level.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from . import __version__
from .errors import TransduceError
from .estimator import (CouplingBenchmark, MixingBands,
                        OPTOMECHANICAL_CRYSTAL_BENCHMARK,
                        PIEZO_OPTOMECHANICAL_BENCHMARK, PumpGeometry,
                        SweepRow, damage_limited_power, peak_field_from_power,
                        peak_intensity, power_sweep,
                        second_order_photoelasticity)
from .materials import MaterialDb, default_db, dumps_materials, load_materials
from .phasematch import (PhaseMatchInput, delta_k, poling_period, sweep,
                         sweep_to_csv, three_wave_residual)
from .thermo import (FreeEnergyModel, VectorFreeEnergyModel, _nan_first,
                     efield_of, stress_of, verify_relations,
                     verify_relations_pair, verify_relations_vector)

ENV_DB = "TRANSDUCE_DB"


def _resolve_db(args) -> MaterialDb:
    path = getattr(args, "db", None) or os.environ.get(ENV_DB)
    if path:
        return load_materials(path)
    return default_db()


def _bands_from_args(args) -> MixingBands:
    try:
        axes = tuple(int(a) for a in args.axes.split(","))
    except ValueError:
        raise ValueError("--axes must be comma-separated integers, "
                         f"got {args.axes!r}") from None
    return MixingBands.from_vacuum_wavelengths(
        args.pump1, args.pump2, args.phonon_ghz * 1e9,
        axes=axes, acoustic_mode=args.acoustic_mode,
        strain_voigt=args.strain_voigt)


def _kv(name: str, value, unit: str = "") -> None:
    suffix = f"  [{unit}]" if unit else ""
    print(f"{name} = {value!r}{suffix}" if isinstance(value, float)
          else f"{name} = {value}{suffix}")


def _add_db_flag(p) -> None:
    p.add_argument("--db", help="material database file (overrides "
                                f"${ENV_DB} and the bundled default)")


def _add_band_flags(p) -> None:
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

def _cmd_materials(args) -> int:
    db = _resolve_db(args)
    if args.show:
        m = db.get(args.show)
        single = MaterialDb(materials={m.name: m}, source_version=db.source_version)
        print(dumps_materials(single))
        return 0
    for name in db.names():
        m = db.get(name)
        lo, hi = m.dispersion.valid_range_m
        print(f"{name}: dispersion {m.dispersion.kind} over "
              f"[{lo:.4g}, {hi:.4g}] m, d_eff {m.d_eff:.4g} m/V, "
              f"damage {m.damage_threshold:.4g} W/m^2, "
              f"modes {sorted(m.v_sound) or '-'}")
    return 0


# ---------------------------------------------------------------- estimate-q

def _cmd_estimate_q(args) -> int:
    db = _resolve_db(args)
    m = db.get(args.material)
    bands = _bands_from_args(args)
    chain = second_order_photoelasticity(m, bands, apply_qpm_reduction=args.qpm)
    _kv("omega_p1", bands.omega_p1, "rad/s")
    _kv("omega_p2", bands.omega_p2, "rad/s")
    _kv("omega_m", bands.omega_m, "rad/s")
    _kv("omega_t", bands.omega_t, "rad/s")
    for i, label in enumerate(("pump1", "pump2", "output")):
        _kv(f"n_{label}", chain.n_bands[i])
        _kv(f"eta1_rel_{label}", chain.eta1_rel_bands[i])
        _kv(f"p_{label}", chain.p_entries[i])
    _kv("d_eff", chain.d_eff, "m/V")
    _kv("eta2", chain.eta2, "V m^3/C^2")
    _kv("miller_Q", chain.Q, "V m^3/C^2")
    _kv("q_eff", chain.q_eff, "m^2/C")
    _kv("abs_q_eff", abs(chain.q_eff), "m^2/C")
    return 0


# --------------------------------------------------------------------- field

def _cmd_field(args) -> int:
    geom = PumpGeometry(power=args.power, mfd=args.mfd, n_mode=args.n_mode)
    _kv("peak_field", peak_field_from_power(geom), "V/m")
    _kv("peak_intensity", peak_intensity(args.power, args.mfd), "W/m^2")
    if args.material:
        db = _resolve_db(args)
        m = db.get(args.material)
        p_max = damage_limited_power(m, args.mfd)
        _kv("damage_threshold", m.damage_threshold, "W/m^2")
        _kv("damage_limited_power", p_max, "W")
        _kv("intensity_over_threshold",
            peak_intensity(args.power, args.mfd) / m.damage_threshold)
    return 0


# --------------------------------------------------------------- sweep-power

def _cmd_sweep_power(args) -> int:
    import numpy as np
    db = _resolve_db(args)
    m = db.get(args.material)
    bands = _bands_from_args(args)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if args.log:
        if args.pmin <= 0:
            raise ValueError("--log requires a positive --pmin")
        powers = np.geomspace(args.pmin, args.pmax, args.points)
    else:
        powers = np.linspace(args.pmin, args.pmax, args.points)
    benchmark = (CouplingBenchmark(args.g0_ref, "user-supplied benchmark")
                 if args.g0_ref is not None else
                 (OPTOMECHANICAL_CRYSTAL_BENCHMARK if args.benchmark == "crystal"
                  else PIEZO_OPTOMECHANICAL_BENCHMARK))
    report = power_sweep(m, bands, powers, args.mfd, args.n_mode,
                         benchmark=benchmark, p_nominal=args.p_nominal)
    if args.csv:
        sys.stdout.write(report.to_csv())
        return 0
    _kv("q_eff", report.chain.q_eff, "m^2/C")
    _kv("p_nominal", report.p_nominal)
    print(f"benchmark: {report.benchmark.label} "
          f"(g0_ref = {report.benchmark.g0_ref!r} rad/s)")
    for note in report.notes:
        print(f"note: {note}")
    print("  ".join(f"{f.name:>24s}" for f in fields(SweepRow)))
    for r in report.rows:
        print("  ".join(f"{v:>24.9e}" for v in vars(r).values()))
    return 0


# ---------------------------------------------------------------- phasematch

def _cmd_phasematch(args) -> int:
    db = _resolve_db(args)
    m = db.get(args.material)
    bands = _bands_from_args(args)
    pm_in = PhaseMatchInput(bands=bands, material=m, length=args.length,
                            poling_period=args.poling_period,
                            poling_sign=args.poling_sign)
    if args.sweep:
        if args.sweep_start is None or args.sweep_stop is None:
            raise ValueError("--sweep requires --sweep-start and --sweep-stop")
        if args.sweep_points < 1:
            raise ValueError("--sweep-points must be >= 1")
        import numpy as np
        values = np.linspace(args.sweep_start, args.sweep_stop, args.sweep_points)
        rows = sweep(pm_in, args.sweep, values)
        if args.csv:
            sys.stdout.write(sweep_to_csv(rows))
        else:
            print(f"sweep over {args.sweep}")
            print(f"{'value':>16s} {'delta_k_rad_per_m':>24s} {'efficiency':>14s}")
            for v, r in rows:
                print(f"{v:>16.9e} {r.delta_k:>24.9e} {r.efficiency:>14.6e}")
        return 0
    res = delta_k(pm_in)
    _kv("k_t", res.k_t, "rad/m")
    _kv("k_p1", res.k_p1, "rad/m")
    _kv("k_p2", res.k_p2, "rad/m")
    _kv("k_m", res.k_m, "rad/m")
    _kv("k_poling", res.k_poling, "rad/m")
    _kv("delta_k", res.delta_k, "rad/m")
    _kv("efficiency", res.efficiency)
    if args.three_wave:
        _print_three_wave(pm_in, args.pump_choice)
    return 0


def _print_three_wave(pm_in: PhaseMatchInput, pump_choice: int) -> None:
    tw = three_wave_residual(pm_in, pump_choice=pump_choice)
    _kv("delta_k_3wm", tw.delta_k_3wm, "rad/m")
    _kv("suppression_3wm", tw.suppression)
    if tw.phase_matched:
        print("warning: three-wave channel is phase matched too "
              "(degenerate configuration)")


# -------------------------------------------------------------------- poling

def _cmd_poling(args) -> int:
    db = _resolve_db(args)
    m = db.get(args.material)
    bands = _bands_from_args(args)
    pm_in = PhaseMatchInput(bands=bands, material=m, length=args.length)
    unpoled = delta_k(pm_in)
    _kv("delta_k_unpoled", unpoled.delta_k, "rad/m")
    solved = poling_period(pm_in)
    if solved is None:
        print("no poling needed: process is already phase matched")
        return 0
    lam, sign = solved
    _kv("poling_period", lam, "m")
    _kv("poling_sign", float(sign))
    poled = PhaseMatchInput(bands=bands, material=m, length=args.length,
                            poling_period=lam, poling_sign=sign)
    res = delta_k(poled)
    _kv("delta_k_poled", res.delta_k, "rad/m")
    _kv("efficiency", res.efficiency)
    _print_three_wave(poled, args.pump_choice)
    return 0


# -------------------------------------------------------------- verify-thermo

def _cmd_verify_thermo(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0 <= 2.0 * args.coef_range < math.inf:
        raise ValueError("--coef-range must be >= 0 with a finite span, "
                         f"got {args.coef_range}")
    import numpy as np
    rng = np.random.default_rng(args.seed)
    worst = {"order1": 0.0, "order2": 0.0, "order3": 0.0, "factor2": 0.0}
    for _ in range(args.trials):
        # Python floats: an overflow gives inf or NaN (and a FAIL), not a
        # numpy RuntimeWarning on stderr.
        coefs = rng.uniform(-args.coef_range, args.coef_range, size=6).tolist()
        rep = verify_relations(FreeEnergyModel(*coefs), tol=args.tol)
        for name in worst:
            worst[name] = max(worst[name], getattr(rep, f"{name}_residual"),
                              key=_nan_first)
    print(f"{args.trials} random scalar models, coefficients in "
          f"[-{args.coef_range:g}, {args.coef_range:g}], tol {args.tol:g}")
    print(f"{'relation':>10s} {'worst residual':>16s} {'status':>8s}")
    ok = True
    for name in ("order1", "order2", "order3", "factor2"):
        passed = worst[name] < args.tol
        ok = ok and passed
        print(f"{name:>10s} {worst[name]:>16.6e} {'PASS' if passed else 'FAIL':>8s}")

    coefs = rng.uniform(-args.coef_range, args.coef_range, size=(2, 6))
    vec = VectorFreeEnergyModel(c=coefs[0, 0], h=coefs[:, 1], eta1=rng.uniform(-10, 10, (2, 2)),
                                eta2=rng.uniform(-10, 10, (2, 2, 2)),
                                p=rng.uniform(-10, 10, (2, 2)),
                                q=rng.uniform(-10, 10, (2, 2, 2)))
    vrep = verify_relations_vector(vec, tol=args.tol)
    vworst = max(vrep.order1_residual, vrep.order2_residual,
                 vrep.order3_residual, vrep.factor2_residual, key=_nan_first)
    print(f"two-component spot check: worst residual {vworst:.6e} "
          f"{'PASS' if vrep.all_passed else 'FAIL'}")
    ok = ok and vrep.all_passed

    if args.adversarial:
        m1 = FreeEnergyModel(c=1.0, h=1.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        m2 = FreeEnergyModel(c=1.0, h=2.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        rep = verify_relations_pair(
            lambda x, D: stress_of(m1, x, D),
            lambda x, D: efield_of(m2, x, D), tol=args.tol)
        print(f"adversarial two-model fixture: order1 residual "
              f"{rep.order1_residual:.6e} "
              f"{'detected' if not rep.order1_passed else 'NOT DETECTED'}")
        ok = ok and not rep.order1_passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduce",
        description="Design calculations for optomechanical four-wave-mixing "
                    "transduction: second-order photoelasticity via Miller's "
                    "rule, pump-power scaling of the virtual photoelasticity, "
                    "quasi-phase-matching, and Maxwell-relation verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materials", help="list or show database entries")
    _add_db_flag(p)
    p.add_argument("--show", help="print one material entry as JSON")
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("estimate-q",
                       help="effective second-order photoelasticity chain")
    _add_db_flag(p)
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

    p = sub.add_parser("sweep-power",
                       help="virtual photoelasticity and scalings vs. power")
    _add_db_flag(p)
    _add_band_flags(p)
    p.add_argument("--mfd", type=float, required=True)
    p.add_argument("--n-mode", type=float, required=True)
    p.add_argument("--pmin", type=float, required=True, help="lowest power (W)")
    p.add_argument("--pmax", type=float, required=True, help="highest power (W)")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--log", action="store_true", help="logarithmic power grid")
    p.add_argument("--benchmark", choices=("piezo", "crystal"), default="piezo",
                   help="published coupling benchmark for the g_scaled column")
    p.add_argument("--g0-ref", type=float,
                   help="override benchmark coupling (rad/s)")
    p.add_argument("--p-nominal", type=float,
                   help="override the nominal photoelasticity yardstick")
    p.add_argument("--csv", action="store_true", help="emit CSV on stdout")
    p.set_defaults(func=_cmd_sweep_power)

    p = sub.add_parser("phasematch", help="wavevector mismatch and efficiency")
    _add_db_flag(p)
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
    _add_db_flag(p)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TransduceError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
