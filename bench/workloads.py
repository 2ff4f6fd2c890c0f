"""The four workloads: one request at a time, each output checked.

A workload turns seeded inputs from ``gen.py`` into requests, runs one
request (``run``; the only timed call), counts its grid points and checks its
output (``check``, outside the timed region).  The checks use oracles written
here from the closed forms, not the library, except for the CLI, whose
contract is that every printed ``name = value`` is the ``repr`` of the same
library call.  Library calls go through the ``transduce`` package namespace,
so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
import transduce as T
import transduce.cli

EPS0 = 8.8541878128e-12
C_LIGHT = 2.99792458e8
TWO_PI = 2.0 * math.pi
REL = 1e-12
# |delta_k L / 2| at which sinc^2 falls to one half (Fejer et al. 1992).
SINC2_HALF = 1.39156

# Goldens of the BaTiO3 worked point, with their tolerances (README).
GOLDEN = {"q_eff": (2.45e-2, 0.02), "field": (7.68e5, 0.01),
          "intensity": (88.4e3 * 1e4, 0.01), "damage_power": (6.11, 0.02),
          "p_virt_coeff": (7.35e-13, 0.02), "sqrt_law": (1.787e-5, 0.02)}


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _close(what: str, got: float, want: float, rel: float = REL) -> str | None:
    if _rel(got, want) <= rel:
        return None
    return f"{what}: got {got!r}, oracle {want!r} (rel {rel:g})"


def _near(what: str, got: float, want: float, scale: float) -> str | None:
    """Within REL of ``scale``, the magnitude of the terms summed into ``want``."""
    if abs(got - want) <= REL * scale:
        return None
    return f"{what}: got {got!r}, oracle {want!r} (within {REL:g} x {scale!r})"


def _golden(what: str, got: float) -> str | None:
    want, rel = GOLDEN[what]
    return None if abs(abs(got) - want) <= rel * want else (
        f"worked point {what}: |{got!r}| not within {rel:g} of {want!r}")


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


class Physics:
    """Closed-form oracles over the generated database parameters."""

    def __init__(self, doc: dict):
        self.index = gen.IndexOracle(doc)
        self.mats = {m["name"]: m for m in doc["materials"]}

    def omegas(self, l1: float, l2: float, ghz: float):
        w1, w2, wm = TWO_PI * C_LIGHT / l1, TWO_PI * C_LIGHT / l2, TWO_PI * ghz * 1e9
        return w1, w2, wm, w1 + w2 + wm

    def k(self, name: str, omega: float, axis: int) -> float:
        return self.index(name, TWO_PI * C_LIGHT / omega, axis) * omega / C_LIGHT

    def k_m(self, name: str, omega_m: float) -> float:
        return omega_m / self.mats[name]["v_sound_m_per_s"]["longitudinal"]

    def q_eff(self, name: str, l1: float, l2: float, ghz: float, axes) -> tuple[float, float]:
        """q_eff and the magnitude scale of its summed terms.

        The three photoelastic terms can nearly cancel, and a one-ulp
        difference in an index then moves q_eff by far more than 1e-12 of
        itself, so q_eff is compared against the scale of its terms.
        """
        m = self.mats[name]
        w1, w2, _, wt = self.omegas(l1, l2, ghz)
        ns = [self.index(name, TWO_PI * C_LIGHT / w, a)
              for w, a in zip((w1, w2, wt), axes)]
        # Diagonal optical pairs pack to Voigt index == axis; strain column 2.
        ps = [m["photoelastic"]["entries"][a][2] for a in axes]
        terms = [p / (1.0 - 1.0 / (n * n)) for p, n in zip(ps, ns)]
        pre = -(2.0 * m["d_eff_m_per_v"] / (EPS0 * math.prod(n * n for n in ns)))
        return pre * sum(terms), abs(pre) * sum(map(abs, terms))

    def delta_k(self, name: str, l1: float, l2: float, ghz: float, axes) -> tuple[float, float]:
        """Unpoled four-wave mismatch and the magnitude scale of its terms."""
        w1, w2, wm, wt = self.omegas(l1, l2, ghz)
        terms = (self.k(name, wt, axes[2]), self.k(name, w1, axes[0]),
                 self.k(name, w2, axes[1]), self.k_m(name, wm))
        return terms[0] - terms[1] - terms[2] - terms[3], sum(map(abs, terms))

    def delta_k_3wm(self, name: str, l1: float, l2: float, ghz: float, axes,
                    pump: int, k_pol: float) -> tuple[float, float]:
        w1, w2, wm, _ = self.omegas(l1, l2, ghz)
        wp, ap = (w1, axes[0]) if pump == 1 else (w2, axes[1])
        terms = (self.k(name, wp + wm, axes[2]), self.k(name, wp, ap),
                 self.k_m(name, wm), k_pol)
        return terms[0] - terms[1] - terms[2] - terms[3], sum(map(abs, terms))


def _bands(req: dict):
    return T.MixingBands.from_vacuum_wavelengths(
        req["l1"], req["l2"], req["ghz"] * 1e9, axes=req["axes"])


class Workload:
    """Common shape: warm-up requests, timed batches, a fixed traced sample."""

    name = ""

    def __init__(self, seed: int, db_path: Path, doc: dict):
        self.seed = seed
        self.db_path = db_path
        self.doc = doc
        self.db = T.load_materials(db_path)
        self.phys = Physics(doc)

    def points(self, req: dict) -> int:
        return 1


# ------------------------------------------------------------ design_points

class DesignPoints(Workload):
    """One single-point design per request: chain, pump, poling, 3WM."""

    name = "design_points"
    BATCH = 1000

    def warmup(self) -> list[dict]:
        stream = gen.design_requests(self.seed + 1_000_003, self.doc, self.phys.index)
        return [dict(gen.WORKED_POINT, worked=True)] + [next(stream) for _ in range(200)]

    def batches(self):
        stream = gen.design_requests(self.seed, self.doc, self.phys.index)
        while True:
            yield [next(stream) for _ in range(self.BATCH)]

    def trace_sample(self) -> list[dict]:
        stream = gen.design_requests(self.seed, self.doc, self.phys.index)
        return [next(stream) for _ in range(2000)]

    def run(self, req: dict):
        m = self.db.get(req["material"])
        bands = _bands(req)
        chain = T.second_order_photoelasticity(m, bands)
        field = T.peak_field_from_power(T.PumpGeometry(req["power"], req["mfd"], req["n_mode"]))
        intensity = T.peak_intensity(req["power"], req["mfd"])
        p_virt = T.virtual_photoelasticity(chain.q_eff, m.eps_r[bands.axes[2]], field)
        p_damage = T.damage_limited_power(m, req["mfd"])
        pm_in = T.PhaseMatchInput(bands=bands, material=m, length=req["length"])
        unpoled = T.delta_k(pm_in)
        period, sign = T.poling_period(pm_in)
        poled_in = T.PhaseMatchInput(bands=bands, material=m, length=req["length"],
                                     poling_period=period, poling_sign=sign)
        poled = T.delta_k(poled_in)
        three = (T.three_wave_residual(poled_in, 1), T.three_wave_residual(poled_in, 2))
        return chain, field, intensity, p_virt, p_damage, unpoled, period, sign, poled, three

    def check(self, req: dict, out) -> str | None:
        if req["expect_error"]:
            return None if isinstance(out, T.RangeError) else (
                f"pump {req['l1']!r} m outside the window: expected RangeError, got {out!r}")
        if isinstance(out, BaseException):
            return f"unexpected {type(out).__name__}: {out}"
        chain, field, intensity, p_virt, p_damage, unpoled, period, sign, poled, three = out
        ph, mat = self.phys, self.phys.mats[req["material"]]
        power, mfd, axes = req["power"], req["mfd"], req["axes"]
        area = math.pi * (mfd / 2.0) ** 2
        q, q_scale = ph.q_eff(req["material"], req["l1"], req["l2"], req["ghz"], axes)
        e = math.sqrt(16.0 * power / (req["n_mode"] * math.pi * EPS0 * C_LIGHT * mfd * mfd))
        p_factor = (2.0 / 3.0) * EPS0 * mat["eps_r"][axes[2]] * e
        dk0, scale = ph.delta_k(req["material"], req["l1"], req["l2"], req["ghz"], axes)
        problem = _first(
            _near("q_eff", chain.q_eff, q, q_scale),
            _close("|E|", field, e),
            _close("intensity", intensity, power / area),
            _near("p_virt", p_virt, p_factor * q, p_factor * q_scale),
            _close("damage power", p_damage, mat["damage_threshold_w_per_m2"] * area),
            _near("unpoled delta_k", unpoled.delta_k, dk0, scale),
            None if abs(poled.delta_k) <= 1e-9 * abs(unpoled.delta_k) else
            f"poled |delta_k| {abs(poled.delta_k)!r} above 1e-9 x unpoled",
            None if sign == (1 if dk0 > 0 else -1) else f"poling sign {sign}")
        if problem:
            return problem
        k_pol = sign * TWO_PI / period
        for pump, tw in enumerate(three, start=1):
            dk3, scale3 = ph.delta_k_3wm(req["material"], req["l1"], req["l2"],
                                         req["ghz"], axes, pump, k_pol)
            if abs(tw.delta_k_3wm - dk3) > REL * scale3 or not 0.0 <= tw.suppression <= 1.0:
                return f"three-wave pump {pump}: delta_k {tw.delta_k_3wm!r} vs oracle {dk3!r}"
        if req.get("worked"):
            return _first(_golden("q_eff", chain.q_eff), _golden("field", field),
                          _golden("intensity", intensity),
                          _golden("damage_power", p_damage),
                          _golden("p_virt_coeff", p_virt / field))
        return None


# ------------------------------------------------------------- grid_sweeps

class GridSweeps(Workload):
    """One sweep call per request: power, pump wavelength or poling period."""

    name = "grid_sweeps"

    def warmup(self) -> list[dict]:
        small = gen.sweep_cycle(self.seed + 1_000_003, 0, self.doc, bands=1)
        return [dict(gen.WORKED_SWEEP, worked=True)] + small

    def batches(self):
        cycle = 0
        while True:
            yield gen.sweep_cycle(self.seed, cycle, self.doc)
            cycle += 1

    def trace_sample(self) -> list[dict]:
        return gen.sweep_cycle(self.seed, 0, self.doc, bands=4)

    def points(self, req: dict) -> int:
        return req["points"]

    def run(self, req: dict):
        m = self.db.get(req["material"])
        bands = _bands(req)
        n = req["points"]
        if req["kind"] == "power":
            return T.power_sweep(m, bands, np.geomspace(req["pmin"], req["pmax"], n),
                                 req["mfd"], req["n_mode"])
        pm_in = T.PhaseMatchInput(bands=bands, material=m, length=req["length"])
        if req["kind"] == "pump-wavelength":
            lam = req["l1"]
            values = np.linspace(lam - req["span"] / 2, lam + req["span"] / 2, n)
            return T.sweep(pm_in, "pump-wavelength", values)
        period, sign = T.poling_period(pm_in)
        dk0 = TWO_PI / period
        # The interaction length is stretched when needed so that the grid,
        # |delta_k L / 2| <= 6, covers the main lobe at positive periods.
        length = max(req["length"], 40.0 / dk0)
        values = np.linspace(TWO_PI / (dk0 + 12.0 / length),
                             TWO_PI / (dk0 - 12.0 / length), n)
        probe = T.PhaseMatchInput(bands=bands, material=m, length=length,
                                  poling_sign=sign)
        return dk0, length, T.sweep(probe, "poling-period", values)

    def check(self, req: dict, out) -> str | None:
        if isinstance(out, BaseException):
            return f"{req['kind']} sweep: unexpected {type(out).__name__}: {out}"
        ph, name = self.phys, req["material"]
        if req["kind"] == "power":
            rows = out.rows
            if len(rows) != req["points"]:
                return f"power sweep: {len(rows)} rows for {req['points']} points"
            ratio = rows[0].p_virt / math.sqrt(rows[0].power_w)
            for r in rows:
                if _rel(r.p_virt / math.sqrt(r.power_w), ratio) > REL:
                    return f"p_virt/sqrt(P) not constant at P = {r.power_w!r}"
            e = math.sqrt(16.0 * rows[-1].power_w / (
                req["n_mode"] * math.pi * EPS0 * C_LIGHT * req["mfd"] ** 2))
            q, q_scale = ph.q_eff(name, req["l1"], req["l2"], req["ghz"], req["axes"])
            problem = _first(_near("q_eff", out.chain.q_eff, q, q_scale),
                             _close("|E|", rows[-1].peak_field_v_per_m, e))
            if problem or not req.get("worked"):
                return problem
            return _golden("sqrt_law", ratio)
        if req["kind"] == "pump-wavelength":
            if len(out) != req["points"]:
                return f"pump-wavelength sweep: {len(out)} rows"
            for i in (0, len(out) // 2, len(out) - 1):
                lam, res = out[i]
                dk, scale = ph.delta_k(name, lam, lam, req["ghz"], req["axes"])
                if abs(res.delta_k - dk) > REL * scale:
                    return f"pump-wavelength sweep row {i}: {res.delta_k!r} vs oracle {dk!r}"
            return None
        dk0, length, rows = out
        return self._check_lobe(dk0, length, rows)

    @staticmethod
    def _check_lobe(dk0: float, length: float, rows) -> str | None:
        """The sinc^2 main lobe's half-maximum edges, to one grid step."""
        grid = np.array([v for v, _ in rows])
        eff = np.array([r.efficiency for _, r in rows])
        peak = int(np.argmax(eff))
        if eff[peak] < 0.5:
            return f"poling sweep: peak efficiency {eff[peak]!r} below one half"
        lo = peak
        while lo > 0 and eff[lo - 1] >= 0.5:
            lo -= 1
        hi = peak
        while hi < len(eff) - 1 and eff[hi + 1] >= 0.5:
            hi += 1
        if lo == 0 or hi == len(eff) - 1:
            return "poling sweep: main lobe not inside the grid"
        step = grid[1] - grid[0]
        edges = (TWO_PI / (dk0 + 2.0 * SINC2_HALF / length),
                 TWO_PI / (dk0 - 2.0 * SINC2_HALF / length))
        if not (grid[lo - 1] - step <= edges[0] <= grid[lo] + step
                and grid[hi] - step <= edges[1] <= grid[hi + 1] + step):
            return (f"poling sweep: half-maximum edges [{grid[lo]!r}, {grid[hi]!r}] "
                    f"vs oracle [{edges[0]!r}, {edges[1]!r}]")
        return None


# ---------------------------------------------------------- thermo_certify

class ThermoCertify(Workload):
    """One free-energy model per request through the Maxwell-relation verifier."""

    name = "thermo_certify"

    def warmup(self) -> list[dict]:
        return gen.thermo_cycle(self.seed + 1_000_003, 0)

    def batches(self):
        cycle = 0
        while True:
            yield [r for c in range(cycle, cycle + 10) for r in gen.thermo_cycle(self.seed, c)]
            cycle += 10

    def trace_sample(self) -> list[dict]:
        return [r for c in range(20) for r in gen.thermo_cycle(self.seed, c)]

    def run(self, req: dict):
        if req["kind"] == "scalar":
            return T.verify_relations(T.FreeEnergyModel(*req["coefs"]))
        if req["kind"] == "vector":
            return T.verify_relations_vector(T.VectorFreeEnergyModel(
                c=req["c"], h=req["h"], eta1=req["eta1"], eta2=req["eta2"],
                p=req["p"], q=req["q"]))
        m1, m2 = T.FreeEnergyModel(*req["coefs"]), T.FreeEnergyModel(*req["other"])
        return T.verify_relations_pair(lambda x, d: T.stress_of(m1, x, d),
                                       lambda x, d: T.efield_of(m2, x, d))

    def check(self, req: dict, out) -> str | None:
        if isinstance(out, BaseException):
            return f"{req['kind']} model: unexpected {type(out).__name__}: {out}"
        if req["kind"] == "broken":
            return None if not out.order1_passed else (
                f"broken pair passed order 1 (residual {out.order1_residual!r})")
        return None if out.all_passed else f"consistent {req['kind']} model failed: {out.to_dict()}"


# --------------------------------------------------------- cli_invocations

KV = re.compile(r"^(\S+) = (\S+)")


class CliInvocations(Workload):
    """One ``python -m transduce`` subprocess per request."""

    name = "cli_invocations"

    def _argv(self, req: dict) -> list[str]:
        return [str(self.db_path) if a == "DB" else a for a in req["args"]]

    def warmup(self) -> list[dict]:
        worked = gen.cli_call("estimate-q", gen.WORKED_CLI)
        return [dict(worked, worked=True)]

    def batches(self):
        cycle = 0
        while True:
            yield gen.cli_cycle(self.seed, cycle, self.doc, gen.TIMED_CLI_SUBCOMMANDS)
            cycle += 1

    def trace_sample(self) -> list[dict]:
        return [r for c in range(3) for r in gen.cli_cycle(self.seed, c, self.doc)]

    def run(self, req: dict):
        # The worker's environment already points PYTHONPATH at this
        # checkout's library and pins BLAS threads; the child inherits it.
        proc = subprocess.run([sys.executable, "-m", "transduce", *self._argv(req)],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, req: dict):
        """The same request through ``cli.main`` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = T.cli.main(self._argv(req))
        return code, buf.getvalue(), ""

    def check(self, req: dict, out) -> str | None:
        if isinstance(out, BaseException):
            return f"{req['sub']}: {type(out).__name__}: {out}"
        code, stdout, stderr = out
        if code != 0 or "Traceback" in stderr:
            return (f"{' '.join(req['args'])}: exit {code}: "
                    f"{(stderr or stdout).strip()[-300:]!r}")
        if req["sub"] == "verify-thermo":
            ok = (stdout.count("PASS") == 5 and "detected" in stdout
                  and "NOT DETECTED" not in stdout)
            return None if ok else f"verify-thermo: {stdout!r}"
        expected = self.expected(req)
        if expected is None:
            names = [line.split(":")[0] for line in stdout.splitlines()]
            return None if names == self.db.names() else f"materials lists {names}"
        if isinstance(expected, str):
            return None if stdout == expected else f"{req['sub']}: output differs from library"
        got = {m.group(1): m.group(2) for m in map(KV.match, stdout.splitlines()) if m}
        for key, value in expected.items():
            if got.get(key) != repr(value):
                return f"{req['sub']}: {key} = {got.get(key)} vs library {value!r}"
        if req.get("worked"):
            return _golden("q_eff", expected["q_eff"])
        return None

    def expected(self, req: dict):
        """The library's answer: a dict of printed values, or the whole text."""
        sub, p = req["sub"], req["params"]
        if sub == "materials":
            if not p["show"]:
                return None
            m = self.db.get(p["material"])
            return T.dumps_materials(T.MaterialDb({m.name: m})) + "\n"
        if sub == "field":
            m = self.db.get(p["material"])
            geom = T.PumpGeometry(p["power"], p["mfd"], p["n_mode"])
            intensity = T.peak_intensity(p["power"], p["mfd"])
            return {"peak_field": T.peak_field_from_power(geom),
                    "peak_intensity": intensity,
                    "damage_threshold": m.damage_threshold,
                    "damage_limited_power": T.damage_limited_power(m, p["mfd"]),
                    "intensity_over_threshold": intensity / m.damage_threshold}
        m = self.db.get(p["material"])
        bands = _bands(p)
        if sub == "estimate-q":
            c = T.second_order_photoelasticity(m, bands)
            out = {"omega_p1": bands.omega_p1, "omega_p2": bands.omega_p2,
                   "omega_m": bands.omega_m, "omega_t": bands.omega_t,
                   "d_eff": c.d_eff, "eta2": c.eta2, "miller_Q": c.Q,
                   "q_eff": c.q_eff, "abs_q_eff": abs(c.q_eff)}
            for i, label in enumerate(("pump1", "pump2", "output")):
                out.update({f"n_{label}": c.n_bands[i],
                            f"eta1_rel_{label}": c.eta1_rel_bands[i],
                            f"p_{label}": c.p_entries[i]})
            return out
        if sub == "sweep-power":
            return T.power_sweep(m, bands, np.geomspace(1e-4, 0.5, p["points"]),
                                 p["mfd"], p["n_mode"]).to_csv()
        pm_in = T.PhaseMatchInput(bands=bands, material=m, length=p["length"])
        if sub == "phasematch":
            res, tw = T.delta_k(pm_in), T.three_wave_residual(pm_in)
            return {"k_t": res.k_t, "k_p1": res.k_p1, "k_p2": res.k_p2,
                    "k_m": res.k_m, "k_poling": res.k_poling,
                    "delta_k": res.delta_k, "efficiency": res.efficiency,
                    "delta_k_3wm": tw.delta_k_3wm, "suppression_3wm": tw.suppression}
        period, sign = T.poling_period(pm_in)
        poled = T.PhaseMatchInput(bands=bands, material=m, length=p["length"],
                                  poling_period=period, poling_sign=sign)
        res, tw = T.delta_k(poled), T.three_wave_residual(poled)
        return {"delta_k_unpoled": T.delta_k(pm_in).delta_k,
                "poling_period": period, "poling_sign": float(sign),
                "delta_k_poled": res.delta_k, "efficiency": res.efficiency,
                "delta_k_3wm": tw.delta_k_3wm, "suppression_3wm": tw.suppression}


WORKLOADS = {w.name: w for w in (DesignPoints, GridSweeps, ThermoCertify, CliInvocations)}
