"""Run one workload in this process and write its raw result as JSON.

Started by ``run.py`` with numpy/BLAS pinned to one thread.  ``--mode timed``
runs the warm-up requests, then whole batches of requests for at least
``--seconds`` and at least ``MIN_TIMED`` requests, timing each request alone
and checking its output outside the timed region.  ``--mode traced``
runs the workload's fixed traced sample untraced, traced and untraced again,
and turns the spans into the workload's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import transduce as T
from tracing import QUANTITY, Tracer
from workloads import WORKLOADS, CliInvocations

# At least ten requests lie beyond the 90th percentile.
MIN_TIMED = 100
MAX_FAILURES_KEPT = 5
PROBES = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import transduce.cli; "
                "print(time.perf_counter() - t0)")


class EmptyMetric(RuntimeError):
    """A named per-layer metric had nothing to measure."""


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []

    def once(self, req: dict, call=None) -> tuple[float, object]:
        call = call or self.wl.run
        t0 = time.perf_counter()
        try:
            out = call(req)
        except Exception as exc:          # a failed request, judged by check
            out = exc
        dt = time.perf_counter() - t0
        self.attempted += 1
        problem = self.wl.check(req, out)
        if problem:
            self.failures.append(problem)
        return dt, out


def timed(wl, seconds: float) -> dict:
    run = Runner(wl)
    for req in wl.warmup():
        run.once(req)
    # Latencies go into flat arrays, so the record of a run adds little to the
    # peak memory the run reports.
    latencies = array("d")
    start = time.perf_counter()
    for batch in wl.batches():
        for req in batch:
            latencies.append(run.once(req)[0])
        if time.perf_counter() - start >= seconds and len(latencies) >= MIN_TIMED:
            break
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliInvocations) else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    return {"attempted": run.attempted, "failed": len(run.failures),
            "failures": run.failures[:MAX_FAILURES_KEPT],
            "wall_s": time.perf_counter() - start, "latencies": latencies.tolist(),
            "peak_rss_kb": peak_rss_kb}


# ------------------------------------------------------------------ traced

def _median(metric: str, values) -> float:
    values = list(values)
    if not values:
        raise EmptyMetric(f"per-layer metric {metric} is empty: nothing was measured")
    return float(np.median(values))


class Spans:
    """Per-function views of a finished tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.table = tracer.table()

    def of(self, name: str, field: str = "layer_self") -> np.ndarray:
        nid = self.tracer.names.index(name) if name in self.tracer.names else -1
        return self.table[field][self.table["name"] == nid]

    def median_us(self, metric: str, name: str, field: str = "layer_self") -> float:
        return _median(metric, self.of(name, field)) / 1e3

    def per_point_us(self, metric: str, name: str, points: int) -> float:
        total = self.of(name).sum()
        if not points or not total:
            raise EmptyMetric(f"per-layer metric {metric} is empty: nothing was measured")
        return float(total) / points / 1e3


def design_metrics(sp: Spans, requests: list[dict]) -> dict:
    normal = [r for r in requests if not r["expect_error"]]
    idx, dk = "materials.refractive_index", "phasematch.delta_k"
    counts = lambda name: [r["counts"].get(name, 0) for r in normal]
    ratio = lambda name: [r["distinct"][name] / r["counts"][name]
                          for r in normal if r["counts"].get(name)]
    loads = sp.of("materials.load_materials", "dur")
    return {
        "materials.load_ms": _median("materials.load_ms", loads) / 1e6,
        "materials.index.calls_per_request": _median("materials.index.calls_per_request", counts(idx)),
        "materials.index.unique_ratio": _median("materials.index.unique_ratio", ratio(idx)),
        "materials.index.self_us": sp.median_us("materials.index.self_us", idx),
        "units.quantities_per_request": _median("units.quantities_per_request", counts(QUANTITY)),
        "estimator.chain.self_us": sp.median_us(
            "estimator.chain.self_us", "estimator.second_order_photoelasticity"),
        "estimator.field.self_us": sp.median_us(
            "estimator.field.self_us", "estimator.peak_field_from_power"),
        "phasematch.delta_k.calls_per_request": _median("phasematch.delta_k.calls_per_request", counts(dk)),
        "phasematch.delta_k.unique_ratio": _median("phasematch.delta_k.unique_ratio", ratio(dk)),
        "phasematch.delta_k.self_us": sp.median_us("phasematch.delta_k.self_us", dk),
        "phasematch.three_wave.self_us": sp.median_us(
            "phasematch.three_wave.self_us", "phasematch.three_wave_residual"),
    }


def grid_metrics(sp: Spans, requests: list[dict]) -> dict:
    power = sorted((r for r in requests if r["kind"] == "power"), key=lambda r: r["points"])
    if len(power) < 2 or power[0]["points"] == power[-1]["points"]:
        raise EmptyMetric("per-layer metric units.quantities_per_point needs two power sweep sizes")
    # Quantity objects per call are a + b * points; b is the per-point count.
    slope = ((power[-1]["counts"][QUANTITY] - power[0]["counts"][QUANTITY])
             / (power[-1]["points"] - power[0]["points"]))
    pm_points = sum(r["points"] for r in requests if r["kind"] != "power")
    return {
        "units.quantities_per_point": slope,
        "estimator.power_sweep.self_us_per_point": sp.per_point_us(
            "estimator.power_sweep.self_us_per_point", "estimator.power_sweep",
            sum(r["points"] for r in power)),
        "phasematch.sweep.self_us_per_point": sp.per_point_us(
            "phasematch.sweep.self_us_per_point", "phasematch.sweep", pm_points),
    }


def thermo_metrics(sp: Spans, requests: list[dict]) -> dict:
    def evals(kind, suffix):
        return [r["counts"].get(f"thermo.stress_of{suffix}", 0)
                + r["counts"].get(f"thermo.efield_of{suffix}", 0)
                for r in requests if r["kind"] == kind]
    return {
        "thermo.verify.self_us": sp.median_us("thermo.verify.self_us", "thermo.verify_relations"),
        "thermo.verify_vector.self_ms": sp.median_us(
            "thermo.verify_vector.self_ms", "thermo.verify_relations_vector") / 1e3,
        "thermo.field_evals_per_model.scalar": _median(
            "thermo.field_evals_per_model.scalar", evals("scalar", "")),
        "thermo.field_evals_per_model.vector": _median(
            "thermo.field_evals_per_model.vector", evals("vector", "_vector")),
    }


def _probe_ms(argv: list[str], inside: bool) -> float:
    """Median wall time of a fresh process, or of what it prints (seconds)."""
    values = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=60, check=True)
        values.append(float(proc.stdout) if inside else time.perf_counter() - t0)
    return float(np.median(values)) * 1e3


def cli_metrics(sp: Spans, wl: CliInvocations, walls: dict[str, list[float]]) -> dict:
    out = {
        "cli.interpreter_ms": _probe_ms([sys.executable, "-c", "pass"], False),
        "cli.import_ms": _probe_ms([sys.executable, "-c", IMPORT_PROBE], True),
        "cli.parser_ms": sp.median_us("cli.parser_ms", "cli.build_parser", "dur") / 1e3,
        "cli.main.self_ms": sp.median_us("cli.main.self_ms", "cli.main") / 1e3,
    }
    for sub, values in sorted(walls.items()):
        out[f"cli.{sub}.wall_ms"] = _median(f"cli.{sub}.wall_ms", values) * 1e3
    return out


def traced(wl, out_dir: Path) -> dict:
    run = Runner(wl)
    for req in wl.warmup():
        run.once(req)
    sample = wl.trace_sample()
    walls: dict[str, list[float]] = {}
    call = None
    if isinstance(wl, CliInvocations):
        # Subprocess wall times are measured from outside; the in-process
        # cli.main calls on the same arguments are what gets traced.
        for req in sample:
            walls.setdefault(req["sub"], []).append(run.once(req)[0])
        call = wl.run_in_process

    before = [run.once(req, call)[0] for req in sample]
    tracer = Tracer()
    tracer.install()
    try:
        if wl.name == "design_points":
            for _ in range(PROBES):
                T.load_materials(wl.db_path)
        traced_s = []
        for i, req in enumerate(sample):
            tracer.begin_request(i)
            traced_s.append(run.once(req, call)[0])
            tracer.end_request(kind=req.get("kind"), points=wl.points(req),
                               expect_error=req.get("expect_error", False))
    finally:
        tracer.uninstall()
    after = [run.once(req, call)[0] for req in sample]
    # Each request's traced time against its mean untraced time, before and
    # after; the median over requests is robust to the machine's speed
    # switching during one pass, which a ratio of pass totals is not.
    plain = (np.asarray(before) + np.asarray(after)) / 2
    overhead = float(np.median(np.asarray(traced_s) / plain)) - 1.0
    sp = Spans(tracer)
    if wl.name == "design_points":
        metrics = design_metrics(sp, tracer.requests)
    elif wl.name == "grid_sweeps":
        metrics = grid_metrics(sp, tracer.requests)
    elif wl.name == "thermo_certify":
        metrics = thermo_metrics(sp, tracer.requests)
    else:
        metrics = cli_metrics(sp, wl, walls)
    metrics[f"trace.overhead_pct.{wl.name}"] = 100.0 * overhead
    tracer.write_spans(out_dir / f"spans-{wl.name}.jsonl")
    summary = {"workload": wl.name, "requests": len(sample),
               "untraced_s": float(plain.sum()), "traced_s": sum(traced_s),
               "errors": dict(tracer.errors), "metrics": metrics,
               "functions": tracer.function_summary(sp.table)}
    (out_dir / f"summary-{wl.name}.json").write_text(json.dumps(summary, indent=1))
    return {"attempted": run.attempted, "failed": len(run.failures),
            "failures": run.failures[:MAX_FAILURES_KEPT],
            "metrics": metrics, "errors": dict(tracer.errors)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--db", type=Path, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    doc = json.loads(args.db.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, args.db, doc)
    try:
        result = (timed(wl, args.seconds) if args.mode == "timed"
                  else traced(wl, args.out.parent))
    except EmptyMetric as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
