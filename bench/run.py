"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload design_points --seed 1 --seconds 50 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
same checkout; the command fails before measuring anything when it is absent.
A run generates the seeded material database, measures set-up time in fresh
processes, then runs the workload in its own single-threaded worker process
(``worker.py``) and prints every metric by name and unit.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
traced pass of every workload, one worker process each, on a fixed sample
(so ``--seconds`` does not apply), and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw results, spans
and the generated database go to ``bench/out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Every workload runs in the traced pass, and run.py times any of them.
# grid_sweeps and thermo_certify are left out of the timed workloads of
# BENCHMARK.json: their latency percentiles fall in narrow clusters of
# same-cost requests, and they jump from run to run with the speed state of
# a shared CPU, by more than the largest bound allows (README).
WORKLOADS = ("design_points", "grid_sweeps", "thermo_certify", "cli_invocations")
SETUP_PROBES = 10            # half before the workload, half after
WORKER_TIMEOUT_S = 170
SETUP_PROBE = ("import sys, time\n"
               "t0 = time.perf_counter()\n"
               "import transduce\n"
               "transduce.load_materials(sys.argv[1])\n"
               "print(time.perf_counter() - t0)\n")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def worker_env() -> dict[str, str]:
    """Child environment: this checkout's library, one BLAS/OpenMP thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu or platform.processor(),
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def setup_seconds(db_path: Path, env: dict, probes: int) -> list[float]:
    """Import plus database load, each in a fresh process."""
    def probe() -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(db_path)],
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        return float(proc.stdout)
    return [probe() for _ in range(probes)]


def run_worker(workload: str, seed: int, seconds: float, db_path: Path,
               mode: str, out_dir: Path, env: dict) -> dict:
    out = out_dir / f"worker-{workload}-{mode}.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--db", str(db_path),
         "--mode", mode, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    """End-to-end metrics over every timed request."""
    lat = np.asarray(raw["latencies"])
    busy = float(lat.sum())
    return {"setup_s": statistics.median(setup),
            "requests_per_s": len(lat) / busy,
            "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bundled = SRC / "transduce" / "data" / "materials.json"
    if not (SRC / "transduce" / "__init__.py").is_file() or not bundled.is_file():
        print(f"error: no transduce sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    db_path = out_dir / "materials.json"
    db_path.write_text(json.dumps(gen.material_db(args.seed, bundled), indent=1),
                       encoding="utf-8")
    env = worker_env()
    info = machine()
    print(f"machine: {info['cpu']}, {info['cores']} cores, {info['platform']}, "
          f"python {info['python']}, numpy {info['numpy']}")

    try:
        if args.trace:
            raws = {w: run_worker(w, args.seed, args.seconds, db_path, "traced",
                                  out_dir, env) for w in WORKLOADS}
            attempted = sum(r["attempted"] for r in raws.values())
            failures = [f for r in raws.values() for f in r["failures"]]
            failed = sum(r["failed"] for r in raws.values())
            values = {}
            for r in raws.values():
                values.update(r["metrics"])
            for layer in LAYERS:
                values[f"{layer}.errors"] = sum(r["errors"].get(layer, 0)
                                                for r in raws.values())
            wanted = spec["per_layer"]
        else:
            # One untimed probe first, so byte-code compilation is not counted.
            setup_seconds(db_path, env, 1)
            setup = setup_seconds(db_path, env, SETUP_PROBES // 2)
            raw = run_worker(args.workload, args.seed, args.seconds, db_path,
                             "timed", out_dir, env)
            setup += setup_seconds(db_path, env, SETUP_PROBES - SETUP_PROBES // 2)
            attempted, failed, failures = raw["attempted"], raw["failed"], raw["failures"]
            values = end_to_end(raw, setup)
            values["setup_probes_s"] = setup
            wanted = spec["end_to_end"]
            print(f"workload {args.workload}, seed {args.seed}: {len(raw['latencies'])} "
                  f"timed requests in {raw['wall_s']:.1f} s; setup_s over "
                  f"{len(setup)} fresh processes")
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for failure in failures:
        print(f"failure: {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, machine=info, raw_values=values), indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
