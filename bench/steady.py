"""Steadiness report: repeat each workload over seeds and measure the spread.

    python3 bench/steady.py --out bench/out/steady.json

Runs ``run.py --trace 0`` once per seed (1 to 10) and workload of
``BENCHMARK.json``, interleaving the workloads so that a drift in machine
speed spreads over all of them.  For
every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  A metric is steady when its spread is at most a third
of its bound; ``setup_s`` is reported but exempt.  Exits 1 if any output
is wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import machine

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread <= bound / 3, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap.add_argument("--out", type=Path, default=BENCH / "out" / "steady.json")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            result = one_run(w, seed, spec["run_seconds"])
            runs[w].append(dict(result, seed=seed))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    report = {"machine": machine(), "seeds": list(SEEDS), "seconds": spec["run_seconds"],
              "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {},
              "failed_runs": {w: [{k: r[k] for k in ("seed", "attempted", "failed")}
                                  for r in runs[w] if r["failed"]] for w in workloads}}
    failed = sum(r["failed"] for w in workloads for r in runs[w])
    print(f"\n{'workload':16s} {'metric':15s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        table = {}
        for m in metrics:
            name = m["name"]
            row = summarize([r["metrics"][name]["value"] for r in runs[w]], m["bound"])
            verdict = "steady" if row["steady"] else (
                "ok" if row["spread"] <= m["bound"] else "SPREAD ABOVE BOUND")
            if name == "setup_s":
                verdict = "exempt"
            table[name] = row
            print(f"{w:16s} {name:15s} {row['median']:11.5g} {row['q1']:11.5g} "
                  f"{row['q3']:11.5g} {row['spread']:7.3f} {m['bound']:6.2f}  {verdict}")
        report["workloads"][w] = table
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nreport written to {args.out}; {failed} failed outputs in "
          f"{sum(map(len, report['failed_runs'].values()))} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
