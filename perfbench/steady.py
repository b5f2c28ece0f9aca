"""Steadiness check: run every workload several times, alternating.

    python3 perfbench/steady.py --reps 10 --seconds 15 --seed0 101

Each repetition runs each workload once, untraced, in turn, as its own
process with seed ``--seed0 + rep``. For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
IQR / median; for every workload the failed share of operations. The
bounds in BENCHMARK.json are set from this output. The raw results go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("linear-d100", "linear-d100k", "nonlinear-cli")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=BENCH_DIR.parent, check=False)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), wall_s=wall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    runs: dict = {w: [] for w in WORKLOADS}
    for rep in range(args.reps):
        for w in WORKLOADS:
            res = run_once(w, args.seed0 + rep, args.seconds)
            runs[w].append(res)
            print(f"rep {rep} {w} ({res['wall_s']:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    print()
    print(f"{'workload':14s} {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'IQR/med':>8s}")
    for w, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        wall = sum(r["wall_s"] for r in results) / len(results)
        print(f"{w:14s} failed share {shares}, correct in every run: {correct}, "
              f"mean wall {wall:.1f} s per run")
        for m in results[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:14s} {m:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} {100 * spread:7.2f}%")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / "steady.json", "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
