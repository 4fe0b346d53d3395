"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py

Each set runs every workload of BENCHMARK.json once per seed (set 1 uses
seeds 1-10, set 2 seeds 11-20), one run at a time, workloads
interleaved, for BENCHMARK.json's run_seconds.  The sets are separated
by a 60 s pause.  For every workload and
end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and the ratio of the set
medians; the raw results go to bench/_work/steady-<time>.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
PAUSE_S = 60.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = took
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    workloads = [w["name"] for w in CONFIG["workloads"]]

    sets = []
    for s in range(2):
        if s:
            time.sleep(PAUSE_S)
        runs = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                r = run_once(w, seed)
                runs[w].append(r)
                print(f"set {s + 1} seed {seed} {w}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                      + f" correct={r['correct']} failed={r['failed']}/{r['attempted']}"
                      + f" process={r['process_s']:.1f}s", file=sys.stderr, flush=True)
        sets.append(runs)

    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    report = {}
    print(f"{'workload':16s} {'metric':12s} " + " ".join(
        f"{'set' + str(s + 1) + ' median [q1, q3] spread':>40s}" for s in range(len(sets)))
        + "   ratio  bound")
    for w in workloads:
        report[w] = {}
        for m in bounds:
            per_set = [summary([r["metrics"][m]["value"] for r in runs[w]]) for runs in sets]
            ratio = per_set[-1]["median"] / per_set[0]["median"]
            report[w][m] = {"sets": per_set, "ratio": ratio, "bound": bounds[m]}
            cells = " ".join(
                f"{x['median']:12.5g} [{x['q1']:.5g}, {x['q3']:.5g}] {x['spread']:6.2%}"
                for x in per_set)
            print(f"{w:16s} {m:12s} {cells}   {ratio:6.4f} {bounds[m]:5.2f}")
        shares = [sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
                  for runs in sets]
        report[w]["failed_share"] = shares
        print(f"{w:16s} failed share per set: {shares}")
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    path = os.path.join(HERE, "_work", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": report, "runs": sets}, fh, indent=1)
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
