"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
run sets its inputs up five times (setup_s is the import time plus the
median set-up), then runs whole timed rounds while another round still
fits in S seconds (at least one; the first round is timed like the
others), checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  wall_s is the mean
round; op_p50_ms the median latency over all rounds.  The metrics
listed are those of BENCHMARK.json.

With ``--trace 1`` it runs one untraced round, then installs span
wrappers (bench/tracing.py), sets up and runs one traced round, and
reports the per-layer metrics instead; spans go to
bench/_work/trace-<workload>-seed<N>.json.

BLAS always runs one thread: the contractions are timed in this process
alone, not together with threads that compete with other tenants for
the second core.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _plain(obj):
    """Comparable form of an output: arrays to lists, objects to dicts."""
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "value") and type(obj).__module__.startswith("teamdec"):
        return obj.value  # enums
    return obj


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "teamdec", "__init__.py")):
        _fail(f"no teamdec package under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import numpy  # noqa: F401
    import teamdec  # noqa: F401

    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work")
    workdir = os.path.join(work, wl.name)
    os.makedirs(workdir, exist_ok=True)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        gc.collect()
        t = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t)

    failed = getattr(wl, "failed", None)
    rounds, op_times, problems = [], [], []
    first = {}  # the first round's outputs; later rounds must repeat them
    attempted = n_failed = 0

    def one_round(st):
        nonlocal attempted, n_failed
        gc.collect()
        out, times = wl.round(st)
        # operations run back to back: the round's wall time is their sum
        # (reading the CLI's report files afterwards is not counted)
        rounds.append(sum(times))
        op_times.extend(times)
        attempted += len(times)
        n_failed += failed(out) if failed else 0
        if not first:
            first.update(outputs=out, plain=_plain(out))
        elif _plain(out) != first["plain"]:
            problems.append(f"round {attempted // len(times)} differs from round 1")

    tracer = None
    if args.trace:
        one_round(state)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_state = wl.setup(args.seed, workdir)
            one_round(traced_state)
        finally:
            tracer.uninstall()
    else:
        while not rounds or sum(rounds) + statistics.mean(rounds) <= args.seconds:
            one_round(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    problems += wl.check(state, first["outputs"])
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": statistics.mean(rounds),
            "op_p50_ms": 1000.0 * statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + statistics.median(setup_times),
        }
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    else:
        from layers import layer_metrics

        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        values = layer_metrics(tracer, units, overhead_s=rounds[1] - rounds[0])
        tracer.dump(os.path.join(work, f"trace-{wl.name}-seed{args.seed}.json"), values)
    print(
        f"bench: {wl.name} seed {args.seed}: rounds {[round(r, 3) for r in rounds]} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
