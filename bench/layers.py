"""Per-layer metrics from the spans of one traced round (and its set-up).

A layer that never ran in the workload reports 0 for its counts, times,
rates and peaks.
"""

from __future__ import annotations

import oracles

MB = float(2**20)


def layer_metrics(tracer, names, overhead_s: float) -> dict:
    """Every per-layer metric in ``names`` (BENCHMARK.json's per_layer)."""
    table = tracer.layer_table()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "peak_bytes": 0, "work": 0})

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    for name in names:
        layer, _, metric = name.rpartition(".")
        r = row(layer)
        if metric == "calls":
            out[name] = r["calls"]
        elif metric == "self_s":
            out[name] = r["self_s"]
        elif metric == "peak_mb":
            out[name] = r["peak_bytes"] / MB

    ec = row("model.expected_cost")
    out["model.expected_cost.ms_per_call"] = 1000.0 * rate(ec["self_s"], ec["calls"])

    updates = tracer.descendants("solvers.pbp_iterate", "solvers.best_response")
    evals = tracer.descendants("solvers.pbp_iterate", "model.expected_cost")
    out["solvers.pbp_iterate.updates"] = updates
    out["solvers.pbp_iterate.cost_evals_per_update"] = rate(evals, updates)

    bf = row("solvers.brute_force")
    out["solvers.brute_force.profiles_per_s"] = rate(bf["work"], bf["total_s"])
    grid = row("convexity.grid_convexity_test")
    out["convexity.grid_convexity_test.pairs_per_s"] = rate(grid["work"], grid["total_s"])
    load = row("probio.load_problem")
    out["probio.load_problem.mb_per_s"] = rate(load["work"] / MB, load["total_s"])

    # pairs_tested counts the LR tests the searches made; the useful pairs
    # are counted over lexicographic pairs up to where each search stopped,
    # so a search that skips useless pairs reads a share of 1
    tested = tracer.descendants("strategic.find_nonconvexity_witness",
                                "strategic.check_membership_LR")
    useful = sum(oracles.useful_pairs_until(*s.work) for s in tracer.spans
                 if s.name == "strategic.find_nonconvexity_witness")
    out["strategic.find_nonconvexity_witness.pairs_tested"] = tested
    out["strategic.find_nonconvexity_witness.useful_pair_share"] = rate(useful, tested)
    out["trace.overhead_s"] = overhead_s
    return out
