"""Show that every output check rejects a deliberately perturbed output.

    python3 bench/selftest.py

For each workload: set up (seed 0), run one round, require the checks
to pass, then apply each perturbation below to a copy of the outputs
and require the named check to report it.  Exits 1 if any perturbation
goes unnoticed.
"""

from __future__ import annotations

import copy
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _set(seq, i, value):
    out = list(seq)
    out[i] = value
    return type(seq)(out) if isinstance(seq, tuple) else out


def _pbp(out, i, **changes):
    out["pbp"] = _set(out["pbp"], i, replace(out["pbp"][i], **changes))
    return out


def _eq_record(out, i, **changes):
    eq = out["equivalence"]
    out["equivalence"] = replace(eq, records=_set(eq.records, i, replace(eq.records[i], **changes)))
    return out


def _bumped_trace(res, i, delta):
    return _set(res.trace, i, res.trace[i] + delta)


def _not_stable(out):
    # the affine start itself, reported as the result: PBP moved away from it
    res = out["pbp"][0]
    return _pbp(out, 0, profile=STATE["gaussian-pbp"].inits[0],
                trace=(res.trace[0],), value=res.trace[0])


GAUSSIAN = [
    ("trace start", lambda o: _pbp(o, 0, trace=_bumped_trace(o["pbp"][0], 0, 1e-3)), "trace starts"),
    ("trace goes up", lambda o: _pbp(o, 2, trace=_set(o["pbp"][2].trace, 1, o["pbp"][2].trace[0] + 1e-3)),
     "trace increases"),
    ("value", lambda o: _pbp(o, 2, value=o["pbp"][2].value + 1e-6,
                             trace=_bumped_trace(o["pbp"][2], -1, 1e-6)), "not the cost"),
    ("not converged", lambda o: _pbp(o, 1, converged=False), "did not converge"),
    ("unstable profile", _not_stable, "can still improve"),
    ("zero start", lambda o: _pbp(o, 1, value=o["pbp"][0].value,
                                  trace=o["pbp"][0].trace, profile=o["pbp"][0].profile),
     "zero start ends"),
    ("affine optimum", lambda o: [_pbp(o, i, value=r.value + 1.0, trace=_bumped_trace(r, -1, 1.0))
                                  for i, r in enumerate(o["pbp"])][-1], "best PBP value"),
    ("equivalence gap", lambda o: o.update(equivalence=replace(o["equivalence"], max_gap=1e-9)) or o,
     "equivalence gap"),
    ("original cost", lambda o: _eq_record(o, 1, original=o["equivalence"].records[1].original * (1 + 1e-8)),
     "original cost"),
    ("reduced cost", lambda o: _eq_record(o, 2, reduced=o["equivalence"].records[2].reduced * (1 + 1e-8)),
     "reduced cost"),
    ("record gap", lambda o: _eq_record(o, 0, gap=1e-11), "inconsistent"),
    ("records", lambda o: o.update(equivalence=replace(o["equivalence"], records=o["equivalence"].records[:2])) or o,
     "number of records"),
]


def _cert(out, i, **changes):
    v = out["example1"]
    out["example1"] = replace(v, certificate=_set(v.certificate, i, replace(v.certificate[i], **changes)))
    return out


def _raw_violation(out, **changes):
    raw = out["raw"]
    out["raw"] = replace(raw, violation=replace(raw.violation, **changes))
    return out


def _witness(out, **changes):
    v = out["witsenhausen"]
    out["witsenhausen"] = replace(v, policy_witness=replace(v.policy_witness, **changes))
    return out


def _moved_midpoint(out):
    mid = out["witsenhausen"].policy_witness.midpoint
    actions = [np.array(a) for a in mid.actions]
    actions[1][0] = (actions[1][0] + 1) % 17
    return _witness(out, midpoint=replace(mid, actions=tuple(actions)))


def _kind(out, key, kind):
    out[key] = replace(out[key], kind=type(out[key].kind)(kind))
    return out


LATTICE = [
    ("example1 verdict", lambda o: _kind(o, "example1", "inconclusive"), "expected convex"),
    ("pair count", lambda o: _cert(o, 0, n_pairs=o["example1"].certificate[0].n_pairs - 1), "pairs, expected"),
    ("block margin", lambda o: _cert(o, 1, min_margin=o["example1"].certificate[1].min_margin + 1e-9),
     "min margin"),
    ("block mass", lambda o: _cert(o, 0, mass=0.2), "masses"),
    ("raw verdict", lambda o: o.update(raw=replace(o["raw"], passed=True)) or o, "passed=True"),
    ("raw margin", lambda o: o.update(raw=replace(o["raw"], min_margin=o["raw"].min_margin * 0.999)) or o,
     "raw third cell: min margin"),
    ("raw first violation", lambda o: _raw_violation(o, index_b=(0, 4), index_mid=(0, 2)), "not the first"),
    ("raw gap", lambda o: _raw_violation(o, gap=o["raw"].violation.gap * 1.001), "recomputed"),
    ("witness verdict", lambda o: _kind(o, "witsenhausen", "convex"), "without a policy witness"),
    ("witness value", lambda o: _witness(o, value_a=o["witsenhausen"].policy_witness.value_a + 1e-4),
     "value_a"),
    ("witness violation", lambda o: _witness(o, violation=o["witsenhausen"].policy_witness.violation * 1.01),
     "does not reproduce"),
    ("witness midpoint", _moved_midpoint, "not the action-wise midpoint"),
    ("meet note", lambda o: o.update(witsenhausen=replace(o["witsenhausen"], notes=(
        o["witsenhausen"].notes[0], "meet block 0 carries a non-convex conditional cost",
        o["witsenhausen"].notes[2]))) or o, "meet"),
    ("join note", lambda o: o.update(witsenhausen=replace(o["witsenhausen"], notes=(
        "3 zero-mass join blocks skipped",) + o["witsenhausen"].notes[1:])) or o, "join"),
]


def _rep(out, key, fn):
    fn(out[key]["report"])
    return out


def _nudge(d, k, delta):
    d[k] = d[k] + delta


def _first_cost_key(rep):
    cost = rep["reduced_problem"]["cost"]
    key = next(iter(cost))
    cost[key] *= 1.001


FINITE = [
    ("digest", lambda o: _rep(o, "static-convex.validate", lambda r: r.update(input_digest="0" * 64)),
     "digest"),
    ("class", lambda o: _rep(o, "nonclassical-2.classify", lambda r: r.update(is_class="partially-nested")),
     "class"),
    ("edges", lambda o: _rep(o, "nonclassical-3.classify", lambda r: r["precedence_edges"].pop()), "edges"),
    ("nested", lambda o: _rep(o, "partially-nested.classify", lambda r: r["edge_nested"].update({"1->2": False})),
     "nested"),
    ("reduce gap", lambda o: _rep(o, "nonclassical-2.reduce", lambda r: r["equivalence"].update(max_gap=1e-9)),
     "equivalence gap"),
    ("reduced table", lambda o: _rep(o, "partially-nested.reduce", _first_cost_key), "reduced problem costs"),
    ("brute value", lambda o: _rep(o, "classical-concave.brute", lambda r: _nudge(r, "value", 1e-6)), "optimum"),
    ("brute index", lambda o: _rep(o, "single-dm.brute", lambda r: _nudge(r, "profile_index", 1)), "optimum"),
    ("mixture support", lambda o: _rep(o, "wide.mixture-lp", lambda r: r["support"][0].__setitem__(0, r["support"][0][0] + 1)),
     "mixture optimum"),
    ("mixture value", lambda o: _rep(o, "static-convex.mixture-lp", lambda r: _nudge(r, "value", 1e-6)),
     "mixture optimum"),
    ("pbp start", lambda o: _rep(o, "nonclassical-3.pbp", lambda r: r["trace"].__setitem__(0, r["trace"][0] + 1e-3)),
     "trace starts"),
    ("pbp trace", lambda o: _rep(o, "static-convex.pbp", lambda r: r["trace"].insert(1, r["trace"][0] + 1.0)),
     "trace increases"),
    ("pbp value", lambda o: _rep(o, "wide.pbp", lambda r: (_nudge(r, "value", 1e-6), r["trace"].append(r["value"]))),
     "not the cost"),
    ("pbp converged", lambda o: _rep(o, "single-dm.pbp", lambda r: r.update(converged=False)), "stable"),
    ("enumerate values", lambda o: _rep(o, "nonclassical-2.enumerate",
                                        lambda r: r["first_values"].__setitem__(3, r["first_values"][3] + 1e-6)),
     "enumeration"),
    ("enumerate argmin", lambda o: _rep(o, "wide.enumerate", lambda r: _nudge(r, "argmin_index", 1)), "enumeration"),
    ("induced LA", lambda o: _rep(o, "partially-nested.check-induced", lambda r: r.update(member_LA=False)),
     "not a member"),
    ("mixed LR", lambda o: _rep(o, "nonclassical-3.check-mixed", lambda r: r.update(member_LR=not r["member_LR"])),
     "member_LR"),
    ("mixed LM", lambda o: _rep(o, "static-convex.check-mixed", lambda r: r.update(member_LM=not r["member_LM"])),
     "member_LM"),
    ("witness pair", lambda o: _rep(o, "nonclassical-2.witness", lambda r: _nudge(r, "index_b", 1)), "witness"),
    ("single-DM witness", lambda o: _rep(o, "single-dm.witness", lambda r: r.update(found=True)), "witness"),
    ("certify verdict", lambda o: _rep(o, "static-convex.certify", lambda r: r.update(verdict="inconclusive")),
     "verdict"),
    ("certificate pairs", lambda o: _rep(o, "wide.certify", lambda r: _nudge(r["certificate"][0], "n_pairs", 2)),
     "block of mass"),
    ("certificate margin", lambda o: _rep(o, "single-dm.certify", lambda r: _nudge(r["certificate"][2], "min_margin", 1e-6)),
     "block of mass"),
    ("cell gap", lambda o: _rep(o, "classical-concave.certify", lambda r: _nudge(r["cell_witness"], "gap", 1e-6)),
     "cell witness gap"),
    ("cell block", lambda o: _rep(o, "classical-concave.certify",
                                  lambda r: r["cell_witness"].update(block_labels=[0, 2])), "meet block"),
]

CASES = {"gaussian-pbp": GAUSSIAN, "lattice-certify": LATTICE, "finite-teams": FINITE}
STATE = {}


def main() -> int:
    missed = 0
    for name, cases in CASES.items():
        wl = WORKLOADS[name]
        workdir = os.path.join(HERE, "_work", f"selftest-{name}")
        os.makedirs(workdir, exist_ok=True)
        st = wl.setup(0, workdir)
        STATE[name] = st
        out, _ = wl.round(st)
        base = wl.check(st, out)
        if base:
            print(f"{name}: unperturbed outputs fail: {base}")
            return 1
        for label, mutate, expect in cases:
            fails = wl.check(st, mutate(copy.deepcopy(out)))
            hit = any(expect in f for f in fails)
            missed += not hit
            print(f"{name:16s} {label:22s} {'rejected' if hit else 'MISSED'}: "
                  f"{fails[0] if fails else 'no failure reported'}")
    print("all perturbations rejected" if not missed else f"{missed} perturbation(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
