"""The three workloads: set-up, one timed round, and output checks.

A workload object has ``setup(seed, workdir)`` (inputs ready),
``round(state)`` (runs every operation once, back to back: returns the
outputs and one latency per operation) and ``check(state, outputs)`` (a
list of failure messages, empty when every output is right).  Checks run outside the timed
section and use only ``oracles`` and closed forms, never teamdec's own
results for the same quantity.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import oracles as ref
import teams as team_gen

import teamdec
import teamdec.cli
import teamdec.probio
from teamdec.constants import LP_TOL, MIDPOINT_TOL, REDUCTION_TOL


def _close(a, b, rtol=1e-10) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _maps(profile) -> list:
    return [np.asarray(a, dtype=int) for a in profile.actions]


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t


def _seeded_maps(rng, sizes) -> list:
    return [rng.integers(0, nu, size=ny) for ny, nu in sizes]


# ---------------------------------------------------------------------------
# gaussian-pbp
# ---------------------------------------------------------------------------


@dataclass
class GaussianState:
    bundle: object
    inits: list


class GaussianPbp:
    """PBP search on the signaling team at the default quadrature spec,
    then the static-reduction equivalence on the starting profiles.

    The inputs do not depend on the seed, so every seed does the same
    work (see bench/README.md for why seeded profiles were dropped).
    """

    name = "gaussian-pbp"
    k, sigma = 0.2, 5.0

    def setup(self, seed: int, workdir: str) -> GaussianState:
        bundle = teamdec.signaling(self.k, self.sigma)
        problem = bundle.problem
        aff = bundle.affine_optimum()
        g, c = aff.gain, bundle.team.affine_decoder_gain(aff.gain)
        s = self.sigma
        inits = [
            teamdec.snap_profile(problem, lambda y: g * y, lambda y: c * y),
            teamdec.snap_profile(problem, np.zeros_like, np.zeros_like),
            teamdec.snap_profile(
                problem, lambda y: g * s * np.sign(y), lambda y: c * s * np.sign(y)
            ),
        ]
        return GaussianState(bundle, inits)

    def round(self, st: GaussianState) -> tuple:
        times, pbp = [], []
        for init in st.inits:
            res, dt = _timed(teamdec.pbp_iterate, st.bundle.problem, init=init)
            pbp.append(res)
            times.append(dt)
        eq, dt = _timed(teamdec.verify_equivalence, st.bundle.reduction, st.inits)
        times.append(dt)
        return {"pbp": pbp, "equivalence": eq}, times

    def check(self, st: GaussianState, out: dict) -> list:
        fail = []
        team = ref.arrays_of(st.bundle.problem)
        values = []
        for name, init, res in zip(("affine", "zero", "threshold"), st.inits, out["pbp"]):
            trace = np.asarray(res.trace, dtype=float)
            if not _close(trace[0], ref.evaluate(team, _maps(init))):
                fail.append(f"pbp {name}: trace starts at {trace[0]!r}, not at the cost of the start")
            if np.any(np.diff(trace) > 1e-12 * max(1.0, abs(trace[0]))):
                fail.append(f"pbp {name}: trace increases")
            if trace[-1] != res.value or not _close(res.value, ref.evaluate(team, _maps(res.profile))):
                fail.append(f"pbp {name}: value {res.value!r} is not the cost of its profile")
            if not res.converged:
                fail.append(f"pbp {name}: did not converge")
            unstable = ref.pbp_stable(team, _maps(res.profile))
            if unstable:
                fail.append(f"pbp {name}: DMs {unstable} can still improve")
            values.append(res.value)
        k, s = self.k, self.sigma
        if abs(values[1] - s**2) > 1e-9 * s**2:
            fail.append(f"zero start ends at {values[1]!r}, not at sigma^2 = {s**2}")
        # best affine pair: (g^2 s^2 + 1)^2 = s^2/k^2, value 2ks - k^2 (1.96 here)
        affine = 2 * k * s - k**2
        spec = st.bundle.spec
        r = spec.u_range_sigmas * s
        h1 = 2 * r / (spec.u1_points - 1)
        h2 = 2 * r / (spec.u2_points - 1)
        hy = 2 * (r + spec.y2_pad) / (spec.y2_points - 1)
        grid_tol = (1 + k**2) * (h1**2 + h2**2 + hy**2) / 2
        if abs(min(values) - affine) > grid_tol:
            fail.append(f"best PBP value {min(values)!r} is not within {grid_tol:.4f} of {affine}")

        eq = out["equivalence"]
        red = st.bundle.reduction
        reweighted = ref.Arrays(
            team.prior,
            tuple(np.asarray(f) * np.asarray(q.mass) for f, q in zip(red.weights, red.references)),
            team.cost,
        )
        if not (eq.max_gap <= REDUCTION_TOL and eq.equivalent):
            fail.append(f"equivalence gap {eq.max_gap!r} above {REDUCTION_TOL}")
        if len(eq.records) != len(st.inits):
            fail.append("equivalence has the wrong number of records")
        for i, (p, rec) in enumerate(zip(st.inits, eq.records)):
            if not _close(rec.original, ref.evaluate(team, _maps(p))):
                fail.append(f"equivalence record {i}: original cost {rec.original!r} is wrong")
            if not _close(rec.reduced, ref.evaluate(reweighted, _maps(p))):
                fail.append(f"equivalence record {i}: reduced cost {rec.reduced!r} is wrong")
            if rec.gap != abs(rec.original - rec.reduced) or rec.gap > eq.max_gap:
                fail.append(f"equivalence record {i}: gap {rec.gap!r} is inconsistent")
        return fail


# ---------------------------------------------------------------------------
# lattice-certify
# ---------------------------------------------------------------------------


@dataclass
class LatticeState:
    example: object
    wits: object


class LatticeCertify:
    """Convexity certification along a full convex scan (example1), a
    full failing scan (the raw concave cell) and an early-exit path
    (the materialized Witsenhausen reduction)."""

    name = "lattice-certify"
    n_grid = 101  # example1 at its default step 0.01

    def setup(self, seed: int, workdir: str) -> LatticeState:
        return LatticeState(teamdec.example1(), teamdec.witsenhausen())

    def round(self, st: LatticeState) -> tuple:
        times = []
        convex, dt = _timed(st.example.certify)
        times.append(dt)
        raw, dt = _timed(st.example.raw_third_cell_convexity)
        times.append(dt)
        wits, dt = _timed(st.wits.certify)
        times.append(dt)
        return {"example1": convex, "raw": raw, "witsenhausen": wits}, times

    def check(self, st: LatticeState, out: dict) -> list:
        fail = []
        u = np.linspace(1.0, 2.0, self.n_grid)
        quad = (u[:, None] - 2.0) ** 2 + (u[None, :] - 2.0) ** 2
        root = np.sqrt(1.0 + u)[:, None] + np.sqrt(1.0 + u)[None, :]
        pairs = ref.same_parity_pairs((self.n_grid, self.n_grid))

        v = out["example1"]
        if v.kind.value != "convex" or v.certificate is None:
            fail.append(f"example1 verdict {v.kind.value!r}, expected convex")
        else:
            blocks = {0.1: quad, 0.9: (0.8 * quad + 0.1 * root) / 0.9}
            records = sorted(v.certificate, key=lambda r: r.mass)
            if [round(r.mass, 12) for r in records] != sorted(blocks):
                fail.append(f"example1 join blocks have masses {[r.mass for r in records]}")
            for rec, (mass, table) in zip(records, sorted(blocks.items())):
                margin, n = ref.half_offset_min_margin(table)
                if rec.n_pairs != pairs or n != pairs:
                    fail.append(f"example1 block of mass {mass}: {rec.n_pairs} pairs, expected {pairs}")
                if abs(rec.min_margin - float(margin)) > 1e-12:
                    fail.append(f"example1 block of mass {mass}: min margin {rec.min_margin!r}, expected {float(margin)!r}")

        raw = out["raw"]
        margin, _ = ref.half_offset_min_margin(root)
        if raw.passed or raw.n_pairs != pairs:
            fail.append(f"raw third cell: passed={raw.passed}, {raw.n_pairs} pairs")
        if abs(raw.min_margin - float(margin)) > 1e-12:
            fail.append(f"raw third cell: min margin {raw.min_margin!r}, expected {float(margin)!r}")
        first = ref.first_violation_from(root, (0, 0), MIDPOINT_TOL)
        viol = raw.violation
        if viol is None or first is None or viol.index_a != (0, 0) or (viol.index_b, viol.index_mid) != first[:2]:
            fail.append(f"raw third cell: first violation {viol} is not the first one, {first}")
        else:
            def f(ix):
                return math.sqrt(1.0 + u[ix[0]]) + math.sqrt(1.0 + u[ix[1]])

            gap = f(viol.index_mid) - 0.5 * (f(viol.index_a) + f(viol.index_b))
            if abs(viol.gap - gap) > 1e-12 or gap <= MIDPOINT_TOL:
                fail.append(f"raw third cell: gap {viol.gap!r}, recomputed {gap!r}")

        fail += self._check_witsenhausen(st, out["witsenhausen"])
        return fail

    def _check_witsenhausen(self, st: LatticeState, v) -> list:
        fail = []
        if v.kind.value != "not-convex" or v.policy_witness is None or v.cell_witness is not None:
            return [f"witsenhausen verdict {v.kind.value!r} without a policy witness"]
        problem, refs = teamdec.discretize(st.wits.team, teamdec.CERTIFY_SPEC)
        team = ref.arrays_of(problem)
        u_vals = [np.array([float(p) for p in s.points]) for s in problem.u_spaces]
        w = v.policy_witness
        ja = ref.evaluate(team, _maps(w.profile_a))
        jb = ref.evaluate(team, _maps(w.profile_b))
        mid = []
        for d, vals in enumerate(u_vals):
            target = 0.5 * vals[w.profile_a.actions[d]] + 0.5 * vals[w.profile_b.actions[d]]
            mid.append(np.abs(target[:, None] - vals[None, :]).argmin(axis=1))
        jm = ref.evaluate(team, mid)
        if not all(np.array_equal(a, b) for a, b in zip(mid, _maps(w.midpoint))):
            fail.append("witsenhausen: witness midpoint is not the action-wise midpoint")
        for name, got, want in (("value_a", w.value_a, ja), ("value_b", w.value_b, jb),
                                ("value_mid", w.value_mid, jm)):
            if not _close(got, want, 1e-8):
                fail.append(f"witsenhausen: witness {name} {got!r}, recomputed {want!r}")
        if not (jm - 0.5 * (ja + jb) > MIDPOINT_TOL and _close(w.violation, jm - 0.5 * (ja + jb), 1e-8)):
            fail.append(f"witsenhausen: witness violation {w.violation!r} does not reproduce")
        # meet: one block (the whole space); its conditional is the cost of
        # constant actions, which must pass midpoint convexity
        n1, n2 = len(u_vals[0]), len(u_vals[1])
        ny = [len(y) for y in problem.y_spaces]
        const = np.array([
            [ref.evaluate(team, [np.full(ny[0], a), np.full(ny[1], b)]) for b in range(n2)]
            for a in range(n1)
        ])
        meet_passes = float(ref.half_offset_min_margin(const)[0]) >= -MIDPOINT_TOL
        if not meet_passes or v.notes[1:2] != ("all positive-mass meet conditionals pass midpoint convexity",):
            fail.append(f"witsenhausen: meet notes {v.notes[1:2]}, own meet test passes: {meet_passes}")
        # join: blocks (y1, y2) of the reduction; conditional cost
        # (prior/Q1)(y1) c(y1, u1, u2) K2(y1, u1, y2) / Q2(y2)
        k2 = np.moveaxis(team.kernels[1], 2, 1)  # (y1, y2, u1)
        tables = (
            (team.prior / refs[0].mass)[:, None, None, None]
            * team.cost[:, None, :, :]
            * k2[:, :, :, None]
            / refs[1].mass[None, :, None, None]
        )
        worst, _ = ref.half_offset_min_margin(tables, batch_axes=2)
        join_fails = bool(np.any(worst < -MIDPOINT_TOL))
        if not join_fails or not (v.notes[0].startswith("join block") and "fails" in v.notes[0]):
            fail.append(f"witsenhausen: join notes {v.notes[:1]}, own join test fails: {join_fails}")
        return fail


# ---------------------------------------------------------------------------
# finite-teams
# ---------------------------------------------------------------------------


@dataclass
class FiniteState:
    teams: list
    files: dict  # team name -> problem path
    ops: list  # (team name, command, argv, report path)
    extras: dict  # team name -> {"init", "p", "q"} seeded maps


def _measure_doc(team: team_gen.Team, joint: np.ndarray, origin: str) -> dict:
    spaces = [[str(w) for w in team.omega]]
    for y, u in zip(team.y_labels, team.u_values):
        spaces += [[str(v) for v in y], [str(float(v)) for v in u]]
    entries = {}
    for idx in zip(*np.nonzero(joint)):
        key = "|".join(spaces[a][i] for a, i in enumerate(idx))
        entries[key] = float(joint[idx])
    return {"joint": entries, "origin": origin}


class FiniteTeams:
    """Generated finite teams as JSON problem files, run through the
    CLI entry point in-process."""

    name = "finite-teams"

    def setup(self, seed: int, workdir: str) -> FiniteState:
        os.makedirs(os.path.join(workdir, "reports"), exist_ok=True)
        teams = team_gen.generate(seed)
        files, ops, extras = {}, [], {}
        for i, t in enumerate(teams):
            path = os.path.join(workdir, f"{t.name}.json")
            teamdec.probio.save_problem(t.problem(teamdec), path)
            files[t.name] = path
            rng = np.random.default_rng([seed, 100 + i])
            sizes = t.arrays.sizes()
            ex = {key: _seeded_maps(rng, sizes) for key in ("init", "p", "q")}
            extras[t.name] = ex
            for cmd in t.commands:
                variants = [cmd]
                if cmd == "check":
                    variants = ["check-induced", "check-mixed"]
                for var in variants:
                    out = os.path.join(workdir, "reports", f"{t.name}.{var}.json")
                    ops.append((t.name, var, self._argv(var, path, out, seed, workdir, t, ex), out))
        return FiniteState(teams, files, ops, extras)

    def _argv(self, cmd, path, out, seed, workdir, t, ex) -> list:
        tail = ["--out", out]
        if cmd in ("validate", "classify"):
            return [cmd, path] + tail
        if cmd == "reduce":
            return ["reduce", path, "--seed", str(seed)] + tail
        if cmd in ("brute", "mixture-lp"):
            return ["solve", path, "--method", cmd] + tail
        if cmd == "pbp":
            init = json.dumps({"actions": [m.tolist() for m in ex["init"]]})
            return ["solve", path, "--method", "pbp", "--init", init] + tail
        if cmd in ("enumerate", "witness"):
            return ["strategic", cmd, path] + tail
        if cmd.startswith("check-"):
            joint = ref.joint_of(t.arrays, ex["p"])
            if cmd == "check-mixed":
                joint = 0.5 * joint + 0.5 * ref.joint_of(t.arrays, ex["q"])
            mpath = os.path.join(workdir, f"{t.name}.{cmd}.measure.json")
            with open(mpath, "w", encoding="utf-8") as fh:
                json.dump(_measure_doc(t, joint, cmd), fh)
            return ["strategic", "check", path, "--measure", mpath] + tail
        if cmd == "certify":
            return ["certify-convexity", path, "--seed", str(seed)] + tail
        raise ValueError(cmd)

    def round(self, st: FiniteState) -> tuple:
        times, codes = [], []
        for _, _, argv, _ in st.ops:
            t = time.perf_counter()
            try:
                code = teamdec.cli.main(argv)
            except (Exception, SystemExit) as e:  # counted as a failed operation
                code = repr(e)
            times.append(time.perf_counter() - t)
            codes.append(code)
        reports = {}
        for (team, cmd, _, path), code in zip(st.ops, codes):
            report = None
            if code == 0:
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
            reports[f"{team}.{cmd}"] = {"exit": code, "report": report}
        return reports, times

    @staticmethod
    def failed(out: dict) -> int:
        return sum(1 for r in out.values() if r["exit"] != 0)

    def check(self, st: FiniteState, out: dict) -> list:
        fail = []
        for t in st.teams:
            ctx = _TeamContext(t, st)
            for key, rec in out.items():
                name, cmd = key.split(".", 1)
                if name != t.name or rec["report"] is None:
                    continue
                for msg in ctx.check(cmd, rec["report"]):
                    fail.append(f"{t.name} {cmd}: {msg}")
        return fail


class _TeamContext:
    """Reference answers for one generated team, computed lazily."""

    def __init__(self, team: team_gen.Team, st: FiniteState):
        self.t = team
        self.st = st
        self.a = team.arrays
        self.sizes = self.a.sizes()
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = ref.all_values(self.a)
        return self._values

    def check(self, cmd: str, rep: dict) -> list:
        return getattr(self, "_" + cmd.replace("-", "_"))(rep)

    def _validate(self, rep):
        with open(self.st.files[self.t.name], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if rep["is_valid"] is not True or rep["violations"] or rep["input_digest"] != digest:
            return [f"valid={rep['is_valid']}, digest {rep['input_digest']}"]
        return []

    def _classify(self, rep):
        fail = []
        if rep["is_class"] != self.t.is_class:
            fail.append(f"class {rep['is_class']!r}, built as {self.t.is_class!r}")
        if rep["precedence_edges"] != [list(e) for e in self.t.edges]:
            fail.append(f"edges {rep['precedence_edges']}, built with {self.t.edges}")
        if rep["edge_nested"] != self.t.nested:
            fail.append(f"nested {rep['edge_nested']}, built with {self.t.nested}")
        return fail

    def _reduce(self, rep):
        fail = []
        eq = rep["equivalence"]
        if not (eq["equivalent"] is True and eq["max_gap"] <= REDUCTION_TOL):
            fail.append(f"equivalence gap {eq['max_gap']!r}")
        if rep.get("reduced_problem") is None:
            return fail + ["no reduced problem"]
        # every profile costs the same in both forms; every reduced
        # exogenous point has positive mass, so this reads every cost cell
        reduced = ref.all_values(ref.arrays_from_doc(rep["reduced_problem"]))
        worst = int(np.argmax(np.abs(reduced - self.values)))
        if not _close(reduced[worst], self.values[worst], 1e-9):
            fail.append(f"reduced problem costs {reduced[worst]!r} where the team "
                        f"costs {self.values[worst]!r} (profile {worst})")
        return fail

    def _best(self):
        return ref.first_minimizer(self.values), float(self.values.min())

    def _brute(self, rep):
        idx, lo = self._best()
        want = [m.tolist() for m in ref.profile_at(self.sizes, idx)]
        if not (_close(rep["value"], lo) and rep["profile_index"] == idx
                and rep["n_profiles"] == len(self.values)
                and rep["profile"]["action_indices"] == want):
            return [f"optimum {rep['value']!r} at {rep['profile_index']}, expected {lo!r} at {idx}"]
        return []

    def _mixture_lp(self, rep):
        idx, lo = self._best()
        if abs(rep["value"] - lo) > LP_TOL or rep["support"] != [[idx, 1.0]]:
            return [f"mixture optimum {rep['value']!r} on {rep['support']}, brute {lo!r} at {idx}"]
        return []

    def _pbp(self, rep):
        fail = []
        trace = np.asarray(rep["trace"], dtype=float)
        maps = [np.asarray(m) for m in rep["profile"]["action_indices"]]
        start = ref.evaluate(self.a, self.st.extras[self.t.name]["init"])
        if not _close(trace[0], start):
            fail.append(f"trace starts at {trace[0]!r}, the start costs {start!r}")
        if np.any(np.diff(trace) > 1e-12 * max(1.0, abs(trace[0]))):
            fail.append("trace increases")
        if not (trace[-1] == rep["value"] and _close(rep["value"], ref.evaluate(self.a, maps))):
            fail.append(f"value {rep['value']!r} is not the cost of the final profile")
        if not rep["converged"] or ref.pbp_stable(self.a, maps):
            fail.append("final profile is not person-by-person stable")
        return fail

    def _enumerate(self, rep):
        idx, lo = self._best()
        first = rep["first_values"]
        n = min(32, len(self.values))
        if not (rep["n_profiles"] == len(self.values) and rep["argmin_index"] == idx
                and _close(rep["min_value"], lo) and len(first) == n
                and all(_close(a, b) for a, b in zip(first, self.values[:n]))):
            return [f"enumeration disagrees (argmin {rep['argmin_index']}, expected {idx})"]
        return []

    def _membership(self, rep, joint):
        fail = []
        want = {"LR": ref.in_LR(self.a, joint), "LA": ref.in_LA(self.a, joint)}
        for cls, member in want.items():
            if rep[f"member_{cls}"] != member or (member and rep[f"failures_{cls}"]):
                fail.append(f"member_{cls} {rep[f'member_{cls}']}, expected {member}")
        if not self.t.edges:
            lm = ref.in_LM(self.a, joint)
            if rep.get("member_LM") != lm:
                fail.append(f"member_LM {rep.get('member_LM')}, expected {lm}")
        return fail

    def _check_induced(self, rep):
        joint = ref.joint_of(self.a, self.st.extras[self.t.name]["p"])
        if not (rep["member_LR"] and rep["member_LA"]):
            return ["an induced measure is not a member"]
        return self._membership(rep, joint)

    def _check_mixed(self, rep):
        ex = self.st.extras[self.t.name]
        joint = 0.5 * ref.joint_of(self.a, ex["p"]) + 0.5 * ref.joint_of(self.a, ex["q"])
        return self._membership(rep, joint)

    def _witness(self, rep):
        if self.a.n_dms == 1:
            return [] if rep["found"] is False else ["a single-DM team has a witness"]
        first = ref.first_witness(self.a)
        if not rep["found"] or first is None or (rep["index_a"], rep["index_b"]) != first:
            return [f"witness {rep.get('index_a')},{rep.get('index_b')}, expected {first}"]
        return []

    def _certify(self, rep):
        fail = []
        if rep["verdict"] != self.t.verdict:
            return [f"verdict {rep['verdict']!r}, built {self.t.verdict!r}"]
        ys = list(zip(*self.t.y_of_omega))
        if self.t.verdict == "convex":
            blocks = {}
            for w, key in enumerate(ys):
                blocks.setdefault(key, []).append(w)
            want = []
            for members in blocks.values():
                mass = float(sum(self.a.prior[w] for w in members))
                table = sum(self.a.prior[w] * self.a.cost[w] for w in members) / mass
                margin, pairs = ref.half_offset_min_margin(table)
                want.append((mass, pairs, float(margin)))
            got = sorted((r["mass"], r["n_pairs"], r["min_margin"]) for r in rep["certificate"])
            want.sort()
            if len(got) != len(want):
                return [f"{len(got)} join blocks, expected {len(want)}"]
            for (gm, gp, gmar), (wm, wp, wmar) in zip(got, want):
                if abs(gm - wm) > 1e-12 or gp != wp or abs(gmar - wmar) > 1e-10 * max(1.0, abs(wmar)):
                    fail.append(f"block of mass {wm:.6f}: ({gp} pairs, margin {gmar!r}), "
                                f"expected ({wp}, {wmar!r})")
            return fail
        cw = rep["cell_witness"]
        block = sorted(cw["block_labels"])
        if block not in _meet_blocks(ys):
            return [f"witness block {block} is not a meet block"]
        table = sum(self.a.prior[w] * self.a.cost[w] for w in block)
        table = table / float(sum(self.a.prior[w] for w in block))
        grids = [list(map(float, u)) for u in self.t.u_values]
        pos = [tuple(g.index(float(x)) for g, x in zip(grids, cw[key]))
               for key in ("u_a", "u_b", "u_mid")]
        if any(2 * m != a + b for a, b, m in zip(*pos)):
            fail.append("witness u_mid is not the midpoint")
        gap = table[pos[2]] - 0.5 * (table[pos[0]] + table[pos[1]])
        if not (gap > MIDPOINT_TOL and abs(cw["gap"] - gap) <= 1e-10 * max(1.0, abs(gap))):
            fail.append(f"cell witness gap {cw['gap']!r}, recomputed {gap!r}")
        return fail


def _meet_blocks(ys) -> list:
    """Blocks of the finest partition every DM's information refines."""
    n = len(ys)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for d in range(len(ys[0])):
        first = {}
        for w in range(n):
            j = first.setdefault(ys[w][d], w)
            parent[find(w)] = find(j)
    blocks = {}
    for w in range(n):
        blocks.setdefault(find(w), []).append(w)
    return sorted(blocks.values())


WORKLOADS = {w.name: w for w in (GaussianPbp(), LatticeCertify(), FiniteTeams())}
