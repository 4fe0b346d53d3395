"""Convexity analysis of static team problems on action lattices.

The exogenous information held by the DMs induces partitions of the
exogenous space; the cost conditioned on blocks of the finest common
coarsening (meet) and the coarsest common refinement (join) of those
partitions bounds the team's convexity properties from both sides:

* every join-conditional convex  =>  the team cost is convex in the
  profile (certified Convex);
* some positive-mass meet-conditional non-convex  =>  a common-knowledge
  cell carries a non-convex cost, which converts into two profiles whose
  mixture beats the midpoint policy (certified NotConvex);
* otherwise a direct search over candidate profile pairs either finds a
  midpoint violation (NotConvex) or the certification is Inconclusive.

Midpoints are taken on the action lattice: the test requires uniformly
spaced numeric action grids so that index midpoints are value midpoints.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .constants import MIDPOINT_TOL, STRICT_RATE, TABLE_CAP
from .errors import CapExceeded, NonNumericActions, StaticRequired, ValidationError
from .infostruct import (
    Partition,
    _observation,
    join,
    meet,
    precedence_graph,
    sigma_field_of,
)
from .model import DeterministicProfile, TeamProblem, expected_cost
from .quadrature import QuadMidpointReport
from . import solvers
from .solvers import seeded_profiles

_log = logging.getLogger(__name__)


class VerdictKind(Enum):
    CONVEX = "convex"
    NOT_CONVEX = "not-convex"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConditionalCost:
    """Expected cost conditioned on each positive-mass block of a
    partition of the exogenous space; tables are indexed by the joint
    action lattice."""

    block_indices: tuple
    masses: tuple
    tables: tuple
    skipped_blocks: tuple  # zero-mass blocks, by index


def conditional_cost(problem: TeamProblem, partition: Partition) -> ConditionalCost:
    if len(partition.ground) != len(problem.omega0):
        raise ValidationError(
            "partition ground has size "
            f"{len(partition.ground)}, expected {len(problem.omega0)}"
        )
    keep, masses, tables, skipped = [], [], [], []
    for b, mass, table in _block_costs(problem, partition):
        if table is None:
            skipped.append(b)
            continue
        keep.append(b)
        masses.append(mass)
        tables.append(table)
    return ConditionalCost(tuple(keep), tuple(masses), tuple(tables), tuple(skipped))


def _block_costs(problem: TeamProblem, partition: Partition):
    """(block index, mass, conditional cost table) block by block, built
    as they are asked for; a zero-mass block's table is None."""
    mu, cost = problem.prior.mass, problem.cost.table
    for b, block in enumerate(partition.blocks):
        idx = np.fromiter(block, dtype=int)
        mass = float(mu[idx].sum())
        yield b, mass, np.tensordot(mu[idx] / mass, cost[idx], axes=(0, 0)) if mass > 0.0 else None


@dataclass(frozen=True)
class GridViolation:
    index_a: tuple
    index_b: tuple
    index_mid: tuple
    value_a: float
    value_b: float
    value_mid: float
    gap: float  # value_mid - (value_a + value_b)/2, positive = violation


@dataclass(frozen=True)
class GridConvexityReport:
    passed: bool
    strict: bool
    min_margin: float
    n_pairs: int
    violation: Optional[GridViolation]


def _uniform_axes(axes: Sequence) -> list:
    out = []
    for x in axes:
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("each lattice axis must be a nonempty 1-D array")
        if arr.size > 1:
            d = np.diff(arr)
            span = max(abs(float(arr[-1] - arr[0])), 1.0)
            if np.abs(d - d[0]).max() > 1e-9 * span or d[0] <= 0:
                raise ValidationError(
                    "lattice axes must be strictly increasing with uniform spacing"
                )
        out.append(arr)
    return out


def _lead_offsets(shape: tuple):
    """Half-offsets h' of the leading axes whose first nonzero entry is
    positive, or all zero: each pair of lattice points with an on-lattice
    midpoint is (a, a + 2h) for exactly one h = (h', h_d) with h' among
    them (and h_d >= 1 when h' is zero), with a first in flat order."""
    ranges = [range(-((n - 1) // 2), (n - 1) // 2 + 1) for n in shape]
    zero = (0,) * len(shape)
    return (h for h in itertools.product(*ranges) if h >= zero)


def _offset_slices(n: int, h: int) -> tuple:
    """Slices of an axis of length n holding a, a + h and a + 2h for
    every a with both a and a + 2h in range(n)."""
    lo, m = max(0, -2 * h), n - 2 * abs(h)
    return tuple(slice(lo + j * h, lo + j * h + m) for j in range(3))


def _boxes(shape: tuple, budget: int):
    """Sub-boxes of the index box ``shape`` in C order, as tuples of
    slices over its leading axes: each holds at most ``budget`` cells,
    or one index of the axis it cuts when that alone is more."""
    p, inner = len(shape), 1
    while p and inner * shape[p - 1] <= budget:
        p -= 1
        inner *= shape[p]
    if not p:
        yield ()
        return
    step = max(1, budget // inner)
    for outer in np.ndindex(*shape[: p - 1]):
        for i in range(0, shape[p - 1], step):
            yield tuple(slice(j, j + 1) for j in outer) + (slice(i, i + step),)


def _windows(x: np.ndarray, H: int, fill: float) -> tuple:
    """Views of width 2H + 1 over the first axis of x: [m, ..., H + j]
    holds x at m + j in the first and at m - j in the second, ``fill``
    where that index leaves the axis."""
    pad = np.full((len(x) + 2 * H,) + x.shape[1:], fill)
    pad[H : H + len(x)] = x
    # sliding_window_view(pad, 2 * H + 1, axis=0), built without its checks
    fwd = np.ndarray(x.shape + (2 * H + 1,), buffer=pad, strides=pad.strides + pad.strides[:1])
    return fwd, fwd[..., ::-1]


def _pair_count(shape: tuple) -> int:
    """The pairs the scan visits, counted without scanning: points agreeing in parity
    on every axis, as ceil(n_i / 2)^2 + floor(n_i / 2)^2 ordered pairs do on axis i."""
    return (math.prod(((n + 1) // 2) ** 2 + (n // 2) ** 2 for n in shape) - math.prod(shape)) // 2


def grid_convexity_test(
    values: np.ndarray,
    axes: Sequence,
    tol: float = MIDPOINT_TOL,
) -> GridConvexityReport:
    """Check midpoint convexity of a table over a uniform action lattice.

    For every pair of lattice points whose index midpoint is on the
    lattice, the table value at the midpoint must not exceed the average
    of the endpoint values by more than ``tol``.  The report also states
    whether the margins were strict at rate STRICT_RATE per squared
    distance (informational only; certification never requires it).
    A table with a NaN or infinite value is refused (ValidationError).
    A pair is (a, a + 2h) with midpoint a + h.  Python loops over the
    half-offsets h' of the leading axes and bands of last-axis midpoints
    m.  A batch reads the table last axis first, through windows padded
    with +inf so that pairs leaving the lattice never fail, as cells
    (h_d, m, a') cut into chunks sized from the solvers' scan budget.  A
    chunk's worst gap comes from its least endpoint sum; only a chunk
    that takes the exact strictness test or may hold an earlier
    violation builds its gaps.  The reported violation is the first pair
    (a, a + 2h) in flat order.
    """
    values = np.asarray(values, dtype=float)
    grids = _uniform_axes(axes)
    shape = values.shape
    if shape != tuple(len(g) for g in grids):
        raise ValidationError(
            f"table shape {shape} does not match axes "
            f"{tuple(len(g) for g in grids)}"
        )
    if not np.isfinite(values).all():
        raise ValidationError("table has non-finite values")
    # on 2 cores a scan at the cap takes 2-3.3 s on a strictly convex table (3.0e8-5.1e8
    # pairs/s) and 2.1-4.2 s on a convex, not strictly convex one (2.4e8-4.7e8 pairs/s)
    pairs = CapExceeded.check(_pair_count(shape), 50 * TABLE_CAP)

    lead, n = shape[:-1], shape[-1]
    k, H = len(lead), (n - 1) // 2
    # the last axis first: a chunk's cells are laid out (h_d, m, a'), so the
    # least sum over the offsets is an elementwise minimum of contiguous rows
    last_first = values.transpose((k,) + tuple(range(k)))
    perm = (k + 1,) + tuple(range(k + 1))  # window views (m, a', h_d) to (h_d, m, a')
    fwd, rev = _windows(last_first, H, np.inf)
    d_max = float(np.ptp(grids[-1])) ** 2  # bounds every last-axis (u_a - u_b)^2
    u_fwd, u_rev = _windows(grids[-1], H, np.nan)  # NaN: a pair leaving the lattice
    # an eighth of the solvers' scan budget keeps a chunk (312 KB) in a core's cache:
    # 101 x 101 scans ran about 1.25x faster than at the full budget on 2 cores
    budget = solvers._SCAN_CELLS // 8

    min_margin, strict, first = np.inf, True, None
    chunks = cells = exact = searched = 0
    # n // 16 bands of midpoints (at most 8), each to its own largest half-offset,
    # once a batch without them would fill more than one chunk: bands add chunks
    nb = min(8, max(1, n // 16)) if values.size * n > budget else 1
    cuts = [n * i // nb for i in range(nb + 1)]

    for hl in _lead_offsets(lead):
        sl = [_offset_slices(m, x) for m, x in zip(lead, hl)]
        sa, sm, sb = tuple(zip(*sl)) or ((), (), ())
        # squared distances from the grid values, axis by axis
        lead_sq = [(g[s] - g[t]) ** 2 for g, s, t in zip(grids, sa, sb)]
        # no cell's strictness threshold exceeds this: rounding is monotone
        lead_max = sum(float(d.max()) for d in lead_sq)
        bound = STRICT_RATE * (lead_max + d_max) - tol
        lead_total = None

        for m0, m1 in zip(cuts, cuts[1:]):
            c = min(max(H, m0), m1 - 1)  # the band's midpoint farthest from both ends
            hb = min(c, n - 1 - c)
            # only h_d >= 1 when the leading offset is zero
            h0 = -hb if any(hl) else 1
            if h0 > hb:
                continue
            ms = slice(m0, m1)
            # the batch's cells as (h_d - h0, m - m0, a' - sa), a' innermost
            fa_all = rev[(ms,) + sa + (slice(H + h0, H + hb + 1),)].transpose(perm)
            fb_all = fwd[(ms,) + sb + (slice(H + h0, H + hb + 1),)].transpose(perm)
            fm_all = last_first[(ms,) + sm]

            for box in _boxes(fa_all.shape, budget):
                box += (slice(0, None),) * (k + 2 - len(box))
                gap = np.add(fa_all[box], fb_all[box], order="C")
                fm = fm_all[box[1:]]
                # fm - 0.5 * (fa + fb) falls as the sum rises, and so do its
                # roundings: the least sum gives the chunk's worst gap exactly
                worst = float((fm - 0.5 * gap.min(axis=0)).max())
                chunks, cells = chunks + 1, cells + gap.size
                min_margin = min(min_margin, -worst)
                check = strict and not -worst >= bound
                if not (check or worst > tol):
                    continue
                # the chunk's least h_d and m, its least a', and the least (a, b) it can hold
                hc, mc = h0 + box[0].start, m0 + box[1].start
                corner = tuple(x.start + y.start for x, y in zip(sa, box[2:]))
                ad = max(0, mc - hc - len(gap) + 1)
                b = tuple(c + 2 * x for c, x in zip(corner, hl)) + (ad + 2 * hc,)
                least = (corner + (ad,), b)
                search = worst > tol and (first is None or least < (first.index_a, first.index_b))
                if not (check or search):
                    continue
                # fm - 0.5 * (fa + fb), the same roundings in one buffer
                gap *= 0.5
                np.subtract(fm, gap, out=gap)
                if check:
                    exact += 1
                    at = (slice(mc, mc + gap.shape[1]), slice(H + hc, H + hc + len(gap)))
                    d_last = (u_rev[at] - u_fwd[at]).T ** 2
                    # the offsets h_d whose least margin is below their largest threshold
                    top = STRICT_RATE * (lead_max + np.fmax.reduce(d_last, axis=1)) - tol
                    near = np.flatnonzero(~(-gap.reshape(len(gap), -1).max(axis=1) >= top))
                    if near.size:
                        if lead_total is None:  # summed axis by axis, then the last axis
                            lead_total = np.asarray(sum(np.ix_(*lead_sq)), dtype=float)
                        sq = lead_total[box[2:]] + d_last[near].reshape((near.size, -1) + (1,) * k)
                        strict = not np.any(-gap[near] < STRICT_RATE * sq - tol)
                if not search:
                    continue
                searched += 1
                # the first failing (a, b) of the chunk: least a', then a_d, then
                # h_d (nonzero runs in (h_d, m) order, so argmin takes the least)
                hit = (gap > tol).reshape(gap.shape[:2] + (-1,))
                r = int(np.argmax(hit.any(axis=(0, 1))))
                ji, mi = np.nonzero(hit[..., r])
                ad = mi + mc - (ji + hc)
                t = int(np.argmin(ad))
                i = np.unravel_index(r, gap.shape[2:])
                a = tuple(int(x) + c for x, c in zip(i, corner)) + (int(ad[t]),)
                h = hl + (int(ji[t]) + hc,)
                b = tuple(x + 2 * y for x, y in zip(a, h))
                if first is None or (a, b) < (first.index_a, first.index_b):
                    mid = tuple(x + y for x, y in zip(a, h))
                    first = GridViolation(
                        a, b, mid, float(values[a]), float(values[b]), float(values[mid]),
                        float(gap[(ji[t], mi[t]) + i]),
                    )

    _log.debug(
        "lattice scan: %d pairs, %d chunks, %d cells computed, "
        "%d exact-strictness chunks, %d searched chunks",
        pairs, chunks, cells, exact, searched,
    )
    if not np.isfinite(min_margin):
        min_margin = 0.0
    return GridConvexityReport(first is None, strict, float(min_margin), pairs, first)


@dataclass(frozen=True)
class CellWitness:
    """A common-knowledge block whose conditional cost fails midpoint
    convexity: actions u_a, u_b with on-lattice midpoint u_mid such that
    the conditional cost at u_mid exceeds the endpoint average."""

    block_index: int
    block_labels: tuple
    u_a: tuple
    u_b: tuple
    u_mid: tuple
    lam: float
    value_mid: float
    value_avg: float
    gap: float


@dataclass(frozen=True)
class MidpointReport(QuadMidpointReport):
    """Costs of two profiles and of their action-lattice midpoint; a
    positive ``violation`` means J(midpoint) exceeds the lam-average of
    J_a and J_b."""

    midpoint: DeterministicProfile
    snap_error: float
    profile_a: DeterministicProfile
    profile_b: DeterministicProfile


@dataclass(frozen=True)
class BlockRecord:
    block_index: int
    mass: float
    min_margin: float
    strict: bool
    n_pairs: int


@dataclass(frozen=True)
class ConvexityVerdict:
    kind: VerdictKind
    certificate: Optional[tuple]  # BlockRecords over the join partition
    cell_witness: Optional[CellWitness]
    policy_witness: Optional[MidpointReport]
    notes: tuple


def _numeric_u(problem: TeamProblem) -> list:
    return [u.numeric_values() for u in problem.u_spaces]


def policy_midpoint_test(
    problem: TeamProblem,
    profile_a: DeterministicProfile,
    profile_b: DeterministicProfile,
    lam: float = 0.5,
) -> MidpointReport:
    """Compare the cost of the action-wise midpoint policy against the
    cost average of two profiles.

    The numeric midpoint lam*u_a + (1-lam)*u_b is snapped to the nearest
    action grid point per measurement value (exact when both endpoints
    share parity on a uniform lattice); the realized snap error is
    reported."""
    u_vals = _numeric_u(problem)
    mid_actions = []
    snap_err = 0.0
    for d, vals in enumerate(u_vals):
        va = vals[profile_a.actions[d]]
        vb = vals[profile_b.actions[d]]
        target = lam * va + (1 - lam) * vb
        idx = np.abs(target[:, None] - vals[None, :]).argmin(axis=1)
        snap_err = max(snap_err, float(np.abs(vals[idx] - target).max(initial=0.0)))
        mid_actions.append(idx)
    mid = DeterministicProfile(mid_actions)
    ja = expected_cost(problem, profile_a)
    jb = expected_cost(problem, profile_b)
    jm = expected_cost(problem, mid)
    avg = lam * ja + (1 - lam) * jb
    return MidpointReport(ja, jb, jm, avg, jm - avg, lam, mid, snap_err, profile_a, profile_b)


def _mirror(
    problem: TeamProblem, profile: DeterministicProfile, dms: Sequence
) -> DeterministicProfile:
    """Reflect the action maps of the given DMs (1-based) through the
    center of their action grids."""
    actions = []
    for d, a in enumerate(profile.actions):
        if d + 1 in dms:
            actions.append(len(problem.u_spaces[d]) - 1 - a)
        else:
            actions.append(a.copy())
    return DeterministicProfile(actions)


def _mirror_pairs(problem: TeamProblem, profile: DeterministicProfile) -> list:
    """Pair a profile with each of its single-DM mirrors and its full
    mirror.  On symmetric grids the single-DM mirrors are the productive
    candidates: reflecting one DM's policy while the others keep theirs
    breaks the coordination the endpoints relied on, so the midpoint
    policy (the mirrored DM silent, the rest unchanged) can cost far
    more than either endpoint."""
    subsets = [(i,) for i in range(1, problem.n_dms + 1)]
    if problem.n_dms > 1:
        subsets.append(tuple(range(1, problem.n_dms + 1)))
    return [(profile, _mirror(problem, profile, dms)) for dms in subsets]


def default_pair_candidates(
    problem: TeamProblem, seed: int = 0, n_random: int = 8
) -> list:
    """Deterministic candidate profile pairs for the direct midpoint
    search: threshold ("quantizer") profiles at a few magnitudes when
    measurements are numeric, plus seeded random profiles, each paired
    with its partial and full action-grid mirror images (so that for
    symmetric grids the midpoint policy sits at the central action for
    the mirrored DMs)."""
    try:
        u_vals = _numeric_u(problem)
    except NonNumericActions:
        return []
    pairs = []

    try:
        y_vals = [y.numeric_values() for y in problem.y_spaces]
    except NonNumericActions:
        y_vals = None
    if y_vals is not None:
        for frac in (0.25, 0.5, 1.0):
            for orient in (1.0, -1.0):
                actions = []
                for d, vals in enumerate(u_vals):
                    signs = orient * np.sign(y_vals[d])
                    if not signs.any():
                        # a DM with no sign information would be pinned
                        # at the grid center, where mirrors do nothing;
                        # explore a nonzero constant instead
                        signs = np.ones_like(signs)
                    target = frac * np.abs(vals).max() * signs
                    idx = np.abs(target[:, None] - vals[None, :]).argmin(axis=1)
                    actions.append(idx)
                pairs.extend(
                    _mirror_pairs(problem, DeterministicProfile(actions))
                )

    for profile in seeded_profiles(problem, seed, n_random):
        pairs.extend(_mirror_pairs(problem, profile))
    return pairs


def certify_team_convexity(
    problem: TeamProblem,
    seed: int = 0,
    pair_candidates: Optional[Sequence] = None,
) -> ConvexityVerdict:
    """Certify convexity or non-convexity of a static team problem.

    Phase 1 tests the cost conditioned on every positive-mass block of
    the join of the DMs' information partitions; all convex certifies
    Convex.  Phase 2 tests the meet conditionals; a violation on a
    positive-mass block certifies NotConvex with a cell witness.  Phase
    3 searches candidate profile pairs for a midpoint-cost violation
    (NotConvex with a policy witness).  Otherwise Inconclusive.

    Requires a static problem (reduce dynamic problems first) with
    deterministic measurements and uniformly spaced numeric action
    grids.
    """
    if precedence_graph(problem):
        raise StaticRequired(
            "convexity certification requires a static problem; apply the "
            "static reduction first"
        )
    u_vals = _numeric_u(problem)
    partitions = [sigma_field_of(problem, k) for k in range(1, problem.n_dms + 1)]
    notes = []

    # tables are built block by block, so the first failing join block ends the phase
    records, skipped = [], 0
    for b, mass, table in _block_costs(problem, join(*partitions)):
        if table is None:
            skipped += 1
            continue
        rep = grid_convexity_test(table, u_vals)
        if not rep.passed:
            notes.append(
                f"join block {b} fails midpoint convexity by {rep.violation.gap:.3e}"
            )
            break
        records.append(BlockRecord(b, mass, rep.min_margin, rep.strict, rep.n_pairs))
    else:
        if skipped:
            notes.append(f"{skipped} zero-mass join blocks skipped")
        return ConvexityVerdict(
            VerdictKind.CONVEX, tuple(records), None, None, tuple(notes)
        )

    def action_labels(index: tuple) -> tuple:
        return tuple(u.points[i] for u, i in zip(problem.u_spaces, index))

    common = meet(*partitions)
    for b, _, table in _block_costs(problem, common):
        if table is None:
            continue
        rep = grid_convexity_test(table, u_vals)
        if rep.passed:
            continue
        v = rep.violation
        witness = CellWitness(
            b,
            tuple(problem.omega0.points[i] for i in common.blocks[b]),
            action_labels(v.index_a),
            action_labels(v.index_b),
            action_labels(v.index_mid),
            0.5,
            v.value_mid,
            0.5 * (v.value_a + v.value_b),
            v.gap,
        )
        notes.append(f"meet block {b} carries a non-convex conditional cost")
        return ConvexityVerdict(VerdictKind.NOT_CONVEX, None, witness, None, tuple(notes))

    notes.append("all positive-mass meet conditionals pass midpoint convexity")
    candidates = (
        list(pair_candidates)
        if pair_candidates is not None
        else default_pair_candidates(problem, seed=seed)
    )
    for pa, pb in candidates:
        rep = policy_midpoint_test(problem, pa, pb)
        if rep.violation > MIDPOINT_TOL:
            notes.append(
                f"profile pair with midpoint cost {rep.value_mid:.6g} beats "
                f"average {rep.value_avg:.6g}"
            )
            return ConvexityVerdict(
                VerdictKind.NOT_CONVEX, None, None, rep, tuple(notes)
            )
    notes.append(
        f"no violation among {len(candidates)} candidate profile pairs"
    )
    return ConvexityVerdict(VerdictKind.INCONCLUSIVE, None, None, None, tuple(notes))


def replay_cell_witness(problem: TeamProblem, witness: CellWitness) -> MidpointReport:
    """Convert a cell witness into a profile-pair midpoint violation.

    Builds two profiles that play the witness actions on the block (the
    block is common knowledge, hence measurable for every DM) and a
    shared default elsewhere; the resulting midpoint-cost violation
    equals the block mass times the witness gap, up to rounding."""
    dms = range(1, problem.n_dms + 1)
    common = meet(*(sigma_field_of(problem, k) for k in dms))
    positive = problem.prior.mass > 0
    inside = positive & (common.block_index() == witness.block_index)
    actions_a, actions_b = [], []
    for k in dms:
        y, ny = _observation(problem, k), len(problem.y_spaces[k - 1])
        # a measurement plays the witness actions when every positive-prior
        # point producing it lies in the block (and at least one does)
        hits = np.bincount(y[inside], minlength=ny)
        play = (hits > 0) & (hits == np.bincount(y[positive], minlength=ny))
        space = problem.u_spaces[k - 1]
        actions_a.append(np.where(play, space.index(witness.u_a[k - 1]), 0))
        actions_b.append(np.where(play, space.index(witness.u_b[k - 1]), 0))
    return policy_midpoint_test(
        problem,
        DeterministicProfile(actions_a),
        DeterministicProfile(actions_b),
        lam=witness.lam,
    )
