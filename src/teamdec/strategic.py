"""Strategic measures: joints on (omega0, y1, u1, ..., yN, uN).

A deterministic profile induces one such joint; private randomization
induces another; convex combinations of induced joints model common
randomness.  Membership in the individually-randomized class is decided
by two conditional equalities, checked per decision maker:

  (a) the measurement conditional given the past equals the problem's
      kernel row, and
  (b) the action conditional given the past and the current measurement
      depends on the current measurement only.

Point-mass action conditionals sharpen (b) to the deterministic class.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constants import ENUM_CAP, EQ_TOL, TABLE_CAP
from .errors import (
    CapExceeded,
    NonMember,
    NotClassical,
    ValidationError,
)
from .infostruct import _static_rows, nested_along_order
from .model import (
    DeterministicProfile,
    RandomizedProfile,
    TeamProblem,
    _full_joint,
    _masses,
    _readonly,
    induced_joint,
)
from .solvers import _profile_maps, iter_profiles

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StrategicMeasure:
    """A normalized joint over the full product space of a problem.

    Nonnegativity and total mass are enforced at construction (masses
    are divided by their sum when within INPUT_MASS_TOL of 1).  Whether
    the exogenous marginal matches the prior is part of membership
    checking, so perturbed candidates remain constructible.
    """

    problem: TeamProblem
    joint: np.ndarray = field(repr=False)
    origin: Optional[str] = None

    def __init__(self, problem: TeamProblem, joint, origin: Optional[str] = None):
        j = np.asarray(joint, dtype=float)
        if j.shape != problem.joint_shape():
            raise ValidationError(
                f"joint shape {j.shape} != {problem.joint_shape()}"
            )
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "joint", _masses(j.reshape(-1), "joint").reshape(j.shape))
        object.__setattr__(self, "origin", origin)

    def exogenous_marginal(self) -> np.ndarray:
        axes = tuple(range(1, self.joint.ndim))
        return self.joint.sum(axis=axes)

    def expected_cost(self) -> float:
        n = self.problem.n_dms
        cost_sub = [0] + [2 * k for k in range(1, n + 1)]
        return float(
            np.einsum(
                self.joint, list(range(2 * n + 1)),
                self.problem.cost.table, cost_sub,
                [],
            )
        )


@dataclass(frozen=True)
class FailureRecord:
    """One membership failure: which DM, which condition, where."""

    dm: int  # 0 marks the exogenous-marginal condition
    condition: str  # "prior", "measurement", "policy", or "point-mass"
    where: tuple  # labels of the offending history (and y, u when relevant)
    deviation: float


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    failures: tuple


def induce_LA(problem: TeamProblem, profile: DeterministicProfile) -> StrategicMeasure:
    """The joint induced by a deterministic profile."""
    return StrategicMeasure(
        problem, induced_joint(problem, profile), origin="deterministic"
    )


def induce_LR(problem: TeamProblem, profile: RandomizedProfile) -> StrategicMeasure:
    """The joint induced by privately randomized policies."""
    return StrategicMeasure(
        problem, induced_joint(problem, profile), origin="randomized"
    )


def mix(measures: Sequence[StrategicMeasure], weights) -> StrategicMeasure:
    """Convex combination of strategic measures on one problem."""
    if not measures:
        raise ValidationError("nothing to mix")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(measures),):
        raise ValidationError(f"{len(measures)} measures vs weights {w.shape}")
    w = _masses(w, "weight vector")
    base = measures[0].problem
    for m in measures[1:]:
        if m.problem is not base and m.problem.joint_shape() != base.joint_shape():
            raise ValidationError("measures live on different problems")
    joint = sum(wi * m.joint for wi, m in zip(w, measures))
    return StrategicMeasure(base, joint, origin="mixture")


def _joint_spaces(problem: TeamProblem) -> list:
    """The spaces of the joint's axes: omega0, y1, u1, ..., yN, uN."""
    spaces = [problem.omega0]
    for k in range(problem.n_dms):
        spaces += [problem.y_spaces[k], problem.u_spaces[k]]
    return spaces


def _conditional(table: np.ndarray) -> tuple:
    """The conditional along the last axis, and ``seen``, the mask of
    positive sums (that axis kept with length 1).  A zero-sum row comes
    back as a point mass on index 0."""
    total = table.sum(axis=-1, keepdims=True)
    seen = total > 0
    cond = np.divide(table, total, out=np.zeros_like(table), where=seen)
    np.copyto(cond[..., :1], 1.0, where=~seen)
    return cond, seen


def aggregate_policy(measure: StrategicMeasure, dm: int) -> np.ndarray:
    """The measure's action conditional for DM ``dm`` given its own
    measurement (marginalizing the rest of the past).  Zero-mass rows
    come back as point masses on action 0."""
    j, n = measure.joint, measure.problem.n_dms
    y_ax, u_ax = 2 * dm - 1, 2 * dm
    other = tuple(a for a in range(2 * n + 1) if a not in (y_ax, u_ax))
    return _conditional(j.sum(axis=other))[0]  # (|Y_dm|, |U_dm|)


def check_membership_LR(measure: StrategicMeasure) -> MembershipVerdict:
    """Decide membership in the individually-randomized class.

    Verifies the exogenous marginal against the prior, then conditions
    (a) and (b) for each decision maker on every positive-mass history.
    A condition's failure names its first violation in C order and
    reports its largest deviation.
    """
    problem, j = measure.problem, measure.joint
    n = problem.n_dms
    spaces = _joint_spaces(problem)
    failures = []

    dev = np.abs(measure.exogenous_marginal() - problem.prior.mass)
    if dev.max(initial=0.0) > EQ_TOL:
        w = int(np.argmax(dev))
        failures.append(
            FailureRecord(0, "prior", (problem.omega0.points[w],), float(dev[w]))
        )

    for k in range(1, n + 1):
        tail = tuple(range(2 * k + 1, 2 * n + 1))
        with_u = j.sum(axis=tail) if tail else j  # (.., y_k, u_k)
        cond_y, seen_h = _conditional(with_u.sum(axis=-1))  # P(y_k | h)
        cond_u, seen_hy = _conditional(with_u)  # P(u_k | h, y_k)
        # the kernel (omega, u1..u_{k-1}, y_k), spread over the history's y-axes
        kern = np.expand_dims(problem.kernels[k - 1].table, tuple(range(1, 2 * k - 1, 2)))
        for condition, dev, seen in (
            ("measurement", np.abs(cond_y - kern), seen_h),  # (a)
            ("policy", np.abs(cond_u - aggregate_policy(measure, k)), seen_hy),  # (b)
        ):
            viol = (dev > EQ_TOL) & seen
            if viol.any():
                where = tuple(s.points[i] for s, i in zip(spaces, np.argwhere(viol)[0]))
                failures.append(FailureRecord(k, condition, where, float(dev[viol].max())))

    return MembershipVerdict(not failures, tuple(failures))


def check_membership_LA(measure: StrategicMeasure) -> MembershipVerdict:
    """Membership in the deterministic class: the randomized conditions
    plus point-mass action conditionals on positive-mass measurements."""
    verdict = check_membership_LR(measure)
    failures = list(verdict.failures)
    n = measure.problem.n_dms
    for k in range(1, n + 1):
        # zero-mass rows come back as point masses and never fail
        top = aggregate_policy(measure, k).max(axis=1)
        bad = np.flatnonzero(top < 1.0 - EQ_TOL)
        if bad.size:
            y = int(bad[0])
            failures.append(
                FailureRecord(
                    k,
                    "point-mass",
                    (measure.problem.y_spaces[k - 1].points[y],),
                    1.0 - float(top[y]),
                )
            )
    return MembershipVerdict(not failures, tuple(failures))


def check_membership_LM(measure: StrategicMeasure) -> bool:
    """Membership in the conditional-independence relaxation, defined for
    static problems (StaticRequired otherwise): the (omega0,
    measurements) marginal must match the problem's, and each DM's
    action given all measurements must depend on its own measurement
    only.
    """
    problem, j = measure.problem, measure.joint
    n = problem.n_dms
    operands = [problem.prior.mass, [0]]
    for k in range(1, n + 1):
        operands += [_static_rows(problem, k), [0, k]]
    ref = np.einsum(*operands, list(range(n + 1)))
    marg_y = j.sum(axis=tuple(2 * k for k in range(1, n + 1)))  # (omega, y1..yN)
    if np.max(np.abs(marg_y - ref)) > EQ_TOL:
        return False

    for k in range(1, n + 1):
        drop = (0,) + tuple(2 * m for m in range(1, n + 1) if m != k)
        tab = j.sum(axis=drop)  # (y1, ..., yN, u_k)
        cond_all, seen = _conditional(tab)  # P(u_k | y1, ..., yN)
        own_axes = tuple(a for a in range(n) if a != k - 1)
        cond_own, _ = _conditional(tab.sum(axis=own_axes))  # P(u_k | y_k)
        dev = np.abs(cond_all - np.expand_dims(cond_own, own_axes))
        if ((dev > EQ_TOL) & seen).any():
            return False
    return True


def _profile_count(problem: TeamProblem, cap: int) -> int:
    """The number of deterministic profiles, after checking that it is at
    most ``cap`` and that their joints together hold at most TABLE_CAP
    cells (CapExceeded otherwise)."""
    count = problem.n_deterministic_profiles()
    if count > cap:
        raise CapExceeded(count, cap)
    cells = count * math.prod(problem.joint_shape())
    if cells > TABLE_CAP:
        raise CapExceeded(cells, TABLE_CAP)
    return count


def enumerate_LA(problem: TeamProblem, cap: int = ENUM_CAP) -> list:
    """All deterministic-profile measures, in lexicographic profile order
    (DM 1's map most significant; within a map, measurement index 0 most
    significant).  Raises CapExceeded when the count would exceed ``cap``,
    or when the joints together would hold more than TABLE_CAP cells."""
    _profile_count(problem, cap)
    return [induce_LA(problem, prof) for prof in iter_profiles(problem)]


@dataclass(frozen=True)
class NonconvexityWitness:
    """Two deterministic-profile measures whose midpoint leaves the
    individually-randomized class."""

    index_a: int
    index_b: int
    lam: float
    midpoint: StrategicMeasure
    verdict: MembershipVerdict


def _pairs_across_dms(maps: list):
    """Lexicographic pairs (a, b), a < b, of rows of the decoded profile
    ``maps`` (per DM, one row per profile) whose maps differ for at least
    two DMs."""
    maps = [m for m in maps if (m != m[:1]).any()]  # DMs whose map varies
    if len(maps) < 2:
        return  # no two profiles differ in two DMs' maps
    for a in range(len(maps[0])):
        differ = sum((m[a + 1:] != m[a]).any(axis=1) for m in maps)
        for b in (a + 1 + np.flatnonzero(differ >= 2)).tolist():
            yield a, b


def find_nonconvexity_witness(
    problem: TeamProblem, cap: int = ENUM_CAP, lam: float = 0.5
) -> Optional[NonconvexityWitness]:
    """First pair (in lexicographic pair order) of deterministic-profile
    measures whose lam-mixture fails randomized membership; None when
    every pair mixes inside the class.

    Only pairs whose profiles differ in at least two DMs' maps are mixed
    and checked.  When two profiles differ in one DM's map only, the
    induced joint is linear in that DM's policy, so their mixture is the
    measure induced when that DM alone randomizes privately between its
    two maps: it lies in the class and is never a witness.  Skipping
    those pairs leaves the first reported pair unchanged.  A profile's
    measure is induced when a tested pair first needs it, so a search
    that stops early induces only the profiles it has mixed; the caps
    are checked for all of them before any is decoded or induced."""
    count = _profile_count(problem, cap)
    maps = _profile_maps(problem.y_spaces, problem.u_spaces, 0, count)
    measures = {}  # profile index -> its induced measure

    def measure(i: int) -> StrategicMeasure:
        if i not in measures:
            measures[i] = induce_LA(problem, DeterministicProfile([m[i] for m in maps]))
        return measures[i]

    walked, tested, witness = count * (count - 1) // 2, 0, None
    for a, b in _pairs_across_dms(maps):
        tested += 1
        mid = mix([measure(a), measure(b)], [lam, 1.0 - lam])
        verdict = check_membership_LR(mid)
        if not verdict.member:
            witness = NonconvexityWitness(a, b, lam, mid, verdict)
            # rows 0..a-1 hold a(2P - a - 1)/2 pairs; (a, b) is b - a into row a
            walked = a * (2 * count - a - 1) // 2 + (b - a)
            break
    _log.debug(
        "witness search: %d profiles, %d pairs tested, %d pairs skipped, "
        "%d joints induced",
        count, tested, walked - tested, len(measures),
    )
    return witness


@dataclass(frozen=True)
class HistoryProfile:
    """Behavioral kernels on full histories: DM k's kernel has axes
    (y1, u1, ..., y_{k-1}, u_{k-1}, y_k, u_k)."""

    kernels: tuple

    def __init__(self, kernels: Sequence):
        object.__setattr__(self, "kernels", tuple(_readonly(m) for m in kernels))


def induce_history_profile(problem: TeamProblem, hp: HistoryProfile) -> StrategicMeasure:
    """Joint induced by history-dependent behavioral kernels."""
    joint = _full_joint(problem, hp.kernels, lambda k: list(range(1, 2 * k + 1)))
    return StrategicMeasure(problem, joint, origin="history-profile")


def realize_midpoint_classical(
    problem: TeamProblem,
    p1: StrategicMeasure,
    p2: StrategicMeasure,
    lam: float = 0.5,
) -> HistoryProfile:
    """Realize a mixture of two randomized-class measures as one
    history-dependent behavioral profile, on a problem whose information
    is nested along the decision order.

    The returned kernels are the mixture's own action conditionals given
    the full measurement/action past; re-inducing with them reproduces
    the mixture exactly (chain rule), which is what makes the mixture
    implementable once each DM also sees its predecessors' data.
    """
    if not nested_along_order(problem):
        raise NotClassical(
            "information is not nested along the decision order"
        )
    for name, p in (("first", p1), ("second", p2)):
        if not check_membership_LR(p).member:
            raise NonMember(f"{name} measure is not individually randomized")
    if not (0.0 <= lam <= 1.0):
        raise ValidationError(f"lambda {lam} outside [0, 1]")
    mixed = mix([p1, p2], [lam, 1.0 - lam])
    n = problem.n_dms
    kernels = []
    for k in range(1, n + 1):
        tail = tuple(range(2 * k + 1, 2 * n + 1))
        t = mixed.joint.sum(axis=tail) if tail else mixed.joint
        t = t.sum(axis=0)  # drop omega0: kernels see data only
        kernels.append(_conditional(t)[0])  # unreachable history: action 0
    return HistoryProfile(kernels)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Inverse-CDF realization of one behavioral kernel.

    For each measurement index the unit interval is split into
    consecutive half-open pieces following the action order; the piece
    for action u has length exactly equal to the kernel mass at u.
    """

    kernel: np.ndarray
    cum: np.ndarray  # per-row cumulative masses, shape (|Y|, |U|)

    def action(self, r: float, y: int) -> int:
        """Action index for randomization draw r in [0, 1)."""
        if not (0.0 <= r < 1.0):
            raise ValidationError(f"draw {r} outside [0, 1)")
        j = int(np.searchsorted(self.cum[y], r, side="right"))
        if j >= self.kernel.shape[1]:
            j = int(np.flatnonzero(self.kernel[y] > 0)[-1])
        return j

    def intervals(self, y: int) -> list:
        """Positive-length pieces as (low, mass, action-index); the piece
        covers [low, low + mass) and its reported length is the kernel
        mass itself."""
        out = []
        lo = 0.0
        for u, m in enumerate(self.kernel[y]):
            if m > 0.0:
                out.append((lo, float(m), u))
            lo = float(self.cum[y, u])
        return out


def realize_kernel_as_function(kernel) -> ThresholdPolicy:
    """Uniform-randomization realization of a behavioral kernel: a map
    (draw, measurement) -> action whose draw-measure of each action set
    equals the kernel mass, by construction of the intervals."""
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2:
        raise ValidationError("kernel must be a (|Y|, |U|) array")
    k = _masses(k, "kernel row")
    return ThresholdPolicy(k, np.cumsum(k, axis=1))


def uniform_realization_mixture(problem: TeamProblem, profile: RandomizedProfile) -> list:
    """Write a randomized profile as a finite mixture of deterministic
    profiles using the threshold realization: per DM, the unit interval
    splits at the union of that DM's row breakpoints; a joint interval
    combination picks one deterministic map per DM.

    Returns [(weight, DeterministicProfile), ...] with weights summing
    to 1 up to float rounding.
    """
    per_dm = []
    for k, kern in enumerate(profile.matrices(problem)):
        pol = realize_kernel_as_function(kern)
        cuts = np.unique(np.concatenate([[0.0], pol.cum.ravel(), [1.0]]))
        cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
        pieces = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # the piece lies inside one action segment per row
            actions = [pol.action(lo, y) for y in range(kern.shape[0])]
            pieces.append((float(hi - lo), np.array(actions, dtype=int)))
        per_dm.append(pieces)
    out = []
    for combo in itertools.product(*per_dm):
        w = 1.0
        maps = []
        for weight, actions in combo:
            w *= weight
            maps.append(actions)
        if w > 0.0:
            out.append((w, DeterministicProfile(maps)))
    return out
