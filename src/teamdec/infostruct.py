"""Information structures: partitions, precedence, and classification.

Measurement information is compared through partitions.  For a static
deterministic measurement the partition lives on the exogenous space.
Dynamic and noisy measurements are compared on "support atoms": a pair
of measurement values co-occurs when some positive-prior exogenous point
and some action history give both values positive probability at once
(measurement noises are independent across decision makers, so every
in-support combination occurs).  DM i's information refines DM k's
exactly when each of DM i's values co-occurs with at most one of DM k's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import EQ_TOL
from .errors import (
    GroundMismatch,
    MalformedAnnotation,
    NonDeterministicMeasurement,
    StaticRequired,
    ValidationError,
)
from .model import (
    FiniteSpace,
    RandomizedProfile,
    TeamProblem,
    _compact,
    _dm_index,
    induced_joint,
)


class ISClass(Enum):
    STATIC = "static"
    CLASSICAL = "classical"
    PARTIALLY_NESTED = "partially-nested"
    NONCLASSICAL = "nonclassical"


@dataclass(frozen=True)
class Partition:
    """A partition of a FiniteSpace, held in canonical form: blocks are
    sorted tuples of point indices, ordered by least element."""

    ground: FiniteSpace
    blocks: tuple

    def __init__(self, ground: FiniteSpace, blocks):
        canon = sorted(tuple(sorted(set(b))) for b in blocks if len(b) > 0)
        seen = [i for b in canon for i in b]
        if sorted(seen) != list(range(len(ground))):
            raise ValidationError(
                f"blocks do not partition ground set {ground.name!r}"
            )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "blocks", tuple(canon))

    @staticmethod
    def from_labels(ground: FiniteSpace, label_of) -> "Partition":
        """Partition by the value of ``label_of(point_index)``."""
        groups: dict = {}
        for i in range(len(ground)):
            groups.setdefault(label_of(i), []).append(i)
        return Partition(ground, groups.values())

    @staticmethod
    def from_codes(ground: FiniteSpace, codes: np.ndarray) -> "Partition":
        """Partition by an integer label per point, grouped by a stable
        sort: the groups come out sorted and covering, so are not checked."""
        if len(codes) != len(ground):
            raise ValidationError(f"blocks do not partition ground set {ground.name!r}")
        order = np.argsort(codes, kind="stable")
        cuts = np.flatnonzero(np.diff(codes[order])) + 1
        blocks = sorted(tuple(b.tolist()) for b in np.split(order, cuts))
        out = object.__new__(Partition)
        object.__setattr__(out, "ground", ground)
        object.__setattr__(out, "blocks", tuple(blocks))
        return out

    def block_index(self) -> np.ndarray:
        """Array mapping each ground index to its block's position."""
        out = np.empty(len(self.ground), dtype=int)
        for j, b in enumerate(self.blocks):
            out[list(b)] = j
        return out

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        _check_ground(self, other)
        coarse = other.block_index()
        return all(len({coarse[i] for i in b}) == 1 for b in self.blocks)


def _check_ground(p: Partition, *rest: Partition) -> None:
    for q in rest:
        if p.ground.points != q.ground.points:
            raise GroundMismatch(
                f"partitions on {p.ground.name!r} and {q.ground.name!r}"
            )


def meet(p: Partition, *rest: Partition) -> Partition:
    """Finest common coarsening of any number of partitions: connected
    components of block overlap."""
    _check_ground(p, *rest)
    own, m = p.block_index(), len(p.blocks)
    parent = list(range(m))  # union-find over the blocks of p

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for q in rest:
        # the blocks of p that one block of q meets, adjacent in (q block, p block) order
        qb, pb = np.divmod(np.sort(q.block_index() * m + own), m)
        for i in np.flatnonzero((qb[1:] == qb[:-1]) & (pb[1:] != pb[:-1])).tolist():
            parent[find(int(pb[i + 1]))] = find(int(pb[i]))  # union the two roots
    return Partition.from_codes(p.ground, np.array([find(i) for i in range(m)])[own])


def join(p: Partition, *rest: Partition) -> Partition:
    """Coarsest common refinement of any number of partitions: nonempty
    intersections of one block from each."""
    _check_ground(p, *rest)
    code = np.zeros(len(p.ground), dtype=int)
    for q in (p, *rest):
        # the pair (code, block of q), renumbered densely so that codes stay below the ground size
        code = np.unique(code * len(q.blocks) + q.block_index(), return_inverse=True)[1]
    return Partition.from_codes(p.ground, code)


def affects(problem: TeamProblem, k: int, i: int) -> bool:
    """True iff some two histories differing only in u_k give DM i
    different measurement rows: DM i's stored kernel keeps the u_k axis
    (it cuts exactly the axes along which the table is constant)."""
    n = problem.n_dms
    if not (1 <= k < i <= n):
        raise ValidationError(f"need 1 <= k < i <= {n}, got k={k}, i={i}")
    return _compact(problem.kernels[i - 1].table).shape[k] > 1


def precedence_graph(problem: TeamProblem) -> tuple:
    """Directed edges (k, i), k < i, meaning DM k's action can change
    DM i's measurement distribution, ordered by i, then k."""
    n = problem.n_dms
    return tuple(
        (k, i) for i in range(2, n + 1) for k in range(1, i) if affects(problem, k, i)
    )


def _static_rows(problem: TeamProblem, dm: int) -> np.ndarray:
    """DM ``dm``'s kernel as an (|Omega|, |Y_dm|) table.  Raises
    StaticRequired, naming the first dependency, when an earlier action
    changes it."""
    rows = _compact(problem.kernels[_dm_index(problem, dm) - 1].table)
    kept = [k for k in range(1, dm) if rows.shape[k] > 1]
    if kept:
        raise StaticRequired(f"DM {dm}'s measurement depends on u{kept[0]}")
    return np.broadcast_to(rows.reshape(rows.shape[0], -1), (len(problem.omega0), rows.shape[-1]))


def _observation(problem: TeamProblem, dm: int) -> np.ndarray:
    """The measurement index each exogenous point produces.  Raises
    NonDeterministicMeasurement unless every row is a point mass."""
    rows = _static_rows(problem, dm)
    y = rows.argmax(axis=1)
    spread = rows[np.arange(len(y)), y] < 1.0 - EQ_TOL
    if spread.any():
        w = int(np.argmax(spread))
        raise NonDeterministicMeasurement(
            f"DM {dm}'s row at omega0={problem.omega0.points[w]!r} "
            f"is not a point mass"
        )
    return y


def sigma_field_of(problem: TeamProblem, dm: int) -> Partition:
    """Partition of the exogenous space induced by DM ``dm``'s measurement.

    Requires an action-independent measurement (StaticRequired
    otherwise) with point-mass rows (NonDeterministicMeasurement
    otherwise).
    """
    return Partition.from_codes(problem.omega0, _observation(problem, dm))


def information_nested(problem: TeamProblem, k: int, i: int) -> bool:
    """True iff DM i's information contains DM k's (k < i), compared on
    support atoms over positive-prior points and all action histories.

    C[v_i, v_k] holds when some atom gives DM i's value v_i and DM k's
    value v_k positive mass together; DM i refines DM k iff every row of
    C has at most one true entry."""
    n = problem.n_dms
    if not (1 <= k < i <= n):
        raise ValidationError(f"need 1 <= k < i <= {n}, got k={k}, i={i}")
    pos = problem.prior.mass > 0.0
    sup_k, sup_i = (_compact(problem.kernels[d - 1].table) > 0.0 for d in (k, i))
    # labels: omega 0, u_j j, y_k i, y_i i + 1; DM k's rows do not see u_k..u_{i-1}
    C = np.einsum(pos, [0], sup_k, [*range(k), i], sup_i, [*range(i), i + 1], [i + 1, i])
    return bool((C.sum(axis=1) <= 1).all())


def classify(problem: TeamProblem) -> ISClass:
    """Classify the information structure.

    Problems without precedence edges are static; among those, nested
    information along the DM order upgrades the label to classical (a
    single DM is classical vacuously).  Problems with edges are
    partially nested when every edge (k, i) has DM i's information
    refining DM k's, and nonclassical otherwise.
    """
    edges = precedence_graph(problem)
    if not edges:
        return ISClass.CLASSICAL if nested_along_order(problem) else ISClass.STATIC
    if all(information_nested(problem, k, i) for (k, i) in edges):
        return ISClass.PARTIALLY_NESTED
    return ISClass.NONCLASSICAL


def nested_along_order(problem: TeamProblem) -> bool:
    """All pairs k < i have DM i's information refining DM k's.  This is
    the gate used by the classical-midpoint realization; it covers both
    static nested structures and dynamic full-recall chains."""
    n = problem.n_dms
    return all(
        information_nested(problem, k, i)
        for i in range(2, n + 1)
        for k in range(1, i)
    )


def _conditional(table: np.ndarray) -> tuple:
    """The conditional along the last axis, and ``seen``, the mask of
    positive sums (that axis kept with length 1).  A zero-sum row comes
    back as a point mass on index 0."""
    total = table.sum(axis=-1, keepdims=True)
    seen = total > 0
    cond = np.divide(table, total, out=np.zeros_like(table), where=seen)
    np.copyto(cond[..., :1], 1.0, where=~seen)
    return cond, seen


def _deviation(table: np.ndarray, ref: np.ndarray) -> tuple:
    """|P(last axis | other axes) - ref|, and the positive-mass mask."""
    cond, seen = _conditional(table)
    return np.abs(cond - ref), seen


def _depends_only_on(table: np.ndarray, keep: tuple) -> bool:
    """Does the conditional of the last axis given the others depend on
    the axes ``keep`` only, to within EQ_TOL on positive mass?"""
    drop = tuple(a for a in range(table.ndim - 1) if a not in keep)
    dev, seen = _deviation(table, _conditional(table.sum(axis=drop, keepdims=True))[0])
    return not ((dev > EQ_TOL) & seen).any()


def test_conditional_independence(joint: np.ndarray) -> bool:
    """Is X independent of Z given Y, for a joint table over (X, Y, Z)?

    Checks P(x | y, z) = P(x | y) on every positive-mass (y, z), to
    within EQ_TOL.
    """
    j = np.asarray(joint, dtype=float)
    if j.ndim != 3:
        raise ValidationError(f"need a 3-axis joint, got shape {j.shape}")
    if np.any(j < 0) or not np.all(np.isfinite(j)):
        raise ValidationError("joint table must be nonnegative and finite")
    if j.sum() <= 0:
        raise ValidationError("joint table has zero total mass")
    return _depends_only_on(np.moveaxis(j, 0, -1), (0,))  # (Y, Z, X)


@dataclass(frozen=True)
class SubsystemAnnotation:
    """Decomposition of the exogenous space into per-DM subsystem states
    plus shared-signal factors.

    ``factor_sizes`` gives the mixed-radix factorization of the
    exogenous index (C order, leftmost factor slowest).  Each DM owns a
    disjoint set of state factors; ``shared_factors`` are visible to the
    whole team; leftover factors are noise, which the decoupling test
    sums out.
    """

    factor_sizes: tuple
    dm_state_factors: tuple  # per DM, tuple of factor positions
    shared_factors: tuple

    def __init__(self, factor_sizes, dm_state_factors, shared_factors):
        object.__setattr__(self, "factor_sizes", tuple(int(s) for s in factor_sizes))
        object.__setattr__(
            self, "dm_state_factors", tuple(tuple(f) for f in dm_state_factors)
        )
        object.__setattr__(self, "shared_factors", tuple(shared_factors))

    def validate_against(self, problem: TeamProblem) -> None:
        n_fac = len(self.factor_sizes)
        size = 1
        for s in self.factor_sizes:
            if s < 1:
                raise MalformedAnnotation(f"factor size {s} < 1")
            size *= s
        if size != len(problem.omega0):
            raise MalformedAnnotation(
                f"factor sizes multiply to {size}, exogenous space has "
                f"{len(problem.omega0)} points"
            )
        if len(self.dm_state_factors) != problem.n_dms:
            raise MalformedAnnotation(
                f"{len(self.dm_state_factors)} state-factor groups for "
                f"{problem.n_dms} DMs"
            )
        used: list = []
        for group in self.dm_state_factors + (self.shared_factors,):
            for f in group:
                if not (0 <= f < n_fac):
                    raise MalformedAnnotation(f"factor index {f} out of range")
                used.append(f)
        if len(used) != len(set(used)):
            raise MalformedAnnotation("factor groups overlap")


def is_stochastically_decoupled(
    problem: TeamProblem, annotation: SubsystemAnnotation
) -> bool:
    """Do the per-subsystem conditional-independence conditions hold?

    For each DM i the check is: its subsystem state is independent of
    the other subsystems' states, the shared factors, and the earlier
    DMs' measurements, given DM i's own measurement.  The joint is the
    exact closed loop under the uniform randomized profile (full
    support, so every reachable branch is exercised).
    """
    annotation.validate_against(problem)
    joint = induced_joint(problem, RandomizedProfile.uniform(problem))
    # split the exogenous axis into annotated factors
    joint = joint.reshape(tuple(annotation.factor_sizes) + joint.shape[1:])
    n_fac = len(annotation.factor_sizes)
    n = problem.n_dms

    def y_axis(k: int) -> int:  # k is 1-based
        return n_fac + 2 * (k - 1)

    for i in range(1, n + 1):
        x_axes = list(annotation.dm_state_factors[i - 1])
        if not x_axes:
            continue
        groups = annotation.dm_state_factors + (annotation.shared_factors,)
        given = sorted(
            [f for g in groups for f in g if f not in x_axes]
            + [y_axis(j) for j in range(1, i + 1)]
        )
        # sum down to (given..., X...) and flatten X into the last axis
        marg = np.einsum(joint, list(range(joint.ndim)), given + x_axes)
        tab = marg.reshape(marg.shape[: len(given)] + (-1,))
        if not _depends_only_on(tab, (given.index(y_axis(i)),)):
            return False
    return True
