"""Finite sequential team decision problems.

A problem has one exogenous variable, N decision makers acting once each
in a fixed order, a measurement kernel per decision maker (its row may
depend on the exogenous point and on all earlier actions), and a single
nonnegative cost indexed by the exogenous point and the action tuple.

Index-ordering convention used by every joint table in the package:

    (omega0, y1, u1, y2, u2, ..., yN, uN)

i.e. axis 0 is the exogenous point, DM k's measurement sits on axis
2k - 1 and its action on axis 2k.

Storage rule: a measurement kernel is stored at the size of what it
depends on, every history axis along which its table is exactly constant
cut to length 1.  Every computation in the package reads the stored rows
(``_compact``); ``MeasurementKernel.table`` is the read-only full-shape
view of them for readers outside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .constants import INPUT_MASS_TOL, TABLE_CAP
from .errors import CapExceeded, DimensionMismatch, NonNumericActions, ValidationError

# a fold handles a law with fewer than 1/_SPARSE of its cells nonzero cell by
# cell (``_live_cells``): the forward step, the response sum and the cost
# contraction's last step.  On the signaling team's DM 2 shapes (a 64 x 129
# law, 129 actions; x86, one BLAS thread) the cell-by-cell forward step and
# response sum won at 1/8 of the cells live and lost from 1/4 on, by 4-5x
# on a full law.  The contraction's last step forms only the live rows and
# scatters nothing: one expected_cost of the snapped affine profile took
# 1.14 ms with the whole last step and a BLAS dot, 0.19 ms on its live rows.
# Below about 10,000 cells of the next law the scatter's fixed cost (about
# 10 us) loses a few microseconds to the dense product; those calls are too
# cheap for a size floor to pay for a second rule
_SPARSE = 8
# kernel-row violations validate lists; past these it counts them.  Not a
# tolerance, so not in tolerances()
_LISTED = 100


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-ordered float array that no other array
    writes to: an array owning its data is frozen and kept, a view (whose
    base may still be written) is copied first."""
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    if out.base is not None:
        out = out.copy()
    out.setflags(write=False)
    return out


def _masses(table, what: str) -> np.ndarray:
    """``table`` as probabilities along its last axis: each slice divided
    by its sum.  ValidationError unless every mass is finite and
    nonnegative and every slice sums to 1 within INPUT_MASS_TOL."""
    t = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError(f"{what} has non-finite mass")
    if np.any(t < 0):
        raise ValidationError(f"{what} has negative mass")
    sums = t.sum(axis=-1, keepdims=True)
    off = np.abs(sums - 1.0) > INPUT_MASS_TOL
    if off.any():
        s = float(sums[off][0])
        raise ValidationError(f"{what} sums to {s!r}, outside tolerance {INPUT_MASS_TOL}")
    return _readonly(t / sums)


@dataclass(frozen=True)
class FiniteSpace:
    """A named, ordered, nonempty finite set of distinct point labels."""

    name: str
    points: tuple

    def __init__(self, name: str, points: Iterable):
        pts = tuple(points)
        if not pts:
            raise ValidationError(f"space {name!r} is empty")
        if len(set(pts)) != len(pts):
            raise ValidationError(f"space {name!r} has duplicate points")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def index(self, label) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise ValidationError(
                f"{label!r} is not a point of space {self.name!r}"
            ) from None

    def numeric_values(self) -> np.ndarray:
        """Point labels coerced to floats (for grid-embedded spaces)."""
        try:
            return np.array([float(p) for p in self.points])
        except (TypeError, ValueError):
            raise NonNumericActions(
                f"space {self.name!r} has non-numeric points"
            ) from None


@dataclass(frozen=True)
class Pmf:
    """A probability mass function on a FiniteSpace.

    Masses must be nonnegative and sum to 1 within INPUT_MASS_TOL; they
    are divided by their sum at construction.
    """

    space: FiniteSpace
    mass: np.ndarray = field(repr=False)

    def __init__(self, space: FiniteSpace, mass):
        m = np.asarray(mass, dtype=float)
        if m.shape != (len(space),):
            raise DimensionMismatch(
                f"pmf on {space.name!r}: got shape {m.shape}, "
                f"expected ({len(space)},)"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", _masses(m, f"pmf on {space.name!r}"))

    @staticmethod
    def uniform(space: FiniteSpace) -> "Pmf":
        n = len(space)
        return Pmf(space, np.full(n, 1.0 / n))


def _compact(table: np.ndarray) -> np.ndarray:
    """A kernel or static-reduction weight table in its stored form: the
    view with every stride-0 history axis cut to length 1, if it has any."""
    if 0 not in table.strides[:-1]:
        return table
    return table[tuple(slice(0, 1) if s == 0 else slice(None) for s in table.strides[:-1])]


@dataclass(frozen=True)
class MeasurementKernel:
    """DM ``dm``'s measurement: a stochastic table over its y-space.

    ``table`` has shape (|Omega0|, |U1|, ..., |U_{dm-1}|, |Y_dm|); the row
    for a history (omega0, u1, ..., u_{dm-1}) is the distribution of
    y_dm given that history.  ``TeamProblem`` checks the shape, and
    ``validate`` reports rows that are not probability vectors.

    Only the rows the kernel depends on are stored: each history axis
    along which the table is exactly constant is cut to length 1, and
    ``table`` is the read-only full-shape view of the stored rows, equal
    to the input value for value.  When nothing is cut, a C-contiguous
    float input that owns its data is itself frozen and kept, as
    ``CostTable`` does; a view is copied.
    """

    dm: int
    table: np.ndarray = field(repr=False)

    def __init__(self, dm: int, table):
        if dm < 1:
            raise ValidationError(f"dm index must be >= 1, got {dm}")
        t = np.atleast_1d(np.asarray(table, dtype=float))
        rows = _compact(t)  # a stride-0 axis is constant without a comparison
        zero = (0,) * rows.ndim
        for a in range(rows.ndim - 1):
            # one cell against the next along the axis first: most axes differ there
            if rows.shape[a] > 1 and rows.item(zero[:a] + (1,) + zero[a + 1 :]) == rows.item(zero):
                first = rows[(slice(None),) * a + (slice(0, 1),)]
                rows = first if (rows == first).all() else rows
        rows = _readonly(rows)  # a cut table is a view of the input, so copied
        object.__setattr__(self, "dm", int(dm))
        full = rows if rows.shape == t.shape else np.broadcast_to(rows, t.shape)
        object.__setattr__(self, "table", full)


@dataclass(frozen=True)
class CostTable:
    """Joint cost indexed by (omega0, u1, ..., uN), kept as ``_readonly``
    keeps it.  ``TeamProblem`` checks the shape; ``validate`` reports
    non-finite or negative values."""

    table: np.ndarray = field(repr=False)

    def __init__(self, table):
        object.__setattr__(self, "table", _readonly(table))


@dataclass(frozen=True)
class TeamProblem:
    """A finite N-decision-maker sequential team.  The constructor checks
    its structure (counts, kernel labels and shapes, cost shape, at most
    TABLE_CAP cells in each kernel and the cost, prior space) and raises
    at the first fault; ``validate`` reports values."""

    omega0: FiniteSpace
    prior: Pmf
    y_spaces: tuple
    u_spaces: tuple
    kernels: tuple
    cost: CostTable
    name: str = ""

    def __init__(self, omega0, prior, y_spaces, u_spaces, kernels, cost, name=""):
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "y_spaces", tuple(y_spaces))
        object.__setattr__(self, "u_spaces", tuple(u_spaces))
        object.__setattr__(self, "kernels", tuple(kernels))
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "name", str(name))
        if len(self.y_spaces) != len(self.u_spaces):
            raise DimensionMismatch(
                f"{len(self.y_spaces)} measurement spaces vs "
                f"{len(self.u_spaces)} action spaces"
            )
        if len(self.kernels) != len(self.y_spaces):
            raise DimensionMismatch(
                f"{len(self.kernels)} kernels vs {len(self.y_spaces)} DMs"
            )
        for k, kern in enumerate(self.kernels, 1):
            if kern.dm != k:
                raise ValidationError(f"kernel at position {k} is labeled dm={kern.dm}")
            want = self.kernel_shape(k)
            if kern.table.shape != want:
                raise DimensionMismatch(f"DM {k} kernel shape {kern.table.shape} != {want}")
        if cost.table.shape != self.cost_shape():
            raise DimensionMismatch(f"cost shape {cost.table.shape} != {self.cost_shape()}")
        for t in [k.table for k in self.kernels] + [cost.table]:
            CapExceeded.check(t.size, TABLE_CAP)
        if prior.space.points != omega0.points:
            raise ValidationError(f"prior is on {prior.space.name!r}, not on {omega0.name!r}")

    @property
    def n_dms(self) -> int:
        return len(self.y_spaces)

    def kernel_shape(self, k: int) -> tuple:
        """Expected table shape for DM k's kernel (k is 1-based)."""
        return (
            (len(self.omega0),)
            + tuple(len(self.u_spaces[j]) for j in range(k - 1))
            + (len(self.y_spaces[k - 1]),)
        )

    def cost_shape(self) -> tuple:
        return (len(self.omega0),) + tuple(len(u) for u in self.u_spaces)

    def joint_shape(self) -> tuple:
        shape = [len(self.omega0)]
        for k in range(self.n_dms):
            shape.append(len(self.y_spaces[k]))
            shape.append(len(self.u_spaces[k]))
        return tuple(shape)

    def n_deterministic_profiles(self) -> int:
        return math.prod(len(u) ** len(y) for y, u in zip(self.y_spaces, self.u_spaces))


def _dm_index(problem: TeamProblem, dm: int) -> int:
    """``dm`` if it names one of the problem's DMs (1-based), else
    ValidationError."""
    n = problem.n_dms
    if not (1 <= dm <= n):
        raise ValidationError(f"dm index {dm} out of range 1..{n}")
    return dm


def _check_policy_count(policies: Sequence, problem: TeamProblem) -> None:
    if len(policies) != problem.n_dms:
        raise DimensionMismatch(
            f"profile has {len(policies)} policies for {problem.n_dms} DMs"
        )


@dataclass(frozen=True)
class DeterministicProfile:
    """One pure policy per DM: an action index for each measurement index.
    Indices must be integers (bools count as 0 and 1): a float or a
    string, even "1" or 1.0, is refused rather than truncated."""

    actions: tuple  # per DM, an intp array of length |Y_k| with values in U_k

    def __init__(self, actions: Sequence):
        maps = []
        for a in actions:
            try:
                raw = np.asarray(a)
                integral = raw.size == 0 or raw.dtype.kind in "biu" or (
                    # Python ints too large for int64 make an object array
                    raw.dtype.kind == "O"
                    and all(isinstance(v, (int, np.integer)) for v in raw.flat)
                )
                # a copy: the caller's array stays writable and cannot change this one
                arr = np.array(raw, dtype=np.intp) if integral else None
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(
                    "each policy map must hold action indices that fit intp"
                ) from None
            if arr is None:
                raise ValidationError("each policy map must hold integer action indices")
            if arr.ndim != 1:
                raise ValidationError("each policy map must be a 1-D index array")
            arr.setflags(write=False)
            maps.append(arr)
        object.__setattr__(self, "actions", tuple(maps))

    def matrices(self, problem: TeamProblem) -> list:
        """One-hot (|Y_k|, |U_k|) stochastic matrices for this profile."""
        _check_policy_count(self.actions, problem)
        out = []
        for k, a in enumerate(self.actions):
            ny, nu = len(problem.y_spaces[k]), len(problem.u_spaces[k])
            if a.shape != (ny,) or a.min(initial=0) < 0 or a.max(initial=0) >= nu:
                raise DimensionMismatch(
                    f"DM {k + 1} policy map does not fit Y size {ny}, U size {nu}"
                )
            m = np.zeros((ny, nu))
            m[np.arange(ny), a] = 1.0
            out.append(m)
        return out


@dataclass(frozen=True)
class RandomizedProfile:
    """One private behavioral kernel per DM: rows are pmfs over actions."""

    kernels: tuple  # per DM, a (|Y_k|, |U_k|) row-stochastic array

    def __init__(self, kernels: Sequence):
        mats = []
        for m in kernels:
            arr = np.asarray(m, dtype=float)
            if arr.ndim != 2:
                raise ValidationError("each policy kernel must be a 2-D array")
            mats.append(_masses(arr, "policy kernel row"))
        object.__setattr__(self, "kernels", tuple(mats))

    def matrices(self, problem: TeamProblem) -> list:
        _check_policy_count(self.kernels, problem)
        for k, m in enumerate(self.kernels):
            ny, nu = len(problem.y_spaces[k]), len(problem.u_spaces[k])
            if m.shape != (ny, nu):
                raise DimensionMismatch(
                    f"DM {k + 1} policy kernel shape {m.shape} != ({ny}, {nu})"
                )
        return list(self.kernels)

    @staticmethod
    def uniform(problem: TeamProblem) -> "RandomizedProfile":
        mats = []
        for k in range(problem.n_dms):
            ny, nu = len(problem.y_spaces[k]), len(problem.u_spaces[k])
            mats.append(np.full((ny, nu), 1.0 / nu))
        return RandomizedProfile(mats)


@dataclass(frozen=True)
class Violation:
    """One validation finding: a machine-readable code plus location."""

    code: str
    where: tuple
    message: str


class Violations(list):
    """``validate``'s listing of Violations, and ``total``: how many
    violations it found, listed or not."""

    def __init__(self, listed: list, total: int):
        super().__init__(listed)
        self.total = total


def validate(problem: TeamProblem) -> Violations:
    """The value faults of a problem, whose structure its constructor has
    checked: each full history whose kernel row is not a probability
    vector (``kernel-row``), then the first non-finite cost
    (``cost-nonfinite``) or else the first negative one (``cost-negative``).
    Bad rows are counted first and only the first ``_LISTED`` (by DM, then
    history in C order) are listed; past that, one closing ``kernel-row``
    entry with an empty ``where`` states their count.  Empty iff the
    problem is valid."""
    out, bad_rows = [], 0
    for k in range(1, problem.n_dms + 1):
        table = problem.kernels[k - 1].table
        rows = _compact(table)  # each stored row is checked once, then reported per history
        sums = rows.sum(axis=-1)
        bad = (
            (np.abs(sums - 1.0) > INPUT_MASS_TOL)
            | (rows < 0).any(axis=-1)
            | ~np.isfinite(rows).all(axis=-1)
        )
        hist_shape = table.shape[:-1]
        # each stored row stands for as many histories as every other
        bad_rows += int(np.count_nonzero(bad)) * (math.prod(hist_shape) // bad.size)
        room = _LISTED - len(out)
        if room <= 0:
            continue
        sums = np.broadcast_to(sums, hist_shape)
        for b in np.flatnonzero(np.broadcast_to(bad, hist_shape))[:room]:
            idx = tuple(map(int, np.unravel_index(b, hist_shape)))
            labels = _history_labels(problem, k, idx)
            out.append(
                Violation(
                    "kernel-row",
                    (k,) + idx,
                    f"DM {k} kernel row at history {labels!r} sums to "
                    f"{float(sums[idx])!r} or has invalid entries",
                )
            )
    if bad_rows > _LISTED:
        out.append(Violation("kernel-row", (), f"{bad_rows} kernel rows in all are not "
                             f"probability vectors; the first {_LISTED} are listed"))
    kernel_entries = len(out)
    c = problem.cost.table
    if not np.all(np.isfinite(c)):
        where = tuple(map(int, np.unravel_index(int(np.argmax(~np.isfinite(c))), c.shape)))
        out.append(Violation("cost-nonfinite", where, "cost has a non-finite entry"))
    elif np.any(c < 0):
        where = tuple(map(int, np.unravel_index(int(np.argmax(c < 0)), c.shape)))
        out.append(Violation("cost-negative", where, f"cost is negative at {where}"))
    return Violations(out, bad_rows + len(out) - kernel_entries)


def _history_labels(problem: TeamProblem, k: int, idx: tuple) -> tuple:
    """Labels of the kernel-row history (omega0, u1, ..., u_{k-1})."""
    labels = [problem.omega0.points[idx[0]]]
    for j in range(1, k):
        labels.append(problem.u_spaces[j - 1].points[idx[j]])
    return tuple(labels)


def _policy_matrices(problem: TeamProblem, profile) -> list:
    if isinstance(profile, (DeterministicProfile, RandomizedProfile)):
        return profile.matrices(problem)
    raise ValidationError(f"unsupported profile type {type(profile).__name__}")


def _action_factor(kernel: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """DM k's action factor G_k = kernel_k @ policy_k: its action's law
    given the history, on axes ([batch,] omega0, u1, ..., uk).  The chain
    folds below multiply these, so they never hold a measurement axis and
    the full joint is never materialized.  A leading batch axis on the
    policy leads the factor and every fold."""
    g = kernel.reshape(-1, kernel.shape[-1]) @ policy
    return g.reshape(policy.shape[:-2] + kernel.shape[:-1] + policy.shape[-1:])


def _onto(w: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``w``, laid over a stored kernel's history axes, summed along the
    axes the kernel has cut (kept at length 1)."""
    cut = tuple(a for a in range(kernel.ndim - 1) if kernel.shape[a] < w.shape[a])
    return w.sum(axis=cut, keepdims=True) if cut else w


def _live_cells(law: np.ndarray):
    """The one density rule of the folds: the C-order flat indices of
    ``law``'s nonzero cells when fewer than 1/_SPARSE of its cells are
    nonzero, else None, and the law is folded whole.  A deterministic
    profile's law is that sparse: on the signaling team DM 2's reaches 64
    of its 8,256 histories."""
    if np.count_nonzero(law) * _SPARSE < law.size:
        return np.flatnonzero(law)
    return None


def _next_law(law: np.ndarray, g: np.ndarray, sparse: bool = True):
    """One fold step, the next action's factor times the law so far:
    rows G[h, u] * law[h].  Returns (live, rows).  When ``sparse`` and
    ``_live_cells`` finds ``law`` sparse, live holds its nonzero
    histories and rows only theirs, in C order; else live is None and
    rows is the whole product over the law's shape and the action."""
    # the prior under a batch of policies lacks the batch axis: whole
    live = _live_cells(law) if sparse and law.ndim + 1 == g.ndim else None
    if live is None:
        return None, g * law[..., None]
    # the factor's row for each live history: clipping an index to a
    # length-1 axis is broadcasting along it
    rows = np.ravel_multi_index(np.unravel_index(live, law.shape), g.shape[:-1], mode="clip")
    terms = g.reshape(-1, g.shape[-1])[rows]
    terms *= law.reshape(-1)[live, None]
    return live, terms


def _forward_law(prior: np.ndarray, kernels: Sequence, policies: Sequence) -> np.ndarray:
    """Law of (omega0, u1, ..., uk) for the first k = len(policies) DMs:
    each step multiplies the law by the next action factor
    (``_next_law``).  A law that ``_live_cells`` finds sparse is
    multiplied only at its nonzero histories, scattered into zeros; a
    dense one keeps the whole-array product.  Each stored cell is the
    same IEEE product either way, and with finite masses, none negative,
    each skipped cell is the +0 the product would give, so the law keeps
    its bytes.  The one exception is a prior mass of -0.0, which
    validation accepts: the dense product stored -0 at its histories,
    this fold stores +0."""
    law = prior
    for kernel, policy in zip(kernels, policies):
        g = _action_factor(kernel, policy)
        live, terms = _next_law(law, g)
        if live is None:
            law = terms
            continue
        # the factor, and on rebinding the old law, go before the scatter
        # writes the zeros' pages: the dense step's peak resident memory
        del g
        nu = terms.shape[-1]
        law = np.zeros(law.shape + (nu,))
        law.reshape(-1, nu)[live] = terms
    return law


def _value_to_go(kernels: Sequence, policies: Sequence, cost: np.ndarray) -> np.ndarray:
    """Expected cost given (omega0, u1, ..., uk) when the last
    len(policies) DMs follow ``policies``; ``kernels`` are theirs."""
    value = cost
    for kernel, policy in zip(reversed(kernels), reversed(policies)):
        value = (_action_factor(kernel, policy) * value).sum(axis=-1)
    return value


def _chain_cost(prior, kernels, policies, cost: np.ndarray):
    """Expected cost under the policies (per batch entry): the forward
    law of DMs 1..N-1, with DM N's step fused into the cost.

    The order of the sum, which fixes its bits: terms[h, u] = G_N[h, u] *
    law[h] * cost[h, u], multiplied in that order; for each action u the
    terms are added over the histories h = (omega0, u1, ..., u_{N-1}) in
    C order, one after another from +0 (numpy's sum along a non-innermost
    axis); then one ``np.sum`` adds the |U_N| column totals (pairwise
    from eight up).  No BLAS call is made, so the bits do not depend on
    the BLAS build or its thread count.  When ``_live_cells`` finds one
    profile's law sparse, only its live rows are formed, in C order: a
    skipped row adds +0, which moves no bit, so both paths give the same
    bytes.  With |U_N| = 1 numpy sums the single column pairwise, where
    skipping rows would regroup the sum, so that case, dense laws and a
    batch of policies take the whole-array product.  A nonfinite cost at
    a history the law does not reach is skipped on the sparse path (the
    whole product would give NaN there); ``validate`` reports it."""
    if not policies:  # a team of no DMs: the prior against the cost
        return (prior * cost).sum()
    law = _forward_law(prior, kernels[:-1], policies[:-1])
    g = _action_factor(kernels[-1], policies[-1])
    nu = g.shape[-1]
    # a batch's law has a leading axis the cost lacks
    live, terms = _next_law(law, g, sparse=nu > 1 and law.ndim < cost.ndim)
    if live is None:
        terms *= cost
        lead = terms.shape[: terms.ndim - cost.ndim]
        return terms.reshape(lead + (-1, nu)).sum(axis=-2).sum(axis=-1)
    terms *= cost.reshape(-1, nu)[live]
    return terms.sum(axis=0).sum()


def expected_cost(problem: TeamProblem, profile) -> float:
    """Exact expected cost of a profile: the law of (omega0, u1, ..., uN)
    is folded forward from the prior one decision maker at a time and
    dotted with the cost.  The full joint is never materialized; no
    sampling is involved.
    """
    mats = _policy_matrices(problem, profile)
    kernels = [_compact(k.table) for k in problem.kernels]
    return float(_chain_cost(problem.prior.mass, kernels, mats, problem.cost.table))


def expected_cost_batch(problem: TeamProblem, stacked_kernels: Sequence[np.ndarray]) -> np.ndarray:
    """Expected costs for a batch of randomized profiles at once.

    ``stacked_kernels[k]`` has shape (B, |Y_{k+1}|, |U_{k+1}|); returns a
    length-B vector.  Same forward fold as ``expected_cost``, batched.
    """
    mats = [np.asarray(m, dtype=float) for m in stacked_kernels]
    kernels = [_compact(k.table) for k in problem.kernels]
    return _chain_cost(problem.prior.mass, kernels, mats, problem.cost.table)


def induced_joint(problem: TeamProblem, profile, cap: int = TABLE_CAP) -> np.ndarray:
    """The full joint table over (omega0, y1, u1, ..., yN, uN).

    The marginal on axis 0 equals the prior exactly up to float rounding.
    Raises CapExceeded when the table would have more than ``cap`` cells.
    """
    CapExceeded.check(math.prod(problem.joint_shape()), cap)
    mats = _policy_matrices(problem, profile)
    return _full_joint(problem, mats, lambda k: [2 * k - 1, 2 * k])


def _full_joint(problem: TeamProblem, policies: Sequence, policy_axes) -> np.ndarray:
    """prior x stored kernels (einsum broadcasts their cut axes) x policies
    over every joint axis; DM k's policy sits on the joint axes ``policy_axes(k)``."""
    operands = [problem.prior.mass, [0]]
    for k in range(1, problem.n_dms + 1):
        kern_sub = [0] + [2 * j for j in range(1, k)] + [2 * k - 1]
        operands += [_compact(problem.kernels[k - 1].table), kern_sub]
        operands += [policies[k - 1], policy_axes(k)]
    return np.einsum(*operands, list(range(2 * problem.n_dms + 1)))
