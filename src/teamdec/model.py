"""Finite sequential team decision problems.

A problem has one exogenous variable, N decision makers acting once each
in a fixed order, a measurement kernel per decision maker (its row may
depend on the exogenous point and on all earlier actions), and a single
nonnegative cost indexed by the exogenous point and the action tuple.

Index-ordering convention used by every joint table in the package:

    (omega0, y1, u1, y2, u2, ..., yN, uN)

i.e. axis 0 is the exogenous point, DM k's measurement sits on axis
2k - 1 and its action on axis 2k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import INPUT_MASS_TOL, TABLE_CAP
from .errors import CapExceeded, DimensionMismatch, NonNumericActions, ValidationError


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
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

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.mass > 0.0)


@dataclass(frozen=True)
class MeasurementKernel:
    """DM ``dm``'s measurement: a stochastic table over its y-space.

    ``table`` has shape (|Omega0|, |U1|, ..., |U_{dm-1}|, |Y_dm|); the row
    for a history (omega0, u1, ..., u_{dm-1}) is the distribution of
    y_dm given that history.  Rows are raw values here; ``validate``
    reports rows that are not probability vectors.
    """

    dm: int
    table: np.ndarray = field(repr=False)

    def __init__(self, dm: int, table):
        if dm < 1:
            raise ValidationError(f"dm index must be >= 1, got {dm}")
        object.__setattr__(self, "dm", int(dm))
        object.__setattr__(self, "table", _readonly(table))


@dataclass(frozen=True)
class CostTable:
    """Joint cost indexed by (omega0, u1, ..., uN).  Raw values; signs
    and finiteness are checked by ``validate``."""

    table: np.ndarray = field(repr=False)

    def __init__(self, table):
        object.__setattr__(self, "table", _readonly(table))


@dataclass(frozen=True)
class TeamProblem:
    """A finite N-decision-maker sequential team."""

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
        n = 1
        for k in range(self.n_dms):
            n *= len(self.u_spaces[k]) ** len(self.y_spaces[k])
        return n


def _check_policy_count(policies: Sequence, problem: TeamProblem) -> None:
    if len(policies) != problem.n_dms:
        raise DimensionMismatch(
            f"profile has {len(policies)} policies for {problem.n_dms} DMs"
        )


@dataclass(frozen=True)
class DeterministicProfile:
    """One pure policy per DM: an action index for each measurement index."""

    actions: tuple  # per DM, an int array of length |Y_k| with values in U_k

    def __init__(self, actions: Sequence):
        maps = []
        for a in actions:
            arr = np.asarray(a, dtype=int)
            if arr.ndim != 1:
                raise ValidationError("each policy map must be a 1-D index array")
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            maps.append(arr)
        object.__setattr__(self, "actions", tuple(maps))

    @staticmethod
    def from_callables(problem: TeamProblem, fns: Sequence[Callable]) -> "DeterministicProfile":
        """Build from per-DM functions mapping a y-label to a u-label."""
        maps = []
        for k, fn in enumerate(fns):
            u = problem.u_spaces[k]
            maps.append([u.index(fn(y)) for y in problem.y_spaces[k].points])
        return DeterministicProfile(maps)

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


def validate(problem: TeamProblem) -> list:
    """Check every type invariant of the problem; empty list iff valid.

    Shape violations are reported first since value checks on misshapen
    tables would be meaningless.
    """
    out = []
    n = problem.n_dms
    for k in range(1, n + 1):
        kern = problem.kernels[k - 1]
        if kern.dm != k:
            out.append(
                Violation(
                    "kernel-order",
                    (k,),
                    f"kernel at position {k} is labeled dm={kern.dm}",
                )
            )
        want = problem.kernel_shape(k)
        if kern.table.shape != want:
            out.append(
                Violation(
                    "kernel-shape",
                    (k,),
                    f"DM {k} kernel shape {kern.table.shape} != {want}",
                )
            )
    if problem.cost.table.shape != problem.cost_shape():
        out.append(
            Violation(
                "cost-shape",
                (),
                f"cost shape {problem.cost.table.shape} != {problem.cost_shape()}",
            )
        )
    if problem.prior.space is not problem.omega0 and (
        problem.prior.space.points != problem.omega0.points
    ):
        out.append(
            Violation(
                "prior-space",
                (),
                f"prior is on {problem.prior.space.name!r}, not on "
                f"{problem.omega0.name!r}",
            )
        )
    if out:
        return out

    for k in range(1, n + 1):
        table = problem.kernels[k - 1].table
        flat = table.reshape(-1, table.shape[-1])
        sums = flat.sum(axis=1)
        bad = np.flatnonzero(
            (np.abs(sums - 1.0) > INPUT_MASS_TOL)
            | (flat < 0).any(axis=1)
            | ~np.isfinite(flat).all(axis=1)
        )
        hist_shape = table.shape[:-1]
        for b in bad:
            idx = np.unravel_index(b, hist_shape)
            labels = _history_labels(problem, k, idx)
            out.append(
                Violation(
                    "kernel-row",
                    (k,) + idx,
                    f"DM {k} kernel row at history {labels!r} sums to "
                    f"{float(sums[b])!r} or has invalid entries",
                )
            )
    c = problem.cost.table
    if not np.all(np.isfinite(c)):
        where = np.unravel_index(int(np.argmax(~np.isfinite(c))), c.shape)
        out.append(Violation("cost-nonfinite", where, "cost has a non-finite entry"))
    elif np.any(c < 0):
        where = tuple(map(int, np.unravel_index(int(np.argmax(c < 0)), c.shape)))
        out.append(Violation("cost-negative", where, f"cost is negative at {where}"))
    return out


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


def _forward_law(prior: np.ndarray, kernels: Sequence, policies: Sequence) -> np.ndarray:
    """Law of (omega0, u1, ..., uk) for the first k = len(policies) DMs."""
    law = prior
    for kernel, policy in zip(kernels, policies):
        g = _action_factor(kernel, policy)
        g *= law[..., None]
        law = g
    return law


def _value_to_go(kernels: Sequence, policies: Sequence, cost: np.ndarray) -> np.ndarray:
    """Expected cost given (omega0, u1, ..., uk) when the last
    len(policies) DMs follow ``policies``; ``kernels`` are theirs."""
    value = cost
    for kernel, policy in zip(reversed(kernels), reversed(policies)):
        g = _action_factor(kernel, policy)
        g *= value
        value = g.sum(axis=-1)
    return value


def _chain_cost(prior, kernels, policies, cost: np.ndarray):
    """The forward law of all DMs dotted with the cost (per batch entry)."""
    law = _forward_law(prior, kernels, policies)
    lead = law.shape[: law.ndim - cost.ndim]
    return law.reshape(lead + (cost.size,)) @ cost.reshape(-1)


def expected_cost(problem: TeamProblem, profile) -> float:
    """Exact expected cost of a profile: the law of (omega0, u1, ..., uN)
    is folded forward from the prior one decision maker at a time and
    dotted with the cost.  The full joint is never materialized; no
    sampling is involved.
    """
    mats = _policy_matrices(problem, profile)
    kernels = [k.table for k in problem.kernels]
    return float(_chain_cost(problem.prior.mass, kernels, mats, problem.cost.table))


def expected_cost_batch(problem: TeamProblem, stacked_kernels: Sequence[np.ndarray]) -> np.ndarray:
    """Expected costs for a batch of randomized profiles at once.

    ``stacked_kernels[k]`` has shape (B, |Y_{k+1}|, |U_{k+1}|); returns a
    length-B vector.  Same forward fold as ``expected_cost``, batched.
    """
    mats = [np.asarray(m, dtype=float) for m in stacked_kernels]
    kernels = [k.table for k in problem.kernels]
    return _chain_cost(problem.prior.mass, kernels, mats, problem.cost.table)


def induced_joint(problem: TeamProblem, profile, cap: int = TABLE_CAP) -> np.ndarray:
    """The full joint table over (omega0, y1, u1, ..., yN, uN).

    The marginal on axis 0 equals the prior exactly up to float rounding.
    Raises CapExceeded when the table would have more than ``cap`` cells.
    """
    shape = problem.joint_shape()
    cells = int(np.prod([int(s) for s in shape], dtype=object))
    if cells > cap:
        raise CapExceeded(cells, cap)
    mats = _policy_matrices(problem, profile)
    return _full_joint(problem, mats, lambda k: [2 * k - 1, 2 * k])


def _full_joint(problem: TeamProblem, policies: Sequence, policy_axes) -> np.ndarray:
    """prior x kernels x policies over every joint axis, where DM k's
    policy table sits on the joint axes ``policy_axes(k)``."""
    operands = [problem.prior.mass, [0]]
    for k in range(1, problem.n_dms + 1):
        kern_sub = [0] + [2 * j for j in range(1, k)] + [2 * k - 1]
        operands += [problem.kernels[k - 1].table, kern_sub]
        operands += [policies[k - 1], policy_axes(k)]
    return np.einsum(*operands, list(range(2 * problem.n_dms + 1)))


def joint_axes(problem: TeamProblem) -> dict:
    """Names for the joint-table axes: 'omega0', 'y1', 'u1', ..."""
    names = {"omega0": 0}
    for k in range(1, problem.n_dms + 1):
        names[f"y{k}"] = 2 * k - 1
        names[f"u{k}"] = 2 * k
    return names
