"""Change of measure turning a dynamic team into a static one.

Each measurement is re-expressed against a reference distribution on its
own space: the reference carries the randomness, and the likelihood
ratio of the true kernel row to the reference multiplies the cost.  The
reduced problem's exogenous variable is the original exogenous point
together with all measurement values, drawn independently from the
references; expected costs agree with the original problem for every
profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constants import EQ_TOL, REDUCTION_TOL, TABLE_CAP
from .errors import AbsoluteContinuityFailure, CapExceeded, ValidationError
from .model import (
    CostTable,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
    _chain_cost,
    _history_labels,
    _policy_matrices,
    expected_cost,
)


def default_references(problem: TeamProblem) -> list:
    """Per DM, the uniform distribution over the union of its kernel
    rows' supports (all histories), so the ratio is defined everywhere."""
    refs = []
    for k in range(1, problem.n_dms + 1):
        table = problem.kernels[k - 1].table
        support = (table > 0).reshape(-1, table.shape[-1]).any(axis=0)
        mass = np.where(support, 1.0, 0.0)
        refs.append(Pmf(problem.y_spaces[k - 1], mass / mass.sum()))
    return refs


@dataclass(frozen=True)
class StaticReduction:
    """A problem together with reference measures and likelihood weights.

    ``weights[t]`` has the same shape as DM t+1's kernel table and holds
    f_t = (kernel row) / (reference mass), with 0/0 taken as 0.  For
    every positive-prior history, sum_y f_t(., y) Q_t(y) = 1 within
    EQ_TOL by construction.
    """

    problem: TeamProblem
    references: tuple
    weights: tuple = field(repr=False)

    def reweighted_kernels(self) -> list:
        """f_t * Q_t per DM: numerically the original kernel rows, used
        for the lazy reduced-cost contraction."""
        out = []
        for t, f in enumerate(self.weights):
            out.append(f * self.references[t].mass)
        return out

    def reduced_expected_cost(self, profile) -> float:
        """Expected cost of the reduced problem under a profile: the same
        forward fold as the original problem's, driven by
        reference-times-weight kernels (Witsenhausen's change of
        measure).  The full reduced table is never materialized."""
        mats = _policy_matrices(self.problem, profile)
        return float(
            _chain_cost(
                self.problem.prior.mass,
                self.reweighted_kernels(),
                mats,
                self.problem.cost.table,
            )
        )

    def exogenous_size(self) -> int:
        n = len(self.problem.omega0)
        for y in self.problem.y_spaces:
            n *= len(y)
        return n

    def reduced_problem(self, cap: int = TABLE_CAP) -> TeamProblem:
        """Materialize the reduced static problem.

        Its exogenous points are tuples (omega0, y1, ..., yN) under the
        product of prior and references; DM t observes coordinate t
        exactly; the cost is the original cost times all weights.
        """
        problem = self.problem
        n = problem.n_dms
        n_ex = self.exogenous_size()
        u_sizes = [len(u) for u in problem.u_spaces]
        cells = n_ex
        for s in u_sizes:
            cells *= s
        for t in range(1, n + 1):
            k_cells = n_ex * len(problem.y_spaces[t - 1])
            for s in u_sizes[: t - 1]:
                k_cells *= s
            cells = max(cells, k_cells)
        if cells > cap:
            raise CapExceeded(cells, cap)

        points = list(
            itertools.product(
                problem.omega0.points,
                *(y.points for y in problem.y_spaces),
            )
        )
        ex_space = FiniteSpace(f"{problem.omega0.name}*measurements", points)

        prior = problem.prior.mass
        for ref in self.references:
            prior = np.multiply.outer(prior, ref.mass)
        prior = Pmf(ex_space, prior.reshape(-1))

        y_sizes = [len(y) for y in problem.y_spaces]
        kernels = []
        for t in range(1, n + 1):
            # point mass on coordinate t of the exogenous tuple
            coords = np.zeros((n_ex, y_sizes[t - 1]))
            idx = np.unravel_index(np.arange(n_ex), (len(problem.omega0), *y_sizes))
            coords[np.arange(n_ex), idx[t]] = 1.0
            shape = (
                (n_ex,)
                + tuple(len(problem.u_spaces[j]) for j in range(t - 1))
                + (y_sizes[t - 1],)
            )
            table = np.broadcast_to(
                coords.reshape((n_ex,) + (1,) * (t - 1) + (y_sizes[t - 1],)), shape
            )
            kernels.append(MeasurementKernel(t, table))

        # cost over (omega, y1..yN, u1..uN), then flatten the exogenous part
        operands = [problem.cost.table, [0] + [n + 1 + j for j in range(n)]]
        for t in range(1, n + 1):
            sub = [0] + [n + 1 + j for j in range(t - 1)] + [t]
            operands += [self.weights[t - 1], sub]
        out_sub = list(range(n + 1)) + [n + 1 + j for j in range(n)]
        c = np.einsum(*operands, out_sub)
        cost = CostTable(c.reshape((n_ex,) + c.shape[n + 1 :]))

        return TeamProblem(
            ex_space,
            prior,
            problem.y_spaces,
            problem.u_spaces,
            kernels,
            cost,
            name=(problem.name + ":reduced") if problem.name else "reduced",
        )


def static_reduce(
    problem: TeamProblem, references: Optional[Sequence] = None
) -> StaticReduction:
    """Build the static reduction of a problem.

    ``references`` is an optional list with one Pmf per DM (None entries
    fall back to the default).  Raises AbsoluteContinuityFailure naming
    the DM, measurement value and history when a kernel row reachable
    from a positive-prior point puts mass where its reference does not.
    """
    defaults = default_references(problem)
    refs = []
    if references is None:
        refs = defaults
    else:
        if len(references) != problem.n_dms:
            raise ValidationError(
                f"{len(references)} references for {problem.n_dms} DMs"
            )
        for t, ref in enumerate(references):
            if ref is None:
                refs.append(defaults[t])
                continue
            if not isinstance(ref, Pmf):
                ref = Pmf(problem.y_spaces[t], ref)
            if ref.space.points != problem.y_spaces[t].points:
                raise ValidationError(
                    f"reference {t + 1} lives on {ref.space.name!r}, not on "
                    f"{problem.y_spaces[t].name!r}"
                )
            refs.append(ref)

    pos_prior = problem.prior.mass > 0
    weights = []
    for t in range(1, problem.n_dms + 1):
        table = problem.kernels[t - 1].table
        q = refs[t - 1].mass
        bad = (table > 0) & (q == 0.0)
        bad[~pos_prior] = False  # unreachable exogenous points don't count
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise AbsoluteContinuityFailure(
                t,
                problem.y_spaces[t - 1].points[idx[-1]],
                _history_labels(problem, t, idx[:-1]),
            )
        f = np.divide(
            table,
            np.broadcast_to(q, table.shape),
            out=np.zeros_like(table),
            where=np.broadcast_to(q, table.shape) > 0,
        )
        norm = (f * q).sum(axis=-1)
        dev = float(np.abs(norm[pos_prior] - 1.0).max(initial=0.0))
        if dev > EQ_TOL:
            raise ValidationError(f"DM {t} weight normalization off by {dev!r}")
        f.setflags(write=False)
        weights.append(f)
    return StaticReduction(problem, tuple(refs), tuple(weights))


@dataclass(frozen=True)
class EquivalenceRecord:
    original: float
    reduced: float
    gap: float


@dataclass(frozen=True)
class EquivalenceReport:
    records: tuple
    max_gap: float
    tol: float
    equivalent: bool


def verify_equivalence(reduction: StaticReduction, profiles: Sequence) -> EquivalenceReport:
    """Compare original and reduced expected costs on given profiles."""
    records = []
    for p in profiles:
        a = expected_cost(reduction.problem, p)
        b = reduction.reduced_expected_cost(p)
        records.append(EquivalenceRecord(a, b, abs(a - b)))
    worst = max((r.gap for r in records), default=0.0)
    return EquivalenceReport(tuple(records), worst, REDUCTION_TOL, worst <= REDUCTION_TOL)
