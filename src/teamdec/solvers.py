"""Optimal and locally-optimal solution search for team problems.

Finite problems: exhaustive scan over deterministic profiles, single-DM
best responses and cyclic person-by-person improvement.
Quadrature teams: finite-difference stationarity checks and a sampled
first-order (directional-derivative) test at a candidate optimum.
"""

from __future__ import annotations

import logging
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import (
    ENUM_CAP,
    FD_STEP,
    KRAINAK_TOL,
    STATIONARITY_TOL,
    TABLE_CAP,
    TIE_TOL,
)
from .errors import CapExceeded, ValidationError
from .model import (
    DeterministicProfile,
    RandomizedProfile,
    TeamProblem,
    _compact,
    _dm_index,
    _forward_law,
    _live_cells,
    _onto,
    _policy_matrices,
    _value_to_go,
    expected_cost,
)

# cells of laws, one-hot maps and prefix tables one chunk of the prefix
# scan may hold: 1/64 of the largest table a call may build, 2.5 MB of floats
_SCAN_CELLS = TABLE_CAP // 64
_MAX_SWEEPS = 200  # PBP sweep budget; not a tolerance, so not in tolerances()
# history cells response_table summed and held, tallied while pbp_iterate runs
_CELLS: ContextVar = ContextVar("pbp_history_cells", default=None)
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exhaustive scan: the value of the chosen profile,
    the first profile in lexicographic order whose value is within
    ``TIE_TOL * max(1, |V*|)`` of the optimum V*, its enumeration index,
    and how many profiles the scan covered."""

    value: float
    profile: DeterministicProfile
    index: int
    n_profiles: int


def _profile_maps(y_spaces: Sequence, u_spaces: Sequence, first: int, stop: int) -> list:
    """The action maps of deterministic profiles ``first``..``stop - 1``
    over the DMs whose spaces are given, in lexicographic order: the
    first DM's map most significant and, within a map, the action for
    measurement index 0 most significant.  Passing the spaces of DMs
    1..k walks the prefixes of length k.  Per DM an int array of shape
    (stop - first, |Y_k|).  This is the one decoder of profile indices
    in the package."""
    radices, bounds = [], [0]
    for y, u in zip(y_spaces, u_spaces):
        radices += [len(u)] * len(y)
        bounds.append(len(radices))
    rest = np.arange(first, stop)
    digits = np.empty((rest.size, len(radices)), dtype=int)
    for c in range(len(radices) - 1, -1, -1):
        rest, digits[:, c] = np.divmod(rest, radices[c])
    return [digits[:, a:b] for a, b in zip(bounds, bounds[1:])]


def _prefix_tables(problem: TeamProblem, count: int, start: int = 0):
    """The last DM's cost table for prefixes ``start``..``count - 1``,
    where a prefix fixes the maps of DMs 1..N-1 (a 1-DM team has one,
    empty, prefix).  Entry [b, y, u] is the expected cost restricted to
    DM N observing y and playing u, under prefix b: the batched forward
    law of (omega0, u1, ..., u_{N-1}) times DM N's kernel and the cost,
    one matmul per chunk.  Row minima give DM N's best map in closed
    form, so memory scales with the prefix law (plus one fixed weight
    table over the history, y_N and u_N), not with the profiles.  Unless
    one prefix alone exceeds it, a chunk holds at most ``_SCAN_CELLS``
    cells of laws, one-hot maps and prefix tables.
    Yields (prefix maps, table of shape (B, |Y_N|, |U_N|))."""
    kernels = [_compact(k.table) for k in problem.kernels]
    ny, nu = len(problem.y_spaces[-1]), len(problem.u_spaces[-1])
    # (omega0, u1..u_{N-1}) x (y_N, u_N): kernel times cost, per history
    weights = (
        kernels[-1][..., None] * problem.cost.table[..., None, :]
    ).reshape(-1, ny * nu)
    eyes = [np.eye(len(u)) for u in problem.u_spaces[:-1]]
    spaces = problem.y_spaces[:-1], problem.u_spaces[:-1]
    cells = weights.shape[0] + ny * nu + sum(len(y) * len(u) for y, u in zip(*spaces))
    chunk = max(1, _SCAN_CELLS // cells)
    for first in range(start, count, chunk):
        maps = _profile_maps(*spaces, first, min(first + chunk, count))
        law = _forward_law(
            problem.prior.mass, kernels[:-1], [e[m] for e, m in zip(eyes, maps)]
        )
        table = law.reshape(-1, weights.shape[0]) @ weights
        yield maps, table.reshape(-1, ny, nu)


def profile_values(problem: TeamProblem, count: int) -> np.ndarray:
    """Expected costs of the first ``count`` profiles in lexicographic
    order, gathered from the prefix tables: a profile's cost is the sum
    over DM N's measurements of its prefix table at the action its last
    map picks.  A count outside 0..n_deterministic_profiles() is refused
    (ValidationError)."""
    total = problem.n_deterministic_profiles()
    if not 0 <= count <= total:
        raise ValidationError(f"{count} profiles requested of {total}")
    if not problem.n_dms:  # the one, empty, profile
        return np.array([expected_cost(problem, DeterministicProfile([]))])[:count]
    ny, nu = len(problem.y_spaces[-1]), len(problem.u_spaces[-1])
    n_maps = nu**ny
    (last,) = _profile_maps(
        problem.y_spaces[-1:], problem.u_spaces[-1:], 0, min(count, n_maps)
    )
    values = [
        table[:, np.arange(ny), last].sum(axis=2).reshape(-1)
        for _, table in _prefix_tables(problem, -(-count // n_maps))
    ]
    return np.concatenate(values)[:count] if values else np.empty(0)


def seeded_profiles(problem: TeamProblem, seed: int, count: int) -> list:
    """``count`` deterministic profiles with uniform random action maps,
    drawn profile by profile and DM by DM from one seeded generator."""
    rng = np.random.default_rng(seed)
    sizes = [(len(y), len(u)) for y, u in zip(problem.y_spaces, problem.u_spaces)]
    return [
        DeterministicProfile([rng.integers(0, nu, size=ny) for ny, nu in sizes])
        for _ in range(count)
    ]


def brute_force(problem: TeamProblem, cap: int = ENUM_CAP) -> SolveResult:
    """Exhaustive search over deterministic profiles, DM N in closed form.

    Only the prefixes (maps of DMs 1..N-1) are enumerated.  The cost is
    linear in DM N's policy and DM N acts on nothing later, so for each
    prefix its best map picks a row minimum of the prefix table per
    measurement, and the prefix's value is the sum of those minima.

    Tie rule: the result is the first profile in lexicographic order
    whose value is within ``TIE_TOL * max(1, |V*|)`` of the optimum V*.
    That is the first prefix whose value is within the slack, then, one
    measurement at a time in index order, the lowest action whose excess
    over its row minimum fits the slack still left.  The index is the
    prefix followed by those actions as digits in radix |U_N|.  ``cap``
    bounds the number of profiles, not prefixes.
    """
    total = CapExceeded.check(problem.n_deterministic_profiles(), cap)
    if not problem.n_dms:  # the one, empty, profile
        empty = DeterministicProfile([])
        return SolveResult(expected_cost(problem, empty), empty, 0, total)
    prefixes = total // len(problem.u_spaces[-1]) ** len(problem.y_spaces[-1])
    values, cells = [], 0
    for _, table in _prefix_tables(problem, prefixes):
        values.append(table.min(axis=2).sum(axis=1))
        cells = max(cells, table.size)
    _log.debug(
        "brute force: %d prefixes scanned, %d chunks, %d profiles covered, "
        "largest prefix table %d cells",
        prefixes, len(values), total, cells,
    )
    values = np.concatenate(values)
    optimum = values.min()
    bound = optimum + TIE_TOL * max(1.0, abs(float(optimum)))
    prefix = int(np.argmax(values <= bound))
    (maps, table), = _prefix_tables(problem, prefix + 1, prefix)
    table = table[0]
    excess = table - table.min(axis=1, keepdims=True)
    slack = bound - values[prefix]
    index, last = prefix, np.empty(table.shape[0], dtype=int)
    for y, row in enumerate(excess):
        last[y] = np.argmax(row <= slack)
        slack -= row[last[y]]
        index = index * table.shape[1] + int(last[y])
    value = float(table[np.arange(len(last)), last].sum())
    profile = DeterministicProfile([m[0] for m in maps] + [last])
    return SolveResult(value, profile, index, total)


def _live_onto(law: np.ndarray, value: np.ndarray, cut: tuple) -> np.ndarray:
    """``_onto(law[..., None] * value, kernel)``, ``cut`` being the axes the
    kernel cuts, from the law's nonzero cells only.  Like numpy's sum over
    axes other than the innermost, each history adds from +0 in the C order
    of the cut cells; a skipped cell adds a signed zero (finite values), so
    no bit moves.  A law ``_live_cells`` finds sparse is added in one
    ``np.add.at`` over its nonzero (cut cell, history) pairs in C order,
    the same scalar adds in the same order; a dense one is added one cut
    cell at a time, which is faster there."""
    lw, vl = (np.moveaxis(a, cut, range(len(cut))) for a in (law, value))
    acc = np.zeros(lw.shape[len(cut) :] + value.shape[-1:])
    live = _live_cells(lw)
    if live is not None:
        nu = value.shape[-1]
        # each live pair's cell in the law's own C order
        idx = dict(zip(cut + tuple(a for a in range(law.ndim) if a not in cut),
                       np.unravel_index(live, lw.shape)))
        cells = np.ravel_multi_index([idx[a] for a in range(law.ndim)], law.shape)
        # flat indices: numpy's fast path of add.at takes one index per cell
        at = (live % (acc.size // nu))[:, None] * nu + np.arange(nu)
        terms = law.reshape(-1)[cells, None] * value.reshape(-1, nu)[cells]
        np.add.at(acc.reshape(-1), at.reshape(-1), terms.reshape(-1))
    else:
        for c in zip(*np.nonzero(lw.any(axis=tuple(range(len(cut), law.ndim))))):
            w, v = lw[c], vl[c]
            if w.all():
                acc += w[..., None] * v
            else:
                nz = np.nonzero(w)
                acc[nz] += w[nz][:, None] * v[nz]
    return acc.reshape([1 if a in cut else n for a, n in enumerate(law.shape)] + [-1])


def response_table(problem: TeamProblem, profile, i: int) -> np.ndarray:
    """Partial expected cost as a function of DM i's measurement and
    action, with every other DM following ``profile``.

    Entry (y, u) is the contribution to the expected cost from outcomes
    where DM i observes y, if it then plays u.  Summing the row minima
    gives the best-response value.  It is the forward law of DMs
    1..i-1, times DM i's kernel, contracted with the value-to-go of
    DMs i+1..N folded backward from the cost; the product of law and
    value-to-go is first summed over the history axes the kernel lacks.
    """
    i = _dm_index(problem, i)
    mats = _policy_matrices(problem, profile)
    kernels = [_compact(k.table) for k in problem.kernels]
    law = _forward_law(problem.prior.mass, kernels[: i - 1], mats[: i - 1])
    value = _value_to_go(kernels[i:], mats[i:], problem.cost.table)
    kernel = kernels[i - 1]
    cut = tuple(a for a in range(law.ndim) if kernel.shape[a] < law.shape[a])
    # one action: numpy drops the action axis and sums the cut axes pairwise,
    # and the product is no larger than the law; no cut: nothing to sum
    if not cut or value.shape[-1] == 1:
        weighted, cells = _onto(law[..., None] * value, kernel), law.size
    else:
        weighted, cells = _live_onto(law, value, cut), np.count_nonzero(law)
    if (tally := _CELLS.get()) is not None:
        tally += (cells, law.size)
    return kernel.reshape(-1, kernel.shape[-1]).T @ weighted.reshape(-1, value.shape[-1])


def measurement_marginal(problem: TeamProblem, profile, i: int) -> np.ndarray:
    """Distribution of DM i's measurement (depends only on earlier DMs):
    the forward law of DMs 1..i-1 times DM i's kernel, summed."""
    i = _dm_index(problem, i)
    mats = _policy_matrices(problem, profile)
    kernels = [_compact(k.table) for k in problem.kernels]
    law = _forward_law(problem.prior.mass, kernels[: i - 1], mats[: i - 1])
    kernel = kernels[i - 1]
    return _onto(law, kernel).reshape(-1) @ kernel.reshape(-1, kernel.shape[-1])


def best_response(
    problem: TeamProblem, profile, i: int
) -> tuple:
    """Optimal deterministic policy for DM i against a fixed profile.

    Ties pick the lowest action index; measurements with zero
    probability keep the incumbent action (or action 0 if the incumbent
    is randomized).  The other DMs keep their given policies, so for a
    randomized profile the result is a randomized profile with DM i's
    kernel replaced by a point-mass one.  Returns (new full profile, its
    expected cost); the cost is read off the response table.
    """
    table = response_table(problem, profile, i)
    marginal = measurement_marginal(problem, profile, i)
    new_map = np.argmin(table, axis=1)
    if isinstance(profile, DeterministicProfile):
        incumbent = profile.actions[i - 1]
    else:
        incumbent = np.zeros(table.shape[0], dtype=int)
    dead = marginal <= 0
    new_map[dead] = incumbent[dead]
    value = float(table[np.arange(table.shape[0]), new_map].sum())

    if isinstance(profile, DeterministicProfile):
        actions = list(profile.actions)
        actions[i - 1] = new_map
        new_profile = DeterministicProfile(actions)
    else:
        kernels = list(profile.kernels)
        nu = len(problem.u_spaces[i - 1])
        kernels[i - 1] = np.eye(nu)[new_map]
        new_profile = RandomizedProfile(kernels)
    return new_profile, value


@dataclass(frozen=True)
class PbpResult:
    """Person-by-person iteration outcome with the cost trace recorded
    after every single-DM update (nonincreasing)."""

    profile: DeterministicProfile
    value: float
    trace: tuple
    sweeps: int
    converged: bool


def pbp_iterate(
    problem: TeamProblem,
    init: Optional[DeterministicProfile] = None,
) -> PbpResult:
    """Cyclic best responses (DM 1..N per sweep) until a full sweep
    leaves the profile unchanged."""
    if init is None:
        current = DeterministicProfile(
            [np.zeros(len(y), dtype=int) for y in problem.y_spaces]
        )
    else:
        current = init
    value = expected_cost(problem, current)
    trace = [value]
    converged = False
    sweeps = 0
    cells = np.zeros(2, dtype=int)
    token = _CELLS.set(cells)
    try:
        for _ in range(_MAX_SWEEPS):
            sweeps += 1
            changed = False
            for i in range(1, problem.n_dms + 1):
                nxt, val = best_response(problem, current, i)
                if not np.array_equal(nxt.actions[i - 1], current.actions[i - 1]):
                    changed = True
                current, value = nxt, val
                trace.append(value)
            if not changed:
                converged = True
                break
    finally:
        _CELLS.reset(token)
    _log.debug("pbp: %d sweeps, %d single-DM updates, %d of %d history cells accumulated",
               sweeps, len(trace) - 1, *cells)
    return PbpResult(current, value, tuple(trace), sweeps, converged)


@dataclass(frozen=True)
class StationarityReport:
    params: tuple
    gradient: tuple
    gradient_inf: float
    node_residual_inf: float
    tol: float
    stationary: bool


def check_stationarity(team, params) -> StationarityReport:
    """Two-sided checks that ``params`` is a stationary point of a
    quadrature team: a central finite-difference gradient of the total
    cost, and the per-measurement-node conditional optimality residuals
    supplied by the team."""
    theta = np.asarray(params, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += FD_STEP
        dn[j] -= FD_STEP
        grad[j] = (team.expected_cost_params(up) - team.expected_cost_params(dn)) / (
            2 * FD_STEP
        )
    residuals = team.per_node_stationarity(theta)
    node_inf = max(
        (float(np.abs(r).max()) for r in residuals if np.size(r)), default=0.0
    )
    grad_inf = float(np.abs(grad).max()) if grad.size else 0.0
    return StationarityReport(
        tuple(float(x) for x in theta),
        tuple(float(g) for g in grad),
        grad_inf,
        node_inf,
        STATIONARITY_TOL,
        grad_inf <= STATIONARITY_TOL and node_inf <= STATIONARITY_TOL,
    )


@dataclass(frozen=True)
class KrainakResult:
    """Sampled first-order optimality test at a candidate optimum.

    For each sampled alternative profile, the directional derivative of
    the cost from the candidate toward the sample is computed in closed
    form (it is linear in the parameter difference).  A negative value
    beyond tolerance exhibits a strictly improving direction and refutes
    optimality; otherwise the candidate is "not refuted".
    """

    not_refuted: bool
    min_inner: float
    n_samples: int
    tol: float
    violator: Optional[tuple]


def check_krainak_inequality(
    team,
    params,
    n_samples: int = 1000,
    seed: int = 0,
) -> KrainakResult:
    """Test the first-order inequality against sampled profiles.

    Samples are standard Gaussian perturbations of ``params``; the inner product
    uses the team's closed-form stationarity moments, so the test is
    exact per sample (no quadrature error beyond the moments)."""
    theta = np.asarray(params, dtype=float)
    g = np.asarray(team.stationarity_moments(theta), dtype=float)
    rng = np.random.default_rng(seed)
    deltas = rng.normal(0.0, 1.0, size=(n_samples, theta.size))
    inners = deltas @ g
    j = int(np.argmin(inners))
    min_inner = float(inners[j])
    ok = min_inner >= -KRAINAK_TOL
    violator = None if ok else tuple(float(x) for x in theta + deltas[j])
    return KrainakResult(ok, min_inner, n_samples, KRAINAK_TOL, violator)
