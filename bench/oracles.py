"""Reference computations that share no code with teamdec.

Everything here works on plain numpy arrays: a prior over the exogenous
points, one measurement table per DM with axes (omega, u1, ..., u_{k-1},
y_k), and a cost table with axes (omega, u1, ..., uN).  Expected costs
are gathered along the positive-probability paths of a deterministic
profile instead of being contracted with einsum, and lattice midpoint
tests walk half-offsets instead of lattice points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True)
class Arrays:
    """A finite team as bare arrays (the benchmark's own view of it)."""

    prior: np.ndarray
    kernels: tuple
    cost: np.ndarray

    @property
    def n_dms(self) -> int:
        return len(self.kernels)

    def sizes(self) -> list:
        """(|Y_k|, |U_k|) per DM."""
        return [(k.shape[-1], self.cost.shape[d + 1]) for d, k in enumerate(self.kernels)]


def arrays_of(problem) -> Arrays:
    """Read the tables of a TeamProblem (data only, no package code)."""
    return Arrays(
        np.asarray(problem.prior.mass),
        tuple(np.asarray(k.table) for k in problem.kernels),
        np.asarray(problem.cost.table),
    )


# -- paths of a deterministic profile ---------------------------------------


def _paths(team: Arrays, maps, free_dm=None):
    """Positive-probability paths: (mass, omega, actions, y of free DM).

    DM ``free_dm`` (0-based) tries every action instead of following its
    map, so each of its paths is split over its actions.
    """
    w = np.flatnonzero(team.prior > 0)
    p = team.prior[w]
    us = []
    y_free = None
    for k, table in enumerate(team.kernels):
        rows = table[(w, *us)]
        pi, yi = np.nonzero(rows > 0)
        p = p[pi] * rows[pi, yi]
        w = w[pi]
        us = [u[pi] for u in us]
        if y_free is not None:
            y_free = y_free[pi]
        if k == free_dm:
            nu = team.cost.shape[k + 1]
            p = np.repeat(p, nu)
            w = np.repeat(w, nu)
            us = [np.repeat(u, nu) for u in us]
            y_free = np.repeat(yi, nu)
            us.append(np.tile(np.arange(nu), len(yi)))
        else:
            us.append(np.asarray(maps[k])[yi])
    return p, w, us, y_free


def evaluate(team: Arrays, maps) -> float:
    """Expected cost of a deterministic profile (one action map per DM)."""
    p, w, us, _ = _paths(team, maps)
    return float(np.dot(p, team.cost[(w, *us)]))


def response_rows(team: Arrays, maps, dm: int) -> tuple:
    """DM ``dm``'s (0-based) response table and measurement marginal:
    entry (y, u) is the cost contributed by paths where it sees y and
    plays u while every other DM follows ``maps``."""
    p, w, us, y = _paths(team, maps, free_dm=dm)
    ny, nu = team.kernels[dm].shape[-1], team.cost.shape[dm + 1]
    table = np.zeros((ny, nu))
    np.add.at(table, (y, us[dm]), p * team.cost[(w, *us)])
    marginal = np.zeros((ny, nu))
    np.add.at(marginal, (y, us[dm]), p)
    return table, marginal[:, 0]


def pbp_stable(team: Arrays, maps, rtol: float = 1e-9) -> list:
    """DMs (1-based) whose map is not a best response on some
    positive-probability measurement; empty when the profile is
    person-by-person stable."""
    bad = []
    for d in range(team.n_dms):
        table, marginal = response_rows(team, maps, d)
        own = table[np.arange(table.shape[0]), np.asarray(maps[d])]
        slack = own - table.min(axis=1)
        scale = rtol * (1.0 + np.abs(table).max())
        if np.any((marginal > 0) & (slack > scale)):
            bad.append(d + 1)
    return bad


# -- profile enumeration -----------------------------------------------------


def n_profiles(sizes) -> int:
    n = 1
    for ny, nu in sizes:
        n *= nu**ny
    return n


def profile_at(sizes, index: int) -> list:
    """Maps of the profile at a lexicographic index: DM 1 most
    significant, and measurement 0 most significant within a map."""
    digits = []
    for ny, nu in reversed(sizes):
        index, m = divmod(index, nu**ny)
        digits.append(m)
    maps = []
    for (ny, nu), m in zip(sizes, reversed(digits)):
        a = [0] * ny
        for y in range(ny - 1, -1, -1):
            m, a[y] = divmod(m, nu)
        maps.append(np.array(a, dtype=int))
    return maps


def all_values(team: Arrays) -> np.ndarray:
    sizes = team.sizes()
    return np.array(
        [evaluate(team, profile_at(sizes, i)) for i in range(n_profiles(sizes))]
    )


def first_minimizer(values: np.ndarray, rtol: float = 1e-12) -> int:
    lo = values.min()
    return int(np.flatnonzero(values <= lo + rtol * max(1.0, abs(lo)))[0])


def lex_pairs(count: int):
    for a in range(count):
        for b in range(a + 1, count):
            yield a, b


def dms_differing(sizes, a: int, b: int) -> int:
    """How many DMs' maps differ between two profile indices."""
    n = 0
    for ny, nu in reversed(sizes):
        a, ma = divmod(a, nu**ny)
        b, mb = divmod(b, nu**ny)
        n += ma != mb
    return n


# -- strategic measures --------------------------------------------------------


def joint_of(team: Arrays, maps) -> np.ndarray:
    """Joint over (omega, y1, u1, ..., yN, uN) induced by a profile."""
    shape = [team.prior.size]
    for ny, nu in team.sizes():
        shape += [ny, nu]
    joint = np.zeros(shape)
    w = np.flatnonzero(team.prior > 0)
    p = team.prior[w]
    idx = [w]
    us = []
    for k, table in enumerate(team.kernels):
        rows = table[(idx[0], *us)]
        pi, yi = np.nonzero(rows > 0)
        p = p[pi] * rows[pi, yi]
        idx = [i[pi] for i in idx]
        us = [u[pi] for u in us]
        u = np.asarray(maps[k])[yi]
        idx += [yi, u]
        us.append(u)
    np.add.at(joint, tuple(idx), p)
    return joint


def _action_conditional(joint: np.ndarray, k: int) -> tuple:
    """P(u_k | y_k) from the joint (rows of zero mass left at zero) and
    the mass of each y_k."""
    axes = tuple(a for a in range(joint.ndim) if a not in (2 * k + 1, 2 * k + 2))
    tab = joint.sum(axis=axes)
    mass = tab.sum(axis=1)
    cond = np.divide(tab, mass[:, None], out=np.zeros_like(tab), where=mass[:, None] > 0)
    return cond, mass


def in_LR(team: Arrays, joint: np.ndarray, tol: float = 1e-12) -> bool:
    """Is the joint induced by independent private randomization?

    Rebuilds the joint that the prior, the kernels and the joint's own
    action-given-measurement conditionals would induce, and compares.
    """
    rebuilt = team.prior.reshape((-1,) + (1,) * (joint.ndim - 1))
    for k, table in enumerate(team.kernels):
        # kernel axes (omega, u1..u_{k-1}, y_k) onto joint axes (0, 2, .., 2k, 2k+1)
        shape = [1] * joint.ndim
        shape[0] = table.shape[0]
        for j in range(k):
            shape[2 * j + 2] = table.shape[j + 1]
        shape[2 * k + 1] = table.shape[-1]
        rebuilt = rebuilt * table.reshape(shape)
        cond, _ = _action_conditional(joint, k)
        shape = [1] * joint.ndim
        shape[2 * k + 1], shape[2 * k + 2] = cond.shape
        rebuilt = rebuilt * cond.reshape(shape)
    return bool(np.abs(rebuilt - joint).max() <= tol)


def in_LA(team: Arrays, joint: np.ndarray, tol: float = 1e-12) -> bool:
    """LR plus point-mass actions on every positive-mass measurement."""
    if not in_LR(team, joint, tol):
        return False
    for k in range(team.n_dms):
        cond, mass = _action_conditional(joint, k)
        if np.any(cond[mass > 0].max(axis=1) < 1.0 - tol):
            return False
    return True


def first_witness(team: Arrays, limit: int = 100000):
    """First lexicographic pair of profile indices whose 50/50 mixture
    leaves LR, searched over at most ``limit`` pairs (None if none)."""
    sizes = team.sizes()
    cache = {}

    def joint(i):
        if i not in cache:
            cache[i] = joint_of(team, profile_at(sizes, i))
        return cache[i]

    for t, (a, b) in enumerate(lex_pairs(n_profiles(sizes))):
        if t >= limit:
            break
        if not in_LR(team, 0.5 * joint(a) + 0.5 * joint(b)):
            return a, b
    return None


def useful_pairs_until(sizes, stop) -> int:
    """How many lexicographic pairs up to and including ``stop`` (all pairs
    when ``stop`` is None) differ in at least two DMs' maps; a pair that
    differs in one DM's map mixes inside LR, so only these need testing."""
    useful = 0
    for a, b in lex_pairs(n_profiles(sizes)):
        useful += dms_differing(sizes, a, b) >= 2
        if (a, b) == stop:
            break
    return useful


# -- midpoint convexity on lattices -----------------------------------------


def same_parity_pairs(shape) -> int:
    """Closed form for the number of unordered lattice point pairs whose
    coordinate-wise midpoint is a lattice point."""
    total = 0
    for parities in itertools.product((0, 1), repeat=len(shape)):
        size = 1
        for n, par in zip(shape, parities):
            size *= (n + 1) // 2 if par == 0 else n // 2
        total += comb(size, 2)
    return total


def _half_offsets(shape):
    """Lexicographically positive half-offsets h with a+2h on the lattice."""
    ranges = [range(-((n - 1) // 2), (n - 1) // 2 + 1) for n in shape]
    for h in itertools.product(*ranges):
        nz = [v for v in h if v != 0]
        if nz and nz[0] > 0:
            yield h


def half_offset_min_margin(values: np.ndarray, batch_axes: int = 0) -> tuple:
    """Minimum of (f(a) + f(a+2h))/2 - f(a+h) over every lattice pair,
    by slicing one half-offset h at a time; returns (min margin per
    batch entry, number of pairs per entry).  Leading ``batch_axes``
    axes are independent tables."""
    values = np.asarray(values, dtype=float)
    lead = values.shape[:batch_axes]
    shape = values.shape[batch_axes:]
    best = np.full(lead, np.inf)
    pairs = 0
    keep = (slice(None),) * batch_axes
    for h in _half_offsets(shape):
        sa, sm, sb = [], [], []
        for n, s in zip(shape, h):
            if s >= 0:
                sa.append(slice(0, n - 2 * s))
                sm.append(slice(s, n - s))
                sb.append(slice(2 * s, n))
            else:
                sa.append(slice(-2 * s, n))
                sm.append(slice(-s, n + s))
                sb.append(slice(0, n + 2 * s))
        fa = values[keep + tuple(sa)]
        if fa.size == 0:
            continue
        margin = 0.5 * (fa + values[keep + tuple(sb)]) - values[keep + tuple(sm)]
        axes = tuple(range(batch_axes, values.ndim))
        best = np.minimum(best, margin.min(axis=axes))
        pairs += int(np.prod(fa.shape[batch_axes:]))
    return best, pairs


def first_violation_from(values: np.ndarray, a: tuple, tol: float):
    """First partner b (flat order, b after a) of lattice point ``a``
    whose midpoint value exceeds the endpoint average by more than tol."""
    shape = values.shape
    start = np.ravel_multi_index(a, shape)
    for flat_b in range(start + 1, values.size):
        b = np.unravel_index(flat_b, shape)
        if any((x + y) % 2 for x, y in zip(a, b)):
            continue
        mid = tuple((x + y) // 2 for x, y in zip(a, b))
        gap = values[mid] - 0.5 * (values[a] + values[b])
        if gap > tol:
            return tuple(int(v) for v in b), mid, float(gap)
    return None


# -- problem documents ------------------------------------------------------


def _label(p) -> str:
    if isinstance(p, list):
        return str(tuple(_point(x) for x in p))
    return str(p)


def _point(p):
    return tuple(_point(x) for x in p) if isinstance(p, list) else p


def arrays_from_doc(doc: dict) -> Arrays:
    """Parse a problem document (the JSON file format) into Arrays,
    independently of teamdec.probio."""
    spaces = doc["spaces"]
    omega = [_label(p) for p in spaces["omega0"]["points"]]
    ys = [[_label(p) for p in s["points"]] for s in spaces["measurements"]]
    us = [[_label(p) for p in s["points"]] for s in spaces["actions"]]
    w_idx = {s: i for i, s in enumerate(omega)}
    y_idx = [{s: i for i, s in enumerate(y)} for y in ys]
    u_idx = [{s: i for i, s in enumerate(u)} for u in us]
    prior = np.zeros(len(omega))
    for key, v in doc["prior"].items():
        prior[w_idx[key]] = v
    kernels = []
    for k, entries in enumerate(doc["kernels"]):
        table = np.zeros((len(omega),) + tuple(len(u) for u in us[:k]) + (len(ys[k]),))
        for key, row in entries.items():
            parts = key.split("|")
            hist = (w_idx[parts[0]],) + tuple(u_idx[j][s] for j, s in enumerate(parts[1:]))
            for y, v in row.items():
                table[hist + (y_idx[k][y],)] = v
        kernels.append(table)
    cost = np.zeros((len(omega),) + tuple(len(u) for u in us))
    for key, v in doc["cost"].items():
        parts = key.split("|")
        cost[(w_idx[parts[0]],) + tuple(u_idx[j][s] for j, s in enumerate(parts[1:]))] = v
    return Arrays(prior, tuple(kernels), cost)


def in_LM(team: Arrays, joint: np.ndarray, tol: float = 1e-12) -> bool:
    """Conditional-independence class of a static team: the (omega, y)
    marginal is the problem's, and each DM's action given all
    measurements depends on its own measurement only."""
    n = team.n_dms
    marg = joint.sum(axis=tuple(2 * k + 2 for k in range(n)))
    ref = team.prior.reshape((-1,) + (1,) * n)
    for k, table in enumerate(team.kernels):
        rows = table.reshape(table.shape[0], -1, table.shape[-1])[:, 0, :]
        shape = [rows.shape[0]] + [1] * n
        shape[k + 1] = rows.shape[1]
        ref = ref * rows.reshape(shape)
    if np.abs(marg - ref).max() > tol:
        return False
    for k in range(n):
        drop = (0,) + tuple(2 * j + 2 for j in range(n) if j != k)
        # left: (y1, .., y_k, u_k, y_{k+1}, ..); put u_k last
        tab = np.moveaxis(joint.sum(axis=drop), k + 1, -1)
        mass = tab.sum(axis=-1, keepdims=True)
        cond = np.divide(tab, mass, out=np.zeros_like(tab), where=mass > 0)
        own, _ = _action_conditional(joint, k)
        shape = [1] * n + [own.shape[1]]
        shape[k] = own.shape[0]
        dev = np.abs(cond - own.reshape(shape))
        if np.any(dev[np.broadcast_to(mass > 0, dev.shape)] > tol):
            return False
    return True
