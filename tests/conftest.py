"""Shared builders for seeded random team instances."""

import dataclasses
import itertools
from enum import Enum
from fractions import Fraction

import numpy as np
from hypothesis import settings

from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
)

# every property test is reproducible and untimed; tests set max_examples
settings.register_profile("teamdec", derandomize=True, deadline=None)
settings.load_profile("teamdec")


def random_team(
    seed,
    n_omega=3,
    y_sizes=(2, 2),
    u_sizes=(2, 2),
    dynamic=False,
    cost_scale=2.0,
):
    """A fully supported team with Dirichlet kernels and uniform costs.

    With ``dynamic=True``, DM k's measurement kernel depends on all
    earlier actions (the table is drawn over the full history shape);
    otherwise the same row is broadcast over earlier actions, so actions
    never affect measurements.
    """
    rng = np.random.default_rng(seed)
    n = len(y_sizes)
    omega = FiniteSpace("w", list(range(n_omega)))
    y_spaces = [
        FiniteSpace(f"y{k+1}", list(range(y_sizes[k]))) for k in range(n)
    ]
    u_spaces = [
        FiniteSpace(f"u{k+1}", [float(v) for v in range(u_sizes[k])])
        for k in range(n)
    ]
    prior = Pmf(omega, rng.dirichlet(np.ones(n_omega)))
    kernels = []
    for k in range(n):
        hist = (n_omega,) + tuple(u_sizes[:k])
        if dynamic:
            table = rng.dirichlet(np.ones(y_sizes[k]), size=hist)
        else:
            rows = rng.dirichlet(np.ones(y_sizes[k]), size=(n_omega,))
            table = np.broadcast_to(
                rows.reshape((n_omega,) + (1,) * k + (y_sizes[k],)),
                hist + (y_sizes[k],),
            ).copy()
        kernels.append(MeasurementKernel(k + 1, table))
    cost = CostTable(rng.uniform(0.0, cost_scale, size=(n_omega,) + tuple(u_sizes)))
    return TeamProblem(omega, prior, y_spaces, u_spaces, kernels, cost)


def classical_team(seed, n_omega=4, u1=2, u2=2):
    """Static nested deterministic measurements: DM 1 sees a coarse
    function of omega (its parity), DM 2 sees omega itself, and neither
    kernel depends on actions.  classify() labels this classical.

    Measurements here must be deterministic: kernels draw measurements
    independently given (omega, actions), so one DM's stochastic
    measurement can never be reconstructed by a later DM unless the
    randomness lives in omega itself.
    """
    rng = np.random.default_rng(seed)
    omega = FiniteSpace("w", list(range(n_omega)))
    y1_space = FiniteSpace("y1", [0, 1])
    y2_space = FiniteSpace("y2", list(range(n_omega)))
    u_spaces = [
        FiniteSpace("u1", [float(v) for v in range(u1)]),
        FiniteSpace("u2", [float(v) for v in range(u2)]),
    ]
    prior = Pmf(omega, rng.dirichlet(np.ones(n_omega)))
    t1 = np.zeros((n_omega, 2))
    t1[np.arange(n_omega), np.arange(n_omega) % 2] = 1.0
    t2 = np.broadcast_to(
        np.eye(n_omega)[:, None, :], (n_omega, u1, n_omega)
    ).copy()
    cost = CostTable(rng.uniform(0.0, 2.0, size=(n_omega, u1, u2)))
    return TeamProblem(
        omega,
        prior,
        [y1_space, y2_space],
        u_spaces,
        [MeasurementKernel(1, t1), MeasurementKernel(2, t2)],
        cost,
    )


def sign_product_team():
    """Static team on omega = (a, b) in {-1, 1}^2, uniform: DM 1 sees a,
    DM 2 sees b, both act in {-1, 0, 1}, and the cost is
    3 - 2ab u1 u2 + 0.1 (u1^2 + u2^2).  Every join block is a saddle,
    while the meet (the whole space) averages the cross term away, so
    only the policy-pair search can certify non-convexity."""
    omega = FiniteSpace("ab", ["-1,-1", "-1,1", "1,-1", "1,1"])
    a = np.array([-1.0, -1.0, 1.0, 1.0])
    b = np.array([-1.0, 1.0, -1.0, 1.0])
    y_spaces = [FiniteSpace("a", [-1.0, 1.0]), FiniteSpace("b", [-1.0, 1.0])]
    grid = np.array([-1.0, 0.0, 1.0])
    u_spaces = [FiniteSpace("u1", list(grid)), FiniteSpace("u2", list(grid))]
    t1 = np.stack([a == -1, a == 1], axis=1).astype(float)
    t2 = np.stack([b == -1, b == 1], axis=1).astype(float)
    t2 = np.broadcast_to(t2[:, None, :], (4, 3, 2)).copy()
    u1, u2 = grid[None, :, None], grid[None, None, :]
    cost = 3.0 - 2.0 * (a * b)[:, None, None] * u1 * u2 + 0.1 * (u1**2 + u2**2)
    return TeamProblem(
        omega,
        Pmf.uniform(omega),
        y_spaces,
        u_spaces,
        [MeasurementKernel(1, t1), MeasurementKernel(2, t2)],
        CostTable(cost),
    )


def relay_team(seed, n_omega=3, u1=2, u2=2):
    """A full-recall chain: DM 1 sees a deterministic function of omega;
    DM 2 sees the pair (DM 1's measurement, DM 1's action) exactly.  The
    action edge 1->2 exists and is nested, so classify() labels this
    partially nested."""
    rng = np.random.default_rng(seed)
    omega = FiniteSpace("w", list(range(n_omega)))
    y1_space = FiniteSpace("y1", [0, 1])
    pairs = [(a, b) for a in range(2) for b in range(u1)]
    y2_space = FiniteSpace("y2", pairs)
    u_spaces = [
        FiniteSpace("u1", [float(v) for v in range(u1)]),
        FiniteSpace("u2", [float(v) for v in range(u2)]),
    ]
    prior = Pmf(omega, rng.dirichlet(np.ones(n_omega)))
    t1 = np.zeros((n_omega, 2))
    t1[np.arange(n_omega), np.arange(n_omega) % 2] = 1.0
    t2 = np.zeros((n_omega, u1, len(pairs)))
    for w in range(n_omega):
        for a in range(u1):
            t2[w, a, pairs.index((w % 2, a))] = 1.0
    cost = CostTable(rng.uniform(0.0, 2.0, size=(n_omega, u1, u2)))
    return TeamProblem(
        omega,
        prior,
        [y1_space, y2_space],
        u_spaces,
        [MeasurementKernel(1, t1), MeasurementKernel(2, t2)],
        cost,
    )


def random_profile(problem, seed):
    rng = np.random.default_rng(seed)
    return DeterministicProfile(
        [
            rng.integers(0, len(problem.u_spaces[d]), size=len(problem.y_spaces[d]))
            for d in range(problem.n_dms)
        ]
    )


def random_randomized_profile(problem, seed):
    rng = np.random.default_rng(seed)
    kernels = []
    for d in range(problem.n_dms):
        ny, nu = len(problem.y_spaces[d]), len(problem.u_spaces[d])
        kernels.append(rng.dirichlet(np.ones(nu), size=(ny,)))
    return RandomizedProfile(kernels)


def naive_expected_cost(problem, profile, num=float):
    """Literal summation over every joint realization (independent of
    the library's chain evaluator).  Every mass and cost passes through
    ``num`` first, so a ``num`` that returns a ``Fraction`` sums exactly."""
    n = problem.n_dms
    total = num(0)
    y_sizes = [len(s) for s in problem.y_spaces]

    def rec(w, k, us, p):
        nonlocal total
        if k == n:
            total += p * num(problem.cost.table[(w,) + tuple(us)])
            return
        for y in range(y_sizes[k]):
            py = problem.kernels[k].table[(w,) + tuple(us) + (y,)]
            if py == 0.0:
                continue
            rec(w, k + 1, us + [profile.actions[k][y]], p * num(py))

    for w in range(len(problem.omega0)):
        pw = problem.prior.mass[w]
        if pw > 0:
            rec(w, 0, [], num(pw))
    return total


def enumerate_profiles_literal(problem):
    """Fresh lexicographic enumeration: DM 1 most significant, action for
    measurement index 0 most significant within a DM."""
    per_dm = [
        itertools.product(
            range(len(problem.u_spaces[k])),
            repeat=len(problem.y_spaces[k]),
        )
        for k in range(problem.n_dms)
    ]
    for maps in itertools.product(*per_dm):
        yield DeterministicProfile([np.array(m, dtype=int) for m in maps])


def literal_problem_doc(problem):
    """A problem document written one cell at a time from the format in
    the README (it shares no code with ``teamdec.probio``): points with
    tuples as lists, the nonzero prior masses, every kernel history with
    its nonzero row entries, and the nonzero cost cells, each keyed by
    its labels' string forms joined with ``|`` in index order."""

    def point(p):
        return [point(x) for x in p] if isinstance(p, tuple) else p

    def space(s):
        return {"name": s.name, "points": [point(p) for p in s.points]}

    def key(idx):
        spaces = [problem.omega0] + list(problem.u_spaces)
        return "|".join(str(spaces[a].points[i]) for a, i in enumerate(idx))

    prior = {}
    for w, m in enumerate(problem.prior.mass):
        if m != 0.0:
            prior[key((w,))] = float(m)
    kernels = []
    for k, kernel in enumerate(problem.kernels):
        rows = {}
        for hist in np.ndindex(kernel.table.shape[:-1]):
            rows[key(hist)] = {
                str(problem.y_spaces[k].points[y]): float(p)
                for y, p in enumerate(kernel.table[hist])
                if p != 0.0
            }
        kernels.append(rows)
    cost = {}
    for idx in np.ndindex(problem.cost.table.shape):
        if problem.cost.table[idx] != 0.0:
            cost[key(idx)] = float(problem.cost.table[idx])
    return {
        "name": problem.name,
        "spaces": {
            "omega0": space(problem.omega0),
            "measurements": [space(s) for s in problem.y_spaces],
            "actions": [space(s) for s in problem.u_spaces],
        },
        "prior": prior,
        "kernels": kernels,
        "cost": cost,
    }


def sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega=2):
    """A random team whose prior and kernel rows may hold zero entries
    (each row keeps its largest entry), so some histories and
    measurements carry no mass.  Dynamic kernels vary with every earlier
    action; static ones repeat one row per exogenous point."""
    rng = np.random.default_rng(seed)

    def rows(shape):
        t = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        if zeros:
            keep = rng.uniform(size=t.shape) > 0.4
            t = t * (keep | (t == t.max(axis=-1, keepdims=True)))
            t = t / t.sum(axis=-1, keepdims=True)
        return t

    omega = FiniteSpace("w", list(range(n_omega)))
    kernels = []
    for k, ny in enumerate(y_sizes):
        hist = (n_omega,) + tuple(u_sizes[:k])
        if dynamic:
            table = rows(hist + (ny,))
        else:
            row = rows((n_omega, ny)).reshape((n_omega,) + (1,) * k + (ny,))
            table = np.broadcast_to(row, hist + (ny,)).copy()
        kernels.append(MeasurementKernel(k + 1, table))
    return TeamProblem(
        omega,
        Pmf(omega, rows((n_omega,))),
        [FiniteSpace(f"y{k + 1}", list(range(n))) for k, n in enumerate(y_sizes)],
        [FiniteSpace(f"u{k + 1}", [float(v) for v in range(n)])
         for k, n in enumerate(u_sizes)],
        kernels,
        CostTable(rng.uniform(0.0, 1.0, size=(n_omega,) + tuple(u_sizes))),
    )


def three_dm_bsc_team():
    """A static team of three DMs with two measurements and two actions
    each: omega is uniform on 0..3 and DM k sees omega // 2 through a
    binary symmetric channel with crossover 0.1, 0.2 and 0.3."""
    omega = FiniteSpace("w", [0, 1, 2, 3])
    kernels = []
    for k, eps in enumerate((0.1, 0.2, 0.3)):
        rows = np.array([[1 - eps, eps], [eps, 1 - eps]])[np.arange(4) // 2]
        table = np.broadcast_to(rows.reshape((4,) + (1,) * k + (2,)), (4,) + (2,) * (k + 1))
        kernels.append(MeasurementKernel(k + 1, table.copy()))
    return TeamProblem(
        omega,
        Pmf.uniform(omega),
        [FiniteSpace(f"y{k}", [0, 1]) for k in (1, 2, 3)],
        [FiniteSpace(f"u{k}", [0.0, 1.0]) for k in (1, 2, 3)],
        kernels,
        CostTable(np.random.default_rng(0).uniform(size=(4, 2, 2, 2))),
    )


def deterministic_team(seed, n_omega, dms, zero_prior):
    """A static team whose DM k observes a random function of omega: its
    kernel is a one-hot row per exogenous point, repeated over earlier
    actions.  ``dms`` lists (|Y_k|, |U_k|); with ``zero_prior`` some
    exogenous points carry no prior mass (never all of them).  Actions
    lie on the integer grid 0..|U_k|-1."""
    rng = np.random.default_rng(seed)
    omega = FiniteSpace("w", list(range(n_omega)))
    mass = rng.uniform(0.1, 1.0, size=n_omega)
    if zero_prior:
        mass[rng.uniform(size=n_omega) < 0.4] = 0.0
        mass[rng.integers(n_omega)] = 1.0
    u_sizes = [nu for _, nu in dms]
    kernels = []
    for k, (ny, _) in enumerate(dms):
        rows = np.eye(ny)[rng.integers(ny, size=n_omega)]
        hist = (n_omega,) + tuple(u_sizes[:k])
        table = np.broadcast_to(rows.reshape((n_omega,) + (1,) * k + (ny,)), hist + (ny,))
        kernels.append(MeasurementKernel(k + 1, table.copy()))
    return TeamProblem(
        omega,
        Pmf(omega, mass / mass.sum()),
        [FiniteSpace(f"y{k + 1}", list(range(ny))) for k, (ny, _) in enumerate(dms)],
        [FiniteSpace(f"u{k + 1}", [float(v) for v in range(nu)])
         for k, nu in enumerate(u_sizes)],
        kernels,
        CostTable(rng.uniform(0.0, 1.0, size=(n_omega,) + tuple(u_sizes))),
    )


def replay_maps_literal(problem, block, ua, ub):
    """The two profiles a cell witness replays to, one measurement at a
    time: DM k plays action index ua[k] (ub[k]) at measurement y when the
    positive-prior points whose row puts its mass on y are nonempty and
    all lie in ``block``, and action 0 elsewhere."""
    maps_a, maps_b = [], []
    for k in range(problem.n_dms):
        table = problem.kernels[k].table
        map_a = np.zeros(len(problem.y_spaces[k]), dtype=int)
        map_b = np.zeros(len(problem.y_spaces[k]), dtype=int)
        for y in range(len(map_a)):
            pre = {
                w
                for w in range(len(problem.omega0))
                if problem.prior.mass[w] > 0 and table[(w,) + (0,) * k + (y,)] == 1.0
            }
            if pre and pre <= set(block):
                map_a[y], map_b[y] = ua[k], ub[k]
        maps_a.append(map_a)
        maps_b.append(map_b)
    return maps_a, maps_b


def to_jsonable_literal(obj):
    """The report tree, converted in one recursive copy before encoding:
    numpy -> python (numpy bools -> bools), tuples -> lists, Fractions ->
    strings, enums -> values, dataclasses -> dicts, dict keys -> strings,
    anything else -> its string."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable_literal(x) for x in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): to_jsonable_literal(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable_literal(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable_literal(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return str(obj)
