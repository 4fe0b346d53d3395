"""Seeded finite teams for the finite-teams workload.

Each team is built from bare arrays whose structure fixes the expected
answers: the information class, the precedence edges and which of them
are nested, and (for static teams) the convexity verdict.  The seed
changes the numbers (priors, kernel rows, cost coefficients), never the
sizes or the structure, so every seed does the same amount of work.

Make-up (sizes are |Omega|; per DM |Y| x |U|):

=================  ======  ==========================  ================  ==========
team               Omega   DMs                         class             verdict
=================  ======  ==========================  ================  ==========
static-convex      6       3x5, 2x5 (omega mod 3, //3)  static            convex
classical-concave  4       2x3, 4x3 (omega // 2, omega) classical         not-convex
partially-nested   4       2x3, 4x3 (y2 = (y1, noisy))  partially-nested  -
nonclassical-2     4       2x3, 3x3 (y2 noisy in u1)    nonclassical      -
nonclassical-3     4       2x2, 2x2, 2x2                nonclassical      -
single-dm          5       5x3 (y = omega)              classical         convex
wide               200     1x20, 1x20 (no information)  classical         convex
=================  ======  ==========================  ================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from oracles import Arrays


@dataclass
class Team:
    name: str
    arrays: Arrays
    omega: list
    y_labels: list
    u_values: list  # numeric action grids, one per DM
    is_class: str
    edges: list  # precedence edges (k, i), 1-based
    nested: dict  # "k->i" -> bool
    verdict: Optional[str] = None  # expected certify-convexity verdict
    y_of_omega: Optional[list] = None  # deterministic static measurements
    commands: tuple = ()

    def problem(self, teamdec):
        """The team as a teamdec.TeamProblem (for writing the file)."""
        omega = teamdec.FiniteSpace("omega", self.omega)
        spaces_y = [teamdec.FiniteSpace(f"y{k + 1}", y) for k, y in enumerate(self.y_labels)]
        spaces_u = [
            teamdec.FiniteSpace(f"u{k + 1}", [float(v) for v in u])
            for k, u in enumerate(self.u_values)
        ]
        kernels = [
            teamdec.MeasurementKernel(k + 1, t) for k, t in enumerate(self.arrays.kernels)
        ]
        return teamdec.TeamProblem(
            omega,
            teamdec.Pmf(omega, self.arrays.prior),
            spaces_y,
            spaces_u,
            kernels,
            teamdec.CostTable(self.arrays.cost),
            name=self.name,
        )


FULL = ("validate", "classify", "reduce", "brute", "pbp", "mixture-lp",
        "enumerate", "check", "witness")
STATIC = FULL + ("certify",)
WIDE = ("validate", "classify", "reduce", "brute", "pbp", "mixture-lp",
        "enumerate", "certify")


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _one_hot(labels, n: int) -> np.ndarray:
    out = np.zeros((len(labels), n))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _static_kernels(y_of_omega, ny, nu):
    """Deterministic kernels that ignore earlier actions."""
    kernels = []
    for k, (ys, n) in enumerate(zip(y_of_omega, ny)):
        rows = _one_hot(ys, n)
        shape = (len(ys),) + tuple(nu[:k]) + (n,)
        kernels.append(np.ascontiguousarray(
            np.broadcast_to(rows.reshape((len(ys),) + (1,) * k + (n,)), shape)))
    return kernels


def _quadratic(rng, n_omega, grids, concave=False):
    """Sum of random positive quadratics in the actions (one per omega);
    negated and lifted to stay nonnegative when ``concave``."""
    mesh = np.meshgrid(*grids, indexing="ij")
    cost = np.zeros((n_omega,) + mesh[0].shape)
    for w in range(n_omega):
        terms = [rng.uniform(0.5, 2.0) * (m - rng.uniform()) ** 2 for m in mesh]
        if len(mesh) > 1:
            terms.append(rng.uniform(0.5, 2.0) * (sum(mesh) - rng.uniform(0, len(mesh))) ** 2)
        cost[w] = sum(terms)
    if concave:
        cost = cost.max() + 0.5 - cost
    return cost + 0.1


def _stochastic(rng, shape):
    rows = rng.uniform(0.2, 1.0, size=shape)
    return rows / rows.sum(axis=-1, keepdims=True)


def _static_team(rng, name, n_omega, y_of_omega, ny, nu, is_class, verdict, commands):
    grids = [_grid(n) for n in nu]
    arrays = Arrays(
        rng.dirichlet(np.ones(n_omega)),
        tuple(_static_kernels(y_of_omega, ny, nu)),
        _quadratic(rng, n_omega, grids, concave=verdict == "not-convex"),
    )
    return Team(name, arrays, list(range(n_omega)),
                [list(range(n)) for n in ny], grids, is_class, [], {},
                verdict, [list(y) for y in y_of_omega], commands)


def generate(seed: int) -> list:
    """The seven teams of the finite-teams workload for one seed."""
    teams = []

    def rng(i):
        return np.random.default_rng([seed, i])

    w6 = np.arange(6)
    teams.append(_static_team(rng(0), "static-convex", 6, [w6 % 3, w6 // 3],
                              [3, 2], [5, 5], "static", "convex", STATIC))
    w4 = np.arange(4)
    teams.append(_static_team(rng(1), "classical-concave", 4, [w4 // 2, w4],
                              [2, 4], [3, 3], "classical", "not-convex", STATIC))

    # partially nested: y2 = (y1, b) with b noisy in (omega, u1)
    r = rng(2)
    k1 = _one_hot(w4 % 2, 2)
    b = _stochastic(r, (4, 3, 2))
    k2 = np.zeros((4, 3, 4))
    for w in range(4):
        k2[w, :, 2 * (w % 2): 2 * (w % 2) + 2] = b[w]
    teams.append(Team(
        "partially-nested",
        Arrays(r.dirichlet(np.ones(4)), (k1, k2), r.uniform(0, 10, size=(4, 3, 3))),
        list(range(4)), [[0, 1], ["a0b0", "a0b1", "a1b0", "a1b1"]],
        [_grid(3), _grid(3)], "partially-nested", [(1, 2)], {"1->2": True},
        commands=FULL))

    # nonclassical, two DMs: y2 is a noisy function of (omega, u1) alone
    r = rng(3)
    teams.append(Team(
        "nonclassical-2",
        Arrays(r.dirichlet(np.ones(4)), (k1, _stochastic(r, (4, 3, 3))),
               r.uniform(0, 10, size=(4, 3, 3))),
        list(range(4)), [[0, 1], [0, 1, 2]], [_grid(3), _grid(3)],
        "nonclassical", [(1, 2)], {"1->2": False}, commands=FULL))

    # nonclassical, three DMs: every later measurement is noisy in all
    # earlier actions
    r = rng(4)
    teams.append(Team(
        "nonclassical-3",
        Arrays(r.dirichlet(np.ones(4)),
               (k1, _stochastic(r, (4, 2, 2)), _stochastic(r, (4, 2, 2, 2))),
               r.uniform(0, 10, size=(4, 2, 2, 2))),
        list(range(4)), [[0, 1], [0, 1], [0, 1]], [_grid(2)] * 3,
        "nonclassical", [(1, 2), (1, 3), (2, 3)],
        {"1->2": False, "1->3": False, "2->3": False}, commands=FULL))

    w5 = np.arange(5)
    teams.append(_static_team(rng(5), "single-dm", 5, [w5], [5], [3],
                              "classical", "convex", STATIC))
    zeros = np.zeros(200, dtype=int)
    teams.append(_static_team(rng(6), "wide", 200, [zeros, zeros], [1, 1],
                              [20, 20], "classical", "convex", WIDE))
    return teams
