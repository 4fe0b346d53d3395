"""The paper's structural facts as properties of generated teams.

A team's information structure, its strategic-measure classes and its
optimal value do not depend on the order in which the points of its
spaces are listed; and the measure a policy induces lies in the class
of that policy's kind, for dynamic teams (whose measurements depend on
earlier actions) as for static ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdec.constants import TIE_TOL
from teamdec.infostruct import classify, precedence_graph
from teamdec.model import CostTable, FiniteSpace, MeasurementKernel, Pmf, TeamProblem
from teamdec.solvers import brute_force
from teamdec.strategic import (
    StrategicMeasure,
    check_membership_LA,
    check_membership_LR,
    induce_LA,
    induce_LR,
    mix,
)

from conftest import random_profile, random_randomized_profile, sparse_team

# (|Y_k|, |U_k|) per DM, few enough profiles for a quick exhaustive scan
dm_sizes = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda dms: np.prod([u ** y for y, u in dms]) <= 64)


def relabel(team, w, ys, us):
    """``team`` with the points of Omega, Y_k and U_k listed in the orders
    ``w``, ``ys[k]`` and ``us[k]`` (new index j holds old point
    ``order[j]``), and the prior, kernels and cost permuted to match."""

    def space(s, order):
        return FiniteSpace(s.name, [s.points[i] for i in order])

    kernels = [
        MeasurementKernel(k + 1, kernel.table[np.ix_(w, *us[:k], ys[k])])
        for k, kernel in enumerate(team.kernels)
    ]
    return TeamProblem(
        space(team.omega0, w),
        Pmf(space(team.omega0, w), team.prior.mass[w]),
        [space(s, o) for s, o in zip(team.y_spaces, ys)],
        [space(s, o) for s, o in zip(team.u_spaces, us)],
        kernels,
        CostTable(team.cost.table[np.ix_(w, *us)]),
    )


@settings(max_examples=150)
@given(
    dms=dm_sizes,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_relabelling_the_points_of_every_space_changes_nothing(dms, n_omega, dynamic, seed):
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, True, n_omega)
    rng = np.random.default_rng(seed)
    w = rng.permutation(n_omega)
    ys = [rng.permutation(n) for n in y_sizes]
    us = [rng.permutation(n) for n in u_sizes]
    moved = relabel(team, w, ys, us)
    # the joint's axes are omega, y1, u1, ..., yN, uN
    axes = [w] + [o for pair in zip(ys, us) for o in pair]

    assert classify(moved) == classify(team)
    assert precedence_graph(moved) == precedence_graph(team)

    det = induce_LA(team, random_profile(team, seed))
    det2 = induce_LA(team, random_profile(team, seed + 1))
    rnd = induce_LR(team, random_randomized_profile(team, seed))
    for m in (det, rnd, mix([det, det2], [0.5, 0.5])):
        twin = StrategicMeasure(moved, m.joint[np.ix_(*axes)])
        for check in (check_membership_LR, check_membership_LA):
            assert check(twin).member == check(m).member

    best = brute_force(team).value
    assert abs(brute_force(moved).value - best) <= TIE_TOL * max(1.0, abs(best))


@settings(max_examples=150)
@given(dms=dm_sizes, n_omega=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_induced_measures_of_dynamic_teams_lie_in_their_classes(dms, n_omega, seed):
    """Every deterministic profile of a dynamic team with zero rows
    induces a member of L_A (hence of L_R), and every randomized one a
    member of L_R."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, True, True, n_omega)
    det = induce_LA(team, random_profile(team, seed))
    assert check_membership_LA(det).member
    assert check_membership_LR(det).member
    assert check_membership_LR(induce_LR(team, random_randomized_profile(team, seed))).member
