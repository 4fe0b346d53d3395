"""Solver tests: exhaustive scan against a literal re-enumeration,
response tables against per-map summation, cyclic best-response descent,
the mixture relaxation, and the quadrature-team optimality checks."""

import itertools
import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdec.constants import LP_TOL, TIE_TOL
from teamdec.errors import CapExceeded, ValidationError
from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
    _compact,
    expected_cost,
    expected_cost_batch,
)
from teamdec import solvers
from teamdec.gallery import signaling
from teamdec.quadrature import StaticLQTeam
from teamdec.solvers import (
    best_response,
    brute_force,
    check_krainak_inequality,
    check_stationarity,
    measurement_marginal,
    pbp_iterate,
    profile_values,
    response_table,
    seeded_profiles,
)

from conftest import (
    enumerate_profiles_literal,
    naive_expected_cost,
    random_profile,
    random_randomized_profile,
    random_team,
    sparse_team,
)


def test_brute_force_matches_literal_scan():
    for seed in range(8):
        team = random_team(seed, dynamic=bool(seed % 2))
        vals = [
            naive_expected_cost(team, prof)
            for prof in enumerate_profiles_literal(team)
        ]
        want_idx = int(np.argmin(vals))  # first minimizer
        res = brute_force(team)
        assert res.n_profiles == len(vals)
        assert res.value == pytest.approx(vals[want_idx], abs=1e-12)
        assert res.index == want_idx
        assert naive_expected_cost(team, res.profile) == pytest.approx(
            res.value, abs=1e-12
        )


def test_brute_force_tie_break_returns_first_profile():
    team = random_team(0, dynamic=False, cost_scale=0.0)
    res = brute_force(team)
    assert res.value == 0.0
    assert res.index == 0
    assert all(np.all(a == 0) for a in res.profile.actions)


def test_brute_force_cap():
    team = random_team(1)
    with pytest.raises(CapExceeded):
        brute_force(team, cap=3)


def tie_team(seed, y_sizes, u_sizes, n_omega, dynamic):
    """Costs in {0, 1, 2}, a uniform prior and kernel rows drawn from
    small integer weights, so many profiles tie in exact arithmetic
    while their float costs can differ in the last bits."""
    rng = np.random.default_rng(seed)
    omega = FiniteSpace("w", list(range(n_omega)))
    kernels = []
    for k, ny in enumerate(y_sizes):
        hist = (n_omega,) + tuple(u_sizes[:k])
        weights = rng.integers(0, 3, size=(hist if dynamic else (n_omega,)) + (ny,))
        weights[..., 0] += weights.sum(axis=-1) == 0
        rows = weights / weights.sum(axis=-1, keepdims=True)
        if not dynamic:
            rows = rows.reshape((n_omega,) + (1,) * k + (ny,))
        kernels.append(MeasurementKernel(k + 1, np.broadcast_to(rows, hist + (ny,)).copy()))
    return TeamProblem(
        omega,
        Pmf.uniform(omega),
        [FiniteSpace(f"y{k + 1}", list(range(n))) for k, n in enumerate(y_sizes)],
        [FiniteSpace(f"u{k + 1}", [float(v) for v in range(n)])
         for k, n in enumerate(u_sizes)],
        kernels,
        CostTable(rng.integers(0, 3, size=(n_omega,) + tuple(u_sizes)).astype(float)),
    )


def rational(x):
    """The small-denominator rational a tie_team mass or cost was
    rounded from: masses are 1/|Omega| or a weight over a row sum of at
    most 6, so a denominator of at most 64 recovers it exactly."""
    return Fraction(float(x)).limit_denominator(64)


# 1-3 DMs as (|Y_k|, |U_k|), at most 64 deterministic profiles
tie_dms = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda dms: np.prod([u ** y for y, u in dms]) <= 64)


@settings(max_examples=200)
@given(
    dms=tie_dms,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# exact ties whose float costs differ in the last bit: a strict float
# argmin reports index 1 and 26 here
@example(dms=[(3, 2)], n_omega=2, dynamic=True, seed=130108119)
@example(dms=[(2, 1), (3, 3), (1, 2)], n_omega=3, dynamic=False, seed=2247090955)
def test_brute_force_returns_the_first_exact_minimizer(dms, n_omega, dynamic, seed):
    y_sizes, u_sizes = zip(*dms)
    team = tie_team(seed, y_sizes, u_sizes, n_omega, dynamic)
    profiles = list(enumerate_profiles_literal(team))
    exact = [naive_expected_cost(team, p, num=rational) for p in profiles]
    want = exact.index(min(exact))
    res = brute_force(team)
    assert res.index == want
    assert all(
        np.array_equal(a, b) for a, b in zip(res.profile.actions, profiles[want].actions)
    )
    assert res.value == pytest.approx(float(exact[want]), abs=1e-12)


def test_brute_force_tie_rule_spends_the_slack_in_measurement_order():
    # DM 1 picks u1 blind; DM 2 sees a fair coin.  Prefix u1 = 0 is
    # 0.2e-12 above the optimum 1 (prefix u1 = 1), inside TIE_TOL.  Its
    # action 0 costs 0.5e-12 more than action 1 in each of DM 2's rows:
    # the slack left (0.8e-12) pays for it in row 0 but not again in row 1.
    omega = FiniteSpace("w", [0])
    cost = np.array([[[1 + 1.2e-12, 1 + 0.2e-12], [1.0, 1.0]]])
    team = TeamProblem(
        omega,
        Pmf.uniform(omega),
        [FiniteSpace("y1", [0]), FiniteSpace("y2", [0, 1])],
        [FiniteSpace("u1", [0.0, 1.0]), FiniteSpace("u2", [0.0, 1.0])],
        [MeasurementKernel(1, np.ones((1, 1))), MeasurementKernel(2, np.full((1, 2, 2), 0.5))],
        CostTable(cost),
    )
    vals = np.array(
        [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    )
    want = int(np.flatnonzero(vals <= vals.min() + TIE_TOL * max(1.0, abs(vals.min())))[0])
    assert want == 1  # u1 = 0, map (0, 1); the strict float argmin is 4
    res = brute_force(team)
    assert res.index == want
    assert [a.tolist() for a in res.profile.actions] == [[0], [0, 1]]
    assert res.value == pytest.approx(vals[want], abs=1e-15)


def test_brute_force_memory_scales_with_the_prefix_law():
    # no information, 20 x 20 maps: a law over (omega, u1, u2) per
    # profile would hold 400 * 200 * 20 * 20 cells, 256 MB
    team = random_team(5, n_omega=200, y_sizes=(1, 1), u_sizes=(20, 20))
    tracemalloc.start()
    try:
        res = brute_force(team)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_profiles == 400
    assert peak < 16 * 2**20


def test_prefix_scan_chunks_fit_the_cell_budget():
    # 10^4 maps of DM 1 over a 200-point omega: a 2048-prefix chunk
    # would hold a law of 2048 * 200 * 10 cells (33 MB) for a 32 KB cost
    team = random_team(0, n_omega=200, y_sizes=(4, 1), u_sizes=(10, 2))
    tracemalloc.start()
    try:
        res = brute_force(team)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_profiles == 20000
    # a few chunk-sized arrays of 8-byte cells, whatever the prefix count
    assert peak < 4 * 8 * solvers._SCAN_CELLS


def test_prefix_scan_answers_do_not_depend_on_the_chunk(monkeypatch):
    team = random_team(3, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True)
    want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    for budget in (1, 100, solvers._SCAN_CELLS):  # one prefix a chunk, a few, all
        monkeypatch.setattr(solvers, "_SCAN_CELLS", budget)
        res = brute_force(team)
        assert res.index == int(np.argmin(want))
        assert res.value == pytest.approx(min(want), abs=1e-12)
        assert profile_values(team, len(want)) == pytest.approx(want, abs=1e-12)


def test_brute_force_logs_its_scan(caplog, monkeypatch):
    # 4096 prefixes of DM 1, each 29 cells (4 law, 1 table, 24 one-hot),
    # span two chunks of 2048 under a budget of 2048 * 29 cells; DM 2 has one action
    team = random_team(6, n_omega=2, y_sizes=(12, 1), u_sizes=(2, 1), dynamic=True)
    monkeypatch.setattr(solvers, "_SCAN_CELLS", 2048 * 29)
    with caplog.at_level(logging.DEBUG, logger="teamdec.solvers"):
        res = brute_force(team)
    assert [r.getMessage() for r in caplog.records] == [
        "brute force: 4096 prefixes scanned, 2 chunks, 4096 profiles covered, "
        "largest prefix table 2048 cells"
    ]
    vals = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    assert res.index == int(np.argmin(vals))
    assert res.value == pytest.approx(min(vals), abs=1e-12)

    caplog.clear()
    team = random_team(7, y_sizes=(2, 3), u_sizes=(3, 2))
    with caplog.at_level(logging.DEBUG, logger="teamdec.solvers"):
        brute_force(team)
    assert [r.getMessage() for r in caplog.records] == [
        "brute force: 9 prefixes scanned, 1 chunks, 72 profiles covered, "
        "largest prefix table 54 cells"
    ]


def test_profile_values_follow_the_lexicographic_order():
    for team in (
        random_team(8, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True),
        random_team(9, y_sizes=(3,), u_sizes=(2,)),
    ):
        want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
        for count in (0, 1, 3, 5, 7, len(want)):
            got = profile_values(team, count)
            assert got.shape == (count,)
            assert got == pytest.approx(want[:count], abs=1e-12)


def test_profile_values_refuse_counts_past_the_last_profile():
    team = random_team(1)
    profiles = list(enumerate_profiles_literal(team))
    assert len(profiles) == team.n_deterministic_profiles() == 16
    got = profile_values(team, 16)
    assert got.tolist() == pytest.approx([expected_cost(team, p) for p in profiles], abs=1e-12)
    for count in (17, 21, -1):  # 21 used to wrap round to profiles 0..4
        with pytest.raises(ValidationError, match=f"{count} profiles requested of 16"):
            profile_values(team, count)


@settings(max_examples=100)
@given(
    dms=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
    ).filter(lambda dms: np.prod([u ** y for y, u in dms]) <= 200),
    data=st.data(),
)
def test_profile_maps_slice_the_literal_walk(dms, data):
    y_spaces = [range(y) for y, _ in dms]
    u_spaces = [range(u) for _, u in dms]
    walk = list(itertools.product(*[itertools.product(u, repeat=len(y))
                                    for y, u in zip(y_spaces, u_spaces)]))

    def literal(first, stop):
        return [[list(p[k]) for p in walk[first:stop]] for k in range(len(dms))]

    cuts = data.draw(st.lists(st.integers(0, len(walk)), max_size=4))
    bounds = sorted({0, len(walk), *cuts})
    pieces = []
    for first, stop in zip(bounds, bounds[1:]):
        maps = solvers._profile_maps(y_spaces, u_spaces, first, stop)
        assert [m.shape for m in maps] == [(stop - first, y) for y, _ in dms]
        assert [m.tolist() for m in maps] == literal(first, stop)
        pieces.append(maps)
    whole = [np.concatenate(ms).tolist() for ms in zip(*pieces)]
    assert whole == literal(0, len(walk))
    empty = solvers._profile_maps(y_spaces, u_spaces, len(walk), len(walk))
    assert [m.shape for m in empty] == [(0, y) for y, _ in dms]


def test_profile_scans_take_more_measurements_than_numpy_has_axes():
    # DM 2 has one action for each of 70 measurements: two profiles, but
    # one numpy axis per measurement would pass numpy's 64-axis limit
    team = random_team(4, y_sizes=(1, 70), u_sizes=(2, 1), dynamic=True)
    want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    res = brute_force(team)
    assert (res.n_profiles, res.index) == (2, int(np.argmin(want)))
    assert res.value == pytest.approx(min(want), abs=1e-12)
    assert [a.tolist() for a in res.profile.actions] == [[res.index], [0] * 70]
    assert profile_values(team, 2) == pytest.approx(want, abs=1e-12)
    assert profile_values(team, 1) == pytest.approx(want[:1], abs=1e-12)


def test_response_table_decomposes_the_cost():
    """For any map of DM i, the cost with others fixed is the sum of the
    response-table entries the map selects."""
    for seed, team in (
        (0, random_team(0, dynamic=True)),
        (5, random_team(5, dynamic=True)),
        (1, random_team(1, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True)),
    ):
        prof = random_profile(team, seed + 10)
        rng = np.random.default_rng(seed)
        for i in range(1, team.n_dms + 1):
            table = response_table(team, prof, i)
            ny, nu = table.shape
            for _ in range(6):
                alt = rng.integers(0, nu, size=ny)
                actions = [a.copy() for a in prof.actions]
                actions[i - 1] = alt
                joined = DeterministicProfile(actions)
                want = naive_expected_cost(team, joined)
                got = float(sum(table[y, alt[y]] for y in range(ny)))
                assert got == pytest.approx(want, abs=1e-12)


def test_response_table_works_against_randomized_coplayers():
    for team, i in (
        (random_team(2, dynamic=True), 2),
        (random_team(2, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True), 2),
    ):
        prof = random_randomized_profile(team, 4)
        table = response_table(team, prof, i)
        # playing the row minima equals the best-response value, with the
        # other DMs keeping their randomized policies
        new_prof, val = best_response(team, prof, i)
        assert val == pytest.approx(float(table.min(axis=1).sum()), abs=1e-12)
        assert val == pytest.approx(expected_cost(team, new_prof), abs=1e-12)
        assert val <= expected_cost(team, prof) + 1e-12
        assert isinstance(new_prof, RandomizedProfile)
        for k in range(team.n_dms):
            if k != i - 1:
                assert np.allclose(new_prof.kernels[k], prof.kernels[k], atol=0)
        assert np.all(np.isin(new_prof.kernels[i - 1], (0.0, 1.0)))


def test_measurement_marginal_matches_literal_summation():
    team = random_team(6, dynamic=True)
    prof = random_profile(team, 6)
    mats = prof.matrices(team)
    n_omega = len(team.omega0)
    ny1 = len(team.y_spaces[0])
    nu1 = len(team.u_spaces[0])
    k1 = team.kernels[0].table.reshape(n_omega, ny1)
    k2 = team.kernels[1].table  # (omega, u1, y2)
    want = np.zeros(len(team.y_spaces[1]))
    for w in range(n_omega):
        for y1 in range(ny1):
            for u1 in range(nu1):
                p = team.prior.mass[w] * k1[w, y1] * mats[0][y1, u1]
                want += p * k2[w, u1, :]
    got = measurement_marginal(team, prof, 2)
    assert np.allclose(got, want, atol=1e-12)

    # DM 3 of a three-DM team: its kernel depends on both earlier actions
    team = random_team(6, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True)
    prof = random_profile(team, 6)
    k1, k2, k3 = (k.table for k in team.kernels)
    a1, a2 = prof.actions[0], prof.actions[1]
    want = np.zeros(len(team.y_spaces[2]))
    for w in range(len(team.omega0)):
        for y1 in range(len(team.y_spaces[0])):
            for y2 in range(len(team.y_spaces[1])):
                p = team.prior.mass[w] * k1[w, y1] * k2[w, a1[y1], y2]
                want += p * k3[w, a1[y1], a2[y2], :]
    got = measurement_marginal(team, prof, 3)
    assert np.allclose(got, want, atol=1e-12)


def full_kernel_response_table(problem, profile, i):
    """response_table as it was written before kernels were stored
    compact: every kernel contracted at its full history shape."""
    mats = profile.matrices(problem)
    kernels = [np.ascontiguousarray(k.table) for k in problem.kernels]

    def factor(kernel, policy):
        g = kernel.reshape(-1, kernel.shape[-1]) @ policy
        return g.reshape(kernel.shape[:-1] + policy.shape[-1:])

    law = problem.prior.mass
    for kernel, policy in zip(kernels[: i - 1], mats[: i - 1]):
        g = factor(kernel, policy)
        g *= law[..., None]
        law = g
    value = problem.cost.table
    for kernel, policy in zip(reversed(kernels[i:]), reversed(mats[i:])):
        g = factor(kernel, policy)
        g *= value
        value = g.sum(axis=-1)
    kernel = kernels[i - 1]
    weighted = law[..., None] * value
    return kernel.reshape(-1, kernel.shape[-1]).T @ weighted.reshape(-1, value.shape[-1])


def test_response_table_moves_from_the_full_kernel_fold_only_in_last_digits():
    """Declared output move: the law times the value-to-go is summed
    over the axes a stored kernel lacks before its contraction, which
    moves signaling's tables by at most 1e-14 of their largest entry.
    Dense kernels cut nothing and give the same bits as before."""
    problem = signaling().problem
    for profile in seeded_profiles(problem, 3, 2):
        for i in (1, 2):
            want = full_kernel_response_table(problem, profile, i)
            got = response_table(problem, profile, i)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    team = random_team(4, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True)
    profile = random_profile(team, 4)
    for i in (1, 2, 3):
        want = full_kernel_response_table(team, profile, i)
        assert np.array_equal(response_table(team, profile, i), want)


def dense_response_table(problem, profile, i):
    """response_table as one dense product of the law and the
    value-to-go, summed by numpy over the history axes DM i's stored
    kernel cuts, before the contraction with that kernel."""
    mats = profile.matrices(problem)
    kernels = [_compact(k.table) for k in problem.kernels]

    def factor(kernel, policy):
        g = kernel.reshape(-1, kernel.shape[-1]) @ policy
        return g.reshape(kernel.shape[:-1] + policy.shape[-1:])

    law = problem.prior.mass
    for kernel, policy in zip(kernels[: i - 1], mats[: i - 1]):
        law = factor(kernel, policy) * law[..., None]
    value = problem.cost.table
    for kernel, policy in zip(reversed(kernels[i:]), reversed(mats[i:])):
        value = (factor(kernel, policy) * value).sum(axis=-1)
    kernel = kernels[i - 1]
    cut = tuple(a for a in range(law.ndim) if kernel.shape[a] < law.shape[a])
    weighted = (law[..., None] * value).sum(axis=cut, keepdims=True)
    return kernel.reshape(-1, kernel.shape[-1]).T @ weighted.reshape(-1, value.shape[-1])


@settings(max_examples=150)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=2, max_size=4),
    n_omega=st.integers(1, 4),
    dynamic=st.booleans(),
    zeros=st.sampled_from([None, False, True]),  # None: random_team
    shift=st.sampled_from([0.0, 0.7]),  # subtracted from the cost
    seed=st.integers(0, 2**32 - 1),
)
# DM 3 has one action and cuts 16 cells of (u1, u2): numpy sums them pairwise
@example(dms=[(2, 4), (3, 4), (3, 1)], n_omega=2, dynamic=False, zeros=True, shift=0.0, seed=1)
def test_response_table_keeps_the_dense_sums_bits(dms, n_omega, dynamic, zeros, shift, seed):
    """Skipping the histories the law gives no mass changes no bit of any
    table, against deterministic (sparse laws) and randomized profiles,
    with zero rows, one-action DMs and negative costs."""
    y_sizes, u_sizes = zip(*dms)
    if zeros is None:
        team = random_team(seed, n_omega, y_sizes, u_sizes, dynamic)
    else:
        team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    if shift:
        team = TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                           team.kernels, CostTable(team.cost.table - shift))
    for profile in (random_profile(team, seed), random_randomized_profile(team, seed)):
        for i in range(1, team.n_dms + 1):
            want = dense_response_table(team, profile, i)
            assert response_table(team, profile, i).tobytes() == want.tobytes()


def test_best_response_improves_and_respects_dead_rows():
    team = random_team(7, dynamic=False)
    prof = random_profile(team, 7)
    base = expected_cost(team, prof)
    for i in (1, 2):
        improved, val = best_response(team, prof, i)
        assert val <= base + 1e-12
        for j, (a, b) in enumerate(zip(improved.actions, prof.actions)):
            if j != i - 1:
                assert np.array_equal(a, b)


def test_best_response_ties_pick_the_lowest_action():
    # four equally likely points; DM 1 sees w // 2, DM 2 sees w % 2.  The
    # cost w + (u1 - 1.5)^2 + (u2 - 1.5)^2 on actions 0..3 ties actions 1
    # and 2 of either DM exactly: every entry and sum is dyadic, so exact
    omega = FiniteSpace("w", [0, 1, 2, 3])
    grid = [0.0, 1.0, 2.0, 3.0]
    w = np.arange(4.0)
    rows1, rows2 = np.eye(2)[w.astype(int) // 2], np.eye(2)[w.astype(int) % 2]
    u = np.array(grid)
    team = TeamProblem(
        omega,
        Pmf(omega, np.full(4, 0.25)),
        [FiniteSpace("y1", [0, 1]), FiniteSpace("y2", [0, 1])],
        [FiniteSpace("u1", grid), FiniteSpace("u2", grid)],
        [MeasurementKernel(1, rows1), MeasurementKernel(2, np.repeat(rows2[:, None, :], 4, axis=1))],
        CostTable(w[:, None, None] + (u[None, :, None] - 1.5) ** 2 + (u[None, None, :] - 1.5) ** 2),
    )
    incumbent = DeterministicProfile([np.array([3, 0]), np.array([0, 3])])
    for i in (1, 2):
        table = response_table(team, incumbent, i)
        assert np.array_equal(table[:, 1], table[:, 2])
        assert np.array_equal(table.min(axis=1), table[:, 1])
        for profile in (incumbent, RandomizedProfile([np.eye(4)[a] for a in incumbent.actions])):
            new, value = best_response(team, profile, i)
            got = new.actions[i - 1] if isinstance(new, DeterministicProfile) else new.kernels[i - 1].argmax(axis=1)
            assert got.tolist() == [1, 1]
            assert value == float(table[:, 1].sum())


def test_pbp_descends_to_a_person_by_person_optimum():
    for seed in range(6):
        team = random_team(seed, dynamic=bool(seed % 2))
        res = pbp_iterate(team)
        trace = np.array(res.trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-12)
        assert res.converged
        assert res.value == pytest.approx(trace[-1], abs=0)
        # no single-DM deviation improves the final profile
        for i in (1, 2):
            table = response_table(team, res.profile, i)
            assert float(table.min(axis=1).sum()) >= res.value - 1e-10
        # person-by-person optima are no better than the global optimum
        assert res.value >= brute_force(team).value - 1e-12


@settings(max_examples=100)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3)
    .filter(lambda dms: max(u ** y for y, u in dms) <= 27),
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pbp_ends_where_no_literal_single_dm_deviation_improves(
    dms, n_omega, dynamic, zeros, seed
):
    """Against an oracle PBP does not run: every map of one DM, written
    out with itertools and priced by literal summation, leaves the end
    value V where it is, up to TIE_TOL * max(1, |V|); the trace never
    rises by more than that rounding slack."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    res = pbp_iterate(team)
    assert res.converged
    for before, after in zip(res.trace, res.trace[1:]):
        assert after <= before + TIE_TOL * max(1.0, abs(before))
    slack = TIE_TOL * max(1.0, abs(res.value))
    assert abs(naive_expected_cost(team, res.profile) - res.value) <= slack
    for i, (ny, nu) in enumerate(dms):
        for m in itertools.product(range(nu), repeat=ny):
            actions = list(res.profile.actions)
            actions[i] = np.array(m, dtype=int)
            deviation = naive_expected_cost(team, DeterministicProfile(actions))
            assert deviation >= res.value - slack


def test_pbp_logs_its_sweeps_and_the_history_cells_it_summed(caplog):
    # four equally likely points; DM 1 sees w // 2, DM 2 sees w % 2 with a
    # kernel that ignores u1.  DM 1's table takes in the prior's 4 cells;
    # DM 2's law over (w, u1) has 4 x 3 cells, of which a deterministic
    # DM 1 leaves one per w, so each sweep sums 8 of 16 history cells
    omega = FiniteSpace("w", [0, 1, 2, 3])
    w = np.arange(4)
    rows1, rows2 = np.eye(2)[w // 2], np.eye(2)[w % 2]
    team = TeamProblem(
        omega,
        Pmf(omega, np.full(4, 0.25)),
        [FiniteSpace("y1", [0, 1]), FiniteSpace("y2", [0, 1])],
        [FiniteSpace("u1", [0.0, 1.0, 2.0]), FiniteSpace("u2", [0.0, 1.0])],
        [MeasurementKernel(1, rows1), MeasurementKernel(2, np.repeat(rows2[:, None, :], 3, axis=1))],
        CostTable(np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 3, 2))),
    )
    with caplog.at_level(logging.DEBUG, logger="teamdec.solvers"):
        res = pbp_iterate(team)
    s = res.sweeps
    assert [r.getMessage() for r in caplog.records] == [
        f"pbp: {s} sweeps, {2 * s} single-DM updates, {8 * s} of {16 * s} history cells accumulated"
    ]
    assert len(res.trace) == 2 * s + 1

    # a kernel over the full history cuts no axis: every cell is taken in
    caplog.clear()
    team = random_team(2, dynamic=True)
    with caplog.at_level(logging.DEBUG, logger="teamdec.solvers"):
        s = pbp_iterate(team).sweeps
    assert [r.getMessage() for r in caplog.records] == [
        f"pbp: {s} sweeps, {2 * s} single-DM updates, {9 * s} of {9 * s} history cells accumulated"
    ]


def test_pbp_started_at_the_optimum_stays_there():
    team = random_team(9, dynamic=True)
    opt = brute_force(team)
    res = pbp_iterate(team, init=opt.profile)
    assert res.converged
    assert res.trace[0] == pytest.approx(opt.value, abs=1e-12)
    assert res.value == pytest.approx(opt.value, abs=1e-12)


@settings(max_examples=100)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3)
    .filter(lambda dms: np.prod([u ** y for y, u in dms]) <= 729),
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_randomized_profile_beats_the_deterministic_optimum(dms, n_omega, dynamic, zeros, seed):
    """The cost is linear in each DM's kernel, so the relaxed set's
    extreme points are deterministic and no randomized profile does
    better than brute_force's value V*, up to TIE_TOL * max(1, |V*|).
    The randomized costs come from expected_cost_batch on random
    kernels, some near a vertex and some in the interior."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    best = brute_force(team).value
    rng = np.random.default_rng(seed)
    kernels = [
        rng.dirichlet(np.full(nu, rng.choice([0.05, 1.0, 20.0])), size=(64, ny)) for ny, nu in dms
    ]
    values = expected_cost_batch(team, kernels)
    assert values.min() >= best - TIE_TOL * max(1.0, abs(best))


def test_mixture_relaxation_sits_at_a_vertex():
    for seed in range(4):
        team = random_team(seed, dynamic=bool(seed % 2))
        profiles = list(enumerate_profiles_literal(team))
        vals = [naive_expected_cost(team, p) for p in profiles]
        want = int(np.argmin(vals))
        best = brute_force(team)
        assert best.value == pytest.approx(vals[want], abs=LP_TOL)
        assert best.n_profiles == len(profiles)
        assert best.index == want
        assert all(
            np.array_equal(a, b)
            for a, b in zip(best.profile.actions, profiles[want].actions)
        )
        # no randomized profile does better than the vertex optimum
        for trial in range(10):
            rnd = random_randomized_profile(team, 50 * seed + trial)
            assert best.value <= expected_cost(team, rnd) + 1e-12


# ------------------------------------------------- quadrature-team checks


def lq_normal_equation_gains(team):
    """Independent closed-form optimum: conditional optimality of each
    affine gain against the other yields a 2x2 linear system driven by
    the second moments of (state, measurements)."""
    m11 = team.sigma_s**2 + team.sigma1**2
    m22 = team.sigma_s**2 + team.sigma2**2
    m12 = team.sigma_s**2
    A = np.array(
        [[(1 + team.rho1) * m11, m12], [m12, (1 + team.rho2) * m22]]
    )
    b = np.array([team.sigma_s**2, team.sigma_s**2])
    return np.linalg.solve(A, b)


def test_lq_solve_matches_normal_equations():
    team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
    theta = team.solve_affine_optimum()
    gains = lq_normal_equation_gains(team)
    assert theta[0] == pytest.approx(gains[0], abs=1e-12)
    assert theta[2] == pytest.approx(gains[1], abs=1e-12)
    assert theta[1] == theta[3] == 0.0
    # frozen values for this parametrization
    assert theta[0] == pytest.approx(0.46454069, abs=1e-7)
    assert theta[2] == pytest.approx(0.27415516, abs=1e-7)


def test_lq_stationarity_holds_only_at_the_optimum():
    team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
    theta = team.solve_affine_optimum()
    report = check_stationarity(team, theta)
    assert report.stationary
    assert report.gradient_inf <= 1e-6
    assert report.node_residual_inf <= 1e-6
    # cost at the optimum beats nearby and naive parameter choices
    j_opt = team.expected_cost_params(theta)
    assert j_opt < team.expected_cost_params(theta + np.array([0.1, 0, 0, 0]))
    assert j_opt < team.expected_cost_params(np.zeros(4))
    bad = check_stationarity(team, theta + np.array([0.1, 0.0, 0.0, 0.0]))
    assert not bad.stationary
    assert bad.gradient_inf > 1e-3


def test_lq_gradient_matches_closed_form_moments():
    """The finite-difference gradient of the quadrature cost equals the
    closed-form moment vector: quadrature is exact for polynomials."""
    team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
    rng = np.random.default_rng(0)
    for _ in range(3):
        theta = rng.normal(0, 0.5, size=4)
        report = check_stationarity(team, theta)
        moments = team.stationarity_moments(theta)
        # moment order: (E[D1 y1], E[D1], E[D2 y2], E[D2]); the gradient
        # in (a1, b1, a2, b2) is exactly that vector
        assert np.allclose(report.gradient, moments, atol=1e-6)


def test_krainak_inequality_accepts_optimum_rejects_perturbation():
    team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
    theta = team.solve_affine_optimum()
    ok = check_krainak_inequality(team, theta, n_samples=2000, seed=1)
    assert ok.not_refuted
    assert ok.min_inner >= -1e-8
    assert ok.violator is None
    bad = check_krainak_inequality(
        team, theta + np.array([0.1, 0.0, 0.0, 0.0]), n_samples=2000, seed=1
    )
    assert not bad.not_refuted
    assert bad.min_inner < -1e-3
    assert bad.violator is not None and len(bad.violator) == 4
