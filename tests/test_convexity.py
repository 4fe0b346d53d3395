"""Convexity-certification tests: lattice midpoint checks on explicit
tables, conditional costs against manual summation, and the three-phase
certificate on hand-built convex and non-convex teams."""

import collections
import itertools
import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdec.constants import MIDPOINT_TOL, STRICT_RATE
from teamdec.gallery import example1
from teamdec.errors import (
    NonDeterministicMeasurement,
    NonNumericActions,
    StaticRequired,
    ValidationError,
)
from teamdec import solvers
from teamdec.infostruct import Partition, meet, sigma_field_of
from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
)
from teamdec.convexity import (
    CellWitness,
    GridConvexityReport,
    GridViolation,
    VerdictKind,
    certify_team_convexity,
    conditional_cost,
    default_pair_candidates,
    grid_convexity_test,
    policy_midpoint_test,
    replay_cell_witness,
)

from conftest import (
    deterministic_team,
    naive_expected_cost,
    random_team,
    replay_maps_literal,
    sign_product_team,
)


def both_see_state_team(costs, omega_points, u_grid, prior=None):
    """Both DMs observe the state exactly; cost given per state over the
    (u1, u2) grid."""
    n = len(omega_points)
    omega = FiniteSpace("w", list(omega_points))
    y1 = FiniteSpace("y1", list(omega_points))
    y2 = FiniteSpace("y2", list(omega_points))
    us = [FiniteSpace("u1", list(u_grid)), FiniteSpace("u2", list(u_grid))]
    eye = np.eye(n)
    k1 = MeasurementKernel(1, eye)
    k2 = MeasurementKernel(
        2, np.broadcast_to(eye[:, None, :], (n, len(u_grid), n)).copy()
    )
    mass = np.full(n, 1.0 / n) if prior is None else np.asarray(prior)
    return TeamProblem(
        omega,
        Pmf(omega, mass),
        [y1, y2],
        us,
        [k1, k2],
        CostTable(np.asarray(costs, dtype=float)),
    )


# ------------------------------------------------------ lattice midpoints


def test_grid_test_accepts_squares_and_rejects_their_negation():
    axis = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    rep = grid_convexity_test(axis**2, [axis])
    assert rep.passed and rep.strict
    assert rep.n_pairs == 3 + 1  # three distance-2 pairs, one distance-4
    # x^2 midpoint margin is exactly a quarter of the squared distance
    assert rep.min_margin == pytest.approx(0.25 * 2.0**2, abs=1e-12)

    bad = grid_convexity_test(-(axis**2), [axis])
    assert not bad.passed
    v = bad.violation
    # first violating pair in scan order: indices 0 and 2, midpoint 1
    assert (v.index_a, v.index_b, v.index_mid) == ((0,), (2,), (1,))
    assert v.value_a == -4.0 and v.value_b == 0.0 and v.value_mid == -1.0
    assert v.gap == pytest.approx(1.0, abs=1e-15)


def test_grid_test_detects_saddles_through_antidiagonal_pairs():
    axis = np.array([-1.0, 0.0, 1.0])
    u1, u2 = np.meshgrid(axis, axis, indexing="ij")
    assert grid_convexity_test((u1 + u2) ** 2, [axis, axis]).passed
    saddle = grid_convexity_test(u1 * u2, [axis, axis])
    assert not saddle.passed
    assert saddle.violation.gap == pytest.approx(1.0, abs=1e-15)


def test_grid_test_rejects_bad_axes_and_shapes():
    with pytest.raises(ValidationError):
        grid_convexity_test(np.zeros(3), [np.array([0.0, 1.0, 3.0])])
    with pytest.raises(ValidationError):
        grid_convexity_test(np.zeros(3), [np.array([1.0, 0.0, -1.0])])
    with pytest.raises(ValidationError):
        grid_convexity_test(np.zeros((2, 2)), [np.arange(3.0), np.arange(2.0)])
    single = grid_convexity_test(np.array([5.0]), [np.array([0.0])])
    assert single.passed and single.n_pairs == 0 and single.min_margin == 0.0


def test_grid_test_refuses_a_table_that_is_not_finite():
    # with the NaN, pair (0, 2) has margin -1.0 but the scan read min_margin 0.0
    axis = [np.arange(5.0)]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="^table has non-finite values$"):
            grid_convexity_test(np.array([0.0, 1.0, 0.0, 1.0, bad]), axis)
    assert grid_convexity_test(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), axis).min_margin == -1.0


def literal_midpoint_scan(values, axes, tol):
    """Every pair of lattice points in flat order, one at a time: returns
    (passed, strict, min_margin, n_pairs, first violation)."""
    points = list(itertools.product(*(range(n) for n in values.shape)))
    passed, strict, min_margin, n_pairs, first = True, True, None, 0, None
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if any((x + y) % 2 for x, y in zip(a, b)):
                continue
            mid = tuple((x + y) // 2 for x, y in zip(a, b))
            gap = values[mid] - 0.5 * (values[a] + values[b])
            n_pairs += 1
            if min_margin is None or -gap < min_margin:
                min_margin = -gap
            sq = 0.0
            for axis, x, y in zip(axes, a, b):
                sq = sq + (axis[x] - axis[y]) * (axis[x] - axis[y])
            if -gap < STRICT_RATE * sq - tol:
                strict = False
            if gap > tol:
                passed = False
                if first is None:
                    first = GridViolation(
                        a, b, mid, float(values[a]), float(values[b]),
                        float(values[mid]), float(gap),
                    )
    min_margin = 0.0 if min_margin is None else float(min_margin)
    return passed, strict, min_margin, n_pairs, first


def lattice_table(shape, kind, curvature, half_steps, seed):
    """Axes and values for the scan tests: random, constant, a convex or
    concave quadratic, or the convex one with a single spike planted."""
    rng = np.random.default_rng(seed)
    if half_steps:
        # squared distance exactly 1 at unit half-offsets: a constant
        # table then sits exactly on the strictness threshold
        axes = [0.5 * np.arange(n) for n in shape]
    else:
        axes = [np.linspace(rng.uniform(-2, 0), rng.uniform(0.5, 3), n) for n in shape]
    if kind == "random":
        values = rng.standard_normal(shape)
    elif kind == "constant":
        values = np.full(shape, rng.uniform(-1, 1))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        quad = sum(
            curvature * rng.uniform(0.5, 2) * (m - rng.uniform(-1, 1)) ** 2
            for m in mesh
        )
        values = -quad if kind == "concave" else quad
        if kind == "spike":
            # every pair around the spike fails, many of them from one a
            values[tuple(int(rng.integers(n)) for n in shape)] += rng.uniform(0.1, 2)
    return axes, values


@settings(max_examples=150)
@given(
    # leading axes up to 7, the batched last axis up to 9
    shape=st.tuples(st.lists(st.integers(1, 7), max_size=2), st.integers(1, 9)).map(
        lambda t: (*t[0], t[1])
    ),
    kind=st.sampled_from(["random", "constant", "convex", "concave", "spike"]),
    curvature=st.sampled_from([1e-9, 1.0]),
    half_steps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([MIDPOINT_TOL, 0.05]),
)
@example(shape=(1,), kind="random", curvature=1.0, half_steps=False, seed=0, tol=MIDPOINT_TOL)
@example(shape=(2,), kind="concave", curvature=1.0, half_steps=True, seed=1, tol=MIDPOINT_TOL)
@example(shape=(9,), kind="spike", curvature=1.0, half_steps=False, seed=2, tol=MIDPOINT_TOL)
@example(shape=(2, 9), kind="spike", curvature=1e-9, half_steps=True, seed=3, tol=MIDPOINT_TOL)
@example(shape=(3, 8), kind="spike", curvature=1.0, half_steps=False, seed=4, tol=0.05)
@example(shape=(1, 3, 9), kind="spike", curvature=1.0, half_steps=True, seed=5, tol=MIDPOINT_TOL)
@example(shape=(4, 2, 7), kind="concave", curvature=1e-9, half_steps=False, seed=6, tol=MIDPOINT_TOL)
def test_grid_scan_matches_literal_pair_loop(
    shape, kind, curvature, half_steps, seed, tol
):
    axes, values = lattice_table(shape, kind, curvature, half_steps, seed)
    rep = grid_convexity_test(values, axes, tol=tol)
    got = (rep.passed, rep.strict, rep.min_margin, rep.n_pairs, rep.violation)
    assert got == literal_midpoint_scan(values, axes, tol)


def test_grid_scan_answers_do_not_depend_on_the_chunk(monkeypatch):
    # two spikes: the first failing pair through (1, 1), ((0, 0), (2, 2)),
    # comes from a later batch than one through (0, 7) in row 0
    u = np.arange(9.0)
    two = (u[:3, None] ** 2 + u[None, :] ** 2).copy()
    two[0, 7] += 5.0
    two[1, 1] += 5.0
    tables = [
        ([u[:3], u], two),
        lattice_table((5, 9), "spike", 1.0, False, 7),
        lattice_table((3, 4, 7), "random", 1.0, True, 8),
        lattice_table((2, 3, 6), "convex", 1e-9, True, 9),
        lattice_table((9,), "spike", 1.0, True, 10),
    ]
    want = [grid_convexity_test(values, axes) for axes, values in tables]
    assert want == [
        GridConvexityReport(*literal_midpoint_scan(values, axes, MIDPOINT_TOL))
        for axes, values in tables
    ]
    assert want[0].violation.index_a == (0, 0) and want[0].violation.index_b == (2, 2)
    assert any(rep.strict for rep in want)
    # the scan takes an eighth of the budget: one midpoint a chunk, one
    # 9 x 9 row of the 5 x 9 table a chunk, a few rows
    for budget in (1, 8 * 81, 8000):
        monkeypatch.setattr(solvers, "_SCAN_CELLS", budget)
        assert [grid_convexity_test(values, axes) for axes, values in tables] == want


def test_grid_scan_memory_stays_within_the_cell_budget():
    # 151 x 151: about 6.5e7 pairs, under the pair cap; all of them at
    # once would be 520 MB of gaps
    u = np.linspace(0.0, 1.0, 151)
    # margins above the strictness threshold but below its batch bound,
    # so chunks holding short pairs take the exact strictness test
    strict = 1e-8 * (u[:, None] ** 2 + u[None, :] ** 2)
    spiked = strict.copy()
    spiked[75, 75] += 1.0  # a violation in every batch that reaches it
    # one axis of 5001 points: its single row of midpoints times offsets
    # alone would be 100 MB, so the chunks split the midpoints
    line = np.linspace(0.0, 1.0, 5001)
    cases = [
        (strict, [u, u], 64_980_000, True),
        (spiked, [u, u], 64_980_000, False),
        (1e-8 * line**2, [line], 6_250_000, True),
    ]
    for values, axes, pairs, is_strict in cases:
        tracemalloc.start()
        try:
            rep = grid_convexity_test(values, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.n_pairs, rep.strict) == (pairs, is_strict)
        assert peak < 2 * 8 * solvers._SCAN_CELLS


@settings(max_examples=40)
@given(
    # leading axes of 1-3 points; the windowed axis narrow or wide enough for bands
    shape=st.tuples(
        st.lists(st.integers(1, 3), max_size=2),
        st.one_of(st.integers(1, 2), st.integers(33, 64)),
    ).map(lambda t: (*t[0], t[1])),
    kind=st.sampled_from(["random", "constant", "convex", "concave", "spike"]),
    curvature=st.sampled_from([1e-9, 1.0]),
    half_steps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(33,), kind="spike", curvature=1.0, half_steps=False, seed=11)
@example(shape=(64,), kind="concave", curvature=1.0, half_steps=True, seed=12)
@example(shape=(1, 47), kind="constant", curvature=1.0, half_steps=True, seed=13)
@example(shape=(2, 64), kind="spike", curvature=1e-9, half_steps=False, seed=14)
@example(shape=(3, 2, 40), kind="random", curvature=1.0, half_steps=False, seed=15)
@example(shape=(2, 1, 33), kind="convex", curvature=1e-9, half_steps=True, seed=16)
@example(shape=(1, 2, 1), kind="concave", curvature=1.0, half_steps=False, seed=17)
@example(shape=(2, 2, 2), kind="spike", curvature=1.0, half_steps=True, seed=18)
@example(shape=(64, 1), kind="spike", curvature=1.0, half_steps=False, seed=19)
@example(shape=(33, 2), kind="concave", curvature=1e-9, half_steps=True, seed=20)
def test_grid_scan_matches_literal_pair_loop_across_bands(shape, kind, curvature, half_steps, seed):
    """Wide last axes at the default budget and at two small ones, under
    which a batch of any of these tables fills several chunks and takes
    bands of midpoints; axes of one and two points on every axis."""
    axes, values = lattice_table(shape, kind, curvature, half_steps, seed)
    want = literal_midpoint_scan(values, axes, MIDPOINT_TOL)
    for budget in (solvers._SCAN_CELLS, 648, 8):
        with mock.patch.object(solvers, "_SCAN_CELLS", budget):
            rep = grid_convexity_test(values, axes)
        assert (rep.passed, rep.strict, rep.min_margin, rep.n_pairs, rep.violation) == want


def test_grid_scan_takes_an_earlier_pair_from_a_later_band(monkeypatch):
    # 200 points take 8 bands of 25 midpoints.  The spike at 5 (band 0)
    # fails only the pairs at half-offsets 1 and 2, the first of them (3, 7);
    # the one at 30 (band 1) fails out to half-offset 31, so (0, 60) comes first
    u = np.arange(200.0)
    values = u**2
    values[5] += 5.0
    values[30] += 1000.0
    want = GridConvexityReport(*literal_midpoint_scan(values, [u], MIDPOINT_TOL))
    assert (want.violation.index_a, want.violation.index_b) == ((0,), (60,))
    for budget in (1, 8 * 81, 8000, solvers._SCAN_CELLS):
        monkeypatch.setattr(solvers, "_SCAN_CELLS", budget)
        assert grid_convexity_test(values, [u]) == want


def test_strictness_thresholds_count_both_axes():
    # one pair on each axis, at squared distance 4: margins of 2e-9 lie
    # under STRICT_RATE * 4 - MIDPOINT_TOL = 3e-9 but over half of it
    for values in ([[0.0], [-2e-9], [0.0]], [[0.0, -2e-9, 0.0]]):
        values = np.array(values)
        axes = [np.arange(float(n)) for n in values.shape]
        rep = grid_convexity_test(values, axes)
        assert (rep.passed, rep.strict, rep.n_pairs) == (True, False, 1)
        assert rep == GridConvexityReport(*literal_midpoint_scan(values, axes, MIDPOINT_TOL))


def scan_log(caplog, values, axes):
    """The scan's DEBUG line, as a dict of its counts."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="teamdec.convexity"):
        grid_convexity_test(values, axes)
    (msg,) = [r.getMessage() for r in caplog.records]
    m = re.fullmatch(
        r"lattice scan: (\d+) pairs, (\d+) chunks, (\d+) cells computed, "
        r"(\d+) exact-strictness chunks, (\d+) searched chunks",
        msg,
    )
    assert m, msg
    return dict(zip(("pairs", "chunks", "cells", "exact", "searched"), map(int, m.groups())))


def test_grid_scan_logs_its_work(caplog):
    # x^2 on 5 points: h_d = 1, 2 over 5 midpoints, 10 cells in one chunk,
    # margins far above the strictness threshold, no violation
    axis = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert scan_log(caplog, axis**2, [axis]) == dict(pairs=4, chunks=1, cells=10, exact=0, searched=0)
    # -x^2: the first chunk takes the exact test (strictness fails there)
    # and is searched; the pair it finds is the first one
    assert scan_log(caplog, -(axis**2), [axis]) == dict(pairs=4, chunks=1, cells=10, exact=1, searched=1)
    # a 101 x 101 table: bands cut the cells computed to under 1.35 a pair
    # (2.0 a pair with every last-axis window at full width)
    u = np.linspace(1.0, 2.0, 101)
    work = scan_log(caplog, u[:, None] ** 2 + u[None, :] ** 2, [u, u])
    assert work["pairs"] == 13_005_000 and work["cells"] <= 1.35 * work["pairs"]
    # example1's concave cell fails in its first chunk; no later chunk can
    # hold an earlier pair, so at most one more is searched (of 51 batches)
    ex = example1()
    axes = [u.numeric_values() for u in ex.problem.u_spaces]
    work = scan_log(caplog, ex.problem.cost.table[2], axes)
    assert work["searched"] <= 2 and work["pairs"] == 13_005_000


@settings(max_examples=100)
@given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple))
@example(shape=(5,))
@example(shape=(4, 7))
@example(shape=(3, 1, 6))
@example(shape=(6, 5, 2))
@example(shape=(101, 101))
def test_pair_count_matches_the_scan(shape):
    """The closed-form count the scan reports and the pair cap reads is
    the number of midpoint pairs: two lattice points pair iff they agree
    in parity on every axis, so each parity class of s points holds
    C(s, 2) pairs."""
    classes = collections.Counter(tuple(i % 2 for i in idx) for idx in np.ndindex(shape))
    want = sum(math.comb(s, 2) for s in classes.values())
    rep = grid_convexity_test(np.zeros(shape), [np.arange(float(n)) for n in shape])
    assert rep.n_pairs == want
    if shape == (101, 101):
        assert want == 13_005_000


# ------------------------------------------------------ conditional costs


def test_conditional_cost_matches_manual_averaging():
    team = random_team(3, dynamic=False)
    prior = team.prior.mass
    labels = [0, 1, 0][: len(team.omega0)]
    part = Partition.from_labels(team.omega0, lambda i: labels[i])
    cond = conditional_cost(team, part)
    for b, mass, table in zip(cond.block_indices, cond.masses, cond.tables):
        idx = list(part.blocks[b])
        assert mass == pytest.approx(float(prior[idx].sum()), abs=1e-15)
        want = np.zeros_like(team.cost.table[0])
        for w in idx:
            want = want + prior[w] / mass * team.cost.table[w]
        assert np.allclose(table, want, atol=1e-12)


def test_conditional_cost_skips_zero_mass_blocks():
    team = both_see_state_team(
        np.zeros((3, 3, 3)),
        omega_points=[-1.0, 0.0, 1.0],
        u_grid=[-1.0, 0.0, 1.0],
        prior=[0.5, 0.5, 0.0],
    )
    part = Partition(team.omega0, [[0], [1], [2]])
    cond = conditional_cost(team, part)
    assert cond.skipped_blocks == (2,)
    assert cond.block_indices == (0, 1)
    smaller = FiniteSpace("g", [0, 1])
    with pytest.raises(ValidationError):
        conditional_cost(team, Partition(smaller, [[0], [1]]))


# --------------------------------------------------------- certification


def quadratic_tracking_costs(omega_points, u_grid):
    """cost(w, u1, u2) = (u1 + u2 - w)^2: convex in the pair for every w."""
    w = np.asarray(omega_points, dtype=float)[:, None, None]
    u1 = np.asarray(u_grid, dtype=float)[None, :, None]
    u2 = np.asarray(u_grid, dtype=float)[None, None, :]
    return (u1 + u2 - w) ** 2


def test_certify_convex_on_quadratic_tracking():
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    team = both_see_state_team(
        quadratic_tracking_costs([-1.0, 0.0, 1.0], grid),
        omega_points=[-1.0, 0.0, 1.0],
        u_grid=grid,
    )
    verdict = certify_team_convexity(team)
    assert verdict.kind is VerdictKind.CONVEX
    assert verdict.cell_witness is None and verdict.policy_witness is None
    # every positive-mass join block is covered by a certificate record
    assert len(verdict.certificate) == 3
    assert all(rec.min_margin >= 0 for rec in verdict.certificate)
    # sanity: no candidate pair can violate a certified-convex team
    for pa, pb in default_pair_candidates(team, seed=1):
        assert policy_midpoint_test(team, pa, pb).violation <= 1e-9


def test_certify_convex_notes_the_zero_mass_join_blocks_it_skips():
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    team = both_see_state_team(
        quadratic_tracking_costs([-1.0, 0.0, 1.0], grid),
        omega_points=[-1.0, 0.0, 1.0],
        u_grid=grid,
        prior=[0.5, 0.0, 0.5],
    )
    verdict = certify_team_convexity(team)
    assert verdict.kind is VerdictKind.CONVEX
    assert [rec.block_index for rec in verdict.certificate] == [0, 2]
    assert verdict.notes == ("1 zero-mass join blocks skipped",)


def test_certify_not_convex_with_cell_witness_and_replay():
    grid = [-1.0, 0.0, 1.0]
    w_pts = [0.0, 1.0]
    u1 = np.asarray(grid)[None, :, None]
    u2 = np.asarray(grid)[None, None, :]
    costs = np.broadcast_to(-(u1**2) - u2**2 + 2.0, (2, 3, 3)).copy()
    team = both_see_state_team(
        costs, omega_points=w_pts, u_grid=grid, prior=[0.25, 0.75]
    )
    verdict = certify_team_convexity(team)
    assert verdict.kind is VerdictKind.NOT_CONVEX
    wit = verdict.cell_witness
    assert wit is not None and verdict.policy_witness is None
    assert wit.gap > 0
    assert all(lbl in w_pts for lbl in wit.block_labels)
    # the replayed profile pair violates by exactly block-mass * gap
    replay = replay_cell_witness(team, wit)
    block_mass = {0.0: 0.25, 1.0: 0.75}[wit.block_labels[0]]
    assert replay.violation == pytest.approx(block_mass * wit.gap, abs=1e-12)
    assert replay.snap_error == 0.0
    # and the replayed costs agree with literal summation
    assert replay.value_mid == pytest.approx(
        naive_expected_cost(team, replay.midpoint), abs=1e-12
    )


def asymmetric_coupling_team():
    """DM 1 sees the state, DM 2 sees nothing; per-state costs carry
    opposite cross terms that cancel in the average: the meet conditional
    (the average) is convex, each join block is a saddle."""
    omega = FiniteSpace("w", [-1.0, 1.0])
    y1 = FiniteSpace("y1", [-1.0, 1.0])
    y2 = FiniteSpace("y2", [0.0])
    grid = [-1.0, 0.0, 1.0]
    us = [FiniteSpace("u1", grid), FiniteSpace("u2", grid)]
    k1 = MeasurementKernel(1, np.eye(2))
    k2 = MeasurementKernel(2, np.ones((2, 3, 1)))
    u1 = np.asarray(grid)[:, None]
    u2 = np.asarray(grid)[None, :]
    base = 2.0 * (u1**2 + u2**2)
    cross = 6.0 * u1 * u2
    costs = np.stack([base - cross, base + cross])
    return TeamProblem(
        omega,
        Pmf.uniform(omega),
        [y1, y2],
        us,
        [k1, k2],
        CostTable(costs),
    )


def test_certify_not_convex_with_policy_witness():
    team = asymmetric_coupling_team()
    verdict = certify_team_convexity(team)
    assert verdict.kind is VerdictKind.NOT_CONVEX
    assert verdict.cell_witness is None
    wit = verdict.policy_witness
    assert wit is not None
    assert any("meet" in note for note in verdict.notes)
    # replay the witness against the literal-summation oracle
    ja = naive_expected_cost(team, wit.profile_a)
    jb = naive_expected_cost(team, wit.profile_b)
    jm = naive_expected_cost(team, wit.midpoint)
    assert wit.value_a == pytest.approx(ja, abs=1e-12)
    assert wit.value_b == pytest.approx(jb, abs=1e-12)
    assert wit.value_mid == pytest.approx(jm, abs=1e-12)
    assert wit.violation == pytest.approx(
        jm - wit.lam * ja - (1 - wit.lam) * jb, abs=1e-12
    )
    assert wit.violation > 1e-6


def test_certify_with_explicit_pair_candidates():
    """Passing the violating pair directly yields the same verdict: DM 1
    mirrors its map while the blind DM mirrors its constant."""
    team = asymmetric_coupling_team()
    a = DeterministicProfile([np.array([2, 0]), np.array([2])])
    b = DeterministicProfile([np.array([0, 2]), np.array([0])])
    rep = policy_midpoint_test(team, a, b)
    assert rep.snap_error == 0.0
    assert rep.violation > 0
    verdict = certify_team_convexity(team, pair_candidates=[(a, b)])
    assert verdict.kind is VerdictKind.NOT_CONVEX
    assert verdict.policy_witness.violation == pytest.approx(
        rep.violation, abs=1e-12
    )


def test_certify_is_inconclusive_when_no_candidate_pair_violates():
    team = sign_product_team()
    assert certify_team_convexity(team).kind is VerdictKind.NOT_CONVEX
    verdict = certify_team_convexity(team, pair_candidates=[])
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.certificate is None
    assert verdict.cell_witness is None and verdict.policy_witness is None
    assert verdict.notes == (
        "join block 0 fails midpoint convexity by 1.800e+00",
        "all positive-mass meet conditionals pass midpoint convexity",
        "no violation among 0 candidate profile pairs",
    )


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_omega=st.integers(1, 6),
    dms=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3),
    zero_prior=st.booleans(),
)
def test_replay_matches_literal_preimage_loop(seed, n_omega, dms, zero_prior):
    """On every meet block of a static deterministic team, with random
    witness actions, replay plays exactly the profiles the literal
    per-measurement preimage loop builds."""
    team = deterministic_team(seed, n_omega, dms, zero_prior)
    common = meet(*(sigma_field_of(team, k) for k in range(1, len(dms) + 1)))
    rng = np.random.default_rng(seed)
    for b, block in enumerate(common.blocks):
        ua, ub = (rng.integers(0, [nu for _, nu in dms]) for _ in range(2))
        labels = [tuple(u.points[i] for u, i in zip(team.u_spaces, a)) for a in (ua, ub)]
        wit = CellWitness(b, block, labels[0], labels[1], labels[0], 0.5, 0.0, 0.0, 0.0)
        rep = replay_cell_witness(team, wit)
        maps_a, maps_b = replay_maps_literal(team, block, ua, ub)
        for got, want in ((rep.profile_a, maps_a), (rep.profile_b, maps_b)):
            assert [m.tolist() for m in got.actions] == [m.tolist() for m in want]


def test_certify_preconditions():
    with pytest.raises(StaticRequired):
        certify_team_convexity(random_team(1, dynamic=True))
    # stochastic measurements have no sigma-field on the raw state space
    with pytest.raises(NonDeterministicMeasurement):
        certify_team_convexity(random_team(1, dynamic=False))
    team = both_see_state_team(
        np.zeros((2, 2, 2)), omega_points=[0.0, 1.0], u_grid=[0.0, 1.0]
    )
    relabeled = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        [FiniteSpace("u1", ["lo", "hi"]), team.u_spaces[1]],
        team.kernels,
        team.cost,
    )
    with pytest.raises(NonNumericActions):
        certify_team_convexity(relabeled)


def test_policy_midpoint_snapping():
    grid = [-1.0, 0.0, 1.0]
    team = both_see_state_team(
        quadratic_tracking_costs([0.0, 1.0], grid),
        omega_points=[0.0, 1.0],
        u_grid=grid,
    )
    a = DeterministicProfile([np.array([2, 2]), np.array([2, 2])])
    b = DeterministicProfile([np.array([0, 0]), np.array([0, 0])])
    rep = policy_midpoint_test(team, a, b)
    assert rep.snap_error == 0.0
    assert all(np.all(m == 1) for m in rep.midpoint.actions)
    assert rep.value_avg == pytest.approx(
        0.5 * rep.value_a + 0.5 * rep.value_b, abs=1e-15
    )
    # endpoints of mismatched parity snap by half a grid step
    c = DeterministicProfile([np.array([1, 1]), np.array([1, 1])])
    rep2 = policy_midpoint_test(team, a, c)
    assert rep2.snap_error == pytest.approx(0.5, abs=1e-15)


def test_default_pair_candidates_mirror_structure():
    team = asymmetric_coupling_team()
    pairs = default_pair_candidates(team, seed=0, n_random=2)
    # (3 threshold magnitudes x 2 orientations + 2 random bases) x
    # (2 single-DM mirrors + the full mirror)
    assert len(pairs) == (3 * 2 + 2) * 3
    base, m1 = pairs[0]
    assert np.array_equal(m1.actions[0], 2 - base.actions[0])
    assert np.array_equal(m1.actions[1], base.actions[1])
    _, m2 = pairs[1]
    assert np.array_equal(m2.actions[1], 2 - base.actions[1])
    _, m_all = pairs[2]
    assert all(
        np.array_equal(x, 2 - y)
        for x, y in zip(m_all.actions, base.actions)
    )
    # non-numeric action grids yield no candidates
    relabeled = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        [FiniteSpace("u1", ["a", "b", "c"]), team.u_spaces[1]],
        team.kernels,
        team.cost,
    )
    assert default_pair_candidates(relabeled) == []


def test_default_pair_candidates_skip_thresholds_on_non_numeric_measurements():
    """Threshold profiles need numeric measurement labels; without them
    the candidates are the seeded random ones alone, the last 2 x 3 of
    the 24 the numeric labels give."""
    team = asymmetric_coupling_team()
    relabeled = TeamProblem(
        team.omega0,
        team.prior,
        [FiniteSpace("y1", ["lo", "hi"]), team.y_spaces[1]],
        team.u_spaces,
        team.kernels,
        team.cost,
    )
    pairs = default_pair_candidates(relabeled, seed=0, n_random=2)
    want = default_pair_candidates(team, seed=0, n_random=2)[-6:]
    assert len(pairs) == 6
    assert all(
        np.array_equal(x, y)
        for got, ref in zip(pairs, want)
        for a, b in zip(got, ref)
        for x, y in zip(a.actions, b.actions)
    )
