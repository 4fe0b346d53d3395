"""Joint-measure class tests: induction, membership checks, mixtures,
enumeration, realization of mixtures, and nonconvexity witnesses."""

import itertools
import logging
import logging.handlers
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teamdec import strategic
from teamdec.constants import EQ_TOL
from teamdec.errors import (
    CapExceeded,
    NonMember,
    NotClassical,
    StaticRequired,
    ValidationError,
)
from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
    expected_cost,
    induced_joint,
)
from teamdec.strategic import (
    HistoryProfile,
    StrategicMeasure,
    aggregate_policy,
    check_membership_LA,
    check_membership_LM,
    check_membership_LR,
    enumerate_LA,
    find_nonconvexity_witness,
    induce_LA,
    induce_LR,
    induce_history_profile,
    mix,
    realize_kernel_as_function,
    realize_midpoint_classical,
    uniform_realization_mixture,
)

from conftest import (
    classical_team,
    enumerate_profiles_literal,
    random_profile,
    random_randomized_profile,
    random_team,
    sparse_team,
    three_dm_bsc_team,
)


def trivial_measurement_team(seed=0, u1=2, u2=2, n_omega=3):
    """Both DMs see nothing (singleton measurement spaces)."""
    rng = np.random.default_rng(seed)
    omega = FiniteSpace("w", list(range(n_omega)))
    y1 = FiniteSpace("y1", ["-"])
    y2 = FiniteSpace("y2", ["-"])
    us = [
        FiniteSpace("u1", [float(v) for v in range(u1)]),
        FiniteSpace("u2", [float(v) for v in range(u2)]),
    ]
    k1 = MeasurementKernel(1, np.ones((n_omega, 1)))
    k2 = MeasurementKernel(2, np.ones((n_omega, u1, 1)))
    cost = CostTable(rng.uniform(0.0, 1.0, size=(n_omega, u1, u2)))
    return TeamProblem(omega, Pmf.uniform(omega), [y1, y2], us, [k1, k2], cost)


def binary_signaling_team():
    """DM 1 sees the binary state exactly and its action is DM 2's
    measurement; cost 1 when DM 2's action misses the state."""
    omega = FiniteSpace("w", [0, 1])
    y1 = FiniteSpace("y1", [0, 1])
    y2 = FiniteSpace("y2", [0, 1])
    us = [FiniteSpace("u1", [0.0, 1.0]), FiniteSpace("u2", [0.0, 1.0])]
    k1 = MeasurementKernel(1, np.eye(2))
    t2 = np.zeros((2, 2, 2))
    for w in range(2):
        for a in range(2):
            t2[w, a, a] = 1.0
    cost = np.zeros((2, 2, 2))
    for w in range(2):
        for a in range(2):
            for b in range(2):
                cost[w, a, b] = 0.0 if b == w else 1.0
    return TeamProblem(
        omega,
        Pmf.uniform(omega),
        [y1, y2],
        us,
        [k1, MeasurementKernel(2, t2)],
        CostTable(cost),
    )


# 1-3 DMs as (|Y_k|, |U_k|), at most 32 deterministic profiles
small_dms = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda dms: np.prod([u ** y for y, u in dms]) <= 32)


def literal_joint(problem, profile):
    """The joint a deterministic profile induces, summed one realization
    (omega, y1, ..., yN) at a time."""
    n = problem.n_dms
    joint = np.zeros(problem.joint_shape())
    for w in range(len(problem.omega0)):
        for ys in itertools.product(*(range(len(y)) for y in problem.y_spaces)):
            us = [int(profile.actions[k][ys[k]]) for k in range(n)]
            p = problem.prior.mass[w]
            for k in range(n):
                p *= problem.kernels[k].table[(w, *us[:k], ys[k])]
            joint[(w, *(v for yu in zip(ys, us) for v in yu))] += p
    return joint


def literal_failures(problem, joint, tol=EQ_TOL, point_mass=False):
    """Membership failures read off the definition, one history at a
    time: the exogenous marginal is the prior and, for every DM k and
    every history h = (omega, y1, u1, ..., y_{k-1}, u_{k-1}) of positive
    mass, (a) P(y_k | h) is the kernel row at (omega, u1, ..., u_{k-1})
    and (b) P(u_k | h, y_k) = P(u_k | y_k) wherever P(h, y_k) > 0; with
    ``point_mass``, also P(u_k | y_k) is a point mass wherever P(y_k) > 0.

    The prior fails at its largest deviation; (a) and (b) at their first
    violation in the order of the loops, with their largest deviation;
    point-mass at its first violation.  Returns the failures as
    (dm, condition, labels, deviation) and every deviation compared."""
    n = problem.n_dms
    spaces = [problem.omega0]
    for y, u in zip(problem.y_spaces, problem.u_spaces):
        spaces += [y, u]
    failures, compared = [], []

    def check(dm, condition, found, axes=spaces, worst=max):
        """found: [(index, deviation)] in loop order; axes: its spaces."""
        compared.extend(d for _, d in found)
        bad = [(i, d) for i, d in found if d > tol]
        if bad:
            labels = tuple(s.points[v] for s, v in zip(axes, bad[0][0]))
            failures.append((dm, condition, labels, worst(d for _, d in bad)))

    exo = joint.sum(axis=tuple(range(1, 2 * n + 1)))
    dev = [abs(exo[w] - problem.prior.mass[w]) for w in range(len(exo))]
    top = max(range(len(dev)), key=dev.__getitem__)
    check(0, "prior", [((top,), dev[top])])
    owns = []
    for k in range(1, n + 1):
        marg = joint.sum(axis=tuple(range(2 * k + 1, 2 * n + 1)))
        own = marg.sum(axis=tuple(range(2 * k - 1)))  # (y_k, u_k)
        owns.append(own)
        kernel = problem.kernels[k - 1].table
        measurement, policy = [], []
        for h in itertools.product(*(range(s) for s in marg.shape[:-2])):
            p_h = marg[h].sum()
            if p_h <= 0:
                continue
            for y in range(marg.shape[-2]):
                p_hy = marg[h][y].sum()
                measurement.append(((*h, y), abs(p_hy / p_h - kernel[(h[0], *h[2::2], y)])))
                if p_hy <= 0:
                    continue
                for u in range(marg.shape[-1]):
                    d = abs(marg[h][y, u] / p_hy - own[y, u] / own[y].sum())
                    policy.append(((*h, y, u), d))
        check(k, "measurement", measurement)
        check(k, "policy", policy)
    if point_mass:
        for k, own in enumerate(owns, start=1):
            rows = [y for y in range(own.shape[0]) if own[y].sum() > 0]
            found = [((y,), 1.0 - own[y].max() / own[y].sum()) for y in rows]
            check(k, "point-mass", found, [problem.y_spaces[k - 1]], lambda ds: next(ds))
    return failures, compared


def literal_in_LR(problem, joint, tol=EQ_TOL):
    return not literal_failures(problem, joint, tol)[0]


def literal_first_witness(problem, lam):
    """Mix and check every pair of profiles in lexicographic order.
    Returns the first pair whose lam-mixture leaves the class (None if
    there is none), the pairs walked up to and including it, and the
    pairs among those that differ in two or more DMs' maps."""
    profiles = list(enumerate_profiles_literal(problem))
    joints = [literal_joint(problem, p) for p in profiles]
    walked, across = 0, []
    for a, b in itertools.combinations(range(len(joints)), 2):
        walked += 1
        if sum(
            not np.array_equal(x, y)
            for x, y in zip(profiles[a].actions, profiles[b].actions)
        ) >= 2:
            across.append((a, b))
        if not literal_in_LR(problem, lam * joints[a] + (1 - lam) * joints[b]):
            return (a, b), walked, across
    return None, walked, across


# ---------------------------------------------------------------- induction


def test_induced_measures_pass_their_own_membership_checks():
    for seed in range(12):
        team = random_team(seed, dynamic=bool(seed % 2))
        det = induce_LA(team, random_profile(team, seed + 100))
        assert check_membership_LA(det).member
        assert check_membership_LR(det).member
        rnd = induce_LR(team, random_randomized_profile(team, seed + 200))
        assert check_membership_LR(rnd).member


@settings(max_examples=100)
@given(
    dms=small_dms,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_induced_measure_matches_expected_cost_and_prior(dms, n_omega, dynamic, zeros, seed):
    """The joint builder reads stored kernels (static ones cut their action
    axes): it matches the joint summed one realization at a time, and
    its cost matches the chain core's."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    prof = random_profile(team, seed)
    m = induce_LA(team, prof)
    assert np.abs(induced_joint(team, prof) - literal_joint(team, prof)).max() <= 1e-15
    assert m.expected_cost() == pytest.approx(expected_cost(team, prof), abs=1e-12)
    assert np.allclose(m.exogenous_marginal(), team.prior.mass, atol=1e-12)


def test_aggregate_policy_recovers_private_randomization():
    team = random_team(5, dynamic=False)
    prof = random_randomized_profile(team, 9)
    m = induce_LR(team, prof)
    for k, kern in enumerate(prof.matrices(team), start=1):
        agg = aggregate_policy(m, k)
        # rows with positive measurement mass must match the kernel rows
        y_mass = m.joint.sum(
            axis=tuple(a for a in range(m.joint.ndim) if a != 2 * k - 1)
        )
        for y in np.flatnonzero(y_mass > 1e-12):
            assert np.allclose(agg[y], kern[y], atol=1e-10)


# ------------------------------------------------------------------- mixing


def test_mix_is_linear_in_cost_and_validates_weights():
    team = random_team(2, dynamic=False)
    m1 = induce_LA(team, random_profile(team, 1))
    m2 = induce_LA(team, random_profile(team, 2))
    m3 = induce_LR(team, random_randomized_profile(team, 3))
    w = [0.2, 0.5, 0.3]
    mixed = mix([m1, m2, m3], w)
    want = sum(wi * m.expected_cost() for wi, m in zip(w, [m1, m2, m3]))
    assert mixed.expected_cost() == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValidationError):
        mix([m1, m2], [0.7, 0.7])
    with pytest.raises(ValidationError):
        mix([m1, m2], [-0.1, 1.1])
    with pytest.raises(ValidationError):
        mix([], [])


def test_correlated_mixture_fails_randomized_membership():
    """Mixing two deterministic measures that differ for both DMs makes
    the actions correlate through the mixing coin: the second DM's action
    conditional depends on the first DM's realized action."""
    team = trivial_measurement_team(0)
    measures = enumerate_LA(team)
    c_00 = measures[0]  # u = (0, 0)
    c_11 = measures[3]  # u = (1, 1)
    mid = mix([c_00, c_11], [0.5, 0.5])
    verdict = check_membership_LR(mid)
    assert not verdict.member
    assert any(f.condition == "policy" and f.dm == 2 for f in verdict.failures)
    # but a mixture that only varies one DM stays inside the class
    ok = mix([measures[0], measures[1]], [0.5, 0.5])
    assert check_membership_LR(ok).member
    assert not check_membership_LA(ok).member  # the action row is not 0/1
    la = check_membership_LA(ok)
    assert any(f.condition == "point-mass" for f in la.failures)


def test_membership_catches_prior_perturbation():
    team = random_team(4, dynamic=False)
    m = induce_LA(team, random_profile(team, 4))
    # tilt the exogenous marginal: move mass between two omega slices
    j = np.array(m.joint)
    src = np.unravel_index(int(np.argmax(j)), j.shape)
    dst = list(src)
    dst[0] = (src[0] + 1) % j.shape[0]
    eps = 0.25 * j[src]
    j[src] -= eps
    j[tuple(dst)] += eps
    verdict = check_membership_LR(StrategicMeasure(team, j))
    assert not verdict.member
    assert any(
        f.dm == 0 and f.condition == "prior" and f.deviation > 1e-6
        for f in verdict.failures
    )


def test_membership_catches_measurement_perturbation():
    team = random_team(6, dynamic=True)
    m = induce_LR(team, random_randomized_profile(team, 6))
    j = np.array(m.joint)
    # at a fixed (omega, y1, u1), move mass between two values of y2:
    # the prior marginal and DM 1's conditionals survive, DM 2's kernel
    # condition breaks.
    flat = np.argwhere(j > 1e-3)
    src = tuple(int(v) for v in flat[0])
    dst = list(src)
    dst[3] = (src[3] + 1) % j.shape[3]
    eps = 0.5 * j[src]
    j[src] -= eps
    j[tuple(dst)] += eps
    verdict = check_membership_LR(StrategicMeasure(team, j))
    assert not verdict.member
    assert any(
        f.dm == 2 and f.condition == "measurement" for f in verdict.failures
    )


def test_failure_records_carry_point_labels():
    team = trivial_measurement_team(1)
    measures = enumerate_LA(team)
    mid = mix([measures[0], measures[3]], [0.5, 0.5])
    verdict = check_membership_LR(mid)
    rec = next(f for f in verdict.failures if f.condition == "policy")
    # labels come from the declared spaces, not raw indices
    assert rec.where[0] in team.omega0.points
    assert rec.deviation > 0.1


@settings(max_examples=200)
@given(
    dms=small_dms,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    kind=st.sampled_from(["randomized", "mixed", "perturbed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_failure_records_match_a_literal_history_loop(dms, n_omega, dynamic, zeros, kind, seed):
    """Both checks against the per-history loop: same verdicts, DMs,
    conditions and labels, and the same deviations up to rounding.
    Deviations between rounding noise and 1e-6 are left out, so no
    verdict hangs on the order of a sum."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    if kind == "randomized":
        joint = induce_LR(team, random_randomized_profile(team, seed)).joint
    else:
        joints = [induce_LA(team, random_profile(team, seed + i)).joint for i in range(3)]
        joint = 0.5 * joints[0] + 0.3 * joints[1] + 0.2 * joints[2]
    if kind == "perturbed":
        rng = np.random.default_rng(seed)
        noise = rng.uniform(size=joint.shape) * (rng.uniform(size=joint.shape) < 0.3)
        joint = joint + 0.2 * noise
    measure = StrategicMeasure(team, joint / joint.sum())
    for check, point_mass in ((check_membership_LR, False), (check_membership_LA, True)):
        want, compared = literal_failures(team, measure.joint, point_mass=point_mass)
        assume(not any(EQ_TOL / 100 < d <= 1e-6 for d in compared))
        verdict = check(measure)
        assert verdict.member == (not want)
        got = [(f.dm, f.condition, f.where) for f in verdict.failures]
        assert got == [w[:3] for w in want]
        for f, w in zip(verdict.failures, want):
            assert f.deviation == pytest.approx(w[3], rel=1e-9)


# -------------------------------------------------------------- enumeration


def test_enumerate_LA_count_and_lexicographic_order():
    team = random_team(8, n_omega=2, y_sizes=(2, 3), u_sizes=(3, 2))
    measures = enumerate_LA(team)
    want = (3 ** 2) * (2 ** 3)
    assert len(measures) == want
    assert team.n_deterministic_profiles() == want
    # index 0: all-zero action maps; index 1: only DM 2's last entry is 1
    first = induce_LA(
        team,
        DeterministicProfile([np.zeros(2, dtype=int), np.zeros(3, dtype=int)]),
    )
    second = induce_LA(
        team,
        DeterministicProfile(
            [np.zeros(2, dtype=int), np.array([0, 0, 1], dtype=int)]
        ),
    )
    last = induce_LA(
        team,
        DeterministicProfile(
            [np.full(2, 2, dtype=int), np.ones(3, dtype=int)]
        ),
    )
    assert np.allclose(measures[0].joint, first.joint, atol=0)
    assert np.allclose(measures[1].joint, second.joint, atol=0)
    assert np.allclose(measures[-1].joint, last.joint, atol=0)


def test_enumerate_LA_respects_cap():
    team = random_team(8, n_omega=2, y_sizes=(2, 3), u_sizes=(3, 2))
    with pytest.raises(CapExceeded):
        enumerate_LA(team, cap=10)


def test_enumerate_LA_refuses_oversized_joints_before_inducing(monkeypatch):
    team = random_team(8, n_omega=2, y_sizes=(2, 3), u_sizes=(3, 2))
    cells = team.n_deterministic_profiles() * int(np.prod(team.joint_shape()))
    induced = []
    monkeypatch.setattr(strategic, "induce_LA", lambda *args: induced.append(args))
    monkeypatch.setattr(strategic, "TABLE_CAP", cells - 1)
    with pytest.raises(CapExceeded) as err:
        enumerate_LA(team)
    assert (err.value.count, err.value.cap) == (cells, cells - 1)
    assert induced == []
    monkeypatch.setattr(strategic, "TABLE_CAP", cells)
    assert len(enumerate_LA(team)) == len(induced) == team.n_deterministic_profiles()


def test_caps_count_joint_cells_without_wrapping():
    # six DMs, |Y_k| = 10^4, |U_k| = 1: one profile, 10^24 joint cells
    n = 6
    omega = FiniteSpace("w", [0])
    ys = [FiniteSpace(f"y{k}", range(10**4)) for k in range(1, n + 1)]
    us = [FiniteSpace(f"u{k}", [0.0]) for k in range(1, n + 1)]
    kernels = [
        MeasurementKernel(k, np.full((1,) * k + (10**4,), 1e-4)) for k in range(1, n + 1)
    ]
    team = TeamProblem(
        omega, Pmf.uniform(omega), ys, us, kernels, CostTable(np.zeros((1,) * (n + 1)))
    )
    searches = (
        enumerate_LA,
        find_nonconvexity_witness,
        lambda t: induced_joint(t, DeterministicProfile([[0] * 10**4] * n)),
    )
    for search in searches:
        with pytest.raises(CapExceeded) as err:
            search(team)
        assert err.value.count == 10**24


@pytest.mark.parametrize(
    "what",
    ["pmf on 's'", "policy kernel row", "joint", "weight vector", "kernel row"],
    ids=["pmf", "policy", "joint", "mix", "threshold"],
)
@pytest.mark.parametrize(
    "row, message",
    [
        ([np.nan, 1.0], "has non-finite mass"),
        ([-0.5, 1.5], "has negative mass"),
        ([0.5, 0.4], "sums to 0.9, outside tolerance 1e-09"),
    ],
    ids=["nan", "negative", "short"],
)
def test_every_probability_table_is_refused_alike(what, row, message):
    team = random_team(0, n_omega=2, y_sizes=(1,), u_sizes=(1,))  # joint (2, 1, 1)
    measure = induce_LA(team, DeterministicProfile([[0]]))
    build = {
        "pmf on 's'": lambda: Pmf(FiniteSpace("s", [0, 1]), row),
        "policy kernel row": lambda: RandomizedProfile([[row]]),
        "joint": lambda: StrategicMeasure(team, np.reshape(row, (2, 1, 1))),
        "weight vector": lambda: mix([measure, measure], row),
        "kernel row": lambda: realize_kernel_as_function([row]),
    }[what]
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == f"{what} {message}"


def test_deterministic_class_attains_the_randomized_optimum():
    for seed in range(6):
        team = random_team(seed, dynamic=bool(seed % 2))
        best_det = min(m.expected_cost() for m in enumerate_LA(team))
        for trial in range(20):
            rnd = induce_LR(
                team, random_randomized_profile(team, 1000 * seed + trial)
            )
            assert best_det <= rnd.expected_cost() + 1e-12


# -------------------------------------------- randomized-as-mixture exactness


def test_uniform_realization_mixture_reproduces_the_measure():
    for seed in range(8):
        team = random_team(seed, dynamic=bool(seed % 2))
        prof = random_randomized_profile(team, seed + 50)
        target = induce_LR(team, prof)
        parts = uniform_realization_mixture(team, prof)
        weights = np.array([w for w, _ in parts])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights > 0)
        mixture_joint = sum(
            w * induce_LA(team, p).joint for w, p in parts
        )
        assert np.max(np.abs(mixture_joint - target.joint)) < 1e-12
        mixture_cost = sum(
            w * induce_LA(team, p).expected_cost() for w, p in parts
        )
        assert mixture_cost == pytest.approx(
            target.expected_cost(), abs=1e-12
        )


def test_uniform_realization_mixture_leaves_numpy_ma_unimported():
    # np.unique without an index output imports numpy.ma on first use,
    # 13-17 ms for a mixture that takes well under a millisecond
    code = (
        "import sys\n"
        "from conftest import random_randomized_profile, random_team\n"
        "from teamdec.strategic import uniform_realization_mixture\n"
        "team = random_team(1)\n"
        "print(len(uniform_realization_mixture(team, random_randomized_profile(team, 2))))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(strategic.__file__))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=os.path.dirname(__file__),
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (0, "")
    count, loaded = run.stdout.split()
    assert int(count) > 1 and loaded == "False"


def test_threshold_policy_intervals_are_exact():
    kern = np.array([[0.3, 0.0, 0.7], [0.5, 0.25, 0.25]])
    pol = realize_kernel_as_function(kern)
    for y in range(2):
        pieces = pol.intervals(y)
        # contiguous cover of [0, 1), zero-mass actions skipped
        lo = 0.0
        for start, mass, action in pieces:
            assert start == pytest.approx(lo, abs=1e-15)
            assert mass == pytest.approx(kern[y, action], abs=1e-15)
            assert kern[y, action] > 0
            lo = start + mass
        assert lo == pytest.approx(1.0, abs=1e-12)
        # the draw-measure of each action equals the kernel mass exactly
        for u in range(kern.shape[1]):
            total = sum(m for _, m, a in pieces if a == u)
            assert total == pytest.approx(kern[y, u], abs=1e-15)
    # boundary draws fall in the right-open piece
    assert pol.action(0.0, 0) == 0
    assert pol.action(0.3 - 1e-12, 0) == 0
    assert pol.action(0.3, 0) == 2
    assert pol.action(1.0 - 1e-12, 0) == 2
    with pytest.raises(ValidationError):
        pol.action(1.0, 0)
    for bad in ([[0.5, 0.4]], [[np.nan, 1.0]]):
        with pytest.raises(ValidationError):
            realize_kernel_as_function(np.array(bad))


def test_threshold_policy_draws_at_the_rounded_last_cut_take_the_last_action():
    # ten masses of 0.1 add up to just under 1, so the draw at the last cut
    # lies in no piece and falls back to the last action with positive mass
    pol = realize_kernel_as_function(np.full((1, 10), 0.1))
    last = float(pol.cum[0, -1])
    assert last == 0.9999999999999999
    assert pol.action(last, 0) == 9
    assert pol.action(np.nextafter(last, 0.0), 0) == 9


def test_threshold_policy_sampling_frequencies():
    kern = np.array([[0.15, 0.6, 0.25]])
    pol = realize_kernel_as_function(kern)
    rng = np.random.default_rng(0)
    n = 100_000
    draws = rng.random(n)
    acts = np.array([pol.action(r, 0) for r in draws])
    for u in range(3):
        p = kern[0, u]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(acts == u) - p) < 4 * sigma


# -------------------------------------------------- nonconvexity witnesses


def test_witness_found_on_correlated_mixture_team():
    team = trivial_measurement_team(2)
    wit = find_nonconvexity_witness(team)
    assert wit is not None
    # pairs scan lexicographically; (0,1) and (0,2) vary one DM only and
    # stay members, so the first witness is (0, 3)
    assert (wit.index_a, wit.index_b) == (0, 3)
    assert wit.lam == 0.5
    assert not wit.verdict.member
    measures = enumerate_LA(team)
    replay = mix(
        [measures[wit.index_a], measures[wit.index_b]],
        [wit.lam, 1 - wit.lam],
    )
    assert np.max(np.abs(replay.joint - wit.midpoint.joint)) < 1e-15


def test_witness_search_induces_only_the_profiles_it_mixes(monkeypatch):
    induced = []
    real = strategic.induced_joint

    def counted(*args, **kwargs):
        induced.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(strategic, "induced_joint", counted)
    for team in (
        trivial_measurement_team(2),
        binary_signaling_team(),
        sparse_team(8, (1, 2), (3, 2), True, True, n_omega=1),
        random_team(4, y_sizes=(2, 2, 1), u_sizes=(2, 2, 2)),
    ):
        induced.clear()
        wit = find_nonconvexity_witness(team)
        pair, _, across = literal_first_witness(team, 0.5)
        assert (None if wit is None else (wit.index_a, wit.index_b)) == pair
        assert len(induced) <= len({i for ab in across for i in ab})
    # the last team's first witness, (0, 3), mixes 2 of its 32 profiles
    assert 0 < len(induced) <= 2

    # one DM: every pair varies one map only, so nothing is mixed or induced,
    # and the 2^16 profiles of a 16-measurement team are not walked pair by pair
    for solo in (
        random_team(7, y_sizes=(2,), u_sizes=(3,)),
        random_team(7, n_omega=1, y_sizes=(16,), u_sizes=(2,)),
    ):
        induced.clear()
        assert find_nonconvexity_witness(solo) is None
        assert induced == []

    # oversized: the caps refuse before any joint is induced
    team = random_team(8, n_omega=2, y_sizes=(2, 3), u_sizes=(3, 2))
    cells = team.n_deterministic_profiles() * int(np.prod(team.joint_shape()))
    monkeypatch.setattr(strategic, "TABLE_CAP", cells - 1)
    with pytest.raises(CapExceeded) as err:
        find_nonconvexity_witness(team)
    assert (err.value.count, err.value.cap) == (cells, cells - 1)
    with pytest.raises(CapExceeded):
        find_nonconvexity_witness(team, cap=team.n_deterministic_profiles() - 1)
    assert induced == []


def test_no_witness_for_a_single_dm():
    rng = np.random.default_rng(0)
    omega = FiniteSpace("w", [0, 1, 2])
    y1 = FiniteSpace("y1", [0, 1])
    u1 = FiniteSpace("u1", [0.0, 1.0])
    team = TeamProblem(
        omega,
        Pmf.uniform(omega),
        [y1],
        [u1],
        [MeasurementKernel(1, rng.dirichlet(np.ones(2), size=3))],
        CostTable(rng.uniform(0, 1, size=(3, 2))),
    )
    assert find_nonconvexity_witness(team) is None


def test_signaling_team_mixture_of_optima_leaves_the_class():
    """Two zero-cost deterministic profiles (report the state directly,
    or flip it and unflip) mix to a measure outside the randomized class:
    the class is not convex even between optimal points."""
    team = binary_signaling_team()
    ident = DeterministicProfile(
        [np.array([0, 1], dtype=int), np.array([0, 1], dtype=int)]
    )
    flip = DeterministicProfile(
        [np.array([1, 0], dtype=int), np.array([1, 0], dtype=int)]
    )
    m_id, m_fl = induce_LA(team, ident), induce_LA(team, flip)
    assert m_id.expected_cost() == pytest.approx(0.0, abs=1e-15)
    assert m_fl.expected_cost() == pytest.approx(0.0, abs=1e-15)
    mid = mix([m_id, m_fl], [0.5, 0.5])
    assert mid.expected_cost() == pytest.approx(0.0, abs=1e-15)
    verdict = check_membership_LR(mid)
    assert not verdict.member
    assert any(
        f.dm == 2 and f.condition == "policy" for f in verdict.failures
    )
    assert find_nonconvexity_witness(team) is not None


@settings(max_examples=150)
@given(
    dms=small_dms,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    lam=st.sampled_from([0.5, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
# every pair (0, b) mixes inside the class here; the first witness is (4, 10)
@example(dms=[(1, 3), (2, 2)], n_omega=1, dynamic=True, zeros=True, lam=0.5, seed=8)
def test_witness_search_matches_literal_pair_loop(dms, n_omega, dynamic, zeros, lam, seed):
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    logger = logging.getLogger("teamdec.strategic")
    records = logging.handlers.BufferingHandler(capacity=100)
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    try:
        wit = find_nonconvexity_witness(team, lam=lam)
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
    pair, walked, across = literal_first_witness(team, lam)
    assert (None if wit is None else (wit.index_a, wit.index_b)) == pair
    # only the pairs that differ in two or more DMs' maps are checked,
    # and only the profiles in those pairs are induced
    mixed = {i for ab in across for i in ab}
    assert [r.getMessage() for r in records.buffer] == [
        f"witness search: {team.n_deterministic_profiles()} profiles, "
        f"{len(across)} pairs tested, {walked - len(across)} pairs skipped, "
        f"{len(mixed)} joints induced"
    ]


@settings(max_examples=150)
@given(
    dms=small_dms,
    n_omega=st.integers(1, 3),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    lam=st.floats(1e-100, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixtures_that_vary_one_dm_stay_in_the_class(dms, n_omega, dynamic, zeros, lam, seed):
    """The pruning premise of the witness search: two profiles that
    differ in one DM's map only mix inside the randomized class.  lam
    stays far above the subnormal range: a weight like 5e-324 rounds
    the mixed masses to a few units in the last place, and the stored
    array is then no longer the mixture."""
    y_sizes, u_sizes = zip(*dms)
    movable = [k for k, u in enumerate(u_sizes) if u > 1]
    assume(movable)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    rng = np.random.default_rng(seed)
    k = movable[rng.integers(len(movable))]
    prof = random_profile(team, seed)
    maps = list(prof.actions)
    moved = maps[k].copy()
    y = rng.integers(y_sizes[k])
    moved[y] = (moved[y] + rng.integers(1, u_sizes[k])) % u_sizes[k]
    maps[k] = moved
    mid = mix(
        [induce_LA(team, prof), induce_LA(team, DeterministicProfile(maps))],
        [lam, 1.0 - lam],
    )
    assert check_membership_LR(mid).member


# ------------------------------------- conditional-independence relaxation


def test_relaxed_class_contains_the_correlated_mixture():
    """The conditional-independence relaxation only sees measurement
    marginals, so action correlation through a mixing coin is invisible
    to it even though randomized membership fails."""
    team = trivial_measurement_team(3)
    measures = enumerate_LA(team)
    mid = mix([measures[0], measures[3]], [0.5, 0.5])
    assert not check_membership_LR(mid).member
    assert check_membership_LM(mid)


def test_relaxed_class_rejects_cross_measurement_policies():
    rng = np.random.default_rng(1)
    team = random_team(11, dynamic=False)
    # u1 copies y2 (which DM 1 cannot see); u2 constant
    k1 = team.kernels[0].table.reshape(len(team.omega0), -1)[:, :]
    k2 = team.kernels[1].table.reshape(len(team.omega0), -1, 2)[:, 0, :]
    ny1, ny2 = len(team.y_spaces[0]), len(team.y_spaces[1])
    joint = np.zeros(team.joint_shape())
    for w in range(len(team.omega0)):
        for a in range(ny1):
            for b in range(ny2):
                mass = team.prior.mass[w] * k1[w, a] * k2[w, b]
                joint[w, a, b % 2, b, 0] += mass
    m = StrategicMeasure(team, joint)
    assert not check_membership_LM(m)
    with pytest.raises(StaticRequired):
        check_membership_LM(induce_LA(random_team(1, dynamic=True),
                                      random_profile(random_team(1, dynamic=True), 1)))


def test_relaxed_class_rejects_a_wrong_measurement_marginal():
    """Each DM acts on its own measurement, so the conditional
    independence holds, but omega is drawn from a uniform prior in place
    of the team's: only the (omega, y1, y2) marginal is wrong."""
    team = random_team(11)
    uniform = TeamProblem(team.omega0, Pmf.uniform(team.omega0), team.y_spaces,
                          team.u_spaces, team.kernels, team.cost)
    joint = induced_joint(uniform, random_profile(team, 0))
    assert check_membership_LM(StrategicMeasure(uniform, joint))
    assert literal_in_LM(uniform, joint)[0]
    assert not check_membership_LM(StrategicMeasure(team, joint))
    assert not literal_in_LM(team, joint)[0]


def literal_in_LM(problem, joint, tol=EQ_TOL):
    """The relaxed class by a loop over measurement tuples: the (omega,
    y1..yN) marginal against prior times kernel rows, and, with u_k
    moved last, P(u_k | y1..yN) against P(u_k | y_k) where y1..yN has
    mass.  Returns the verdict and every deviation compared."""
    n, devs = problem.n_dms, []
    marg = joint.sum(axis=tuple(range(2, 2 * n + 1, 2)))
    for w, *ys in itertools.product(*map(range, marg.shape)):
        want = problem.prior.mass[w]
        for k in range(n):
            want *= problem.kernels[k].table[(w,) + (0,) * k + (ys[k],)]
        devs.append(abs(marg[(w, *ys)] - want))
    for k in range(n):
        others = tuple(2 * m + 2 for m in range(n) if m != k)
        tab = np.moveaxis(joint.sum(axis=(0,) + others), k + 1, -1)  # (y1..yN, u_k)
        own = tab.sum(axis=tuple(m for m in range(n) if m != k))  # (y_k, u_k)
        for ys in itertools.product(*map(range, tab.shape[:-1])):
            mass = tab[ys].sum()
            if mass > 0:
                ref = own[ys[k]] / own[ys[k]].sum()
                devs.extend(np.abs(tab[ys] / mass - ref))
    return all(d <= tol for d in devs), devs


def test_relaxed_class_holds_every_induced_measure_of_a_three_dm_static_team():
    """With u_k taken from its own axis, not the last one: P(u1 | y1,
    y2, y3) depends on y1 alone under every deterministic profile."""
    team = three_dm_bsc_team()
    measures = enumerate_LA(team)
    assert len(measures) == 64
    assert all(check_membership_LM(m) for m in measures)
    # u1 copies y3, which DM 1 cannot see; u2 = u3 = 0
    joint = np.zeros(team.joint_shape())
    rows = [team.kernels[k].table.reshape(4, -1, 2)[:, 0, :] for k in range(3)]
    for w, a, b, c in itertools.product(range(4), range(2), range(2), range(2)):
        joint[w, a, c, b, 0, c, 0] += 0.25 * rows[0][w, a] * rows[1][w, b] * rows[2][w, c]
    copied = StrategicMeasure(team, joint)
    assert not check_membership_LM(copied)
    assert not literal_in_LM(team, copied.joint)[0]


@settings(max_examples=150)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=4),
    n_omega=st.integers(1, 3),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_induced_measures_of_static_teams_lie_in_every_class(dms, n_omega, zeros, seed):
    """Induced deterministic measures lie in L_A, L_R and L_M, induced
    randomized ones in L_R and L_M; on both and on their 50/50
    mixtures L_M agrees with the literal loop."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, False, zeros, n_omega)
    det = induce_LA(team, random_profile(team, seed))
    det2 = induce_LA(team, random_profile(team, seed + 1))
    rnd = induce_LR(team, random_randomized_profile(team, seed))
    assert check_membership_LA(det).member and check_membership_LR(det).member
    assert check_membership_LR(rnd).member
    for m in (det, rnd, mix([det, det2], [0.5, 0.5]), mix([det, rnd], [0.5, 0.5])):
        want, devs = literal_in_LM(team, m.joint)
        assume(not any(EQ_TOL / 100 < d <= 1e-6 for d in devs))
        assert check_membership_LM(m) == want
        if m is det or m is rnd:
            assert want


# ------------------------------------------------- classical realization


def test_realize_midpoint_classical_roundtrips_exactly():
    for seed in range(25):
        team = classical_team(seed)
        lam = 0.5 if seed % 2 == 0 else 0.3
        p1 = induce_LA(team, random_profile(team, seed + 1))
        p2 = induce_LR(team, random_randomized_profile(team, seed + 2))
        hp = realize_midpoint_classical(team, p1, p2, lam=lam)
        target = mix([p1, p2], [lam, 1 - lam])
        back = induce_history_profile(team, hp)
        assert np.max(np.abs(back.joint - target.joint)) < 1e-12
        assert back.expected_cost() == pytest.approx(
            target.expected_cost(), abs=1e-12
        )


def test_realize_midpoint_requires_nested_information():
    team = random_team(1, dynamic=True)
    p = induce_LA(team, random_profile(team, 1))
    with pytest.raises(NotClassical):
        realize_midpoint_classical(team, p, p)


def test_realize_midpoint_rejects_non_members():
    team = trivial_measurement_team(4)
    measures = enumerate_LA(team)
    bad = mix([measures[0], measures[3]], [0.5, 0.5])
    good = measures[0]
    with pytest.raises(NonMember):
        realize_midpoint_classical(team, bad, good)
    with pytest.raises(ValidationError):
        realize_midpoint_classical(team, good, good, lam=1.5)


def test_history_profile_joints_are_capped_before_they_are_built(monkeypatch):
    team = classical_team(7)
    p1 = induce_LA(team, random_profile(team, 1))
    p2 = induce_LR(team, random_randomized_profile(team, 2))
    hp = realize_midpoint_classical(team, p1, p2)
    cells = int(np.prod(team.joint_shape()))  # 4 * 2 * 2 * 4 * 2 = 128
    built = []
    full_joint = strategic._full_joint
    monkeypatch.setattr(strategic, "_full_joint", lambda *a: built.append(a) or full_joint(*a))
    monkeypatch.setattr(strategic, "TABLE_CAP", cells - 1)
    with pytest.raises(CapExceeded) as err:
        induce_history_profile(team, hp)
    assert (err.value.count, err.value.cap) == (cells, cells - 1)
    assert built == []
    monkeypatch.setattr(strategic, "TABLE_CAP", cells)
    assert induce_history_profile(team, hp).joint.size == cells


def test_realization_mixtures_are_capped_before_they_are_listed(monkeypatch):
    team = random_team(0)
    prof = random_randomized_profile(team, 50)
    count = len(uniform_realization_mixture(team, prof))  # every piece has positive weight
    assert count == 9
    monkeypatch.setattr(strategic, "ENUM_CAP", count)
    assert len(uniform_realization_mixture(team, prof)) == count
    monkeypatch.setattr(strategic, "DeterministicProfile", lambda maps: pytest.fail("listed"))
    monkeypatch.setattr(strategic, "ENUM_CAP", count - 1)
    with pytest.raises(CapExceeded) as err:
        uniform_realization_mixture(team, prof)
    assert (err.value.count, err.value.cap) == (count, count - 1)


def test_history_profile_reproduces_a_deterministic_profile():
    team = classical_team(7)
    prof = random_profile(team, 7)
    mats = prof.matrices(team)
    ny1, nu1 = mats[0].shape
    ny2, nu2 = mats[1].shape
    k1 = mats[0]
    k2 = np.broadcast_to(
        mats[1][None, None, :, :], (ny1, nu1, ny2, nu2)
    ).copy()
    hp = HistoryProfile([k1, k2])
    back = induce_history_profile(team, hp)
    assert np.max(np.abs(back.joint - induce_LA(team, prof).joint)) < 1e-15
