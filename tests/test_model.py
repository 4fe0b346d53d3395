import numpy as np
import pytest

from teamdec.errors import (
    CapExceeded,
    DimensionMismatch,
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
    expected_cost_batch,
    induced_joint,
    joint_axes,
    validate,
)

from conftest import (
    naive_expected_cost,
    random_profile,
    random_randomized_profile,
    random_team,
)


def test_finite_space_lookup_and_uniqueness():
    s = FiniteSpace("s", ["a", "b", "c"])
    assert len(s) == 3
    assert s.index("b") == 1
    with pytest.raises(ValidationError):
        FiniteSpace("dup", ["a", "a"])
    with pytest.raises(ValidationError):
        FiniteSpace("empty", [])


def test_pmf_renormalizes_within_tolerance_and_rejects_beyond():
    s = FiniteSpace("s", [0, 1])
    p = Pmf(s, [0.5 + 4e-10, 0.5])
    assert p.mass.sum() == 1.0
    with pytest.raises(ValidationError):
        Pmf(s, [0.6, 0.5])
    with pytest.raises(ValidationError):
        Pmf(s, [-0.1, 1.1])


def test_expected_cost_matches_naive_summation_on_seeded_sweep():
    for seed in range(25):
        dynamic = seed % 2 == 1
        team = random_team(
            seed,
            n_omega=2 + seed % 3,
            y_sizes=(2, 1 + seed % 3),
            u_sizes=(1 + seed % 3, 2),
            dynamic=dynamic,
        )
        prof = random_profile(team, seed + 1000)
        got = expected_cost(team, prof)
        want = naive_expected_cost(team, prof)
        assert got == pytest.approx(want, abs=1e-12), f"seed {seed}"
    for seed in range(5):
        team = random_team(seed, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True)
        prof = random_profile(team, seed + 1000)
        got = expected_cost(team, prof)
        want = naive_expected_cost(team, prof)
        assert got == pytest.approx(want, abs=1e-12), f"3-DM seed {seed}"


def test_expected_cost_accepts_randomized_profiles():
    team = random_team(3, dynamic=True)
    rp = random_randomized_profile(team, 4)
    joint = induced_joint(team, rp)
    want = float((joint * team.cost.table[:, None, :, None, :]).sum())
    assert expected_cost(team, rp) == pytest.approx(want, abs=1e-12)


def test_batch_evaluation_matches_single_evaluation():
    for team in (
        random_team(7, dynamic=True),
        random_team(7, y_sizes=(2, 3, 2), u_sizes=(3, 2, 2), dynamic=True),
    ):
        profiles = [random_profile(team, s) for s in range(40)]
        stacked = [
            np.stack([p.matrices(team)[d] for p in profiles])
            for d in range(team.n_dms)
        ]
        batch = expected_cost_batch(team, stacked)
        singles = np.array([expected_cost(team, p) for p in profiles])
        assert np.allclose(batch, singles, atol=1e-12)


def test_induced_joint_is_a_probability_with_prior_marginal():
    for seed in range(10):
        team = random_team(seed, dynamic=True)
        prof = random_profile(team, seed)
        joint = induced_joint(team, prof)
        assert joint.min() >= 0.0
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        marg = joint.sum(axis=tuple(range(1, joint.ndim)))
        assert np.allclose(marg, team.prior.mass, atol=1e-12)


def test_induced_joint_respects_cap():
    team = random_team(0)
    with pytest.raises(CapExceeded):
        induced_joint(team, random_profile(team, 0), cap=4)


def test_joint_axes_layout():
    team = random_team(1)
    ax = joint_axes(team)
    assert ax["omega0"] == 0
    assert ax["y1"] == 1 and ax["u1"] == 2
    assert ax["y2"] == 3 and ax["u2"] == 4


def test_validate_flags_negative_cost_with_location():
    team = random_team(2)
    bad = team.cost.table.copy()
    bad[1, 0, 1] = -0.5
    prob = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        team.u_spaces,
        team.kernels,
        CostTable(bad),
    )
    found = validate(prob)
    assert any(
        v.code == "cost-negative" and v.where == (1, 0, 1) for v in found
    )


def test_validate_flags_bad_kernel_row():
    team = random_team(2)
    t = team.kernels[0].table.copy()
    t[1] = [0.7, 0.7]
    prob = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        team.u_spaces,
        [MeasurementKernel(1, t), team.kernels[1]],
        team.cost,
    )
    found = validate(prob)
    assert any(v.code == "kernel-row" and v.where[:2] == (1, 1) for v in found)


def test_validate_flags_shape_mismatch_before_values():
    team = random_team(2)
    wrong = MeasurementKernel(1, np.full((2, 2), 0.5))
    prob = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        team.u_spaces,
        [wrong, team.kernels[1]],
        team.cost,
    )
    found = validate(prob)
    assert [v.code for v in found] == ["kernel-shape"]


def test_profile_validation_errors():
    team = random_team(0)
    with pytest.raises(DimensionMismatch):
        DeterministicProfile([[0, 0, 0], [0, 0]]).matrices(team)
    with pytest.raises(ValidationError):
        RandomizedProfile([np.array([[0.5, 0.6], [0.5, 0.5]])])
    # one policy too few or too many for the two DMs
    for count in (1, 3):
        with pytest.raises(DimensionMismatch):
            expected_cost(team, DeterministicProfile([[0, 0]] * count))
        with pytest.raises(DimensionMismatch):
            expected_cost(team, RandomizedProfile([np.eye(2)] * count))


def test_deterministic_profile_from_callables():
    team = random_team(0)
    prof = DeterministicProfile.from_callables(
        team, [lambda y: 1.0, lambda y: 0.0]
    )
    assert list(prof.actions[0]) == [1, 1]
    assert list(prof.actions[1]) == [0, 0]


def test_validate_messages_print_plain_numbers():
    team = random_team(2)
    t = team.kernels[0].table.copy()
    t[0] = [0.25, 0.25]
    cost = team.cost.table.copy()
    cost[0, 0, 0] = -1.0
    prob = TeamProblem(
        team.omega0,
        team.prior,
        team.y_spaces,
        team.u_spaces,
        [MeasurementKernel(1, t), team.kernels[1]],
        CostTable(cost),
    )
    messages = [v.message for v in validate(prob)]
    assert messages == [
        "DM 1 kernel row at history (0,) sums to 0.5 or has invalid entries",
        "cost is negative at (0, 0, 0)",
    ]
