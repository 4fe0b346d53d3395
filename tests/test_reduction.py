"""Change-of-measure tests: weight construction, cost equivalence on the
lazy path and on the materialized static problem, reference validation,
and absolute-continuity failures."""

import numpy as np
import pytest

from teamdec.errors import (
    AbsoluteContinuityFailure,
    CapExceeded,
    ValidationError,
)
from teamdec.infostruct import ISClass, classify, precedence_graph
from teamdec.model import (
    CostTable,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
    expected_cost,
    validate,
)
from teamdec.reduction import (
    StaticReduction,
    default_references,
    static_reduce,
    verify_equivalence,
)

from conftest import (
    naive_expected_cost,
    random_profile,
    random_randomized_profile,
    random_team,
    relay_team,
)


def test_weights_reconstruct_the_kernels_exactly():
    for seed in range(6):
        team = random_team(seed, dynamic=True)
        red = static_reduce(team)
        for t, kern in enumerate(team.kernels):
            rw = red.reweighted_kernels()[t]
            assert np.max(np.abs(rw - kern.table)) < 1e-15
            # normalization: each weight row integrates to one against
            # its reference
            norm = (red.weights[t] * red.references[t].mass).sum(axis=-1)
            assert np.max(np.abs(norm - 1.0)) < 1e-12


def test_default_references_cover_all_rows():
    team = random_team(3, dynamic=True)
    for t, ref in enumerate(default_references(team)):
        support = team.kernels[t].table.reshape(-1, ref.mass.shape[0])
        assert np.all(ref.mass[support.any(axis=0)] > 0)
        assert ref.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_reduced_cost_matches_original_for_every_profile():
    for seed in range(10):
        team = random_team(seed, dynamic=True)
        red = static_reduce(team)
        for trial in range(5):
            det = random_profile(team, 100 * seed + trial)
            a = expected_cost(team, det)
            assert red.reduced_expected_cost(det) == pytest.approx(
                a, abs=1e-10
            )
            rnd = random_randomized_profile(team, 100 * seed + trial)
            b = expected_cost(team, rnd)
            assert red.reduced_expected_cost(rnd) == pytest.approx(
                b, abs=1e-10
            )
    # anchor one case against the literal summation oracle
    team = random_team(0, dynamic=True)
    det = random_profile(team, 0)
    assert static_reduce(team).reduced_expected_cost(det) == pytest.approx(
        naive_expected_cost(team, det), abs=1e-10
    )


def test_materialized_reduction_is_static_and_equivalent():
    team = random_team(2, dynamic=True)
    red = static_reduce(team)
    reduced = red.reduced_problem()
    assert validate(reduced) == []
    assert precedence_graph(reduced).edges == ()
    assert classify(reduced) is ISClass.STATIC
    assert len(reduced.omega0) == red.exogenous_size()
    # the exogenous prior is the product of the original prior and the
    # references
    want = team.prior.mass
    for ref in red.references:
        want = np.multiply.outer(want, ref.mass)
    assert np.allclose(reduced.prior.mass, want.reshape(-1), atol=1e-15)
    # each DM observes its own coordinate of the exogenous tuple exactly
    for t in range(1, team.n_dms + 1):
        table = reduced.kernels[t - 1].table.reshape(
            len(reduced.omega0), -1, len(team.y_spaces[t - 1])
        )
        for e, point in enumerate(reduced.omega0.points):
            y_idx = team.y_spaces[t - 1].points.index(point[t])
            assert np.all(table[e, :, y_idx] == 1.0)
    # same optimal structure: costs agree profile by profile
    for trial in range(5):
        det = random_profile(team, trial)
        assert expected_cost(reduced, det) == pytest.approx(
            expected_cost(team, det), abs=1e-10
        )
        rnd = random_randomized_profile(team, trial)
        assert expected_cost(reduced, rnd) == pytest.approx(
            expected_cost(team, rnd), abs=1e-10
        )


def test_relay_chain_reduces_exactly():
    team = relay_team(9)
    red = static_reduce(team)
    reduced = red.reduced_problem()
    for trial in range(4):
        prof = random_profile(team, trial)
        a = expected_cost(team, prof)
        assert red.reduced_expected_cost(prof) == pytest.approx(a, abs=1e-12)
        assert expected_cost(reduced, prof) == pytest.approx(a, abs=1e-12)


def test_equivalence_report_contents():
    team = random_team(4, dynamic=True)
    red = static_reduce(team)
    profiles = [random_profile(team, t) for t in range(4)]
    report = verify_equivalence(red, profiles)
    assert report.equivalent
    assert report.max_gap <= report.tol
    assert len(report.records) == 4
    for rec, prof in zip(report.records, profiles):
        assert rec.original == pytest.approx(
            expected_cost(team, prof), abs=1e-12
        )
        assert rec.gap == abs(rec.original - rec.reduced)
    # doctored weights must be caught
    tampered = StaticReduction(
        team,
        red.references,
        tuple(1.01 * w for w in red.weights),
    )
    bad = verify_equivalence(tampered, profiles)
    assert not bad.equivalent
    assert bad.max_gap > report.max_gap


def test_custom_references_keep_equivalence():
    team = random_team(5, dynamic=True)
    uniform_refs = [
        Pmf(y, np.ones(len(y)) / len(y)) for y in team.y_spaces
    ]
    red = static_reduce(team, uniform_refs)
    prof = random_profile(team, 5)
    assert red.reduced_expected_cost(prof) == pytest.approx(
        expected_cost(team, prof), abs=1e-10
    )
    # None entries fall back to defaults
    mixed = static_reduce(team, [None, uniform_refs[1]])
    assert mixed.references[0].mass == pytest.approx(
        default_references(team)[0].mass
    )
    with pytest.raises(ValidationError):
        static_reduce(team, [uniform_refs[0]])
    other_space = FiniteSpace(
        "z", [f"pt{j}" for j in range(len(team.y_spaces[0]))]
    )
    with pytest.raises(ValidationError):
        static_reduce(
            team,
            [Pmf(other_space, uniform_refs[0].mass), uniform_refs[1]],
        )


def test_absolute_continuity_failure_names_the_offender():
    team = random_team(6, dynamic=True)
    ny1 = len(team.y_spaces[0])
    ref1 = np.ones(ny1)
    ref1[-1] = 0.0  # kernel rows have full support, so this must fail
    refs = [Pmf(team.y_spaces[0], ref1 / ref1.sum()), None]
    with pytest.raises(AbsoluteContinuityFailure) as exc:
        static_reduce(team, refs)
    assert exc.value.dm == 1
    assert exc.value.y_label == team.y_spaces[0].points[-1]
    assert len(exc.value.history) >= 1  # at least the exogenous label


def test_absolute_continuity_ignores_unreachable_histories():
    omega = FiniteSpace("w", [0, 1])
    y1 = FiniteSpace("y1", [0, 1])
    u1 = FiniteSpace("u1", [0.0, 1.0])
    prior = Pmf(omega, np.array([1.0, 0.0]))  # omega=1 unreachable
    t1 = np.array([[1.0, 0.0], [0.0, 1.0]])  # only omega=1 emits y1=1
    team = TeamProblem(
        omega,
        prior,
        [y1],
        [u1],
        [MeasurementKernel(1, t1)],
        CostTable(np.ones((2, 2))),
    )
    ref = Pmf(y1, np.array([1.0, 0.0]))  # no mass at y1=1
    red = static_reduce(team, [ref])  # must not raise
    prof = random_profile(team, 1)
    assert red.reduced_expected_cost(prof) == pytest.approx(
        expected_cost(team, prof), abs=1e-12
    )


def test_reduced_problem_respects_cap():
    team = random_team(7, dynamic=True)
    with pytest.raises(CapExceeded):
        static_reduce(team).reduced_problem(cap=5)


def test_normalization_failure_prints_a_plain_number():
    # a row that sums to 1 + 1e-10 passes validate (INPUT_MASS_TOL) but
    # not the reduction's normalization check (EQ_TOL)
    team = random_team(1, n_omega=1, y_sizes=(1, 1), dynamic=True)
    t = team.kernels[1].table.copy()
    t[0, 0, 0] = 1 + 1e-10
    prob = TeamProblem(
        team.omega0, team.prior, team.y_spaces, team.u_spaces,
        [team.kernels[0], MeasurementKernel(2, t)], team.cost,
    )
    assert validate(prob) == []
    with pytest.raises(ValidationError) as err:
        static_reduce(prob)
    assert str(err.value) == "DM 2 weight normalization off by 1.000000082740371e-10"
