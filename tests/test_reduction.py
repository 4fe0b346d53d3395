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
    _compact,
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
    enumerate_profiles_literal,
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


def test_weights_are_stored_like_their_kernels():
    """Weights of kernels with cut axes (static DMs, and DM 1 blind to
    omega) are full-shape read-only views of rows stored at the
    kernel's size, equal to the literal full-shape division."""
    base = random_team(5, n_omega=3, y_sizes=(2, 3, 2), u_sizes=(2, 3, 2))
    blind = np.broadcast_to(np.array([0.25, 0.75]), (3, 2))
    team = TeamProblem(base.omega0, base.prior, base.y_spaces, base.u_spaces,
                       [MeasurementKernel(1, blind)] + list(base.kernels[1:]), base.cost)
    red = static_reduce(team)
    for t, (kern, ref, f) in enumerate(zip(team.kernels, red.references, red.weights)):
        q = ref.mass
        table = np.asarray(kern.table)
        want = np.zeros(table.shape)
        np.divide(table, q, out=want, where=np.broadcast_to(q > 0, table.shape))
        assert f.shape == team.kernel_shape(t + 1) and not f.flags.writeable
        assert np.array_equal(f, want)
        assert _compact(f).shape == _compact(kern.table).shape
        assert red.reweighted_kernels()[t].shape == _compact(kern.table).shape
    assert _compact(team.kernels[0].table).shape == (1, 2)
    assert _compact(team.kernels[2].table).shape == (3, 1, 1, 2)


def test_absolute_continuity_names_the_first_reachable_history_of_a_cut_kernel():
    """DM 2's rows repeat over omega and u1, so its stored form has one
    row; the failure still names the first positive-prior history."""
    omega = FiniteSpace("w", ["a", "b", "c"])
    y = FiniteSpace("y", [0, 1])
    u = FiniteSpace("u", [0.0, 1.0])
    row = np.array([0.5, 0.5])
    team = TeamProblem(
        omega, Pmf(omega, [0.0, 0.5, 0.5]), [y, y], [u, u],
        [MeasurementKernel(1, np.broadcast_to(row, (3, 2))),
         MeasurementKernel(2, np.broadcast_to(row, (3, 2, 2)))],
        CostTable(np.ones((3, 2, 2))),
    )
    with pytest.raises(AbsoluteContinuityFailure) as exc:
        static_reduce(team, [None, Pmf(y, [1.0, 0.0])])
    assert (exc.value.dm, exc.value.y_label, exc.value.history) == (2, 1, ("b", 0.0))


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
    assert precedence_graph(reduced) == ()
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


def test_a_plain_array_reference_reduces_as_its_pmf_does():
    team = random_team(5, dynamic=True)
    masses = [np.linspace(1.0, 2.0, len(y)) for y in team.y_spaces]
    masses = [m / m.sum() for m in masses]
    plain = static_reduce(team, masses)
    pmfs = static_reduce(team, [Pmf(y, m) for y, m in zip(team.y_spaces, masses)])
    for a, b in zip(plain.references, pmfs.references):
        assert a.space == b.space and np.array_equal(a.mass, b.mass)
    for a, b in zip(plain.weights, pmfs.weights):
        assert np.array_equal(a, b)
    prof = random_profile(team, 5)
    assert plain.reduced_expected_cost(prof) == pmfs.reduced_expected_cost(prof)


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


def test_reduced_problem_cap_counts_the_tables_it_builds():
    # 27 exogenous points: the cost holds 27 * 4 = 108 cells and each kernel
    # stores 27 * 3 rows; DM 2's full-shape kernel (162 cells) is never built
    team = random_team(5, y_sizes=(3, 3), dynamic=True)
    red = static_reduce(team)
    with pytest.raises(CapExceeded) as info:
        red.reduced_problem(cap=107)
    assert info.value.count == 108
    reduced = red.reduced_problem(cap=130)
    assert validate(reduced) == []
    for prof in enumerate_profiles_literal(team):
        assert expected_cost(reduced, prof) == pytest.approx(
            expected_cost(team, prof), abs=1e-10
        )


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
