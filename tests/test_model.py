import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdec import model

from teamdec.errors import (
    CapExceeded,
    DimensionMismatch,
    ValidationError,
)
from teamdec.gallery import signaling
from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
    _compact,
    _forward_law,
    expected_cost,
    expected_cost_batch,
    Violation,
    induced_joint,
    validate,
)

from conftest import (
    naive_expected_cost,
    random_profile,
    random_randomized_profile,
    random_team,
    sparse_team,
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


def dense_fold(problem, policies):
    """The forward law under ``policies`` (each with an optional leading
    batch axis), one dense product per DM over every cell: the stored
    kernel rows (the full table with each stride-0 history axis cut to
    length 1) times the policy, times the law so far."""
    law = problem.prior.mass
    for kernel, policy in zip(problem.kernels, policies):
        full = kernel.table
        rows = full[tuple(slice(0, 1) if s == 0 else slice(None) for s in full.strides[:-1])]
        g = rows.reshape(-1, rows.shape[-1]) @ policy
        law = g.reshape(policy.shape[:-2] + rows.shape[:-1] + policy.shape[-1:]) * law[..., None]
    return law


def summed_in_order(law, cost):
    """The cost contraction's order written out from a whole law over
    ([batch,] omega0, u1, ..., uN): the products law * cost, added over
    the histories one after another from +0 within each column of u_N
    (pairwise, as one np.sum, when u_N has a single point), then the
    column totals added by np.sum."""
    nu = cost.shape[-1]
    terms = law * cost
    cols = terms.reshape(terms.shape[: terms.ndim - cost.ndim] + (-1, nu))
    if nu == 1:
        return np.sum(cols[..., 0], axis=-1)
    acc = np.zeros(cols.shape[:-2] + (nu,))
    for h in range(cols.shape[-2]):
        acc = acc + cols[..., h, :]
    return np.sum(acc, axis=-1)


@settings(max_examples=150)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 12)), min_size=1, max_size=3),
    n_omega=st.integers(1, 4),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
# a one-hot batch's law after DM 1 fills 1/12 of its cells, then 1/4
@example(dms=[(2, 12), (2, 3)], n_omega=2, dynamic=True, zeros=False, batch=3, seed=0)
@example(dms=[(2, 4), (2, 3)], n_omega=2, dynamic=False, zeros=False, batch=3, seed=0)
# one action for the last DM: its single column is summed pairwise
@example(dms=[(3, 12), (3, 1)], n_omega=4, dynamic=True, zeros=True, batch=3, seed=1)
# ten actions for the last DM: its column totals are summed pairwise
@example(dms=[(3, 6), (2, 10)], n_omega=4, dynamic=True, zeros=False, batch=2, seed=1)
def test_folds_match_a_literal_dense_fold_byte_for_byte(dms, n_omega, dynamic, zeros, batch, seed):
    """The forward law keeps every byte of the dense fold, and
    expected_cost and expected_cost_batch every byte of the dense fold's
    law summed in the contraction's order, whichever side of the density
    rule a law is on: with the rule as set, and with every law sent down
    the sparse (rule 0) or the dense path (a rule no nonzero count
    passes)."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega)
    stored = [_compact(k.table) for k in team.kernels]
    cost = team.cost.table
    profiles = [random_profile(team, seed), random_randomized_profile(team, seed)]
    one_hot = [random_profile(team, seed + b).matrices(team) for b in range(batch)]
    stacked = [np.stack(m) for m in zip(*one_hot)]
    want_batch = summed_in_order(dense_fold(team, stacked), cost)
    for rule in (0, model._SPARSE, 10**6):  # 10**6: no law here has as many cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_SPARSE", rule)
            for profile in profiles:
                mats = profile.matrices(team)
                want = dense_fold(team, mats)
                law = _forward_law(team.prior.mass, stored, mats)
                assert law.shape == want.shape and law.tobytes() == want.tobytes()
                got = np.float64(expected_cost(team, profile))
                assert got.tobytes() == np.float64(summed_in_order(want, cost)).tobytes()
            law, want = _forward_law(team.prior.mass, stored, stacked), dense_fold(team, stacked)
            assert law.shape == want.shape and law.tobytes() == want.tobytes()
            assert expected_cost_batch(team, stacked).tobytes() == want_batch.tobytes()


def test_a_team_of_no_decision_makers_costs_the_prior_against_the_cost():
    omega = FiniteSpace("w", [0, 1])
    team = TeamProblem(omega, Pmf(omega, [0.25, 0.75]), [], [], [], CostTable([1.0, 2.0]))
    assert expected_cost(team, DeterministicProfile([])) == 1.75


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


def test_cap_check_refuses_only_counts_over_the_cap():
    assert CapExceeded.check(7, 7) == 7
    assert CapExceeded.check(0, 7) == 0
    with pytest.raises(CapExceeded) as err:
        CapExceeded.check(8, 7)
    assert (err.value.count, err.value.cap) == (8, 7)
    assert str(err.value) == "enumeration of 8 items exceeds cap 7"


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
    assert all(type(x) is int for v in found for x in v.where)


def test_validate_reports_a_stored_row_at_every_history_it_covers():
    """DM 2's rows repeat over omega and u1, so it stores one row per
    distinct row.  A bad stored row is still reported once per full
    history, in C order and with the same texts as for a kernel whose
    rows all differ; the check copies no full-shape table."""
    team = random_team(2, n_omega=3, u_sizes=(4, 2))
    rows = np.array([[0.25, 0.75], [0.7, 0.7], [0.5, 0.5]])  # omega = 1 sums to 1.4
    shared = np.broadcast_to(rows[:, None, :], (3, 4, 2))
    dense = shared.copy()
    dense[0, 1] = [0.3, 0.7]  # every row of omega = 0 now differs
    reports = []
    for table in (shared, dense):
        prob = TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                           [team.kernels[0], MeasurementKernel(2, table)], team.cost)
        reports.append([(v.code, v.where, v.message) for v in validate(prob)])
    assert reports[0] == reports[1]
    assert [w for _, w, _ in reports[0]] == [(2, 1, u) for u in range(4)]
    assert "sums to 1.4 or has invalid entries" in reports[0][0][2]

    problem = signaling().problem  # DM 2's kernel is 64 x 129 x 129 at full shape
    tracemalloc.start()
    try:
        assert validate(problem) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < problem.kernels[1].table.size * 8 / 4


def test_validate_lists_the_first_kernel_rows_and_counts_the_rest(monkeypatch):
    """Past ``_LISTED`` bad rows the listing is the unbounded listing's
    first ``_LISTED`` entries, then one entry stating the count; the cost
    finding follows and ``total`` counts every violation."""
    team = random_team(2, n_omega=3, u_sizes=(4, 2))
    shared = np.broadcast_to([[0.7, 0.7]], (3, 4, 2))  # 12 bad histories, one stored row
    cost = team.cost.table.copy()
    cost[0, 0, 0] = -1.0
    prob = TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                       [MeasurementKernel(1, np.full((3, 2), 0.25)), MeasurementKernel(2, shared)],
                       CostTable(cost))
    monkeypatch.setattr(model, "_LISTED", 10**6)
    every = validate(prob)
    assert len(every) == every.total == 3 + 12 + 1
    for listed in (0, 2, 5, 14):
        monkeypatch.setattr(model, "_LISTED", listed)
        found = validate(prob)
        assert found.total == 16
        assert found[:listed] == every[:listed]
        assert found[listed:] == [
            Violation("kernel-row", (), f"15 kernel rows in all are not probability "
                      f"vectors; the first {listed} are listed"),
            every[-1],
        ]
    monkeypatch.setattr(model, "_LISTED", 15)
    assert validate(prob) == every


def test_validate_flags_shape_mismatch_before_values():
    """A misshapen kernel is refused when the problem is built, before any
    value is looked at: its rows here sum to 1.4 and the cost is negative."""
    team = random_team(2)
    wrong = MeasurementKernel(1, np.full((2, 2), 0.7))
    with pytest.raises(DimensionMismatch) as err:
        TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                    [wrong, team.kernels[1]], CostTable(-team.cost.table))
    assert str(err.value) == "DM 1 kernel shape (2, 2) != (3, 2)"


def test_team_problem_refuses_a_mislabeled_kernel():
    team = random_team(2)
    with pytest.raises(ValidationError) as err:
        TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                    team.kernels[::-1], team.cost)
    assert type(err.value) is ValidationError
    assert str(err.value) == "kernel at position 1 is labeled dm=2"


def test_team_problem_refuses_a_misshapen_cost():
    team = random_team(2)
    with pytest.raises(DimensionMismatch) as err:
        TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                    team.kernels, CostTable(np.zeros((3, 2))))
    assert str(err.value) == "cost shape (3, 2) != (3, 2, 2)"


def test_team_problem_refuses_a_kernel_or_cost_over_the_table_cap(monkeypatch):
    # the cost holds 3 * 4 * 5 = 60 cells, DM 2's kernel 3 * 4 * 6 = 72
    team = random_team(2, y_sizes=(2, 6), u_sizes=(4, 5))

    def build():
        return TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                           team.kernels, team.cost)

    for cap, refused in ((72, None), (71, 72)):
        monkeypatch.setattr(model, "TABLE_CAP", cap)
        if refused is None:
            build()
            continue
        with pytest.raises(CapExceeded) as err:
            build()
        assert (err.value.count, err.value.cap) == (refused, cap)
    team = random_team(2, y_sizes=(2, 2), u_sizes=(4, 5))
    monkeypatch.setattr(model, "TABLE_CAP", 59)
    with pytest.raises(CapExceeded) as err:
        build()
    assert (err.value.count, err.value.cap) == (60, 59)


def literal_cut_shape(table: np.ndarray) -> tuple:
    """The stored shape by the rule itself: a history axis is cut to
    length 1 when it is a stride-0 view of one slice, or when every slice
    along it equals the first, ``==`` cell by cell (so NaN never repeats
    and -0.0 repeats 0.0)."""
    shape = list(table.shape)
    for a in range(table.ndim - 1):
        first = table.take([0], axis=a)
        if table.strides[a] == 0 or (table == first).all():
            shape[a] = 1
    return tuple(shape)


@settings(max_examples=300)
@given(
    shape=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    flat=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, np.nan, np.inf]), min_size=81, max_size=81),
    repeat=st.lists(st.booleans(), min_size=4, max_size=4),
    broadcast=st.booleans(),
)
def test_kernel_cuts_the_axes_the_literal_rule_cuts(shape, flat, repeat, broadcast):
    """Tables constant along a drawn set of history axes (built by copying
    the first slice, or as a stride-0 view), with values where NaN, inf
    and signed zeros meet the comparison."""
    table = np.array(flat[: int(np.prod(shape))]).reshape(shape)
    for a in range(len(shape) - 1):
        if repeat[a]:
            table = np.broadcast_to(table.take([0], axis=a), table.shape)
    if not broadcast:
        table = table.copy()
    want = literal_cut_shape(table)
    kernel = MeasurementKernel(1, table)
    assert _compact(kernel.table).shape == want
    assert np.array_equal(kernel.table, table, equal_nan=True)


@pytest.mark.parametrize("table", [
    np.array([[0.5, 0.5], [0.25, 0.75]]),  # nothing cut: the kernel keeps this array
    np.array([[0.5, 0.5], [0.5, 0.5]]),  # omega cut: the kernel keeps a copy
    np.array([[0.5, 0.25], [0.5, 0.75]]).T,  # not C-contiguous
    np.array([[1, 0], [0, 1]]),  # integers, read as floats
])
def test_no_write_through_the_callers_array_changes_the_kernel(table):
    kernel = MeasurementKernel(1, table)
    before = kernel.table.copy()
    for cell in np.ndindex(table.shape):
        try:
            table[cell] = 9.0
        except ValueError:  # the caller's array was frozen in place
            pass
    assert np.array_equal(kernel.table, before)


@pytest.mark.parametrize("view", [
    lambda base: base[:],
    lambda base: base.reshape(base.shape),
    lambda base: base.reshape(-1).reshape(base.shape),
], ids=["slice", "reshape", "reshape-of-a-reshape"])
def test_no_write_through_the_base_of_a_view_changes_a_kernel_or_cost(view):
    base = np.array([[0.5, 0.5], [0.25, 0.75]])
    z = np.zeros((2, 2))
    kernel, cost = MeasurementKernel(1, view(base)), CostTable(view(z))
    other_base, other_z = base[:], z.reshape(-1)
    base[0, 0] = z[0, 0] = 9.0
    other_base[1, 1] = other_z[3] = 7.0
    assert kernel.table.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    assert cost.table.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_owned_c_ordered_float_tables_are_kept_without_a_copy():
    table, z = np.array([[0.5, 0.5], [0.25, 0.75]]), np.zeros((2, 2))
    kernel, cost = MeasurementKernel(1, table), CostTable(z)
    assert np.shares_memory(kernel.table, table) and np.shares_memory(cost.table, z)
    assert not table.flags.writeable and not z.flags.writeable


def test_team_problem_refuses_a_prior_on_another_space():
    team = random_team(2)
    other = FiniteSpace("v", ["a", "b", "c"])
    with pytest.raises(ValidationError) as err:
        TeamProblem(team.omega0, Pmf.uniform(other), team.y_spaces, team.u_spaces,
                    team.kernels, team.cost)
    assert type(err.value) is ValidationError
    assert str(err.value) == "prior is on 'v', not on 'w'"
    # a prior on an equal copy of the space is on the same space
    copy = FiniteSpace("w2", team.omega0.points)
    prob = TeamProblem(team.omega0, Pmf(copy, team.prior.mass), team.y_spaces,
                       team.u_spaces, team.kernels, team.cost)
    assert validate(prob) == []


def test_validate_flags_the_first_nonfinite_cost_over_a_negative_one():
    team = random_team(2)
    cost = team.cost.table.copy()
    cost[0, 0, 0] = -1.0
    cost[1, 1, 0] = np.inf
    cost[2, 0, 1] = np.nan
    prob = TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                       team.kernels, CostTable(cost))
    found = validate(prob)
    assert [(v.code, v.where, v.message) for v in found] == [
        ("cost-nonfinite", (1, 1, 0), "cost has a non-finite entry")
    ]
    assert all(type(x) is int for x in found[0].where)


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


def test_deterministic_profile_takes_integer_indices_and_refuses_others():
    """Integer maps of any integer dtype (and bools) keep their values; a
    float or a string index is refused, not truncated to an action."""
    for given in ([1, 0, 2], np.array([1, 0, 2], dtype=np.uint8), np.array([1, 0, 2], dtype=np.int32)):
        (arr,) = DeterministicProfile([given]).actions
        assert arr.dtype == np.intp and arr.tolist() == [1, 0, 2]
    assert DeterministicProfile([[True, False]]).actions[0].tolist() == [1, 0]
    for given in ([1.5], ["1"], [1.0], np.array([2.0, 0.0]), [b"1"], [None],
                  np.array([1.5], dtype=object), np.array(["1"], dtype=object)):
        with pytest.raises(ValidationError, match="must hold integer action indices"):
            DeterministicProfile([[0], given])


def test_deterministic_profile_copies_the_caller_maps():
    """A profile owns its maps: the caller's array stays writable, and
    writing to it, or to the array a given view was cut from, leaves the
    profile unchanged."""
    m = np.array([0, 1], dtype=np.intp)
    q = DeterministicProfile([m])
    assert m.flags.writeable
    m[0] = 1
    assert q.actions[0].tolist() == [0, 1]
    base = np.zeros(4, dtype=np.intp)
    q = DeterministicProfile([base[:2]])
    base[0] = 1
    assert q.actions[0].tolist() == [0, 0]
    assert not q.actions[0].flags.writeable and q.actions[0].base is None


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
