"""Gallery bundles: frozen reference values and structural checks.

Closed-form anchors (affine optimum, quantizer level, zero-policy
values, limit-coupling conditionals) are recomputed inside the tests
from first principles; quadrature-dependent values are frozen at the
default 64-node spec.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from teamdec.constants import TABLE_CAP
from teamdec.convexity import VerdictKind, policy_midpoint_test
from teamdec.errors import CapExceeded, ValidationError
from teamdec.gallery import (
    decoupled_example,
    example1,
    signaling,
    square_wave,
    witsenhausen,
)
from teamdec.model import DeterministicProfile, RandomizedProfile, expected_cost
from teamdec.solvers import brute_force
from teamdec.strategic import check_membership_LA, check_membership_LR

from conftest import naive_expected_cost


# --------------------------------------------------------------------------
# two-stage Gaussian: estimation cost (k=0.2, sigma=5)
# --------------------------------------------------------------------------


def test_witsenhausen_affine_and_quantizer_anchors():
    wb = witsenhausen()
    assert wb.team.k == 0.2 and wb.team.sigma == 5.0

    aff = wb.affine_optimum()
    assert aff.gain == pytest.approx(0.9582575694955842, abs=1e-12)
    assert aff.offset == 0.0
    assert aff.value == pytest.approx(0.96, abs=1e-12)

    enc, dec, level, value_q = wb.quantizer()
    assert level == pytest.approx(5.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
    assert value_q == pytest.approx(0.35680824101829467, abs=1e-12)
    # the encoder really is the two-point policy at +-level
    y = wb.team.y_nodes
    assert np.array_equal(np.unique(enc(y)), np.array([-level, level]))

    report = wb.affine_vs_quantizer()
    assert report.value_affine == pytest.approx(aff.value, abs=1e-15)
    assert report.value_quantizer == pytest.approx(value_q, abs=1e-15)
    assert report.quantizer_beats_affine
    assert report.margin == pytest.approx(
        report.value_affine - report.value_quantizer, abs=1e-15
    )
    assert report.margin == pytest.approx(0.6031917589817054, abs=1e-11)
    assert report.quantizer_level == level
    assert report.affine_gain == aff.gain


def test_witsenhausen_reduction_matches_direct_evaluation():
    wb = witsenhausen()
    problem, reduction = wb.problem, wb.reduction
    rng = np.random.default_rng(0)
    for _ in range(3):
        prof = DeterministicProfile(
            [
                rng.integers(0, len(u), size=len(y))
                for y, u in zip(problem.y_spaces, problem.u_spaces)
            ]
        )
        assert reduction.reduced_expected_cost(prof) == pytest.approx(
            expected_cost(problem, prof), abs=1e-10
        )
    kernels = [
        np.random.default_rng(7 + d).dirichlet(np.ones(len(u)), size=len(y))
        for d, (y, u) in enumerate(zip(problem.y_spaces, problem.u_spaces))
    ]
    randomized = RandomizedProfile(kernels)
    assert reduction.reduced_expected_cost(randomized) == pytest.approx(
        expected_cost(problem, randomized), abs=1e-10
    )


def test_witsenhausen_certify_not_convex_with_replayable_witness():
    wb = witsenhausen()
    verdict = wb.certify()
    assert verdict.kind == VerdictKind.NOT_CONVEX
    witness = verdict.policy_witness
    assert witness is not None
    assert witness.violation > 1e-6
    # the witness must replay exactly on the problem it certifies:
    # the materialized static reduction at the certification spec
    _, _, reduced = wb.materialized_reduction()
    replay = policy_midpoint_test(
        reduced, witness.profile_a, witness.profile_b, witness.lam
    )
    assert replay.violation == pytest.approx(witness.violation, abs=1e-12)
    assert replay.value_mid == pytest.approx(witness.value_mid, abs=1e-12)


def test_encoder_flip_report_quantifies_nonconvexity():
    wb = witsenhausen()
    (enc_a, dec_a), (enc_b, dec_b) = wb.encoder_flip_pair()
    y = wb.team.y_nodes
    # the pair shares one decoder and the encoders are exact negations,
    # so the pointwise-average encoder vanishes everywhere
    assert dec_a is dec_b
    assert np.all(0.5 * enc_a(y) + 0.5 * enc_b(y) == 0.0)

    report = wb.encoder_flip_report()
    assert report.lam == 0.5
    assert report.value_a == pytest.approx(0.35680824101829467, abs=1e-12)
    assert report.value_b == pytest.approx(2.9197431430139806, abs=1e-9)
    assert report.value_mid == pytest.approx(13.962009217705258, abs=1e-9)
    assert report.value_avg == pytest.approx(
        0.5 * (report.value_a + report.value_b), abs=1e-15
    )
    assert report.violation == pytest.approx(
        report.value_mid - report.value_avg, abs=1e-15
    )
    assert report.violation == pytest.approx(12.323733525689121, abs=1e-9)
    # a vanished first stage pins its cost at k^2 sigma^2 exactly, and
    # the total midpoint cost can only add to that
    assert report.first_stage_mid == pytest.approx(1.0, abs=1e-12)
    assert report.value_mid >= report.first_stage_mid


def test_negation_bound_report():
    wb = witsenhausen()
    report = wb.negation_bound()
    assert report.value_a == pytest.approx(0.35680824101829467, abs=1e-12)
    assert report.value_b == pytest.approx(66.57523684468569, abs=1e-8)
    assert report.value_avg == pytest.approx(
        0.5 * (report.value_a + report.value_b), abs=1e-15
    )
    assert report.zero_policy_value == pytest.approx(1.0, abs=1e-12)
    assert report.slack == pytest.approx(
        report.value_avg - report.zero_policy_value, abs=1e-15
    )
    assert report.slack == pytest.approx(32.466022542851995, abs=1e-8)
    assert report.slack >= 0.0
    # averaging a policy with its negation cannot beat playing zero:
    # the first stage alone already averages to k^2 (sigma^2 + E enc^2)
    _, _, level, _ = wb.quantizer()
    first_stage_floor = wb.team.k**2 * (wb.team.sigma**2 + level**2)
    assert report.value_avg >= first_stage_floor - 1e-9


# --------------------------------------------------------------------------
# two-stage Gaussian: signaling cost (affine pair optimal)
# --------------------------------------------------------------------------


def test_signaling_closed_form_and_zero_encoder():
    sb = signaling()
    aff = sb.affine_optimum()
    # closed form: squared gain (sigma/k - 1)/sigma^2, value sigma/k * k^2 ...
    k, sigma = sb.team.k, sb.team.sigma
    gain_sq = (sigma / k - 1.0) / sigma**2
    assert aff.gain == pytest.approx(math.sqrt(gain_sq), abs=1e-12)
    assert aff.value == pytest.approx(1.96, abs=1e-12)
    assert sb.zero_encoder_value() == pytest.approx(sigma**2, abs=1e-10)

    tol = sb.grid_tolerance()
    r = sb.spec.u_range_sigmas * sigma
    h1 = 2 * r / (sb.spec.u1_points - 1)
    h2 = 2 * r / (sb.spec.u2_points - 1)
    h_y2 = 2 * (r + sb.spec.y2_pad) / (sb.spec.y2_points - 1)
    assert tol == pytest.approx((1 + k**2) * (h1**2 + h2**2 + h_y2**2) / 2, abs=1e-15)
    assert tol == pytest.approx(0.1746875, abs=1e-12)


def test_signaling_costly_regime_silences_the_encoder():
    sb = signaling(k=2.0, sigma=1.0)
    aff = sb.affine_optimum()
    assert aff.gain == 0.0
    assert aff.value == pytest.approx(1.0, abs=1e-12)
    assert aff.value == pytest.approx(sb.zero_encoder_value(), abs=1e-10)


# --------------------------------------------------------------------------
# square-wave family
# --------------------------------------------------------------------------


def exact_wave_mass(n: int, lo: Fraction, hi: Fraction) -> Fraction:
    """Independent closed form for the mass of [lo, hi) under the
    1-region (union of even cells of width 1/2n): count whole periods
    from each endpoint down to 0 and add the partial cell."""

    def mass_from_zero(x: Fraction) -> Fraction:
        period = Fraction(1, n)
        whole = x // period
        rem = x - whole * period
        return whole * Fraction(1, 2 * n) + min(rem, Fraction(1, 2 * n))

    return mass_from_zero(hi) - mass_from_zero(lo)


def test_square_wave_interval_arithmetic_is_exact():
    for n in (1, 2, 10, 100, 256):
        fam = square_wave(n)
        assert len(fam.cells) == 2 * n
        assert fam.cells[0] == (Fraction(0), Fraction(1, 2 * n))
        records = fam.diagnostics()
        assert len(records) == 20
        for rec in records:
            assert isinstance(rec.integral, Fraction)
            assert rec.integral == exact_wave_mass(n, rec.lo, rec.hi)
            assert rec.target == Fraction(rec.hi - rec.lo, 2)
            assert rec.gap == abs(rec.integral - rec.target)
            assert rec.bound == Fraction(1, 2 * n)
            assert rec.gap <= rec.bound
            assert rec.within_bound


def test_square_wave_ci_verdicts_and_limit_coupling():
    for n in (1, 2, 10, 100, 256):
        fam = square_wave(n)
        assert fam.member_ci()
        assert not fam.limit_ci()

        m = 2 * n
        # member: each cell carries a point mass at (gamma(w), gamma(w))
        gamma = np.asarray(fam.profile.actions[0])
        assert np.array_equal(np.flatnonzero(gamma), np.asarray(fam.high_cells))
        expected = np.zeros((2, m, 2))
        expected[gamma, np.arange(m), gamma] = 1.0 / m
        assert np.array_equal(fam.table, expected)
        # both action marginals split mass evenly
        assert fam.table.sum(axis=(1, 2)) == pytest.approx([0.5, 0.5])
        assert fam.table.sum(axis=(0, 1)) == pytest.approx([0.5, 0.5])

        # limit: conditioning on the other action turns the 1/2 marginal
        # into the indicator 1{a=b}, uniformly over cells
        joint_actions = fam.limit_table.sum(axis=1)
        assert joint_actions == pytest.approx(np.eye(2) / 2)
        conditional = fam.limit_table / fam.limit_table.sum(axis=0, keepdims=True)
        for b in (0, 1):
            assert conditional[:, :, b] == pytest.approx(
                np.eye(2)[:, [b]].repeat(m, axis=1)
            )


def test_square_wave_dense_measures_small_n():
    fam = square_wave(3)
    member = fam.member_measure()
    assert check_membership_LA(member).member
    assert np.allclose(
        np.einsum(member.joint, [0, 1, 2, 3, 4], [2, 0, 4]), fam.table
    )
    limit = fam.limit_measure()
    assert not check_membership_LR(limit).member
    assert np.allclose(
        np.einsum(limit.joint, [0, 1, 2, 3, 4], [2, 0, 4]), fam.limit_table
    )


def test_square_wave_large_n_caps_dense_paths_only():
    fam = square_wave(256)
    with pytest.raises(CapExceeded):
        fam.member_measure()
    with pytest.raises(CapExceeded):
        fam.limit_measure()
    # the O(n) surface stays available
    assert fam.interval_record(Fraction(0), Fraction(1, 3)).within_bound
    # DM 2's (2n, 2, 2n) kernel is refused before anything is built
    with pytest.raises(CapExceeded) as exc:
        square_wave(1582)
    assert (exc.value.count, exc.value.cap) == (2 * 3164**2, TABLE_CAP)


def test_square_wave_rejects_nonpositive_n():
    with pytest.raises(ValidationError):
        square_wave(0)
    with pytest.raises(ValidationError):
        square_wave(-2)


# --------------------------------------------------------------------------
# three-cell convex team
# --------------------------------------------------------------------------


def test_example1_certifies_convex_despite_concave_cell():
    bundle = example1()
    verdict = bundle.certify()
    assert verdict.kind == VerdictKind.CONVEX
    assert verdict.cell_witness is None and verdict.policy_witness is None
    # both DMs see only the binary flag, so the common-information join
    # has exactly two blocks, each passing the midpoint test
    assert len(verdict.certificate) == 2
    assert all(rec.min_margin >= -1e-9 for rec in verdict.certificate)

    raw = bundle.raw_third_cell_convexity()
    assert not raw.passed


def test_example1_scan_matches_brute_force_on_coarse_grid():
    bundle = example1(step=0.5)
    grid = np.asarray(bundle.problem.u_spaces[0].points)
    assert grid == pytest.approx([1.0, 1.5, 2.0])

    u_first, u_rest, value = bundle.scan_optimum()
    result = brute_force(bundle.problem)
    assert value == pytest.approx(result.value, abs=1e-12)

    profile = bundle.scan_profile()
    assert expected_cost(bundle.problem, profile) == pytest.approx(value, abs=1e-12)
    assert naive_expected_cost(bundle.problem, profile) == pytest.approx(
        value, abs=1e-12
    )
    for mine, best in zip(profile.actions, result.profile.actions):
        assert np.array_equal(mine, best)


def test_example1_fine_scan_structure():
    bundle = example1()
    u_first, u_rest, value = bundle.scan_optimum()
    # quadratic pull toward 2 on the observed first cell
    assert u_first == pytest.approx(2.0, abs=1e-12)
    # elsewhere the concave root term drags the optimum just below 2
    assert 1.9 < u_rest < 2.0
    first = 0.1 * (u_first - 2.0) ** 2
    rest = 0.8 * (u_rest - 2.0) ** 2 + 0.1 * math.sqrt(1.0 + u_rest)
    assert value == pytest.approx(2.0 * (first + rest), abs=1e-12)


def test_example1_rejects_bad_step():
    with pytest.raises(ValidationError):
        example1(step=0.0)
    with pytest.raises(ValidationError):
        example1(step=1.5)
    # 2582 points per axis: the (3, n, n) cost is refused before it is built
    with pytest.raises(CapExceeded) as exc:
        example1(1 / 2581)
    assert (exc.value.count, exc.value.cap) == (3 * 2582**2, TABLE_CAP)


# --------------------------------------------------------------------------
# decoupled subsystems
# --------------------------------------------------------------------------


def test_decoupled_example_splits_exactly():
    bundle = decoupled_example()
    assert bundle.verdict() is True
    subs = bundle.subsystem_values()
    assert subs == pytest.approx([0.2, 0.2], abs=1e-12)
    assert bundle.joint_solve().value == pytest.approx(0.4, abs=1e-12)
    assert bundle.split_gap() == pytest.approx(0.0, abs=1e-12)


def test_coupled_variant_breaks_the_split():
    bundle = decoupled_example(coupled=True)
    assert bundle.verdict() is False
    assert bundle.split_gap() == pytest.approx(0.62, abs=1e-12)
    # coupling can only make the joint problem harder than the split
    assert bundle.split_gap() > 0.0
