"""Acceptance gate: ten end-to-end criteria, one visible verdict line each.

Every test drives the public API the way a user would and prints
"<id>: PASS — <summary>" through disabled capture once its assertions
hold (or "<id>: FAIL" before re-raising), so a plain pytest run shows
the gate's status line by line.
"""

import time

import numpy as np
import pytest

from teamdec.constants import LP_TOL
from teamdec.convexity import VerdictKind, policy_midpoint_test
from teamdec.gallery import (
    decoupled_example,
    example1,
    signaling,
    square_wave,
    witsenhausen,
)
from teamdec.model import DeterministicProfile, expected_cost
from teamdec.quadrature import StaticLQTeam, snap_profile
from teamdec.reduction import static_reduce, verify_equivalence
from teamdec.solvers import (
    brute_force,
    check_krainak_inequality,
    check_stationarity,
)
from teamdec.strategic import (
    StrategicMeasure,
    check_membership_LA,
    check_membership_LR,
    find_nonconvexity_witness,
    induce_LA,
    induce_LR,
    induce_history_profile,
    mix,
    realize_midpoint_classical,
)

from conftest import (
    classical_team,
    enumerate_profiles_literal,
    naive_expected_cost,
    random_profile,
    random_randomized_profile,
    random_team,
)
from test_strategic import binary_signaling_team, trivial_measurement_team


def _verdict(capsys, label, fn):
    start = time.time()
    try:
        summary = fn()
    except BaseException:
        with capsys.disabled():
            print(f"\n{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS — {summary} ({time.time() - start:.1f}s)")


def test_a1_deterministic_policies_attain_the_optimum(capsys):
    def run():
        rng = np.random.default_rng(11)
        checked = 0
        for seed in range(100):
            sizes = rng.integers(2, 4, size=4)  # y and u sizes in {2, 3}
            problem = random_team(
                seed,
                n_omega=int(rng.integers(2, 5)),
                y_sizes=(int(sizes[0]), int(sizes[1])),
                u_sizes=(int(sizes[2]), int(sizes[3])),
                dynamic=bool(seed % 2),
            )
            best = brute_force(problem)
            for rep in range(100):
                randomized = random_randomized_profile(problem, 1000 * seed + rep)
                assert best.value <= expected_cost(problem, randomized) + 1e-12
                checked += 1
            # the optimal vertex against a literal scan that shares no
            # code with the prefix scan
            literal = [
                naive_expected_cost(problem, p)
                for p in enumerate_profiles_literal(problem)
            ]
            assert best.value == pytest.approx(min(literal), abs=LP_TOL)
            assert best.index == int(np.argmin(literal))
        assert checked == 10_000
        return "brute force below 10^4 randomized profiles on 100 teams; literal scan ties"

    _verdict(capsys, "A1", run)


def test_a2_policy_mixtures_escape_independent_randomization(capsys):
    def run():
        for team in (trivial_measurement_team(0), binary_signaling_team()):
            witness = find_nonconvexity_witness(team)
            assert witness is not None
            assert not witness.verdict.member
            # the broken requirement is the per-DM policy factorization
            assert any(f.condition == "policy" for f in witness.verdict.failures)
            replay = check_membership_LR(witness.midpoint)
            assert not replay.member
        return "midpoint measures fail the policy-factorization condition"

    _verdict(capsys, "A2", run)


def test_a3_nested_deterministic_information_realizes_midpoints(capsys):
    def run():
        worst = 0.0
        for seed in range(50):
            team = classical_team(seed)
            rng = np.random.default_rng(700 + seed)
            lam = float(rng.uniform(0.1, 0.9))
            m_a = induce_LA(team, random_profile(team, seed + 1))
            m_b = induce_LR(team, random_randomized_profile(team, seed + 2))
            target = mix([m_a, m_b], [lam, 1.0 - lam])
            realized = induce_history_profile(
                team, realize_midpoint_classical(team, m_a, m_b, lam=lam)
            )
            gap = float(np.max(np.abs(realized.joint - target.joint)))
            worst = max(worst, gap)
            assert gap < 1e-12
        return f"50 round-trips re-induce the mixture (worst gap {worst:.1e})"

    _verdict(capsys, "A3", run)


def test_a4_membership_checks_characterize_induced_measures(capsys):
    def run():
        for trial in range(100):
            problem = random_team(trial, dynamic=bool(trial % 2))
            if trial % 2 == 0:
                measure = induce_LA(problem, random_profile(problem, trial))
                checker = check_membership_LA
            else:
                measure = induce_LR(
                    problem, random_randomized_profile(problem, trial)
                )
                checker = check_membership_LR
            assert checker(measure).member

            rng = np.random.default_rng(5000 + trial)
            joint = measure.joint.copy()
            cell = tuple(rng.integers(0, s) for s in joint.shape)
            joint[cell] += 0.01
            perturbed = StrategicMeasure(problem, joint / joint.sum())
            assert not checker(perturbed).member
        return "100 induced measures pass; all 0.01-perturbations fail"

    _verdict(capsys, "A4", run)


def test_a5_square_wave_integrals_converge_but_the_limit_decouples(capsys):
    def run():
        for n in (1, 2, 10, 100, 256):
            fam = square_wave(n)
            records = fam.diagnostics()
            assert len(records) == 20
            for rec in records:
                assert rec.gap == abs(rec.integral - rec.target)
                assert rec.gap <= rec.bound
                assert rec.within_bound
            assert fam.member_ci()
            assert not fam.limit_ci()
            # conditioning the limit on the other action yields the
            # indicator in place of the member's 1/2 marginal
            m = 2 * n
            conditional = fam.limit_table / fam.limit_table.sum(
                axis=0, keepdims=True
            )
            for b in (0, 1):
                assert conditional[:, :, b] == pytest.approx(
                    np.eye(2)[:, [b]].repeat(m, axis=1)
                )
            assert fam.table.sum(axis=(1, 2)) == pytest.approx([0.5, 0.5])
        return "interval gaps within 1/(2n) for n up to 256; limit couples actions"

    _verdict(capsys, "A5", run)


def test_a6_static_reduction_preserves_costs(capsys):
    def run():
        worst = 0.0
        for seed in range(20):
            problem = random_team(seed, dynamic=True)
            reduction = static_reduce(problem)
            profiles = [random_profile(problem, 10 * seed + j) for j in range(5)]
            eq = verify_equivalence(reduction, profiles)
            worst = max(worst, eq.max_gap)
            assert eq.equivalent and eq.max_gap <= 1e-10

        wb = witsenhausen()
        aff = wb.affine_optimum()
        dec_gain = wb.team.affine_decoder_gain(aff.gain)
        q_enc, q_dec, _ = wb.team.quantizer_policies()
        zero = lambda y: np.zeros_like(y)
        profiles = [
            snap_profile(wb.problem, lambda y: aff.gain * y, lambda y: dec_gain * y),
            snap_profile(wb.problem, q_enc, q_dec),
            snap_profile(wb.problem, zero, zero),
        ] + [random_profile(wb.problem, j) for j in (1, 2)]
        eq = verify_equivalence(wb.reduction, profiles)
        assert eq.equivalent and eq.max_gap <= 1e-10
        worst = max(worst, eq.max_gap)
        return f"20 finite teams and the Gaussian team agree (worst {worst:.1e})"

    _verdict(capsys, "A6", run)


def test_a7_convexity_certificates_and_witnesses(capsys):
    def run():
        assert example1().certify().kind == VerdictKind.CONVEX

        wb = witsenhausen()
        verdict = wb.certify()
        assert verdict.kind == VerdictKind.NOT_CONVEX
        witness = verdict.policy_witness
        assert witness is not None and witness.violation > 1e-6
        _, _, reduced = wb.materialized_reduction()
        replay = policy_midpoint_test(
            reduced, witness.profile_a, witness.profile_b, witness.lam
        )
        assert replay.violation == pytest.approx(witness.violation, abs=1e-12)

        # analytic pair: the two-point policy and its encoder negation
        # share a decoder, so their midpoint encoder vanishes everywhere
        # and the midpoint's first-stage cost is exactly k^2 sigma^2
        (enc_a, dec_a), (enc_b, dec_b) = wb.encoder_flip_pair()
        y = wb.team.y_nodes
        assert np.all(0.5 * enc_a(y) + 0.5 * enc_b(y) == 0.0)
        flip = wb.encoder_flip_report()
        assert flip.first_stage_mid == pytest.approx(1.0, abs=1e-12)
        assert flip.value_mid >= flip.first_stage_mid
        assert flip.violation > 0  # midpoint exceeds the averaged costs

        # negating both stages bounds the average below by the zero
        # policy's cost k^2 sigma^2: the slack must be nonnegative
        neg = wb.negation_bound()
        assert neg.zero_policy_value == pytest.approx(1.0, abs=1e-12)
        assert neg.slack >= 0.0
        return (
            f"three-cell team convex; Gaussian team refuted "
            f"(replayed violation {witness.violation:.3f}, "
            f"flip violation {flip.violation:.3f})"
        )

    _verdict(capsys, "A7", run)


def test_a8_affine_pairs_lose_and_win_where_they_should(capsys):
    def run():
        wb = witsenhausen()
        report = wb.affine_vs_quantizer()
        assert report.quantizer_beats_affine
        assert report.value_affine == pytest.approx(0.96, abs=1e-12)
        assert report.value_quantizer == pytest.approx(
            0.35680824101829467, abs=1e-12
        )
        assert report.margin > 0.6

        sb = signaling()
        search = sb.discretized_search()
        assert search.tolerance == pytest.approx(sb.grid_tolerance(), abs=1e-15)
        assert search.gap <= search.tolerance
        assert search.matches
        return (
            f"quantizer beats affine by {report.margin:.3f}; "
            f"grid search within declared tolerance "
            f"(gap {search.gap:.4f} <= {search.tolerance:.4f})"
        )

    _verdict(capsys, "A8", run)


def test_a9_quadratic_team_optimum_is_stationary_and_unrefuted(capsys):
    def run():
        team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
        theta = team.solve_affine_optimum()

        report = check_stationarity(team, theta)
        assert report.stationary
        assert report.gradient_inf <= 1e-6

        krainak = check_krainak_inequality(team, theta, n_samples=1000)
        assert krainak.not_refuted
        assert krainak.n_samples == 1000

        perturbed = theta + np.array([0.1, 0.0, 0.0, 0.0])
        assert not check_stationarity(team, perturbed).stationary
        refuted = check_krainak_inequality(team, perturbed, n_samples=1000)
        assert not refuted.not_refuted
        assert refuted.violator is not None
        return (
            f"gradient {report.gradient_inf:.1e}, sampled inner products "
            f">= {krainak.min_inner:.1e}; perturbation refuted"
        )

    _verdict(capsys, "A9", run)


def test_a10_independent_subsystems_split_the_optimum(capsys):
    def run():
        bundle = decoupled_example()
        assert bundle.verdict() is True
        joint = bundle.joint_solve().value
        subs = bundle.subsystem_values()
        assert joint == pytest.approx(sum(subs), abs=1e-12)
        assert bundle.split_gap() == pytest.approx(0.0, abs=1e-12)

        coupled = decoupled_example(coupled=True)
        assert coupled.verdict() is False
        return (
            f"joint optimum {joint:.3f} equals subsystem sum; "
            f"coupled variant fails the independence check"
        )

    _verdict(capsys, "A10", run)
