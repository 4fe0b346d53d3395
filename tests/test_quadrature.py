"""Quadrature tests: Gauss-Hermite exactness, closed-form affine values
against quadrature and grid scans, the two-point quantizer against Monte
Carlo, discretization structure, and the LQ team's moment identities."""

import numpy as np
import pytest

from teamdec.constants import TABLE_CAP
from teamdec.errors import CapExceeded, ValidationError
from teamdec.model import expected_cost, validate
from teamdec.quadrature import (
    CERTIFY_SPEC,
    QuadratureSpec,
    StaticLQTeam,
    TwoStageGaussianTeam,
    discretize,
    gauss_hermite,
    snap_profile,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_gauss_hermite_integrates_gaussian_moments_exactly():
    sigma = 1.7
    n = 8
    x, w = gauss_hermite(n, sigma)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    for p in range(0, 2 * n - 1):
        got = float(w @ x**p)
        want = 0.0 if p % 2 else sigma**p * double_factorial(p - 1)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))
    with pytest.raises(ValidationError):
        gauss_hermite(0)
    with pytest.raises(ValidationError):
        gauss_hermite(4, sigma=0.0)


def test_quadrature_cost_matches_closed_form_for_affine_policies():
    for kind in ("witsenhausen", "signaling"):
        team = TwoStageGaussianTeam.build(kind, 0.2, 5.0)
        for g in (-0.5, 0.0, 0.3, 0.9582575694955842, 2.0):
            d = team.affine_decoder_gain(g)
            got = team.expected_cost_policies(
                lambda y, g=g: g * y, lambda y, d=d: d * y
            )
            assert got == pytest.approx(team.affine_value(g), abs=1e-10)


def test_affine_decoder_gain_is_the_conditional_minimizer():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    for g in (0.4, 0.9582575694955842):
        d_star = team.affine_decoder_gain(g)
        base = team.expected_cost_policies(
            lambda y, g=g: g * y, lambda y, d=d_star: d * y
        )
        for d in (d_star - 0.05, d_star + 0.05):
            worse = team.expected_cost_policies(
                lambda y, g=g: g * y, lambda y, d=d: d * y
            )
            assert worse > base


def test_witsenhausen_affine_optimum_against_a_grid_scan():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    opt = team.affine_optimum()
    assert opt.gain == pytest.approx(0.9582575694955842, abs=1e-12)
    assert opt.offset == 0.0
    assert opt.value == pytest.approx(team.affine_value(opt.gain), abs=1e-15)
    assert opt.value == pytest.approx(0.96, abs=1e-12)
    # independent scan over the gain axis
    grid = np.linspace(-1.5, 1.5, 30001)
    vals = [team.affine_value(float(g)) for g in grid]
    g_scan = float(grid[int(np.argmin(vals))])
    assert abs(g_scan - opt.gain) < 1e-4
    assert opt.value <= min(vals) + 1e-9
    # every candidate reported is a genuine stationary-value pair
    for g, v in opt.candidates:
        assert v == pytest.approx(team.affine_value(g), abs=1e-12)


def test_signaling_affine_optimum_formula():
    team = TwoStageGaussianTeam.build("signaling", 0.2, 5.0)
    opt = team.affine_optimum()
    want_sq = (team.sigma / team.k - 1.0) / team.sigma**2
    assert opt.gain**2 == pytest.approx(want_sq, abs=1e-12)
    assert opt.value == pytest.approx(
        team.k**2 * opt.gain**2 * team.sigma**2
        + team.sigma**2 / (opt.gain**2 * team.sigma**2 + 1.0),
        abs=1e-12,
    )
    assert opt.value == pytest.approx(1.96, abs=1e-12)
    # zero-gain (silent) encoder costs the full prior variance
    assert team.affine_value(0.0) == pytest.approx(25.0, abs=1e-12)
    # when signaling is too expensive the optimum is silence
    costly = TwoStageGaussianTeam.build("signaling", 2.0, 1.0)
    assert costly.affine_optimum().gain == 0.0
    assert costly.affine_optimum().value == pytest.approx(1.0, abs=1e-12)


def test_zero_policies_cost_exactly_the_prior_variance_term():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    j0 = team.expected_cost_policies(lambda y: 0.0 * y, lambda y: 0.0 * y)
    assert j0 == pytest.approx(team.k**2 * team.sigma**2, abs=1e-12)


def test_quantizer_beats_affine_and_matches_monte_carlo():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    enc, dec, a = team.quantizer_policies()
    assert a == pytest.approx(5.0 * np.sqrt(2.0 / np.pi), abs=1e-15)
    jq = team.expected_cost_policies(enc, dec)
    assert jq == pytest.approx(0.35680824101829467, abs=1e-12)
    assert jq < team.affine_optimum().value
    # Monte Carlo cross-check; the quadrature value carries a small
    # kink error from the sign nonlinearity, so allow for both that and
    # the sampling band
    rng = np.random.default_rng(7)
    n = 400_000
    y1 = rng.normal(0.0, 5.0, size=n)
    u1 = enc(y1)
    y2 = u1 + rng.normal(0.0, 1.0, size=n)
    u2 = dec(y2)
    samples = team.stage_cost(y1, u1, u2)
    j_mc = float(samples.mean())
    sem = float(samples.std(ddof=1) / np.sqrt(n))
    assert abs(jq - j_mc) < 0.01 + 4 * sem


def test_midpoint_report_basic_identities():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    enc, dec, _ = team.quantizer_policies()
    same = team.midpoint_test((enc, dec), (enc, dec))
    assert same.violation == pytest.approx(0.0, abs=1e-12)
    assert same.value_mid == pytest.approx(same.value_a, abs=1e-12)
    neg = team.midpoint_test(
        (enc, dec), (lambda y: -np.asarray(enc(y)), dec), lam=0.25
    )
    assert neg.lam == 0.25
    assert neg.value_avg == pytest.approx(
        0.25 * neg.value_a + 0.75 * neg.value_b, abs=1e-12
    )


def test_discretize_structure_and_fidelity():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    problem, references = discretize(team, CERTIFY_SPEC)
    assert validate(problem) == []
    # DM 1 observes the exogenous node exactly
    assert np.array_equal(
        problem.kernels[0].table, np.eye(len(problem.omega0))
    )
    # DM 2's rows are normalized Gaussian densities centered at u1
    t2 = problem.kernels[1].table
    assert np.allclose(t2.sum(axis=-1), 1.0, atol=1e-12)
    u1_vals = problem.u_spaces[0].numeric_values()
    y2_vals = problem.y_spaces[1].numeric_values()
    row = np.exp(-0.5 * (y2_vals - u1_vals[3]) ** 2)
    row /= row.sum()
    assert np.allclose(t2[0, 3], row, atol=1e-12)
    assert np.allclose(t2[0], t2[-1], atol=0)  # no exogenous dependence
    # cost table equals the stage cost on the grids
    w_vals = problem.omega0.numeric_values()
    u2_vals = problem.u_spaces[1].numeric_values()
    want = team.stage_cost(
        w_vals[:, None, None], u1_vals[None, :, None], u2_vals[None, None, :]
    )
    assert np.allclose(problem.cost.table, want, atol=1e-12)
    # the second reference is the centered unit Gaussian on the y2 grid
    q2 = np.exp(-0.5 * y2_vals**2)
    assert np.allclose(references[1].mass, q2 / q2.sum(), atol=1e-12)
    # fidelity: snapped policies land near their continuous values
    enc, dec, _ = team.quantizer_policies()
    prof = snap_profile(problem, enc, dec)
    jd = expected_cost(problem, prof)
    assert abs(jd - team.expected_cost_policies(enc, dec)) < 0.05
    zero = snap_profile(problem, lambda y: 0.0 * y, lambda y: 0.0 * y)
    assert expected_cost(problem, zero) == pytest.approx(1.0, abs=1e-12)


def test_snap_profile_picks_nearest_grid_points():
    team = TwoStageGaussianTeam.build("witsenhausen", 0.2, 5.0)
    problem, _ = discretize(team, CERTIFY_SPEC)
    prof = snap_profile(problem, lambda y: y, lambda y: 0.4 * y)
    y1_vals = problem.y_spaces[0].numeric_values()
    u1_vals = problem.u_spaces[0].numeric_values()
    for j in (0, len(y1_vals) // 2, len(y1_vals) - 1):
        want = int(np.abs(y1_vals[j] - u1_vals).argmin())
        assert prof.actions[0][j] == want


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(y1_nodes=0)
    with pytest.raises(ValidationError):
        QuadratureSpec(u_range_sigmas=-1.0)
    with pytest.raises(ValidationError):
        TwoStageGaussianTeam.build("other", 0.2, 5.0)
    with pytest.raises(ValidationError):
        TwoStageGaussianTeam.build("witsenhausen", -0.2, 5.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_non_finite_or_out_of_range_parameters_are_refused_by_name(bad):
    cases = [
        ("k", lambda: TwoStageGaussianTeam.build("signaling", bad, 5.0)),
        ("sigma", lambda: TwoStageGaussianTeam.build("witsenhausen", 0.2, bad)),
        ("sigma", lambda: gauss_hermite(4, bad)),
        ("u_range_sigmas", lambda: QuadratureSpec(u_range_sigmas=bad)),
    ]
    if bad != 0.0:  # a zero pad is allowed
        cases.append(("y2_pad", lambda: QuadratureSpec(y2_pad=bad)))
    for name, build in cases:
        with pytest.raises(ValidationError, match=f"^(quadrature spec )?{name} must be"):
            build()
    assert QuadratureSpec(y2_pad=0.0).y2_pad == 0.0


def test_quadrature_sizes_are_capped_before_any_node_is_computed():
    # the cost table and DM 2's kernel hold y1_nodes * 129 * 129 cells each
    assert QuadratureSpec(y1_nodes=1201, w_nodes=1201).y1_nodes == 1201
    with pytest.raises(CapExceeded) as err:
        QuadratureSpec(y1_nodes=1202)
    assert (err.value.count, err.value.cap) == (20002482, TABLE_CAP)
    with pytest.raises(CapExceeded) as err:
        QuadratureSpec(y1_nodes=2, u1_points=10**4, y2_points=10**4)
    assert (err.value.count, err.value.cap) == (2 * 10**8, TABLE_CAP)
    # hermgauss builds an n x n companion matrix
    with pytest.raises(CapExceeded) as err:
        gauss_hermite(4473)
    assert (err.value.count, err.value.cap) == (20007729, TABLE_CAP)


def test_gauss_hermite_refuses_node_counts_whose_weights_underflow():
    x, w = gauss_hermite(370)
    assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0)
    # numpy 2.4: the weights sum to 0 at 371 nodes and hold NaN from 372
    for n in (371, 1201):
        with pytest.raises(ValidationError, match=f"weights for {n} nodes underflow"):
            gauss_hermite(n)


def lq_closed_form_cost(team, theta):
    """E[(u1+u2-s)^2 + rho1 u1^2 + rho2 u2^2] for affine policies from
    the Gaussian moment structure: y_i = s + n_i with independent parts."""
    a1, b1, a2, b2 = theta
    ss, s1, s2 = team.sigma_s**2, team.sigma1**2, team.sigma2**2
    e_u1 = b1
    e_u2 = b2
    var_u1 = a1**2 * (ss + s1)
    var_u2 = a2**2 * (ss + s2)
    cov_u1u2 = a1 * a2 * ss
    cov_u1s = a1 * ss
    cov_u2s = a2 * ss
    mean_t = e_u1 + e_u2  # E[u1+u2-s], state is centered
    var_t = var_u1 + var_u2 + ss + 2 * cov_u1u2 - 2 * cov_u1s - 2 * cov_u2s
    return (
        var_t
        + mean_t**2
        + team.rho1 * (var_u1 + e_u1**2)
        + team.rho2 * (var_u2 + e_u2**2)
    )


def test_lq_quadrature_cost_matches_moment_arithmetic():
    team = StaticLQTeam(sigma_s=2.0, sigma1=1.0, sigma2=1.5)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.normal(0.0, 1.0, size=4)
        assert team.expected_cost_params(theta) == pytest.approx(
            lq_closed_form_cost(team, theta), abs=1e-10
        )
    # the solved optimum beats random parameters
    j_opt = team.expected_cost_params(team.solve_affine_optimum())
    for _ in range(10):
        theta = rng.normal(0.0, 1.0, size=4)
        assert j_opt <= team.expected_cost_params(theta) + 1e-12
