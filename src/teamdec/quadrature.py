"""Gaussian-quadrature teams and their finite discretizations.

Two continuous two-DM families are supported, sharing the same
information flow — DM 1 observes a centered Gaussian with standard
deviation sigma, DM 2 observes DM 1's action through additive
unit-variance Gaussian noise — and differing in cost:

* "witsenhausen": k^2 (y1 - u1)^2 + (u1 - u2)^2  (estimate-and-agree);
* "signaling":    k^2 u1^2 + (y1 - u2)^2          (communicate cheaply).

Expectations are evaluated by Gauss-Hermite quadrature, exact for
polynomial integrands up to degree 2n-1 per Gaussian variable.  A
discretization routine folds the same structure onto finite grids,
producing a TeamProblem plus reference measures whose likelihood
weights have the closed density-ratio form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .constants import TABLE_CAP
from .errors import CapExceeded, ValidationError
from .model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
)

KINDS = ("witsenhausen", "signaling")


def gauss_hermite(n: int, sigma: float = 1.0) -> tuple:
    """Nodes and weights integrating f against the N(0, sigma^2) law."""
    if n < 1:
        raise ValidationError(f"quadrature needs at least one node, got {n}")
    if not 0 < sigma < np.inf:
        raise ValidationError(f"sigma must be positive and finite, got {sigma}")
    CapExceeded.check(n * n, TABLE_CAP)  # hermgauss builds an n x n companion matrix
    with np.errstate(all="ignore"):  # numpy 2.4: the weights underflow from 371 nodes on
        x, w = hermgauss(n)
    if not (np.isfinite(w).all() and w.sum() > 0):
        raise ValidationError(f"Gauss-Hermite weights for {n} nodes underflow; use fewer nodes")
    return x * np.sqrt(2.0) * sigma, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes for the two-stage Gaussian teams.

    Quadrature takes y1_nodes Gauss-Hermite nodes for the state and as
    many for the noise.
    Action grids are uniform over +-(u_range_sigmas * sigma); the second
    measurement grid extends the action range by y2_pad noise standard
    deviations on each side.
    """

    y1_nodes: int = 64
    u1_points: int = 129
    u2_points: int = 129
    y2_points: int = 129
    u_range_sigmas: float = 4.0
    y2_pad: float = 4.0

    def __post_init__(self):
        for name in ("y1_nodes", "u1_points", "u2_points", "y2_points"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"quadrature spec {name} must be a positive int")
        r, pad = self.u_range_sigmas, self.y2_pad
        if not 0 < r < np.inf:
            raise ValidationError(f"quadrature spec u_range_sigmas must be finite and > 0, got {r}")
        if not 0 <= pad < np.inf:
            raise ValidationError(f"quadrature spec y2_pad must be finite and >= 0, got {pad}")
        # the cost table and DM 2's kernel of the discretization
        cells = self.y1_nodes * self.u1_points * max(self.u2_points, self.y2_points)
        CapExceeded.check(cells, TABLE_CAP)


# A small instance whose materialized static reduction stays within the
# table cap, for certification runs.
CERTIFY_SPEC = QuadratureSpec(
    y1_nodes=16,
    u1_points=17,
    u2_points=17,
    y2_points=33,
    u_range_sigmas=1.6,
    y2_pad=4.0,
)


@dataclass(frozen=True)
class AffineOptimum:
    gain: float
    offset: float
    decoder_gain: float
    value: float
    candidates: tuple  # (gain, value) pairs examined


@dataclass(frozen=True)
class QuadMidpointReport:
    value_a: float
    value_b: float
    value_mid: float
    value_avg: float
    violation: float
    lam: float


@dataclass(frozen=True)
class TwoStageGaussianTeam:
    """Continuous two-DM Gaussian team evaluated by quadrature.

    Policies are callables: the encoder maps y1 values to u1 values, the
    decoder maps y2 = u1 + w values to u2 values; both must accept
    ndarrays.
    """

    kind: str
    k: float
    sigma: float
    y_nodes: np.ndarray = field(repr=False)
    y_weights: np.ndarray = field(repr=False)
    w_nodes: np.ndarray = field(repr=False)
    w_weights: np.ndarray = field(repr=False)

    @staticmethod
    def build(
        kind: str, k: float, sigma: float, nodes: int = 64
    ) -> "TwoStageGaussianTeam":
        if kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
        for name, v in (("k", k), ("sigma", sigma)):
            if not 0 < v < np.inf:
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        yn, yw = gauss_hermite(nodes, sigma)
        wn, ww = gauss_hermite(nodes, 1.0)
        return TwoStageGaussianTeam(kind, k, sigma, yn, yw, wn, ww)

    def stage_cost(self, y1, u1, u2):
        if self.kind == "witsenhausen":
            return self.k**2 * (y1 - u1) ** 2 + (u1 - u2) ** 2
        return self.k**2 * u1**2 + (y1 - u2) ** 2

    def expected_cost_policies(
        self, encoder: Callable, decoder: Callable
    ) -> float:
        y1 = self.y_nodes[:, None]
        u1 = np.asarray(encoder(self.y_nodes), dtype=float)[:, None]
        y2 = u1 + self.w_nodes[None, :]
        u2 = np.asarray(decoder(y2), dtype=float)
        c = self.stage_cost(y1, u1, u2)
        return float(self.y_weights @ c @ self.w_weights)

    # -- closed-form affine analysis ------------------------------------

    def affine_value(self, gain: float) -> float:
        """Exact cost of the affine encoder u1 = gain * y1 with its MMSE
        affine decoder (no quadrature)."""
        s2 = self.sigma**2
        v = gain**2 * s2
        if self.kind == "witsenhausen":
            return self.k**2 * s2 * (1.0 - gain) ** 2 + v / (v + 1.0)
        return self.k**2 * v + s2 / (v + 1.0)

    def affine_decoder_gain(self, gain: float) -> float:
        s2 = self.sigma**2
        v = gain**2 * s2
        if self.kind == "witsenhausen":
            return v / (v + 1.0)
        return gain * s2 / (v + 1.0)

    def affine_optimum(self) -> AffineOptimum:
        """Globally optimal affine encoder/decoder pair, in closed form.

        The stationarity condition in the encoder gain is polynomial;
        all real critical points are examined (the cost grows without
        bound in the gain, so the global affine optimum is among them).
        """
        s2 = self.sigma**2
        k2 = self.k**2
        if self.kind == "witsenhausen":
            coeffs = [
                k2 * s2 * s2,
                -k2 * s2 * s2,
                2 * k2 * s2,
                -2 * k2 * s2,
                k2 + 1.0,
                -k2,
            ]
            roots = np.roots(coeffs)
            gains = [float(r.real) for r in roots if abs(r.imag) < 1e-9]
        else:
            # d/dg [k^2 g^2 s2 + s2/(g^2 s2 + 1)] = 0 at g=0 or
            # (g^2 s2 + 1)^2 = s2 / k^2.
            gains = [0.0]
            rad = (self.sigma / self.k - 1.0) / s2
            if rad > 0:
                gains += [float(np.sqrt(rad)), -float(np.sqrt(rad))]
        cands = tuple((g, self.affine_value(g)) for g in gains)
        g_best, v_best = min(cands, key=lambda t: t[1])
        return AffineOptimum(
            g_best, 0.0, self.affine_decoder_gain(g_best), v_best, cands
        )

    # -- reference nonlinear policies ------------------------------------

    def quantizer_policies(self) -> tuple:
        """Symmetric two-point encoder at the mean absolute state value,
        with its exact posterior-mean decoder.

        The encoder sends a*sign(y1) with a = E|y1|; for the induced
        two-point signal through unit Gaussian noise the posterior mean
        is a*tanh(a*y2).  Returns (encoder, decoder, a).
        """
        a = self.sigma * np.sqrt(2.0 / np.pi)

        def encoder(y1):
            return a * np.sign(y1)

        def decoder(y2):
            return a * np.tanh(a * y2)

        return encoder, decoder, a

    def midpoint_test(
        self,
        policies_a: tuple,
        policies_b: tuple,
        lam: float = 0.5,
    ) -> QuadMidpointReport:
        """Cost of the pointwise policy mixture versus the cost average.

        The midpoint policy is lam*gamma_a + (1-lam)*gamma_b evaluated
        exactly (no grid snapping)."""
        enc_a, dec_a = policies_a
        enc_b, dec_b = policies_b

        def enc_m(y1):
            return lam * np.asarray(enc_a(y1)) + (1 - lam) * np.asarray(enc_b(y1))

        def dec_m(y2):
            return lam * np.asarray(dec_a(y2)) + (1 - lam) * np.asarray(dec_b(y2))

        ja = self.expected_cost_policies(enc_a, dec_a)
        jb = self.expected_cost_policies(enc_b, dec_b)
        jm = self.expected_cost_policies(enc_m, dec_m)
        avg = lam * ja + (1 - lam) * jb
        return QuadMidpointReport(ja, jb, jm, avg, jm - avg, lam)


def discretize(team: TwoStageGaussianTeam, spec: QuadratureSpec) -> tuple:
    """Finite TeamProblem matching a two-stage Gaussian team.

    The exogenous space carries the y1 quadrature nodes with their
    weights; DM 1 observes it exactly; DM 2's measurement lives on a
    uniform grid with Gaussian-density row masses centered at u1.
    Returns (problem, references) where the references (the exogenous
    weights for DM 1 and the centered Gaussian-density masses for DM 2)
    give static-reduction weights proportional to the density ratio
    eta(y2 - u1) / eta(y2).
    """
    y1_nodes, y1_weights = gauss_hermite(spec.y1_nodes, team.sigma)
    r = spec.u_range_sigmas * team.sigma
    u1_vals = np.linspace(-r, r, spec.u1_points)
    u2_vals = np.linspace(-r, r, spec.u2_points)
    y2_vals = np.linspace(-(r + spec.y2_pad), r + spec.y2_pad, spec.y2_points)

    omega = FiniteSpace("y1", [float(v) for v in y1_nodes])
    y1_space = FiniteSpace("y1-observed", [float(v) for v in y1_nodes])
    u1_space = FiniteSpace("u1", [float(v) for v in u1_vals])
    y2_space = FiniteSpace("y2", [float(v) for v in y2_vals])
    u2_space = FiniteSpace("u2", [float(v) for v in u2_vals])

    prior = Pmf(omega, y1_weights)
    k1 = MeasurementKernel(1, np.eye(len(omega)))

    d2 = (y2_vals[None, :] - u1_vals[:, None]) ** 2
    rows = np.exp(-0.5 * (d2 - d2.min(axis=1, keepdims=True)))
    rows /= rows.sum(axis=1, keepdims=True)
    k2 = MeasurementKernel(
        2, np.broadcast_to(rows[None, :, :], (len(omega),) + rows.shape)
    )

    cost = CostTable(
        team.stage_cost(
            y1_nodes[:, None, None], u1_vals[None, :, None], u2_vals[None, None, :]
        )
    )
    problem = TeamProblem(
        omega,
        prior,
        [y1_space, y2_space],
        [u1_space, u2_space],
        [k1, k2],
        cost,
        name=f"{team.kind}(k={team.k},sigma={team.sigma})",
    )

    q2 = np.exp(-0.5 * (y2_vals**2 - (y2_vals**2).min()))
    references = [
        Pmf(y1_space, y1_weights),
        Pmf(y2_space, q2 / q2.sum()),
    ]
    return problem, references


def snap_profile(problem: TeamProblem, encoder: Callable, decoder: Callable):
    """Deterministic profile mapping each measurement grid point to the
    action grid point nearest the callable's value."""
    maps = []
    for d, fn in enumerate((encoder, decoder)):
        y_vals = problem.y_spaces[d].numeric_values()
        u_vals = problem.u_spaces[d].numeric_values()
        target = np.asarray(fn(y_vals), dtype=float)
        maps.append(np.abs(target[:, None] - u_vals[None, :]).argmin(axis=1))
    return DeterministicProfile(maps)


@dataclass(frozen=True)
class StaticLQTeam:
    """Two DMs observe a shared Gaussian state through independent
    Gaussian noises and pay a jointly quadratic cost:

        (u1 + u2 - s)^2 + rho1 u1^2 + rho2 u2^2.

    Policies are affine, parametrized by theta = (a1, b1, a2, b2) with
    u_i = a_i y_i + b_i.  Quadrature is exact for this cost, so the
    finite-difference and closed-form analyses must agree to rounding.
    Construction refuses n_nodes^3 tensor cells over TABLE_CAP.
    """

    sigma_s: float = 1.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    rho1: float = 0.25
    rho2: float = 0.25
    n_nodes: int = 16

    def __post_init__(self):
        CapExceeded.check(self.n_nodes**3, TABLE_CAP)

    def _tensor(self):
        s, ws = gauss_hermite(self.n_nodes, self.sigma_s)
        n1, w1 = gauss_hermite(self.n_nodes, self.sigma1)
        n2, w2 = gauss_hermite(self.n_nodes, self.sigma2)
        S = s[:, None, None]
        Y1 = S + n1[None, :, None]
        Y2 = S + n2[None, None, :]
        W = ws[:, None, None] * w1[None, :, None] * w2[None, None, :]
        return S, Y1, Y2, W

    def _cost(self, S, Y1, Y2, theta):
        a1, b1, a2, b2 = theta
        u1 = a1 * Y1 + b1
        u2 = a2 * Y2 + b2
        return (u1 + u2 - S) ** 2 + self.rho1 * u1**2 + self.rho2 * u2**2

    def expected_cost_params(self, theta) -> float:
        S, Y1, Y2, W = self._tensor()
        return float((W * self._cost(S, Y1, Y2, np.asarray(theta, dtype=float))).sum())

    def solve_affine_optimum(self) -> np.ndarray:
        """Optimal affine parameters from the exact moment equations.

        Conditional optimality of u_i = a_i y_i + b_i gives a linear
        system in the gains driven by second moments of (s, y1, y2); the
        offsets solve a homogeneous nonsingular system, hence vanish.
        """
        m11 = self.sigma_s**2 + self.sigma1**2
        m22 = self.sigma_s**2 + self.sigma2**2
        m12 = self.sigma_s**2
        A = np.array(
            [[(1 + self.rho1) * m11, m12], [m12, (1 + self.rho2) * m22]]
        )
        rhs = np.array([self.sigma_s**2, self.sigma_s**2])
        a = np.linalg.solve(A, rhs)
        return np.array([a[0], 0.0, a[1], 0.0])

    def per_node_stationarity(self, theta) -> list:
        """For each DM and each node of its measurement's marginal, the
        conditional derivative of the cost in that DM's action at the
        profile; all zero (to quadrature accuracy) at an optimum."""
        a, b = np.asarray(theta, dtype=float).reshape(2, 2).T
        s_var = self.sigma_s**2
        n_var = (self.sigma1**2, self.sigma2**2)
        rho = (self.rho1, self.rho2)
        eps, we = gauss_hermite(self.n_nodes, 1.0)
        out = []
        for own, other in ((0, 1), (1, 0)):
            m = s_var + n_var[own]
            y_nodes, _ = gauss_hermite(self.n_nodes, np.sqrt(m))
            kappa = s_var / m
            tau = np.sqrt(s_var * n_var[own] / m)
            no, wo = gauss_hermite(self.n_nodes, np.sqrt(n_var[other]))
            Y = y_nodes[:, None, None]
            S = kappa * Y + tau * eps[None, :, None]
            Yo = S + no[None, None, :]
            W = we[None, :, None] * wo[None, None, :]
            u_own = a[own] * Y + b[own]
            u_oth = a[other] * Yo + b[other]
            deriv = 2.0 * ((1 + rho[own]) * u_own + u_oth - S)
            out.append((W * deriv).sum(axis=(1, 2)))
        return out

    def stationarity_moments(self, theta) -> np.ndarray:
        """Coefficients of the directional cost derivative in an affine
        parameter change: for D_i the conditional cost derivative in
        u_i at theta, returns (E[D1 y1], E[D1], E[D2 y2], E[D2])."""
        theta = np.asarray(theta, dtype=float)
        a1, b1, a2, b2 = theta
        S, Y1, Y2, W = self._tensor()
        u1 = a1 * Y1 + b1
        u2 = a2 * Y2 + b2
        d1 = 2.0 * ((1 + self.rho1) * u1 + u2 - S)
        d2 = 2.0 * ((1 + self.rho2) * u2 + u1 - S)
        return np.array(
            [
                (W * d1 * Y1).sum(),
                (W * d1).sum(),
                (W * d2 * Y2).sum(),
                (W * d2).sum(),
            ]
        )
