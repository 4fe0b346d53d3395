"""Named example problems, bundled with their reference analyses.

Each constructor returns a bundle holding library objects (problems,
reductions, measures) plus the example-specific checks the CLI exposes:

* ``witsenhausen``: two-stage Gaussian team with estimation cost
  k^2 (y1-u1)^2 + (u1-u2)^2 — nonclassical, non-convex, and with a
  two-point policy beating every affine pair at (k=0.2, sigma=5);
* ``signaling``: same information flow with cost k^2 u1^2 + (y1-u2)^2,
  where the closed-form affine pair is optimal despite nonclassicality;
* ``square_wave``: a sequence of deterministic-policy strategic measures
  whose setwise limit loses the conditional-independence property;
* ``example1``: three-cell static team, convex after conditioning on
  the common information even though the raw cost has a concave cell;
* ``decoupled_example``: two independent binary subsystems plus a shared
  bit channel, where the joint optimum splits across subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .constants import TABLE_CAP
from .convexity import (
    ConvexityVerdict,
    GridConvexityReport,
    certify_team_convexity,
    grid_convexity_test,
)
from .errors import CapExceeded, ValidationError
from .infostruct import (
    SubsystemAnnotation,
    is_stochastically_decoupled,
    test_conditional_independence,
)
from .model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
)
from .quadrature import (
    CERTIFY_SPEC,
    QuadratureSpec,
    TwoStageGaussianTeam,
    discretize,
    snap_profile,
)
from .reduction import StaticReduction, static_reduce
from .solvers import SolveResult, brute_force, pbp_iterate, seeded_profiles
from .strategic import StrategicMeasure, induce_LA


# --------------------------------------------------------------------------
# Two-stage Gaussian bundles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineVsQuantizer:
    value_affine: float
    value_quantizer: float
    quantizer_beats_affine: bool
    margin: float
    quantizer_level: float
    affine_gain: float


@dataclass(frozen=True)
class GaussianBundle:
    """A two-stage Gaussian team with its finite discretization and
    static reduction (reference measures: the exogenous weights for the
    first measurement, centered Gaussian-density masses for the
    second)."""

    team: TwoStageGaussianTeam
    spec: QuadratureSpec
    problem: TeamProblem
    reduction: StaticReduction

    @property
    def k(self) -> float:
        return self.team.k

    @property
    def sigma(self) -> float:
        return self.team.sigma

    def affine_optimum(self):
        return self.team.affine_optimum()

    def materialized_reduction(self) -> tuple:
        """A smaller instance of the same team whose reduced static
        problem fits the table cap: (problem, reduction, static problem)."""
        problem, references = discretize(self.team, CERTIFY_SPEC)
        reduction = static_reduce(problem, references)
        return problem, reduction, reduction.reduced_problem()


@dataclass(frozen=True)
class EncoderFlipReport:
    """Midpoint test for a pair differing only in the encoder's sign.

    Both members share the posterior-mean decoder of the two-point
    encoder; the second member negates the encoder.  Their policy
    midpoint therefore has an identically-zero encoder (its first-stage
    cost is exactly k^2 sigma^2) while keeping the nonlinear decoder,
    which then fires on pure noise — so the midpoint costs strictly more
    than the average of the endpoints and midpoint convexity fails.
    """

    value_a: float
    value_b: float
    value_mid: float
    value_avg: float
    violation: float
    first_stage_mid: float
    lam: float


@dataclass(frozen=True)
class NegationBoundReport:
    """Why a *fully* negated pair can never witness non-convexity here.

    Pointwise, k^2[(y-g)^2 + (y+g)^2] = 2 k^2 (y^2 + g^2), so for any
    policy pair (gamma, -gamma) the averaged cost is at least
    k^2 (sigma^2 + E[encoder^2]) >= k^2 sigma^2, which is exactly the
    cost of the zero midpoint policy.  ``slack`` is the (nonnegative)
    excess of the average over the zero-policy cost; a witness pair must
    flip only part of the team, as in :class:`EncoderFlipReport`.
    """

    value_a: float
    value_b: float
    value_avg: float
    zero_policy_value: float
    slack: float


@dataclass(frozen=True)
class WitsenhausenBundle(GaussianBundle):
    def quantizer(self) -> tuple:
        """(encoder, decoder, level, quadrature value) of the two-point
        policy at level E|y1| with its posterior-mean decoder."""
        enc, dec, a = self.team.quantizer_policies()
        return enc, dec, a, self.team.expected_cost_policies(enc, dec)

    def affine_vs_quantizer(self) -> AffineVsQuantizer:
        aff = self.affine_optimum()
        _, _, a, jq = self.quantizer()
        return AffineVsQuantizer(
            aff.value, jq, jq < aff.value, aff.value - jq, a, aff.gain
        )

    def certify(self) -> ConvexityVerdict:
        """Convexity certification on the materialized reduced problem."""
        _, _, reduced = self.materialized_reduction()
        return certify_team_convexity(reduced)

    def encoder_flip_pair(self) -> tuple:
        """((enc, dec), (-enc, dec)): the two-point encoder and its
        negation, sharing one posterior-mean decoder."""
        enc, dec, _ = self.team.quantizer_policies()

        def neg_enc(y1):
            return -np.asarray(enc(y1))

        return (enc, dec), (neg_enc, dec)

    def encoder_flip_report(self) -> EncoderFlipReport:
        """Closed-form non-convexity witness: see EncoderFlipReport."""
        pa, pb = self.encoder_flip_pair()
        rep = self.team.midpoint_test(pa, pb, 0.5)
        first_stage = self.k**2 * self.sigma**2
        return EncoderFlipReport(
            rep.value_a,
            rep.value_b,
            rep.value_mid,
            rep.value_avg,
            rep.violation,
            first_stage,
            0.5,
        )

    def negation_bound(self) -> NegationBoundReport:
        """Averaged cost of the fully negated two-point pair versus the
        zero-policy cost k^2 sigma^2: see NegationBoundReport."""
        (enc, dec), (neg_enc, _) = self.encoder_flip_pair()

        def neg_dec(y2):
            return -np.asarray(dec(y2))

        ja = self.team.expected_cost_policies(enc, dec)
        jb = self.team.expected_cost_policies(neg_enc, neg_dec)
        avg = 0.5 * (ja + jb)
        zero = self.k**2 * self.sigma**2
        return NegationBoundReport(ja, jb, avg, zero, avg - zero)


@dataclass(frozen=True)
class AffineSearchReport:
    """Closed-form affine optimum versus a discretized policy search.

    The search runs person-by-person improvement on the finite problem
    from several initial profiles (snapped affine, zero, and threshold
    policies); ``tolerance`` is the declared grid-accuracy budget: the
    quadratic cost curvature times half the squared action grid steps,
    plus the same allowance for the measurement grid of the second DM.
    """

    value_affine: float
    value_search: float
    gap: float
    tolerance: float
    matches: bool
    n_inits: int


@dataclass(frozen=True)
class SignalingBundle(GaussianBundle):
    def zero_encoder_value(self) -> float:
        """u1 = 0 carries no information; the best decoder replies with
        the prior mean, paying the full state variance."""
        return self.team.expected_cost_policies(
            lambda y: np.zeros_like(y), lambda y: np.zeros_like(y)
        )

    def grid_tolerance(self) -> float:
        r = self.spec.u_range_sigmas * self.sigma
        h1 = 2 * r / (self.spec.u1_points - 1)
        h2 = 2 * r / (self.spec.u2_points - 1)
        h_y2 = (
            2
            * (r + self.spec.y2_pad)
            / (self.spec.y2_points - 1)
        )
        curvature = 1.0 + self.k**2
        return curvature * (h1**2 + h2**2 + h_y2**2) / 2.0

    def discretized_search(self, seed: int = 0) -> AffineSearchReport:
        aff = self.affine_optimum()
        g, c = aff.gain, self.team.affine_decoder_gain(aff.gain)
        inits = [
            snap_profile(self.problem, lambda y: g * y, lambda y: c * y),
            snap_profile(
                self.problem,
                lambda y: np.zeros_like(y),
                lambda y: np.zeros_like(y),
            ),
            snap_profile(
                self.problem,
                lambda y: g * self.sigma * np.sign(y),
                lambda y: c * self.sigma * np.sign(y),
            ),
        ]
        inits += seeded_profiles(self.problem, seed, 4)
        best = np.inf
        for init in inits:
            res = pbp_iterate(self.problem, init=init)
            best = min(best, res.value)
        tol = self.grid_tolerance()
        gap = abs(aff.value - best)
        return AffineSearchReport(aff.value, float(best), gap, tol, gap <= tol, len(inits))


def _gaussian_bundle(bundle: type, name: str, k: float, sigma: float,
                     spec: Optional[QuadratureSpec]):
    """The named two-stage team, its discretization and static reduction."""
    spec = spec if spec is not None else QuadratureSpec()
    team = TwoStageGaussianTeam.build(name, k, sigma, spec.y1_nodes, spec.w_nodes)
    problem, references = discretize(team, spec)
    return bundle(team, spec, problem, static_reduce(problem, references))


def witsenhausen(
    k: float = 0.2, sigma: float = 5.0, spec: Optional[QuadratureSpec] = None
) -> WitsenhausenBundle:
    return _gaussian_bundle(WitsenhausenBundle, "witsenhausen", k, sigma, spec)


def signaling(
    k: float = 0.2, sigma: float = 5.0, spec: Optional[QuadratureSpec] = None
) -> SignalingBundle:
    return _gaussian_bundle(SignalingBundle, "signaling", k, sigma, spec)


# --------------------------------------------------------------------------
# Square-wave mixture limit
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalRecord:
    lo: Fraction
    hi: Fraction
    integral: Fraction
    target: Fraction
    gap: Fraction
    bound: Fraction
    within_bound: bool


@dataclass(frozen=True)
class SquareWaveFamily:
    """Deterministic-policy measures on a 2n-cell grid of the unit
    interval, both DMs playing 1 exactly on the alternating half-cells.

    Each member measure factorizes over the cell (actions are functions
    of it), while the setwise limit couples the two actions: it puts
    weight 1/2 each on u1 = u2 = 0 and u1 = u2 = 1 independently of the
    cell, so conditioning on the other DM's action shifts a 1/2 marginal
    to an indicator.

    The (u1, cell, u2) tables driving the conditional-independence
    checks and the exact interval arithmetic stay O(n); the dense
    five-axis measures grow as n^3, so ``member_measure`` and
    ``limit_measure`` build them on demand (raising ``CapExceeded``
    once the joint would exceed the table cap).
    """

    n: int
    problem: TeamProblem
    profile: DeterministicProfile
    cells: tuple  # (lo, hi) Fractions per cell
    high_cells: tuple  # indices where the policies play 1
    table: np.ndarray = field(repr=False)  # (u1, cell, u2) for the member
    limit_table: np.ndarray = field(repr=False)  # (u1, cell, u2) for the limit

    def member_measure(self) -> StrategicMeasure:
        """Dense measure induced by the alternating deterministic pair."""
        return induce_LA(self.problem, self.profile)

    def limit_measure(self) -> StrategicMeasure:
        """Dense setwise limit: mass 1/2 split over u1 = u2 = 0 and
        u1 = u2 = 1 within every cell."""
        shape = self.problem.joint_shape()
        cells = int(np.prod(shape))
        if cells > TABLE_CAP:
            raise CapExceeded(cells, TABLE_CAP)
        m = 2 * self.n
        joint = np.zeros(shape)
        for w in range(m):
            for a in (0, 1):
                joint[w, w, a, w, a] = 0.5 / m
        return StrategicMeasure(self.problem, joint, origin="limit")

    def indicator_mass(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact Lebesgue mass of [lo,hi] under the policies' 1-region."""
        total = Fraction(0)
        for j in self.high_cells:
            a, b = self.cells[j]
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap
        return total

    def interval_record(self, lo: Fraction, hi: Fraction) -> IntervalRecord:
        integral = self.indicator_mass(lo, hi)
        target = Fraction(hi - lo, 2)
        gap = abs(integral - target)
        bound = Fraction(1, 2 * self.n)
        return IntervalRecord(lo, hi, integral, target, gap, bound, gap <= bound)

    def diagnostics(self) -> tuple:
        """Interval records for [0, j/20], j = 1..20."""
        return tuple(
            self.interval_record(Fraction(0), Fraction(j, 20)) for j in range(1, 21)
        )

    def member_ci(self) -> bool:
        return test_conditional_independence(self.table)

    def limit_ci(self) -> bool:
        return test_conditional_independence(self.limit_table)


def square_wave(n: int) -> SquareWaveFamily:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    m = 2 * n
    if 2 * m * m > TABLE_CAP:  # DM 2's kernel, shape (m, 2, m)
        raise CapExceeded(2 * m * m, TABLE_CAP)
    cells = tuple((Fraction(j, m), Fraction(j + 1, m)) for j in range(m))
    labels = [f"[{lo},{hi})" for lo, hi in cells]
    omega = FiniteSpace("interval-cell", labels)
    prior = Pmf.uniform(omega)
    y1 = FiniteSpace("cell-seen-by-1", labels)
    y2 = FiniteSpace("cell-seen-by-2", labels)
    u1 = FiniteSpace("u1", [0, 1])
    u2 = FiniteSpace("u2", [0, 1])
    eye = np.eye(m)
    k1 = MeasurementKernel(1, eye)
    k2 = MeasurementKernel(2, np.broadcast_to(eye[:, None, :], (m, 2, m)))
    cost = CostTable(np.zeros((m, 2, 2)))
    problem = TeamProblem(
        omega, prior, [y1, y2], [u1, u2], [k1, k2], cost, name=f"square-wave({n})"
    )

    high = tuple(j for j in range(m) if j % 2 == 0)
    gamma = np.array([1 if j % 2 == 0 else 0 for j in range(m)], dtype=int)
    profile = DeterministicProfile([gamma, gamma.copy()])
    table = np.zeros((2, m, 2))
    table[gamma, np.arange(m), gamma] = 1.0 / m

    limit_table = np.zeros((2, m, 2))
    for a in (0, 1):
        limit_table[a, :, a] = 0.5 / m

    return SquareWaveFamily(
        n,
        problem,
        profile,
        cells,
        high,
        table,
        limit_table,
    )


# --------------------------------------------------------------------------
# Three-cell convex team
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Example1Bundle:
    """Static two-DM team on three exogenous cells with masses
    0.1/0.8/0.1: quadratic pull toward 2 on the first two cells, a
    concave square-root cost on the third, and both DMs observing only
    whether the first cell occurred."""

    problem: TeamProblem
    step: float

    def certify(self) -> ConvexityVerdict:
        return certify_team_convexity(self.problem)

    def raw_third_cell_convexity(self) -> GridConvexityReport:
        """Midpoint test of the raw cost on the square-root cell alone
        (fails: the cell's cost is strictly concave)."""
        axes = [u.numeric_values() for u in self.problem.u_spaces]
        return grid_convexity_test(self.problem.cost.table[2], axes)

    def _scan(self) -> tuple:
        """Per-coordinate 1-D scans over the action grid.

        The cost splits per DM into a term for the observed cell and a
        term for its complement, so coordinate-wise argmins assemble the
        exact grid optimum: returns (grid, index on the first cell,
        index elsewhere, J*).
        """
        u = self.problem.u_spaces[0].numeric_values()
        first = 0.1 * (u - 2.0) ** 2
        rest = 0.8 * (u - 2.0) ** 2 + 0.1 * np.sqrt(1.0 + u)
        ia, ib = int(np.argmin(first)), int(np.argmin(rest))
        return u, ia, ib, float(2.0 * (first[ia] + rest[ib]))

    def scan_optimum(self) -> tuple:
        """(u_on_first_cell, u_elsewhere, J*) from the per-coordinate scan."""
        u, ia, ib, value = self._scan()
        return float(u[ia]), float(u[ib]), value

    def scan_profile(self) -> DeterministicProfile:
        """Both DMs playing the per-coordinate scan's optimum."""
        _, ia, ib, _ = self._scan()
        # measurement value 1 (index 1) flags the first cell
        gamma = np.array([ib, ia], dtype=int)
        return DeterministicProfile([gamma, gamma.copy()])


def example1(step: float = 0.01) -> Example1Bundle:
    if not 0 < step <= 1:
        raise ValidationError(f"step must be in (0, 1], got {step}")
    n_points = int(round(1.0 / step)) + 1
    if 3 * n_points * n_points > TABLE_CAP:  # the cost, shape (3, n, n)
        raise CapExceeded(3 * n_points * n_points, TABLE_CAP)
    u_vals = np.linspace(1.0, 2.0, n_points)

    omega = FiniteSpace("state-cell", ["[0,0.1)", "[0.1,0.9]", "(0.9,1]"])
    prior = Pmf(omega, [0.1, 0.8, 0.1])
    y_points = [0, 1]  # 1 = first cell occurred
    y1 = FiniteSpace("first-cell-flag-1", y_points)
    y2 = FiniteSpace("first-cell-flag-2", y_points)
    u1 = FiniteSpace("u1", [float(v) for v in u_vals])
    u2 = FiniteSpace("u2", [float(v) for v in u_vals])

    flag = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    k1 = MeasurementKernel(1, flag)
    k2 = MeasurementKernel(2, np.broadcast_to(flag[:, None, :], (3, n_points, 2)))

    quad = (u_vals[:, None] - 2.0) ** 2 + (u_vals[None, :] - 2.0) ** 2
    root = np.sqrt(1.0 + u_vals)[:, None] + np.sqrt(1.0 + u_vals)[None, :]
    cost = CostTable(np.stack([quad, quad, root]))

    problem = TeamProblem(
        omega,
        prior,
        [y1, y2],
        [u1, u2],
        [k1, k2],
        cost,
        name=f"example1(step={step})",
    )
    return Example1Bundle(problem, step)


# --------------------------------------------------------------------------
# Decoupled subsystems
# --------------------------------------------------------------------------


def _bsc(eps: float) -> np.ndarray:
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


@dataclass(frozen=True)
class DecoupledBundle:
    """Two binary estimation subsystems plus a shared bit the first DM
    may flip: each DM observes its own state through a binary symmetric
    channel alongside the shared bit, and the cost adds the per-
    subsystem estimation errors.  In the coupled variant the second
    measurement depends on both states, breaking the decoupling."""

    problem: TeamProblem
    annotation: SubsystemAnnotation
    subsystems: tuple
    coupled: bool

    def verdict(self) -> bool:
        return is_stochastically_decoupled(self.problem, self.annotation)

    def joint_solve(self) -> SolveResult:
        return brute_force(self.problem)

    def subsystem_values(self) -> tuple:
        return tuple(brute_force(p).value for p in self.subsystems)

    def split_gap(self) -> float:
        return abs(self.joint_solve().value - sum(self.subsystem_values()))


def decoupled_example(coupled: bool = False) -> DecoupledBundle:
    p_x1, eps1, eps2 = 0.6, 0.2, 0.1  # P(x1 = 0) and the two crossovers
    bits = (0, 1)
    omega_points = [(x1, x2, z0) for x1 in bits for x2 in bits for z0 in bits]
    omega = FiniteSpace("x1*x2*z0", omega_points)
    mass = np.array(
        [
            (p_x1 if x1 == 0 else 1 - p_x1) * 0.5 * 0.5
            for (x1, x2, z0) in omega_points
        ]
    )
    prior = Pmf(omega, mass)

    y1_points = [(m, z) for m in bits for z in bits]
    y2_points = [(m, z) for m in bits for z in bits]
    y1 = FiniteSpace("m1*z0", y1_points)
    y2 = FiniteSpace("m2*z1", y2_points)
    u1 = FiniteSpace("u1", list(bits))
    u2 = FiniteSpace("u2", list(bits))

    b1 = _bsc(eps1)
    k1_table = np.zeros((8, 4))
    for w, (x1, x2, z0) in enumerate(omega_points):
        for y, (m, z) in enumerate(y1_points):
            if z == z0:
                k1_table[w, y] = b1[x1, m]
    k1 = MeasurementKernel(1, k1_table)

    b2 = _bsc(eps2)
    k2_table = np.zeros((8, 2, 4))
    for w, (x1, x2, z0) in enumerate(omega_points):
        src = (x1 ^ x2) if coupled else x2
        for a in bits:
            z1 = z0 ^ a
            for y, (m, z) in enumerate(y2_points):
                if z == z1:
                    k2_table[w, a, y] = b2[src, m]
    k2 = MeasurementKernel(2, k2_table)

    cost_table = np.zeros((8, 2, 2))
    for w, (x1, x2, z0) in enumerate(omega_points):
        for a in bits:
            for b in bits:
                cost_table[w, a, b] = float(a != x1) + 2.0 * float(b != x2)
    cost = CostTable(cost_table)

    problem = TeamProblem(
        omega,
        prior,
        [y1, y2],
        [u1, u2],
        [k1, k2],
        cost,
        name="decoupled" + ("-crossed" if coupled else ""),
    )
    annotation = SubsystemAnnotation(
        factor_sizes=(2, 2, 2),
        dm_state_factors=((0,), (1,)),
        shared_factors=(2,),
    )

    x1_space = FiniteSpace("x1", list(bits))
    sub1 = TeamProblem(
        x1_space,
        Pmf(x1_space, [p_x1, 1 - p_x1]),
        [FiniteSpace("m1", list(bits))],
        [FiniteSpace("u1", list(bits))],
        [MeasurementKernel(1, b1)],
        CostTable(np.array([[0.0, 1.0], [1.0, 0.0]])),
        name="subsystem-1",
    )
    x2_space = FiniteSpace("x2", list(bits))
    sub2 = TeamProblem(
        x2_space,
        Pmf.uniform(x2_space),
        [FiniteSpace("m2", list(bits))],
        [FiniteSpace("u2", list(bits))],
        [MeasurementKernel(1, b2)],
        CostTable(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]])),
        name="subsystem-2",
    )
    return DecoupledBundle(problem, annotation, (sub1, sub2), coupled)
