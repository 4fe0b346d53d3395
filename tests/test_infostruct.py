import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdec.constants import EQ_TOL
from teamdec.errors import (
    GroundMismatch,
    NonDeterministicMeasurement,
    StaticRequired,
    ValidationError,
)
from teamdec.gallery import witsenhausen
from teamdec.infostruct import (
    ISClass,
    Partition,
    SubsystemAnnotation,
    affects,
    classify,
    information_nested,
    is_stochastically_decoupled,
    join,
    meet,
    precedence_graph,
    sigma_field_of,
)
from teamdec.infostruct import test_conditional_independence as check_ci
from teamdec.model import CostTable, FiniteSpace, MeasurementKernel, Pmf, TeamProblem, _compact
from teamdec.strategic import check_membership_LM, induce_LA

from conftest import (
    classical_team,
    deterministic_team,
    random_profile,
    random_team,
    relay_team,
    sparse_team,
)


def all_partitions(n):
    """Every set partition of range(n), via restricted growth strings."""
    if n == 0:
        return
    rgs = [0] * n

    def emit():
        groups = {}
        for i, g in enumerate(rgs):
            groups.setdefault(g, []).append(i)
        return list(groups.values())

    while True:
        yield emit()
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def test_partition_canonical_form_and_refines():
    g = FiniteSpace("g", list(range(4)))
    p = Partition(g, [[3, 1], [0], [2]])
    assert p.blocks == ((0,), (1, 3), (2,))
    discrete, trivial = Partition(g, [[0], [1], [2], [3]]), Partition(g, [range(4)])
    assert discrete.refines(p)
    assert p.refines(trivial) and not p.refines(discrete)
    with pytest.raises(ValidationError):
        Partition(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValidationError):
        Partition(g, [[0, 1]])


def test_partition_from_codes_is_canonical_and_needs_a_code_per_point():
    g = FiniteSpace("g", list(range(4)))
    assert Partition.from_codes(g, np.array([5, 2, 5, 2])).blocks == ((0, 2), (1, 3))
    with pytest.raises(ValidationError):
        Partition.from_codes(g, np.array([0, 1, 0]))


def test_meet_join_match_lattice_oracle_on_all_pairs():
    """meet = finest common coarsening, join = coarsest common refinement,
    verified against an exhaustive scan of the partition lattice of a
    4-point set (15 partitions, 225 pairs)."""
    g = FiniteSpace("g", list(range(4)))
    lattice = [Partition(g, blocks) for blocks in all_partitions(4)]
    for p, q in itertools.product(lattice, repeat=2):
        m, j = meet(p, q), join(p, q)
        coarsenings = [
            c for c in lattice if p.refines(c) and q.refines(c)
        ]
        refinements = [
            c for c in lattice if c.refines(p) and c.refines(q)
        ]
        finest_coarsening = [
            c for c in coarsenings if all(c.refines(o) for o in coarsenings)
        ]
        coarsest_refinement = [
            c
            for c in refinements
            if all(o.refines(c) for o in refinements)
        ]
        assert m.blocks == finest_coarsening[0].blocks
        assert j.blocks == coarsest_refinement[0].blocks


def test_meet_join_algebra():
    g = FiniteSpace("g", list(range(5)))
    p = Partition(g, [[0, 1], [2, 3], [4]])
    q = Partition(g, [[0], [1, 2], [3, 4]])
    r = Partition(g, [[0, 4], [1, 2, 3]])
    assert meet(p, q).blocks == meet(q, p).blocks
    assert join(p, q).blocks == join(q, p).blocks
    assert meet(p, p).blocks == p.blocks and join(p, p).blocks == p.blocks
    assert (
        meet(meet(p, q), r).blocks
        == meet(p, meet(q, r)).blocks
        == meet(p, q, r).blocks
    )
    assert (
        join(join(p, q), r).blocks
        == join(p, join(q, r)).blocks
        == join(p, q, r).blocks
    )
    assert p.refines(meet(p, q)) and q.refines(meet(p, q))
    assert join(p, q).refines(p) and join(p, q).refines(q)


LATTICE5 = [Partition(FiniteSpace("g", list(range(5))), b) for b in all_partitions(5)]


@settings(max_examples=150)
@given(st.lists(st.integers(0, len(LATTICE5) - 1), min_size=3, max_size=4))
def test_n_ary_meet_join_match_folds_and_lattice_oracle(picks):
    """meet and join of 3-4 partitions of a 5-point set equal the
    pairwise folds and the finest common coarsening / coarsest common
    refinement found by scanning all 52 partitions."""
    parts = [LATTICE5[i] for i in picks]
    m, j = meet(*parts), join(*parts)
    fold_m, fold_j = parts[0], parts[0]
    for p in parts[1:]:
        fold_m, fold_j = meet(fold_m, p), join(fold_j, p)
    assert m.blocks == fold_m.blocks and j.blocks == fold_j.blocks
    coarser = [c for c in LATTICE5 if all(p.refines(c) for p in parts)]
    finer = [c for c in LATTICE5 if all(c.refines(p) for p in parts)]
    assert [c.blocks for c in coarser if all(c.refines(o) for o in coarser)] == [m.blocks]
    assert [c.blocks for c in finer if all(o.refines(c) for o in finer)] == [j.blocks]
    for p in parts:
        assert meet(p).blocks == join(p).blocks == p.blocks


def test_partition_ground_mismatch():
    a = FiniteSpace("a", [0, 1])
    b = FiniteSpace("b", [0, 2])
    with pytest.raises(GroundMismatch):
        meet(Partition(a, [[0, 1]]), Partition(b, [[0, 1]]))


def test_affects_and_precedence_on_broadcast_vs_dynamic_kernels():
    static = random_team(0, dynamic=False)
    dyn = random_team(0, dynamic=True)
    assert not affects(static, 1, 2)
    assert affects(dyn, 1, 2)
    assert precedence_graph(static) == ()
    assert precedence_graph(dyn) == ((1, 2),)


def varies_literal(table, axis) -> bool:
    """Some two histories differing only on history axis ``axis`` have
    different rows."""
    for h in itertools.product(*map(range, table.shape[:-1])):
        for v in range(table.shape[axis]):
            other = h[:axis] + (v,) + h[axis + 1:]
            if any(a != b for a, b in zip(table[h], table[other])):
                return True
    return False


@settings(max_examples=80)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    n_omega=st.integers(1, 3),
    sparse=st.booleans(),
    dynamic=st.booleans(),
    broadcast=st.booleans(),
    nudge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stored_kernels_keep_the_table_and_affects_reads_their_shape(
    dms, n_omega, sparse, dynamic, broadcast, nudge, seed
):
    """History axes, omega included, are made constant at random (by
    np.broadcast_to, then copied unless ``broadcast``; a copy may have
    its last entry moved by one ulp).  The kernel's table is the input
    bit for bit, at its shape and read-only; its stored form keeps
    exactly the axes along which rows vary, and ``affects`` and the
    precedence edges equal the literal loop."""
    y_sizes, u_sizes = zip(*dms)
    if sparse:
        base = sparse_team(seed, y_sizes, u_sizes, dynamic, True, n_omega)
    else:
        base = random_team(seed, n_omega, y_sizes, u_sizes, dynamic)
    rng = np.random.default_rng(seed)
    kernels, tables = [], []
    for kern in base.kernels:
        t = np.array(kern.table)
        for a in range(t.ndim - 1):
            if rng.uniform() < 0.4:
                t = np.broadcast_to(t.take([0], axis=a), t.shape)
        if not broadcast:
            t = t.copy()
            if nudge:
                t.flat[-1] = np.nextafter(t.flat[-1], 2.0)
        stored = MeasurementKernel(kern.dm, t)
        assert stored.table.shape == t.shape and not stored.table.flags.writeable
        assert np.ascontiguousarray(stored.table).tobytes() == np.ascontiguousarray(t).tobytes()
        with pytest.raises(ValueError):
            stored.table[(0,) * t.ndim] = 0.5
        kept = [n > 1 for n in _compact(stored.table).shape[:-1]]
        assert kept == [varies_literal(t, a) for a in range(t.ndim - 1)]
        kernels.append(stored)
        tables.append(t)
    team = TeamProblem(base.omega0, base.prior, base.y_spaces, base.u_spaces, kernels, base.cost)
    edges = []
    for i in range(2, len(dms) + 1):
        for k in range(1, i):
            assert affects(team, k, i) == varies_literal(tables[i - 1], k)
            edges += [(k, i)] if varies_literal(tables[i - 1], k) else []
    assert precedence_graph(team) == tuple(sorted(edges, key=lambda e: (e[1], e[0])))


def test_classify_static_and_nonclassical():
    assert classify(random_team(1, dynamic=False)) is ISClass.STATIC
    assert classify(random_team(1, dynamic=True)) is ISClass.NONCLASSICAL


def test_classify_classical_on_static_nested_team():
    team = classical_team(5)
    assert classify(team) is ISClass.CLASSICAL
    assert information_nested(team, 1, 2)


def test_classify_partially_nested_on_relay_chain():
    """DM 2 sees (y1, u1) exactly, so the action edge 1->2 is nested; an
    action edge exists, so the label is partially nested, not classical."""
    team = relay_team(5)
    assert precedence_graph(team) == ((1, 2),)
    assert information_nested(team, 1, 2)
    assert classify(team) is ISClass.PARTIALLY_NESTED


def test_classify_partially_nested_with_unrelated_third_dm():
    """DM 1 affects DM 2 and DM 2 sees DM 1's data (nested edge); DM 3 is
    affected by nobody, so the only edge is nested: partially nested but
    not classical (DM 3 does not see DM 2's information)."""
    base = relay_team(6)
    rng = np.random.default_rng(6)
    from teamdec.model import (
        CostTable,
        FiniteSpace,
        MeasurementKernel,
        TeamProblem,
    )

    y3 = FiniteSpace("y3", [0, 1])
    u3 = FiniteSpace("u3", [0.0, 1.0])
    rows3 = rng.dirichlet(np.ones(2), size=(len(base.omega0),))
    t3 = np.broadcast_to(
        rows3[:, None, None, :],
        (len(base.omega0), 2, 2, 2),
    ).copy()
    team = TeamProblem(
        base.omega0,
        base.prior,
        list(base.y_spaces) + [y3],
        list(base.u_spaces) + [u3],
        list(base.kernels) + [MeasurementKernel(3, t3)],
        CostTable(rng.uniform(0, 1, size=(len(base.omega0), 2, 2, 2))),
    )
    assert precedence_graph(team) == ((1, 2),)
    assert classify(team) is ISClass.PARTIALLY_NESTED


def atoms_nested(problem, k, i):
    """Does DM i's information contain DM k's?  A loop over the support
    atoms (positive-prior point, action history): False on the first
    value of DM i seen together with two values of DM k."""
    sup_i = problem.kernels[i - 1].table > 0.0
    sup_k = problem.kernels[k - 1].table > 0.0
    u_sizes = [len(problem.u_spaces[j]) for j in range(i - 1)]
    paired = {}
    for w in np.flatnonzero(problem.prior.mass > 0.0):
        for hist in itertools.product(*(range(s) for s in u_sizes)):
            vi = np.flatnonzero(sup_i[(w, *hist)])
            vk = np.flatnonzero(sup_k[(w, *hist[: k - 1])])
            if len(vk) == 0 or len(vi) == 0:
                continue
            if len(vk) > 1:
                return False
            for v in vi:
                if paired.setdefault(int(v), int(vk[0])) != int(vk[0]):
                    return False
    return True


@settings(max_examples=300)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3),
    n_omega=st.integers(1, 4),
    dynamic=st.booleans(),
    sharp=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_information_nested_matches_the_atom_loop(dms, n_omega, dynamic, sharp, seed):
    """Sparse kernels and priors with zero points; ``sharp`` turns every
    kernel row into a point mass, which makes nested pairs common."""
    y_sizes, u_sizes = zip(*dms)
    team = sparse_team(seed, y_sizes, u_sizes, dynamic, True, n_omega)
    if sharp:
        kernels = [
            MeasurementKernel(k.dm, np.eye(k.table.shape[-1])[k.table.argmax(axis=-1)])
            for k in team.kernels
        ]
        team = TeamProblem(team.omega0, team.prior, team.y_spaces, team.u_spaces,
                           kernels, team.cost)
    for i in range(2, len(dms) + 1):
        for k in range(1, i):
            assert information_nested(team, k, i) == atoms_nested(team, k, i)


def test_classify_reads_stored_kernel_rows():
    """The reduced Witsenhausen problem stores DM 2's kernel at
    (8448, 1, 33); at its full shape (8448, 17, 33) one support table of
    bools alone holds 4.7 MB."""
    problem = witsenhausen().materialized_reduction()[2]
    tracemalloc.start()
    try:
        assert classify(problem) is ISClass.STATIC
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_sigma_field_requires_point_mass_kernels():
    team = random_team(2, dynamic=False)
    with pytest.raises(NonDeterministicMeasurement):
        sigma_field_of(team, 1)


def test_static_only_calls_name_the_first_action_dependency():
    """sigma_field_of and check_membership_LM need measurements that no
    earlier action changes, and name the first one that does."""
    dyn = random_team(1, dynamic=True)
    with pytest.raises(StaticRequired, match=r"^DM 2's measurement depends on u1$"):
        sigma_field_of(dyn, 2)
    with pytest.raises(StaticRequired, match=r"^DM 2's measurement depends on u1$"):
        check_membership_LM(induce_LA(dyn, random_profile(dyn, 1)))
    dyn3 = random_team(2, y_sizes=(2, 2, 2), u_sizes=(2, 2, 2), dynamic=True)
    with pytest.raises(StaticRequired, match=r"^DM 3's measurement depends on u1$"):
        sigma_field_of(dyn3, 3)
    # DM 2 is static; DM 3 sees u2 but not u1
    base = random_team(3, y_sizes=(2, 2, 2), u_sizes=(2, 2, 2))
    rows = np.random.default_rng(3).dirichlet(np.ones(2), size=(3, 1, 2))
    k3 = MeasurementKernel(3, np.broadcast_to(rows, (3, 2, 2, 2)).copy())
    team = TeamProblem(base.omega0, base.prior, base.y_spaces, base.u_spaces,
                       list(base.kernels[:2]) + [k3], base.cost)
    with pytest.raises(StaticRequired, match=r"^DM 3's measurement depends on u2$"):
        sigma_field_of(team, 3)
    with pytest.raises(StaticRequired, match=r"^DM 3's measurement depends on u2$"):
        check_membership_LM(induce_LA(team, random_profile(team, 0)))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_omega=st.integers(1, 40),
    ny=st.lists(st.integers(1, 6), min_size=1, max_size=3),
)
@example(seed=0, n_omega=1, ny=[1])
@example(seed=1, n_omega=40, ny=[6, 6, 6])
@example(seed=2, n_omega=30, ny=[1, 5])
def test_partitions_match_per_point_labels(seed, n_omega, ny):
    """sigma_field_of, join and meet against Partition.from_labels with a
    per-point callable: the measurement read off each kernel row, the
    tuple of blocks holding a point, and the connected component of a
    point under "shares a block of some partition", grown one point at a time."""
    team = deterministic_team(seed, n_omega, [(n, 2) for n in ny], zero_prior=False)
    omega = team.omega0
    parts = []
    for k, n in enumerate(ny, start=1):
        rows = np.asarray(team.kernels[k - 1].table).reshape(n_omega, -1, n)
        y_of = [next(y for y in range(n) if rows[w, 0, y] == 1.0) for w in range(n_omega)]
        parts.append(sigma_field_of(team, k))
        assert parts[-1].blocks == Partition.from_labels(omega, lambda w: y_of[w]).blocks

    def block_of(part, w):
        return next(j for j, b in enumerate(part.blocks) if w in b)

    want = Partition.from_labels(omega, lambda w: tuple(block_of(p, w) for p in parts))
    assert join(*parts).blocks == want.blocks

    component = list(range(n_omega))
    for w in range(n_omega):
        reach, todo = {w}, [w]
        while todo:
            v = todo.pop()
            for p in parts:
                for x in p.blocks[block_of(p, v)]:
                    if x not in reach:
                        reach.add(x)
                        todo.append(x)
        component[w] = min(reach)
    assert meet(*parts).blocks == Partition.from_labels(omega, lambda w: component[w]).blocks


def test_sigma_field_partitions_by_measurement_preimage():
    from teamdec.model import (
        CostTable,
        MeasurementKernel,
        Pmf,
        TeamProblem,
    )

    omega = FiniteSpace("w", list(range(4)))
    y1 = FiniteSpace("y1", [0, 1])
    u1 = FiniteSpace("u1", [0.0, 1.0])
    # y1 = parity of omega
    t1 = np.zeros((4, 2))
    t1[np.arange(4), np.arange(4) % 2] = 1.0
    team = TeamProblem(
        omega,
        Pmf.uniform(omega),
        [y1],
        [u1],
        [MeasurementKernel(1, t1)],
        CostTable(np.zeros((4, 2))),
    )
    part = sigma_field_of(team, 1)
    assert part.blocks == ((0, 2), (1, 3))


def test_conditional_independence_detects_product_and_coupling():
    rng = np.random.default_rng(0)
    px = rng.dirichlet(np.ones(3))
    pz = rng.dirichlet(np.ones(2))
    for _ in range(5):
        py = rng.dirichlet(np.ones(2))
        prod = np.einsum("x,y,z->xyz", px, py, pz)
        assert check_ci(prod)
    coupled = np.zeros((2, 2, 2))
    coupled[0, 0, 0] = coupled[1, 0, 1] = 0.25
    coupled[0, 1, 0] = coupled[1, 1, 1] = 0.25
    assert not check_ci(coupled)
    with pytest.raises(ValidationError):
        check_ci(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        check_ci(np.zeros((2, 2, 2)))


def test_conditional_independence_sees_a_rare_conditioning_value():
    """P(x | y, z) is compared with P(x | y) wherever (y, z) has mass,
    however little: x given the rare z = 1 is a point mass, while x
    given y is a fair coin."""
    joint = np.zeros((2, 1, 2))
    joint[:, 0, 0] = 0.5, 0.5
    joint[0, 0, 1] = 1e-13
    assert not check_ci(joint)
    joint[1, 0, 1] = 1e-13
    assert check_ci(joint)


def literal_decoupled(problem, annotation):
    """The decoupling conditions by loops: the closed-loop joint under
    uniform policies over (state factors, y1..yN), then, per DM i,
    P(x_i | y_i, z) against P(x_i | y_i) wherever (y_i, z) has mass,
    where z is every other factor and y1..y_{i-1}."""
    n = problem.n_dms
    factors = list(itertools.product(*map(range, annotation.factor_sizes)))
    ranges = [r for k in range(n)
              for r in (range(len(problem.y_spaces[k])), range(len(problem.u_spaces[k])))]
    cells = {}
    for w, f in enumerate(factors):
        for h in itertools.product(*ranges):
            p = problem.prior.mass[w]
            for k in range(n):
                p *= problem.kernels[k].table[(w,) + h[1:2 * k:2] + (h[2 * k],)]
                p /= len(problem.u_spaces[k])
            key = f + h[0::2]
            cells[key] = cells.get(key, 0.0) + p
    for i in range(n):
        xs = annotation.dm_state_factors[i]
        if not xs:
            continue
        joint, given = {}, {}  # (y_i, z) -> {x: mass}; y_i -> {x: mass}
        for key, p in cells.items():
            f, ys = key[:len(annotation.factor_sizes)], key[len(annotation.factor_sizes):]
            x = tuple(f[a] for a in xs)
            z = tuple(v for a, v in enumerate(f) if a not in xs) + ys[:i]
            for table, cond in ((joint, (ys[i], z)), (given, ys[i])):
                row = table.setdefault(cond, {})
                row[x] = row.get(x, 0.0) + p
        for (y, z), row in joint.items():
            mass, ref = sum(row.values()), given[y]
            if mass > 0 and any(
                abs(row.get(x, 0.0) / mass - ref.get(x, 0.0) / sum(ref.values())) > EQ_TOL
                for x in set(row) | set(ref)
            ):
                return False
    return True


@pytest.mark.parametrize("coupled", [False, True])
def test_decoupling_with_a_two_factor_subsystem_matches_a_literal_loop(coupled):
    """omega = (a, b, c, s) on (2, 2, 2, 2): DM 1 owns (a, b) and sees a
    noisy copy of the pair, DM 2 owns c and sees c (or c xor a when
    coupled) through a channel that u1 also moves, s is shared."""
    rng = np.random.default_rng(3)
    omega = FiniteSpace("abcs", list(itertools.product(range(2), repeat=4)))
    pab, pc, ps = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    mass = [pab[2 * a + b] * pc[c] * ps[s] for a, b, c, s in omega.points]
    noise1 = rng.dirichlet(np.ones(4), size=4)  # (a, b) -> y1
    noise2 = rng.dirichlet(np.ones(2), size=(2, 2))  # (source bit, u1) -> y2
    t1 = np.array([noise1[2 * a + b] for a, b, c, s in omega.points])
    t2 = np.array([[noise2[c ^ (a if coupled else 0), u] for u in range(2)]
                   for a, b, c, s in omega.points])
    team = TeamProblem(
        omega,
        Pmf(omega, mass),
        [FiniteSpace("y1", list(range(4))), FiniteSpace("y2", [0, 1])],
        [FiniteSpace("u1", [0.0, 1.0]), FiniteSpace("u2", [0.0, 1.0])],
        [MeasurementKernel(1, t1), MeasurementKernel(2, t2)],
        CostTable(np.zeros((16, 2, 2))),
    )
    annotation = SubsystemAnnotation((2, 2, 2, 2), ((0, 1), (2,)), (3,))
    want = literal_decoupled(team, annotation)
    assert want is not coupled
    assert is_stochastically_decoupled(team, annotation) is want


def test_stochastic_decoupling_verdicts_from_gallery_annotation():
    from teamdec.gallery import decoupled_example

    good = decoupled_example()
    assert is_stochastically_decoupled(good.problem, good.annotation)
    bad = decoupled_example(coupled=True)
    assert not is_stochastically_decoupled(bad.problem, bad.annotation)


def test_a_dm_that_owns_no_state_factor_is_not_checked():
    from teamdec.gallery import decoupled_example

    def owning(bundle, groups):
        ann = bundle.annotation
        return SubsystemAnnotation(ann.factor_sizes, groups, ann.shared_factors)

    good = decoupled_example()
    assert is_stochastically_decoupled(good.problem, owning(good, ((0,), ())))
    # DM 2 sees its state mixed with DM 1's, so DM 2 alone fails the check
    bad = decoupled_example(coupled=True)
    assert not is_stochastically_decoupled(bad.problem, owning(bad, ((), (1,))))
