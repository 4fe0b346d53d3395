"""JSON round-trips for problems and strategic measures."""

import dataclasses
import hashlib
import json
import tracemalloc
from enum import Enum, IntEnum
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdec import model, probio
from teamdec.cli import to_jsonable
from teamdec.errors import CapExceeded, ValidationError
from teamdec.gallery import decoupled_example
from teamdec.model import (
    CostTable,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
)
from teamdec.probio import (
    digest_bytes,
    json_text,
    load_measure,
    load_problem,
    load_references,
    measure_from_dict,
    measure_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from teamdec.strategic import induce_LA, induce_LR

from conftest import (
    literal_problem_doc,
    random_profile,
    random_randomized_profile,
    random_team,
    sparse_team,
)


def assert_problems_equal(a: TeamProblem, b: TeamProblem):
    assert a.name == b.name
    assert a.omega0 == b.omega0
    assert list(a.y_spaces) == list(b.y_spaces)
    assert list(a.u_spaces) == list(b.u_spaces)
    assert np.array_equal(a.prior.mass, b.prior.mass)
    for ka, kb in zip(a.kernels, b.kernels):
        assert np.array_equal(ka.table, kb.table)
    assert np.array_equal(a.cost.table, b.cost.table)


def test_problem_dict_roundtrip_static_and_dynamic():
    for seed, dynamic in [(0, False), (1, True), (2, True)]:
        problem = random_team(seed, dynamic=dynamic)
        doc = json.loads(json.dumps(problem_to_dict(problem)))
        assert_problems_equal(problem, problem_from_dict(doc))


def generated_team(seed, dms, n_omega, dynamic, zeros, tuples):
    """A ``random_team`` with, optionally, zero cost cells, prior masses,
    kernel entries and whole kernel rows (one cost cell is -0.0), and
    tuple-valued points.
    The prior is in eighths, so it sums to 1 exactly and loading (which
    renormalizes it) gives back the same masses."""
    y_sizes, u_sizes = zip(*dms)
    team = random_team(seed, n_omega, y_sizes, u_sizes, dynamic)
    rng = np.random.default_rng(seed)
    spread = np.full(n_omega, 1 / n_omega)
    prior = (rng.multinomial(8, spread) if zeros else 1 + rng.multinomial(8 - n_omega, spread)) / 8
    kernels = [k.table for k in team.kernels]
    cost = team.cost.table
    if zeros:

        def thin(t):
            t = t * ((rng.uniform(size=t.shape) > 0.4) | (t == t.max(-1, keepdims=True)))
            return t / t.sum(-1, keepdims=True)

        kernels = [thin(t) for t in kernels]
        for t in kernels:  # some histories carry no mass: their rows are empty
            t[rng.uniform(size=t.shape[:-1]) < 0.2] = 0.0
        cost = np.where(rng.uniform(size=cost.shape) > 0.5, cost, 0.0)
        cost.reshape(-1)[0] = -0.0
    omega, y_spaces, u_spaces = team.omega0, team.y_spaces, team.u_spaces
    if tuples:
        omega = FiniteSpace("w", [(w, "w") for w in omega.points])
        y_spaces = [FiniteSpace(s.name, [(y, (y, 0.5)) for y in s.points]) for s in y_spaces]
    return TeamProblem(
        omega,
        Pmf(omega, prior),
        y_spaces,
        u_spaces,
        [MeasurementKernel(k + 1, t) for k, t in enumerate(kernels)],
        CostTable(cost),
        name=f"team-{seed}",
    )


@settings(max_examples=80)
@given(
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    n_omega=st.integers(1, 4),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    tuples=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_writer_matches_a_per_cell_writer_and_round_trips(
    dms, n_omega, dynamic, zeros, tuples, seed
):
    problem = generated_team(seed, dms, n_omega, dynamic, zeros, tuples)
    doc = problem_to_dict(problem)
    want = literal_problem_doc(problem)
    assert json.dumps(doc) == json.dumps(want)
    assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert_problems_equal(problem, problem_from_dict(doc))
    assert_problems_equal(problem, problem_from_dict(json.loads(json.dumps(doc))))


def _peak(f):
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_reads_stored_kernel_rows():
    """DM 2 sees omega only: its kernel stores 100 point-mass rows, and
    the document holds one per (omega, u1), 5000 in all.  The writer's
    peak stays below half that of one full-shape ``tolist`` of the kernel
    (about 2.5 MB against 13 MB), and every history gets a row dict of
    its own."""
    omega = FiniteSpace("w", range(100))
    u1, u2 = FiniteSpace("u1", range(50)), FiniteSpace("u2", range(2))
    y1, y2 = FiniteSpace("y1", [0]), FiniteSpace("y2", range(64))
    rows = np.eye(64)[np.arange(100) % 64]
    problem = TeamProblem(
        omega, Pmf.uniform(omega), [y1, y2], [u1, u2],
        [MeasurementKernel(1, np.ones((100, 1))),
         MeasurementKernel(2, np.broadcast_to(rows[:, None], (100, 50, 64)))],
        CostTable(np.ones((100, 50, 2))),
    )
    full = problem.kernels[1].table
    _, full_peak = _peak(lambda: full.reshape(-1, 64).tolist())
    doc, peak = _peak(lambda: problem_to_dict(problem))
    assert peak < full_peak / 2
    assert json.dumps(doc) == json.dumps(literal_problem_doc(problem))
    section = doc["kernels"][1]
    assert len(section) == 5000
    assert len({id(row) for row in section.values()}) == 5000
    section["0|0"]["1"] = 0.5
    assert section["0|1"] == {"0": 1.0}


def test_problem_file_roundtrip_digest_and_determinism(tmp_path):
    problem = random_team(3, dynamic=True)
    path = tmp_path / "team.json"
    save_problem(problem, str(path))
    loaded = load_problem(str(path))
    assert_problems_equal(problem, loaded.problem)
    raw = path.read_bytes()
    assert loaded.digest == hashlib.sha256(raw).hexdigest()
    assert digest_bytes(raw) == loaded.digest

    # serialization is canonical: saving again produces identical bytes
    again = tmp_path / "team2.json"
    save_problem(problem, str(again))
    assert again.read_bytes() == raw


def test_sparse_zeros_are_omitted_and_restored(tmp_path):
    omega = FiniteSpace("w", [0, 1, 2])
    prior = Pmf(omega, [0.5, 0.0, 0.5])
    y1 = FiniteSpace("y1", ["lo", "hi"])
    u1 = FiniteSpace("u1", [0, 1])
    kernel = MeasurementKernel(1, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    cost = CostTable([[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    problem = TeamProblem(omega, prior, [y1], [u1], [kernel], cost, name="sparse")

    doc = problem_to_dict(problem)
    assert set(doc["prior"]) == {"0", "2"}
    assert doc["kernels"][0] == {"0": {"lo": 1.0}, "1": {"hi": 1.0}, "2": {"lo": 1.0}}
    assert set(doc["cost"]) == {"0|1", "1|0"}

    path = tmp_path / "sparse.json"
    save_problem(problem, str(path))
    assert_problems_equal(problem, load_problem(str(path)).problem)


def test_tuple_points_roundtrip(tmp_path):
    bundle = decoupled_example()
    path = tmp_path / "decoupled.json"
    save_problem(bundle.problem, str(path))
    loaded = load_problem(str(path))
    assert_problems_equal(bundle.problem, loaded.problem)
    # tuple-valued points survive the JSON list encoding
    assert all(isinstance(p, tuple) for p in loaded.problem.omega0.points)


def test_missing_sections_and_bad_spaces_are_rejected():
    with pytest.raises(ValidationError):
        problem_from_dict([])
    with pytest.raises(ValidationError):
        problem_from_dict({})
    base = problem_to_dict(random_team(0))
    for section in ("spaces", "prior", "kernels", "cost"):
        broken = json.loads(json.dumps(base))
        del broken[section]
        with pytest.raises(ValidationError):
            problem_from_dict(broken)

    no_omega = json.loads(json.dumps(base))
    del no_omega["spaces"]["omega0"]
    with pytest.raises(ValidationError):
        problem_from_dict(no_omega)

    lopsided = json.loads(json.dumps(base))
    lopsided["spaces"]["actions"] = lopsided["spaces"]["actions"][:1]
    with pytest.raises(ValidationError):
        problem_from_dict(lopsided)

    not_a_dict = json.loads(json.dumps(base))
    not_a_dict["spaces"]["omega0"] = [0, 1]
    with pytest.raises(ValidationError):
        problem_from_dict(not_a_dict)


def test_unknown_labels_and_bad_arity_are_rejected():
    base = problem_to_dict(random_team(1, dynamic=True))

    bad_prior = json.loads(json.dumps(base))
    bad_prior["prior"]["ghost"] = 0.5
    with pytest.raises(ValidationError, match="unknown exogenous"):
        problem_from_dict(bad_prior)

    short_history = json.loads(json.dumps(base))
    row = next(iter(short_history["kernels"][1].values()))
    short_history["kernels"][1] = {"0": row}
    with pytest.raises(ValidationError, match="expected 2"):
        problem_from_dict(short_history)

    bad_action = json.loads(json.dumps(base))
    key, row = next(iter(bad_action["kernels"][1].items()))
    bad_action["kernels"][1]["0|ghost"] = row
    with pytest.raises(ValidationError, match="unknown action"):
        problem_from_dict(bad_action)

    bad_measurement = json.loads(json.dumps(base))
    key = next(iter(bad_measurement["kernels"][0]))
    bad_measurement["kernels"][0][key] = {"ghost": 1.0}
    with pytest.raises(ValidationError, match="unknown measurement"):
        problem_from_dict(bad_measurement)

    wrong_kernel_count = json.loads(json.dumps(base))
    wrong_kernel_count["kernels"] = wrong_kernel_count["kernels"][:1]
    with pytest.raises(ValidationError, match="kernel tables"):
        problem_from_dict(wrong_kernel_count)

    bad_cost_key = json.loads(json.dumps(base))
    bad_cost_key["cost"]["0|0"] = 1.0
    with pytest.raises(ValidationError, match="expected 3"):
        problem_from_dict(bad_cost_key)

    bad_cost_action = json.loads(json.dumps(base))
    bad_cost_action["cost"]["0|ghost|0"] = 1.0
    with pytest.raises(ValidationError, match="unknown action"):
        problem_from_dict(bad_cost_action)


def test_reserved_separator_and_string_collisions_are_rejected():
    omega = FiniteSpace("w", ["a|b", "c"])
    prior = Pmf(omega, [0.5, 0.5])
    y1 = FiniteSpace("y1", [0])
    u1 = FiniteSpace("u1", [0, 1])
    kernel = MeasurementKernel(1, [[1.0], [1.0]])
    cost = CostTable([[1.0, 2.0], [3.0, 4.0]])
    problem = TeamProblem(omega, prior, [y1], [u1], [kernel], cost)
    with pytest.raises(ValidationError, match="separator"):
        problem_to_dict(problem)

    # int 1 and string "1" collide once stringified
    omega2 = FiniteSpace("w", [1, "1"])
    problem2 = TeamProblem(omega2, Pmf(omega2, [0.5, 0.5]), [y1], [u1], [kernel], cost)
    with pytest.raises(ValidationError, match="string form"):
        problem_to_dict(problem2)


def test_measure_writer_refuses_labels_the_reader_would_refuse():
    omega = FiniteSpace("w", ["a|b", "c"])
    problem = TeamProblem(
        omega,
        Pmf(omega, [0.5, 0.5]),
        [FiniteSpace("y1", [0])],
        [FiniteSpace("u1", [0, 1])],
        [MeasurementKernel(1, [[1.0], [1.0]])],
        CostTable([[1.0, 2.0], [3.0, 4.0]]),
    )
    with pytest.raises(ValidationError) as wrote_problem:
        problem_to_dict(problem)
    measure = induce_LA(problem, random_profile(problem, 0))
    with pytest.raises(ValidationError) as wrote_measure:
        measure_to_dict(measure)
    assert str(wrote_measure.value) == str(wrote_problem.value)
    assert "reserved separator" in str(wrote_measure.value)


def test_measure_roundtrip_deterministic_and_randomized(tmp_path):
    problem = random_team(4, dynamic=True)
    for measure in (
        induce_LA(problem, random_profile(problem, 0)),
        induce_LR(problem, random_randomized_profile(problem, 1)),
    ):
        doc = json.loads(json.dumps(measure_to_dict(measure)))
        back = measure_from_dict(problem, doc)
        # construction renormalizes total mass, so equality holds to
        # one rounding of the sum; the support must match exactly
        assert np.allclose(back.joint, measure.joint, rtol=1e-12, atol=1e-15)
        assert np.array_equal(back.joint != 0.0, measure.joint != 0.0)
        assert back.origin == measure.origin
        # only nonzero cells are written
        assert len(doc["joint"]) == int(np.count_nonzero(measure.joint))

    measure = induce_LA(problem, random_profile(problem, 2))
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure_to_dict(measure)))
    assert np.allclose(
        load_measure(problem, str(path)).joint, measure.joint, rtol=1e-12, atol=1e-15
    )


def test_measure_parsing_errors():
    problem = random_team(5)
    measure = induce_LA(problem, random_profile(problem, 0))
    doc = measure_to_dict(measure)

    with pytest.raises(ValidationError):
        measure_from_dict(problem, {"origin": "x"})

    wrong_arity = {"joint": {"0|0": 1.0}}
    with pytest.raises(ValidationError, match="expected 5"):
        measure_from_dict(problem, wrong_arity)

    key = next(iter(doc["joint"]))
    parts = key.split("|")
    parts[0] = "ghost"
    bad_point = {"joint": {"|".join(parts): 0.5}}
    with pytest.raises(ValidationError, match="unknown point"):
        measure_from_dict(problem, bad_point)


def with_entries(section: dict, first, second) -> dict:
    """The section with two extra entries: ``first`` after its first
    entry and ``second`` at the end."""
    items = list(section.items())
    return dict(items[:1] + [first] + items[1:] + [second])


def test_the_first_offending_key_in_document_order_is_reported():
    base = problem_to_dict(random_team(1, dynamic=True))
    row = next(iter(base["kernels"][1].values()))
    # (section, entry with an unknown label, entry with the wrong arity)
    cases = {
        "prior": (("ghost", 0.1), ("0|0", 0.1)),
        "cost": (("0|ghost|0.0", 1.0), ("0|0.0", 1.0)),
        "kernel": (("0|ghost", row), ("0|0.0|0.0", row)),
    }
    for name, (label, arity) in cases.items():
        for first, second in ((label, arity), (arity, label)):
            doc = json.loads(json.dumps(base))
            if name == "kernel":
                doc["kernels"][1] = with_entries(doc["kernels"][1], first, second)
            else:
                doc[name] = with_entries(doc[name], first, second)
            with pytest.raises(ValidationError) as err:
                problem_from_dict(doc)
            assert repr(first[0]) in str(err.value)
            assert repr(second[0]) not in str(err.value)

    # a row's fault comes before a later history key's, and after its own key's
    doc = json.loads(json.dumps(base))
    key = next(iter(doc["kernels"][1]))
    doc["kernels"][1][key] = {"ghost": 1.0}
    doc["kernels"][1]["0|ghost"] = row
    with pytest.raises(ValidationError, match="unknown measurement 'ghost'"):
        problem_from_dict(doc)
    doc["kernels"][1] = {"0|ghost": {"ghost": 1.0}}
    with pytest.raises(ValidationError, match="unknown action 'ghost'"):
        problem_from_dict(doc)
    # the same holds for a row that is not an object
    doc["kernels"][1] = {key: [1.0], "0|ghost": row}
    with pytest.raises(ValidationError, match="must be a JSON object"):
        problem_from_dict(doc)
    doc["kernels"][1] = {"0|ghost": row, key: [1.0]}
    with pytest.raises(ValidationError, match="unknown action 'ghost'"):
        problem_from_dict(doc)

    problem = random_team(5)
    joint = measure_to_dict(induce_LA(problem, random_profile(problem, 0)))["joint"]
    label, arity = ("ghost|0|0.0|0|0.0", 0.5), ("0|0|0.0", 0.5)
    for first, second in ((label, arity), (arity, label)):
        with pytest.raises(ValidationError) as err:
            measure_from_dict(problem, {"joint": with_entries(joint, first, second)})
        assert repr(first[0]) in str(err.value)
        assert repr(second[0]) not in str(err.value)


def test_malformed_values_and_sections_are_validation_errors():
    base = problem_to_dict(random_team(1, dynamic=True))
    cost_key = next(iter(base["cost"]))
    prior_key = next(iter(base["prior"]))
    hist_key = next(iter(base["kernels"][0]))
    y_label = next(iter(base["kernels"][0][hist_key]))
    cases = [
        (("cost", cost_key), "abc", f"cost value 'abc' for '{cost_key}' is not a number"),
        (("cost", cost_key), None, f"cost value None for '{cost_key}' is not a number"),
        (("prior", prior_key), "0.5x", f"prior value '0.5x' for '{prior_key}'"),
        (("cost", cost_key), [1.0], "is not a number"),
        (("cost", cost_key), 10**400, "is not a number"),
        (("kernels", 0, hist_key, y_label), {}, f"DM 1 kernel row '{hist_key}' value {{}}"),
        (("kernels", 0, hist_key), [0.5, 0.5], f"DM 1 kernel row '{hist_key}' must be"),
        (("kernels", 1), [], "DM 2 kernel table must be a JSON object"),
        (("cost",), [], "cost section must be a JSON object"),
        (("prior",), "0.5", "prior section must be a JSON object"),
        (("kernels",), {}, "kernels section must be a JSON list"),
        (("spaces",), ["omega0"], "spaces section must be a JSON object"),
        (("spaces", "measurements"), 5, "equal-length, nonempty"),
        (("spaces", "omega0", "points"), 5, "space entry for 'omega0' must be"),
        (("spaces", "omega0", "points", -1), {}, "a point of space 'w' holds {}"),
        (("spaces", "measurements", 0, "points", -1), [0, {"a": 1}],
         "a point of space 'y1' holds {'a': 1}"),
        (("spaces", "actions", 1, "points", -1), [[1.0, [{}]]], "a point of space 'u2' holds {}"),
    ]
    for path, value, message in cases:
        doc = json.loads(json.dumps(base))
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ValidationError) as err:
            problem_from_dict(doc)
        assert message in str(err.value), (path, value)

    # the first offending entry wins, whether its key or its value is bad
    doc = json.loads(json.dumps(base))
    doc["cost"][list(base["cost"])[-1]] = "abc"
    doc["cost"] = with_entries(doc["cost"], ("0|ghost|0.0", 1.0), ("0|0", 1.0))
    with pytest.raises(ValidationError, match="unknown action 'ghost'"):
        problem_from_dict(doc)
    doc = json.loads(json.dumps(base))
    doc["cost"][cost_key] = "abc"
    doc["cost"] = with_entries(doc["cost"], ("0|ghost|0.0", 1.0), ("0|0", 1.0))
    with pytest.raises(ValidationError, match=f"cost value 'abc' for '{cost_key}'"):
        problem_from_dict(doc)

    # values load as float() reads them: numeric strings and booleans pass
    doc = json.loads(json.dumps(base))
    doc["cost"][cost_key] = "0.25"
    doc["prior"] = {prior_key: True}
    loaded = problem_from_dict(doc)
    assert loaded.cost.table.reshape(-1)[0] == 0.25
    assert loaded.prior.mass.tolist() == [1.0, 0.0, 0.0]

    problem = random_team(5)
    key = next(iter(measure_to_dict(induce_LA(problem, random_profile(problem, 0)))["joint"]))
    with pytest.raises(ValidationError, match=f"measure value 'x' for '{key}'"):
        measure_from_dict(problem, {"joint": {key: "x"}})
    with pytest.raises(ValidationError, match="measure section must be a JSON object"):
        measure_from_dict(problem, {"joint": [1.0]})


def test_reference_mass_maps_load_like_a_prior(tmp_path):
    problem = random_team(3, y_sizes=(3, 2))
    path = tmp_path / "refs.json"
    path.write_text(json.dumps([{"0": "0.25", "2": 0.75}, {"1": "1", "0": 0}]))
    refs = load_references(problem, str(path))
    assert [r.space for r in refs] == list(problem.y_spaces)
    assert refs[0].mass.tolist() == [0.25, 0.0, 0.75]
    assert refs[1].mass.tolist() == [0.0, 1.0]

    for bad, message in (
        ({"0": 1.0}, "reference file must hold a list of 2 mass maps"),
        ([{"0": 1.0}], "reference file must hold a list of 2 mass maps"),
        ([{"0": 1.0}, "x"], "reference for DM 2 must map points of 'y2' to masses, got 'x'"),
        ([{"3": 1.0}, {"0": 1.0}], "reference for DM 1 names unknown measurement '3'"),
        ([{"0": 1.0}, {"0": None}], "reference for DM 2 value None for '0' is not a number"),
        ([{"0": "half"}, {"0": 1.0}], "reference for DM 1 value 'half' for '0' is not a number"),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError) as err:
            load_references(problem, str(path))
        assert str(err.value) == message


# -- the writer's text and the reader's full-table path against oracles --------


class Shade(Enum):
    LIGHT = "light"
    DARK = 2


class Level(IntEnum):
    LOW = 1


@dataclasses.dataclass
class Pair:
    left: object
    right: object


def _report_docs():
    """Report-like trees: nested dicts, lists and tuples, empty ones too,
    str, int, float, bool and None keys, any text, NaN and +-inf, and what
    only ``to_jsonable`` encodes (numpy scalars, enums, dataclasses,
    Fractions)."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
        st.sampled_from([Shade.LIGHT, Shade.DARK, Level.LOW]), st.fractions(),
    )

    def nest(children):
        numbers = st.one_of(st.integers(), st.floats(), st.booleans())
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(), children, max_size=4),
            st.dictionaries(numbers, children, max_size=4),
            st.dictionaries(st.none(), children, max_size=1),
            st.builds(Pair, children, children),
        )

    return st.recursive(leaves, nest, max_leaves=40)


@settings(max_examples=300)
@given(doc=_report_docs())
def test_json_text_writes_the_bytes_of_json_dumps(doc):
    want = json.dumps(doc, default=to_jsonable, sort_keys=True, indent=2) + "\n"
    assert json_text(doc, default=to_jsonable) == want


def test_json_text_refuses_what_json_dumps_refuses():
    for doc in ({(1, 2): [[1]]}, {(1, 2): 1}, [[object()]]):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            json_text(doc)
        assert str(got.value) == str(want.value)


def written_doc(problem) -> dict:
    """A problem file as the writer lays it out: the per-cell literal
    document with every object's keys sorted, read back from its text."""
    return json.loads(json.dumps(literal_problem_doc(problem), sort_keys=True))


def read(doc):
    """The loaded tables' bytes, or the ValidationError's text."""
    try:
        p = problem_from_dict(doc)
    except ValidationError as e:
        return str(e)
    return [t.tobytes() for t in [p.prior.mass, *(k.table for k in p.kernels), p.cost.table]]


def split_read(doc):
    """``read`` with the full-table path switched off: every section split."""
    with mock.patch.object(probio, "_written_at", lambda keys, maps: None):
        return read(doc)


def perturbed(doc: dict, section: str, kind: str, rng) -> dict:
    """``doc`` with one section's keys shuffled, one entry dropped, one
    label unknown, or one value not a number or a numeric string."""
    doc = json.loads(json.dumps(doc))
    owner, name = (doc["kernels"], -1) if section == "kernel" else (doc, section)
    items = list(owner[name].items())
    i = int(rng.integers(len(items)))
    key, value = items[i]
    if kind == "shuffle":
        items = [items[j] for j in rng.permutation(len(items))]
    elif kind == "drop":
        del items[i]
    elif kind == "unknown":
        parts = key.split("|")
        parts[int(rng.integers(len(parts)))] = "ghost"
        items[i] = ("|".join(parts), value)
    elif kind == "not-a-number":
        items[i] = (key, [value] if section == "kernel" else "abc")
    else:  # a numeric string, which float() reads
        items[i] = (key, {y: str(p) for y, p in value.items()} if section == "kernel" else str(value))
    owner[name] = dict(items)
    return doc


@settings(max_examples=120)
@given(
    sparse=st.booleans(),
    dms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 11)), min_size=1, max_size=2),
    n_omega=st.integers(1, 11),
    dynamic=st.booleans(),
    zeros=st.booleans(),
    section=st.sampled_from(["prior", "kernel", "cost"]),
    kind=st.sampled_from(["shuffle", "drop", "unknown", "not-a-number", "numeric-string"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_tables_load_as_the_split_parse_loads_them(
    sparse, dms, n_omega, dynamic, zeros, section, kind, seed
):
    y_sizes, u_sizes = zip(*dms)
    if sparse:
        problem = sparse_team(seed, y_sizes, u_sizes, dynamic, zeros, n_omega=n_omega)
    else:
        problem = random_team(seed, n_omega, y_sizes, u_sizes, dynamic)
    doc = written_doc(problem)
    real, found = probio._written_at, []

    def spy(keys, maps):
        found.append(real(keys, maps))
        return found[-1]

    with mock.patch.object(probio, "_written_at", spy):
        tables = read(doc)
    assert found[-1] is not None  # the cost, read last, lists every cell
    assert tables == split_read(doc)
    changed = perturbed(doc, section, kind, np.random.default_rng(seed))
    assert read(changed) == split_read(changed)


@settings(max_examples=25)
@given(
    n_omega=st.integers(2, 4),
    u1=st.integers(300, 700),
    u2=st.integers(300, 700),
    over=st.integers(-2, 2),
)
def test_the_reader_refuses_a_table_over_the_cap_before_building_it(n_omega, u1, u2, over):
    # the cost is the largest table; one key of it is listed
    cells = n_omega * u1 * u2
    doc = {
        "spaces": {
            "omega0": {"points": list(range(n_omega))},
            "measurements": [{"points": [0]}, {"points": [0]}],
            "actions": [{"points": list(range(u1))}, {"points": list(range(u2))}],
        },
        "prior": {"0": 1.0},
        "kernels": [{"0": {"0": 1.0}}, {}],
        "cost": {"0|0|0": 1.0},
    }
    cap = cells - over
    with mock.patch.object(probio, "TABLE_CAP", cap), mock.patch.object(model, "TABLE_CAP", cap):
        tracemalloc.start()
        try:
            problem = problem_from_dict(doc)
        except CapExceeded as e:
            refused, peak = (e.count, e.cap), tracemalloc.get_traced_memory()[1]
        else:
            refused = None
        finally:
            tracemalloc.stop()
    if cells > cap:
        assert refused == (cells, cap)
        assert peak < 8 * cells // 2  # the table itself was never allocated
    else:
        assert refused is None
        assert problem.cost.table.shape == (n_omega, u1, u2)
