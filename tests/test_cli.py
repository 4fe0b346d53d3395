"""End-to-end CLI runs, in process via main(argv).

Covers exit codes (0 analysis, 1 analysis errors, 2 bad input), report
shape, determinism of emitted bytes, and agreement between subcommands
that compute the same quantity along different paths.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import teamdec
from teamdec import cli, strategic
from teamdec.cli import main
from teamdec.constants import LP_TOL
from teamdec.convexity import (
    BlockRecord,
    CellWitness,
    VerdictKind,
    policy_midpoint_test,
)
from teamdec.gallery import EncoderFlipReport, IntervalRecord, NegationBoundReport
from teamdec.model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    TeamProblem,
    Violation,
    expected_cost,
)
from teamdec.probio import (
    json_text,
    load_problem,
    measure_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from teamdec.solvers import pbp_iterate
from teamdec.strategic import FailureRecord, induce_LA, mix

from conftest import (
    deterministic_team,
    enumerate_profiles_literal,
    naive_expected_cost,
    random_profile,
    random_team,
    relay_team,
    sign_product_team,
    three_dm_bsc_team,
    to_jsonable_literal,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_team(tmp_path, name, problem):
    path = tmp_path / name
    save_problem(problem, str(path))
    return str(path)


def numeric_grid_team(cost_builder):
    """Static team with deterministic kernels and numeric action grids:
    both DMs observe the exogenous point exactly."""
    omega = FiniteSpace("w", [-1.0, 0.0, 1.0])
    prior = Pmf(omega, [0.3, 0.4, 0.3])
    grid = [-1.0, 0.0, 1.0]
    y = [FiniteSpace("y1", [-1.0, 0.0, 1.0]), FiniteSpace("y2", [-1.0, 0.0, 1.0])]
    u = [FiniteSpace("u1", grid), FiniteSpace("u2", grid)]
    eye = np.eye(3)
    kernels = [
        MeasurementKernel(1, eye),
        MeasurementKernel(2, np.broadcast_to(eye[:, None, :], (3, 3, 3)).copy()),
    ]
    w_vals = np.array([-1.0, 0.0, 1.0])
    g = np.array(grid)
    cost = cost_builder(
        w_vals[:, None, None], g[None, :, None], g[None, None, :]
    )
    return TeamProblem(omega, prior, y, u, kernels, CostTable(cost))


def signaling_chain_team():
    """DM1 sees a uniform bit, DM2 sees only DM1's action, and pays for
    guessing the bit: policy-mixture midpoints break realizability."""
    omega = FiniteSpace("bit", [0, 1])
    prior = Pmf(omega, [0.5, 0.5])
    y1 = FiniteSpace("y1", [0, 1])
    y2 = FiniteSpace("y2", [0, 1])
    u1 = FiniteSpace("u1", [0, 1])
    u2 = FiniteSpace("u2", [0, 1])
    k1 = MeasurementKernel(1, np.eye(2))
    t2 = np.zeros((2, 2, 2))
    for w in range(2):
        for a in range(2):
            t2[w, a, a] = 1.0
    k2 = MeasurementKernel(2, t2)
    cost = np.zeros((2, 2, 2))
    for w in range(2):
        for b in range(2):
            cost[w, :, b] = float(w != b)
    return TeamProblem(omega, prior, [y1, y2], [u1, u2], [k1, k2], CostTable(cost))


def test_package_and_cli_load_only_numpy_beyond_the_standard_library():
    # numpy-only at runtime: every top-level module that importing the
    # package and its CLI loads, past those loaded at interpreter start,
    # is in the standard library, numpy or teamdec itself
    code = (
        "import sys; before = set(sys.modules)\n"
        "import teamdec, teamdec.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.dirname(os.path.dirname(teamdec.__file__))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert set(run.stdout.split()) <= {"numpy", "teamdec"}
    assert "teamdec" in run.stdout.split()


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def test_validate_ok_report_and_digest(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(0))
    code, report = run_cli(capsys, "validate", path)
    assert code == 0
    assert report["tool"] == "teamdec"
    assert report["command"] == "validate"
    assert report["seed"] == 0
    assert report["is_valid"] is True
    assert report["violations"] == []
    assert isinstance(report["tolerances"], dict)
    raw = (tmp_path / "team.json").read_bytes()
    assert report["input_digest"] == hashlib.sha256(raw).hexdigest()


def test_validate_invalid_file_exits_2(tmp_path, capsys):
    problem = random_team(1)
    path = tmp_path / "bad.json"
    save_problem(problem, str(path))
    doc = json.loads(path.read_text())
    # break a kernel row's normalization (loads fine, fails validate)
    key = next(iter(doc["kernels"][0]))
    label = next(iter(doc["kernels"][0][key]))
    doc["kernels"][0][key][label] += 0.5
    path.write_text(json.dumps(doc))

    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert report["is_valid"] is False
    assert any(v["code"] == "kernel-row" for v in report["violations"])


def test_validate_analysis_commands_reject_invalid_input(tmp_path, capsys):
    problem = random_team(1)
    path = tmp_path / "bad.json"
    save_problem(problem, str(path))
    doc = json.loads(path.read_text())
    key = next(iter(doc["kernels"][0]))
    label = next(iter(doc["kernels"][0][key]))
    doc["kernels"][0][key][label] += 0.5
    path.write_text(json.dumps(doc))

    code, report = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["violations"]


def test_validate_lists_a_bounded_prefix_of_many_violations(tmp_path, capsys):
    """Three DMs of 40 actions and one kernel row each leave 9 + 399 +
    15,999 histories without a row: the report lists the first 100 and
    one closing entry with the total, which the refusal message keeps."""
    path = tmp_path / "holes.json"
    path.write_text(json.dumps({
        "spaces": {"omega0": {"points": list(range(10))},
                   "measurements": [{"points": [0]}] * 3,
                   "actions": [{"points": list(range(40))}] * 3},
        "prior": {"0": 1.0},
        "kernels": [{"0": {"0": 1.0}}, {"0|0": {"0": 1.0}}, {"0|0|0": {"0": 1.0}}],
        "cost": {"0|0|0|0": 1.0},
    }))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    listed = report["violations"]
    assert len(listed) == 101 and {v["code"] for v in listed} == {"kernel-row"}
    assert [v["where"] for v in listed[:10]] == [[1, w] for w in range(1, 10)] + [[2, 0, 1]]
    assert listed[-1] == {
        "code": "kernel-row",
        "where": [],
        "message": "16407 kernel rows in all are not probability vectors; "
        "the first 100 are listed",
    }
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert report["error"]["message"] == f"{path} failed validation with 16407 violation(s)"
    assert report["error"]["violations"] == listed


def test_missing_file_and_broken_json_exit_2(tmp_path, capsys):
    code, report = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert report["error"]["type"] == "FileNotFound"

    broken = tmp_path / "broken.json"
    broken.write_text('{"spaces": [unclosed')
    code, report = run_cli(capsys, "classify", str(broken))
    assert code == 2
    assert report["error"]["type"] == "ParseError"

    code, report = run_cli(capsys, "validate", str(tmp_path))
    assert code == 2
    assert report["error"]["type"] == "IsADirectory"

    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    code, report = run_cli(capsys, "validate", str(not_utf8))
    assert code == 2
    assert report["error"]["type"] == "ParseError"

    # malformed values and sections name the section and the first bad key
    path = write_team(tmp_path, "team.json", random_team(1))
    base = json.loads((tmp_path / "team.json").read_text())
    cost_key, prior_key = next(iter(base["cost"])), next(iter(base["prior"]))
    hist_key = next(iter(base["kernels"][0]))
    for edit, message in [
        (lambda d: d["cost"].update({cost_key: "abc"}), f"cost value 'abc' for '{cost_key}'"),
        (lambda d: d["cost"].update({cost_key: None}), f"cost value None for '{cost_key}'"),
        (lambda d: d["prior"].update({prior_key: "0.5x"}), f"prior value '0.5x' for '{prior_key}'"),
        (lambda d: d["kernels"][0].update({hist_key: [1.0]}), f"DM 1 kernel row '{hist_key}'"),
        (lambda d: d.update(cost=[1.0]), "cost section must be a JSON object"),
    ]:
        doc = json.loads(json.dumps(base))
        edit(doc)
        (tmp_path / "team.json").write_text(json.dumps(doc))
        code, report = run_cli(capsys, "validate", path)
        assert code == 2
        assert report["error"]["type"] == "ValidationError"
        assert message in report["error"]["message"]


def test_a_json_object_point_gets_a_report_not_a_traceback(tmp_path):
    doc = problem_to_dict(random_team(0))
    doc["spaces"]["omega0"]["points"][-1] = {}
    path = tmp_path / "object-point.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(teamdec.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "teamdec.cli", "validate", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (2, "")
    report = json.loads(run.stdout)  # one JSON object, nothing after it
    assert report["error"] == {
        "type": "ValidationError",
        "message": "a point of space 'w' holds {}; points are strings, numbers, "
        "bools, nulls or lists of these",
    }


@pytest.mark.parametrize("annotations", [
    {"subsystems": {"factor_sizes": [2], "dm_state_factors": [[0], []], "shared_factors": []}},
    {"subsystems": {"factor_sizes": [3]}},
], ids=["valid", "malformed"])
def test_an_annotations_section_changes_no_report(tmp_path, capsys, annotations):
    # the reader ignores keys it does not know, annotations among them
    problem = deterministic_team(4, 2, [(2, 2), (2, 2)], zero_prior=False)
    plain = write_team(tmp_path, "plain.json", problem)
    doc = json.loads((tmp_path / "plain.json").read_text())
    annotated = tmp_path / "annotated.json"
    annotated.write_text(json.dumps({**doc, "annotations": annotations}))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(measure_to_dict(induce_LA(problem, random_profile(problem, 0)))))
    for command in (
        ["validate"], ["classify"], ["reduce"], ["certify-convexity"],
        ["solve", "--method", "brute"], ["solve", "--method", "pbp"],
        ["solve", "--method", "mixture-lp"], ["strategic", "enumerate"],
        ["strategic", "witness"], ["strategic", "check", "--measure", str(measure)],
    ):
        code, want = run_cli(capsys, *command, plain)
        assert code == 0, want
        del want["input_digest"]
        code, got = run_cli(capsys, *command, str(annotated))
        assert code == 0, got
        del got["input_digest"]
        assert got == want, command


def test_unknown_subcommand_and_choice_are_usage_errors(tmp_path, capsys):
    for argv in (
        ["frobnicate", "x.json"],
        ["gallery", "unknown-name"],
        ["validate", "x.json", "--format", "json"],
        # only reduce, certify-convexity and gallery read a seed
        ["validate", "x.json", "--seed", "1"],
        ["classify", "x.json", "--seed", "1"],
        ["solve", "x.json", "--method", "brute", "--seed", "1"],
        ["strategic", "enumerate", "x.json", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------


def test_classify_static_and_relay(tmp_path, capsys):
    static_path = write_team(tmp_path, "static.json", random_team(0))
    code, report = run_cli(capsys, "classify", static_path)
    assert code == 0
    assert report["is_class"] == "static"
    assert report["precedence_edges"] == []

    relay_path = write_team(tmp_path, "relay.json", relay_team(5))
    code, report = run_cli(capsys, "classify", relay_path)
    assert code == 0
    assert report["is_class"] == "partially-nested"
    assert report["precedence_edges"] == [[1, 2]]
    assert report["edge_nested"] == {"1->2": True}


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def test_solve_brute_and_mixture_lp_agree(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(2))
    code = main(["solve", path, "--method", "brute"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""  # the scan's DEBUG line has no handler by default
    brute = json.loads(out)
    assert brute["tolerances"]["tie_tol"] == 1e-12
    code, lp = run_cli(capsys, "solve", path, "--method", "mixture-lp")
    assert code == 0
    assert lp["value"] == pytest.approx(brute["value"], abs=1e-9)
    assert lp["support"] == [[brute["profile_index"], 1.0]]
    assert lp["profile"] == brute["profile"]
    assert brute["n_profiles"] == 16


@pytest.mark.parametrize("seed, y_sizes, u_sizes", [
    (0, (2, 2), (2, 2)),
    (1, (2, 3), (3, 2)),
    (2, (3, 1), (2, 3)),
    (3, (2, 1, 2), (2, 2, 2)),
])
def test_solve_mixture_lp_reports_the_vertex_a_literal_scan_finds(
    tmp_path, capsys, seed, y_sizes, u_sizes
):
    team = random_team(seed, y_sizes=y_sizes, u_sizes=u_sizes, dynamic=bool(seed % 2))
    path = write_team(tmp_path, "team.json", team)
    loaded = load_problem(path).problem  # the scan reads what the CLI reads
    profiles = list(enumerate_profiles_literal(loaded))
    values = [naive_expected_cost(loaded, p) for p in profiles]
    want = int(np.argmin(values))
    code, rep = run_cli(capsys, "solve", path, "--method", "mixture-lp")
    assert code == 0
    assert rep["value"] == pytest.approx(values[want], abs=LP_TOL)
    assert rep["support"] == [[want, 1.0]]
    assert rep["profile"]["action_indices"] == [a.tolist() for a in profiles[want].actions]
    assert rep["n_profiles"] == len(profiles)


def test_solve_pbp_init_inline_and_file(tmp_path, capsys):
    problem = random_team(3)
    path = write_team(tmp_path, "team.json", problem)
    init = {"actions": [[0, 0], [0, 0]]}

    code, inline = run_cli(
        capsys, "solve", path, "--method", "pbp", "--init", json.dumps(init)
    )
    assert code == 0
    assert inline["converged"] is True
    expected = pbp_iterate(
        problem, init=DeterministicProfile([np.zeros(2, int), np.zeros(2, int)])
    )
    assert inline["value"] == pytest.approx(expected.value, abs=1e-12)
    assert inline["trace"] == pytest.approx(list(expected.trace), abs=1e-12)

    init_path = tmp_path / "init.json"
    init_path.write_text(json.dumps(init))
    code, from_file = run_cli(
        capsys, "solve", path, "--method", "pbp", "--init", str(init_path)
    )
    assert code == 0
    assert from_file["value"] == inline["value"]
    assert from_file["trace"] == inline["trace"]

    bad_inits = {
        '{"wrong": 1}': "ValidationError",
        '{"actions": 5}': "ValidationError",
        '{"actions": [["a", 0], [0, 0]]}': "ValidationError",
        '{"actions": [[0.7, 0], [0, 0]]}': "ValidationError",
        '{"actions": [[0, 0]]}': "DimensionMismatch",
        '{"actions": [[0, 0], [0, 0], [0, 0]]}': "DimensionMismatch",
    }
    for bad, kind in bad_inits.items():
        code, report = run_cli(capsys, "solve", path, "--method", "pbp", "--init", bad)
        assert code == 2, bad
        assert report["error"]["type"] == kind, bad


def test_solve_cap_exceeded_exits_1(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(2))
    code, report = run_cli(capsys, "solve", path, "--method", "brute", "--cap", "3")
    assert code == 1
    assert report["error"]["type"] == "CapExceeded"


def test_negative_cap_or_limit_is_a_validation_error(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(2))
    for argv in (
        ["solve", path, "--method", "brute", "--cap", "-5"],
        ["solve", path, "--method", "mixture-lp", "--cap", "-1"],
        ["reduce", path, "--cap", "-1"],
        ["strategic", "enumerate", path, "--limit", "-1"],
        ["strategic", "enumerate", path, "--cap", "-1"],
        ["strategic", "witness", path, "--cap", "-1"],
    ):
        code, report = run_cli(capsys, *argv)
        assert code == 2, argv
        assert report["error"]["type"] == "ValidationError", argv
        assert "must be >= 0" in report["error"]["message"], argv
    code, report = run_cli(capsys, "strategic", "enumerate", path, "--limit", "0")
    assert code == 0 and report["first_values"] == []


def test_out_flag_writes_deterministic_bytes(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(2))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code, report = run_cli(
        capsys, "solve", path, "--method", "brute", "--out", str(out1)
    )
    assert code == 0
    assert report is None  # stdout stays empty when --out is given
    code, _ = run_cli(capsys, "solve", path, "--method", "brute", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["method"] == "brute"


def test_report_bytes_match_the_recursive_encoder(tmp_path):
    report = {
        "failures": (
            FailureRecord(2, "policy", ((0, "a"), (1.5, (2, "b")), "y"), np.float64(0.25)),
            FailureRecord(0, "prior", ("w",), 1e-3),
        ),
        "certificate": (
            BlockRecord(np.intp(0), np.float64(0.5), 0.125, True, np.int64(9)),
        ),
        "cell_witness": CellWitness(
            1, (("x", 2), 3.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5),
            0.5, np.float64(2.5), 2.0, 0.5,
        ),
        "intervals": [
            IntervalRecord(
                Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(1, 4),
                Fraction(-1, 12), Fraction(1, 10), True,
            )
        ],
        "encoder_flip": EncoderFlipReport(
            value_a=1.0, value_b=1.0, value_mid=1.5, value_avg=1.0, violation=0.5,
            first_stage_mid=0.04, lam=0.5,
        ),
        "negation_bound": NegationBoundReport(2.0, 2.0, 2.0, 1.0, np.float64(1.0)),
        "violations": [
            Violation("kernel-row", (1,) + np.unravel_index(3, (2, 2)), "row"),
            Violation("cost-negative", tuple(np.intp([0, 1, 0])), "neg"),
        ],
        "verdict": VerdictKind.NOT_CONVEX,
        "scalars": [np.bool_(True), np.float32(0.1), np.int64(-7), np.float64("nan")],
        "arrays": {"ints": np.arange(3), "grid": np.eye(2), "flags": np.array([True, False])},
        "nested": {"empty": (), "none": None, "inf": float("inf")},
        "unknown": [complex(1, -2), range(3)],  # written as their str
    }
    out = tmp_path / "report.json"
    cli._emit(report, argparse.Namespace(out=str(out)))
    want = json.dumps(to_jsonable_literal(report), sort_keys=True, indent=2) + "\n"
    assert out.read_text(encoding="utf-8") == want


def test_numpy_bools_are_written_as_json_bools():
    text = json_text({"x": np.bool_(True), "y": [np.bool_(False)]}, default=cli.to_jsonable)
    assert '"x": true' in text and json.loads(text) == {"x": True, "y": [False]}


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, report = run_cli(capsys, "gallery", "decoupled")
    assert code == 0
    assert report["coupled"] is False


# --------------------------------------------------------------------------
# reduce
# --------------------------------------------------------------------------


def test_reduce_dynamic_team_reports_equivalence(tmp_path, capsys):
    problem = random_team(4, dynamic=True)
    path = write_team(tmp_path, "team.json", problem)
    code, report = run_cli(capsys, "reduce", path)
    assert code == 0
    eq = report["equivalence"]
    assert eq["equivalent"] is True
    assert eq["profiles"] == 5
    assert eq["max_gap"] <= eq["tol"]
    assert len(report["references"]) == problem.n_dms

    reduced = report["reduced_problem"]
    assert reduced is not None
    from teamdec.infostruct import classify
    from teamdec.probio import problem_from_dict

    loaded = problem_from_dict(reduced)
    assert classify(loaded).value == "static"

    # explicit uniform reference masses keep the equivalence
    refs = [
        {str(p): 1.0 / len(problem.y_spaces[d]) for p in problem.y_spaces[d].points}
        for d in range(problem.n_dms)
    ]
    refs_path = tmp_path / "refs.json"
    refs_path.write_text(json.dumps(refs))
    code, report = run_cli(capsys, "reduce", path, "--reference", str(refs_path))
    assert code == 0
    assert report["equivalence"]["equivalent"] is True

    refs_path.write_text(json.dumps(refs[:1]))
    code, report = run_cli(capsys, "reduce", path, "--reference", str(refs_path))
    assert code == 2
    assert report["error"]["type"] == "ValidationError"

    # an unknown label, an entry that is not a mass map and a mass that is
    # not a number name their DM
    for bad, names in (
        ([{"nope": 1.0}, {"0": 1.0}], ("DM 1", "'nope'")),
        ([{"0": 1.0}, [1.0, 0.0]], ("DM 2", "[1.0, 0.0]")),
        ([{"0": "x"}, {"0": 1.0}], ("DM 1", "'x'")),
    ):
        refs_path.write_text(json.dumps(bad))
        code, report = run_cli(capsys, "reduce", path, "--reference", str(refs_path))
        assert code == 2
        assert report["error"]["type"] == "ValidationError"
        assert all(name in report["error"]["message"] for name in names)


def test_reduce_reads_reference_masses_like_a_prior(tmp_path, capsys):
    problem = random_team(4, dynamic=True)
    path = write_team(tmp_path, "team.json", problem)
    refs_path = tmp_path / "refs.json"
    # numeric strings load as floats, as they do in problem files
    refs_path.write_text(json.dumps([{"0": "0.25", "1": "0.75"}, {"0": 0.5, "1": "5e-1"}]))
    code, report = run_cli(capsys, "reduce", path, "--reference", str(refs_path))
    assert code == 0
    assert report["equivalence"]["equivalent"] is True
    for d, mass in enumerate(([0.25, 0.75], [0.5, 0.5])):
        y = problem.y_spaces[d]
        u = FiniteSpace("u", [0])
        alone = TeamProblem(
            y, Pmf(y, mass), [y], [u], [MeasurementKernel(1, np.eye(len(y)))],
            CostTable(np.zeros((len(y), 1))),
        )
        assert report["references"][d] == problem_to_dict(alone)["prior"]
    assert report["references"][0] == {"0": 0.25, "1": 0.75}


def test_every_command_refuses_a_file_whose_cost_exceeds_the_table_cap(tmp_path, capsys):
    # 100 exogenous points and 1000 actions per DM declare a 1e8-cell cost
    # (5 x TABLE_CAP) with one key listed: counted and refused before any table
    doc = {
        "spaces": {
            "omega0": {"points": list(range(100))},
            "measurements": [{"points": [0]}, {"points": [0]}],
            "actions": [{"points": list(range(1000))}, {"points": list(range(1000))}],
        },
        "prior": {str(w): 0.01 for w in range(100)},
        "kernels": [{str(w): {"0": 1.0} for w in range(100)}, {}],
        "cost": {"0|0|0": 1.0},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"joint": {}}))
    for argv in (
        ["validate"], ["classify"], ["reduce"], ["certify-convexity"],
        ["solve", "--method", "brute"], ["solve", "--method", "pbp"],
        ["solve", "--method", "mixture-lp"], ["strategic", "enumerate"],
        ["strategic", "witness"], ["strategic", "check", "--measure", str(measure)],
    ):
        words = 2 if argv[0] == "strategic" else 1
        start = time.perf_counter()
        code, report = run_cli(capsys, *argv[:words], str(path), *argv[words:])
        assert time.perf_counter() - start < 1.0, argv
        assert code == 1, argv
        assert report["error"] == {
            "type": "CapExceeded",
            "message": "enumeration of 100000000 items exceeds cap 20000000",
        }


def test_reduce_cap_skips_materialization(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(4, dynamic=True))
    code, report = run_cli(capsys, "reduce", path, "--cap", "1", "--seed", "3")
    assert code == 0
    assert report["seed"] == 3
    assert report["reduced_problem"] is None
    assert "exceeds cap" in report["reduced_skipped"]
    assert report["equivalence"]["equivalent"] is True


def test_reduce_cap_counts_the_cost_and_the_stored_kernel_rows(tmp_path, capsys):
    # the cost holds 27 * 4 cells; DM 2's full-shape kernel, never built, 162
    team = random_team(5, y_sizes=(3, 3), dynamic=True)
    path = write_team(tmp_path, "team.json", team)
    code, report = run_cli(capsys, "reduce", path, "--cap", "107")
    assert code == 0
    assert report["reduced_skipped"] == "enumeration of 108 items exceeds cap 107"
    code, report = run_cli(capsys, "reduce", path, "--cap", "130")
    assert code == 0
    reduced = problem_from_dict(report["reduced_problem"])
    for prof in enumerate_profiles_literal(team):
        assert expected_cost(reduced, prof) == pytest.approx(
            expected_cost(team, prof), abs=1e-10
        )


# --------------------------------------------------------------------------
# certify-convexity
# --------------------------------------------------------------------------


def test_certify_convex_team(tmp_path, capsys):
    problem = numeric_grid_team(lambda w, u1, u2: (u1 + u2 - w) ** 2)
    path = write_team(tmp_path, "convex.json", problem)
    code, report = run_cli(capsys, "certify-convexity", path, "--seed", "2")
    assert code == 0
    assert report["seed"] == 2
    assert report["verdict"] == "convex"
    assert report["certificate"]
    assert "cell_witness" not in report and "policy_witness" not in report


def test_certify_not_convex_team_reports_witness(tmp_path, capsys):
    problem = numeric_grid_team(lambda w, u1, u2: 2.0 - u1**2 - u2**2 + 0.0 * w)
    path = write_team(tmp_path, "concave.json", problem)
    code, report = run_cli(capsys, "certify-convexity", path)
    assert code == 0
    assert report["verdict"] == "not-convex"
    witness = report.get("cell_witness") or report.get("policy_witness")
    assert witness is not None
    if "policy_witness" in report:
        assert report["policy_witness"]["violation"] > 0

    # a dynamic team is outside the certifier's scope: analysis error
    dyn_path = write_team(tmp_path, "dyn.json", random_team(1, dynamic=True))
    code, report = run_cli(capsys, "certify-convexity", dyn_path)
    assert code == 1
    assert report["error"]["type"] == "StaticRequired"


def test_certify_policy_witness_replays_from_the_report(tmp_path, capsys):
    path = write_team(tmp_path, "sign.json", sign_product_team())
    code, report = run_cli(capsys, "certify-convexity", path)
    assert code == 0
    assert report["verdict"] == "not-convex"
    assert "cell_witness" not in report
    w = report["policy_witness"]
    pa, pb = (
        DeterministicProfile(w[key]["action_indices"]) for key in ("profile_a", "profile_b")
    )
    rep = policy_midpoint_test(load_problem(path).problem, pa, pb, lam=w["lam"])
    assert rep.violation == w["violation"] > 0
    assert (rep.value_a, rep.value_b, rep.value_mid) == (
        w["value_a"], w["value_b"], w["value_mid"]
    )
    assert [m.tolist() for m in rep.midpoint.actions] == w["midpoint"]["action_indices"]


# --------------------------------------------------------------------------
# strategic
# --------------------------------------------------------------------------


def test_strategic_enumerate_matches_solve(tmp_path, capsys):
    path = write_team(tmp_path, "team.json", random_team(0))
    code, report = run_cli(capsys, "strategic", "enumerate", path)
    assert code == 0
    assert report["n_profiles"] == 16
    assert len(report["first_values"]) == 16
    code, brute = run_cli(capsys, "solve", path, "--method", "brute")
    assert report["min_value"] == pytest.approx(brute["value"], abs=1e-12)
    assert report["argmin_index"] == brute["profile_index"]
    assert min(report["first_values"]) == pytest.approx(report["min_value"], abs=1e-12)
    # the values follow the lexicographic profile order
    team = random_team(0)
    want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    assert report["first_values"] == pytest.approx(want, abs=1e-12)

    code, _ = run_cli(capsys, "strategic", "enumerate", path, "--cap", "5")
    assert code == 1

    # a limit that ends inside a prefix, on a 3-DM dynamic team
    team = random_team(1, y_sizes=(2, 1, 2), u_sizes=(2, 3, 2), dynamic=True)
    path = write_team(tmp_path, "three.json", team)
    code, report = run_cli(capsys, "strategic", "enumerate", path, "--limit", "7")
    assert code == 0
    want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    assert report["first_values"] == pytest.approx(want[:7], abs=1e-12)
    assert report["argmin_index"] == int(np.argmin(want))


def test_profile_commands_take_more_measurements_than_numpy_has_axes(tmp_path, capsys):
    # DM 2 has one action for each of 70 measurements: two profiles, but
    # one numpy axis per measurement would pass numpy's 64-axis limit
    team = random_team(4, y_sizes=(1, 70), u_sizes=(2, 1), dynamic=True)
    path = write_team(tmp_path, "wide.json", team)
    want = [naive_expected_cost(team, p) for p in enumerate_profiles_literal(team)]
    best = int(np.argmin(want))
    code, report = run_cli(capsys, "solve", path, "--method", "brute")
    assert code == 0 and report["profile_index"] == best
    assert report["value"] == pytest.approx(want[best], abs=1e-12)
    code, report = run_cli(capsys, "solve", path, "--method", "mixture-lp")
    assert code == 0 and report["support"] == [[best, 1.0]]
    code, report = run_cli(capsys, "strategic", "enumerate", path)
    assert code == 0 and report["argmin_index"] == best
    assert report["first_values"] == pytest.approx(want, abs=1e-12)
    code, report = run_cli(capsys, "strategic", "witness", path)
    assert code == 0 and report["found"] is False  # DM 2 has one map


def test_strategic_check_induced_and_mixed_measures(tmp_path, capsys):
    problem = random_team(0)
    path = write_team(tmp_path, "team.json", problem)

    induced = induce_LA(problem, random_profile(problem, 1))
    m_path = tmp_path / "measure.json"
    m_path.write_text(json.dumps(measure_to_dict(induced)))
    code, report = run_cli(
        capsys, "strategic", "check", path, "--measure", str(m_path)
    )
    assert code == 0
    assert report["member_LA"] is True
    assert report["member_LR"] is True
    assert report["failures_LA"] == [] and report["failures_LR"] == []
    assert report["member_LM"] is True  # static problem: mixture check runs

    # a correlated 50/50 mixture of two pure profiles leaves LR but not LM
    a = induce_LA(problem, DeterministicProfile([np.zeros(2, int), np.zeros(2, int)]))
    b = induce_LA(problem, DeterministicProfile([np.ones(2, int), np.ones(2, int)]))
    mixed = mix([a, b], [0.5, 0.5])
    m_path.write_text(json.dumps(measure_to_dict(mixed)))
    code, report = run_cli(
        capsys, "strategic", "check", path, "--measure", str(m_path)
    )
    assert code == 0
    assert report["member_LR"] is False
    assert report["failures_LR"]
    assert report["member_LM"] is True

    code, report = run_cli(capsys, "strategic", "check", path)
    assert code == 2  # --measure is required


def test_strategic_check_puts_an_induced_measure_of_three_static_dms_in_every_class(
    tmp_path, capsys
):
    problem = three_dm_bsc_team()
    path = write_team(tmp_path, "team.json", problem)
    maps = [np.array([0, 1]), np.array([1, 1]), np.array([1, 0])]
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(measure_to_dict(induce_LA(problem, DeterministicProfile(maps)))))
    code, report = run_cli(capsys, "strategic", "check", path, "--measure", str(m_path))
    assert code == 0
    assert (report["member_LR"], report["member_LA"], report["member_LM"]) == (True, True, True)


def test_strategic_check_decides_randomized_membership_once(tmp_path, capsys, monkeypatch):
    problem = random_team(0)
    path = write_team(tmp_path, "team.json", problem)
    a = induce_LA(problem, DeterministicProfile([np.zeros(2, int), np.zeros(2, int)]))
    b = induce_LA(problem, DeterministicProfile([np.ones(2, int), np.ones(2, int)]))
    mixed = mix([a, b], [0.5, 0.5])
    m_path = tmp_path / "measure.json"
    m_path.write_text(json.dumps(measure_to_dict(mixed)))
    real = strategic.check_membership_LR
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(strategic, "check_membership_LR", counted)
    monkeypatch.setattr(cli, "check_membership_LR", counted, raising=False)
    code, report = run_cli(capsys, "strategic", "check", path, "--measure", str(m_path))
    assert code == 0
    assert len(calls) == 1
    # the LR section is the randomized verdict itself; LA adds point-mass records
    lr = json.loads(json_text(real(calls[0][0]).failures, default=cli.to_jsonable))
    assert report["failures_LR"] == lr and report["member_LR"] is False
    assert report["failures_LA"][: len(lr)] == lr
    assert {f["condition"] for f in report["failures_LA"][len(lr):]} == {"point-mass"}


def test_strategic_witness_on_signaling_chain(tmp_path, capsys, monkeypatch):
    calls = []
    real = strategic.check_membership_LR

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(strategic, "check_membership_LR", counted)
    path = write_team(tmp_path, "chain.json", signaling_chain_team())
    code, report = run_cli(capsys, "strategic", "witness", path)
    assert code == 0
    assert report["found"] is True
    assert report["lam"] == 0.5
    assert report["midpoint_failures"]
    assert calls

    # a team whose every mixture stays realizable yields no witness; two
    # maps of one DM always mix by private randomization, so no pair is
    # even checked
    calls.clear()
    solo = random_team(7, y_sizes=(2,), u_sizes=(2,))
    solo_path = write_team(tmp_path, "solo.json", solo)
    code = main(["strategic", "witness", solo_path])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["found"] is False
    assert calls == []
    assert err == ""  # the search's DEBUG line has no handler by default


def test_strategic_witness_refuses_joints_over_the_table_cap(tmp_path, capsys, monkeypatch):
    problem = random_team(2)
    path = write_team(tmp_path, "team.json", problem)
    cells = problem.n_deterministic_profiles() * int(np.prod(problem.joint_shape()))
    monkeypatch.setattr(strategic, "TABLE_CAP", cells - 1)
    code, report = run_cli(capsys, "strategic", "witness", path)
    assert code == 1  # a cap is an analysis error, like --cap
    assert report["error"]["type"] == "CapExceeded"
    assert str(cells) in report["error"]["message"]
    monkeypatch.setattr(strategic, "TABLE_CAP", cells)
    code, report = run_cli(capsys, "strategic", "witness", path)
    assert code == 0 and report["found"] is True


# --------------------------------------------------------------------------
# gallery
# --------------------------------------------------------------------------


def test_gallery_witsenhausen_checks(tmp_path, capsys):
    code, report = run_cli(
        capsys, "gallery", "witsenhausen", "--nodes", "16"
    )
    assert code == 0
    assert report["k"] == 0.2 and report["sigma"] == 5.0
    assert report["quantizer_beats_affine"] is True
    assert report["margin"] > 0.5
    assert report["value_quantizer"] < report["value_affine"]

    code, report = run_cli(
        capsys, "gallery", "witsenhausen", "--nodes", "16", "--check", "analytic-pair"
    )
    assert code == 0
    flip = report["encoder_flip"]
    assert flip["violation"] > 0
    assert flip["first_stage_mid"] == pytest.approx(1.0, abs=1e-12)
    assert flip["value_mid"] >= flip["first_stage_mid"]
    assert report["negation_bound"]["slack"] > 0

    code, report = run_cli(
        capsys, "gallery", "witsenhausen", "--nodes", "16", "--check", "equivalence"
    )
    assert code == 0
    assert report["equivalence"]["equivalent"] is True

    code, report = run_cli(capsys, "gallery", "witsenhausen", "--check", "certify")
    assert code == 0
    assert report["verdict"] == "not-convex"
    assert report["violation"] > 0

    code, report = run_cli(
        capsys, "gallery", "witsenhausen", "--check", "bogus"
    )
    assert code == 2


def test_gallery_signaling_zero_encoder(capsys):
    code, report = run_cli(
        capsys, "gallery", "signaling", "--check", "zero-encoder"
    )
    assert code == 0
    assert report["value_zero_encoder"] == pytest.approx(25.0, abs=1e-9)
    assert report["state_variance"] == 25.0


def test_gallery_signaling_refuses_an_unknown_check(capsys):
    code, report = run_cli(capsys, "gallery", "signaling", "--nodes", "16", "--check", "bogus")
    assert code == 2
    assert report["error"] == {
        "type": "ValidationError",
        "message": "unknown signaling check 'bogus'",
    }


def test_gallery_signaling_default_search(capsys):
    code, report = run_cli(capsys, "gallery", "signaling", "--nodes", "16")
    assert code == 0
    assert report["n_inits"] == 7
    assert report["matches"] == (report["gap"] <= report["tolerance"])

    # 20000 * 129 * 129 cells: refused before any quadrature node is computed
    for name in ("signaling", "witsenhausen"):
        code, report = run_cli(capsys, "gallery", name, "--nodes", "20000")
        assert code == 1
        assert report["error"]["type"] == "CapExceeded"


def test_gallery_nodes_past_the_quadrature_limit_name_the_node_count():
    # hermgauss weights underflow from 371 nodes on (numpy 2.4): the
    # report blames the node count, not the prior, and numpy stays quiet
    src = os.path.dirname(os.path.dirname(teamdec.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "teamdec.cli", "gallery", "signaling",
         "--nodes", "371", "--check", "zero-encoder"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 2
    assert run.stderr == ""
    error = json.loads(run.stdout)["error"]
    assert error["type"] == "ValidationError"
    assert "371 nodes" in error["message"] and "prior" not in error["message"]


@pytest.mark.parametrize("argv, name", [
    (["example1", "--step", "nan"], "step"),
    (["witsenhausen", "--k", "nan"], "k"),
    (["witsenhausen", "--sigma", "inf"], "sigma"),
    (["signaling", "--sigma", "nan", "--check", "zero-encoder"], "sigma"),
    (["signaling", "--k", "inf", "--check", "zero-encoder"], "k"),
    (["signaling", "--k", "nan"], "k"),
])
def test_gallery_refuses_non_finite_parameters_by_name(argv, name):
    src = os.path.dirname(os.path.dirname(teamdec.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "teamdec.cli", "gallery", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stderr) == (2, "")
    error = json.loads(run.stdout)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(f"{name} must be")


def test_gallery_square_wave(capsys):
    code, report = run_cli(capsys, "gallery", "square-wave", "--n", "4", "--seed", "5")
    assert code == 0
    assert report["seed"] == 5
    assert report["n"] == 4
    assert report["member_ci"] is True
    assert report["limit_ci"] is False
    assert len(report["intervals"]) == 20
    assert all(rec["within_bound"] for rec in report["intervals"])
    assert all(rec["bound"] == "1/8" for rec in report["intervals"])
    first = report["intervals"][0]
    assert first["lo"] == "0" and first["hi"] == "1/20"

    code, report = run_cli(capsys, "gallery", "square-wave", "--n", "0")
    assert code == 2
    assert report["error"]["type"] == "ValidationError"

    # DM 2's kernel alone would hold 2 * 3164**2 > TABLE_CAP cells
    code, report = run_cli(capsys, "gallery", "square-wave", "--n", "1582")
    assert code == 1
    assert report["error"]["type"] == "CapExceeded"


def test_gallery_example1(capsys):
    code, report = run_cli(capsys, "gallery", "example1", "--step", "0.5")
    assert code == 0
    assert report["verdict"] == "convex"
    assert report["raw_third_cell_convex"] is False
    opt = report["scan_optimum"]
    assert opt["u_on_first_cell"] == pytest.approx(2.0)
    assert opt["value"] > 0

    code, report = run_cli(capsys, "gallery", "example1", "--step", "0")
    assert code == 2
    assert report["error"]["type"] == "ValidationError"

    # 2582 points per axis: the (3, n, n) cost would exceed TABLE_CAP
    code, report = run_cli(capsys, "gallery", "example1", "--step", "0.0003874")
    assert code == 1
    assert report["error"]["type"] == "CapExceeded"


def test_gallery_example1_refuses_a_scan_over_the_pair_cap(capsys):
    # 401 points per axis: 3.2e9 midpoint pairs, counted and refused before any scan
    start = time.perf_counter()
    code, report = run_cli(capsys, "gallery", "example1", "--step", "0.0025")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["type"] == "CapExceeded"


def test_gallery_decoupled(capsys):
    code, report = run_cli(capsys, "gallery", "decoupled")
    assert code == 0
    assert report["coupled"] is False
    assert report["verdict"] is True
    assert report["split_gap"] == pytest.approx(0.0, abs=1e-12)
    assert report["joint_value"] == pytest.approx(sum(report["subsystem_values"]))

    code, report = run_cli(capsys, "gallery", "decoupled", "--coupled")
    assert code == 0
    assert report["coupled"] is True
    assert report["verdict"] is False
    assert report["split_gap"] > 0.5
