"""The CLI contract on mutated inputs: every run of ``cli.main`` returns
0, 1 or 2, writes exactly one JSON report object, and raises nothing.

Each example writes a small generated team with ``problem_to_dict`` (or
an ``--init``, ``--reference`` or ``--measure`` document built from
one), applies one mutation somewhere in it, and runs the commands that
read it.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdec.cli import main
from teamdec.probio import measure_to_dict, problem_to_dict
from teamdec.strategic import induce_LA

from conftest import random_profile, random_team, sparse_team

# values no section expects: nulls, empty and separator strings, huge,
# negative and non-finite numbers, bools and empty containers
ODD = (None, "", "|", -1, 1e308, math.nan, math.inf, True, [], {}, [{}], "a|b", 10**30)

PROBLEM_COMMANDS = (
    ["validate"],
    ["classify"],
    ["reduce"],
    ["solve", "--method", "brute"],
    ["solve", "--method", "pbp"],
    ["solve", "--method", "mixture-lp"],
    ["certify-convexity"],
    ["strategic", "enumerate"],
    ["strategic", "witness"],
)

# (family, seed, |Omega|, ((|Y_k|, |U_k|), ...), dynamic)
teams = st.tuples(
    st.sampled_from(["random", "sparse"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    st.booleans(),
)
walks = st.lists(st.integers(0, 63), max_size=6)
kinds = st.sampled_from(["delete", "rename", "duplicate", "replace"])
odds = st.sampled_from(ODD)


def build_team(spec):
    family, seed, n_omega, dms, dynamic = spec
    y_sizes, u_sizes = zip(*dms)
    if family == "random":
        return random_team(seed, n_omega, y_sizes, u_sizes, dynamic)
    return sparse_team(seed, y_sizes, u_sizes, dynamic, True, n_omega)


def mutate(doc, walk, kind, odd):
    """A copy of ``doc`` with one mutation at the node ``walk`` reaches.

    Each step of the walk picks child ``step % count`` (object keys in
    sorted order) and the walk stops early at a leaf.  The node is
    deleted, its key renamed, or (in a list) duplicated in place; a kind
    that does not apply there, and any mutation of the root, replaces
    the node with ``odd``."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for step in walk:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[step % len(keys)]
        node = node[key]
    if parent is None:
        return odd
    if kind == "delete":
        del parent[key]
    elif kind == "rename" and isinstance(parent, dict):
        parent[key + "~"] = parent.pop(key)
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key] = odd
    return doc


def assert_one_report(argv, out):
    """``main(argv + --out out)`` returns 0, 1 or 2, prints nothing and
    leaves one JSON object from the tool at ``out``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2), (argv, code)
    assert printed.getvalue() == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(report, dict) and report["tool"] == "teamdec", argv
    out.unlink()


@settings(max_examples=150)
@given(team=teams, walk=walks, kind=kinds, odd=odds)
# a JSON object as an exogenous point: spaces -> omega0 -> points -> [1]
@example(team=("random", 0, 2, [(2, 2)], False), walk=[4, 2, 1, 1], kind="replace", odd={})
def test_every_mutated_problem_file_gets_one_report(tmp_path_factory, team, walk, kind, odd):
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "mutated-problem.json"
    path.write_text(json.dumps(mutate(problem_to_dict(build_team(team)), walk, kind, odd)))
    for command in PROBLEM_COMMANDS:
        assert_one_report(command + [str(path)], tmp / "report.json")


@settings(max_examples=150)
@given(
    team=teams,
    option=st.sampled_from(["init-inline", "init-file", "reference", "measure"]),
    walk=walks,
    kind=kinds,
    odd=odds,
)
# an action index past 64 bits: actions -> [0] -> [0]
@example(team=("random", 0, 1, [(1, 1)], False), option="init-inline", walk=[0, 0, 0],
         kind="replace", odd=10**30)
def test_every_mutated_option_document_gets_one_report(
    tmp_path_factory, team, option, walk, kind, odd
):
    tmp = tmp_path_factory.getbasetemp()
    problem = build_team(team)
    path = tmp / "valid-problem.json"
    path.write_text(json.dumps(problem_to_dict(problem)))
    profile = random_profile(problem, team[1])
    init = {"actions": [a.tolist() for a in profile.actions]}
    doc = {
        "init-inline": init,
        "init-file": init,
        "reference": [{str(p): 1.0 / len(s) for p in s.points} for s in problem.y_spaces],
        "measure": measure_to_dict(induce_LA(problem, profile)),
    }[option]
    text = json.dumps(mutate(doc, walk, kind, odd))
    doc_path = tmp / "mutated-option.json"
    doc_path.write_text(text)
    argv = {
        "init-inline": ["solve", str(path), "--method", "pbp", "--init", text],
        "init-file": ["solve", str(path), "--method", "pbp", "--init", str(doc_path)],
        "reference": ["reduce", str(path), "--reference", str(doc_path)],
        "measure": ["strategic", "check", str(path), "--measure", str(doc_path)],
    }[option]
    assert_one_report(argv, tmp / "report.json")
