"""Batch command-line front end.

Loads JSON problem files, runs analyses, and emits deterministic JSON
reports: identical inputs and seeds produce byte-identical output.
Every report embeds the tool version, the input digest, and the
tolerance constants in force.  Exit codes: 0 success, 1 analysis error
(e.g. a failed absolute-continuity requirement), 2 parse or validation
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from enum import Enum
from fractions import Fraction

import numpy as np

from . import __version__
from .constants import ENUM_CAP, TABLE_CAP, tolerances
from .convexity import certify_team_convexity
from .errors import CapExceeded, TeamError, ValidationError
from .gallery import (
    decoupled_example,
    example1,
    signaling,
    square_wave,
    witsenhausen,
)
from .infostruct import classify, precedence_graph, information_nested
from .model import (
    DeterministicProfile,
    TeamProblem,
    validate,
)
from .probio import (
    ProblemFile,
    load_measure,
    load_problem,
    load_references,
    mass_map,
    problem_to_dict,
    read_json,
    write_json,
)
from .quadrature import QuadratureSpec, snap_profile
from .reduction import static_reduce, verify_equivalence
from .solvers import (
    brute_force,
    pbp_iterate,
    profile_values,
    seeded_profiles,
)
from .strategic import (
    check_membership_LA,
    check_membership_LM,
    find_nonconvexity_witness,
)


class InvalidInput(ValidationError):
    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


def to_jsonable(obj):
    """json's ``default`` hook for what it cannot encode itself: numpy ->
    python, Fractions -> strings, enums -> values, dataclasses -> dicts
    of their fields, anything else -> its string."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return str(obj)


def profile_fields(problem: TeamProblem, profile: DeterministicProfile) -> dict:
    spaces = zip(problem.y_spaces, problem.u_spaces, profile.actions)
    out = [{str(y): str(u.points[i]) for y, i in zip(ys.points, a)} for ys, u, a in spaces]
    return {"actions_by_measurement": out, "action_indices": profile.actions}


def _equivalence(reduction, profiles: list) -> dict:
    """The ``equivalence`` section: cost agreement between a problem and
    its static reduction on the given profiles."""
    eq = verify_equivalence(reduction, profiles)
    return {
        "profiles": len(profiles),
        "max_gap": eq.max_gap,
        "tol": eq.tol,
        "equivalent": eq.equivalent,
    }


def _load(path: str) -> ProblemFile:
    pf = load_problem(path)
    violations = validate(pf.problem)
    if violations:
        raise InvalidInput(
            f"{path} failed validation with {violations.total} violation(s)",
            violations,
        )
    return pf


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def cmd_validate(args) -> dict:
    pf = load_problem(args.problem)
    violations = validate(pf.problem)
    return {
        "input_digest": pf.digest,
        "is_valid": not violations,
        "violations": violations,
    }


def cmd_classify(args) -> dict:
    pf = _load(args.problem)
    edges = sorted(precedence_graph(pf.problem))
    return {
        "input_digest": pf.digest,
        "is_class": classify(pf.problem).value,
        "precedence_edges": edges,
        "edge_nested": {
            f"{k}->{i}": information_nested(pf.problem, k, i) for (k, i) in edges
        },
    }


def cmd_reduce(args) -> dict:
    pf = _load(args.problem)
    problem = pf.problem
    references = None
    if args.reference != "uniform":
        references = load_references(problem, args.reference)
    reduction = static_reduce(problem, references)
    report = {
        "input_digest": pf.digest,
        "references": [mass_map(ref) for ref in reduction.references],
        "equivalence": _equivalence(
            reduction, seeded_profiles(problem, args.seed, 5)
        ),
    }
    try:
        reduced = reduction.reduced_problem(cap=args.cap)
        report["reduced_problem"] = problem_to_dict(reduced)
    except CapExceeded as e:
        report["reduced_problem"] = None
        report["reduced_skipped"] = str(e)
    return report


def cmd_solve(args) -> dict:
    pf = _load(args.problem)
    problem = pf.problem
    if args.method in ("brute", "mixture-lp"):
        res = brute_force(problem, cap=args.cap)
        report = {
            "input_digest": pf.digest,
            "method": args.method,
            "value": res.value,
            "profile": profile_fields(problem, res.profile),
            "n_profiles": res.n_profiles,
        }
        if args.method == "brute":
            report["profile_index"] = res.index
        else:
            # the expected cost is linear in the mixture weights and the
            # deterministic profiles are the vertices of the mixtures, so
            # the brute-force optimum is a point-mass optimal mixture
            report["support"] = [[res.index, 1.0]]
        return report
    init = None
    if args.init is not None:
        if args.init.lstrip().startswith("{"):
            doc = json.loads(args.init)
        else:
            doc = read_json(args.init)[0]
        actions = doc.get("actions") if isinstance(doc, dict) else None
        if not isinstance(actions, list) or not all(
            isinstance(a, list) and all(type(v) is int for v in a)
            for a in actions
        ):
            raise ValidationError(
                "--init needs a JSON object with an 'actions' list of "
                "per-DM lists of integer action indices"
            )
        init = DeterministicProfile(actions)
    res = pbp_iterate(problem, init=init)
    return {
        "input_digest": pf.digest,
        "method": "pbp",
        "value": res.value,
        "profile": profile_fields(problem, res.profile),
        "trace": list(res.trace),
        "sweeps": res.sweeps,
        "converged": res.converged,
    }


def cmd_certify(args) -> dict:
    pf = _load(args.problem)
    verdict = certify_team_convexity(pf.problem, seed=args.seed)
    report = {
        "input_digest": pf.digest,
        "verdict": verdict.kind.value,
        "notes": list(verdict.notes),
    }
    if verdict.certificate is not None:
        report["certificate"] = verdict.certificate
    if verdict.cell_witness is not None:
        report["cell_witness"] = verdict.cell_witness
    if verdict.policy_witness is not None:
        w = verdict.policy_witness
        report["policy_witness"] = {
            "lam": w.lam,
            "value_a": w.value_a,
            "value_b": w.value_b,
            "value_mid": w.value_mid,
            "violation": w.violation,
            "profile_a": profile_fields(pf.problem, w.profile_a),
            "profile_b": profile_fields(pf.problem, w.profile_b),
            "midpoint": profile_fields(pf.problem, w.midpoint),
        }
    return report


def cmd_strategic(args) -> dict:
    pf = _load(args.problem)
    problem = pf.problem
    if args.action == "enumerate":
        res = brute_force(problem, cap=args.cap)
        values = profile_values(problem, min(args.limit, res.n_profiles)).tolist()
        return {
            "input_digest": pf.digest,
            "n_profiles": res.n_profiles,
            "min_value": res.value,
            "argmin_index": res.index,
            "first_values": values,
        }
    if args.action == "check":
        if args.measure is None:
            raise ValidationError("strategic check requires --measure <file>")
        measure = load_measure(problem, args.measure)
        # LA's failures are LR's followed by its point-mass records
        la = check_membership_LA(measure)
        lr = tuple(f for f in la.failures if f.condition != "point-mass")
        out = {"input_digest": pf.digest, "member_LR": not lr, "failures_LR": lr,
               "member_LA": la.member, "failures_LA": la.failures}
        if not precedence_graph(problem):
            out["member_LM"] = check_membership_LM(measure)
        return out
    witness = find_nonconvexity_witness(problem, cap=args.cap)
    if witness is None:
        return {"input_digest": pf.digest, "found": False}
    return {
        "input_digest": pf.digest,
        "found": True,
        "index_a": witness.index_a,
        "index_b": witness.index_b,
        "lam": witness.lam,
        "midpoint_failures": witness.verdict.failures,
    }


def cmd_gallery(args) -> dict:
    name = args.name
    seed = args.seed
    if name in ("witsenhausen", "signaling"):
        make, default = {"witsenhausen": (witsenhausen, "affine-vs-quantizer"),
                         "signaling": (signaling, "affine-vs-search")}[name]
        spec = None if args.nodes is None else QuadratureSpec(y1_nodes=args.nodes)
        bundle = make(args.k, args.sigma, spec)
        report = {"k": bundle.team.k, "sigma": bundle.team.sigma}
        check = args.check or default
        key = (name, check)
        if key == ("witsenhausen", "affine-vs-quantizer"):
            report.update(to_jsonable(bundle.affine_vs_quantizer()))
        elif key == ("witsenhausen", "certify"):
            verdict = bundle.certify()
            report["verdict"] = verdict.kind.value
            report["notes"] = list(verdict.notes)
            if verdict.policy_witness is not None:
                report["violation"] = verdict.policy_witness.violation
        elif key == ("witsenhausen", "analytic-pair"):
            report["encoder_flip"] = bundle.encoder_flip_report()
            report["negation_bound"] = bundle.negation_bound()
        elif key == ("witsenhausen", "equivalence"):
            aff = bundle.affine_optimum()
            g, c = aff.gain, bundle.team.affine_decoder_gain(aff.gain)
            enc, dec, a = bundle.team.quantizer_policies()
            profiles = [
                snap_profile(bundle.problem, lambda y: g * y, lambda y: c * y),
                snap_profile(bundle.problem, enc, dec),
                snap_profile(bundle.problem, np.zeros_like, np.zeros_like),
            ] + seeded_profiles(bundle.problem, seed, 2)
            report["equivalence"] = _equivalence(bundle.reduction, profiles)
        elif key == ("signaling", "affine-vs-search"):
            report.update(to_jsonable(bundle.discretized_search(seed=seed)))
        elif key == ("signaling", "zero-encoder"):
            report["value_zero_encoder"] = bundle.zero_encoder_value()
            report["state_variance"] = bundle.team.sigma**2
        else:
            raise ValidationError(f"unknown {name} check {check!r}")
        return report
    if name == "square-wave":
        fam = square_wave(args.n)
        return {
            "n": fam.n,
            "intervals": fam.diagnostics(),
            "member_ci": fam.member_ci(),
            "limit_ci": fam.limit_ci(),
        }
    if name == "example1":
        bundle = example1(args.step)
        verdict = bundle.certify()
        raw = bundle.raw_third_cell_convexity()
        u_first, u_rest, value = bundle.scan_optimum()
        return {
            "step": bundle.step,
            "verdict": verdict.kind.value,
            "raw_third_cell_convex": raw.passed,
            "scan_optimum": {
                "u_on_first_cell": u_first,
                "u_elsewhere": u_rest,
                "value": value,
            },
        }
    # name == "decoupled": the parser's choices admit no other name
    bundle = decoupled_example(coupled=args.coupled)
    joint = bundle.joint_solve()
    subs = bundle.subsystem_values()
    return {
        "coupled": bundle.coupled,
        "verdict": bundle.verdict(),
        "joint_value": joint.value,
        "subsystem_values": list(subs),
        "split_gap": abs(joint.value - sum(subs)),
    }


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamdec",
        description="Finite decentralized team decision problems: "
        "validation, classification, reduction, solving, and convexity "
        "certification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report here")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("problem")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("problem")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("reduce", parents=[seeded])
    p.add_argument("problem")
    p.add_argument(
        "--reference",
        default="uniform",
        help="'uniform' (default: uniform over row supports) or a JSON file "
        "with one measurement mass map per DM",
    )
    p.add_argument("--cap", type=int, default=TABLE_CAP)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve", parents=[common])
    p.add_argument("problem")
    p.add_argument(
        "--method", choices=["brute", "pbp", "mixture-lp"], required=True
    )
    p.add_argument("--init", default=None, help="JSON profile file for pbp")
    p.add_argument("--cap", type=int, default=ENUM_CAP)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("certify-convexity", parents=[seeded])
    p.add_argument("problem")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("strategic", parents=[common])
    p.add_argument("action", choices=["enumerate", "check", "witness"])
    p.add_argument("problem")
    p.add_argument("--measure", default=None)
    p.add_argument("--cap", type=int, default=ENUM_CAP)
    p.add_argument("--limit", type=int, default=32)
    p.set_defaults(fn=cmd_strategic)

    p = sub.add_parser("gallery", parents=[seeded])
    p.add_argument(
        "name",
        choices=["witsenhausen", "signaling", "square-wave", "example1", "decoupled"],
    )
    p.add_argument("--k", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=5.0)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--coupled", action="store_true")
    p.add_argument("--check", default=None)
    p.set_defaults(fn=cmd_gallery)

    return parser


PARSER = build_parser()


def _emit(report: dict, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            write_json(report, fh, default=to_jsonable)
    else:
        write_json(report, sys.stdout, default=to_jsonable)


def _base_report(args) -> dict:
    return {
        "tool": "teamdec",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", 0),
        "tolerances": tolerances(),
        "input_digest": None,
    }


# Exception type -> (report error type, exit code).  The first row the
# exception is an instance of wins, so subclasses come before their bases;
# a None type reports the exception's own class name.
_ERRORS = (
    (json.JSONDecodeError, "ParseError", 2),
    (UnicodeDecodeError, "ParseError", 2),
    (FileNotFoundError, "FileNotFound", 2),
    (IsADirectoryError, "IsADirectory", 2),
    (InvalidInput, "ValidationError", 2),
    (ValidationError, None, 2),
    (TeamError, None, 1),
)


def _error_report(e: Exception) -> tuple:
    kind, code = next((k, c) for t, k, c in _ERRORS if isinstance(e, t))
    if isinstance(e, json.JSONDecodeError):
        message = f"{e.msg} (line {e.lineno}, column {e.colno})"
    else:
        message = str(e)
    error = {"type": kind or type(e).__name__, "message": message}
    if isinstance(e, InvalidInput):
        error["violations"] = e.violations
    return error, code


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    report = _base_report(args)
    try:
        for name in ("cap", "limit"):
            value = getattr(args, name, 0)
            if value < 0:
                raise ValidationError(f"--{name} must be >= 0, got {value}")
        report.update(args.fn(args))
    except tuple(t for t, _, _ in _ERRORS) as e:
        report["error"], code = _error_report(e)
        _emit(report, args)
        return code
    _emit(report, args)
    # `validate` reports an invalid file rather than raising, but an
    # invalid input is still a validation failure for the exit code.
    return 2 if report.get("is_valid") is False else 0


if __name__ == "__main__":
    sys.exit(main())
