"""JSON problem files.

A problem document has five sections:

* ``spaces``: ``omega0`` plus per-DM ``measurements`` and ``actions``
  entries, each a ``{"name": ..., "points": [...]}`` record (points may
  be numbers, strings, or lists, which load as tuples);
* ``prior``: map from an exogenous point's string form to its mass
  (omitted points carry zero mass);
* ``kernels``: one table per DM, keyed by the history — the exogenous
  label for DM 1, then earlier action labels joined with ``|`` — whose
  value maps measurement labels to probabilities;
* ``cost``: map from ``omega|u1|...|uN`` to the cost value;
* ``annotations`` (optional): subsystem metadata for decoupling checks.

String forms of points must be unique within a space and must not
contain the ``|`` separator.

The codec moves whole tables: keys come from ``itertools.product`` over
the label lists (the C order of ``table.reshape(-1)``), and the reader
splits a section's keys at once and fills each table with one index
assignment.  A malformed entry (a key with the wrong number of parts or
an unknown label, a value ``float`` rejects, a section or kernel row
that is not an object) raises ValidationError naming the first
offending key in document order.  A reference file is a list of one
measurement mass map per DM, each read and written like the prior.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MalformedAnnotation, ValidationError
from .infostruct import SubsystemAnnotation
from .model import CostTable, FiniteSpace, MeasurementKernel, Pmf, TeamProblem
from .strategic import StrategicMeasure, _joint_spaces

SEP = "|"


def _to_point(v):
    if isinstance(v, list):
        return tuple(_to_point(x) for x in v)
    return v


def _from_point(p):
    if isinstance(p, tuple):
        return [_from_point(x) for x in p]
    return p


def _label_map(space: FiniteSpace) -> dict:
    out = {}
    for i, p in enumerate(space.points):
        s = str(p)
        if SEP in s:
            raise ValidationError(
                f"point {s!r} in space {space.name!r} contains the "
                f"reserved separator {SEP!r}"
            )
        if s in out:
            raise ValidationError(
                f"space {space.name!r} has two points with string form {s!r}"
            )
        out[s] = i
    return out


def _space_from_dict(d, default_name: str) -> FiniteSpace:
    if not isinstance(d, dict) or not isinstance(d.get("points"), list):
        raise ValidationError(
            f"space entry for {default_name!r} must be a dict with 'points'"
        )
    return FiniteSpace(
        str(d.get("name", default_name)), [_to_point(p) for p in d["points"]]
    )


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def _parse(keys: list, values, maps: list):
    """The label indices (axis, entry) and float values of entries whose
    keys join one label per axis with SEP, and the first faulty entry as
    (position, axis) or None: axis None for a key with the wrong number
    of parts, else its first unknown label's axis, or "value" for a
    value ``float`` rejects (a key's fault comes before its value's)."""
    n = len(maps)
    seps = list(map(str.count, keys, itertools.repeat(SEP)))
    cut = len(keys)
    if seps.count(n - 1) != cut:
        cut = next(i for i, s in enumerate(seps) if s != n - 1)
    parts = SEP.join(keys[:cut]).split(SEP) if cut else []
    cols = [list(map(m.get, parts[a::n], itertools.repeat(-1))) for a, m in enumerate(maps)]
    idx = np.array(cols, np.intp)
    faults = []
    if any(-1 in col for col in cols):
        faults = np.argwhere(idx.T < 0)[:1].tolist()  # [key, axis], the first key's
    elif cut < len(keys):
        faults = [(cut, None)]
    floats = []
    try:
        floats.extend(map(float, values))  # keeps the values read before a failure
    except (TypeError, ValueError, OverflowError):
        faults.append((len(floats), "value"))
    return idx, floats, min(faults, key=lambda f: f[0]) if faults else None


def _history_nouns(k: int) -> list:
    """Nouns for the axes of an ``omega|u1|...|u_{k-1}`` key."""
    return [("exogenous point", "")] + [("action", f" for DM {j}") for j in range(1, k)]


def _fault(fault, keys: list, values, where: str, what: str, nouns: list, arity_what=""):
    """The error for a faulty entry of a section: ``where`` names the
    section for a bad value, ``what`` a key, and nouns[a] is (noun, tail)
    for an unknown label on axis a.  Without ``arity_what`` (which words
    a key with the wrong number of parts) a key is one label, named whole."""
    pos, axis = fault
    key = keys[pos]
    if axis == "value":
        message = f"{where} value {values[pos]!r} for {key!r} is not a number"
    elif not arity_what:
        message = f"{what} names unknown {nouns[0][0]} {key!r}"
    elif axis is None:
        message = f"{arity_what} {key!r} has {key.count(SEP) + 1} parts, expected {len(nouns)}"
    else:
        noun, tail = nouns[axis]
        message = f"{what} {key!r} names unknown {noun} {key.split(SEP)[axis]!r}{tail}"
    return ValidationError(message)


def _table(section, maps: list, where: str, *words) -> np.ndarray:
    """The table, one axis per label map, filled from a flat section;
    ``where`` and ``words`` word its faults (see ``_fault``)."""
    section = _object(section, f"{where} section")
    keys, values = list(section), list(section.values())
    idx, floats, fault = _parse(keys, values, maps)
    if fault:
        raise _fault(fault, keys, values, where, *words)
    table = np.zeros([len(m) for m in maps])
    table[tuple(idx)] = floats
    return table


def _kernel_table(section, k: int, maps: list, y_map: dict):
    """DM k's kernel from history keys mapping to rows of measurement
    label -> probability.  A key's fault comes before its row's, and a
    row's before the next key's."""
    section = _object(section, f"DM {k} kernel table")
    keys, rows = list(section), list(section.values())
    h_idx, _, h_fault = _parse(keys, (), maps)
    stop = h_fault[0] if h_fault else len(rows)
    good = next((i for i in range(stop) if not isinstance(rows[i], dict)), stop)
    lengths = [len(r) for r in rows[:good]]
    labels = list(itertools.chain.from_iterable(rows[:good]))
    values = [p for r in rows[:good] for p in r.values()]
    (y_idx,), floats, fault = _parse(labels, values, [y_map])
    if fault:
        row = int(np.searchsorted(np.cumsum(lengths), fault[0], "right"))
        where = f"DM {k} kernel row {keys[row]!r}"
        raise _fault(fault, labels, values, where, where, [("measurement", "")])
    if good < stop:
        raise ValidationError(f"DM {k} kernel row {keys[good]!r} must be a JSON object")
    if h_fault:
        what = f"DM {k} kernel history"
        raise _fault(h_fault, keys, (), "", what, _history_nouns(k), f"{what} key")
    table = np.zeros([len(m) for m in maps] + [len(y_map)])
    table[tuple(np.repeat(h_idx, lengths, axis=1)) + (y_idx,)] = floats
    return MeasurementKernel(k, table)


def problem_from_dict(doc: dict) -> TeamProblem:
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    for section in ("spaces", "prior", "kernels", "cost"):
        if section not in doc:
            raise ValidationError(f"problem document is missing {section!r}")
    spaces = _object(doc["spaces"], "spaces section")
    if "omega0" not in spaces:
        raise ValidationError("spaces section is missing 'omega0'")
    omega = _space_from_dict(spaces["omega0"], "omega0")
    meas = spaces.get("measurements", [])
    acts = spaces.get("actions", [])
    lists = isinstance(meas, list) and isinstance(acts, list)
    if not lists or len(meas) != len(acts) or not meas:
        raise ValidationError(
            "spaces section needs equal-length, nonempty 'measurements' "
            "and 'actions' lists"
        )
    y_spaces = [_space_from_dict(d, f"y{k + 1}") for k, d in enumerate(meas)]
    u_spaces = [_space_from_dict(d, f"u{k + 1}") for k, d in enumerate(acts)]
    n = len(y_spaces)
    omega_map = _label_map(omega)
    y_maps = [_label_map(s) for s in y_spaces]
    maps = [omega_map] + [_label_map(s) for s in u_spaces]

    prior = Pmf(omega, _table(doc["prior"], maps[:1], "prior", "prior", _history_nouns(1)))
    if not isinstance(doc["kernels"], list):
        raise ValidationError("kernels section must be a JSON list")
    if len(doc["kernels"]) != n:
        raise ValidationError(f"{len(doc['kernels'])} kernel tables for {n} DMs")
    kernels = [
        _kernel_table(doc["kernels"][k - 1], k, maps[:k], y_maps[k - 1])
        for k in range(1, n + 1)
    ]
    cost = CostTable(
        _table(doc["cost"], maps, "cost", "cost key", _history_nouns(n + 1), "cost key")
    )
    return TeamProblem(
        omega, prior, y_spaces, u_spaces, kernels, cost, name=str(doc.get("name", ""))
    )


def annotation_from_dict(doc: dict) -> Optional[SubsystemAnnotation]:
    ann = doc.get("annotations")
    if not ann:
        return None
    sub = _object(ann, "annotations section").get("subsystems")
    if not sub:
        return None

    def ints(xs):
        return tuple(int(x) for x in xs)

    try:
        return SubsystemAnnotation(
            factor_sizes=ints(sub["factor_sizes"]),
            dm_state_factors=tuple(map(ints, sub["dm_state_factors"])),
            shared_factors=ints(sub.get("shared_factors", ())),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedAnnotation(f"bad subsystems annotation: {e}") from e


def _keys(label_lists: list, keep=None):
    """The keys of the cells of a table whose axes carry these labels, in
    the C order of ``table.reshape(-1)``; with ``keep``, of its true cells."""
    cells = itertools.product(*label_lists)
    return map(SEP.join, cells if keep is None else itertools.compress(cells, keep))


def _nonzero(label_lists: list, table: np.ndarray) -> dict:
    """The nonzero cells of ``table`` as {key: float}, in C order."""
    flat = table.reshape(-1)
    keep = flat != 0.0
    return dict(zip(_keys(label_lists, keep.tolist()), flat[keep].tolist()))


def mass_map(pmf: Pmf) -> dict:
    """A pmf as a prior is written: {point label: mass} of its nonzero masses."""
    return _nonzero([[str(p) for p in pmf.space.points]], pmf.mass)


def _check_labels(problem: TeamProblem) -> None:
    """Raise ValidationError for the first point, in omega0, then the
    measurement spaces, then the action spaces, whose string form holds
    SEP or repeats within its space."""
    for s in [problem.omega0, *problem.y_spaces, *problem.u_spaces]:
        _label_map(s)


def problem_to_dict(problem: TeamProblem, annotation=None) -> dict:
    _check_labels(problem)
    history = [[str(p) for p in s.points] for s in [problem.omega0, *problem.u_spaces]]

    def space_dict(s: FiniteSpace) -> dict:
        return {"name": s.name, "points": [_from_point(p) for p in s.points]}

    def kernel_dict(k: int) -> dict:
        table = problem.kernels[k - 1].table
        y_labels = [str(p) for p in problem.y_spaces[k - 1].points]
        rows = table.reshape(-1, table.shape[-1]).tolist()
        return {
            key: {y: p for y, p in zip(y_labels, row) if p != 0.0}
            for key, row in zip(_keys(history[:k]), rows)
        }

    doc = {
        "name": problem.name,
        "spaces": {
            "omega0": space_dict(problem.omega0),
            "measurements": [space_dict(s) for s in problem.y_spaces],
            "actions": [space_dict(s) for s in problem.u_spaces],
        },
        "prior": mass_map(problem.prior),
        "kernels": [kernel_dict(k) for k in range(1, problem.n_dms + 1)],
        "cost": _nonzero(history, problem.cost.table),
    }
    if annotation is not None:
        doc["annotations"] = {
            "subsystems": {
                "factor_sizes": list(annotation.factor_sizes),
                "dm_state_factors": [list(g) for g in annotation.dm_state_factors],
                "shared_factors": list(annotation.shared_factors),
            }
        }
    return doc


@dataclass(frozen=True)
class ProblemFile:
    problem: TeamProblem
    annotation: Optional[SubsystemAnnotation]
    digest: str
    path: str


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_json(path: str) -> tuple:
    """The JSON document in the UTF-8 file at ``path``, and its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data.decode("utf-8")), data


def json_text(doc, default=None) -> str:
    """The text of every written document and report: sorted keys,
    two-space indent, a final newline; ``default`` is json's hook."""
    return json.dumps(doc, default=default, sort_keys=True, indent=2) + "\n"


def load_problem(path: str) -> ProblemFile:
    doc, data = read_json(path)
    problem = problem_from_dict(doc)
    annotation = annotation_from_dict(doc)
    if annotation is not None:
        annotation.validate_against(problem)
    return ProblemFile(problem, annotation, digest_bytes(data), path)


def save_problem(problem: TeamProblem, path: str, annotation=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(problem_to_dict(problem, annotation)))


# -- strategic measures -----------------------------------------------------


def measure_to_dict(measure: StrategicMeasure) -> dict:
    _check_labels(measure.problem)
    labels = [[str(p) for p in s.points] for s in _joint_spaces(measure.problem)]
    return {"joint": _nonzero(labels, measure.joint), "origin": measure.origin}


def measure_from_dict(problem: TeamProblem, doc: dict) -> StrategicMeasure:
    if not isinstance(doc, dict) or "joint" not in doc:
        raise ValidationError("measure document must be a JSON object with 'joint'")
    spaces = _joint_spaces(problem)
    nouns = [("point", f" in {s.name!r}") for s in spaces]
    maps = [_label_map(s) for s in spaces]
    joint = _table(doc["joint"], maps, "measure", "measure key", nouns, "measure key")
    return StrategicMeasure(problem, joint, origin=doc.get("origin"))


def load_measure(problem: TeamProblem, path: str) -> StrategicMeasure:
    return measure_from_dict(problem, read_json(path)[0])


# -- reference measures -----------------------------------------------------


def load_references(problem: TeamProblem, path: str) -> list:
    """One reference Pmf per DM from a JSON list of measurement mass
    maps, each read like a prior."""
    doc = read_json(path)[0]
    n = problem.n_dms
    if not isinstance(doc, list) or len(doc) != n:
        raise ValidationError(f"reference file must hold a list of {n} mass maps")
    refs = []
    for d, (space, entry) in enumerate(zip(problem.y_spaces, doc)):
        where = f"reference for DM {d + 1}"
        if not isinstance(entry, dict):
            raise ValidationError(
                f"{where} must map points of {space.name!r} to masses, got {entry!r}"
            )
        mass = _table(entry, [_label_map(space)], where, where, [("measurement", "")])
        refs.append(Pmf(space, mass))
    return refs
