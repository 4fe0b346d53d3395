"""JSON problem files.

A problem document has four sections:

* ``spaces``: ``omega0`` plus per-DM ``measurements`` and ``actions``
  entries, each a ``{"name": ..., "points": [...]}`` record (points are
  strings, numbers, bools, nulls or lists of these, which load as tuples;
  any other point is a ValidationError naming its space);
* ``prior``: map from an exogenous point's string form to its mass
  (omitted points carry zero mass);
* ``kernels``: one table per DM, keyed by the history — the exogenous
  label for DM 1, then earlier action labels joined with ``|`` — whose
  value maps measurement labels to probabilities;
* ``cost``: map from ``omega|u1|...|uN`` to the cost value.

An optional ``name`` names the problem; any other key is ignored.

String forms of points must be unique within a space and must not
contain the ``|`` separator.

The codec moves whole tables, and one key builder serves both ways:
the writer's keys follow the C order of ``table.reshape(-1)``.  The
reader counts each table's cells first (CapExceeded over TABLE_CAP).  A
section that lists every cell in the order ``write_json`` writes, as
every full table written here does, equals the keys built from sorted
labels (compared a block at a time) and fills its table at once; any
other section has its keys split at once and fills its table with one
index assignment.  A malformed entry (a key with the wrong number of
parts or an unknown label, a value ``float`` rejects, a section or
kernel row that is not an object) raises ValidationError naming the
first offending key in document order.  A reference file is a list of
one measurement mass map per DM, each read and written like the prior.

Every file and report goes out through one streaming writer,
``write_json``, which hands json's C encoder a bounded slice of a
container at a time, so the whole text is never held; ``read_json``
drops a file's bytes before the parse and its text after it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import TABLE_CAP
from .errors import CapExceeded, ValidationError
from .model import CostTable, FiniteSpace, MeasurementKernel, Pmf, TeamProblem, _compact
from .strategic import StrategicMeasure, _joint_spaces

SEP = "|"


def _to_point(v, space: str):
    if isinstance(v, list):
        return tuple(_to_point(x, space) for x in v)
    if type(v) not in _PLAIN:
        raise ValidationError(
            f"a point of space {space!r} holds {v!r}; points are strings, "
            "numbers, bools, nulls or lists of these"
        )
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
    name = str(d.get("name", default_name))
    return FiniteSpace(name, [_to_point(p, name) for p in d["points"]])


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


def _shape(maps: list) -> tuple:
    """A table's shape, one axis per label map, and its cell count;
    CapExceeded when that is over TABLE_CAP."""
    shape = [len(m) for m in maps]
    return shape, CapExceeded.check(math.prod(shape), TABLE_CAP)


def _written_at(keys: list, maps: list):
    """The index at which the table takes its entries, in written order
    and reshaped to its shape, when ``keys`` are all its keys in the order
    ``write_json`` writes them; else None.  Sorted keys sort their labels,
    each but the last with SEP behind it; the keys are compared one block
    per label of the first axis."""
    pieces = [[s + SEP for s in m] for m in maps[:-1]] + [list(maps[-1])]
    written = [sorted(p) for p in pieces]
    at = 0
    for block in _key_blocks(written):
        if keys[at : at + len(block)] != block:
            return None
        at += len(block)
    if written == pieces:
        return ...  # every axis is in its written order already
    return np.ix_(*[sorted(range(len(p)), key=p.__getitem__) for p in pieces])


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
    shape, cells = _shape(maps)
    keys, values = list(section), list(section.values())
    at = _written_at(keys, maps) if len(keys) == cells else None
    if at is not None:
        try:
            floats = np.array(list(map(float, values)))
            floats.shape = shape  # in place, so the table owns its cells
        except (TypeError, ValueError, OverflowError):
            at = None  # the split parse below names the value
    if at is ...:
        return floats
    if at is None:
        idx, floats, fault = _parse(keys, values, maps)
        if fault:
            raise _fault(fault, keys, values, where, *words)
        at = tuple(idx)
    table = np.zeros(shape)
    table[at] = floats
    return table


def _kernel_table(section, k: int, maps: list, y_map: dict):
    """DM k's kernel from history keys mapping to rows of measurement
    label -> probability.  A key's fault comes before its row's, and a
    row's before the next key's."""
    section = _object(section, f"DM {k} kernel table")
    shape, cells = _shape(maps + [y_map])
    keys, rows = list(section), list(section.values())
    at = _written_at(keys, maps) if len(keys) * len(y_map) == cells else None
    h_idx, _, h_fault = _parse(keys, (), maps) if at is None else (np.arange(len(keys))[None], (), None)
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
    table = np.zeros(shape if at is None else (len(keys), len(y_map)))
    table[tuple(np.repeat(h_idx, lengths, axis=1)) + (y_idx,)] = floats
    if at is not None:  # row i holds the i-th history in written order
        table.shape = shape
        if at is not ...:
            table, written = np.zeros(shape), table
            table[at] = written
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


def _key_blocks(pieces: list):
    """Every concatenation of one string from each list, in C order (the
    last list varies fastest), one block per string of the first list; a
    single list is one block."""
    if len(pieces) == 1:
        return iter(pieces)
    rest = pieces[-1]
    for piece in pieces[-2:0:-1]:
        rest = [p + r for p in piece for r in rest]
    return ([first + r for r in rest] for first in pieces[0])


def _keys(label_lists: list, keep=None):
    """The keys of the cells of a table whose axes carry these labels, in
    the C order of ``table.reshape(-1)``; with ``keep``, of its true cells."""
    pieces = [[s + SEP for s in labels] for labels in label_lists[:-1]] + label_lists[-1:]
    cells = itertools.chain.from_iterable(_key_blocks(pieces))
    return cells if keep is None else itertools.compress(cells, keep)


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


def problem_to_dict(problem: TeamProblem) -> dict:
    _check_labels(problem)
    history = [[str(p) for p in s.points] for s in [problem.omega0, *problem.u_spaces]]

    def space_dict(s: FiniteSpace) -> dict:
        return {"name": s.name, "points": [_from_point(p) for p in s.points]}

    def kernel_dict(k: int) -> dict:
        table = problem.kernels[k - 1].table
        stored = _compact(table)
        y_labels = [str(p) for p in problem.y_spaces[k - 1].points]
        rows = stored.reshape(-1, table.shape[-1]).tolist()
        at = np.arange(len(rows)).reshape(stored.shape[:-1])
        at = np.broadcast_to(at, table.shape[:-1]).reshape(-1).tolist()
        return {
            key: {y: p for y, p in zip(y_labels, rows[i]) if p != 0.0}
            for key, i in zip(_keys(history[:k]), at)
        }

    return {
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


@dataclass(frozen=True)
class ProblemFile:
    problem: TeamProblem
    digest: str


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_json(path: str) -> tuple:
    """The JSON document in the UTF-8 file at ``path``, and the digest of
    its bytes.  The bytes go once hashed and decoded, before the parse,
    and the text once parsed, so a caller holds the tree alone."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = digest_bytes(data)
    text = data.decode("utf-8")
    del data
    return json.loads(text), digest


_PLAIN = {str, int, float, bool, type(None)}
_SLICE = 1024  # members of a container that one call of the C encoder writes


def write_json(doc, fh, default=None) -> None:
    """Write to the text handle ``fh`` the text of every written document
    and report: the bytes of ``json.dumps(doc, default=default,
    sort_keys=True, indent=2) + "\n"``.  A container goes to json's C
    encoder ``_SLICE`` members at a time (a dict's in the order of its
    sorted keys), with an item separator that holds the line break and
    indent of its depth; members that are not of exact type str, int,
    float, bool or None go as null, and their own text then takes that
    null's place.  No piece of text is longer than one slice's, so the
    whole text is never held.  A document ``json.dumps`` refuses raises
    the same error, but only where the writer reaches the fault, so it
    can leave a partial file; with ``cli.to_jsonable`` as ``default`` no
    report is refused."""
    encoders = {}

    def write(obj, depth: int) -> None:
        if depth not in encoders:
            sep = ",\n" + "  " * (depth + 1)
            encoders[depth] = json.JSONEncoder(separators=(sep, ": "))
        enc = encoders[depth]
        if isinstance(obj, dict):
            keys = sorted(obj)
        elif isinstance(obj, (list, tuple)):
            keys = None
        elif isinstance(obj, (str, int, float)) or obj is None:
            return fh.write(enc.encode(obj))
        else:
            return write((default or enc.default)(obj), depth)
        brackets = "[]" if keys is None else "{}"
        if not obj:
            return fh.write(brackets)
        fh.write(brackets[0] + enc.item_separator[1:])
        for at in range(0, len(obj), _SLICE):
            if at:
                fh.write(enc.item_separator)
            if keys is None:
                part = members = obj[at : at + _SLICE]
            else:
                part = {k: obj[k] for k in keys[at : at + _SLICE]}
                members = part.values()
            if _PLAIN.issuperset(map(type, members)):
                fh.write(enc.encode(part)[1:-1])
                continue
            if keys is None:
                shallow = [v if type(v) in _PLAIN else None for v in part]
            else:
                shallow = {k: v if type(v) in _PLAIN else None for k, v in part.items()}
            flat = enc.encode(shallow)
            # strings escape line breaks: the text has one only in each separator
            for i, (text, v) in enumerate(zip(flat[1:-1].split(enc.item_separator), members)):
                if i:
                    fh.write(enc.item_separator)
                if type(v) in _PLAIN:
                    fh.write(text)
                else:
                    fh.write(text[: -len("null")])
                    write(v, depth + 1)
        fh.write("\n" + "  " * depth + brackets[1])

    write(doc, 0)
    fh.write("\n")


def json_text(doc, default=None) -> str:
    """The text ``write_json`` writes."""
    out = io.StringIO()
    write_json(doc, out, default)
    return out.getvalue()


def load_problem(path: str) -> ProblemFile:
    doc, digest = read_json(path)
    return ProblemFile(problem_from_dict(doc), digest)


def save_problem(problem: TeamProblem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(problem_to_dict(problem), fh)


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
