"""JSON model files: one tagged document per geometric model.

A file is an object {"kind": ..., "items": [...]} with optional
"weights", plus "r" for disks; any other top-level key is an error.
Exact rationals travel as strings like "3/4" (or decimals without an
exponent); floats are rejected so no value is ever silently rounded.
Each value becomes a rational once, where it is read; every later check
works on those rationals or on their integer ranks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from .arcs import ArcModel
from .errors import IsectError, SchemaError, ValidationError
from .geom import (
    INFINITE_TOLERANCE,
    ChordModel,
    DiskPoints,
    DottedInterval,
    KBoxModel,
    ToleranceRep,
)
from .graph import Graph
from .intervals import IntervalModel
from .permutations import Permutation
from .trapezoids import TrapezoidModel

# the most vertices a model file may hold, and the largest model gen makes:
# past it a dense kind's O(n^2) edges and output would not fit in memory
MAX_N = 10_000


@dataclass(frozen=True)
class ModelFile:
    """A parsed model document: the tag, the typed model, the extras."""

    kind: str
    model: object
    weights: Optional[tuple[Fraction, ...]] = None


def _number(raw: object, path: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise SchemaError(f"expected an integer or rational string, got {raw!r}",
                          path)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        # Fraction reads "1e999999999" by building the whole power of ten
        if "e" in raw or "E" in raw:
            raise SchemaError(f"exponent form is not accepted: {raw!r}", path)
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {raw!r}", path) from exc
    raise SchemaError(f"expected an integer or rational string, got {raw!r}", path)


def _integer(raw: object, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise SchemaError(f"expected an integer, got {raw!r}", path)
    return raw


def _record(raw: object, path: str) -> Mapping[str, object]:
    if not isinstance(raw, dict):
        raise SchemaError(f"expected an object, got {type(raw).__name__}", path)
    return raw


def _field(rec: Mapping[str, object], name: str, path: str) -> object:
    if name not in rec:
        raise SchemaError(f"missing field {name!r}", path)
    return rec[name]


# JSON holds no int subclass but bool, so `type(x) is int` is _integer's test
_INT = {int}


def _by_id(items: Sequence[object], names: tuple[str, ...], row=None,
           exact=Fraction) -> list[tuple]:
    """One row per item, ordered by id 1..n.

    An item that is a dict with an int id not yet seen and int fields
    ``names`` becomes ``exact`` of each field.  Any other is read by
    ``row(record, path)``, by default the fields as rationals, which
    names its fault.
    """
    take = itemgetter("id", *names)
    row = row or _numbers(*names)
    rows: dict[int, tuple] = {}
    for k, raw in enumerate(items):
        try:
            got = take(raw)  # KeyError for a missing field, TypeError for a non-dict
        except (KeyError, TypeError):
            got = ()
        if names and set(map(type, got)) == _INT and got[0] not in rows:
            rows[got[0]] = tuple(map(exact, got[1:]))
            continue
        here = f"$.items[{k}]"
        rec = _record(raw, here)
        ident = _integer(_field(rec, "id", here), f"{here}.id")
        if ident in rows:
            raise SchemaError(f"duplicate id {ident}", here)
        rows[ident] = row(rec, here)
    n = len(items)
    if sorted(rows) != list(range(1, n + 1)):
        raise SchemaError(f"ids must cover 1..{n} exactly", "$.items")
    return [rows[i] for i in range(1, n + 1)]


def _numbers(*names: str):
    """A row reader taking the named rational fields of a record."""
    return lambda rec, here: tuple(_number(_field(rec, f, here), f"{here}.{f}")
                                   for f in names)


def _single_record(items: Sequence[object], path: str) -> Mapping[str, object]:
    if len(items) != 1:
        raise SchemaError(f"expected exactly one record, got {len(items)}", path)
    return _record(items[0], f"{path}[0]")


def _weights(doc: Mapping[str, object], n: int) -> Optional[tuple[Fraction, ...]]:
    raw = doc.get("weights")
    if raw is None:
        return None
    path = "$.weights"
    if isinstance(raw, dict):
        vals = [Fraction(1)] * n
        for key, val in raw.items():
            try:
                ident = int(key)
            except ValueError:
                ident = None
            # one spelling per id, so "01" or " 1" cannot alias vertex 1
            if ident is None or key != str(ident):
                raise SchemaError(f"weight key {key!r} is not a vertex id", path)
            if not 1 <= ident <= n:
                raise SchemaError(f"weight names unknown vertex {ident}", path)
            vals[ident - 1] = _number(val, f"{path}.{key}")
        return tuple(vals)
    if isinstance(raw, list):
        if len(raw) != n:
            raise SchemaError(f"expected {n} weights, got {len(raw)}", path)
        if set(map(type, raw)) <= _INT:
            # weights repeat: one Fraction per distinct value
            exact = {v: Fraction(v) for v in set(raw)}
            return tuple(map(exact.__getitem__, raw))
        return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(raw))
    raise SchemaError("weights must be a list or an id-keyed object", path)


def _integers(row: tuple[Fraction, ...]) -> tuple[int, ...]:
    for x in row:
        if x.denominator != 1:
            raise SchemaError(f"expected an integer, got {x}", "$.items")
    return tuple(int(x) for x in row)


def parse_model_file(text: str) -> ModelFile:
    """Parse and validate one model document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", "$") from exc
    except (RecursionError, ValueError) as exc:
        # nested past the recursion limit, or an integer past int's digit limit
        raise SchemaError(f"JSON beyond the reader's limits: {exc}", "$") from exc
    doc = _record(doc, "$")
    kind = _field(doc, "kind", "$")
    # a tuple lookup, so an unhashable kind such as a list is a schema error
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}", "$.kind")
    known = {"kind", "items", "weights"} | ({"r"} if kind == "disks" else set())
    extra = sorted(doc.keys() - known)
    if extra:
        raise SchemaError(f"unknown key {extra[0]!r}", f"$.{extra[0]}")
    items = _field(doc, "items", "$")
    if not isinstance(items, list):
        raise SchemaError("items must be a list", "$.items")
    model = _FORMATS[kind][0](doc, items)
    n = getattr(model, "n", len(items))
    # a graph takes n from a field, and _weights makes n values
    if n > MAX_N:
        raise SchemaError(f"a model file holds at most {MAX_N} vertices, got {n}",
                          "$.items")
    return ModelFile(kind, model, _weights(doc, n))


def _wrap(build, *args):
    try:
        return build(*args)
    except (SchemaError, ValidationError):
        raise
    except IsectError as exc:
        raise ValidationError(str(exc)) from exc


def _scalar(x) -> str:
    """A rational as the model file writes it: an integer, else "p/q"."""
    f = x if type(x) is Fraction else Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f'"{f.numerator}/{f.denominator}"'


def _layout(parts: list[str], depth: int, brackets: str = "[]") -> str:
    """Values already laid out, as one list (or object) at nesting
    ``depth`` the way json.dumps(indent=2) writes it; ``[]`` (``{}``) if none."""
    if not parts:
        return brackets
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  {f',{pad}  '.join(parts)}{pad}{brackets[1]}"


def _items(names: tuple[str, ...], rows) -> list[str]:
    """The "items" key: one record pattern of an id and ``names``, filled per row."""
    pattern = _layout(['"id": %d', *(f'"{f}": %s' for f in names)], 2, "{}")
    records = [pattern % (i, *row) for i, row in enumerate(rows, start=1)]
    return [',\n  "items": ' + _layout(records, 1)]


def _parse_permutation(doc, items):
    rec = _single_record(items, "$.items")
    seq = _field(rec, "pi", "$.items[0]")
    if not isinstance(seq, list):
        raise SchemaError("pi must be a list", "$.items[0].pi")
    vals = [_integer(x, f"$.items[0].pi[{k}]") for k, x in enumerate(seq)]
    return _wrap(Permutation.build, vals)


def _tolerance_row(rec, here):
    a, b = _numbers("a", "b")(rec, here)
    tol = _field(rec, "tol", here)
    return a, b, (INFINITE_TOLERANCE if tol == "inf"
                  else _number(tol, f"{here}.tol"))


def _parse_tolerance(doc, items):
    rows = _by_id(items, ("a", "b", "tol"), _tolerance_row)
    return _wrap(ToleranceRep.build,
                 [(a, b) for a, b, _ in rows], [t for _, _, t in rows])


def _box_row(rec, here):
    sides = _field(rec, "intervals", here)
    if not isinstance(sides, list) or not sides:
        raise SchemaError("intervals must be a non-empty list", f"{here}.intervals")
    box = []
    for c, side in enumerate(sides):
        spath = f"{here}.intervals[{c}]"
        if not isinstance(side, list) or len(side) != 2:
            raise SchemaError("each side must be a [low, high] pair", spath)
        box.append((_number(side[0], spath), _number(side[1], spath)))
    return tuple(box)


def _parse_boxes(doc, items):
    rows = _by_id(items, (), _box_row)
    return _wrap(KBoxModel.build, len(rows[0]) if rows else 1, rows)


def _parse_graph(doc, items):
    rec = _single_record(items, "$.items")
    n = _integer(_field(rec, "n", "$.items[0]"), "$.items[0].n")
    raw_edges = _field(rec, "edges", "$.items[0]")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list", "$.items[0].edges")
    if not (set(map(type, raw_edges)) <= {list} and set(map(len, raw_edges)) <= {2}
            and set(map(type, chain.from_iterable(raw_edges))) <= _INT):
        for k, e in enumerate(raw_edges):
            path = f"$.items[0].edges[{k}]"
            if not isinstance(e, list) or len(e) != 2:
                raise SchemaError("each edge must be a [u, v] pair", path)
            _integer(e[0], path)
            _integer(e[1], path)
    try:
        edges = np.fromiter(chain.from_iterable(raw_edges), dtype=np.int64,
                            count=2 * len(raw_edges)).reshape(-1, 2)
    except OverflowError:
        # an end past int64 is out of range; the pair path names it
        edges = raw_edges
    return _wrap(Graph.build, n, edges)


# kind -> (parser, emitter).  A parser takes the document and its items
# list and returns the typed model; an emitter takes the model and returns
# the text of the document's keys after "kind", in pieces joined once.
_FORMATS = {
    "interval": (
        lambda doc, items: _wrap(IntervalModel.build,
                                 _by_id(items, ("a", "b"))),
        lambda m: _items(("a", "b"), [map(_scalar, ab) for ab in m.intervals])),
    "arcs": (
        lambda doc, items: _wrap(ArcModel.build, _by_id(items, ("h", "t"))),
        lambda m: _items(("h", "t"), [map(_scalar, ht) for ht in m.arcs])),
    "permutation": (
        _parse_permutation,
        lambda p: [',\n  "items": ' + _layout(
            [_layout(['"pi": ' + _layout(list(map(str, p.pi)), 3)], 2, "{}")], 1)]),
    "trapezoid": (
        lambda doc, items: _wrap(TrapezoidModel.build, [
            _integers(row) for row in _by_id(items, ("a", "b", "c", "d"), exact=int)]),
        lambda m: _items(("a", "b", "c", "d"), m.items)),
    "dotted": (
        lambda doc, items: tuple(
            _wrap(DottedInterval.build, *_integers(row))
            for row in _by_id(items, ("s", "t", "d"), exact=int)),
        lambda m: _items(("s", "t", "d"), [(it.s, it.t, it.d) for it in m])),
    "tolerance": (
        _parse_tolerance,
        lambda m: _items(("a", "b", "tol"), [
            (_scalar(a), _scalar(b), '"inf"' if t == INFINITE_TOLERANCE else _scalar(t))
            for (a, b), t in zip(m.intervals, m.tolerances)])),
    "chords": (
        lambda doc, items: _wrap(ChordModel.build, [
            _integers(row) for row in _by_id(items, ("x", "y"), exact=int)]),
        lambda m: _items(("x", "y"), m.chords)),
    "disks": (
        lambda doc, items: _wrap(DiskPoints.build, _by_id(items, ("x", "y")),
                                 _number(_field(doc, "r", "$"), "$.r")),
        lambda m: [',\n  "r": ' + _scalar(m.r),
                   *_items(("x", "y"), [map(_scalar, xy) for xy in m.points])]),
    "boxes": (
        _parse_boxes,
        lambda m: _items(("intervals",), [
            (_layout([_layout([_scalar(lo), _scalar(hi)], 4) for lo, hi in box], 3),)
            for box in m.boxes])),
    "graph": (
        _parse_graph,
        # the edge block is one piece, as edge_text made it
        lambda g: [',\n  "items": [\n    {\n      "n": %d,\n      "edges": ' % g.n,
                   *(("[\n", g.edge_text(_EDGE_JSON, ",\n"), "\n      ]")
                     if len(g.edge_array) else ("[]",)), "\n    }\n  ]"]),
}

# one edge of a graph document as json.dumps(indent=2) lays it out
_EDGE_JSON = "        [\n          {u},\n          {v}\n        ]"

KINDS = tuple(_FORMATS)


def emit_model_file(mf: ModelFile) -> str:
    """Serialize a model document in canonical form.

    The output is stable: fixed key order, sorted structures, rationals
    as "p/q" strings, a trailing newline: json.dumps(indent=2)'s text,
    laid out by hand.  Parsing and re-emitting reproduces it byte for byte.
    """
    if mf.kind not in KINDS:
        raise SchemaError(f"unknown kind {mf.kind!r}", "$.kind")
    pieces = ['{\n  "kind": "%s"' % mf.kind, *_FORMATS[mf.kind][1](mf.model)]
    if mf.weights is not None:
        pieces.append(',\n  "weights": ' + _layout(list(map(_scalar, mf.weights)), 1))
    pieces.append("\n}\n")
    return "".join(pieces)
