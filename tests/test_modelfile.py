"""Model document parsing, validation diagnostics, canonical emission."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    arc_model_build_reference,
    by_id_int_reference,
    by_id_reference,
    emit_model_file_reference,
    interval_model_build_reference,
    numbers_reference,
    rational_pair_reference,
    weights_reference,
)
from isect import geom, modelfile
from isect.arcs import ArcModel
from isect.errors import SchemaError, ValidationError
from isect.generators import GeneratorSpec, generate_model
from isect.geom import INFINITE_TOLERANCE, DottedInterval
from isect.graph import Graph
from isect.intervals import IntervalModel
from isect.modelfile import KINDS, ModelFile, emit_model_file, parse_model_file

MINIMAL_INTERVAL = """
{"kind": "interval",
 "items": [{"id": 1, "a": 0, "b": 2}, {"id": 2, "a": 1, "b": 3}]}
"""

DOTTED_FIVE = """
{"kind": "dotted", "items": [
  {"id": 1, "s": 1, "t": 5, "d": 2},
  {"id": 2, "s": 2, "t": 3, "d": 1},
  {"id": 3, "s": 1, "t": 7, "d": 2},
  {"id": 4, "s": 4, "t": 6, "d": 2},
  {"id": 5, "s": 6, "t": 8, "d": 2}]}
"""


def test_minimal_interval_file():
    mf = parse_model_file(MINIMAL_INTERVAL)
    assert mf.kind == "interval"
    assert isinstance(mf.model, IntervalModel)
    assert mf.model.n == 2
    assert mf.weights is None


def test_dotted_file_yields_five_progressions():
    mf = parse_model_file(DOTTED_FIVE)
    assert len(mf.model) == 5
    assert all(isinstance(x, DottedInterval) for x in mf.model)
    assert mf.model[0] == DottedInterval.build(1, 5, 2)
    assert mf.model[4] == DottedInterval.build(6, 8, 2)


def test_reversed_interval_is_a_validation_error():
    bad = '{"kind": "interval", "items": [{"id": 1, "a": 5, "b": 2}]}'
    with pytest.raises(ValidationError, match="interval 1"):
        parse_model_file(bad)


def test_schema_errors_carry_paths():
    cases = [
        ("not json at all", "$"),
        ('{"items": []}', "$"),
        ('{"kind": "nope", "items": []}', "$.kind"),
        ('{"kind": "interval", "items": 3}', "$.items"),
        ('{"kind": "interval", "items": [5]}', "$.items[0]"),
        ('{"kind": "interval", "items": [{"a": 1, "b": 2}]}', "$.items[0]"),
        ('{"kind": "interval", "items": [{"id": 1, "a": 1}]}', "$.items[0]"),
        ('{"kind": "interval", "items": [{"id": 2, "a": 1, "b": 2}]}',
         "$.items"),
        # exponent form would make Fraction build a ten-million-digit integer
        ('{"kind": "interval", "items": [{"id": 1, "a": "1e10000000", "b": 2}]}',
         "$.items[0].a"),
        ('{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2}],'
         ' "weights": ["2E3"]}', "$.weights[0]"),
        # unknown top-level keys, the first in sorted order
        ('{"kind": "interval", "items": [], "wieghts": [], "r": 1}', "$.r"),
    ]
    for text, path in cases:
        with pytest.raises(SchemaError) as info:
            parse_model_file(text)
        assert info.value.path == path, text


def test_floats_are_rejected():
    bad = '{"kind": "interval", "items": [{"id": 1, "a": 0.5, "b": 2}]}'
    with pytest.raises(SchemaError, match="rational string"):
        parse_model_file(bad)


def test_rational_strings():
    text = '{"kind": "interval", "items": [{"id": 1, "a": "1/2", "b": "0.75"}]}'
    m = parse_model_file(text).model
    assert m.intervals == ((Fraction(1, 2), Fraction(3, 4)),)
    with pytest.raises(SchemaError, match="bad rational"):
        parse_model_file(
            '{"kind": "interval", "items": [{"id": 1, "a": "x", "b": 2}]}')


def test_duplicate_ids_rejected():
    # two records of each kind; the second id is either a repeat or a gap
    records = {"chords": ('"x": 1, "y": 2', '"x": 3, "y": 4'),
               "tolerance": ('"a": 0, "b": 2, "tol": 1',
                             '"a": 1, "b": 3, "tol": "inf"'),
               "boxes": ('"intervals": [[0, 1]]', '"intervals": [[2, 3]]')}
    doc = '{"kind": "%s", "items": [{"id": 1, %s}, {"id": %d, %s}]}'
    for kind, (first, second) in records.items():
        with pytest.raises(SchemaError, match="duplicate id"):
            parse_model_file(doc % (kind, first, 1, second))
        with pytest.raises(SchemaError, match=r"ids must cover 1\.\.2 exactly"):
            parse_model_file(doc % (kind, first, 3, second))


def test_weights_as_list_and_mapping():
    listed = parse_model_file(
        '{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2},'
        ' {"id": 2, "a": 1, "b": 3}], "weights": [3, "1/2"]}')
    assert listed.weights == (Fraction(3), Fraction(1, 2))
    mapped = parse_model_file(
        '{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2},'
        ' {"id": 2, "a": 1, "b": 3}], "weights": {"2": 7}}')
    # absent vertices default to weight 1
    assert mapped.weights == (Fraction(1), Fraction(7))


def test_weight_shape_errors():
    base = ('{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2}],'
            ' "weights": %s}')
    with pytest.raises(SchemaError, match="expected 1 weights"):
        parse_model_file(base % "[1, 2]")
    with pytest.raises(SchemaError, match="unknown vertex"):
        parse_model_file(base % '{"9": 1}')
    with pytest.raises(SchemaError, match="not a vertex id"):
        parse_model_file(base % '{"one": 1}')
    # int() reads each of these as an id, "1_0" as 10 and the rest as 1, so
    # a second spelling of vertex 1 would overwrite its weight silently
    for key in ("01", " 1", "1 ", "+1", "\u0661", "1_0"):
        with pytest.raises(SchemaError, match=re.escape(f"weight key {key!r} is not")):
            parse_model_file(base % json.dumps({"1": 5, key: 7}))


def test_tolerance_inf_and_values():
    text = ('{"kind": "tolerance", "items": ['
            '{"id": 1, "a": 0, "b": 4, "tol": "inf"},'
            '{"id": 2, "a": 1, "b": 3, "tol": "3/2"}]}')
    rep = parse_model_file(text).model
    assert rep.tolerances == (INFINITE_TOLERANCE, Fraction(3, 2))


def test_permutation_and_graph_single_record_kinds():
    p = parse_model_file('{"kind": "permutation", "items": [{"pi": [2, 3, 1]}]}')
    assert p.model.pi == (2, 3, 1)
    g = parse_model_file(
        '{"kind": "graph", "items": [{"n": 3, "edges": [[1, 2], [3, 2]]}]}')
    assert g.model == Graph.build(3, [(1, 2), (2, 3)])
    with pytest.raises(SchemaError, match="exactly one record"):
        parse_model_file('{"kind": "permutation", "items": []}')


def test_box_side_count_mismatch_is_a_validation_error():
    bad = ('{"kind": "boxes", "items": ['
           '{"id": 1, "intervals": [[0, 1], [0, 1]]},'
           '{"id": 2, "intervals": [[0, 1]]}]}')
    with pytest.raises(ValidationError):
        parse_model_file(bad)


def test_disks_need_top_level_radius():
    with pytest.raises(SchemaError, match="missing field 'r'"):
        parse_model_file('{"kind": "disks", "items": [{"id": 1, "x": 0, "y": 0}]}')
    mf = parse_model_file(
        '{"kind": "disks", "r": "3/2", "items": [{"id": 1, "x": 0, "y": 0}]}')
    assert mf.model.r == Fraction(3, 2)


def test_emit_is_canonical():
    # hand-written text normalizes once, then re-emission is a fixpoint
    first = emit_model_file(parse_model_file(MINIMAL_INTERVAL))
    again = emit_model_file(parse_model_file(first))
    assert first == again
    assert first.endswith("\n")


def test_generated_models_round_trip_every_kind():
    for kind in KINDS:
        mf = generate_model(GeneratorSpec(kind, 6, 99, {"weights": True}))
        text = emit_model_file(mf)
        back = parse_model_file(text)
        assert back.kind == kind
        assert emit_model_file(back) == text, kind


def test_emitted_weights_survive():
    mf = ModelFile("interval",
                   IntervalModel.build([(0, 2), (1, 3)]),
                   (Fraction(1, 3), Fraction(2)))
    back = parse_model_file(emit_model_file(mf))
    assert back.weights == (Fraction(1, 3), Fraction(2))


# -- the reader against the parent's, on drawn documents ----------------------

def _types(x):
    # the type of every value inside x, so Fraction(3) and 3 differ
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str)
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_types(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_types, x))
    if isinstance(x, dict):
        return tuple((_types(k), _types(v)) for k, v in x.items())
    return type(x)


def _outcome(text):
    try:
        mf = parse_model_file(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "path", None)
    return mf, _types(mf)


def _reference_outcome(text):
    """_outcome with the parent's reader and constructors in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_by_id", lambda items, names, row=None, plain=None:
                   by_id_reference(items, row or numbers_reference(*names)))
        mp.setattr(modelfile, "_numbers", numbers_reference)
        mp.setattr(modelfile, "_weights", weights_reference)
        mp.setattr(geom, "rational_pair", rational_pair_reference)
        mp.setattr(IntervalModel, "build", staticmethod(interval_model_build_reference))
        mp.setattr(ArcModel, "build", staticmethod(arc_model_build_reference))
        return _outcome(text)


ODD = [True, False, None, 0.5, 3.0, "1e3", "2E1", "x", "1/0", "", [1, 2], {}]


@st.composite
def documents(draw):
    """A generated model document, then up to two faults or re-spellings:
    odd values, bool, repeated or missing ids, missing fields, non-dict
    items, endpoints shared within or across items, rational strings."""
    kind = draw(st.sampled_from(KINDS))
    params = {"weights": True} if draw(st.booleans()) else {}
    mf = generate_model(GeneratorSpec(kind, draw(st.integers(1, 7)),
                                      draw(st.integers(1, 60)), params))
    doc = json.loads(emit_model_file(mf))
    items = doc["items"]
    for _ in range(draw(st.integers(0, 2))):
        what = draw(st.sampled_from(["tie", "tie", "tie", "spell", "spell", "value",
                                     "id", "drop", "item", "weight"]))
        k = draw(st.integers(0, len(items) - 1))
        rec = items[k]
        if what == "item":
            items[k] = draw(st.sampled_from([5, "x", [1, 2], None, 1.5]))
            continue
        if what == "weight":
            w = doc.setdefault("weights", [1] * len(items))
            if w and draw(st.booleans()):
                w[draw(st.integers(0, len(w) - 1))] = draw(st.sampled_from(
                    ODD + ["3/4", "2", "0.5", -1]))
            else:
                w.append(1)
            continue
        if not isinstance(rec, dict) or not rec:
            continue
        field = draw(st.sampled_from(sorted(rec)))
        if what == "value":
            rec[field] = draw(st.sampled_from(ODD))
        elif what == "id":
            rec["id"] = draw(st.sampled_from([True, 1, len(items), len(items) + 1, 0,
                                              "1", -2]))
        elif what == "drop":
            del rec[field]
        elif what == "tie":
            other = items[draw(st.integers(0, len(items) - 1))]
            if isinstance(other, dict) and set(other) - {"id"}:
                rec[field] = other[draw(st.sampled_from(sorted(set(other) - {"id"})))]
        elif type(rec[field]) is int:
            v = rec[field]
            rec[field] = draw(st.sampled_from([str(v), f"{2 * v}/2", f"{v}.0", f"{v}/3"]))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_reader_matches_the_parents_reader(text):
    got, want = _outcome(text), _reference_outcome(text)
    assert got == want
    if isinstance(got[0], ModelFile) and got[0].kind in ("interval", "arcs", "disks"):
        # every coordinate of a rational kind is a Fraction
        coords = {"interval": "intervals", "arcs": "arcs", "disks": "points"}
        for pair in getattr(got[0].model, coords[got[0].kind]):
            assert set(map(type, pair)) == {Fraction}


def test_reader_light_and_field_paths_agree():
    # the same model as ints and as strings, and faults the light path hands on
    doc = '{"kind": "interval", "items": [{"id": 2, "a": %s, "b": %s}, {"id": 1, "a": 0, "b": 2}]}'
    light, spelled = parse_model_file(doc % (1, 3)), parse_model_file(doc % ('"1"', '"6/2"'))
    assert light == spelled and light.model.intervals[1] == (Fraction(1), Fraction(3))
    cases = [
        ('{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2},'
         ' {"id": 1, "a": 1, "b": 3}]}', "$.items[1]", "duplicate id 1"),
        ('{"kind": "interval", "items": [{"id": true, "a": 0, "b": 2}]}',
         "$.items[0].id", "expected an integer"),
        ('{"kind": "dotted", "items": [{"id": 1, "s": "1/2", "t": 3, "d": 1},'
         ' {"id": 3, "s": 1, "t": 3, "d": 1}]}', "$.items", "ids must cover"),
        ('{"kind": "dotted", "items": [{"id": 1, "s": "3/2", "t": 3, "d": 1}]}',
         "$.items", "expected an integer, got 3/2"),
        ('{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2}],'
         ' "weights": [1, true]}', "$.weights", "expected 1 weights"),
        ('{"kind": "interval", "items": [{"id": 1, "a": 0, "b": 2}],'
         ' "weights": [true]}', "$.weights[0]", "rational string"),
    ]
    for text, path, message in cases:
        with pytest.raises(SchemaError, match=message) as info:
            parse_model_file(text)
        assert info.value.path == path, text
    # a dotted row is checked whole just before it is built, so an earlier
    # row's fault comes first; trapezoid rows are all checked before the build
    dotted = ('{"kind": "dotted", "items": [{"id": 1, "s": 3, "t": 1, "d": 1},'
              ' {"id": 2, "s": "1/2", "t": 3, "d": 1}]}')
    trapezoid = ('{"kind": "trapezoid", "items": [{"id": 1, "a": 3, "b": 1, "c": 1, "d": 2},'
                 ' {"id": 2, "a": "1/2", "b": 3, "c": 1, "d": 2}]}')
    for text, fault in ((dotted, ValidationError), (trapezoid, SchemaError)):
        assert _outcome(text)[0] is fault
        assert _outcome(text) == _reference_outcome(text)


# -- the column reader against the parent's per-item light path --------------

def _parent_by_id_outcome(text):
    """_outcome with the parent's _by_id, which read int fields item by item."""
    def parent(items, names, row=None, plain=None):
        exact = int if plain and plain[0] is modelfile._ints else Fraction
        return by_id_int_reference(items, names, row, exact)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelfile, "_by_id", parent)
        return _outcome(text)


RECORD_KINDS = [k for k in KINDS if k not in ("permutation", "graph")]
# values put in one field of one item: rational spellings, then wrong types
SPELLINGS = ["-3/4", "6/2", "1/0", "1e3", "+1/2", " 1/2", "1.5", "7/7", "-0/5", "inf",
             True, 1.5, 2 ** 63, -2 ** 70, None, [1, 2]]


def _mutants(kind):
    """A generated document of ``kind`` and faults of it, as JSON text."""
    base = json.loads(emit_model_file(generate_model(GeneratorSpec(kind, 5, 3, {}))))
    yield base
    fields = [f for f in base["items"][0] if f != "id"]
    for k in (0, 4):
        for f in fields:
            for value in SPELLINGS:
                doc = json.loads(json.dumps(base))
                if f == "intervals":
                    doc["items"][k][f][0][1] = value
                else:
                    doc["items"][k][f] = value
                yield doc
            doc = json.loads(json.dumps(base))
            del doc["items"][k][f]
            yield doc
        for item in (5, "x", None, [1, 2]):
            doc = json.loads(json.dumps(base))
            doc["items"][k] = item
            yield doc
    items = base["items"]
    for order in (items[::-1], items[1:] + items[:1]):
        yield {**base, "items": order}
    for ident in (1, 6, 0, "2", True):
        yield {**base, "items": [items[0], {**items[1], "id": ident}, *items[2:]]}
    yield {**base, "items": items[:2] + items[3:]}
    yield {**base, "items": [{k: v for k, v in items[0].items() if k != "id"}, *items[1:]]}
    if kind == "boxes":
        sides = items[2]["intervals"]
        for bad in (sides[:1], sides + sides[:1], [], [sides[0][:1], sides[1]],
                    [sides[0] + [9], sides[1]], [5, sides[1]], "x"):
            yield {**base, "items": [*items[:2], {**items[2], "intervals": bad}, *items[3:]]}
        yield {**base, "items": [{**it, "intervals": it["intervals"][:1]} for it in items]}
    if kind == "tolerance":
        for f in ("a", "b", "tol"):
            yield {**base, "items": [{**it, f: "inf"} for it in items]}


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_column_reader_matches_the_parents_on_faults(kind):
    for doc in _mutants(kind):
        text = json.dumps(doc)
        assert _outcome(text) == _parent_by_id_outcome(text), text


@pytest.mark.parametrize("kind", KINDS)
def test_column_reader_matches_the_parents_on_generated_models(kind):
    for n in (1, 2, 17, 60):
        for seed in (1, 2):
            for params in ({}, {"weights": True}):
                text = emit_model_file(generate_model(GeneratorSpec(kind, n, seed, params)))
                got = _outcome(text)
                assert isinstance(got[0], ModelFile)
                assert got == _parent_by_id_outcome(text)


def test_column_reader_takes_plain_values_only():
    read = modelfile._rationals
    assert read([1, "-3/4", "6/2", "-0/5"]) == [1, Fraction(-3, 4), 3, 0]
    assert read(["inf", "1/2"], inf=True) == [INFINITE_TOLERANCE, Fraction(1, 2)]
    for bad in ("inf", "1/0", "1e3", "+1/2", " 1/2", "1.5", "1/2 ", "٣/4", True, 1.5):
        assert read([1, bad]) is None, bad
    assert read(["9" * 5000 + "/1"]) is None
    assert modelfile._ints([1, 2]) == [1, 2] and modelfile._ints([1, "2"]) is None


# -- the writer against the parent's, on drawn and generated models -----------

# negative rationals, and integers past 2**63
RATIONALS = st.one_of(st.integers(-2 ** 70, 2 ** 70).map(Fraction),
                      st.fractions(min_value=-100, max_value=100, max_denominator=60))
POSITIVE = st.fractions(min_value=Fraction(1, 60), max_value=2 ** 70, max_denominator=60)


@st.composite
def raw_documents(draw):
    """A valid document of any kind with n = 0..6 written as a user might:
    ints or "p/q" strings, items in any order, weights as a list or keyed
    by id, a rational disk radius, boxes of 1..3 sides."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(0, 6))

    def spell(f):
        return int(f) if f.denominator == 1 and draw(st.booleans()) else str(f)

    doc, rows = {"kind": kind}, []
    if kind in ("interval", "tolerance"):
        for _ in range(n):
            a = draw(RATIONALS)
            rows.append({"a": spell(a), "b": spell(a + draw(POSITIVE))})
            if kind == "tolerance":
                rows[-1]["tol"] = "inf" if draw(st.booleans()) else spell(draw(POSITIVE))
    elif kind in ("arcs", "disks"):
        ends = list(map(spell, draw(st.lists(RATIONALS, min_size=2 * n, max_size=2 * n,
                                             unique=True))))
        names = ("h", "t") if kind == "arcs" else ("x", "y")
        rows = [dict(zip(names, ends[2 * k:2 * k + 2])) for k in range(n)]
        if kind == "disks":
            doc["r"] = spell(draw(POSITIVE))
    elif kind == "chords":
        ends = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=2 * n, max_size=2 * n,
                             unique=True))
        rows = [{"x": x, "y": y} for x, y in zip(ends[::2], ends[1::2])]
    elif kind == "dotted":
        for _ in range(n):
            s, d = draw(st.integers(1, 2 ** 70)), draw(st.integers(1, 2 ** 70))
            rows.append({"s": s, "t": s + d * draw(st.integers(0, 3)), "d": d})
    elif kind == "boxes":
        k = draw(st.integers(1, 3))
        for _ in range(n):
            los = [draw(RATIONALS) for _ in range(k)]
            rows.append({"intervals": [[spell(lo), spell(lo + draw(POSITIVE))] for lo in los]})
    elif kind == "trapezoid":
        top, bottom = (draw(st.permutations(range(1, 2 * n + 1))) for _ in range(2))
        tops = sorted((sorted(top[2 * k:2 * k + 2]) for k in range(n)), key=lambda p: p[1])
        rows = [{"a": a, "b": b, "c": min(bottom[2 * k:2 * k + 2]), "d": max(bottom[2 * k:2 * k + 2])}
                for k, (a, b) in enumerate(tops)]
    if kind == "permutation":
        doc["items"] = [{"pi": draw(st.permutations(range(1, n + 1)))}]
    elif kind == "graph":
        ends = st.integers(1, max(n, 1))
        edges = st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]).map(list),
                         max_size=20 if n > 1 else 0)
        doc["items"] = [{"n": n, "edges": draw(edges)}]
    else:
        doc["items"] = draw(st.permutations([{"id": i, **row}
                                             for i, row in enumerate(rows, start=1)]))
    weights = st.one_of(st.just(Fraction(0)), POSITIVE).map(spell)
    form = draw(st.sampled_from(["none", "list", "ids"]))
    if form == "list":
        doc["weights"] = [draw(weights) for _ in range(n)]
    elif form == "ids":
        doc["weights"] = {str(v): draw(weights)
                          for v in draw(st.sets(st.integers(1, max(n, 1)), max_size=n))}
    return json.dumps(doc)


def _emits_as_the_parent(mf):
    text = emit_model_file(mf)
    assert text == emit_model_file_reference(mf)
    assert emit_model_file(parse_model_file(text)) == text


@settings(max_examples=400, deadline=None)
@given(raw_documents())
def test_writer_matches_the_parents_on_drawn_documents(text):
    _emits_as_the_parent(parse_model_file(text))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(1, 10 ** 6), st.booleans())
def test_writer_matches_the_parents_on_generated_models(kind, n, seed, weighted):
    _emits_as_the_parent(generate_model(
        GeneratorSpec(kind, n, seed, {"weights": True} if weighted else {})))
