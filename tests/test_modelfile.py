"""Model document parsing, validation diagnostics, canonical emission."""

from fractions import Fraction

import pytest

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
