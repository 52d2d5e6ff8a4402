"""Command dispatch, exit codes, stable output, dual-path agreement."""

import argparse
import ast
import hashlib
import importlib.util
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isect import cli
from isect.cli import execute
from isect.errors import BadParams, IsectError
from isect.generators import MAX_N, GeneratorSpec, generate_model
from isect.geom import DottedInterval, dotted_intersect
from isect.graph import Graph
from isect.intervals import build_interval_graph
from isect.modelfile import KINDS, emit_model_file, parse_model_file
from isect.trapezoids import segments_joint

DOTTED_FILE = """
{"kind": "dotted", "items": [
  {"id": 1, "s": 1, "t": 5, "d": 2},
  {"id": 2, "s": 2, "t": 3, "d": 1},
  {"id": 3, "s": 1, "t": 7, "d": 2},
  {"id": 4, "s": 4, "t": 6, "d": 2},
  {"id": 5, "s": 6, "t": 8, "d": 2}]}
"""


def run(capsys, *argv):
    rc = execute(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_prints_sorted_edge_lines(tmp_path, capsys):
    path = tmp_path / "dotted.json"
    path.write_text(DOTTED_FILE)
    rc, out, err = run(capsys, "build", "--model", str(path))
    assert rc == 0 and err == ""
    assert out.splitlines() == ["1 2", "1 3", "2 3", "4 5"]


# sha256 of `isect build` stdout for `gen --n 60 --seed 7` of each kind, as
# printed by the per-pair builders before the vectorised ones replaced them
BUILD_SHA256 = {
    "interval": "f7f0aca686302c48ff8936d979ca476b0ae8a3753dae72b89bcaffda7e4dd7aa",
    "arcs": "c6a671905712a96e3142554a334e2bdd7ab12b17854ae98efc56c83923939869",
    "permutation": "ba56f16ace8c3a239a4e56e0744dcea24930e9f35a10e0887b610cf474bb78c1",
    "trapezoid": "d128e955a485f2e6697922a921b6c2ee673d9b6cf0e2d16ba0d019b61251595d",
    "dotted": "434f78ac82403f1c44b0e617eb8efd10c67f1af497911aa0746a17e3f08f76e5",
    "tolerance": "1bf60ac2a696867d976ee7731b1cbd10034ada42d157b47316a77a721d396ca4",
    "chords": "f6c45658afb2b4f79fc44d7fc616184c31edacfdbbf224279e51ecf939d54b95",
    "disks": "6f7f2fa39839a18533dede645a5772d67d8afbffcba2892455eeb13d40ab8f79",
    "boxes": "a1ffe5ec30c37d2cde3ce187365680ec09662d67edc8021ce78dc5761effe5e4",
    "graph": "b427393407f8a69c4f2e883d4750e41ae99275c844e357c4e2b89847ebedbe5e",
}


@pytest.mark.parametrize("kind", sorted(BUILD_SHA256))
def test_build_output_is_byte_identical(kind, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(emit_model_file(generate_model(GeneratorSpec(kind, 60, 7))))
    rc, out, err = run(capsys, "build", "--model", str(path))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_SHA256[kind]


# sha256 of `isect solve` stdout on weighted `gen --seed 7` files, as printed
# before the arc and permutation-clique solvers moved onto one witness rule;
# the arc and interval-clique rows, as printed before the weighted solvers
# moved onto perturbed integer weights
SOLVE_SHA256 = {
    ("arcs", "mis", 50): "04a31fdf2bc7107c94039621ae2b839fb507d5206316a1e25d77bed48ea1025d",
    ("arcs", "mwis", 50): "d8753e301311045ba2e1be55512c4ff54101ac5320d2c2cda0d67c952e144b66",
    ("arcs", "mis", 100): "94fd7f985b635ff5fe0f89305469a6f74d294313a71e7a4388f410bebb8f19c3",
    ("arcs", "mwis", 100): "c25d98a185f32d30ad6705df3b1b297701fbab36a6e0674752bcfcca11160a9a",
    ("interval", "max_clique", 60): "8e97b064fb6a40ee3248124cb24335e0fa83f42eb21a048366b24d9457d91eaa",
    ("interval", "max_clique", 200): "1babf80519844b4e6c108ecacc2dd5de759960dec7c11062ad2c598c5de044bc",
    ("permutation", "mis", 60): "1c36bc822f7e3186d18bc55da615e3538763c16d4ad0ccf169d8c7b8ab69492d",
    ("permutation", "mwis", 60): "fbcf95f8ddfad9ba184936c70ca4bb511f7663f4fb40e9d438cd10660dae8fbf",
    ("permutation", "max_clique", 60): "b9fbc00ab277fbae5097e4ca8008f76ecfcc64571edf719534b576d9b6de8f2e",
    ("permutation", "mis", 200): "0fa9b707169b96fe8e0ce9b23a4761d1a36b2f40d7f2b42526ef3fbd6105019a",
    ("permutation", "mwis", 200): "ed7824b184a9a1b02b499b3039eac0bfd9ec09ff7cac113692f6f2e3c0de3a2c",
    ("permutation", "max_clique", 200): "bb2bf35fc6c35b05067c932eac800084e1d2c8859866ed7206e9c766449ac1e1",
    ("interval", "mis", 60): "e10f70feb73f46c81cf3ef02bf770fb370df6d72e142af8f78344ac297070f0d",
    ("interval", "mwis", 60): "20712a56e12e3a6a5be3dd750ee19b907ddeee79dee68300e272a0a80c02592c",
    ("interval", "coloring", 60): "93c32d3e4c2af4561dd65346f4d4a89aa71aacfbb67fc65f4633217bbbe617f9",
    ("interval", "mis", 200): "57b366469fc8f2f48938bae4f673b21f3aa8be478d8d8878616318ce13eb2a3a",
    ("interval", "mwis", 200): "7ab78e2fd65328d98f779e81f4666ad57431b2293e69c46881873fc53b51053a",
    ("interval", "coloring", 200): "4f845aaaff8eb8c5d9b46426322965f2494735d2a8dfc001dfd4ddd362d2f153",
}


@pytest.mark.parametrize("kind, problem, n", sorted(SOLVE_SHA256))
def test_solve_output_is_byte_identical(kind, problem, n, tmp_path, capsys):
    path = tmp_path / "m.json"
    mf = generate_model(GeneratorSpec(kind, n, 7, {"weights": True}))
    path.write_text(emit_model_file(mf))
    rc, out, err = run(capsys, "solve", "--model", str(path), "--problem", problem)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_SHA256[kind, problem, n]


# sha256 of `isect oracle` stdout on weighted `gen --seed 7` files, as printed
# by the oracles that walked `combinations` before the subset table replaced them
ORACLE_SHA256 = {
    ("disks", "max_clique", 16): "d2cb180117d5a3cfa91d3928ebba0a7383d3594acd70b60094347d4b7f8b2ce4",
    ("chords", "mis", 16): "4832527381fc47f0815a089ab3a84d5ef9f2635975cb3a552c76659483729620",
    ("trapezoid", "mis", 16): "5f724d01977570cfc1b8e7fd7566a712fb3d5f97c11d635fdc4eb3c95471f55d",
    ("graph", "max_clique", 16): "ac233f9c9bc8757c16f9bd018d6dfa1141c557145bdcf18b05bfe7fe97c0090b",
    ("permutation", "max_clique", 16): "9724b76a429801c9185241126b081540629180fd39a6aa3af14b73d191d67d4f",
    ("arcs", "mwis", 16): "799843a61bc1f9d1607ba8c6876cfdcb9981182112480d2641ea2a23fbc23dc9",
    ("interval", "mis", 16): "2300462f8a9aac43222ce970af950d79eacc8096e329a9484713ae9d081a1da3",
    ("dotted", "mwis", 16): "1e4e0bde738726121025b222ef222e523cf11ca76e59d414361962863fc98aca",
    ("graph", "mwis", 14): "1eb921480d3c1cff9eeac0fc757acc81fddef834796a6f9d62095c08972fef60",
    ("tolerance", "coloring", 12): "ef324923fa83791d41b1a9357d63845144410fa5af3eedd404a9f2d970b13fee",
    ("boxes", "coloring", 12): "1f4e3d2de617aecee28a57eb21cd56d45690857d33042fdef2b4f56511252ea6",
    ("chords", "coloring", 12): "80245d62bde9f18315a47574a620a762a4379e89de99825f82d41312b19df8b8",
}


@pytest.mark.parametrize("kind, problem, n", sorted(ORACLE_SHA256))
def test_oracle_output_is_byte_identical(kind, problem, n, tmp_path, capsys):
    path = tmp_path / "m.json"
    mf = generate_model(GeneratorSpec(kind, n, 7, {"weights": True}))
    path.write_text(emit_model_file(mf))
    rc, out, err = run(capsys, "oracle", "--model", str(path), "--problem", problem)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[kind, problem, n]


def test_oracle_prints_the_clique_cover_as_part_numbers(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(emit_model_file(generate_model(GeneratorSpec("interval", 8, 3, {}))))
    rc, out, err = run(capsys, "oracle", "--model", str(path), "--problem", "min_clique_cover")
    assert rc == 0 and err == ""
    # parts (1, 2, 4, 6) and (3, 5, 7, 8), read off per vertex like a colors line
    assert out.splitlines() == ["value 2", "cover 1 1 2 1 2 1 2 2"]


# the oracle problems with arguments the command line has no option for
@pytest.mark.parametrize("problem, error", [
    ("steiner_set", "error: steiner_set needs targets\n"),
    ("next_to_shortest", "error: next_to_shortest needs endpoints u and v\n"),
])
def test_oracle_refuses_the_library_only_problems(problem, error, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(emit_model_file(generate_model(GeneratorSpec("interval", 4, 1))))
    rc, out, err = run(capsys, "oracle", "--model", str(path), "--problem", problem)
    assert rc == 1 and out == "" and err == error


def test_long_distinct_denominators_exceed_the_size_budget(tmp_path, capsys):
    # 80 coordinates with distinct 200-digit denominators: their lcm would
    # have about 53 000 bits, and every squared distance would be that wide
    items = [{"id": i, "x": f"1/{10**199 + 2 * i + 1}", "y": f"1/{10**199 + 2 * i + 81}"}
             for i in range(1, 41)]
    path = tmp_path / "disks.json"
    path.write_text(json.dumps({"kind": "disks", "r": 1, "items": items}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "build", "--model", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: common denominator of the rationals passes 1024 bits")
    assert time.perf_counter() - start < 1.0

# sha256 of `isect gen` stdout at seed 7 (key: kind, n), and of the emitted
# weighted graph at n = 50, seed 3 (key: "graph", 50, "weights"), as written
# by json.dumps over per-edge lists and a coin() call per pair
GEN_SHA256 = {
    ("interval", 60): "f077f79ca919b4aa0c6432d23b16da4b0c7b3dc66632e3c607880b7fd79cda0f",
    ("arcs", 60): "770818709cd85696d8e46ad364861b00ba709bfb8cb9ad92ce9364bb17a127ae",
    ("permutation", 60): "032314b0079f4f31f1522cd45df7c3351d6baf901e1ea3001f0d42075919ba1a",
    ("trapezoid", 60): "79efb9f1a8867187453508e16c03f1ae2f3b2c90ca2c1c82d1073f98cb4050e4",
    ("dotted", 60): "680513e8a6f51baf44ddfde283be4f5819ba0bc6e8ea074b0d4b210460a16a50",
    ("tolerance", 60): "2b5b5ea67c87b70102c66286eede92462155b32f3710570ca1d37cb141bcbe98",
    ("chords", 60): "27ed7d07fcf99e9f5d087aa5398365869d622506b9a41312f861ab4bd4a6acba",
    ("disks", 60): "ea0b33ae63ad5f8ccd4ffdc346ff0f526af9078871c0ac6951d4882955c8868f",
    ("boxes", 60): "d1867db541740c43c000786a4091eb09e57bb884880623ea12eb3e4fb626fc80",
    ("graph", 60): "ded66b0722bdb53ecceada387f1a5b0c5244b12b4d9ccba4e4842456091858e4",
    ("graph", 1): "f96a103a2d3160d57fadc8597701bdf19ddbc9b590203d03a108003d0cfd3ae4",
    ("graph", 2): "ec097880a12f6535dc7915c97e78ef7b4dfc2abec73ed1173b6cdc64a9d52217",
    ("graph", 400): "84f471f9a7e7d42ba8effd07c74fab2e65fdaaaacc8f7c43f6f491dead88a7e9",
    ("graph", 50, "weights"): "6f438491070dc1494272f33aae7f1d62cd69ea150492790097c3c5852ddd1fc0",
}


@pytest.mark.parametrize("key", sorted(GEN_SHA256, key=str))
def test_gen_output_is_byte_identical(key, capsys):
    if key[2:] == ("weights",):
        out = emit_model_file(generate_model(GeneratorSpec("graph", 50, 3, {"weights": True})))
    else:
        rc, out, err = run(capsys, "gen", "--kind", key[0], "--n", str(key[1]), "--seed", "7")
        assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[key]
    assert emit_model_file(parse_model_file(out)) == out


def test_gen_size_is_capped_before_anything_is_drawn(capsys):
    rc, out, err = run(capsys, "gen", "--kind", "graph", "--n", str(MAX_N + 1))
    assert rc == 1 and out == ""
    assert err == f"error: generator size must be in 1..{MAX_N}, got {MAX_N + 1}\n"
    t0 = time.perf_counter()
    for kind in ("graph", "interval", "boxes"):
        with pytest.raises(BadParams):
            generate_model(GeneratorSpec(kind, 10 ** 6, 1))
    assert time.perf_counter() - t0 < 0.01
    assert generate_model(GeneratorSpec("permutation", MAX_N, 1)).model.n == MAX_N


def test_gen_box_dimension_is_capped_before_anything_is_drawn(capsys):
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "gen", "--kind", "boxes", "--n", "2", "--k", str(10 ** 9))
    assert time.perf_counter() - t0 < 0.01
    assert rc == 1 and out == ""
    assert err == f"error: box dimension must be an int in 1..{MAX_N}, got {10 ** 9}\n"
    for k in (0, -1, True, 2.0, "2", MAX_N + 1):
        with pytest.raises(BadParams, match="box dimension"):
            generate_model(GeneratorSpec("boxes", 2, 1, {"k": k}))
    assert generate_model(GeneratorSpec("boxes", 2, 1, {"k": MAX_N})).model.k == MAX_N
    assert generate_model(GeneratorSpec("boxes", MAX_N, 1)).model.n == MAX_N


@pytest.mark.parametrize("kind, params", [
    ("interval", {"stict": True}),
    ("interval", {"r": 1}),
    ("arcs", {"connected": True}),
    ("disks", {"k": 2}),
    ("boxes", {"r": 1}),
    ("graph", {"weight": True}),
])
def test_gen_rejects_parameters_the_kind_does_not_read(kind, params):
    (key,) = params
    with pytest.raises(BadParams, match=f"takes no generator parameter '{key}'"):
        generate_model(GeneratorSpec(kind, 3, 1, params))


def test_gen_accepts_every_parameter_its_kind_reads():
    for kind, params in (("interval", {"strict": True, "connected": True}),
                         ("disks", {"r": 2}), ("boxes", {"k": 3})):
        for weights in (True, False):
            mf = generate_model(GeneratorSpec(kind, 4, 1, {**params, "weights": weights}))
            assert (mf.weights is not None) is weights


# graph-kind files whose edges numpy would misread or could not hold: each
# keeps the error the per-edge reader gave
GRAPH_FILE_ERRORS = {
    "true": ("[[1, 2], [true, 3]]", "$.items[0].edges[1]: expected an integer, got True"),
    "wide": ("[[1, 2], [1, 2, 3]]", "$.items[0].edges[1]: each edge must be a [u, v] pair"),
    "huge": (f"[[1, 2], [1, {2 ** 70}]]", f"edge (1, {2 ** 70}) outside vertex range 1..3"),
    "loop": ("[[1, 2], [2, 2]]", "self-loop at vertex 2"),
    "float": ("[[1, 2.0]]", "$.items[0].edges[0]: expected an integer, got 2.0"),
    "string": ('[["1", 2]]', "$.items[0].edges[0]: expected an integer, got '1'"),
    "object": ('[{"u": 1}]', "$.items[0].edges[0]: each edge must be a [u, v] pair"),
    "below": ("[[-1, 2]]", "edge (-1, 2) outside vertex range 1..3"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_FILE_ERRORS))
def test_graph_file_errors_keep_their_messages(case, tmp_path, capsys):
    edges, message = GRAPH_FILE_ERRORS[case]
    path = tmp_path / "g.json"
    path.write_text(f'{{"kind": "graph", "items": [{{"n": 3, "edges": {edges}}}]}}')
    rc, out, err = run(capsys, "build", "--model", str(path))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_build_prints_a_large_interval_graph_in_budget(tmp_path, capsys):
    # 829 550 edges; 2.68 s when the edges went through a set of tuples
    path = tmp_path / "m.json"
    path.write_text(emit_model_file(generate_model(GeneratorSpec("interval", 1600, 1))))
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "build", "--model", str(path))
    elapsed = time.perf_counter() - t0
    assert rc == 0 and out.count("\n") == 829550
    assert elapsed < 0.8, f"isect build took {elapsed:.3f} s at n = 1600"


def test_gen_writes_a_dense_graph_in_budget(capsys):
    # about 0.35 s with one coin() call per pair and json.dumps per edge
    t0 = time.perf_counter()
    rc, _, _ = run(capsys, "gen", "--kind", "graph", "--n", "400")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 0.12, f"isect gen took {elapsed:.3f} s for a graph at n = 400"


def test_gen_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "gen", "--kind", "trapezoid", "--n", "8",
                       "--seed", "42")
    rc2, out2, _ = run(capsys, "gen", "--kind", "trapezoid", "--n", "8",
                       "--seed", "42")
    assert rc1 == rc2 == 0
    assert out1 == out2
    _, other, _ = run(capsys, "gen", "--kind", "trapezoid", "--n", "8",
                      "--seed", "43")
    assert other != out1


def test_gen_round_trips_through_parse(capsys):
    rc, out, _ = run(capsys, "gen", "--kind", "arcs", "--n", "7", "--seed", "3")
    assert rc == 0
    from isect.modelfile import emit_model_file
    assert emit_model_file(parse_model_file(out)) == out


def test_gen_writes_out_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    rc, out, _ = run(capsys, "gen", "--kind", "interval", "--n", "5",
                     "--seed", "1", "--out", str(path))
    assert rc == 0 and out == ""
    assert parse_model_file(path.read_text()).model.n == 5


def test_solve_equals_oracle_on_arc_model(tmp_path, capsys):
    path = tmp_path / "arcs.json"
    run(capsys, "gen", "--kind", "arcs", "--n", "9", "--seed", "11",
        "--out", str(path))
    rc_s, solved, _ = run(capsys, "solve", "--model", str(path),
                          "--problem", "mwis")
    rc_o, brute, _ = run(capsys, "oracle", "--model", str(path),
                         "--problem", "mwis")
    assert rc_s == rc_o == 0
    assert solved.splitlines()[0] == brute.splitlines()[0]


def test_solve_interval_problems_match_oracle(tmp_path, capsys):
    path = tmp_path / "iv.json"
    run(capsys, "gen", "--kind", "interval", "--n", "10", "--seed", "4",
        "--out", str(path))
    for problem in ("mis", "mwis", "max_clique", "coloring"):
        _, solved, _ = run(capsys, "solve", "--model", str(path),
                           "--problem", problem)
        _, brute, _ = run(capsys, "oracle", "--model", str(path),
                          "--problem", problem)
        assert solved.splitlines()[0] == brute.splitlines()[0], problem


# every (kind, problem) pair with a structured solver; mis runs the mwis one
STRUCTURED = sorted(cli._SOLVERS) + sorted(
    (kind, "mis") for kind, problem in cli._SOLVERS if problem == "mwis")


@pytest.mark.parametrize("kind, problem", STRUCTURED)
def test_structured_solve_matches_oracle(kind, problem, tmp_path, capsys):
    path = tmp_path / "m.json"
    for seed, n in enumerate((1, 3, 5, 7, 9, 11, 12, 12), start=1):
        mf = generate_model(GeneratorSpec(kind, n, seed, {"weights": True}))
        path.write_text(emit_model_file(mf))
        rc_s, solved, _ = run(capsys, "solve", "--model", str(path),
                              "--problem", problem)
        rc_o, brute, _ = run(capsys, "oracle", "--model", str(path),
                             "--problem", problem)
        assert rc_s == rc_o == 0
        if problem == "coloring":
            # greedy and canonical colourings may differ; their counts may not
            assert solved.splitlines()[0] == brute.splitlines()[0], (n, seed)
        else:
            # the same value and the same lexicographically smallest witness
            assert solved == brute, (n, seed)


@pytest.mark.parametrize("kind, problem",
                         [(k, p) for k, p in STRUCTURED if k in ("interval", "arcs")])
def test_structured_solve_matches_oracle_on_empty_files(kind, problem, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(f'{{"kind": "{kind}", "items": []}}')
    rc_s, solved, err = run(capsys, "solve", "--model", str(path), "--problem", problem)
    rc_o, brute, _ = run(capsys, "oracle", "--model", str(path), "--problem", problem)
    assert rc_s == rc_o == 0 and err == ""
    assert solved == brute


def test_check_umbrella_hundred_models(capsys):
    rc, out, _ = run(capsys, "check", "umbrella", "--kind", "interval",
                     "--count", "100", "--seed", "7")
    assert rc == 0
    assert out.startswith("ok umbrella")


@pytest.mark.parametrize("suite", ["spanner", "coloring", "mwis", "apsp",
                                   "fourway", "chordal", "crt"])
def test_check_suites_pass(suite, capsys):
    rc, out, _ = run(capsys, "check", suite, "--count", "10", "--seed", "5")
    assert rc == 0, out
    assert out.startswith(f"ok {suite}")


# every (suite, kind) pair that isect check accepts
CHECK_PAIRS = [("umbrella", "interval"), ("spanner", "interval"), ("coloring", "interval"),
               ("mwis", "arcs"), ("mwis", "interval"), ("mwis", "permutation"),
               ("apsp", "interval"), ("apsp", "arcs"), ("fourway", "trapezoid"),
               ("chordal", "graph"), ("chordal", "interval"), ("crt", "dotted")]


@pytest.mark.parametrize("suite, kind", CHECK_PAIRS)
def test_check_passes_on_every_accepted_kind(suite, kind, capsys):
    rc, out, err = run(capsys, "check", suite, "--kind", kind, "--count", "10", "--seed", "5")
    assert rc == 0 and err == ""
    assert out == f"ok {suite}: checked 10 instances\n"


def test_check_table_lists_every_pair_in_order(monkeypatch):
    # the order fixes each suite's default kind, its first
    assert list(cli._SUITES) == CHECK_PAIRS
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert list(workloads.SUITES) == CHECK_PAIRS


# sha256 of every GeneratorSpec passed to generate_model and every
# DottedInterval.build call made by `check SUITE --kind K --count 15` at seeds
# 1, 2 and 9, one repr a line, as drawn by the per-suite functions that the
# table of checks replaced
CHECK_STREAM_SHA256 = {
    ("umbrella", "interval"): "959d7d4ec80f6438716fa69d679cda721467c20273bd69c709a19af45cd7fbf1",
    ("spanner", "interval"): "cf24bf5c04348f8de4379172b4ff0b117b7604abba74dcd6420e6da50b3a2bbb",
    ("coloring", "interval"): "4f2d0b32ea45851011df37d447f65ebd2d5bfbce9b27460ba8ce1b65a349bbba",
    ("mwis", "arcs"): "9aad58a28fb1dc840db4f86e3a81b21ec0a8ddfac48dcb4ea6464f43b869e823",
    ("mwis", "interval"): "f4ee54bc6f5c482d4b88d40075a4667088b07f6f26c5051fd46b5d4fcaf178d3",
    ("mwis", "permutation"): "aa02618d1c82bae32d31b122ebef3f15449c009d838d6c33c3fa614a6991dd0f",
    ("apsp", "interval"): "5df75425e1e4925ce18853915f86a14918ea9b666d6d3e2c0691905f1f77fdbc",
    ("apsp", "arcs"): "5b6c647ec4d49917a6c04cab35ea7c4723c723a954a89c2aff49d606bc8ddf6c",
    ("fourway", "trapezoid"): "63345679535fb64dc2abc20a58fd0daba17b8d45bd1ba53025be215f8fd3d16b",
    ("chordal", "graph"): "0a30ca60410b42171537bd8a454141f23830c581a15fe00705e3a48cdf9bc1f4",
    ("chordal", "interval"): "f106c18746d8f52e7a80b947e8498a39ec1af1995d1c7c6b2ee9250c6ab25235",
    ("crt", "dotted"): "fd1bc83dbd18d8d0d199da4135553bb90b408dbdc9103aa87629f792b96a7c7b",
}


@pytest.mark.parametrize("suite, kind", CHECK_PAIRS)
def test_check_draws_the_same_instances(suite, kind, capsys, monkeypatch):
    drawn = []

    def generate(spec):
        drawn.append(repr(spec))
        return generate_model(spec)

    def build(*args):
        drawn.append(repr(args))
        return DottedInterval.build(*args)

    monkeypatch.setattr(cli, "generate_model", generate)
    monkeypatch.setattr(cli, "DottedInterval", SimpleNamespace(build=build))
    for seed in ("1", "2", "9"):
        rc, out, err = run(capsys, "check", suite, "--kind", kind, "--count", "15",
                           "--seed", seed)
        assert rc == 0 and err == ""
    digest = hashlib.sha256("\n".join(drawn).encode()).hexdigest()
    assert digest == CHECK_STREAM_SHA256[suite, kind]


def _no_mwis(g, name):
    return SimpleNamespace(value=-1)


# one fake per fault a check reports: the cli global it replaces, and the
# FAIL line of `check SUITE --kind K --count 5 --seed 1` with it in place
CHECK_FAULTS = [
    ("mwis", "arcs", "brute_solve", _no_mwis, "structured 114, brute -1"),
    ("mwis", "interval", "brute_solve", _no_mwis, "structured 90, brute -1"),
    ("mwis", "permutation", "brute_solve", _no_mwis, "structured 108, brute -1"),
    ("apsp", "interval", "bfs_apsp", lambda g: None,
     "distance matrix mismatch at n=31"),
    ("apsp", "arcs", "bfs_apsp", lambda g: None, "distance matrix mismatch at n=24"),
    ("coloring", "interval", "maximal_cliques_interval", lambda m: [()],
     "4 colors but omega=0"),
    ("coloring", "interval", "brute_solve", lambda g, name: SimpleNamespace(value=0),
     "4 colors but chi=0"),
    ("fourway", "trapezoid", "check_cocomparability_order", lambda g, order: False,
     "index order jumps a gap"),
    ("fourway", "trapezoid", "segments_joint", lambda s, t: not segments_joint(s, t),
     "representations split on (1,2)"),
    ("crt", "dotted", "dotted_intersect", lambda x, y: not dotted_intersect(x, y),
     "DottedInterval(s=227, t=578, d=9) vs DottedInterval(s=178, t=364, d=6)"),
]


@pytest.mark.parametrize("suite, kind, name, fake, fault", CHECK_FAULTS)
def test_check_reports_each_fault(suite, kind, name, fake, fault, capsys, monkeypatch):
    monkeypatch.setattr(cli, name, fake)
    rc, out, err = run(capsys, "check", suite, "--kind", kind, "--count", "5", "--seed", "1")
    assert rc == 1 and out == ""
    assert err == f"FAIL {suite}: instance 0: {fault}\n"


def test_check_chordal_fails_when_the_recognizer_does(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_chordal", lambda g: False)
    rc, out, err = run(capsys, "check", "chordal", "--kind", "interval", "--count", "5")
    assert rc == 1 and out == ""
    assert err == "FAIL chordal: instance 0: interval graph not chordal\n"
    monkeypatch.setattr(cli, "is_chordal", lambda g: True)
    rc, out, err = run(capsys, "check", "chordal", "--kind", "graph", "--count", "50")
    assert rc == 1 and out == ""
    assert re.fullmatch(r"FAIL chordal: instance \d+: recognizer and holes disagree\n", err), err


def test_check_umbrella_fails_on_a_missing_edge(capsys, monkeypatch):
    def lossy(m):
        # drop (w - 1, w) at the first w with two lower neighbours: below w
        # the run of neighbours then stops at w - 2
        g = build_interval_graph(m)
        for w in g.vertices():
            if (g.adj_bits[w] & (1 << (w - 1)) - 1).bit_count() >= 2:
                return Graph.build(g.n, [e for e in g.sorted_edges() if e != (w - 1, w)])
        return g

    monkeypatch.setattr(cli, "build_interval_graph", lossy)
    rc, out, err = run(capsys, "check", "umbrella", "--count", "20", "--seed", "3")
    assert rc == 1 and out == ""
    assert err == "FAIL umbrella: instance 0: edge (2,5) but (4,5) missing\n"


@pytest.mark.parametrize("suite", sorted({suite for suite, _ in cli._SUITES}))
def test_check_rejects_negative_count_as_usage_error(suite, capsys):
    rc, out, err = run(capsys, "check", suite, "--count", "-3")
    assert rc == 2 and out == "" and "--count" in err
    rc, out, _ = run(capsys, "check", suite, "--count", "0")
    assert rc == 0 and out == f"ok {suite}: checked 0 instances\n"


def test_check_spanner_fails_on_a_tree_stretched_past_3(capsys, monkeypatch):
    def dfs_tree(m):
        # a depth-first tree runs long paths through the cliques of the graph
        g, seen, edges = build_interval_graph(m), {1}, []

        def visit(v):
            for w in sorted(g.adj[v]):
                if w not in seen:
                    seen.add(w)
                    edges.append((v, w))
                    visit(w)

        visit(1)
        return SimpleNamespace(tree=Graph.build(m.n, edges))

    monkeypatch.setattr(cli, "tree_3_spanner", dfs_tree)
    rc, out, err = run(capsys, "check", "spanner", "--count", "20", "--seed", "1")
    assert rc == 1 and out == ""
    assert re.fullmatch(r"FAIL spanner: instance \d+: stretch above 3 at n=\d+\n", err), err


def test_check_rejects_wrong_kind(capsys):
    rc, _, err = run(capsys, "check", "umbrella", "--kind", "arcs")
    assert rc == 1
    assert "umbrella" in err


def test_exit_codes(tmp_path, capsys):
    rc, _, err = run(capsys, "gen", "--kind", "weird", "--n", "3", "--seed", "1")
    assert rc == 1 and "weird" in err
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2
    rc, _, _ = run(capsys, "gen", "--kind", "interval")
    assert rc == 2
    rc, _, err = run(capsys, "build", "--model", str(tmp_path / "missing.json"))
    assert rc == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "interval", "items": [{"id": 1, "a": 9, "b": 1}]}')
    rc, _, err = run(capsys, "build", "--model", str(bad))
    assert rc == 1 and "interval 1" in err


def test_json_beyond_reader_limits_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    huge = '{"kind": "interval", "items": [{"id": 1, "a": %s, "b": 2}]}' % ("1" * 5000)
    for text in ("[" * 50000, huge):
        path.write_text(text)
        rc, _, err = run(capsys, "build", "--model", str(path))
        assert rc == 1 and err.startswith("error: $: JSON beyond the reader's limits")


def test_unknown_top_level_keys_are_schema_errors(tmp_path, capsys):
    path = tmp_path / "m.json"
    items = '"items": [{"id": 1, "a": 0, "b": 2}, {"id": 2, "a": 1, "b": 3}]'
    # a misspelled "weights" and a disks radius on an interval file
    for extra, key in ((', "wieghts": [2, 3]', "wieghts"), (', "r": 1', "r")):
        path.write_text('{"kind": "interval", ' + items + extra + "}")
        rc, out, err = run(capsys, "build", "--model", str(path))
        assert rc == 1 and out == ""
        assert err == f"error: $.{key}: unknown key {key!r}\n"
    path.write_text('{"kind": "disks", "r": "3/2", "weights": [1, 2], "items": ['
                    '{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}]}')
    rc, out, _ = run(capsys, "build", "--model", str(path))
    assert rc == 0 and out == "1 2\n"
    for kind in KINDS:
        run(capsys, "gen", "--kind", kind, "--n", "6", "--seed", "4", "--out", str(path))
        rc, _, err = run(capsys, "build", "--model", str(path))
        assert rc == 0 and err == "", kind


def test_solve_rejects_unknown_problem_as_usage_error(tmp_path, capsys):
    path = tmp_path / "dotted.json"
    path.write_text(DOTTED_FILE)
    rc, _, err = run(capsys, "solve", "--model", str(path), "--problem", "mwsi")
    assert rc == 2 and "invalid choice" in err


def test_solve_without_structured_path_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"kind": "graph", "items": [{"n": 3, "edges": [[1, 2]]}]}')
    rc, _, err = run(capsys, "solve", "--model", str(path), "--problem", "mwis")
    assert rc == 1
    assert "structured" in err


def test_help_exits_zero(capsys):
    rc, _, _ = run(capsys, "--help")
    assert rc == 0


# -- hostile model files -----------------------------------------------------

HOSTILE_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-3, 12),
    st.integers(-2 ** 70, 2 ** 70), st.integers(10 ** 8, 10 ** 18),
    st.sampled_from(["1/0", "inf", "1e999", "-3/2", "0x10", " 7", "nan", "", "id"]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 12), max_size=4),
    st.dictionaries(st.sampled_from(["id", "n", "a", "1", "x"]), st.integers(-3, 12),
                    max_size=3),
)

# one weighted and one plain command per reader path, and the oracle
HOSTILE_COMMANDS = (
    ("build",), ("solve", "--problem", "mwis"), ("solve", "--problem", "max_clique"),
    ("solve", "--problem", "coloring"), ("oracle", "--problem", "mwis"),
    ("oracle", "--problem", "coloring"),
)


def _slots(node, path=()):
    """The path to node and to every value inside it."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _slots(child, path + (key,))


@st.composite
def hostile_documents(draw):
    """A generated model file, its weights listed or keyed by id, with one to
    three values replaced, deleted or added anywhere in it, and now and then
    its text cut short."""
    spec = GeneratorSpec(draw(st.sampled_from(KINDS)), draw(st.integers(1, 5)),
                         draw(st.integers(0, 99)), {"weights": draw(st.booleans())})
    doc = json.loads(emit_model_file(generate_model(spec)))
    if "weights" in doc and draw(st.booleans()):
        doc["weights"] = {str(v): w for v, w in enumerate(doc["weights"], start=1)}
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_slots(doc))))
        value = draw(HOSTILE_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "n", "r", "weights", "id"]))] = value
        else:
            parent.append(value)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=150, deadline=None)
@given(hostile_documents())
@example('{"kind": "graph", "items": [{"n": 4611686018427387904, "edges": []}],'
         ' "weights": {}}')
def test_hostile_model_files_give_errors_not_tracebacks(tmp_path_factory, text):
    try:
        parse_model_file(text)
    except IsectError:
        pass
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text)
    for command in HOSTILE_COMMANDS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = execute([command[0], "--model", str(path), *command[1:]])
        assert rc in (0, 1, 2), (command, text)


def test_model_files_hold_at_most_max_n_vertices(tmp_path, capsys):
    path = tmp_path / "g.json"
    for n in (MAX_N + 1, 2 ** 62):
        path.write_text(json.dumps({"kind": "graph", "items": [{"n": n, "edges": []}],
                                    "weights": {}}))
        rc, out, err = run(capsys, "build", "--model", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: $.items: a model file holds at most {MAX_N} vertices, got {n}\n"
    path.write_text(json.dumps({"kind": "permutation",
                                "items": [{"pi": list(range(1, MAX_N + 2))}]}))
    assert run(capsys, "build", "--model", str(path))[0] == 1
    path.write_text(json.dumps({"kind": "graph", "items": [{"n": MAX_N, "edges": [[1, 2]]}],
                                "weights": {"3": 2}}))
    assert run(capsys, "build", "--model", str(path)) == (0, "1 2\n", "")


def test_parser_is_built_once_and_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    path = tmp_path / "dotted.json"
    path.write_text(DOTTED_FILE)
    argvs = [("solve", "--model", str(path), "--problem", "mwsi"), ("--help",),
             ("build", "--model", str(path)), ("gen", "--kind", "interval")]
    first = [run(capsys, *argv) for argv in argvs]
    assert [rc for rc, _, _ in first] == [2, 0, 0, 2]
    assert "invalid choice: 'mwsi'" in first[0][2] and first[1][1].startswith("usage: isect")
    assert first[2] == (0, "1 2\n1 3\n2 3\n4 5\n", "")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert [run(capsys, *argv) for argv in argvs * 2] == first * 2
    assert built == []


def test_package_has_no_assert_statements():
    # python -O strips asserts, so a runtime check written as one is lost
    package = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
