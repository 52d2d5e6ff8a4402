"""The benchmark's own checks: wrong answers count as failed ops."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, ModelSpec  # noqa: E402

from isect import cli  # noqa: E402
from isect.graph import Graph  # noqa: E402

PLAIN = ModelSpec("interval", 12, 7)
INTERVAL = ModelSpec("interval", 12, 7, weights=True)
ARCS = ModelSpec("arcs", 12, 3, weights=True)
STRICT = ModelSpec("interval", 12, 9, connected=True)
MODELS = [PLAIN, INTERVAL, ARCS, STRICT]
OPS = [Op("gen", "interval", 12, PLAIN), Op("build", "interval", 12, INTERVAL),
       Op("solve", "interval", 12, INTERVAL, "mwis"),
       Op("oracle", "interval", 12, INTERVAL, "coloring"),
       Op("solve", "arcs", 12, ARCS, "mis"), Op("build", "arcs", 12, ARCS),
       Op("apsp_interval", "interval", 12, STRICT),
       Op("tree_3_spanner", "interval", 12, STRICT),
       Op("check", "interval", None, None, "umbrella", seed=4)]


def _failures(tmp_path, ops):
    runner = run.Runner(tmp_path)
    runner.write_models(MODELS)
    runner.run_pass(ops)
    return [f for _, f in runner.results]


def test_correct_outputs_pass(tmp_path):
    assert _failures(tmp_path, OPS) == [None] * len(OPS)


def test_dropped_edge_is_counted(tmp_path, monkeypatch):
    real = cli._graph_of

    def lossy(mf):
        g = real(mf)
        return Graph.build(g.n, sorted(g.edges)[1:])

    monkeypatch.setattr(cli, "_graph_of", lossy)
    failures = _failures(tmp_path, [Op("build", "interval", 12, INTERVAL)])
    assert len(failures) == 1 and "1 edges missing" in failures[0]


@pytest.mark.parametrize("corrupt, reason", [
    (lambda picked, n: picked[:-1], "reference"),
    (lambda picked, n: tuple(sorted(picked + (min(set(range(1, n + 1)) - set(picked)),))),
     "not independent"),
])
def test_corrupted_witness_is_counted(tmp_path, monkeypatch, corrupt, reason):
    real = cli.mwis_interval
    monkeypatch.setattr(cli, "mwis_interval",
                        lambda m, w=None: corrupt(real(m, w), m.n))
    failures = _failures(tmp_path, [Op("solve", "interval", 12, INTERVAL, "mwis"),
                                    Op("solve", "interval", 12, INTERVAL, "mis")])
    assert len(failures) == 2 and all(reason in f for f in failures)


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_spec()


_TRACED = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import run, tracing, test_checks, workloads

class Unrouted(workloads.Op):
    @property
    def layers(self):
        return super().layers + ("geom.build_box_graph",)

runner = run.Runner(Path({work!r}))
runner.write_models(test_checks.MODELS)
tracer = tracing.Tracer()
tracer.install()
runner.run_pass(test_checks.OPS + [Unrouted("build", "interval", 12, test_checks.INTERVAL)],
                tracer)
values, _ = tracer.metrics({{}})
print(json.dumps({{"failures": [f for _, f in runner.results], "values": values}}))
"""


def test_traced_ops_record_their_layers(tmp_path):
    # installing the tracer rebinds isect functions for the whole process,
    # so it runs in a child
    code = _TRACED.format(src=str(HERE.parent / "src"), here=str(HERE),
                          work=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["failures"][:-1] == [None] * len(OPS)
    assert got["failures"][-1] == "no span recorded for geom.build_box_graph"
    values = got["values"]
    assert values["cli.execute.calls"] == sum(op.argv(tmp_path) is not None for op in OPS) + 1
    assert values["arcs.mwis_circular_arc.interval_subproblems"] > 0
    assert values["intervals.normalize.graph_builds"] > 0


def test_nested_calls_stay_out_of_the_fit():
    # op 0 is an arc solve at n = 100 whose interval sub-problem takes
    # 90 s; ops 1 and 2 call the interval solver directly at n = 100, 200
    tracer = tracing.Tracer()
    tracer.spans = [
        ["arcs.mwis_circular_arc", 0.0, 100.0, -1, 0, 0],
        ["intervals.mwis_interval", 0.0, 90.0, 0, 0, 0],
        ["intervals.mwis_interval", 0.0, 1.0, -1, 1, 0],
        ["intervals.mwis_interval", 0.0, 4.0, -1, 2, 0],
    ]
    values, rungs = tracer.metrics({0: 100, 1: 100, 2: 200})
    assert rungs["intervals.mwis_interval"] == [100, 200]
    assert values["intervals.mwis_interval.exp"] == pytest.approx(2.0)
    assert values["intervals.mwis_interval.calls"] == 3
    assert values["arcs.mwis_circular_arc.self_s"] == pytest.approx(10.0)
