"""Benchmark of the isect library and command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload build-large --seed 1 --seconds 10 --trace 0

Each run is one fresh process, one client in a closed loop.  Set-up
imports isect from ``src/``, writes the workload's model files and runs
one untimed warm-up op.  The timed phase repeats the workload's op list
whole, at least three times and until the ops have taken ``--seconds``;
each op's latency is the median of its passes.  Every output is checked
between ops, outside the timing.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` the run makes one untraced
and one traced pass and the last line holds the per-layer metrics.
Spans of a traced run go to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import tracing
from workloads import CHECK_COUNT, LIBRARY, WORKLOADS, make

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
MIN_PASSES = 3
IMPORT_PROBES = 5


def _git_commit() -> str:
    # the benchmark may run in a plain copy of the tree, without git
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, numpy_version: str) -> dict:
    return {"workload": workload, "seed": seed, "commit": _git_commit(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Runner:
    """Writes a workload's models, runs its ops and checks their outputs."""

    def __init__(self, workdir: Path) -> None:
        # imported here, after main() has pinned the thread pools
        from isect import cli, generators, modelfile
        import checks
        self.cli, self.gen, self.mf, self.checks = cli, generators, modelfile, checks
        self.workdir = workdir
        self.results: list[tuple[float, Optional[str]]] = []  # latency, failure
        self.output_bytes = 0
        self._adj: dict = {}
        self._expected: dict = {}
        self._passed: set = set()

    # -- set-up ------------------------------------------------------------

    def write_models(self, models) -> None:
        for spec in models:
            seed = spec.seed
            params = {"weights": True} if spec.weights else {}
            if spec.connected and spec.kind == "interval":
                params.update(strict=True, connected=True)
            while True:
                mf = self.gen.generate_model(
                    self.gen.GeneratorSpec(spec.kind, spec.n, seed, params))
                # arc generators take no connectivity flag; redraw the seed
                if (not spec.connected or spec.kind == "interval"
                        or self.cli._BUILDERS[spec.kind](mf.model).is_connected()):
                    break
                seed += 1
            (self.workdir / spec.filename).write_text(self.mf.emit_model_file(mf),
                                                      encoding="utf-8")

    # -- ops ---------------------------------------------------------------

    def perform(self, op) -> tuple[int, object]:
        """Run one op; return its exit code and output."""
        argv = op.argv(self.workdir)
        if argv is not None:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = self.cli.execute(argv)
            return rc, out.getvalue()
        module = sys.modules[f"isect.{LIBRARY[op.action][0]}"]
        with open(self.workdir / op.model.filename, encoding="utf-8") as fh:
            model = self.mf.parse_model_file(fh.read()).model
        if op.kind == "interval":
            # files carry no strict flag; these were generated strict
            model = type(model).build(model.intervals, strict=True)
        return 0, getattr(module, op.action)(model)

    def run_pass(self, ops, tracer=None) -> float:
        """Run every op once, in order; return their summed latency."""
        total = 0.0
        for k, op in enumerate(ops):
            gc.collect()
            mark = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.begin_op(k)
            t0 = time.perf_counter()
            try:
                rc, output = self.perform(op)
            except Exception as exc:  # a crash is a failed op, not a crashed run
                rc, output = None, f"{type(exc).__name__}: {exc}"
            finally:
                latency = time.perf_counter() - t0
                if tracer:
                    tracer.end_op()
            total += latency
            if isinstance(output, str) and rc is not None:
                self.output_bytes += len(output)
            failure = self.verify(op, rc, output)
            if failure is None and tracer:
                missing = set(op.layers) - tracer.names_in(k, mark)
                if missing:
                    failure = "no span recorded for " + ", ".join(sorted(missing))
            if failure is not None:
                print(f"FAIL {op.describe()}: {failure}", file=sys.stderr)
            self.results.append((latency, failure))
        return total

    # -- checks ------------------------------------------------------------

    def _adjacency(self, spec):
        # only the numpy matrix is kept: parsed documents would slow every
        # gc.collect() between ops and inflate the peak resident set
        if spec not in self._adj:
            self._adj[spec] = self.checks.adjacency(self._doc(spec))
        return self._adj[spec]

    def _doc(self, spec) -> dict:
        return self.checks.load(str(self.workdir / spec.filename))

    def _memo(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def verify(self, op, rc, output) -> Optional[str]:
        """None when the op's output is right, else the reason it is not."""
        if rc != 0:
            return f"raised {output}" if rc is None else f"exit code {rc}"
        if op.action == "gen":
            output = (self.workdir / ("gen-" + op.model.filename)).read_text(encoding="utf-8")
        digest = _digest(output) if isinstance(output, str) else None
        # outputs are deterministic: a text this op already passed with
        # passes again
        if (op, digest) in self._passed:
            return None
        try:
            failure = self._verify(op, output, digest)
        except Exception as exc:  # a malformed output can break the checker
            failure = f"checker raised {type(exc).__name__}: {exc}"
        if failure is None and digest is not None:
            self._passed.add((op, digest))
        return failure

    def _verify(self, op, output, digest) -> Optional[str]:
        ck = self.checks
        if op.action == "check":
            want = f"ok {op.problem}: checked {CHECK_COUNT} instances\n"
            return None if output == want else f"output {output!r}, want {want!r}"
        if op.action == "gen":
            if output != (self.workdir / op.model.filename).read_text(encoding="utf-8"):
                return "generated file differs from the same spec's set-up file"
            again = self.mf.emit_model_file(self.mf.parse_model_file(output))
            return None if again == output else "parse then emit changed the bytes"
        adj = self._adjacency(op.model)
        if op.action == "build":
            want = self._memo((op.model, "edges"), lambda: _digest(ck.edge_text(adj)))
            if digest == want:
                return None
            got, exp = set(output.splitlines()), set(ck.edge_text(adj).splitlines())
            return (f"{len(exp - got)} edges missing, {len(got - exp)} extra, "
                    f"or out of order")
        if op.action in ("solve", "oracle"):
            doc = self._doc(op.model)
            ref = self._memo((op.model, op.problem),
                             lambda: ck.reference_value(doc, adj, op.problem))
            return ck.check_answer(doc, adj, op.problem, output, ref)
        if op.action == "tree_3_spanner":
            return ck.check_spanner(adj, output.tree.edges)
        return ck.check_distances(adj, output)


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode()).digest()


def _import_s() -> float:
    """Median wall time of a child process that only imports isect.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import isect.cli"], env=env,
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isect" / "cli.py").is_file():
        print(f"error: no isect sources under {SRC}", file=sys.stderr)
        return 2
    # pin native thread pools before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        wl = make(args.workload, args.seed)
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            runner.write_models(wl.models)
            runner.perform(wl.warmup)
            reps.append(time.perf_counter() - t0)

        # the collections between ops then skip the long-lived set-up heap
        gc.collect()
        gc.freeze()
        record = run_record(wl.name, args.seed, numpy.__version__)
        print("run " + json.dumps(record))
        if args.trace:
            metrics = _traced(runner, wl, record)
        else:
            # the imports are timed in child processes, as one import in
            # this process would be a single cold sample
            setup_s = _import_s() + statistics.median(reps)
            metrics = _timed(runner, wl, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for _, f in runner.results if f is not None)
    attempted = len(runner.results)
    print(f"{'fail_ratio':<52}{failed / attempted:>14.6f} ratio "
          f"({failed} of {attempted} ops)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<52}{value:>14.6f} {unit} {note}".rstrip())


def _timed(runner: Runner, wl, seconds: float, setup_s: float) -> dict:
    # Each op's latency is the median of its passes, spaced a whole op list
    # apart.  On a shared host the fastest pass depends on luck: repeated
    # runs of one seed agreed far better on the median than on the least.
    busy, passes = 0.0, 0
    while passes < MIN_PASSES or busy < seconds:
        busy += runner.run_pass(wl.ops)
        passes += 1
    m = len(wl.ops)
    lat = [statistics.median(runner.results[p * m + k][0] for p in range(passes))
           for k in range(m)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    beyond = m - round(0.9 * m)
    values = [("setup_s", setup_s, "s",
               f"(median of {IMPORT_PROBES} imports and {SETUP_REPS} set-ups)"),
              ("ops_per_s", m / sum(lat), "ops/s",
               f"({m} ops, median of {passes} passes; {busy:.2f} s measured)"),
              ("op_p50_ms", statistics.median(lat) * 1000, "ms", f"({m} samples)"),
              ("op_p90_ms", p90 * 1000, "ms",
               f"({m} samples, {beyond} beyond)"),
              ("peak_rss_mb", rss_mb, "MB", "")]
    for name, value, unit, note in values:
        _show(name, value, unit, note)
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in values}


def _traced(runner: Runner, wl, record: dict) -> dict:
    plain = runner.run_pass(wl.ops)
    tracer = tracing.Tracer()
    tracer.install()
    runner.output_bytes = 0
    traced = runner.run_pass(wl.ops, tracer)
    values, rungs = tracer.metrics({k: op.n for k, op in enumerate(wl.ops)})
    values["cli.output_bytes"] = runner.output_bytes
    values["cli.import_ms"] = _import_s() * 1000
    values["trace.overhead_s"] = traced - plain
    out = {}
    for name, unit, _ in tracing.per_layer_spec():
        fn = name[:-len(".exp")] if name.endswith(".exp") else None
        note = f"(rungs {','.join(map(str, rungs[fn]))})" if fn and rungs[fn] else ""
        _show(name, values[name], unit, note)
        out[name] = {"value": values[name], "unit": unit}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-{record['seed']}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run": record,
                             "ops": [op.describe() for op in wl.ops],
                             "span_fields": ["name", "start", "end", "parent", "op",
                                             "size"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
