"""radolab benchmark: one workload per process, one sequential closed-loop
client.

    python3 perfbench/run.py --workload matrix-and-coloring --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; radolab is imported from ``src/`` there.
The run builds the workload's inputs from the seed (``setup_s``, the median
of several set-ups), makes one warm-up pass whose every answer is checked
independently (``checks.py``), then repeats timed passes over the same
queries for ``--seconds`` seconds; each later answer must equal the checked
one.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced passes, so its tracing overhead is measured
on the same process, and writes its spans to ``perfbench/out/``.

Exit code 0 when every answer is correct, 1 when one is not, 2 when the run
cannot start (bad arguments, or no ``src/radolab`` in the checkout).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAYERS = ("exactq", "radomat", "polyring", "systems", "colorings", "search", "cli", "bench")
SETUP_REPS = 21
MIN_PASSES = 2  # per kind of pass (untraced, and traced in a traced run)
SAMPLING_CAP_S = 100.0  # stop sampling here, so a much slower program still ends in time

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("resolved_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> unit.  busy_s is time inside the layer's spans per
# pass; counts are per pass and repeat exactly from pass to pass.
PER_LAYER = (
    ("radomat.column_condition.calls", "count"),
    ("radomat.column_condition.busy_s", "s"),
    ("radomat.column_condition.busy_s.small", "s"),
    ("radomat.column_condition.busy_s.large", "s"),
    ("radomat.column_condition.satisfied", "count"),
    ("exactq.kernel_basis.calls", "count"),
    ("exactq.kernel_basis.busy_s", "s"),
    ("systems.build_nonlinear_rado.calls", "count"),
    ("systems.build_nonlinear_rado.busy_s", "s"),
    ("systems.construct_thm37.calls", "count"),
    ("systems.construct_thm37.busy_s", "s"),
    ("search.find_mono_solution.linear.calls", "count"),
    ("search.find_mono_solution.linear.busy_s", "s"),
    ("search.find_mono_solution.linear.found", "count"),
    ("search.find_mono_solution.poly.calls", "count"),
    ("search.find_mono_solution.poly.busy_s", "s"),
    ("search.find_mono_solution.poly.found", "count"),
    ("colorings.search_fsfp.calls", "count"),
    ("colorings.search_fsfp.busy_s", "s"),
    ("colorings.poly_vdw_witness.calls", "count"),
    ("colorings.poly_vdw_witness.busy_s", "s"),
    ("search.rado_number.calls", "count"),
    ("search.rado_number.busy_s", "s"),
    ("search.rado_number.nodes", "count"),
    ("search.rado_number.nodes_per_s", "1/s"),
    ("search.rado_number.unresolved", "count"),
    ("search.export_cnf.calls", "count"),
    ("search.export_cnf.busy_s", "s"),
    ("search.export_cnf.clauses", "count"),
    ("search.export_cnf.truncated", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.overhead_s", "s"),
    ("exactq.build.busy_s", "s"),
    ("polyring.parse.busy_s", "s"),
    ("systems.parse.busy_s", "s"),
    ("colorings.build.busy_s", "s"),
    *((f"self_s.{layer}", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# spans recorded while the inputs are built, reported from the traced set-up
SETUP_SPANS = ("exactq.build", "polyring.parse", "systems.parse", "colorings.build")

# span names whose busy time is split by the query's variant
SPLIT_BY_VARIANT = {
    "radomat.column_condition": "radomat.column_condition.busy_s.{}",
    "search.find_mono_solution": "search.find_mono_solution.{}.busy_s",
}


class SetupError(Exception):
    pass


def import_radolab() -> SimpleNamespace:
    """Import radolab afresh from the checkout's ``src/``."""
    if not (SRC / "radolab" / "__init__.py").is_file():
        raise SetupError(f"no radolab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "radolab" or m.startswith("radolab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("radolab")
    if Path(pkg.__file__).resolve().parent != SRC / "radolab":
        raise SetupError(f"radolab imported from {pkg.__file__}, not from {SRC}")
    return namespace(pkg, importlib.import_module("radolab.cli"))


def namespace(pkg, cli) -> SimpleNamespace:
    """The radolab modules the workloads call, by layer name."""
    return SimpleNamespace(
        exactq=pkg.exactq,
        radomat=pkg.radomat,
        polyring=pkg.polyring,
        systems=pkg.systems,
        colorings=pkg.colorings,
        search=pkg.search,
        cli=cli,
    )


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU.  On a shared host the CPUs run at
    different speeds as the neighbours' load moves; a process the scheduler
    moves between them shows that as run-to-run noise."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup(workload: str, seed: int, trace: bool):
    """Import radolab and build the inputs SETUP_REPS times; the last
    set-up is the one the passes use (and the traced one)."""
    times = []
    for rep in range(SETUP_REPS):
        tr = spans.Tracer() if trace and rep == SETUP_REPS - 1 else spans.NullTracer()
        t0 = time.perf_counter()
        rl = import_radolab()
        queries = workloads.build(rl, workload, seed, tr)
        times.append(time.perf_counter() - t0)
    return rl, queries, times, list(tr.spans)


def run_pass(rl, queries, tr):
    """One pass over the query list; returns the answers (an exception
    object where a query raised) and the pass's wall time."""
    answers = []
    t0 = time.perf_counter()
    for q in queries:
        tr.set_query(q.qid)
        try:
            answers.append(tr.call("bench.query", workloads.run_query, rl, q, tr))
        except Exception as exc:  # a query that raises counts as failed
            answers.append(exc)
    return answers, time.perf_counter() - t0


def layer_sample(queries, answers, pass_spans) -> dict:
    """Per-layer times of one traced pass."""
    by_qid = {q.qid: (q, a) for q, a in zip(queries, answers)}
    out = {f"{name}.busy_s": t for name, t in spans.busy_by_name(pass_spans).items()}
    out.update({f"self_s.{layer}": t for layer, t in spans.self_time_by_layer(pass_spans).items()})
    overhead = 0.0
    for name, t0, t1, _, qid in pass_spans:
        if name in SPLIT_BY_VARIANT:
            key = SPLIT_BY_VARIANT[name].format(by_qid[qid][0].variant)
            out[key] = out.get(key, 0.0) + (t1 - t0)
        elif name == "cli.main" and not isinstance(by_qid[qid][1], Exception):
            _, text = by_qid[qid][1]
            overhead += (t1 - t0) - json.loads(text)["elapsed_s"]
    out["cli.overhead_s"] = overhead
    return out


def answer_counts(queries, answers, pass_spans) -> dict:
    """Exact per-pass counts, read from the spans and the answers."""
    out = {name: 0 for name, unit in PER_LAYER if unit == "count"}
    out["trace.spans"] = len(pass_spans)
    for name, k in spans.calls_by_name(pass_spans).items():
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = k
    for q, a in zip(queries, answers):
        if isinstance(a, Exception):
            continue
        if q.kind == "cc":
            out["radomat.column_condition.satisfied"] += a[0] is not None
        elif q.kind == "mono":
            out[f"search.find_mono_solution.{q.variant}.calls"] += 1
            out[f"search.find_mono_solution.{q.variant}.found"] += a is not None
        elif q.kind == "rado":
            out["search.rado_number.nodes"] += a.nodes
            out["search.rado_number.unresolved"] += a.value is None
        elif q.kind == "cnf":
            header, _ = checks.parse_cnf(a)
            out["search.export_cnf.clauses"] += header[1]
            out["search.export_cnf.truncated"] += "WARNING" in a
    return out


def per_layer_metrics(setup_spans, samples, counts, plain, traced) -> dict:
    """Every PER_LAYER metric: exact counts from the last traced pass, times
    as medians over the traced passes (set-up spans from the traced
    set-up), and the tracing overhead as traced minus untraced pass time."""
    setup_busy = spans.busy_by_name(setup_spans)
    metrics = {}
    for name, unit in PER_LAYER:
        if unit == "count":
            value = counts[name]
        elif name == "search.rado_number.nodes_per_s":
            busy = statistics.median(s.get("search.rado_number.busy_s", 0.0) for s in samples)
            value = counts["search.rado_number.nodes"] / busy if busy else 0.0
        elif name.removesuffix(".busy_s") in SETUP_SPANS:
            value = setup_busy.get(name.removesuffix(".busy_s"), 0.0)
        elif name == "trace.wall_s":
            value = statistics.median(traced)
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        else:
            value = statistics.median(s.get(name, 0.0) for s in samples)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def unresolved(q, ans) -> bool:
    return q.kind == "rado" and ans.value is None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    started = time.perf_counter()
    try:
        rl, queries, setup_times, setup_spans = setup(args.workload, args.seed, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ref, _ = run_pass(rl, queries, spans.NullTracer())
    failed = 0
    for q, ans in zip(queries, ref):
        reason = f"raised {ans!r}" if isinstance(ans, Exception) else checks.check(rl, q, ans)
        if reason is not None:
            failed += 1
            print(f"FAIL {args.workload} {q.qid}: {reason}", file=sys.stderr)
    attempted = len(queries)

    plain, traced, samples, traced_spans = [], [], [], [setup_spans]
    window = last = 0.0
    # a pass starts only if it should end nearer --seconds than stopping now,
    # so the window ends within half a pass of --seconds on either side
    while (window + last / 2 < args.seconds or len(plain) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)) and (
        time.perf_counter() - started < SAMPLING_CAP_S or not plain or (args.trace and not traced)
    ):
        use_trace = bool(args.trace) and len(traced) < len(plain)
        tr = spans.Tracer() if use_trace else spans.NullTracer()
        answers, wall = run_pass(rl, queries, tr)
        window += wall
        last = wall
        attempted += len(queries)
        for q, a, b in zip(queries, answers, ref):
            if isinstance(a, Exception) or not checks.same_answer(q, a, b):
                failed += 1
                print(f"FAIL {args.workload} {q.qid}: answer differs from the checked pass", file=sys.stderr)
        if use_trace:
            traced.append(wall)
            samples.append(layer_sample(queries, answers, tr.spans))
            traced_spans.append(tr.spans)
            counts = answer_counts(queries, answers, tr.spans)
        else:
            plain.append(wall)

    if args.trace:
        metrics = per_layer_metrics(setup_spans, samples, counts, plain, traced)
        OUT.mkdir(exist_ok=True)
        spans.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", traced_spans)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain),
            "resolved_frac": 1 - sum(unresolved(q, a) for q, a in zip(queries, ref)) / len(queries),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
