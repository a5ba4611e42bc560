"""Print the exact per-pass counts of every workload for a range of seeds.

    python3 perfbench/counts.py --seeds 1-10 > counts.json

The counts (``radomat.column_condition.satisfied``,
``search.rado_number.nodes``, ``search.export_cnf.clauses``, ...) repeat
exactly from run to run; the nonzero ones are printed, plus value, nodes and
largest avoider of every ``rado_number`` query and the clause count of every
``export_cnf`` query.  ``seed_counts.json`` holds them for the commit
that introduced the benchmark; a change that claims to keep every answer can
diff its own output against that file.  One untimed pass per workload and
seed, every answer checked.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run
import spans
import workloads


def counts(workload: str, seed: int) -> dict:
    rl = run.import_radolab()
    tr = spans.Tracer()
    queries = workloads.build(rl, workload, seed, spans.NullTracer())
    answers, _ = run.run_pass(rl, queries, tr)
    for q, ans in zip(queries, answers):
        reason = f"raised {ans!r}" if isinstance(ans, Exception) else checks.check(rl, q, ans)
        if reason is not None:
            raise SystemExit(f"{workload} seed {seed} {q.qid}: {reason}")
    out = {k: v for k, v in run.answer_counts(queries, answers, tr.spans).items() if v and k != "trace.spans"}
    for q, a in sorted(zip(queries, answers), key=lambda qa: qa[0].qid):
        if q.kind == "rado":
            avoider_n = a.avoider.N if a.avoider is not None else None
            out[q.qid] = {"value": a.value, "nodes": a.nodes, "exhausted": a.exhausted, "avoider_N": avoider_n}
        elif q.kind == "cnf":
            out[q.qid] = {"clauses": checks.parse_cnf(a)[0][1]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    table = {w: {str(s): counts(w, s) for s in seeds} for w in workloads.WORKLOADS}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
