"""Per-layer summary of traced benchmark runs.

``per_layer_metrics`` reduces one traced run (spans, counts and the
program's own counters) to the ``<layer>.<metric>`` values that
``run.py --trace 1`` reports.  Run as a command, it prints, for every
workload with traced records in ``perfbench/out``, a table of calls,
self time and share of request wall time per layer, and the tracing
overhead ratio with its base walls and its spread over the records::

    python3 perfbench/summary.py [record.json ...]
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPANNED_LAYERS = tuple(layers.SPANNED)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def walls(traced: dict, untraced: dict):
    """Traced and untraced wall of the requests, in seconds of the unloaded
    host (``run.request_latencies``)."""
    from run import request_latencies

    return sum(request_latencies(traced)), sum(request_latencies(untraced))


def overhead_ratio(traced: dict, untraced: dict) -> float:
    traced_s, untraced_s = walls(traced, untraced)
    return traced_s / untraced_s


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    """``name -> (value, unit)`` for one traced run and its untraced twin."""
    spans = [tuple(span) for span in traced["spans"]]
    table = layers.layer_table(spans)
    counts = traced["counts"]
    counters = traced["counters"]
    engine = traced["engine"]
    plan = traced["plan_cache"]
    metrics = {}
    for layer in SPANNED_LAYERS:
        metrics[f"{layer}.calls"] = (table[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (table[layer]["self_s"], "s")
        metrics[f"{layer}.self_share"] = (table[layer]["share"], "ratio")
    ingest_s = sum(
        end - start
        for _, _, name, _, start, end, _ in spans
        if name in ("add_all", "add_facts")
    )
    traced_s, untraced_s = walls(traced, untraced)
    pool_retries = engine["pool_retries"] + sum(
        v for k, v in counters.items() if k.startswith("emptiness.") and "retr" in k
    )
    pool_items = engine["pooled_tasks"] + sum(
        v for k, v in counters.items() if k.startswith("emptiness.") and "pooled" in k
    )
    metrics.update({
        "engine.hit_ratio": (_ratio(engine["saved"], engine["requests"]), "ratio"),
        "engine.memo_entries": (traced["engine_memo_entries"], "count"),
        "queries.plan_cache_hit_ratio": (
            _ratio(plan["hits"], plan["hits"] + plan["misses"]), "ratio"),
        "queries.plan_cache_misses": (plan["misses"], "count"),
        "automata.paths_explored": (counts.get("automata.paths_explored", 0), "count"),
        "automata.sentence_cache_hit_ratio": (
            _ratio(counts.get("automata.sentence_cache_hits", 0),
                   counts.get("automata.sentence_cache_hits", 0)
                   + counts.get("automata.sentence_cache_misses", 0)), "ratio"),
        "core.bounded_paths_explored": (counts.get("core.bounded_paths_explored", 0), "count"),
        "core.satisfies_at_calls": (counts.get("core.satisfies_at_calls", 0), "count"),
        "relational.scratch_ops": (counts.get("relational.scratch_ops", 0), "count"),
        "store.snapshot_ops": (counts.get("store.snapshot_ops", 0), "count"),
        "store.ingest_rows_per_s": (
            _ratio(counts.get("store.ingest_rows", 0), ingest_s), "1/s"),
        "store.pushdown": (counters.get("store.pushdown", 0), "count"),
        "store.pushdown_skipped": (counters.get("store.pushdown_skipped", 0), "count"),
        "store.pool_items": (pool_items, "count"),
        "store.pool_retries": (pool_retries, "count"),
        "store.verdict_cache_hits": (engine["vc_hits"], "count"),
        "store.verdict_cache_misses": (engine["vc_misses"], "count"),
        "store.verdict_cache_evictions": (engine["vc_evictions"], "count"),
        "datalog.rounds": (counters.get("datalog.fixedpoint_rounds", 0), "count"),
        "datalog.derived_facts": (counts.get("datalog.derived_facts", 0), "count"),
        "obs.trace_overhead_ratio": (traced_s / untraced_s, "ratio"),
        "obs.traced_wall_s": (traced_s, "s"),
        "obs.untraced_wall_s": (untraced_s, "s"),
        "obs.spans": (len(spans), "count"),
    })
    return metrics


def _print_workload(name: str, records: list) -> None:
    last = records[-1]
    spans = [tuple(span) for span in last["spans"]]
    table = layers.layer_table(spans)
    print(f"\n{name}  ({len(last['latencies'])} requests, seed {last['seed']})")
    print(f"{'layer':12s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    for layer, row in rows:
        print(f"{layer:12s} {row['calls']:10d} {row['self_s']:10.4f} {row['share']:7.1%}")
    ratios = [overhead_ratio(record, record["untraced"]) for record in records]
    traced_s, untraced_s = walls(last, last["untraced"])
    line = (f"obs.trace_overhead_ratio {ratios[-1]:.3f} (walls: traced "
            f"{traced_s:.3f} s, untraced {untraced_s:.3f} s")
    if len(ratios) >= 2:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        line += f"; median {statistics.median(ratios):.3f}, IQR {q3 - q1:.3f} over {len(ratios)} runs"
    print(line + ")")


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted((HERE / "out").glob("*-trace1.json"))
    if not paths:
        print("summary: no traced records (run run.py --trace 1 first)", file=sys.stderr)
        return 1
    by_workload = {}
    for path in paths:
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    for name, records in sorted(by_workload.items()):
        _print_workload(name, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
