"""One benchmark process: set up a workload, print READY, run it, write results.

Started by ``run.py`` in a fresh interpreter (fixed ``PYTHONHASHSEED``,
no ``REPRO_*`` variables), never imported.  Modes:

* ``setup``  — set up (imports, inputs, client, warm-up), print READY, exit;
* ``timed``  — then send the run's requests (``workloads.request_count``),
  tracing off;
* ``traced`` — send the same requests with the layer wrappers of
  ``layers.py`` installed, and write spans and counts.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: Workloads whose requests each build a large fresh store: the previous
#: request's garbage is collected before the next is timed, so neither its
#: collection time nor its memory lands on the next request by chance of
#: order.  (On the others a full collection per request would cost more
#: than the requests.)
COLLECT_BETWEEN_REQUESTS = {"datalog-bulk"}

#: Failures kept verbatim in the results file (all are counted).
KEPT_FAILURES = 20

#: Seconds between two measurements of the reference work.
CALIBRATION_INTERVAL_S = 0.25
#: Time of the reference work on an unloaded 2-CPU host (best of many).
REFERENCE_NOMINAL_S = 0.0041
#: The workloads slow down less than the reference work under the same
#: host load: over 20 runs per workload on a 2-CPU shared host, scaling
#: by the reference's full slowdown left IQR/median spreads of 6-13%,
#: scaling by its 0.75th power 3-9% on the same runs.
LOAD_EXPONENT = 0.75


def reference_work() -> int:
    """Fixed pure-Python work (hashing, tuples, dict updates) that no change
    to the program can speed up or slow down."""
    table = {}
    for i in range(12000):
        key = (i % 97, str(i % 113))
        table[key] = table.get(key, 0) + 1
    return len(table)


def host_scale() -> float:
    """How much faster than now the unloaded host runs the workloads.

    Other tenants of a shared host slow every process on it by up to 2x,
    in phases of seconds to minutes.  Latencies are multiplied by this
    scale (the reference work's slowdown, best of three runs, to the
    power ``LOAD_EXPONENT``), so the benchmark reports them in seconds of
    the unloaded host.
    """
    best = min(_timed(reference_work) for _ in range(3))
    return (REFERENCE_NOMINAL_S / best) ** LOAD_EXPONENT


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def _engines(client):
    from repro.engine import shared_engine, single_shot_engine

    engines = [shared_engine(), single_shot_engine()]
    return engines + ([client.engine] if client.engine is not None else [])


def _engine_totals(client):
    totals = {"requests": 0, "saved": 0, "memo_entries": 0, "pooled_tasks": 0,
              "pool_retries": 0, "vc_hits": 0, "vc_misses": 0, "vc_evictions": 0}
    for engine in _engines(client):
        stats = engine.stats()
        cache = stats["verdict_cache"]
        totals["requests"] += stats["requests"]
        totals["saved"] += stats["memo_hits"] + stats["memo_disk_hits"] + stats["batch_dedup_hits"]
        totals["memo_entries"] += stats["memo_entries"]
        totals["pooled_tasks"] += stats["pooled_tasks"]
        totals["pool_retries"] += stats["pool_retries"]
        totals["vc_hits"] += cache["memory_hits"]
        totals["vc_misses"] += cache["memory_misses"]
        totals["vc_evictions"] += cache["evictions"]
    return totals


def _delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after}


def run_loop(client, requests, count, recorder=None):
    """Send *count* requests one at a time; time each public call; check each verdict."""
    latencies, scales, failures, failed = [], [], [], 0
    clock = time.perf_counter
    collect = client.workload in COLLECT_BETWEEN_REQUESTS
    loop_start = clock()
    scale, calibrated_at = host_scale(), clock()
    for request in itertools.islice(requests, count):
        prepared = client.prepare(request)
        if collect:
            gc.collect()
        if clock() - calibrated_at >= CALIBRATION_INTERVAL_S:
            scale, calibrated_at = host_scale(), clock()
        start = clock()
        try:
            if recorder is not None:
                result, elapsed = recorder.run_request(request.index, prepared.call)
            else:
                result = prepared.call()
                elapsed = clock() - start
            got = prepared.verdict(result)
        except Exception as error:  # a raising request is a failed request
            elapsed = clock() - start
            got = f"raised {type(error).__name__}: {error}"
        latencies.append(elapsed)
        if elapsed >= CALIBRATION_INTERVAL_S:
            # A long request gets the mean of the scales measured just
            # before and just after it.
            after = host_scale()
            scales.append((scale + after) / 2)
            scale, calibrated_at = after, clock()
        else:
            scales.append(scale)
        if got != prepared.expected:
            failed += 1
            if len(failures) < KEPT_FAILURES:
                failures.append({"index": request.index, "kind": prepared.kind,
                                 "base": request.base, "tag": request.variant.tag,
                                 "var_tag": request.variant.var_tag,
                                 "got": repr(got), "expected": prepared.expected})
    return {"latencies": latencies, "scales": scales,
            "attempted": len(latencies), "failed": failed,
            "failures": failures, "loop_s": clock() - loop_start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import workloads as W
    from repro.obs import metrics
    from repro.queries.plan_cache import plan_cache_info

    pool = W.workload_pool(args.workload)
    client = W.Client(args.workload, pool)
    for request in W.warmup(args.workload, pool):
        client.prepare(request).call()
    requests = W.stream(args.workload, pool, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    recorder = None
    if args.mode == "traced":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    engine_before = _engine_totals(client)
    plan_before = plan_cache_info()
    counters_before = metrics.REGISTRY.counters_snapshot()

    count = W.request_count(args.workload, pool, args.seconds)
    loop = run_loop(client, requests, count, recorder)

    plan_after = plan_cache_info()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        **loop,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "inputs_digest": W.inputs_digest(args.workload, pool, args.seed, count),
        "engine": _delta(_engine_totals(client), engine_before),
        "engine_memo_entries": _engine_totals(client)["memo_entries"],
        "plan_cache": {"hits": plan_after["hits"] - plan_before["hits"],
                       "misses": plan_after["misses"] - plan_before["misses"],
                       "size": plan_after["size"]},
        "counters": metrics.REGISTRY.counters_delta(counters_before),
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = dict(recorder.counts)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
