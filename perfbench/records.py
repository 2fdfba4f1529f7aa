"""Refresh the computed fields of ``records.json`` from ``universe.json``.

Per workload: the number of base requests it sends and of those it
leaves out as known defects (``known_defects.json``), the expected
answers per request kind, the requests a run of ``run_seconds`` (``BENCHMARK.json``)
sends, and the input digests of seeds 1 and 2.  The prose fields (why,
stresses, bypasses, ...) are kept as written.  Run from the repository
root after regenerating the universe or changing a stream::

    python3 perfbench/records.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402

RECORDS = HERE / "records.json"
DIGEST_SEEDS = (1, 2)


def run_seconds() -> int:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def answers(pool) -> dict:
    """``kind -> {"true": n, "false": m}`` for yes/no kinds, else ``{"answer sets": n}``."""
    result = {}
    for item in pool:
        expected = item["expected"]
        key = str(expected).lower() if isinstance(expected, bool) else "answer sets"
        counts = result.setdefault(item["kind"], {})
        counts[key] = counts.get(key, 0) + 1
    return result


def computed(workload: str, universe=None) -> dict:
    pool = W.workload_pool(workload, universe)
    count = W.request_count(workload, pool, run_seconds())
    return {
        "base_requests": len(pool),
        "excluded_known_defects": len(W.known_defect_digests(W.universe_key(workload))),
        "answers": answers(pool),
        "requests_per_run": count,
        "inputs_digest": {
            f"seed {seed}": W.inputs_digest(workload, pool, seed, count)
            for seed in DIGEST_SEEDS
        },
    }


def main() -> int:
    records = json.loads(RECORDS.read_text())
    universe = W.load_universe()
    for workload, record in records["workloads"].items():
        record.update(computed(workload, universe))
    records["run_seconds"] = run_seconds()
    RECORDS.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
