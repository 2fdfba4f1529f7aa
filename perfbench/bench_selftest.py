"""The benchmark's own tests.

Run explicitly (the file name keeps it out of the tier-1 collection)::

    python3 -m pytest perfbench/bench_selftest.py -q

* a tiny run of each workload emits every metric of ``BENCHMARK.json``
  with its unit, traced and untraced;
* a deliberately wrong expected answer is counted as a failure and makes
  the result line report it;
* the summed self time of a request's spans never exceeds its wall time,
  and tracing changes no verdict;
* renamed variants of a base request get its verdict; the input digest
  follows the seed;
* every yes/no request kind has base requests of both answers, and
  ``records.json`` matches the universe and the streams it describes;
* every request left out as a known defect is still answered wrongly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import records  # noqa: E402
import run  # noqa: E402
import spec as S  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.05"
SEED = 9091


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _tiny_pool(workload: str):
    """A few base requests of every kind, so tiny runs cover each kind."""
    pool = W.workload_pool(workload)
    return [pool[r.base] for r in W.warmup(workload, pool)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_expected_answer_is_a_reported_failure(workload):
    pool = [dict(item) for item in _tiny_pool(workload)]
    pool[0]["expected"] = ["not", "the", "answer"]
    client = W.Client(workload, pool)
    requests = iter(W.Request(i, 0, S.Variant(i + 1)) for i in range(3))
    loop = worker.run_loop(client, requests, 3)
    assert loop["attempted"] == 3 and loop["failed"] == 3
    assert loop["failures"][0]["expected"] == ["not", "the", "answer"]
    line = run.result_line([loop], {})
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_renamed_variants_keep_the_verdict(workload):
    pool = _tiny_pool(workload)
    client = W.Client(workload, pool)
    for base in range(len(pool)):
        verdicts = []
        for variant in (S.Variant(), S.Variant(7), S.Variant(7, 3)):
            prepared = client.prepare(W.Request(0, base, variant))
            verdicts.append(prepared.verdict(prepared.call()))
        assert verdicts[1:] == verdicts[:1] * 2, pool[base]["kind"]


def test_inputs_digest_depends_on_the_seed_only():
    pool = W.workload_pool("planner-stream")
    digest = W.inputs_digest("planner-stream", pool, 1, 500)
    assert digest == W.inputs_digest("planner-stream", pool, 1, 500)
    assert digest != W.inputs_digest("planner-stream", pool, 2, 500)


@pytest.mark.parametrize("workload", ("planner-stream", "verify-search"))
def test_every_yes_no_kind_has_both_answers(workload):
    for kind, counts in records.answers(W.workload_pool(workload)).items():
        assert counts.get("true", 0) > 0 and counts.get("false", 0) > 0, (kind, counts)


def test_left_out_requests_are_still_answered_wrongly():
    """Each request of ``known_defects.json`` is in the universe and the
    program still contradicts its oracle answer.  Once a fix makes one
    pass, remove its entry so the workload sends it again."""
    known = W.load_known_defects()
    universe = W.load_universe()
    for workload in run.WORKLOADS:
        section = W.universe_key(workload)
        excluded = [item for item in universe[section]
                    if S.digest(item) in W.known_defect_digests(section)]
        assert len(excluded) == len(W.known_defect_digests(section)), section
        client = W.Client(workload, excluded)
        for base, item in enumerate(excluded):
            assert item["basis"] == "oracle" and item["kind"] in known["defects"]
            prepared = client.prepare(W.Request(0, base, S.Variant()))
            got = prepared.verdict(prepared.call())
            assert got != prepared.expected, f"fixed, remove from known_defects.json: {item}"


def test_records_match_the_universe_and_the_streams():
    recorded = json.loads((HERE / "records.json").read_text())
    assert recorded["run_seconds"] == BENCHMARK["run_seconds"]
    for workload in run.WORKLOADS:
        for key, value in records.computed(workload).items():
            assert recorded["workloads"][workload][key] == value, (workload, key)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_time_of_a_request_never_exceeds_its_wall(workload):
    _run(workload, 1)
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert record["failed"] == record["untraced"]["failed"], "tracing changed a verdict"
    spans = [tuple(span) for span in record["spans"]]
    selfs = layers.self_times(spans)
    walls, summed = {}, {}
    for sid, _, _, layer, start, end, request in spans:
        summed[request] = summed.get(request, 0.0) + selfs[sid]
        if layer == "bench":
            walls[request] = end - start
    assert walls and set(walls) == set(summed)
    for request, wall in walls.items():
        assert summed[request] <= wall + 1e-9
    assert min(selfs.values()) >= -1e-9
