"""The repository benchmark: three decision workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload planner-stream --seed 1 --seconds 10 --trace 0

Each run is hermetic: every measured process is a fresh interpreter
(``worker.py``) with a fixed ``PYTHONHASHSEED``, every ``REPRO_*``
variable cleared and ``TMPDIR`` pointed at a temporary directory inside
``perfbench/out`` (SQLite spills there), removed afterwards.  One client
process sends one request at a time (a closed loop).

``--trace 0`` reports the end-to-end metrics of an untraced run;
set-up time is the median of several set-ups.  ``--trace 1`` runs the
same requests untraced and then traced, and reports the per-layer
metrics (``summary.py`` prints them as a table).  The last line of
standard output is the JSON result; the full record (latencies, engine
counters, input digest, CPU affinity, Python version and, when traced,
the spans) is kept in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from worker import host_scale  # noqa: E402

WORKLOADS = ("planner-stream", "verify-search", "datalog-bulk")
#: Set-ups measured per ``--trace 0`` run (the timed run's own included).
SETUP_SAMPLES = 7
HASH_SEED = "0"
#: A worker that outlives its run by this much is killed and the run fails.
GRACE_S = 150.0


class BenchError(RuntimeError):
    pass


def hermetic_env(tmpdir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TMPDIR"] = tmpdir
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode: str, env: dict, out: Path):
    """Start one worker; return (set-up seconds, results dict or None)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--out", str(out),
    ]
    scale = host_scale()
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        setup = (time.perf_counter() - start) * scale
        if line.strip() != "READY":
            raise BenchError(f"{mode} worker did not get ready")
        process.stdout.read()
        code = process.wait(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker timed out") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0:
        raise BenchError(f"{mode} worker exited with {code}")
    return setup, (json.loads(out.read_text()) if mode != "setup" else None)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def request_latencies(results):
    """Every request's latency in seconds of the unloaded host (see
    ``worker.host_scale``)."""
    return [latency * scale for latency, scale in zip(results["latencies"], results["scales"])]


def end_to_end(results, setups):
    """Percentiles over all requests of the run; decisions per second of
    time spent in the timed calls."""
    latencies = request_latencies(results)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "decisions_per_s": (results["attempted"] / sum(latencies), "1/s"),
        "peak_rss_mb": (results["peak_rss_mb"], "MB"),
    }


def measure(args, env: dict, run_dir: Path):
    if args.trace == 0:
        setups = []
        for sample in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, "setup", env, run_dir / f"setup{sample}.json")[0])
        setup, timed = run_worker(args, "timed", env, run_dir / "timed.json")
        setups.append(setup)
        record = dict(timed, setups=setups)
        return end_to_end(timed, setups), [timed], record

    import summary

    _, untraced = run_worker(args, "timed", env, run_dir / "untraced.json")
    _, traced = run_worker(args, "traced", env, run_dir / "traced.json")
    metrics = summary.per_layer_metrics(traced, untraced)
    return metrics, [untraced, traced], dict(traced, untraced=untraced)


def result_line(runs, metrics) -> dict:
    """The JSON result: correct only when no request of any run failed."""
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (HERE / "universe.json").is_file():
        print(f"benchmark: no program sources under {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        metrics, runs, record = measure(args, hermetic_env(tmpdir), Path(tmpdir))
    except BenchError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    line = result_line(runs, metrics)
    attempted, failed = line["attempted"], line["failed"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, metrics=metrics)))
    print(
        f"{args.workload} seed={args.seed}: {attempted} requests "
        f"({len(runs[0]['latencies'])} latency samples per run), {failed} failed "
        f"(failed_share {failed / attempted:.4g}), inputs {runs[0]['inputs_digest'][:16]}, "
        f"python {runs[0]['python']}, {runs[0]['cpu_affinity']} CPUs; record {OUT / name}",
        file=sys.stderr,
    )
    for failure in runs[-1]["failures"][:5]:
        print(f"  failed: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
