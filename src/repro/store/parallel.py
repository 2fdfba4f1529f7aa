"""Parallel checking of the Lemma 4.9 chain restrictions.

The emptiness procedure of Theorem 4.6 decomposes an A-automaton into
SCC-chain restrictions whose emptiness checks are *independent*: the
guard/sentence caches of the witness search are per-search already, and
the initial configuration ships as a store snapshot, which is picklable
by construction (:mod:`repro.store.snapshot`).  This module fans those
checks out across the shared persistent process pool
(:mod:`repro.store.workqueue`), and — when subtree mode is on — fans the
*dominant* chain's own DFS subtrees out alongside them, so the pool does
not drain to one busy worker while a hard chain finishes alone.

Guarantees:

* **Identical verdicts.**  Workers run exactly
  :func:`repro.automata.emptiness.check_restriction` — the same unit of
  work as the sequential loop — and the caller folds the ordered outcome
  list with the same fold as the sequential path, so the resulting
  :class:`~repro.automata.emptiness.EmptinessResult` is bit-identical
  (verdict, witness, ``paths_explored``, ``exhausted``) whether or not a
  pool was used.  The determinism tests in
  ``tests/test_parallel_chains.py`` assert this field by field.

* **Cost-gated dispatch.**  Pool dispatch pays startup and pickling
  latency, so it engages only when it can win: there must be usable
  extra CPUs (measured by *scheduling affinity*, not raw core count — a
  container pinned to one CPU can fork a pool but never gains from it)
  and the estimated work must clear ``REPRO_PARALLEL_MIN_COST``.  Below
  either bar, ``parallel=True`` degrades to the in-process loop — the
  gate makes parallel a strict non-loss, which is exactly what the
  ``parallel_chains_par`` benchmark row asserts.  An explicit
  ``max_workers`` overrides the gate (tests use it to exercise the real
  pool on single-core machines; operators to force dispatch).

* **In-process fallback.**  One restriction or one usable CPU degrades
  to in-process sequential checking.  Pool failures are handled per
  chain by :func:`repro.store.workqueue.dispatch` (bounded retries,
  ``REPRO_POOL_ITEM_TIMEOUT``): a chain the pool loses — no pool in a
  restricted environment, a dead worker, a timeout — is recomputed alone
  in process, and the other chains keep their pooled outcomes.

The pool prefers the ``fork`` start method (cheap on Linux, inherits the
parent's hash seed); under ``spawn`` correctness is preserved because
snapshots and the persistent maps inside them rebuild themselves from
their fact lists on unpickling instead of shipping hash-seed-dependent
trie layouts.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Optional, Sequence

from repro.obs import env as envknobs
from repro.store import workqueue
from repro.store.snapshot import Snapshot, SnapshotInstance
from repro.store.workqueue import _bump, _merge_stats

#: Environment toggle consulted when ``automaton_emptiness(parallel=None)``.
PARALLEL_CHAINS_ENV = envknobs.PARALLEL_CHAINS_ENV

#: Environment toggle consulted when
#: ``automaton_emptiness(subtree_parallel=None)``: decompose each chain's
#: witness search into subtree work items (deterministic semantics; pool
#: dispatch still requires ``parallel`` and the cost gate).
PARALLEL_SUBTREES_ENV = envknobs.PARALLEL_SUBTREES_ENV

#: Environment override for the dispatch cost gate (see
#: :func:`min_dispatch_cost`).
PARALLEL_MIN_COST_ENV = envknobs.PARALLEL_MIN_COST_ENV

#: Default for :func:`min_dispatch_cost`: estimated-work floor below
#: which ``parallel=True`` stays in process.  The unit is the
#: :func:`estimate_chain_cost` proxy — roughly ``automaton size ×
#: exploration budget``; the default clears comfortably for the
#: multi-second workloads parallelism targets and blocks the
#: millisecond-scale calls where pool latency dominates.
DEFAULT_MIN_DISPATCH_COST = envknobs.DEFAULT_MIN_DISPATCH_COST

#: Upper bound on workers regardless of core count: chain counts are small
#: and each worker pays a full search setup, so very wide pools only add
#: startup latency.
_MAX_WORKERS_CAP = 8

#: How many parallel units to assume when sizing a pool for subtree mode:
#: a single chain still yields many subtree items, so the pool is sized
#: by CPUs/cap rather than by the chain count.
_SUBTREE_POOL_UNITS = 8


def parallel_chains_enabled() -> bool:
    """Whether the environment opts in to parallel chain checking."""
    return envknobs.flag_lenient(PARALLEL_CHAINS_ENV)


def subtree_parallel_enabled() -> bool:
    """Whether the environment opts in to subtree-decomposed searches."""
    return envknobs.flag_lenient(PARALLEL_SUBTREES_ENV)


def min_dispatch_cost() -> int:
    """Estimated-work floor for pool dispatch (env override or default)."""
    return envknobs.non_negative_int(PARALLEL_MIN_COST_ENV, DEFAULT_MIN_DISPATCH_COST)


def available_cpus() -> int:
    """CPUs this process may actually run on (scheduling affinity).

    ``os.cpu_count()`` reports the machine; a containerised or
    CPU-pinned process can see many cores it will never be scheduled
    onto, in which case a worker pool only adds dispatch overhead — the
    exact failure mode the cost gate exists to prevent.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def estimate_chain_cost(
    restriction,
    search_kwargs: Dict[str, object],
    pool_size: Optional[int] = None,
) -> int:
    """Deterministic proxy for one chain's witness-search work.

    ``automaton size × exploration budget``: the candidate loop is
    per-transition guard work and the budget caps the explored nodes.
    ``max_paths`` alone overestimates small searches badly (the default
    cap is 40 000 but a three-fact pool exhausts after a few hundred
    nodes), so the budget is additionally bounded by a branching proxy
    of the search space, ``(pool + 2) ^ min(max_length, 8)``.  All
    inputs are known before any search setup and the estimate is a pure
    function of them — gate decisions never depend on machine state and
    cannot perturb results (gating only chooses *where* identical work
    runs).
    """
    budget = int(search_kwargs.get("max_paths") or 0)
    if pool_size is None:
        fact_pool = search_kwargs.get("fact_pool")
        pool_size = len(fact_pool) if fact_pool is not None else None
    max_length = search_kwargs.get("max_length")
    if pool_size is not None and max_length:
        space = (pool_size + 2) ** min(int(max_length), 8)
        budget = min(budget, space)
    states, transitions = restriction.size()
    return (states + transitions) * budget


def _worker_count(num_units: int, max_workers: Optional[int]) -> int:
    if max_workers is not None:
        # An explicit worker count is honoured as given (minus idle
        # workers): tests use it to exercise the real pool on single-core
        # machines, operators to oversubscribe or restrict deliberately.
        return max(1, min(num_units, max_workers))
    return max(1, min(num_units, available_cpus(), _MAX_WORKERS_CAP))


def dispatch_workers(
    num_units: int, total_cost: int, max_workers: Optional[int]
) -> int:
    """Pool size for *num_units* independent items; ``0`` keeps them in process.

    The one cost gate of every pooled path (chain fan-out and engine
    batches): dispatch needs usable extra CPUs and estimated work of at
    least :func:`min_dispatch_cost`, unless an explicit *max_workers*
    overrides both.
    """
    workers = _worker_count(num_units, max_workers)
    if max_workers is None and (workers <= 1 or total_cost < min_dispatch_cost()):
        return 0
    return workers


def _check_chain(restriction, vocabulary, initial_snapshot, search_kwargs, use_precheck):
    """Check one whole chain in a worker (fault point ``chain``)."""
    from repro.automata.emptiness import check_restriction

    initial = SnapshotInstance.from_snapshot(initial_snapshot)
    return check_restriction(
        restriction, vocabulary, initial, search_kwargs, use_precheck
    )


def _initial_snapshot(initial) -> Snapshot:
    if isinstance(initial, Snapshot):
        return initial
    return SnapshotInstance.from_instance(initial).snapshot()


def map_chain_outcomes(
    restrictions: Sequence,
    vocabulary,
    initial,
    search_kwargs: Dict[str, object],
    use_datalog_precheck: bool,
    max_workers: Optional[int] = None,
    pool_size: Optional[int] = None,
):
    """Chain outcomes in restriction order, up to the first witness.

    *pool_size* is the caller's fact-pool cardinality hint for
    :func:`estimate_chain_cost` (``automaton_emptiness`` derives the
    pool anyway and passes its size along so the gate can bound the
    exploration budget by the actual search space).

    Runs the in-process sequential loop when parallelism cannot help (no
    usable extra CPUs, estimated work below :func:`min_dispatch_cost`, a
    single chain outside subtree mode).  Otherwise every chain ships as
    a whole-chain task through :func:`repro.store.workqueue.dispatch`,
    except in subtree mode the *dominant* chain — the one with the
    largest cost estimate, the straggler that makes whole-chain
    granularity lose: its witness search runs here with its DFS subtrees
    dispatched to the same pool, so workers stay busy on its items as
    the small chains drain.  Placement depends on runtime estimates, but
    the subtree decomposition's results are placement-independent, so
    the folded outcome never does.

    Once an outcome carries a witness the remaining chains are dead work
    (the caller's fold stops there, mirroring the sequential early
    exit), so not-yet-started tasks are cancelled and the list is
    truncated at that point.  A chain the pool loses (no pool, a worker
    failure, a timeout) is recomputed alone in process and counted in
    ``pool_chain_fallbacks``; the pool counters ride on the first
    outcome's stats, which the fold always merges (stats are excluded
    from result equality, so the folded result is the same).
    """
    from repro.automata.emptiness import check_restriction

    def check(restriction, executor=None):
        return check_restriction(
            restriction,
            vocabulary,
            initial,
            search_kwargs,
            use_datalog_precheck,
            executor=executor,
        )

    num_chains = len(restrictions)
    subtree = bool(search_kwargs.get("subtree_mode"))
    units = num_chains if not subtree else max(num_chains, _SUBTREE_POOL_UNITS)
    costs = [
        estimate_chain_cost(restriction, search_kwargs, pool_size)
        for restriction in restrictions
    ]
    workers = 0
    if num_chains > 1 or subtree:
        workers = dispatch_workers(units, sum(costs), max_workers)
    dominant = None
    results = None
    pool_stats: Dict[str, int] = {}
    if workers:
        if subtree:
            dominant = max(range(num_chains), key=lambda i: (costs[i], -i))
        snapshot = _initial_snapshot(initial)
        results = workqueue.dispatch(
            [r for index, r in enumerate(restrictions) if index != dominant],
            "chain",
            _check_chain,
            lambda r: (r, vocabulary, snapshot, search_kwargs, use_datalog_precheck),
            workers=workers,
            stats=pool_stats,
        )
    outcomes = []
    try:
        dominant_outcome = None
        if dominant is not None:
            dominant_outcome = check(
                restrictions[dominant], workqueue.SubtreeExecutor(workers)
            )
        for index, restriction in enumerate(restrictions):
            if index == dominant:
                outcome = dominant_outcome
            elif results is None:
                outcome = check(restriction)
            else:
                outcome = next(results)
                if isinstance(outcome, workqueue.Recompute):
                    _bump(pool_stats, "pool_chain_fallbacks")
                    outcome = check(restriction)
            outcomes.append(outcome)
            if outcome.witness is not None:
                break  # later chains are dead work; close() cancels them
    finally:
        if results is not None:
            results.close()
    if pool_stats:
        first = outcomes[0]
        stats = dict(first.stats or {})
        _merge_stats(stats, pool_stats)
        outcomes[0] = dataclasses.replace(first, stats=stats)
    return outcomes
