"""The shared process pool and its one dispatcher, plus subtree execution.

Three kinds of work cross into worker processes: whole Lemma 4.9 chain
restrictions (:mod:`repro.store.parallel`), DFS subtree items of one
chain's witness search (this module) and the decision engine's reduction
tasks (:mod:`repro.engine.engine`).  All of them go through
:func:`dispatch`: one submission/ordering primitive, one worker wrapper
per fault point (``chain``, ``subtree``, ``task``) returning one
:class:`Shipped` envelope, and one failure state machine that hands the
caller a per-item :class:`Recompute` marker whenever the pool could not
deliver.  No other module touches the pool (lint rule ``POOL001``).

Subtree parallelism: the chain decomposition gives whole-chain
parallelism, which loses when one hard chain dominates: the pool drains
to a single busy worker while the stragglers' subtrees sit inside it,
unreachable.  Snapshots are picklable by construction, so a DFS frontier
node ships as a self-contained
:class:`~repro.automata.emptiness.SubtreeItem`
``(states, snapshot, known, budget)``; workers run each item to
completion — or hand it back for **re-splitting** when it exceeds the
per-item work budget — and the coordinator folds the outcomes
deterministically.

Guarantees:

* **Deterministic results.**  :func:`run_decomposed_search` returns the
  same ``(witness, explored, exhausted)`` whether items run in worker
  processes, in-process (no pool), or any mix (individual worker
  failures fall back to in-process resolution).  The fold consumes
  outcomes in canonical DFS order — the first witness in that order
  wins — and reconstructs the sequential interleaving of exploration
  counts exactly, including the ``max_paths`` abort point: a witness a
  worker found beyond the budget horizon the sequential search would
  have aborted at is discarded, not reported.
* **Re-splitting is deterministic too.**  A worker abandons an item once
  its local explored-node count exceeds the *split budget*; whether that
  happens is a pure function of ``(item, budget)``, never of
  scheduling.  The coordinator then expands the overflowed node one
  level (counting that node's own candidates itself) and enqueues the
  children — adaptive granularity without nondeterminism, at the cost of
  discarding the overflowed attempt (at most one budget's worth of
  work).
* **Warm shared pool.**  One persistent process pool (shared by all
  three kinds of work) is reused across calls; each worker caches the
  unpickled search context per coordinator token, so after the first
  item of a context only the item itself is rebuilt per task.

Early cancellation: once a consumer stops (the fold settles on a
witness, a chain fan-out reaches its first witness), the not-yet-started
items are cancelled; running ones finish in the background and are
discarded.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# NOTE: repro.store is initialised very early (the query plan cache pulls
# in the snapshot store), so this module must not import the repro.core
# package at module level — the budget types are imported lazily inside
# the budgeted entry points instead.  :mod:`repro.obs` is safe: it is
# dependency-free within the library.
from repro.obs import env as envknobs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.store import faults

#: Default explored-nodes budget a worker spends on one subtree item
#: before handing it back for re-splitting.  Override per call via
#: ``automaton_emptiness(split_budget=...)`` or globally via the
#: ``REPRO_SUBTREE_SPLIT_BUDGET`` environment variable.
DEFAULT_SPLIT_BUDGET = envknobs.DEFAULT_SPLIT_BUDGET

#: Environment override for :data:`DEFAULT_SPLIT_BUDGET`.
SPLIT_BUDGET_ENV = envknobs.SPLIT_BUDGET_ENV

#: Environment override for the transient-failure retry count of the
#: pool path (:func:`pool_retry_limit`).
POOL_RETRIES_ENV = envknobs.POOL_RETRIES_ENV

#: Default bounded retries for a transient worker failure before the
#: in-process fallback.  Two retries with exponential backoff cover the
#: common one-off worker death without stalling a genuinely broken pool.
DEFAULT_POOL_RETRIES = envknobs.DEFAULT_POOL_RETRIES

#: Environment override for the per-item pooled result timeout in
#: seconds (:func:`pool_item_timeout`).  Unset/empty means no timeout —
#: the default, because a healthy pool's items always terminate (the DFS
#: is budget-bounded) and a spurious timeout costs a full in-process
#: recomputation.
POOL_ITEM_TIMEOUT_ENV = envknobs.POOL_ITEM_TIMEOUT_ENV

#: Base of the exponential retry backoff (seconds): 0.05, 0.1, 0.2, ...
_RETRY_BACKOFF_S = 0.05



def subtree_split_budget() -> int:
    """The configured per-item work budget (env override or default)."""
    return envknobs.positive_int(SPLIT_BUDGET_ENV, DEFAULT_SPLIT_BUDGET)


def pool_retry_limit() -> int:
    """Bounded retries for transient worker failures (env override or default)."""
    return envknobs.non_negative_int(POOL_RETRIES_ENV, DEFAULT_POOL_RETRIES)


def pool_item_timeout() -> Optional[float]:
    """Per-item pooled result timeout in seconds (``None`` = no timeout)."""
    return envknobs.positive_float(POOL_ITEM_TIMEOUT_ENV, None)


# ----------------------------------------------------------------------
# Worker-failure taxonomy
# ----------------------------------------------------------------------
def _is_payload_error(error: BaseException) -> bool:
    """Whether *error* means the payload itself cannot cross the pipe.

    Pickling/unpickling failures are deterministic properties of the
    payload: retrying the exact same bytes reproduces them, so the right
    response is to fail the pool path fast and resolve in-process.
    Everything else (a dead worker breaking the pool, an OS-level pipe
    error) is treated as transient and eligible for bounded retry.
    """
    return isinstance(error, (pickle.PicklingError, pickle.UnpicklingError, TypeError, AttributeError))


def _bump(stats: Dict[str, int], key: str, amount: int = 1) -> None:
    stats[key] = stats.get(key, 0) + amount


# ----------------------------------------------------------------------
# The shared persistent pool
# ----------------------------------------------------------------------
# A lazily created, reused pool: spawning workers costs hundreds of
# milliseconds (fork of a large parent, interpreter warm-up), which would
# otherwise be paid by every call.  The pool is replaced when a caller
# needs more workers than it has, and discarded on failure (the next
# dispatch recreates it).  Chain tasks, subtree items and engine tasks
# all draw from it, so they interleave in one queue — which is exactly
# how a dominant chain's subtrees fill workers that drained their own
# chains.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown to at least *workers* workers."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    _POOL_WORKERS = workers
    return _POOL


def discard_shared_pool() -> None:
    """Tear the shared pool down (the next call recreates it)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        try:
            _POOL.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort cleanup
            _metrics.counter("pool.shutdown_errors")
    _POOL = None
    _POOL_WORKERS = 0


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shipped:
    """A pooled item's value plus the worker's spans and counter delta."""

    value: object
    spans: Optional[Tuple] = None
    counters: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class Recompute:
    """Per-item marker: the pool did not deliver, recompute in-process.

    ``reason`` is ``"payload"`` (the item cannot cross the pipe),
    ``"worker"`` (transient failures outlasted the retries), ``"timeout"``
    (the per-item deadline passed), ``"submit"`` (no pool, or submission
    failed) or ``"deadline"`` (the caller's batch clock ran out while
    waiting — not a pool failure, so not counted as one).
    """

    reason: str


def _pool_worker(point: str, fn: Callable, args: Tuple, trace_on: bool) -> Shipped:
    """The worker wrapper of every pooled item: fault point, tracing, envelope.

    *trace_on* travels with each submission because persistent workers
    keep whatever tracing flag they inherited at fork time.
    """
    _trace.configure_worker(trace_on)
    base = _metrics.REGISTRY.counters_snapshot()
    faults.fire(point)
    value = fn(*args)
    spans = tuple(_trace.take_spans()) if trace_on else None
    counters = _metrics.REGISTRY.counters_delta(base)
    return Shipped(value, spans or None, counters or None)


class Dispatch:
    """Pooled results of one batch of items, in submission order.

    Each ``next()`` blocks for the next item and returns its value or a
    :class:`Recompute` marker; :attr:`retried` says whether the value
    just returned came from a retry.  :meth:`close` (or leaving a
    ``with`` block) cancels the items not yet consumed.  The spans and
    counter delta a worker shipped are folded into the coordinator's
    trace and metrics registry on consumption.

    Failure state machine, every occurrence counted into *stats*:

    * **pool creation or submission fails** (``pool_submit_errors``, or
      ``pool_payload_errors`` for an unpicklable submission) — the pool
      is discarded and every unsubmitted item is a ``"submit"`` marker;
    * **payload error** (``pool_payload_errors``) — pickling/unpickling
      failed, which retrying cannot fix: ``"payload"`` at once;
    * **transient failure** (``pool_worker_failures``) — a dead worker, a
      severed pipe, a sibling cancelled by a pool replacement.  Retried
      up to :func:`pool_retry_limit` times (``pool_retries``) with
      exponential backoff; the pool is rebuilt unless another item
      already replaced it.  Once one item has spent its retries the pool
      is evidently broken, so later failures of this batch fall back
      without retrying: ``"worker"``;
    * **timeout** (``pool_timeouts``) — :func:`pool_item_timeout`, capped
      by the caller's batch clock, passed without a result.  The item is
      abandoned (its worker is still busy; queueing a copy would stall
      the batch further): ``"timeout"``, or ``"deadline"`` (uncounted)
      when the batch clock itself ran out.
    """

    def __init__(self, items, point, fn, payload, workers, stats, clock) -> None:
        self._items = list(items)
        self._point = point
        self._fn = fn
        self._payload = payload
        self._workers = workers
        self._stats = stats
        self._clock = clock
        self._timeout = pool_item_timeout()
        self._retry_limit = pool_retry_limit()
        self._broken = False
        self._next = 0
        self.retried = False
        #: ``(future, pool)`` per submitted item, ``None`` once consumed
        #: or when submission failed.
        self._slots: List[Optional[Tuple[object, ProcessPoolExecutor]]] = []
        try:
            pool = shared_pool(workers)
        except Exception:
            _bump(stats, "pool_submit_errors")
            _trace.event("pool.submit_error", point=point)
            pool = None
        for item in self._items:
            slot = None
            if pool is not None:
                try:
                    slot = (self._submit(pool, item), pool)
                except Exception as error:
                    discard_shared_pool()
                    self._count_error(error, "pool_submit_errors")
                    pool = None
            self._slots.append(slot)

    def _submit(self, pool, item):
        return pool.submit(
            _pool_worker, self._point, self._fn, self._payload(item), _trace.enabled()
        )

    def _count_error(self, error: BaseException, transient_key: str) -> bool:
        """Count *error*; whether it was a payload error."""
        payload = _is_payload_error(error)
        _bump(self._stats, "pool_payload_errors" if payload else transient_key)
        if payload:
            _trace.event(
                "pool.payload_error", point=self._point, error=type(error).__name__
            )
        return payload

    def _fallback(self, reason: str) -> Recompute:
        _trace.event("pool.fallback", point=self._point, reason=reason)
        return Recompute(reason)

    def __iter__(self):
        return self

    def __next__(self):
        index = self._next
        if index >= len(self._items):
            raise StopIteration
        self._next += 1
        self.retried = False
        slot, self._slots[index] = self._slots[index], None
        if slot is None:
            return self._fallback("submit")
        future, pool = slot
        attempt = 0
        while True:
            timeout = self._timeout
            remaining = None if self._clock is None else self._clock.remaining_s()
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
            try:
                shipped = future.result(timeout=timeout)
            except FuturesTimeout:
                future.cancel()
                if self._clock is not None and self._clock.expired():
                    return Recompute("deadline")
                _bump(self._stats, "pool_timeouts")
                _trace.event("pool.timeout", point=self._point, timeout_s=timeout)
                return self._fallback("timeout")
            except Exception as error:
                if self._count_error(error, "pool_worker_failures"):
                    return self._fallback("payload")
                if self._broken or attempt >= self._retry_limit:
                    self._broken = True
                    return self._fallback("worker")
                time.sleep(_RETRY_BACKOFF_S * (2 ** attempt))
                attempt += 1
                _bump(self._stats, "pool_retries")
                _trace.event(
                    "pool.retry",
                    point=self._point,
                    attempt=attempt,
                    error=type(error).__name__,
                )
                try:
                    if pool is _POOL:
                        discard_shared_pool()
                    pool = shared_pool(self._workers)
                    future = self._submit(pool, self._items[index])
                except Exception:
                    _bump(self._stats, "pool_submit_errors")
                    self._broken = True
                    return self._fallback("submit")
                self.retried = True
            else:
                _trace.attach_children(shipped.spans)
                _metrics.REGISTRY.merge_counters(shipped.counters)
                return shipped.value

    def close(self) -> None:
        """Cancel every item not yet consumed."""
        for slot in self._slots[self._next :]:
            if slot is not None:
                slot[0].cancel()
        self._next = len(self._items)

    def __enter__(self) -> "Dispatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def dispatch(
    items: Sequence,
    point: str,
    fn: Callable,
    payload: Callable[[object], Tuple],
    *,
    workers: int,
    stats: Dict[str, int],
    clock=None,
) -> Dispatch:
    """Submit *items* to the shared pool (grown to *workers*) up front.

    Each item runs in a worker as ``fn(*payload(item))`` (*fn* at module
    level) under fault point *point*; *payload* is re-evaluated on a
    retry, so it may carry a remaining budget.  An optional started
    :class:`~repro.core.budget.BudgetClock` caps every wait.
    """
    return Dispatch(items, point, fn, payload, workers, stats, clock)


# ----------------------------------------------------------------------
# Worker side: per-process context cache
# ----------------------------------------------------------------------
#: Worker-process cache of unpickled search contexts, keyed by the
#: coordinator's context token.  Bounded: coordinators churn through
#: contexts (one per chain restriction), workers must not accumulate
#: them forever.
_CONTEXT_CACHE: Dict[Tuple[int, int], object] = {}
_CONTEXT_ORDER: List[Tuple[int, int]] = []
_CONTEXT_CACHE_LIMIT = 4

_TOKEN_COUNTER = 0


def _next_context_token() -> Tuple[int, int]:
    """A token unique per (coordinator process, executor instance)."""
    global _TOKEN_COUNTER
    _TOKEN_COUNTER += 1
    return (os.getpid(), _TOKEN_COUNTER)


def _cached_search(token: Tuple[int, int], blob: bytes):
    search = _CONTEXT_CACHE.get(token)
    if search is None:
        from repro.automata.emptiness import search_from_payload

        search = search_from_payload(pickle.loads(blob))
        _CONTEXT_CACHE[token] = search
        _CONTEXT_ORDER.append(token)
        while len(_CONTEXT_ORDER) > _CONTEXT_CACHE_LIMIT:
            evicted = _CONTEXT_ORDER.pop(0)
            _CONTEXT_CACHE.pop(evicted, None)
    return search


def _subtree_worker(token: Tuple[int, int], blob: bytes, item, node_budget: int):
    """Run one subtree item in a worker (fault point ``subtree``).

    The outcome carries the search's instrumentation delta for this item
    (``SubtreeOutcome.stats``), which the fold merges into the chain's
    stats.
    """
    search = _cached_search(token, blob)
    before = dict(search.stats)
    with _trace.trace_span(
        "emptiness.subtree", states=len(item.states), budget=node_budget
    ):
        outcome = search.run_subtree(item, node_budget)
    delta = {
        key: value - before.get(key, 0)
        for key, value in search.stats.items()
        if value != before.get(key, 0)
    }
    return replace(outcome, stats=delta or None)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class SubtreeExecutor:
    """Dispatches one search context's subtree items to the shared pool.

    The context payload is pickled **once** (:meth:`bind`); the blob and
    its token travel with every item, and workers unpickle it on first
    sight and cache the built search per token, so steady-state per-item
    cost is the item itself plus a bytes copy over the pipe.  Once the
    pool loses an item the executor is marked dead — the fold then
    resolves the rest of the search in-process, with identical results.
    """

    def __init__(self, workers: int = 2) -> None:
        self._workers = workers
        self._token: Optional[Tuple[int, int]] = None
        self._blob: Optional[bytes] = None
        self._node_budget: Optional[int] = None
        self._dead = False
        #: Failure/retry/timeout occurrences, merged into the final
        #: search stats (and from there into ``EmptinessResult.stats``).
        self.counters: Dict[str, int] = {}

    def bind(self, context_payload, node_budget: int) -> None:
        """Attach the search context and the per-item work budget."""
        if self._blob is None:
            self._token = _next_context_token()
            try:
                self._blob = pickle.dumps(
                    context_payload, protocol=pickle.HIGHEST_PROTOCOL
                )
            except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
                # Unpicklable context: a deterministic payload property,
                # so the pool path can never work for this search — fail
                # fast to in-process resolution, no retries.
                _bump(self.counters, "pool_payload_errors")
                self._dead = True
        self._node_budget = node_budget

    @property
    def usable(self) -> bool:
        return not self._dead and self._blob is not None

    def mark_dead(self) -> None:
        self._dead = True

    def dispatch(self, items: Sequence) -> Dispatch:
        """Pooled outcomes of *items* (see :func:`dispatch`)."""
        return dispatch(
            items,
            "subtree",
            _subtree_worker,
            lambda item: (self._token, self._blob, item, self._node_budget),
            workers=self._workers,
            stats=self.counters,
        )


def _merge_stats(into: Dict[str, int], stats: Optional[Dict[str, int]]) -> None:
    if stats:
        for key, value in stats.items():
            into[key] = into.get(key, 0) + value


def _dispatch_records(executor, records):
    """The pooled results of one level's records, or ``None`` (in-process)."""
    if executor is None or not executor.usable or not records:
        return None
    return executor.dispatch([record.item for record in records])


def _resolve_item(search, item, delivered, budget, executor, extra_stats, horizon):
    """Resolve one item to ``(status, steps, count)`` relative to its node.

    ``status`` is ``"witness"`` (``steps`` = path suffix from the item's
    node, ``count`` = local exploration count at which it was found),
    ``"aborted"`` (the remaining exploration budget *horizon* was hit
    inside the subtree — the sequential search would have aborted there)
    or ``"done"`` (``count`` = the subtree's total exploration count).
    Overflowed items are re-split via :meth:`expand_item` and folded
    recursively — a deterministic decision, see the module docstring.

    *delivered* is the item's pooled outcome, a :class:`Recompute`
    marker, or ``None`` when it was never dispatched.  In-process runs
    receive *horizon* as a hard cap so they stop at the exact crossing
    point; pooled workers ran with the loose global cap (their entry
    offset was unknown at dispatch), so their results are re-checked
    against the horizon here — a witness located beyond it is rejected
    by the caller, making both placements land on the same result.
    """
    outcome = delivered
    if isinstance(outcome, Recompute):
        # A failed item must not change verdicts: resolve it in-process
        # (below), record that the pool path lost it, and keep the rest
        # of this search off a pool that is failing.
        _bump(extra_stats, "pool_inprocess_fallbacks")
        executor.mark_dead()
        outcome = None
    if outcome is None:
        with _trace.trace_span("emptiness.subtree", inprocess=True, budget=budget):
            outcome = search.run_subtree(item, budget, hard_limit=horizon)
    else:
        _merge_stats(extra_stats, outcome.stats)
        _bump(extra_stats, "subtree_pooled_items")
    _bump(extra_stats, "subtree_items")
    if outcome.status == "overflow":
        _bump(extra_stats, "subtree_overflows")
        expansion = search.expand_item(item)
        return _fold_expansion(
            search, expansion, budget, executor, extra_stats, horizon
        )[:3]
    if outcome.status == "witness":
        if outcome.explored > horizon:
            # The sequential search crosses max_paths before reaching
            # this candidate (a loose-cap worker ran past the horizon).
            return ("aborted", None, outcome.explored)
        return ("witness", outcome.steps, outcome.explored)
    if outcome.status == "aborted" or outcome.explored > horizon:
        return ("aborted", None, outcome.explored)
    return ("done", None, outcome.explored)


def _fold_expansion(
    search, expansion, budget, executor, extra_stats, horizon, clock=None, initial_total=0
):
    """Deterministically fold one expanded node level.

    Items are dispatched to the pool eagerly (they are independent) but
    consumed strictly in canonical DFS order, reconstructing the exact
    sequential interleaving of the expansion's own candidate counts
    (``record.explored_at``) with the subtree totals.  *horizon* is the
    remaining global exploration budget relative to this node: the walk
    stops at the first count that crosses it, exactly where the
    sequential search aborts — items past that point are never resolved
    (their dispatch is closed, cancelling them).  Returns ``(status,
    steps, count, interrupted_state)`` relative to the expansion's root
    node: for a witness, ``count`` is the exploration count at which the
    sequential search would have found it; for ``done``, the level's
    total count.  An inline witness found by the expansion itself comes
    after every exported record, exactly as in the sequential candidate
    loop (the loop stops at the accepting candidate, so all exports
    precede it).

    With a started *clock* (the anytime driver's top-level rounds) the
    walk is interruptible at record boundaries: it consults the clock
    before each record (both budget axes) and charges each record's
    resolved count, and an ambient :class:`BudgetExpired` raised mid-item
    (the wall-clock hook inside the DFS) abandons that item — items are
    pure functions of ``(item, budget)``, so the abandoned record simply
    re-runs in full on resume.  *status* then gains the value
    ``"interrupted"``, with *interrupted_state* ``(remaining_records,
    completed_total)`` — exactly what a checkpoint needs to restart this
    round where it stopped.  On a resumed round, pass the checkpoint's
    remaining records as *expansion.records* and its completed total as
    *initial_total*: ``record.explored_at`` offsets are absolute within
    the round, so the entry arithmetic (and therefore every
    abort/witness decision) lands exactly where the uninterrupted fold
    would have landed.
    """
    from repro.core.budget import BudgetExpired

    records = expansion.records
    results = _dispatch_records(executor, records)
    total = initial_total
    try:
        for index, record in enumerate(records):
            entry = record.explored_at + total
            if entry > horizon:
                # The crossing happened in the expansion's own candidate
                # increments (or an earlier subtree): the sequential
                # search aborts before entering this item.
                return ("aborted", None, entry, None)
            if clock is not None and clock.expired():
                return ("interrupted", None, total, (records[index:], total))
            try:
                status, steps, count = _resolve_item(
                    search,
                    record.item,
                    next(results) if results is not None else None,
                    budget,
                    executor,
                    extra_stats,
                    horizon - entry,
                )
            except BudgetExpired:
                if clock is None:
                    raise  # a nested level: the top-level round interrupts
                return ("interrupted", None, total, (records[index:], total))
            if clock is not None:
                clock.charge(count)
            if status == "witness":
                return ("witness", record.prefix + steps, entry + count, None)
            if status == "aborted":
                return ("aborted", None, entry + count, None)
            total += count
        if expansion.witness_steps is not None:
            return (
                "witness",
                expansion.witness_steps,
                expansion.witness_at + total,
                None,
            )
        return ("done", None, expansion.explored + total, None)
    finally:
        if results is not None:
            results.close()


def run_decomposed_search(search, *, split_budget=None, executor=None, context=None):
    """Trunk + deterministic fold execution of a decomposed witness search.

    *search* exposes the trunk/worker protocol of
    :class:`repro.automata.emptiness._WitnessSearch`
    (``run_round_exporting`` / ``expand_item`` / ``run_subtree``, plus
    ``max_length`` / ``max_paths`` / ``stats``).  Each iterative-deepening
    round expands the root in the coordinator, exporting every viable
    depth-1 child as a work item; items resolve via *executor* (when
    bound and usable) or in-process, then fold in canonical order.

    Returns ``(witness steps or None, explored, exhausted, stats)`` —
    identical regardless of where items ran.  The ``max_paths`` horizon
    is enforced by the fold exactly as the sequential search enforces it:
    the first exploration count beyond the cap aborts the search with
    ``explored == max_paths + 1``, and witnesses located beyond the
    horizon are discarded.  This is :func:`run_budgeted_search` under a
    budget that never expires.
    """
    from repro.core.budget import Budget

    return run_budgeted_search(
        search,
        Budget().start(),
        split_budget=split_budget,
        executor=executor,
        context=context,
    )[:4]


def _final_stats(
    search, extra_stats: Dict[str, int], executor=None
) -> Dict[str, int]:
    stats = dict(search.stats)
    _merge_stats(stats, extra_stats)
    counters = getattr(executor, "counters", None)
    if counters:
        _merge_stats(stats, counters)
    return stats


def run_budgeted_search(
    search, clock, *, checkpoint=None, split_budget=None, executor=None, context=None
):
    """Anytime variant of :func:`run_decomposed_search`.

    Runs the same trunk + deterministic fold, but under a started
    :class:`~repro.core.budget.BudgetClock`: the walk stops at the first
    record boundary where the budget is spent (or mid-item, when the
    wall-clock hook fires inside the DFS — that item is abandoned and
    re-run in full on resume).  Returns
    ``(steps, explored, exhausted, stats, checkpoint)`` where a non-None
    *checkpoint* (:class:`repro.automata.emptiness.ChainCheckpoint`)
    means the search was interrupted; pass it back via ``checkpoint=`` —
    on a **fresh** search object built from the same payload — to
    continue exactly where it stopped.  Resume-to-completion is
    field-identical to the uninterrupted run: completed records were
    charged at their boundaries, the interrupted record re-runs in full,
    and a round whose trunk expansion had not finished restarts from its
    beginning (trunk memoization never prunes across rounds, so the
    re-run reproduces the original counts).
    """
    from repro.automata.emptiness import ChainCheckpoint, RoundExpansion
    from repro.core.budget import BudgetExpired

    budget = int(split_budget) if split_budget else subtree_split_budget()
    if executor is not None and context is not None:
        executor.bind(context, budget)
    bound_executor = executor
    if executor is not None and not executor.usable:
        executor = None
    extra_stats: Dict[str, int] = {}
    max_paths = search.max_paths
    base = checkpoint.base_explored if checkpoint is not None else 0
    start_depth = checkpoint.depth_limit if checkpoint is not None else 1

    def _interrupted(depth_limit, pending, total, expansion):
        return (
            None,
            base + total,
            False,
            _final_stats(search, extra_stats, bound_executor),
            ChainCheckpoint(
                depth_limit=depth_limit,
                pending=None if pending is None else tuple(pending),
                round_total=total,
                round_witness_steps=(
                    None if expansion is None else expansion.witness_steps
                ),
                round_witness_at=0 if expansion is None else expansion.witness_at,
                round_explored=0 if expansion is None else expansion.explored,
                base_explored=base,
            ),
        )

    # Only a deadline can interrupt mid-item; node caps are charged at
    # record boundaries.
    if clock.remaining_s() is not None:
        search.interrupt = clock.interrupt_check
    try:
        for depth_limit in range(start_depth, search.max_length + 1):
            expansion = None
            initial_total = 0
            if (
                checkpoint is not None
                and depth_limit == checkpoint.depth_limit
                and checkpoint.pending is not None
            ):
                expansion = RoundExpansion(
                    records=checkpoint.pending,
                    witness_steps=checkpoint.round_witness_steps,
                    witness_at=checkpoint.round_witness_at,
                    explored=checkpoint.round_explored,
                )
                initial_total = checkpoint.round_total
            checkpoint = None
            if expansion is None:
                # ``pending=None`` marks a round whose trunk expansion has
                # not completed; resume re-expands it from the beginning.
                if clock.expired():
                    return _interrupted(depth_limit, None, 0, None)
                try:
                    expansion = search.run_round_exporting(depth_limit)
                except BudgetExpired:
                    return _interrupted(depth_limit, None, 0, None)
            status, steps, count, interrupted = _fold_expansion(
                search,
                expansion,
                budget,
                executor,
                extra_stats,
                max_paths - base,
                clock,
                initial_total,
            )
            if status == "interrupted":
                pending, total = interrupted
                return _interrupted(depth_limit, pending, total, expansion)
            if status == "witness":
                absolute = base + count
                if absolute <= max_paths:
                    return (
                        steps,
                        absolute,
                        False,
                        _final_stats(search, extra_stats, bound_executor),
                        None,
                    )
                return (
                    None,
                    max_paths + 1,
                    False,
                    _final_stats(search, extra_stats, bound_executor),
                    None,
                )
            if status == "aborted" or base + count > max_paths:
                return (
                    None,
                    max_paths + 1,
                    False,
                    _final_stats(search, extra_stats, bound_executor),
                    None,
                )
            clock.charge(expansion.explored)
            base += count
        return (
            None,
            base,
            True,
            _final_stats(search, extra_stats, bound_executor),
            None,
        )
    finally:
        search.interrupt = None
