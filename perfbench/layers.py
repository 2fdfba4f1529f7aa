"""Spans and counts around the public functions of each ``src/repro`` layer.

Tracing lives entirely in the benchmark: :func:`install` replaces each
listed function with a wrapper that records a span (name, layer, start,
end, parent span, request id) or bumps a count.  The wrapper is put
wherever a caller looks the function up — the defining module, every
``repro`` module that bound it with ``from x import f``, and the class
for methods.  Functions called more than about 10⁴ times per request are
counted, not spanned, so the traced split stays meaningful.

Spans stay in memory (:class:`Recorder`) and are written out when the
run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: ``layer -> [module:qualname]`` of spanned public functions.
SPANNED: Dict[str, List[str]] = {
    "engine": [
        "repro.engine.engine:DecisionEngine.run_batch",
        "repro.engine.engine:DecisionEngine.relevance",
        "repro.engine.engine:DecisionEngine.containment",
        "repro.engine.engine:DecisionEngine.answerability",
        "repro.engine.engine:DecisionEngine.bounded_check",
        "repro.engine.engine:accltl_sat_task",
    ],
    "access": [
        "repro.access.relevance:long_term_relevant_legacy",
        "repro.access.containment_ap:contained_under_access_patterns_legacy",
        "repro.access.containment_ap:grounded_reachable",
        "repro.access.answerability:is_answerable_exactly",
        "repro.access.answerability:is_answerable_exactly_legacy",
        "repro.access.answerability:accessible_part",
        "repro.access.answerability:accessible_part_program",
        "repro.access.lts:explore",
    ],
    "queries": [
        "repro.queries.evaluation:evaluate_cq",
        "repro.queries.evaluation:evaluate_ucq",
        "repro.queries.plan_cache:compile_plan",
        "repro.queries.containment:ucq_contained_in",
    ],
    "automata": [
        "repro.automata.emptiness:automaton_emptiness",
        "repro.automata.emptiness:check_restriction",
        "repro.automata.emptiness:datalog_emptiness_precheck",
        "repro.automata.library:ltr_automaton",
        "repro.automata.library:containment_automaton",
        "repro.automata.compile:compile_accltl_plus",
    ],
    "core": [
        "repro.core.bounded_check:bounded_satisfiability",
        "repro.core.bounded_check:bounded_satisfiability_legacy",
        "repro.core.solver:AccLTLSolver.satisfiable_legacy",
        "repro.core.sat_zeroary:zeroary_satisfiable",
    ],
    "store": [
        "repro.store.backend:create_store",
        "repro.store.snapshot:SnapshotInstance.add_all",
        "repro.store.sqlstore:SQLStoreInstance.add_facts",
        "repro.store.verdict_cache:VerdictCache.lookup",
        "repro.store.verdict_cache:VerdictCache.put",
    ],
    "datalog": [
        "repro.datalog.evaluation:evaluate_program",
        "repro.datalog.evaluation:goal_facts",
    ],
    "ltl": [
        "repro.ltl.sat:find_satisfying_word",
        "repro.ltl.sat:find_satisfying_word_legacy",
    ],
    "branching": [
        "repro.branching.ctl:ctl_satisfiable_in_lts",
        "repro.branching.ctl:ctl_satisfiable_in_lts_legacy",
    ],
}

#: ``count name -> [module:qualname]`` of counted (high-frequency) functions.
COUNTED: Dict[str, List[str]] = {
    "core.satisfies_at_calls": ["repro.core.semantics:satisfies_at"],
    "relational.scratch_ops": [
        "repro.relational.instance:Instance.add_unchecked",
        "repro.relational.instance:Instance.discard",
    ],
    "store.snapshot_ops": [
        "repro.store.snapshot:SnapshotInstance.snapshot",
        "repro.store.snapshot:SnapshotInstance.restore",
        "repro.store.snapshot:SnapshotInstance.fingerprint",
        "repro.store.sqlstore:SQLStoreInstance.snapshot",
        "repro.store.sqlstore:SQLStoreInstance.restore",
        "repro.store.sqlstore:SQLStoreInstance.fingerprint",
    ],
}

LAYERS = tuple(SPANNED) + ("relational",)

#: One span: (id, parent id or 0, name, layer, start, end, request id).
Span = Tuple[int, int, str, str, float, float, int]


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: List[int] = []
        self._next = 1

    def span(self, name: str, layer: str, fn: Callable, on_result=None) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.request < 0:  # outside a request: building inputs, checking verdicts
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, start, end, self.request))
            if on_result is not None:
                on_result(self, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.request >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_request(self, index: int, call: Callable[[], object]):
        """Run one request under a root ``request`` span; returns (result, wall)."""
        self.request = index
        root = self.span("request", "bench", call)
        start = time.perf_counter()
        try:
            result = root()
        finally:
            self.request = -1
        return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Result hooks: counts read off return values at the layer boundary
# ----------------------------------------------------------------------
def _emptiness_result(recorder: Recorder, result, args) -> None:
    recorder.counts["automata.paths_explored"] += result.paths_explored
    stats = result.stats or {}
    recorder.counts["automata.sentence_cache_hits"] += stats.get("sentence_cache_hits", 0)
    recorder.counts["automata.sentence_cache_misses"] += stats.get("sentence_cache_misses", 0)


def _bounded_result(recorder: Recorder, result, args) -> None:
    recorder.counts["core.bounded_paths_explored"] += result.paths_explored


def _ingest_rows(recorder: Recorder, result, args) -> None:
    recorder.counts["store.ingest_rows"] += result  # add_facts returns #new rows


def _derived_facts(recorder: Recorder, result, args) -> None:
    program = args[0]
    recorder.counts["datalog.derived_facts"] += sum(
        result.relation_count(name) for name in program.idb_names
    )


HOOKS = {
    "repro.automata.emptiness:automaton_emptiness": _emptiness_result,
    "repro.core.bounded_check:bounded_satisfiability_legacy": _bounded_result,
    "repro.store.sqlstore:SQLStoreInstance.add_facts": _ingest_rows,
    "repro.datalog.evaluation:evaluate_program": _derived_facts,
}


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _patch(target: str, make: Callable[[Callable], Callable]) -> None:
    module, owner, name = _resolve(target)
    raw = owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)
    original = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if inspect.isgeneratorfunction(original):
        raise ValueError(f"{target} is a generator function; span its caller instead")
    wrapper = make(original)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(wrapper))
    elif isinstance(raw, classmethod):
        setattr(owner, name, classmethod(wrapper))
    else:
        setattr(owner, name, wrapper)
    if owner is not module:
        return
    # ``from x import f`` binds early: re-point every importer's name too.
    for other in list(sys.modules.values()):
        other_name = getattr(other, "__name__", "") or ""
        if other_name.startswith("repro") and getattr(other, name, None) is original:
            setattr(other, name, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every listed function; call once, after the workload's imports."""
    for layer, targets in SPANNED.items():
        for target in targets:
            name = target.split(":")[1]
            hook = HOOKS.get(target)
            _patch(target, lambda fn, n=name, l=layer, h=hook: recorder.span(n, l, fn, h))
    for key, targets in COUNTED.items():
        for target in targets:
            _patch(target, lambda fn, k=key: recorder.count(k, fn))

    def count_add_all(fn):
        def wrapper(self, relation_name, tuples):
            tuples = list(tuples)
            if recorder.request >= 0:
                recorder.counts["store.ingest_rows"] += len(tuples)
            return fn(self, relation_name, tuples)

        return wrapper

    from repro.store.snapshot import SnapshotInstance

    SnapshotInstance.add_all = count_add_all(SnapshotInstance.add_all)


# ----------------------------------------------------------------------
# Reducing spans
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[int, float] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _, _, _, start, end, _ in spans
    }


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``self_s`` and ``share`` of the requests' wall time."""
    selfs = self_times(spans)
    wall = sum(end - start for _, _, name, layer, start, end, _ in spans if layer == "bench")
    table: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + ("bench",)
    }
    for sid, _, _, layer, _, _, _ in spans:
        row = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[sid]
    table["bench"]["calls"] = sum(1 for s in spans if s[3] == "bench")
    for row in table.values():
        row["share"] = row["self_s"] / wall if wall else 0.0
    return table

