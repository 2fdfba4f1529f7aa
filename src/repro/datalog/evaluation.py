"""Bottom-up evaluation of Datalog programs.

We provide naive and semi-naive fixedpoint evaluation.  Semi-naive is the
default, and the delta restriction is **compiled into the join plans**:
for a rule with k body atoms, round n executes (up to) k delta-variant
plans (:func:`repro.queries.evaluation.satisfying_assignments_delta`),
the i-th binding body atom i to the facts derived in round n-1, atoms
before i to the previous generation and atoms after i to the full state —
the classic delta-rule rewrite, so no derivation is ever re-joined over
the whole instance and then discarded post hoc.  Naive evaluation
(``semi_naive=False``) re-derives everything each round and serves as the
oracle the property tests compare against.  Both produce the least
fixedpoint ``P(D)`` of the program on a database ``D`` (the notation of
the paper, Section 4.1), round by identical round.

The fixedpoint state lives on the persistent fact store by default
(:class:`~repro.store.snapshot.SnapshotInstance`): per-round snapshots
are O(#relations), the previous-generation side of the delta plans is a
shared :meth:`~repro.store.snapshot.Snapshot.view` of the round's
snapshot (warm indexes included), and ``generation_log`` provenance is a
by-product rather than a separate mode.  Writes are batched: a database
that is itself a ``SnapshotInstance`` seeds the state by **sharing its
immutable shards** (O(#relations), nothing copied, the caller's store
untouched), any other database seeds with one commit per relation
(validated only where its signature differs from the program's
declaration), and every round commits its new facts with one validated
commit per relation (:meth:`~repro.store.snapshot.SnapshotInstance.
add_all`) instead of one insert per fact.  ``store_backed=False`` keeps
the dict-backed :class:`~repro.relational.instance.Instance` as the
oracle backend (the old-generation side then lags one round behind in a
second plain instance).

Rule bodies are evaluated through the compiled join engine
(:mod:`repro.queries.plan_cache`); the body query of each rule is built
once and cached, so a fixedpoint that re-fires the same rules round after
round compiles each rule (and each of its delta variants) exactly once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.datalog.program import DatalogProgram, Rule
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import (
    satisfying_assignments,
    satisfying_assignments_delta,
)
from repro.queries.plan_cache import get_plan
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.store import backend as _backend
from repro.store.snapshot import Snapshot, SnapshotInstance
from repro.store.sqlstore import SQLStoreInstance

Fact = Tuple[str, Tuple[object, ...]]


class FixedpointTruncated(RuntimeError):
    """``evaluate_program(max_rounds=...)`` ran out of rounds unconverged.

    A truncated run is *not* the least fixedpoint, and silently returning
    it makes truncation indistinguishable from convergence — ``accepts``
    or ``goal_facts`` built on it could report wrong verdicts.  The
    exception carries the partial state for callers that want it; pass
    ``allow_truncation=True`` to opt into receiving the truncated state
    as a return value instead.

    Note the semantics: the error means convergence was **not verified**
    within the budget (the last executed round still derived new facts),
    not necessarily that further rounds would derive more.
    """

    def __init__(self, rounds: int, state: Union[Instance, SnapshotInstance]) -> None:
        super().__init__(
            f"Datalog fixedpoint not reached within max_rounds={rounds}; "
            "pass allow_truncation=True to accept the partial result"
        )
        self.rounds = rounds
        self.state = state


# Per-rule body queries, keyed by rule identity with LRU eviction (the
# same idiom as the plan cache).  Rules are frozen dataclasses owned by
# their program; keeping the rule in the value pins it so the identity key
# cannot be recycled while the entry lives.
_BODY_QUERY_CACHE: "OrderedDict[int, Tuple[Rule, ConjunctiveQuery]]" = OrderedDict()
_BODY_QUERY_CACHE_MAX = 4096


def _body_query(rule: Rule) -> ConjunctiveQuery:
    cached = _BODY_QUERY_CACHE.get(id(rule))
    if cached is not None and cached[0] is rule:
        _BODY_QUERY_CACHE.move_to_end(id(rule))
        return cached[1]
    query = ConjunctiveQuery(
        atoms=rule.body,
        head=(),
        equalities=rule.equalities,
        inequalities=rule.inequalities,
    )
    _BODY_QUERY_CACHE[id(rule)] = (rule, query)
    if len(_BODY_QUERY_CACHE) > _BODY_QUERY_CACHE_MAX:
        _BODY_QUERY_CACHE.popitem(last=False)
    return query


def _head_fact(rule: Rule, assignment: Dict[Variable, object]) -> Fact:
    head_values = []
    for term in rule.head.terms:
        if isinstance(term, Constant):
            head_values.append(term.value)
        else:
            head_values.append(assignment[term])
    return (rule.head.relation, tuple(head_values))


def _rule_derivations(rule: Rule, instance) -> Set[Fact]:
    """Head facts derivable by *rule* from *instance* (the full join)."""
    derived: Set[Fact] = set()
    body_query = _body_query(rule)
    for assignment in satisfying_assignments(body_query, instance):
        derived.add(_head_fact(rule, assignment))
    return derived


def _rule_delta_derivations(
    rule: Rule,
    state,
    old,
    delta: Dict[str, Set[Tuple[object, ...]]],
) -> Set[Fact]:
    """Head facts of *rule* whose body uses at least one delta fact.

    One compiled delta-variant plan per body position whose relation has
    delta facts this round; positions over delta-free relations are
    skipped outright (their variants cannot match).  The variants
    partition the delta-using derivations by the first delta-bound
    position, so together they derive exactly the facts the semi-naive
    restriction asks for — no full re-join, no post-hoc filtering.
    """
    derived: Set[Fact] = set()
    body_query = _body_query(rule)
    for position, atom in enumerate(rule.body):
        if not delta.get(atom.relation):
            continue
        for assignment in satisfying_assignments_delta(
            body_query, state, old, delta, position
        ):
            derived.add(_head_fact(rule, assignment))
    return derived


def _rule_supports_delta(rule: Rule) -> bool:
    """Whether *rule* has compiled delta variants.

    Empty-body rules have no delta-bound position, and bodies the slot
    compiler cannot cover (comparison variables occurring in no
    relational atom) have no delta plans; both evaluate via the full join
    each round instead — always sound, merely re-deriving.
    """
    return bool(rule.body) and not get_plan(_body_query(rule)).fallback


def evaluate_program(
    program: DatalogProgram,
    database: Instance,
    max_rounds: Optional[int] = None,
    semi_naive: bool = True,
    generation_log: Optional[List[Snapshot]] = None,
    store_backed: Optional[bool] = None,
    allow_truncation: bool = False,
    backend: Optional[str] = None,
) -> Union[Instance, SnapshotInstance]:
    """Compute the least fixedpoint ``P(D)`` of *program* on *database*.

    The result is an instance over the combined (EDB ∪ IDB) schema that
    contains the database facts plus every derivable IDB fact.  It is a
    :class:`~repro.store.snapshot.SnapshotInstance` by default
    (*store_backed* ``None``/``True``); ``store_backed=False`` runs on
    the dict-backed :class:`~repro.relational.instance.Instance` — the
    oracle backend the property tests compare against.

    *backend* picks the store backend for the fixedpoint state
    (``"memory"``/``"sqlite"``; ``None`` defers to the
    ``REPRO_STORE_BACKEND`` knob).  On the ``memory`` backend, when
    *database* is a :class:`~repro.store.snapshot.SnapshotInstance` whose
    non-empty relations are declared exactly as in the combined schema,
    the state starts out **sharing the database's shards** (warm indexes
    included) in O(#relations): the non-destructive twin of the SQLite
    in-place path below — *database* is never modified, and the result's
    EDB shards are the database's own objects.  Any other database is
    copied with one commit per relation (validated only where its
    signature differs from the declaration), and each round adds
    its new facts with one validated commit per relation that has any.
    On the ``sqlite`` backend, per-round
    snapshots are MVCC generation tokens and large rule joins push down
    as SQL (see :mod:`repro.store.sqlstore`) — the bigger-than-RAM path.
    As a special case, when *database* is itself an SQLite-backed store
    over the combined schema, the fixedpoint is computed **in place**
    (IDB facts are added to the given store and the same object is
    returned) instead of re-ingesting millions of facts into a copy.

    When *generation_log* is given, one O(1)
    :class:`~repro.store.snapshot.Snapshot` per generation (the seeded
    database, then the state after every round) is appended to the list —
    per-round provenance that deep copies would make O(n·rounds).  The
    snapshots share structure with each other and with the returned
    instance; this requires the store backend.

    When *max_rounds* is exhausted before a round derives nothing new,
    the run is **truncated**, not converged, and
    :class:`FixedpointTruncated` is raised (carrying the partial state);
    pass ``allow_truncation=True`` to receive the truncated state as the
    return value instead.
    """
    if store_backed is None:
        store_backed = True
    if generation_log is not None and not store_backed:
        raise ValueError("generation_log requires the store backend")
    if backend is not None and not store_backed:
        raise ValueError("backend selection requires the store backend")
    combined = program.combined_schema()
    # Empty relations contribute nothing; in particular a database over a
    # wider vocabulary than the program's EDB is fine as long as the extra
    # relations hold no facts (the convention used by query evaluation
    # throughout the package).
    seed = []
    for name in database.relation_names():
        tuples = database.tuples_view(name)
        if tuples:
            seed.append((name, tuples))
    # Facts skip re-validation only when the database's relation signature
    # matches the program's declaration; otherwise they go through the
    # validating path so a mismatched database fails with a SchemaError at
    # this boundary, not deep inside the join engine.
    compatible = {
        name: name in combined
        and combined.relation(name) == database.schema.relation(name)
        for name, _ in seed
    }
    adopted = False
    if not store_backed:
        state = Instance(combined)
    elif _backend.resolve_backend(backend) == _backend.SQLITE_BACKEND:
        if isinstance(database, SQLStoreInstance) and database.schema == combined:
            state = database  # in place: the bigger-than-RAM path
            adopted = True
        else:
            state = SQLStoreInstance(combined)
    else:
        state = SnapshotInstance(combined)
    # ``old`` is the previous-generation side of the delta plans: on the
    # store it is a shared view of the last pre-round snapshot; on the
    # dict backend it is a second instance lagging exactly one delta
    # behind (each fact is added to it once, O(n) over the whole run).
    old: Union[Instance, SnapshotInstance]
    if store_backed:
        old = state.snapshot().view()  # the pre-seed generation
    else:
        old = Instance(combined)
    # ``delta`` holds each round's new facts per relation; the first
    # round's delta is the whole database.
    delta: Dict[str, AbstractSet[Tuple[object, ...]]] = {}
    if adopted:
        # The database *is* the state; seed only the round-1 delta.
        delta = {name: set(tuples) for name, tuples in seed}
    elif isinstance(state, SnapshotInstance):
        if isinstance(database, SnapshotInstance) and all(compatible.values()):
            # Share the database's immutable shards (warm indexes
            # included) in O(#relations): the non-destructive twin of the
            # in-place SQLite path, leaving the caller's store untouched.
            state = database.with_schema(combined)
        else:
            for name, tuples in seed:
                if compatible[name]:
                    state._commit(name, tuples)
                else:
                    state.add_all(name, tuples)
        delta = dict(seed)
    else:
        for name, tuples in seed:
            bucket = delta[name] = set()
            for tup in tuples:
                if compatible[name]:
                    state.add_unchecked(name, tup)
                else:
                    tup = state.add(name, tup)
                bucket.add(tup)
    if generation_log is not None:
        generation_log.append(state.snapshot())
    rounds = 0
    converged = False
    fixedpoint_span = _trace.begin(
        "datalog.fixedpoint", rules=len(program.rules), semi_naive=semi_naive
    )
    try:
        while True:
            if max_rounds is not None and rounds >= max_rounds:
                break
            rounds += 1
            new_facts: Dict[str, Set[Tuple[object, ...]]] = {}
            for rule in program.rules:
                if semi_naive and _rule_supports_delta(rule):
                    derivations = _rule_delta_derivations(rule, state, old, delta)
                else:
                    derivations = _rule_derivations(rule, state)
                for fact in derivations:
                    if fact not in state:
                        new_facts.setdefault(fact[0], set()).add(fact[1])
            _trace.event(
                "datalog.round",
                round=rounds,
                new_facts=sum(len(tuples) for tuples in new_facts.values()),
            )
            if not new_facts:
                converged = True
                break
            if semi_naive:
                # Advance the previous-generation side before mutating the
                # state (naive mode reads neither ``old`` nor ``delta``).
                if store_backed:
                    old = state.snapshot().view()
                else:
                    for name, bucket in delta.items():
                        for tup in bucket:
                            old.add_unchecked(name, tup)
            for name, tuples in new_facts.items():
                state.add_all(name, tuples)
            if generation_log is not None:
                generation_log.append(state.snapshot())
            delta = new_facts
    finally:
        _trace.end(fixedpoint_span, rounds=rounds, converged=converged)
    _metrics.counter("datalog.fixedpoint_runs")
    _metrics.counter("datalog.fixedpoint_rounds", rounds)
    if not converged:
        _metrics.counter("datalog.fixedpoint_truncated")
        if not allow_truncation:
            raise FixedpointTruncated(rounds, state)
    return state


def fixedpoint_generations(
    program: DatalogProgram,
    database: Instance,
    max_rounds: Optional[int] = None,
    semi_naive: bool = True,
    allow_truncation: bool = False,
) -> List[Snapshot]:
    """The per-round snapshots ``D = G0 ⊆ G1 ⊆ ... ⊆ P(D)`` of the fixedpoint.

    Convenience wrapper around ``evaluate_program(generation_log=...)``:
    returns the generation chain alone.  The last snapshot is the least
    fixedpoint (unless ``allow_truncation=True`` swallowed a truncated
    run); all snapshots share structure.
    """
    log: List[Snapshot] = []
    evaluate_program(
        program,
        database,
        max_rounds=max_rounds,
        semi_naive=semi_naive,
        generation_log=log,
        allow_truncation=allow_truncation,
    )
    return log


def goal_facts(program: DatalogProgram, database: Instance) -> FrozenSet[Tuple[object, ...]]:
    """The tuples of the goal predicate in the least fixedpoint."""
    fixedpoint = evaluate_program(program, database)
    return fixedpoint.tuples(program.goal)


def accepts(program: DatalogProgram, database: Instance) -> bool:
    """Whether the program accepts the database (goal predicate non-empty).

    This is the acceptance notion of Section 4.1 of the paper.
    """
    return bool(goal_facts(program, database))
