"""The three request streams and how each request is sent and checked.

A stream is an endless, seeded sequence of :class:`Request` descriptors
(base request from ``universe.json`` + :class:`spec.Variant`).  ``prepare``
turns a descriptor into its input objects and the one public call the
benchmark times; ``verdict`` reduces that call's result to the value
compared with the base request's expected answer.  Building inputs and
checking verdicts happen outside the timed call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import datalog_inputs as D
import spec as S

HERE = Path(__file__).resolve().parent

#: Untimed warm-up (part of set-up): this many base requests of each
#: kind, smallest specs first, sent unrenamed.  It does not depend on the
#: seed, so set-up time does not either.
WARMUP_PER_KIND = {"planner-stream": 50, "verify-search": 1, "datalog-bulk": 1}

#: Share of planner requests that re-submit an earlier request, and the
#: share of those re-submissions whose query variables are renamed.
RESUBMIT_SHARE = 0.5
RENAME_SHARE = 0.5
#: Mean recency (in distinct requests) of a re-submitted request.
RESUBMIT_RECENCY = 40.0


@dataclass(frozen=True)
class Request:
    index: int
    base: int
    variant: S.Variant


def load_universe(path: Path = HERE / "universe.json") -> Dict[str, list]:
    return json.loads(path.read_text())


def universe_key(workload: str) -> str:
    return {"planner-stream": "planner", "verify-search": "verify",
            "datalog-bulk": "datalog"}[workload]


def load_known_defects(path: Path = HERE / "known_defects.json") -> dict:
    return json.loads(path.read_text())


def known_defect_digests(section: str) -> set:
    return {entry["digest"] for entry in load_known_defects()["requests"]
            if entry["section"] == section}


def workload_pool(workload: str, universe: Dict[str, list] = None) -> List[dict]:
    """The base requests a workload sends: its ``universe.json`` section
    without the requests of ``known_defects.json``, which the program is
    known to answer wrongly."""
    universe = universe if universe is not None else load_universe()
    section = universe_key(workload)
    excluded = known_defect_digests(section)
    return [item for item in universe[section] if S.digest(item) not in excluded]


def stream(workload: str, pool: List[dict], seed: int) -> Iterator[Request]:
    rng = random.Random(f"{workload}:{seed}")
    tags = itertools.count(seed * 1_000_000 + 1)
    if workload == "planner-stream":
        yield from _planner_stream(pool, rng, tags)
        return
    # Every request distinct: seeded passes over the whole pool, each
    # request renamed by a fresh tag, so every pass repeats the same mix.
    index = 0
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        for base in order:
            yield Request(index, base, S.Variant(next(tags)))
            index += 1


def _planner_stream(pool, rng, tags):
    # New requests pick a kind uniformly, then an expected answer of that
    # kind uniformly, then a base request with that answer.
    by_answer: Dict[str, Dict[bool, List[int]]] = {}
    for base, item in enumerate(pool):
        by_answer.setdefault(item["kind"], {}).setdefault(item["expected"], []).append(base)
    kinds = sorted(by_answer)
    sent: List[Request] = []
    var_tags = itertools.count(1)
    for index in itertools.count():
        if sent and rng.random() < RESUBMIT_SHARE:
            back = min(len(sent) - 1, int(rng.expovariate(1.0 / RESUBMIT_RECENCY)))
            earlier = sent[-1 - back]
            variant = earlier.variant
            if rng.random() < RENAME_SHARE:
                variant = S.Variant(variant.tag, next(var_tags))
            yield Request(index, earlier.base, variant)
            continue
        answers = by_answer[rng.choice(kinds)]
        base = rng.choice(answers[rng.choice(sorted(answers))])
        request = Request(index, base, S.Variant(next(tags)))
        sent.append(request)
        yield request


def warmup(workload: str, pool: List[dict]) -> List[Request]:
    by_kind: Dict[str, List[int]] = {}
    for base in sorted(range(len(pool)), key=lambda b: (len(json.dumps(pool[b])), b)):
        by_kind.setdefault(pool[base]["kind"], []).append(base)
    per_kind = WARMUP_PER_KIND[workload]
    return [
        Request(-1, base, S.Variant())
        for bases in by_kind.values()
        for base in bases[:per_kind]
    ]


#: Requests per second of ``--seconds``: a run sends a fixed number of
#: requests, about ``--seconds`` worth on a 2-CPU host at the commit that
#: defined the benchmark, so both sides of a comparison send the same
#: requests however fast they are.  ``datalog-bulk`` sends about 2.5x
#: that (five passes over its 25 base requests at 12 s): with three
#: passes its p50 and p90 spread 9-11% over ten runs, with five 6-9%.
REQUESTS_PER_SECOND = {"planner-stream": 1500, "verify-search": 45, "datalog-bulk": 10}


def request_count(workload: str, pool: List[dict], seconds: float) -> int:
    """Requests of a run; the pass-based streams send whole passes over the pool."""
    count = max(1, math.ceil(seconds * REQUESTS_PER_SECOND[workload]))
    if workload == "planner-stream":
        return count
    return math.ceil(count / len(pool)) * len(pool)


def inputs_digest(workload: str, pool: List[dict], seed: int, count: int) -> str:
    """Digest of the base requests and of the first *count* requests of a stream."""
    requests = [
        (r.base, r.variant.tag, r.variant.var_tag)
        for r in itertools.islice(stream(workload, pool, seed), count)
    ]
    return S.digest({"universe": pool, "requests": requests})


# ----------------------------------------------------------------------
# Sending a request
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    kind: str
    call: Callable[[], object]
    verdict: Callable[[object], object]
    expected: object


class Client:
    """Builds each request's inputs and the public call that answers it.

    The planner workload sends every request through one long-lived
    :class:`repro.engine.DecisionEngine` with its default policy.
    """

    def __init__(self, workload: str, pool: List[dict]) -> None:
        from repro.engine import DecisionEngine

        self.workload = workload
        self.pool = pool
        self.engine = DecisionEngine() if workload == "planner-stream" else None
        self.builders = {
            "relevance": self._relevance,
            "containment": self._containment,
            "answerability": self._answerability,
            "sat": self._sat,
            "ltr_emptiness": self._ltr_emptiness,
            "containment_emptiness": self._containment_emptiness,
            "bounded_check": self._bounded_check,
            "ltl_word": self._ltl_word,
            "ctl_check": self._ctl_check,
            "grid_reach": self._bulk,
            "chain_join": self._bulk,
            "acc_part": self._bulk,
        }

    def prepare(self, request: Request) -> Prepared:
        item = self.pool[request.base]
        call, verdict = self.builders[item["kind"]](item, request.variant)
        return Prepared(item["kind"], call, verdict, item["expected"])

    # -- planner-stream ------------------------------------------------
    def _relevance(self, item, v):
        schema = S.access_schema(item["schema"], v)
        probe = S.access(schema, item["access"], v)
        query = S.query(item["query"], v)
        return (lambda: self.engine.relevance(schema, probe, query)), _attr("relevant")

    def _containment(self, item, v):
        schema = S.access_schema(item["schema"], v)
        q1, q2 = S.query(item["query_one"], v), S.query(item["query_two"], v)
        return (lambda: self.engine.containment(schema, q1, q2)), _attr("contained")

    def _answerability(self, item, v):
        schema = S.access_schema(item["schema"], v)
        query = S.query(item["query"], v)
        hidden = S.instance(schema.schema, item["hidden"], v)
        values = S.values(item["initial_values"], v)
        return (lambda: self.engine.answerability(schema, query, hidden, values)), bool

    def _sat(self, item, v):
        from repro.core.vocabulary import AccessVocabulary
        from repro.engine import accltl_sat_task

        schema = S.access_schema(item["schema"], v)
        formula = S.acc_formula(AccessVocabulary.of(schema), item["formula"], v)

        def call():
            task = accltl_sat_task(schema, formula)
            return self.engine.run(task).value

        return call, _sat_verdict

    # -- verify-search -------------------------------------------------
    def _ltr_emptiness(self, item, v):
        from repro.automata.emptiness import automaton_emptiness
        from repro.automata.library import ltr_automaton
        from repro.core.vocabulary import AccessVocabulary

        schema = S.access_schema(item["schema"], v)
        vocabulary = AccessVocabulary.of(schema)
        probe = S.access(schema, item["access"], v)
        query = S.query(item["query"], v)

        # Base requests whose search runs to its cap carry a lower cap.
        limits = {"max_paths": item["max_paths"]} if "max_paths" in item else {}

        def call():
            automaton = ltr_automaton(vocabulary, probe, query)
            return automaton_emptiness(automaton, vocabulary, **limits)

        return call, lambda r: "UNKNOWN" if r.unknown else not r.empty

    def _containment_emptiness(self, item, v):
        from repro.automata.emptiness import automaton_emptiness
        from repro.automata.library import containment_automaton
        from repro.core.vocabulary import AccessVocabulary

        schema = S.access_schema(item["schema"], v)
        vocabulary = AccessVocabulary.of(schema)
        q1, q2 = S.query(item["query_one"], v), S.query(item["query_two"], v)

        def call():
            automaton = containment_automaton(vocabulary, q1, q2, grounded=False)
            return automaton_emptiness(automaton, vocabulary)

        return call, lambda r: "UNKNOWN" if r.unknown else r.empty

    def _bounded_check(self, item, v):
        from repro.core.bounded_check import Bounds, bounded_satisfiability
        from repro.core.vocabulary import AccessVocabulary

        schema = S.access_schema(item["schema"], v)
        vocabulary = AccessVocabulary.of(schema)
        formula = S.acc_formula(vocabulary, item["formula"], v)
        bounds = Bounds(max_path_length=item["length"])

        def verdict(result):
            if result.satisfiable:
                return True
            return False if result.exhausted else "UNKNOWN"

        return (lambda: bounded_satisfiability(vocabulary, formula, bounds)), verdict

    def _ltl_word(self, item, v):
        from repro.ltl.sat import find_satisfying_word
        from repro.ltl.semantics import word_satisfies

        formula = S.ltl_formula(item["formula"], v)
        letters = S.ltl_letters(item["letters"], v)

        def verdict(word):
            if word is None:
                return False
            return True if word_satisfies(word, formula) else "INVALID-WITNESS"

        return (
            lambda: find_satisfying_word(formula, letters=letters, max_length=item["max_length"])
        ), verdict

    def _ctl_check(self, item, v):
        from repro.access.lts import explore
        from repro.branching.ctl import ctl_satisfiable_in_lts
        from repro.core.vocabulary import AccessVocabulary

        schema = S.access_schema(item["schema"], v)
        vocabulary = AccessVocabulary.of(schema)
        hidden = S.instance(schema.schema, item["hidden"], v)
        formula = S.ctl_formula(item["formula"], v)

        def call():
            lts = explore(schema, hidden_instance=hidden, max_depth=item["depth"])
            return ctl_satisfiable_in_lts(vocabulary, lts, formula)

        return call, lambda witness: witness is not None

    # -- datalog-bulk --------------------------------------------------
    def _bulk(self, item, v):
        from repro.access.answerability import is_answerable_exactly
        from repro.datalog.evaluation import evaluate_program, goal_facts
        from repro.queries.evaluation import evaluate_cq
        from repro.store.backend import create_store

        shape = D.build(item, v)
        backend = item["backend"]
        by_relation: Dict[str, list] = {}
        for relation, tup in shape.facts:
            by_relation.setdefault(relation, []).append(tup)
        schema = shape.program.combined_schema() if (
            shape.program is not None and backend == "sqlite"
        ) else shape.schema

        def ingest():
            store = create_store(schema, backend)
            if backend == "sqlite":
                store.add_facts(shape.facts)
            else:
                for relation, tuples in by_relation.items():
                    store.add_all(relation, tuples)
            return store

        def call():
            store = ingest()
            if shape.program is None:
                return evaluate_cq(shape.query, store), None
            answerable = None
            if shape.access_schema is not None:
                answerable = is_answerable_exactly(
                    shape.access_schema, shape.query, store, shape.initial_values
                )
            if backend == "sqlite":
                fixedpoint = evaluate_program(shape.program, store, backend="sqlite")
                goal = fixedpoint.tuples(shape.program.goal)
            else:
                goal = goal_facts(shape.program, store)
            return goal, answerable

        def verdict(result):
            goal, answerable = result
            out = list(S.answer_digest(goal, v))
            return out if answerable is None else out + [answerable]

        return call, verdict


def _attr(name):
    return lambda result: getattr(result, name)


def _sat_verdict(result):
    if result.satisfiable:
        return True
    return False if result.certain else "UNKNOWN"
