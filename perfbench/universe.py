"""Generate ``universe.json``: the benchmark's base requests and their expected answers.

Every request the benchmark sends is a renamed variant (``spec.Variant``)
of one base request listed here.  The expected answer of each base
request is computed by a frozen oracle path, never by the code the
benchmark times:

* answerability — the accessible-part Datalog program evaluated by the
  naive dict-backed fixedpoint (``semi_naive=False, store_backed=False``)
  and the query answered with ``naive_satisfying_assignments``;
* relevance, AP-containment, AccLTL satisfiability, emptiness and bounded
  checks — the bounded brute-force checker
  (``bounded_satisfiability_legacy``) run directly with its own bounds.
  A witness decides a request.  An exhausted search decides only the
  bounded question itself (bounded checks); for relevance, containment
  and satisfiability it is not a proof (see ``_bounded``).  Base requests
  the oracle does not decide are left out of the universe;
* negative relevance, containment, satisfiability and emptiness requests
  — decided by construction: a boolean probe on a relation the query
  does not mention is not relevant, a query is contained in a query made
  of a subset of its atoms, ``G not p and F p`` is unsatisfiable.  The
  bounded oracle still runs on them and must not contradict the
  construction.  Each base request records its ``basis``;
* LTL word search — enumeration of every word up to the length bound,
  each checked with the reference finite-word semantics;
* CTL_EX checks — the reference transition semantics ``ctl_satisfies``
  evaluated at every transition of the explored fragment;
* Datalog bulk requests — the naive dict-backed fixedpoint and
  ``naive_satisfying_assignments``, recorded as answer count and digest.

Run from the repository root (about 20 minutes on a 2-CPU host; the
committed file is the result)::

    python3 perfbench/universe.py [--only planner|verify|datalog]
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spec as S  # noqa: E402

#: Seeds of the base universe.  The benchmark's ``--seed`` never reaches
#: these: it selects, orders and renames base requests (see workloads.py).
PLANNER_SEED = 4101
VERIFY_SEED = 4202
DATALOG_SEED = 4303

#: Path cap of the bounded brute-force oracle (``_bounded``).
ORACLE_PATHS = 20000
#: Size limit of verify-search emptiness requests (see ``_within_size``).
MAX_EXPLORED_PATHS = 10000
#: Planner base-request groups (one schema each) and seeded synthetic
#: verify-search scenarios.  Changing either changes the universe.
PLANNER_GROUPS = 160
SYNTHETIC_SCENARIOS = 24
#: Path cap of the emptiness search for blind probes.  Their automaton is
#: empty, so the search runs to its cap; at the production cap (40000)
#: that takes seconds, at this one about 0.1 s.
BLIND_SEARCH_PATHS = 500
#: Synthetic scenarios that also get CTL_EX checks.
CTL_SCENARIOS = 6
#: Probe accesses tried per synthetic scenario (each with both queries).
PROBES = 4


def _bounded(vocabulary, formula, length, grounded_only=False, positive_only=False):
    """Bounded brute-force oracle: True/False where it decides, else None.

    A witness is always a decision.  An exhausted search decides the
    bounded question itself, but not the unbounded property: the checker's
    fact pool holds the canonical image of each sentence only, so a
    witness that needs variables identified with each other or with a
    constant can lie outside it.  Callers asking about the unbounded
    property pass ``positive_only``.
    """
    from repro.core.bounded_check import Bounds, bounded_satisfiability_legacy

    result = bounded_satisfiability_legacy(
        vocabulary,
        formula,
        Bounds(max_path_length=length, max_paths=ORACLE_PATHS),
        grounded_only=grounded_only,
    )
    if result.satisfiable:
        return True
    return False if result.exhausted and not positive_only else None


def _vocabulary(schema):
    from repro.core.vocabulary import AccessVocabulary

    return AccessVocabulary.of(schema)


def _boolean_cq(generator, schema, atoms, variables):
    return generator.conjunctive_query(
        schema, num_atoms=atoms, num_variables=variables, num_head_variables=0
    )


# ----------------------------------------------------------------------
# Oracles over specs (each builds its own objects from the spec)
# ----------------------------------------------------------------------
def oracle_relevance(item):
    from repro.core import properties

    schema = S.access_schema(item["schema"], S.Variant())
    vocabulary = _vocabulary(schema)
    probe = S.access(schema, item["access"], S.Variant())
    query = S.query(item["query"], S.Variant())
    formula = properties.ltr_formula(vocabulary, probe, query)
    return _bounded(vocabulary, formula, 3, positive_only=True)


def oracle_containment(item):
    from repro.core import properties

    schema = S.access_schema(item["schema"], S.Variant())
    vocabulary = _vocabulary(schema)
    q1 = S.query(item["query_one"], S.Variant())
    q2 = S.query(item["query_two"], S.Variant())
    formula = properties.containment_counterexample_formula(vocabulary, q1, q2)
    found = _bounded(vocabulary, formula, 3, grounded_only=True, positive_only=True)
    return None if found is None else not found


def oracle_answerability(item):
    from repro.access.answerability import ACCESSIBLE_PREFIX, accessible_part_program
    from repro.datalog.evaluation import evaluate_program
    from repro.queries.evaluation import naive_satisfying_assignments

    schema = S.access_schema(item["schema"], S.Variant())
    query = S.query(item["query"], S.Variant())
    hidden = S.instance(schema.schema, item["hidden"], S.Variant())
    program = accessible_part_program(schema, query)
    database = S.instance(program.edb_schema, item["hidden"], S.Variant())
    for value in item["initial_values"]:
        database.add("Init", (value,))
    fixedpoint = evaluate_program(program, database, semi_naive=False, store_backed=False)
    accessible = S.instance(schema.schema, {}, S.Variant())
    for relation in schema.schema:
        for tup in fixedpoint.tuples_view(ACCESSIBLE_PREFIX + relation.name):
            accessible.add(relation.name, tup)

    def answers(inst):
        return {
            tuple(assignment[v] for v in query.head)
            for assignment in naive_satisfying_assignments(query, inst)
        }

    return answers(accessible) == answers(hidden)


def oracle_sat(item):
    schema = S.access_schema(item["schema"], S.Variant())
    vocabulary = _vocabulary(schema)
    formula = S.acc_formula(vocabulary, item["formula"], S.Variant())
    return _bounded(vocabulary, formula, 4, positive_only=True)


def oracle_ltl(item):
    from repro.ltl.semantics import word_satisfies

    formula = S.ltl_formula(item["formula"], S.Variant())
    letters = S.ltl_letters(item["letters"], S.Variant())
    for length in range(1, item["max_length"] + 1):
        for word in itertools.product(letters, repeat=length):
            if word_satisfies(list(word), formula):
                return True
    return False


def oracle_ctl(item):
    from repro.access.lts import explore
    from repro.branching.ctl import ctl_satisfies

    schema = S.access_schema(item["schema"], S.Variant())
    vocabulary = _vocabulary(schema)
    hidden = S.instance(schema.schema, item["hidden"], S.Variant())
    lts = explore(schema, hidden_instance=hidden, max_depth=item["depth"])
    formula = S.ctl_formula(item["formula"], S.Variant())
    return any(ctl_satisfies(vocabulary, lts, t, formula) for t in lts.transitions)


def oracle_ltr_emptiness(item):
    return oracle_relevance(item)


def oracle_containment_emptiness(item):
    return oracle_containment(item)


def oracle_bounded(item):
    schema = S.access_schema(item["schema"], S.Variant())
    vocabulary = _vocabulary(schema)
    formula = S.acc_formula(vocabulary, item["formula"], S.Variant())
    return _bounded(vocabulary, formula, item["length"])


ORACLES = {
    "relevance": oracle_relevance,
    "containment": oracle_containment,
    "answerability": oracle_answerability,
    "sat": oracle_sat,
    "ltl_word": oracle_ltl,
    "ctl_check": oracle_ctl,
    "ltr_emptiness": oracle_ltr_emptiness,
    "containment_emptiness": oracle_containment_emptiness,
    "bounded_check": oracle_bounded,
}


# ----------------------------------------------------------------------
# Base request generation
# ----------------------------------------------------------------------
def _sat_formulas(schema_spec, rng):
    """Short 0-ary AccLTL formulas: access order, guarded revelation, next-step."""
    methods = [m[0] for m in schema_spec["methods"]]
    a, b = rng.sample(methods, 2)
    name, arity, _ = schema_spec["relations"][rng.randrange(len(schema_spec["relations"]))]
    nonempty = {"atoms": [[name, [f"?y{i}" for i in range(arity)]]], "head": []}
    return [
        ["and", ["or", ["G", ["not", ["bind0", a]]], ["U", ["not", ["bind0", a]], ["bind0", b]]],
         ["F", ["post", nonempty]]],
        ["and", ["G", ["not", ["bind0", a]]], ["F", ["post", nonempty]]],
        ["F", ["and", ["bind0", a], ["X", ["post", nonempty]]]],
    ]


def planner_items(count):
    from repro.workloads.generators import WorkloadGenerator

    generator = WorkloadGenerator(seed=PLANNER_SEED)
    rng = random.Random(PLANNER_SEED)
    items = []
    for group in range(count):
        schema = generator.access_schema(
            num_relations=rng.choice((2, 3)),
            methods_per_relation=1,
            max_inputs=1,
            input_free_probability=0.3,
            min_arity=1,
            max_arity=2,
        )
        hidden = generator.instance(schema.schema, tuples_per_relation=12, domain_size=6)
        first = list(schema.schema)[0]
        schema.add("Probe", first.name, tuple(range(first.arity)))
        sspec = S.schema_spec(schema)
        probe_tuple = min(hidden.tuples(first.name), key=repr)
        relevance_query = _boolean_cq(generator, schema.schema, 2, 3)
        q1 = _boolean_cq(generator, schema.schema, 2, 3)
        q2 = _boolean_cq(generator, schema.schema, 1, 2)
        answer_query = generator.conjunctive_query(
            schema.schema, num_atoms=2, num_variables=3, num_head_variables=1
        )
        items.append({"kind": "relevance", "group": group, "schema": sspec,
                      "access": ["Probe", list(probe_tuple)],
                      "query": S.query_spec(relevance_query)})
        items.append({"kind": "containment", "group": group, "schema": sspec,
                      "query_one": S.query_spec(q1), "query_two": S.query_spec(q2)})
        items.append({"kind": "answerability", "group": group, "schema": sspec,
                      "query": S.query_spec(answer_query),
                      "hidden": S.instance_spec(hidden), "initial_values": ["v0"]})
        formulas = _sat_formulas(sspec, rng)
        items.append({"kind": "sat", "group": group, "schema": sspec,
                      "formula": formulas[group % len(formulas)]})
        # Negative requests, decided by construction (they use no randomness,
        # so the requests above do not depend on them).
        hidden_spec = S.instance_spec(hidden)
        queries = [S.query_spec(relevance_query), S.query_spec(q2)]
        blind = _blind_probe(sspec, hidden_spec, queries)
        if blind is not None:
            bschema, probe, query = blind
            items.append({"kind": "relevance", "group": group, "schema": bschema,
                          "access": probe, "query": query, "by_construction": False})
        contained_one, contained_two = _contained_pair(S.query_spec(q1))
        items.append({"kind": "containment", "group": group, "schema": sspec,
                      "query_one": contained_one, "query_two": contained_two,
                      "by_construction": True})
        items.append({"kind": "sat", "group": group, "schema": sspec,
                      "formula": _unsat_formula(sspec), "by_construction": False})
    return items


# ----------------------------------------------------------------------
# Negative requests: answers that hold by construction
# ----------------------------------------------------------------------
def _blind_probe(schema_spec, hidden_spec, queries):
    """A boolean probe on a relation that one of *queries* does not mention.

    Returns ``(schema, access, query)``, the schema with the probe method
    added, or None.  The probe's response adds facts of that relation only,
    so ``Q^pre`` and ``Q^post`` agree on every transition that performs it:
    the LTR formula ``F(not Q^pre and IsBind(probe) and Q^post)`` is
    unsatisfiable and the probe is not long-term relevant.
    """
    for query in queries:
        mentioned = {relation for relation, _ in query["atoms"]}
        for name, arity, _ in schema_spec["relations"]:
            if name in mentioned or not hidden_spec.get(name):
                continue
            method = ["Blind", name, list(range(arity)), False]
            schema = dict(schema_spec, methods=schema_spec["methods"] + [method])
            return schema, ["Blind", hidden_spec[name][0]], query
    return None


def _contained_pair(query):
    """``(Q1, Q2)`` with the atoms of Q2 a subset of those of Q1 and the same
    head, so the identity maps Q2 into Q1 and Q1 is contained in Q2 on every
    instance, under access patterns too."""
    head = {t for t in query["head"] if isinstance(t, str) and t.startswith("?")}
    for atom in reversed(query["atoms"]):
        if head <= set(atom[1]):
            return query, {"atoms": [atom], "head": query["head"]}
    return query, {"atoms": list(reversed(query["atoms"])), "head": query["head"]}


def _unsat_formula(schema_spec):
    """``G not IsBind0(m) and F IsBind0(m)``: unsatisfiable."""
    method = schema_spec["methods"][0][0]
    return ["and", ["G", ["not", ["bind0", method]]], ["F", ["bind0", method]]]


def _too_long_formula(schema_spec, length):
    """A method bound at *length* + 1 consecutive positions: no path of at
    most *length* transitions satisfies it, so the bounded check, once its
    search is exhausted, answers False."""
    method = ["bind0", schema_spec["methods"][0][0]]
    formula = method
    for _ in range(length):
        formula = ["and", method, ["X", formula]]
    return ["F", formula]


def _scenario_spec(scenario):
    return {
        "schema": S.schema_spec(scenario.access_schema),
        "probes": [[scenario.probe_access.method.name, list(scenario.probe_access.binding)]],
        "query_one": S.query_spec(scenario.query_one),
        "query_two": S.query_spec(scenario.query_two),
        "hidden": S.instance_spec(scenario.hidden_instance),
    }


def _synthetic_scenarios(count):
    """Seeded synthetic scenarios in the shape of ``standard_scenarios``."""
    from repro.workloads.generators import WorkloadGenerator

    result = []
    for index in range(count):
        generator = WorkloadGenerator(seed=VERIFY_SEED + index)
        schema = generator.access_schema(
            num_relations=2 + index % 2, methods_per_relation=1, max_inputs=1,
            input_free_probability=0.34,
        )
        hidden = generator.instance(schema.schema, tuples_per_relation=4, domain_size=6)
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=3)
        first = list(schema.schema)[0]
        schema.add("Probe", first.name, tuple(range(first.arity)))
        probes = sorted(hidden.tuples(first.name), key=repr)[:PROBES]
        result.append({
            "name": f"synthetic-{index}",
            "schema": S.schema_spec(schema),
            "probes": [["Probe", list(probe)] for probe in probes],
            "query_one": S.query_spec(q1),
            "query_two": S.query_spec(q2),
            "hidden": S.instance_spec(hidden),
        })
    return result


def verify_items(synthetic_count):
    from repro.workloads.scenarios import standard_scenarios

    scenarios = [
        dict(_scenario_spec(s), name=s.name)
        for s in standard_scenarios()
        if s.name.startswith("directory")
    ]
    scenarios += _synthetic_scenarios(synthetic_count)
    rng = random.Random(VERIFY_SEED)
    items = []
    for sc in scenarios:
        base = {"scenario": sc["name"], "schema": sc["schema"]}
        for probe in sc["probes"]:
            for query in (sc["query_one"], sc["query_two"]):
                items.append(dict(base, kind="ltr_emptiness", access=probe, query=query))
        for q1, q2 in ((sc["query_one"], sc["query_two"]), (sc["query_two"], sc["query_one"])):
            items.append(dict(base, kind="containment_emptiness", query_one=q1, query_two=q2))
        methods = [m[0] for m in sc["schema"]["methods"]]
        items.append(dict(base, kind="bounded_check", length=3,
                          formula=["F", ["and", ["bind0", rng.choice(methods)],
                                         ["post", sc["query_one"]]]]))
        # Negative requests, decided by construction: empty LTR and
        # containment automata, and a bounded check that exhausts its search.
        blind = _blind_probe(sc["schema"], sc["hidden"], [sc["query_one"], sc["query_two"]])
        if blind is not None:
            bschema, probe, query = blind
            items.append(dict(base, kind="ltr_emptiness", schema=bschema, access=probe,
                              query=query, max_paths=BLIND_SEARCH_PATHS, by_construction=False))
        q1, q2 = _contained_pair(sc["query_one"])
        items.append(dict(base, kind="containment_emptiness", query_one=q1, query_two=q2,
                          by_construction=True))
        items.append(dict(base, kind="bounded_check", length=3,
                          formula=_too_long_formula(sc["schema"], 3)))
        # A small share of CTL checks, on synthetic scenarios only: the
        # directory LTS has ~10^5 transitions at depth 1.
        if sc["name"] not in {f"synthetic-{i}" for i in range(CTL_SCENARIOS)}:
            continue
        for query in (sc["query_one"], sc["query_two"]):
            items.append(dict(base, kind="ctl_check", hidden=sc["hidden"], depth=1,
                              formula=["and", ["atom", _copy_query(query, "post")],
                                       ["not", ["atom", _copy_query(query, "pre")]]]))
    letters = [["a"], ["b"], ["a", "b"], ["c"], []]
    ltl = [
        ["and", ["F", ["p", "a"]], ["G", ["not", ["p", "c"]]]],
        ["and", ["U", ["p", "a"], ["p", "b"]], ["F", ["and", ["p", "c"], ["X", ["p", "a"]]]]],
        ["and", ["G", ["p", "a"]], ["F", ["not", ["p", "a"]]]],
        ["and", ["F", ["and", ["p", "a"], ["p", "b"]]], ["G", ["or", ["p", "a"], ["p", "c"]]]],
        ["and", ["X", ["X", ["p", "b"]]], ["G", ["not", ["and", ["p", "a"], ["p", "b"]]]]],
        ["and", ["F", ["p", "c"]], ["G", ["not", ["p", "c"]]]],
    ]
    for formula in ltl:
        items.append({"kind": "ltl_word", "scenario": "ltl", "formula": formula,
                      "letters": letters, "max_length": 5})
    return items


def _copy_query(query_spec, copy):
    return {
        "atoms": [[f"{rel}@{copy}", terms] for rel, terms in query_spec["atoms"]],
        "head": [],
    }


# ----------------------------------------------------------------------
# Datalog bulk requests
# ----------------------------------------------------------------------
def datalog_items():
    """The bulk EDB shapes; facts are regenerated from these parameters.

    Sizes are spread densely over 1k-20k facts, so the latency percentiles
    of a run fall among many requests of similar cost rather than between
    two far-apart ones."""
    memory = (1000, 1500, 2000, 3000, 4000, 5000, 6000, 8000)
    items = [{"kind": "grid_reach", "facts": n, "backend": "memory"} for n in memory]
    items += [{"kind": "grid_reach", "facts": n, "backend": "sqlite"} for n in (12000, 16000, 20000)]
    items += [{"kind": "chain_join", "facts": n, "backend": "memory"} for n in memory]
    acc_part = [(2000, "memory"), (3000, "memory"), (4000, "memory"), (6000, "memory"),
                (8000, "sqlite"), (12000, "sqlite")]
    items += [
        {"kind": "acc_part", "facts": n, "backend": backend, "seed": DATALOG_SEED + i}
        for i, (n, backend) in enumerate(acc_part)
    ]
    return items


def datalog_oracle(item):
    import datalog_inputs as D
    from repro.datalog.evaluation import evaluate_program
    from repro.queries.evaluation import naive_satisfying_assignments

    shape = D.build(item, S.Variant())
    database = S.instance(shape.schema, {}, S.Variant())
    for relation, tup in shape.facts:
        database.add(relation, tup)

    def naive_answers(query, inst):
        return {
            tuple(a[v] for v in query.head)
            for a in naive_satisfying_assignments(query, inst)
        }

    if shape.program is None:
        return list(S.answer_digest(naive_answers(shape.query, database), S.Variant()))
    fixedpoint = evaluate_program(
        shape.program, database, semi_naive=False, store_backed=False
    )
    goal = fixedpoint.tuples_view(shape.program.goal)
    expected = list(S.answer_digest(goal, S.Variant()))
    if shape.access_schema is not None:
        hidden = S.instance(shape.access_schema.schema, {}, S.Variant())
        for relation, tup in shape.facts:
            if relation != "Init":
                hidden.add(relation, tup)
        expected.append(set(goal) == naive_answers(shape.query, hidden))
    return expected


# ----------------------------------------------------------------------
def _within_size(item) -> bool:
    """Emptiness requests that explore more than ``MAX_EXPLORED_PATHS``
    witness-search paths at the production cap (about a second each) are
    outside verify-search's request size range."""
    if not item["kind"].endswith("_emptiness"):
        return True
    import workloads as W

    call, _ = W.Client("verify-search", [item]).builders[item["kind"]](item, S.Variant())
    return call().paths_explored <= MAX_EXPLORED_PATHS


def _decide(items, log):
    """Attach each item's expected answer; drop the items nothing decides.

    An item with ``by_construction`` has that answer; its oracle still
    runs and must not contradict it.
    """
    kept = []
    for item in items:
        start = time.perf_counter()
        item = dict(item)
        construction = item.pop("by_construction", None)
        expected = ORACLES[item["kind"]](item)
        elapsed = time.perf_counter() - start
        log.write(f"{item['kind']:22s} {str(expected):5s} {str(construction):5s} "
                  f"{elapsed * 1000:8.1f} ms\n")
        if construction is not None:
            if expected not in (None, construction):
                raise AssertionError(f"oracle contradicts construction: {item}")
            kept.append(dict(item, expected=construction, basis="construction"))
        elif expected is not None:
            kept.append(dict(item, expected=expected, basis="oracle"))
    return kept


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "universe.json"))
    parser.add_argument("--only", choices=("planner", "verify", "datalog"),
                        help="regenerate one section and keep the others")
    args = parser.parse_args(argv)
    log = sys.stderr
    sections = {
        "planner": lambda: _decide(planner_items(PLANNER_GROUPS), log),
        "verify": lambda: _decide(
            [i for i in verify_items(SYNTHETIC_SCENARIOS) if _within_size(i)], log),
        "datalog": lambda: [dict(i, expected=datalog_oracle(i)) for i in datalog_items()],
    }
    out = Path(args.out)
    universe = json.loads(out.read_text()) if args.only else {}
    for name, build in sections.items():
        if args.only in (None, name):
            universe[name] = build()
    out.write_text(json.dumps(universe, sort_keys=True, indent=0) + "\n")
    for name, items in universe.items():
        kinds = {}
        for item in items:
            kinds[item["kind"]] = kinds.get(item["kind"], 0) + 1
        log.write(f"{name}: {kinds}\n")


if __name__ == "__main__":
    main()
