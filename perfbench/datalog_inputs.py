"""EDB shapes of the ``datalog-bulk`` workload, regenerated from their parameters.

``build(item, variant)`` returns the program (or query), the EDB schema and
the fact list of one bulk request, renamed by *variant* (relation names
and values), so each request of a run ingests a distinct EDB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import spec as S
from repro.datalog.program import DatalogProgram, Rule
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Variable
from repro.relational.schema import Relation, Schema


@dataclass
class Shape:
    schema: Schema
    facts: List[Tuple[str, tuple]]
    program: Optional[DatalogProgram] = None
    query: Optional[ConjunctiveQuery] = None
    access_schema: object = None
    initial_values: Tuple = ()


def _grid_reach(item, variant: S.Variant) -> Shape:
    from repro.workloads.scaling import grid_reach_facts

    init, edge, reach = variant.rel("Init"), variant.rel("Edge"), variant.rel("Reach")
    schema = Schema([Relation(init, 1), Relation(edge, 2)])
    x, y = Variable("x"), Variable("y")
    program = DatalogProgram(
        rules=(
            Rule(head=Atom(reach, (x,)), body=(Atom(init, (x,)),)),
            Rule(head=Atom(reach, (y,)), body=(Atom(reach, (x,)), Atom(edge, (x, y)))),
        ),
        edb_schema=schema,
        goal=reach,
    )
    facts = [
        (variant.rel(relation), tuple(variant.value(v) for v in tup))
        for relation, tup in grid_reach_facts(item["facts"])
    ]
    return Shape(schema=schema, facts=facts, program=program)


def _chain_join(item, variant: S.Variant) -> Shape:
    from repro.workloads.scaling import chain_join_facts

    r, s = variant.rel("R"), variant.rel("S")
    schema = Schema([Relation(r, 2), Relation(s, 2)])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery(atoms=(Atom(r, (x, y)), Atom(s, (y, z))), head=(x, z))
    facts = [
        (variant.rel(relation), tuple(variant.value(v) for v in tup))
        for relation, tup in chain_join_facts(item["facts"])
    ]
    return Shape(schema=schema, facts=facts, query=query)


def acc_part_spec(item):
    """Schema, query and hidden instance specs of an accessible-part request."""
    from repro.workloads.generators import WorkloadGenerator

    generator = WorkloadGenerator(seed=item["seed"])
    schema = generator.access_schema(
        num_relations=4, methods_per_relation=1, max_inputs=1,
        input_free_probability=0.0, min_arity=2, max_arity=2,
    )
    per_relation = item["facts"] // 4
    hidden = generator.instance(
        schema.schema, tuples_per_relation=per_relation, domain_size=per_relation // 5
    )
    query = generator.conjunctive_query(
        schema.schema, num_atoms=2, num_variables=3, num_head_variables=2,
        constant_probability=0.0,
    )
    return S.schema_spec(schema), S.query_spec(query), S.instance_spec(hidden)


def _acc_part(item, variant: S.Variant) -> Shape:
    from repro.access.answerability import accessible_part_program

    schema_spec, query_spec, hidden_spec = acc_part_spec(item)
    access_schema = S.access_schema(schema_spec, variant)
    query = S.query(query_spec, variant)
    program = accessible_part_program(access_schema, query)
    initial_values = (variant.value("v0"), variant.value("v1"))
    facts = [
        (variant.rel(relation), tuple(variant.value(v) for v in tup))
        for relation, tuples in hidden_spec.items()
        for tup in tuples
    ]
    facts += [("Init", (value,)) for value in initial_values]
    return Shape(
        schema=program.edb_schema,
        facts=facts,
        program=program,
        query=query,
        access_schema=access_schema,
        initial_values=initial_values,
    )


BUILDERS = {"grid_reach": _grid_reach, "chain_join": _chain_join, "acc_part": _acc_part}


def build(item, variant: S.Variant) -> Shape:
    return BUILDERS[item["kind"]](item, variant)
