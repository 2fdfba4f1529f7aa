"""JSON request specs and the renamings that turn one spec into many requests.

Every request the benchmark sends is built from a plain-JSON *spec* (an
access schema, queries, instances, formulas) under a :class:`Variant`: a
consistent renaming of relation names, method names, data values and
query variables.  The paper's procedures are generic — their verdicts are
invariant under such isomorphisms — so a variant of a spec has the
spec's expected answer, while its memo keys, plan-cache keys and store
fingerprints are those of a new request.  That is how the benchmark sends
an unbounded stream of distinct requests whose expected answers were
computed once, offline, by the oracle paths (see ``universe.py``).

Spec encodings
--------------
* schema: ``{"relations": [[name, arity, [type, ...]]], "methods":
  [[name, relation, [input positions], exact]]}``; types are ``"any"``,
  ``"string"`` or ``"int"``.
* query: ``{"atoms": [[relation, [term, ...]]], "head": [term, ...]}``;
  a term that is a string starting with ``?`` is a variable, anything
  else a constant.  A relation written ``R@pre`` / ``R@post`` is the
  pre/post copy of ``R`` in the access vocabulary.
* instance: ``{relation: [[value, ...], ...]}``.
* AccLTL formula: nested lists — ``["pre", query]``, ``["post", query]``,
  ``["bind0", method]``, ``["bind", method, [value, ...]]``, ``["not", f]``,
  ``["and", f, g]``, ``["or", f, g]``, ``["X", f]``, ``["F", f]``,
  ``["G", f]``, ``["U", f, g]``.
* LTL formula: the same connectives over ``["p", name]`` propositions.
* CTL_EX formula: ``["atom", query]``, ``["not", f]``, ``["and", f, g]``,
  ``["or", f, g]``, ``["EX", f]``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.access.methods import AccessSchema
from repro.core import formulas as acc
from repro.core.vocabulary import isbind0_name, isbind_name, post_name, pre_name
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema
from repro.relational.types import ANY, INT, STRING

_TYPES = {"any": ANY, "string": STRING, "int": INT}
_TYPE_NAMES = {id(value): name for name, value in _TYPES.items()}

#: Integer values are shifted by ``tag * INT_STRIDE``; generated integer
#: domains stay far below it, so shifted domains of two variants never meet.
INT_STRIDE = 10_000_000


@dataclass(frozen=True)
class Variant:
    """A consistent renaming: ``tag`` renames schema symbols and values,
    ``var_tag`` renames query variables only (0 means unchanged)."""

    tag: int = 0
    var_tag: int = 0

    def rel(self, name: str) -> str:
        return f"{name}x{self.tag}" if self.tag else name

    def method(self, name: str) -> str:
        return f"{name}x{self.tag}" if self.tag else name

    def value(self, value):
        if not self.tag or isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value + self.tag * INT_STRIDE
        return f"{value}.{self.tag}"

    def unvalue(self, value):
        """Invert :meth:`value` (used to compare answer sets to the spec's)."""
        if not self.tag or isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value - self.tag * INT_STRIDE
        suffix = f".{self.tag}"
        return value[: -len(suffix)] if value.endswith(suffix) else value

    def var(self, name: str) -> str:
        return f"{name}_{self.var_tag}" if self.var_tag else name


# ----------------------------------------------------------------------
# Spec -> objects
# ----------------------------------------------------------------------
def access_schema(spec, variant: Variant) -> AccessSchema:
    relations = [
        Relation(variant.rel(name), arity, tuple(_TYPES[t] for t in types))
        for name, arity, types in spec["relations"]
    ]
    schema = AccessSchema(Schema(relations))
    for name, relation, inputs, exact in spec["methods"]:
        schema.add(variant.method(name), variant.rel(relation), tuple(inputs), exact=exact)
    return schema


def _relation_symbol(symbol: str, variant: Variant) -> str:
    base, _, copy = symbol.partition("@")
    renamed = variant.rel(base)
    if copy == "pre":
        return pre_name(renamed)
    if copy == "post":
        return post_name(renamed)
    return renamed


def _term(term, variant: Variant):
    if isinstance(term, str) and term.startswith("?"):
        return Variable(variant.var(term[1:]))
    return Constant(variant.value(term))


def query(spec, variant: Variant) -> ConjunctiveQuery:
    atoms = tuple(
        Atom(_relation_symbol(relation, variant), tuple(_term(t, variant) for t in terms))
        for relation, terms in spec["atoms"]
    )
    head = tuple(_term(t, variant) for t in spec["head"])
    return ConjunctiveQuery(atoms=atoms, head=head)


def instance(schema: Schema, spec, variant: Variant) -> Instance:
    result = Instance(schema)
    for relation, tuples in spec.items():
        name = variant.rel(relation)
        for values in tuples:
            result.add(name, tuple(variant.value(v) for v in values))
    return result


def access(schema: AccessSchema, spec, variant: Variant):
    method, binding = spec
    return schema.access(variant.method(method), tuple(variant.value(v) for v in binding))


def acc_formula(vocabulary, spec, variant: Variant) -> acc.AccFormula:
    op = spec[0]
    if op == "pre":
        return acc.atom(vocabulary.query_pre(query(spec[1], variant)).boolean_version())
    if op == "post":
        return acc.atom(vocabulary.query_post(query(spec[1], variant)).boolean_version())
    if op == "bind0":
        return acc.atom(
            ConjunctiveQuery(atoms=(Atom(isbind0_name(variant.method(spec[1])), ()),), head=())
        )
    if op == "bind":
        terms = tuple(Constant(variant.value(v)) for v in spec[2])
        return acc.atom(
            ConjunctiveQuery(atoms=(Atom(isbind_name(variant.method(spec[1])), terms),), head=())
        )
    parts = [acc_formula(vocabulary, sub, variant) for sub in spec[1:]]
    return {
        "not": acc.lnot,
        "and": acc.land,
        "or": acc.lor,
        "X": acc.lnext,
        "F": acc.eventually,
        "G": acc.globally,
        "U": acc.until,
    }[op](*parts)


def ltl_formula(spec, variant: Variant):
    from repro.ltl import syntax as ltl

    op = spec[0]
    if op == "p":
        return ltl.Prop(variant.rel(spec[1]))
    parts = [ltl_formula(sub, variant) for sub in spec[1:]]
    return {
        "not": ltl.Not,
        "and": ltl.And,
        "or": ltl.Or,
        "X": ltl.Next,
        "F": ltl.Eventually,
        "G": ltl.Globally,
        "U": ltl.Until,
    }[op](*parts)


def ltl_letters(letters, variant: Variant):
    return [frozenset(variant.rel(p) for p in letter) for letter in letters]


def ctl_formula(spec, variant: Variant):
    from repro.branching import ctl

    op = spec[0]
    if op == "atom":
        return ctl.ctl_atom(query(spec[1], variant).boolean_version())
    parts = [ctl_formula(sub, variant) for sub in spec[1:]]
    return {
        "not": ctl.CTLNot,
        "and": ctl.CTLAnd,
        "or": ctl.CTLOr,
        "EX": ctl.CTLEX,
    }[op](*parts)


# ----------------------------------------------------------------------
# Objects -> spec (used once, when the universe is generated)
# ----------------------------------------------------------------------
def schema_spec(schema: AccessSchema):
    return {
        "relations": [
            [r.name, r.arity, [_TYPE_NAMES.get(id(t), "any") for t in r.types]]
            for r in schema.schema
        ],
        "methods": [
            [m.name, m.relation, list(m.input_positions), bool(m.exact)] for m in schema
        ],
    }


def _term_spec(term):
    if isinstance(term, Variable):
        return "?" + term.name
    return term.value


def query_spec(cq: ConjunctiveQuery):
    return {
        "atoms": [[a.relation, [_term_spec(t) for t in a.terms]] for a in cq.atoms],
        "head": [_term_spec(t) for t in cq.head],
    }


def instance_spec(inst: Instance) -> Dict[str, list]:
    return {
        name: sorted((list(t) for t in inst.tuples_view(name)), key=repr)
        for name in sorted(inst.relation_names())
        if inst.tuples_view(name)
    }


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(payload) -> str:
    """A stable SHA-256 of a JSON-able payload (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digest(tuples, variant: Variant) -> Tuple[int, str]:
    """Count and order-free digest of an answer set, mapped back to the spec's names."""
    rows = sorted(repr(tuple(variant.unvalue(v) for v in t)) for t in tuples)
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()


def values(spec_values: Sequence, variant: Variant) -> Tuple:
    return tuple(variant.value(v) for v in spec_values)
