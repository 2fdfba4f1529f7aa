"""Property tests for the persistent fact store (:mod:`repro.store`).

Testing convention of the performance subsystem: the dict-backed
:class:`~repro.relational.instance.Instance` is the oracle.  The store
facade must agree with it under arbitrary interleavings of mutation,
snapshot, restore and branching, and the compiled join engine must
enumerate the same assignments on either backend.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from repro.datalog.evaluation import evaluate_program, fixedpoint_generations
from repro.queries.evaluation import (
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.queries.plan_cache import clear_plan_cache, compile_plan, get_plan
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema, SchemaError, make_schema
from repro.relational.types import INT
from repro.store.hamt import EMPTY_PMAP, PMap, _node_eq
from repro.store.snapshot import SMALL_SHARD_LIMIT, Snapshot, SnapshotInstance
from repro.workloads.generators import WorkloadGenerator


class _Colliding:
    """A key class whose instances all share one hash (full collisions)."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, _Colliding) and other.value == self.value

    def __repr__(self):
        return f"_Colliding({self.value})"


def _multiset(assignments):
    return Counter(frozenset(a.items()) for a in assignments)


class TestPMap:
    def test_random_ops_agree_with_dict(self):
        rng = random.Random(42)
        pmap = EMPTY_PMAP
        reference = {}
        for step in range(3000):
            key = rng.randint(0, 400)
            if rng.random() < 0.6:
                pmap = pmap.set(key, step)
                reference[key] = step
            else:
                pmap = pmap.delete(key)
                reference.pop(key, None)
            assert len(pmap) == len(reference)
        assert dict(pmap.items()) == reference
        for key in range(420):
            assert (key in pmap) == (key in reference)
            assert pmap.get(key, "missing") == reference.get(key, "missing")

    def test_structural_equality_is_insertion_order_independent(self):
        items = [(f"k{i}", i) for i in range(200)]
        forward = PMap(items)
        rng = random.Random(7)
        shuffled = list(items)
        rng.shuffle(shuffled)
        backward = PMap(shuffled)
        assert forward == backward
        # Insert-then-delete collapses back to the canonical shape.
        with_extra = forward.set("extra", 1).delete("extra")
        assert with_extra == forward

    def test_updates_do_not_mutate_the_receiver(self):
        base = PMap([("a", 1), ("b", 2)])
        grown = base.set("c", 3)
        shrunk = base.delete("a")
        assert dict(base.items()) == {"a": 1, "b": 2}
        assert dict(grown.items()) == {"a": 1, "b": 2, "c": 3}
        assert dict(shrunk.items()) == {"b": 2}

    def test_pickle_round_trip(self):
        pmap = PMap([(("tup", i), True) for i in range(100)])
        loaded = pickle.loads(pickle.dumps(pmap))
        assert loaded == pmap
        assert dict(loaded.items()) == dict(pmap.items())

    @staticmethod
    def _sequential(items, base=EMPTY_PMAP):
        for key, value in items:
            base = base.set(key, value)
        return base

    @pytest.mark.parametrize("keys", ["random", "shared_slices", "collisions"])
    def test_bulk_build_and_batch_merge_have_the_sequential_shape(self, keys):
        """``PMap(items)`` and ``update`` must build exactly the trie that
        one ``set`` per item builds: equality compares shapes."""
        rng = random.Random(11)
        for trial in range(60):
            size = rng.randint(0, 6) if trial % 3 == 0 else rng.randint(7, 700)
            if keys == "random":
                batch = [rng.randint(0, 5000) for _ in range(size)]
            elif keys == "shared_slices":
                # Small ints hash to themselves: multiples of 32**k share
                # their k leading 5-bit slices (all zero).
                batch = [
                    rng.randint(0, 40) * 32 ** rng.choice([1, 2, 5, 11])
                    for _ in range(size)
                ]
            else:
                batch = [
                    _Colliding(rng.randint(0, 9)) if rng.random() < 0.3
                    else rng.randint(0, 60)
                    for _ in range(size)
                ]
            items = [(key, rng.randint(0, 3)) for key in batch]
            sequential = self._sequential(items)
            bulk = PMap(items)
            assert len(bulk) == len(sequential)
            assert _node_eq(bulk._root, sequential._root)
            cut = rng.randint(0, len(items))
            base = self._sequential(items[:cut])
            added = []
            merged = base.update(items[cut:], added)
            assert len(merged) == len(sequential)
            assert _node_eq(merged._root, sequential._root)
            assert set(added) == set(dict(items)) - set(dict(items[:cut]))
            assert dict(merged.items()) == dict(items)
            assert dict(base.items()) == dict(items[:cut])  # receiver unchanged

    def test_duplicate_keys_keep_the_last_value(self):
        items = [("a", 1), ("b", 2), ("a", 3), (_Colliding(1), 4), (_Colliding(1), 5)]
        assert dict(PMap(items).items()) == dict(items)
        assert len(PMap(items)) == 3
        merged = PMap([("a", 0), (_Colliding(1), 0)]).update(items)
        assert dict(merged.items()) == dict(items)


def _random_schema() -> Schema:
    return Schema([Relation("R", 2), Relation("S", 3), Relation("Z", 0)])


def _random_tuple(rng: random.Random, arity: int):
    return tuple(f"v{rng.randint(0, 6)}" for _ in range(arity))


class TestSnapshotInstanceAgreesWithInstance:
    def test_random_interleavings(self):
        """The satellite property: store == dict-backed oracle throughout
        random add/discard/snapshot interleavings, and every snapshot
        restores to exactly the state it captured."""
        schema = _random_schema()
        arities = {"R": 2, "S": 3, "Z": 0}
        rng = random.Random(20260730)
        store = SnapshotInstance(schema)
        oracle = Instance(schema)
        snapshots = []
        for step in range(600):
            name = rng.choice(["R", "S", "Z"])
            tup = _random_tuple(rng, arities[name])
            if rng.random() < 0.6:
                assert store.add_unchecked(name, tup) == oracle.add_unchecked(
                    name, tup
                )
            else:
                assert store.discard(name, tup) == oracle.discard(name, tup)
            if rng.random() < 0.08:
                snapshots.append((store.snapshot(), oracle.freeze()))
            if step % 50 == 0:
                assert store.freeze() == oracle.freeze()
                assert store.size() == oracle.size()
                assert store.active_domain() == oracle.active_domain()
                for relation in schema:
                    assert store.tuples(relation.name) == oracle.tuples(
                        relation.name
                    )
                    assert store.relation_count(relation.name) == (
                        oracle.relation_count(relation.name)
                    )
                    for position in range(relation.arity):
                        for value in [f"v{i}" for i in range(8)]:
                            assert set(
                                store.index(relation.name, position, value)
                            ) == set(oracle.index(relation.name, position, value))
                assert store.relation_counts() == oracle.relation_counts()
        assert store == oracle  # freeze-level equality across backends
        rng.shuffle(snapshots)
        for snap, frozen in snapshots:
            store.restore(snap)
            assert store.freeze() == frozen
            branch = SnapshotInstance.from_snapshot(snap)
            assert branch.freeze() == frozen

    def test_branches_are_independent(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema, {"R": [("a", "b")]})
        snap = store.snapshot()
        branch = SnapshotInstance.from_snapshot(snap)
        branch.add("R", ("c", "d"))
        store.add("R", ("e", "f"))
        assert branch.contains("R", ("c", "d"))
        assert not branch.contains("R", ("e", "f"))
        assert not store.contains("R", ("c", "d"))
        assert SnapshotInstance.from_snapshot(snap).tuples("R") == frozenset(
            {("a", "b")}
        )

    def test_promotion_and_demotion_across_the_shard_limit(self, monkeypatch):
        monkeypatch.setattr("repro.store.snapshot.SMALL_SHARD_LIMIT", 4)
        schema = make_schema({"R": 1})
        store = SnapshotInstance(schema)
        oracle = Instance(schema)
        rng = random.Random(3)
        for step in range(400):
            tup = (f"v{rng.randint(0, 9)}",)
            if rng.random() < 0.55:
                store.add_unchecked("R", tup)
                oracle.add_unchecked("R", tup)
            else:
                store.discard("R", tup)
                oracle.discard("R", tup)
            assert store.tuples("R") == oracle.tuples("R")
            # Representation is a pure function of the cardinality.
            expected_small = store.relation_count("R") <= 4
            assert (
                type(store._shards["R"].tuples) is frozenset
            ) == expected_small

    def test_indexes_survive_snapshot_restore_and_branch(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema)
        for i in range(10):
            store.add("R", (f"a{i % 3}", f"b{i}"))
        # Force the index, snapshot, mutate, restore: the shard (and its
        # index) for the snapshot comes back shared, not rebuilt.
        assert len(store.index("R", 0, "a0")) == 4
        snap = store.snapshot()
        shard_before = store._shards["R"]
        store.add("R", ("a0", "extra"))
        assert len(store.index("R", 0, "a0")) == 5
        store.restore(snap)
        assert store._shards["R"] is shard_before
        assert len(store.index("R", 0, "a0")) == 4

    def test_instance_and_store_fingerprints(self):
        schema = make_schema({"R": 1})
        instance = Instance(schema, {"R": [("a",)]})
        store = SnapshotInstance.from_instance(instance)
        assert instance.fingerprint() == instance.freeze()
        assert isinstance(store.fingerprint(), Snapshot)
        assert store.fingerprint() is store.snapshot()


def _pairs(count: int, offset: int = 0):
    return [(f"a{i}", f"b{i % 7}") for i in range(offset, offset + count)]


def _fingerprint(snap: Snapshot):
    return (snap.count, snap.hash_sum, snap.hash_xor)


class TestBatchCommit:
    """One shard commit per batch must be indistinguishable from one
    ``add_unchecked`` per tuple, and both from the dict-backed oracle."""

    @pytest.mark.parametrize(
        "before, after",
        [
            (0, SMALL_SHARD_LIMIT + 44),
            (SMALL_SHARD_LIMIT - 1, SMALL_SHARD_LIMIT + 1),
            (SMALL_SHARD_LIMIT, SMALL_SHARD_LIMIT + 1),
            (10, 40),
            (SMALL_SHARD_LIMIT + 44, 2 * SMALL_SHARD_LIMIT),
        ],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_batch_matches_per_tuple_adds_and_the_oracle(self, before, after, warm):
        schema = make_schema({"R": 2})
        initial = _pairs(before)
        fresh = _pairs(after - before, before)
        # Duplicates within the batch and tuples already in the store.
        batch = fresh + fresh[: len(fresh) // 3] + initial[:5]
        batched = SnapshotInstance(schema)
        batched.add_all("R", initial)
        per_tuple = SnapshotInstance(schema)
        for tup in initial:
            per_tuple.add_unchecked("R", tup)
        oracle = Instance(schema, {"R": initial})
        if warm:
            batched.index("R", 0, "a0")
            per_tuple.index("R", 0, "a0")
            warm = before > 0  # an empty shard caches no index
        assert batched.add_all("R", batch) == after - before
        for tup in batch:
            per_tuple.add_unchecked("R", tup)
            oracle.add_unchecked("R", tup)
        one, two = batched.snapshot(), per_tuple.snapshot()
        assert one == two and hash(one) == hash(two)
        assert _fingerprint(one) == _fingerprint(two)
        assert batched.freeze() == oracle.freeze()
        shard = batched._shards["R"]
        assert shard.count == after
        # The representation still follows the cardinality alone.
        small = after <= SMALL_SHARD_LIMIT
        assert (type(shard.tuples) is frozenset) == small
        assert (shard.index is not None) == warm
        if warm:
            assert (type(shard.index) is dict) == small
        for position, values in ((0, [f"a{i}" for i in range(after + 1)]),
                                 (1, [f"b{i}" for i in range(8)])):
            for value in values:
                assert batched.index("R", position, value) == oracle.index(
                    "R", position, value
                )
        assert type(shard.index) is (dict if small else PMap)

    def test_probing_an_empty_relation_warms_no_other_store(self):
        schema = make_schema({"R": 2})
        assert SnapshotInstance(schema).index("R", 0, "a") == frozenset()
        store = SnapshotInstance(schema)
        store.add_all("R", _pairs(3))
        assert store._shards["R"].index is None

    def test_a_batch_with_nothing_new_changes_nothing(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema, {"R": _pairs(300)})
        snap = store.snapshot()
        assert store.add_all("R", _pairs(20)) == 0
        assert store.add_all("R", []) == 0
        assert store.snapshot() is snap

    def test_a_bad_tuple_leaves_the_store_unchanged(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema, {"R": _pairs(3)})
        snap = store.snapshot()
        with pytest.raises(SchemaError):
            store.add_all("R", _pairs(5, 10) + [("too", "many", "values")])
        assert store.snapshot() is snap

    def test_every_constructor_agrees_with_per_tuple_adds(self):
        schema = make_schema({"R": 2, "S": 1, "Z": 0})
        facts = {
            "R": _pairs(SMALL_SHARD_LIMIT + 30),
            "S": [(f"s{i}",) for i in range(12)],
            "Z": [()],
        }
        per_tuple = SnapshotInstance(schema)
        for name, tuples in facts.items():
            for tup in tuples:
                per_tuple.add_unchecked(name, tup)
        reference = per_tuple.snapshot()
        oracle = Instance(schema, facts)
        built = [
            SnapshotInstance(schema, facts),
            SnapshotInstance.from_instance(oracle),
            SnapshotInstance.from_frozen(schema, oracle.freeze()),
            SnapshotInstance.from_snapshot(pickle.loads(pickle.dumps(reference))),
        ]
        for store in built:
            snap = store.snapshot()
            assert snap == reference and hash(snap) == hash(reference)
            assert _fingerprint(snap) == _fingerprint(reference)
            assert store.freeze() == oracle.freeze()
            assert set(store.index("R", 1, "b3")) == set(oracle.index("R", 1, "b3"))

    def test_with_schema_shares_shards(self):
        schema = make_schema({"R": 2, "Extra": 1})
        wider = make_schema({"R": 2, "T": 1})
        store = SnapshotInstance(schema, {"R": _pairs(300)})
        store.index("R", 0, "a1")  # warm
        shared = store.with_schema(wider)
        assert shared._shards["R"] is store._shards["R"]
        assert shared.relation_count("T") == 0
        assert _fingerprint(shared.snapshot()) == _fingerprint(store.snapshot())
        shared.add("T", ("x",))
        shared.add("R", ("new", "row"))
        assert not store.contains("R", ("new", "row"))
        store.add("Extra", ("e",))
        with pytest.raises(SchemaError):
            store.with_schema(wider)  # a non-empty relation the target lacks
        narrow = SnapshotInstance(make_schema({"R": 1}), {"R": [("x",)]})
        with pytest.raises(SchemaError):
            narrow.with_schema(wider)  # declared with another arity


class TestSnapshotSemantics:
    def test_equality_and_hash_are_content_based(self):
        schema = make_schema({"R": 2, "S": 1})
        one = SnapshotInstance(schema)
        two = SnapshotInstance(schema)
        for tup in [("a", "b"), ("c", "d")]:
            one.add("R", tup)
        for tup in [("c", "d"), ("a", "b")]:
            two.add("R", tup)
        assert one.snapshot() == two.snapshot()
        assert hash(one.snapshot()) == hash(two.snapshot())
        two.add("S", ("x",))
        assert one.snapshot() != two.snapshot()

    def test_snapshot_pickle_round_trip(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema)
        for i in range(50):
            store.add("R", (f"a{i}", f"b{i % 5}"))
        snap = store.snapshot()
        loaded = pickle.loads(pickle.dumps(snap))
        assert loaded == snap
        rebuilt = SnapshotInstance.from_snapshot(loaded)
        assert rebuilt.freeze() == store.freeze()
        assert set(rebuilt.index("R", 1, "b0")) == set(store.index("R", 1, "b0"))

    def test_snapshot_instance_pickle_round_trip(self):
        schema = make_schema({"R": 1})
        store = SnapshotInstance(schema, {"R": [("a",), ("b",)]})
        loaded = pickle.loads(pickle.dumps(store))
        assert loaded.freeze() == store.freeze()


class TestCompiledEngineOnStore:
    def test_randomized_cqs_agree_with_oracle(self):
        generator = WorkloadGenerator(seed=99)
        rng = random.Random(5)
        for trial in range(60):
            schema = generator.schema(num_relations=rng.randint(1, 3))
            instance = generator.instance(
                schema,
                tuples_per_relation=rng.randint(0, 8),
                domain_size=rng.randint(2, 6),
            )
            query = generator.conjunctive_query(
                schema,
                num_atoms=rng.randint(1, 4),
                num_variables=rng.randint(1, 5),
                constant_probability=0.25,
            )
            store = SnapshotInstance.from_instance(instance)
            assert _multiset(satisfying_assignments(query, store)) == _multiset(
                naive_satisfying_assignments(query, instance)
            ), f"trial {trial}: {query}"

    def test_mutation_during_lazy_consumption_is_safe(self):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Constant, Variable

        schema = make_schema({"R": 1})
        store = SnapshotInstance(schema, {"R": [("a",), ("b",), ("c",)]})
        scan = ConjunctiveQuery(atoms=(Atom("R", (Variable("x"),)),))
        seen = 0
        for _ in satisfying_assignments(scan, store):
            store.add("R", (f"scan{seen}",))
            seen += 1
        assert seen == 3


class TestStatisticsDrivenPlans:
    def test_statistics_reorder_ties_towards_small_relations(self):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Variable

        clear_plan_cache()
        schema = make_schema({"Big": 2, "Small": 2})
        store = SnapshotInstance(schema)
        for i in range(200):
            store.add("Big", (f"a{i}", f"b{i % 7}"))
        store.add("Small", ("b1", "c"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            atoms=(Atom("Big", (x, y)), Atom("Small", (y, z)))
        )
        plan = get_plan(query, store)
        assert [atom.relation for atom in plan.atoms] == ["Small", "Big"]
        # The static (statistics-free) compilation keeps the textual order.
        static = compile_plan(query)
        assert [atom.relation for atom in static.atoms] == ["Big", "Small"]
        # Same signature bucket -> the exact same cached plan object.
        assert get_plan(query, store) is plan
        # The result set is identical either way (the oracle property).
        oracle = Instance(schema)
        for name in schema.names():
            for tup in store.tuples(name):
                oracle.add_unchecked(name, tup)
        assert _multiset(satisfying_assignments(query, store)) == _multiset(
            naive_satisfying_assignments(query, oracle)
        )

    def test_small_instances_skip_statistics(self):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Variable

        clear_plan_cache()
        schema = make_schema({"Big": 2, "Small": 2})
        store = SnapshotInstance(schema, {"Big": [("a", "b")]})
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            atoms=(Atom("Big", (x, y)), Atom("Small", (y, z)))
        )
        plan = get_plan(query, store)
        assert [atom.relation for atom in plan.atoms] == ["Big", "Small"]
        assert set(query.__dict__["_compiled_plan"]) == {None}  # no signature


class TestSnapshotView:
    def test_view_is_cached_and_positioned_at_the_snapshot(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema, {"R": [("a", "b")]})
        snap = store.snapshot()
        view = snap.view()
        assert view is snap.view()  # cached on the snapshot
        assert view.tuples("R") == frozenset({("a", "b")})
        # Later mutations of the originating facade never leak into the view.
        store.add("R", ("c", "d"))
        assert view.tuples("R") == frozenset({("a", "b")})
        assert view.snapshot() == snap

    def test_view_shares_warm_indexes_with_the_source(self):
        schema = make_schema({"R": 2})
        store = SnapshotInstance(schema, {"R": [("a", "b"), ("a", "c")]})
        # Probe through the facade first so the shard index is built.
        assert store.index("R", 0, "a") == frozenset({("a", "b"), ("a", "c")})
        view = store.snapshot().view()
        # Same shard object => the derived index came along for free.
        assert view._shards["R"] is store._shards["R"]
        assert view.index("R", 0, "a") == frozenset({("a", "b"), ("a", "c")})


class TestDatalogGenerations:
    def _setup(self):
        from repro.access.answerability import accessible_part_program

        generator = WorkloadGenerator(seed=23)
        access_schema = generator.access_schema(
            num_relations=2, methods_per_relation=2, max_inputs=1
        )
        hidden = generator.instance(
            access_schema.schema, tuples_per_relation=8, domain_size=6
        )
        query = generator.conjunctive_query(
            access_schema.schema, num_atoms=2, num_variables=3
        )
        program = accessible_part_program(access_schema, query)
        database = Instance(program.edb_schema)
        for name in hidden.relation_names():
            for tup in hidden.tuples_view(name):
                database.add(name, tup)
        database.add("Init", ("v0",))
        return program, database

    def test_generation_log_matches_plain_evaluation(self):
        program, database = self._setup()
        plain = evaluate_program(program, database)
        generations = fixedpoint_generations(program, database)
        assert generations, "at least the seeded database generation"
        # Generations grow monotonically and end at the fixedpoint.
        sizes = [snap.size() for snap in generations]
        assert sizes == sorted(sizes)
        final = SnapshotInstance.from_snapshot(generations[-1])
        assert final.freeze() == plain.freeze()
        # Earlier generations are subsets of later ones (structure shared).
        for earlier, later in zip(generations, generations[1:]):
            facts = set(earlier.facts())
            assert facts <= set(later.facts())


def _grid_reach_database(total_facts: int) -> SnapshotInstance:
    from repro.workloads.scaling import grid_reach_facts, grid_reach_schema

    by_relation = {}
    for name, tup in grid_reach_facts(total_facts):
        by_relation.setdefault(name, []).append(tup)
    return SnapshotInstance(grid_reach_schema(), by_relation)


class TestFixedpointShardSharing:
    """On the memory backend the fixedpoint seeds by sharing the
    database's immutable shards, never by copying or mutating them."""

    def test_result_shares_the_database_shards_and_matches_the_oracle(self):
        from repro.workloads.scaling import grid_reach_program

        program = grid_reach_program()
        database = _grid_reach_database(600)
        database.index("Edge", 0, 0)  # a warm index rides along
        shards = dict(database._shards)
        before = database.snapshot()
        frozen = database.freeze()
        result = evaluate_program(program, database)
        for name in program.edb_schema.names():
            assert result._shards[name] is shards[name]
        assert database._shards == shards
        assert database.snapshot() == before and database.freeze() == frozen
        oracle = evaluate_program(
            program, database.to_instance(), semi_naive=False, store_backed=False
        )
        assert result.freeze() == oracle.freeze()

    def test_generation_log_starts_at_the_database(self):
        from repro.workloads.scaling import grid_reach_program

        program = grid_reach_program()
        database = _grid_reach_database(300)
        before = database.snapshot()
        log = []
        result = evaluate_program(program, database, generation_log=log)
        assert _fingerprint(log[0]) == _fingerprint(before)
        assert set(log[0].facts()) == set(database.facts())
        assert SnapshotInstance.from_snapshot(log[-1]).freeze() == result.freeze()
        assert database.snapshot() == before
        assert _fingerprint(database.snapshot()) == _fingerprint(before)

    def test_signature_mismatch_still_raises_and_extra_empty_relations_pass(self):
        from repro.workloads.scaling import grid_reach_program

        program = grid_reach_program()
        wide = SnapshotInstance(
            make_schema({"Init": 1, "Edge": 3}), {"Init": [(0,)], "Edge": [(0, 1, 2)]}
        )
        with pytest.raises(SchemaError):
            evaluate_program(program, wide)
        extra = SnapshotInstance(
            make_schema({"Init": 1, "Edge": 2, "Unused": 2}),
            {"Init": [(0,)], "Edge": [(0, 1), (1, 2)]},
        )
        result = evaluate_program(program, extra)
        assert result._shards["Edge"] is extra._shards["Edge"]
        assert result.tuples("Reach") == frozenset({(0,), (1,), (2,)})
        extra.add("Unused", (5, 6))
        with pytest.raises(SchemaError):
            evaluate_program(program, extra)
        # Declared differently but valid under the program's declaration:
        # copied through the validating path, not shared.
        typed = SnapshotInstance(
            Schema([Relation("Init", 1, (INT,)), Relation("Edge", 2, (INT, INT))]),
            {"Init": [(0,)], "Edge": [(0, 1)]},
        )
        result = evaluate_program(program, typed)
        assert result._shards["Edge"] is not typed._shards["Edge"]
        assert result.tuples("Reach") == frozenset({(0,), (1,)})


class TestFixedpointCommitCount:
    """The batching is pinned by counting shard commits, not by timing."""

    @staticmethod
    def _count_commits(monkeypatch, log):
        """Record, per commit, how many generations were logged before it."""
        commits = []
        original = SnapshotInstance._commit

        def counting(self, relation_name, tuples):
            commits.append(len(log))
            return original(self, relation_name, tuples)

        monkeypatch.setattr(SnapshotInstance, "_commit", counting)
        return commits

    @staticmethod
    def _changed_relations(log):
        return [
            sum(
                1
                for name, count in later.relation_counts().items()
                if count != earlier.relation_counts()[name]
            )
            for earlier, later in zip(log, log[1:])
        ]

    def test_one_commit_per_round_and_relation_and_none_to_seed(self, monkeypatch):
        from repro.workloads.scaling import grid_reach_program

        database = _grid_reach_database(2000)
        log = []
        commits = self._count_commits(monkeypatch, log)
        evaluate_program(grid_reach_program(), database, generation_log=log)
        per_round = self._changed_relations(log)
        assert len(per_round) > 2 and all(per_round)
        assert commits.count(0) == 0  # seeding by shard sharing
        assert [commits.count(generation) for generation in range(1, len(log))] == (
            per_round
        )
        assert len(commits) == sum(per_round)

    def test_a_dict_database_seeds_with_one_commit_per_relation(self, monkeypatch):
        from repro.workloads.scaling import grid_reach_program

        database = _grid_reach_database(500).to_instance()
        log = []
        commits = self._count_commits(monkeypatch, log)
        evaluate_program(grid_reach_program(), database, generation_log=log)
        assert commits.count(0) == 2  # Init and Edge
        assert len(commits) == 2 + sum(self._changed_relations(log))
