import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foon.core import (
    Algorithm,
    Decision,
    DuplicateUnit,
    FoonGraph,
    FrozenRecord,
    FunctionalUnit,
    ObjectKey,
    SearchStats,
    TaskTree,
    validate_task_tree,
)
from foon.data import subgraph_paths
from foon.export import to_dot
from foon.merge import MergeResult, merge_subgraphs
from foon.parser import parse_goal_nodes, parse_kitchen, parse_subgraph
from helpers import build_graph, key_of, obj, random_instance, unit

WORDS = ["cream", "bowl", "tomato", "salad", "feta", "knife", "sugar", "oil"]
STATES = ["raw", "whipped", "sliced", "mixed", "in [bowl]", "dirty", "empty"]


def test_object_key_identity():
    assert obj("cream", ["whipped"]) == key_of("cream", ["whipped"])


def test_object_key_ingredient_order_insensitive():
    a = obj("salad", ["mixed"], ["feta", "tomato"])
    b = obj("salad", ["mixed"], ["tomato", "feta"])
    assert a == b


def test_object_key_state_order_insensitive():
    a = obj("cream", ["whipped", "in [bowl]"])
    b = obj("cream", ["in [bowl]", "whipped"])
    assert a == b


def test_name_canonicalized():
    assert obj("  Cream ").name == "cream"
    with pytest.raises(ValueError):
        obj("   ")


def test_states_deduplicated_and_sorted():
    node = obj("cream", ["raw", "raw", "whipped"])
    assert node.states == ("raw", "whipped")


def test_lone_timestamp_is_start():
    whip = FunctionalUnit([obj("cream")], "whip", [obj("whipped cream")], None, "3:20")
    assert whip.start_time == "3:20"
    assert whip.end_time is None


def test_unit_needs_inputs_and_outputs():
    with pytest.raises(ValueError):
        unit([], "whip", ["cream"])
    with pytest.raises(ValueError):
        unit(["cream"], "whip", [])


def test_unit_equality_ignores_timestamps():
    a = unit(["cream"], "whip", ["whipped cream"], ts=("3:05", "3:20"))
    b = unit(["cream"], "whip", ["whipped cream"])
    assert a == b
    assert hash(a) == hash(b)


def test_unit_equality_respects_motion():
    assert unit(["cream"], "whip", ["x"]) != unit(["cream"], "pour", ["x"])


@given(
    states=st.lists(st.sampled_from(STATES), max_size=4),
    ingredients=st.lists(st.sampled_from(WORDS), max_size=4),
    seed=st.randoms(),
)
def test_key_permutation_invariance(states, ingredients, seed):
    shuffled_states = list(states)
    shuffled_ingredients = list(ingredients)
    seed.shuffle(shuffled_states)
    seed.shuffle(shuffled_ingredients)
    assert obj("thing", states, ingredients) == (
        obj("thing", shuffled_states, shuffled_ingredients)
    )
    # mixed case and repeated states, read by the parser, find the same key
    noisy_states = [s.upper() for s in shuffled_states] + [f" {s} " for s in states]
    noisy_ingredients = [i.title() for i in shuffled_ingredients]
    block = "O\tThing\n" + "".join(f"S\t{s}\n" for s in noisy_states)
    block += "".join(f"I\t{i}\n" for i in noisy_ingredients)
    [parsed] = parse_subgraph(block + "M\tmix\nO\tout\n//\n")
    assert parsed.inputs[0] is ObjectKey("THING", noisy_states, noisy_ingredients)
    assert parsed.inputs[0] is obj("thing", states, ingredients)


def test_index_empty():
    graph = FoonGraph([])
    assert len(graph) == 0
    assert graph.output_index == {}


def test_index_single_producer():
    graph = build_graph([(["milk"], "pour", ["cream"])])
    assert graph.output_index[key_of("cream")] == (0,)


def test_index_two_producers_ascending():
    graph = build_graph(
        [
            (["milk"], "pour", ["cream"]),
            (["half and half"], "skim", ["cream"]),
        ]
    )
    assert graph.output_index.get(key_of("cream"), ()) == (0, 1)


def test_index_rejects_duplicates():
    u = unit(["milk"], "pour", ["cream"])
    v, w = unit(["egg"], "beat", ["batter"]), unit(["ice"], "melt", ["water"])
    with pytest.raises(DuplicateUnit):
        FoonGraph([u, u])
    # the error names the first unit that repeats an earlier one
    with pytest.raises(DuplicateUnit, match=r"^unit 3 duplicates an earlier unit: <FunctionalUnit \[egg\]"):
        FoonGraph([v, u, w, v, u, w])


def reference_index(units):
    """Each output key's producer positions, ascending, each unit once,
    found by scanning every unit for the key."""
    keys = {key for u in units for key in u.outputs}
    return {key: tuple(pos for pos, u in enumerate(units) if key in u.outputs) for key in keys}


def test_graph_derives_its_index_from_its_units(corpus_graph):
    rng = random.Random(23)
    twice = unit(["milk"], "split", ["cream", "whey", "cream"])  # lists one key twice
    unit_lists = [corpus_graph.units, [twice, unit(["cream"], "whip", ["cream"])]]
    unit_lists += [random_instance(rng, max_units=20)[0].units for _ in range(200)]
    for units in unit_lists:
        graph = FoonGraph(units)
        assert graph.output_index == reference_index(units)
        assert all(type(positions) is tuple for positions in graph.output_index.values())


def test_graph_is_built_from_its_units_alone(corpus_graph):
    caller_units = list(corpus_graph.units)
    graph = FoonGraph(caller_units)
    caller_units.clear()  # the graph keeps nothing its caller holds
    assert graph.units == corpus_graph.units
    assert graph.output_index == reference_index(corpus_graph.units)
    assert graph.__reduce__()[1] == (graph.units,)
    with pytest.raises(TypeError):
        FoonGraph(corpus_graph.units, corpus_graph.output_index)


def test_index_absent_key():
    graph = build_graph([(["milk"], "pour", ["cream"])])
    assert graph.output_index.get(key_of("gold"), ()) == ()


def test_index_sparse_positions():
    specs = [
        (["a"], "m", ["b"]),
        (["c"], "m", ["d"]),
        (["e"], "m", ["k"]),
        (["f"], "m", ["g"]),
        (["h"], "m", ["i"]),
        (["j"], "m2", ["k"]),
    ]
    graph = build_graph(specs)
    # verified by scanning outputs directly
    expect = tuple(
        pos for pos, u in enumerate(graph.units) if key_of("k") in u.outputs
    )
    assert expect == (2, 5)
    assert graph.output_index.get(key_of("k"), ()) == (2, 5)


def test_index_sound_and_complete(corpus_graph):
    for pos, u in enumerate(corpus_graph.units):
        for out in u.outputs:
            assert pos in corpus_graph.output_index.get(out, ())
    for key, positions in corpus_graph.output_index.items():
        for pos in positions:
            assert key in corpus_graph.units[pos].outputs


def test_whipped_cream_produced_only_by_whip(corpus_graph):
    goal = key_of("whipped cream", ["whipped"])
    brute = [
        pos
        for pos, u in enumerate(corpus_graph.units)
        if goal in u.outputs
    ]
    candidates = corpus_graph.output_index.get(goal, ())
    assert tuple(brute) == candidates
    assert len(candidates) == 1
    assert corpus_graph.units[candidates[0]].motion == "whip"


# --- interning and pickling ---------------------------------------------


def test_equal_keys_are_one_instance():
    assert ObjectKey(" Cream ", ["Whipped", "whipped"]) is ObjectKey("cream", ["whipped"])
    assert ObjectKey("salad", [], ["tomato", "feta"]) is ObjectKey("salad", [], ["feta", "tomato"])
    assert ObjectKey("cream", ["whipped"]) is not ObjectKey("cream")


def test_parsers_share_one_key_per_object():
    units = parse_subgraph("O\tCream\nS\tRaw\nM\twhip\nO\tcream\nS\twhipped\n//\n")
    kitchen = parse_kitchen('[{"object": "cream", "states": ["raw"]}]')
    goal = parse_goal_nodes('[{"object": " CREAM ", "states": ["Whipped"]}]')[0]
    (raw,) = units[0].inputs
    (whipped,) = units[0].outputs
    assert next(iter(kitchen)) is raw
    assert goal is whipped


def test_unreferenced_key_leaves_the_intern_table():
    fields = ("interning probe", (), ())
    key = ObjectKey(*fields)
    assert ObjectKey._interned[fields] is key
    del key
    gc.collect()
    assert fields not in ObjectKey._interned


def test_parser_keeps_no_key_past_its_call():
    fields = ("parser memo probe", ("hot",), ("salt",))
    units = parse_subgraph("O\tParser Memo Probe\nS\tHOT\nI\tsalt\nM\tmix\nO\tparser memo probe\nS\t hot\nI\tSalt\n//\n")
    assert units[0].inputs[0] is units[0].outputs[0] is ObjectKey._interned[fields]
    del units
    gc.collect()
    assert fields not in ObjectKey._interned


def test_units_compare_and_hash_without_key_comparisons(monkeypatch):
    def refuse(self, other):
        raise AssertionError("ObjectKey.__lt__ called")

    monkeypatch.setattr(ObjectKey, "__lt__", refuse)
    subgraphs = [parse_subgraph(path.read_text()) for path in subgraph_paths()]
    once = merge_subgraphs(subgraphs)
    twice = merge_subgraphs(subgraphs + subgraphs)
    assert twice.graph.units == once.graph.units
    to_dot(twice.graph)
    a, b, c = obj("a"), obj("b"), obj("c")
    first = FunctionalUnit([a, b, a], "mix", [c])
    second = FunctionalUnit([b, a, a], "mix", [c])
    assert first == second and hash(first) == hash(second)
    assert first != FunctionalUnit([a, b, b], "mix", [c])


def test_keys_do_not_order():
    with pytest.raises(TypeError):
        ObjectKey("a") < ObjectKey("b")


def test_graph_index_is_read_only(corpus_graph):
    index = FoonGraph(corpus_graph.units).output_index
    key = next(iter(index))
    with pytest.raises(TypeError):
        index[key] = ()
    with pytest.raises(TypeError):
        del index[key]
    with pytest.raises(AttributeError):
        index.pop(key)
    with pytest.raises(AttributeError):
        index.clear()
    assert index == reference_index(corpus_graph.units)


def test_graph_round_trips_through_pickle_and_deepcopy(corpus_graph):
    originals = {key: key for key in corpus_graph.output_index}
    for copied in (pickle.loads(pickle.dumps(corpus_graph)), copy.deepcopy(corpus_graph)):
        assert copied.units == corpus_graph.units
        assert copied.output_index == corpus_graph.output_index
        for original, unit_copy in zip(corpus_graph.units, copied.units):
            assert unit_copy.motion == original.motion
            assert (unit_copy.start_time, unit_copy.end_time) == (original.start_time, original.end_time)
            assert all(a is b for a, b in zip(unit_copy.inputs, original.inputs))
            assert all(a is b for a, b in zip(unit_copy.outputs, original.outputs))
        for key in copied.output_index:
            assert originals[key] is key


def _hash_or_none(value):
    try:
        return hash(value)
    except TypeError:  # a TaskTree holds its mutable SearchStats
        return None


def test_units_and_graphs_refuse_deletion():
    key = key_of("cream", ["whipped"])
    whip = unit(["cream"], "whip", ["whipped cream"])
    graph = FoonGraph([whip])
    stats = SearchStats(Algorithm.IDS)
    records = [Decision(key, (0,), 0, (1.0,)), TaskTree((0,), stats), MergeResult(graph, 1, 0)]
    assert {type(record) for record in records} == set(FrozenRecord.__subclasses__())
    for target in (key, whip, graph, *records):
        before = {field: getattr(target, field) for field in type(target).__slots__ if field != "__weakref__"}
        shown = (repr(target), _hash_or_none(target))
        message = f"^{type(target).__name__} is immutable$"
        for field in before:
            with pytest.raises(AttributeError, match=message):
                setattr(target, field, None)
            with pytest.raises(AttributeError, match=message):
                delattr(target, field)
        assert {field: getattr(target, field) for field in before} == before
        assert (repr(target), _hash_or_none(target)) == shown
    for field in type(stats).__slots__:  # a retrieval fills its stats in place
        setattr(stats, field, 7)
        assert getattr(stats, field) == 7


def test_record_types_keep_their_value_semantics():
    key = key_of("cream", ["whipped"])
    cream_in = [key_of("cream")]
    whip = FunctionalUnit(cream_in, "  Whip ", [key], None, "3:20")  # canonicalised; a lone timestamp is the start
    decision = Decision(key, (1, 4), 4, (2.0, 1.0))
    stats = SearchStats(Algorithm.GBFS_H2, 3, 5, None, [decision])
    tree = TaskTree((1, 4), stats)
    graph = FoonGraph([])
    merged = MergeResult(graph, 0, 2)
    cream = "ObjectKey('cream', states=['whipped'], ingredients=[])"
    assert (whip.motion, whip.start_time, whip.end_time) == ("whip", "3:20", None)
    assert repr(whip) == "<FunctionalUnit [cream] -whip-> [cream{whipped}]>"
    assert repr(decision) == f"Decision(needed={cream}, candidates=(1, 4), chosen=4, scores=(2.0, 1.0))"
    stats_repr = (
        "SearchStats(algorithm=<Algorithm.GBFS_H2: 'gbfs2'>, units_expanded=3, "
        f"candidate_evaluations=5, final_depth_bound=None, decision_log=[{decision!r}])"
    )
    assert repr(stats) == stats_repr
    assert repr(tree) == f"TaskTree(steps=(1, 4), stats={stats_repr})"
    assert repr(merged) == f"MergeResult(graph={graph!r}, kept=0, dropped=2)"

    hashable = [whip, decision, merged]
    twins = [
        FunctionalUnit(inputs=cream_in, motion="whip", outputs=[key], start_time="3:20"),
        Decision(needed=key, candidates=(1, 4), chosen=4, scores=(2.0, 1.0)),
        MergeResult(graph, 0, 2),
    ]
    for record, twin in zip(hashable, twins):
        assert record == twin and hash(record) == hash(twin) and record is not twin
        assert record != (record,)
    assert whip != FunctionalUnit(cream_in, "beat", [key], "3:20")
    assert decision != Decision(key, (1, 4), 1, (2.0, 1.0))
    assert stats == SearchStats(Algorithm.GBFS_H2, 3, 5, None, [decision])
    assert stats != SearchStats(Algorithm.GBFS_H2, 3, 5)
    assert tree == TaskTree((1, 4), SearchStats(Algorithm.GBFS_H2, 3, 5, None, [decision]))
    assert tree != TaskTree((4, 1), stats)
    for unhashable in (stats, tree):
        with pytest.raises(TypeError):
            hash(unhashable)

    for record in [whip, decision, stats, tree]:
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert copied == record and type(copied) is type(record)
    with_end = FunctionalUnit(cream_in, "whip", [key], "1:00", "2:00")
    assert (with_end.start_time, with_end.end_time) == ("1:00", "2:00")
    for original in (whip, with_end):  # unit equality ignores timestamps, so compare them apart
        fields = (original.motion, original.start_time, original.end_time)
        for copied in (pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
            assert (copied.motion, copied.start_time, copied.end_time) == fields
    merged_copy = pickle.loads(pickle.dumps(merged))
    assert (merged_copy.graph.units, merged_copy.kept, merged_copy.dropped) == ((), 0, 2)

    for record, field in [
        (whip, "motion"),
        (decision, "chosen"),
        (tree, "steps"),
        (merged, "kept"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    stats.units_expanded += 1  # a search fills its stats in place
    stats.decision_log.append(decision)
    assert (stats.units_expanded, len(stats.decision_log)) == (4, 2)
    fresh = SearchStats(Algorithm.IDS)
    assert fresh == SearchStats(
        algorithm=Algorithm.IDS, units_expanded=0, candidate_evaluations=0, final_depth_bound=None, decision_log=[]
    )
    assert fresh.decision_log is not SearchStats(Algorithm.IDS).decision_log

    with pytest.raises(ValueError, match="motion name must be non-empty"):
        FunctionalUnit(cream_in, "  ", [key])
    with pytest.raises(ValueError, match="chosen unit must be among the candidates"):
        Decision(key, (1, 4), 2, (2.0, 1.0))
    with pytest.raises(ValueError, match="one score per candidate"):
        Decision(key, (1, 4), 4, (2.0,))


def test_keys_built_concurrently_stay_equal():
    # the intern table is filled under a lock, so keys for one object built
    # at once in many threads are one instance
    names = [f"race probe {i}" for i in range(200)]
    built: list[list[ObjectKey]] = []

    def build(seed):
        order = random.Random(seed).sample(names, len(names))
        built.append([ObjectKey(name.upper(), ["Hot", "hot"], ["b", "a"]) for name in order])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 8
    by_name: dict[str, set] = {}
    for keys in built:
        for key in keys:
            by_name.setdefault(key.name, set()).add(key)
    assert sorted(by_name) == sorted(names)
    assert all(len(keys) == 1 for keys in by_name.values())


def test_racing_constructors_return_one_instance(monkeypatch):
    # the first two table lookups wait for each other before they return, so
    # both threads miss before either inserts; the loser must then find the
    # winner's key
    barrier = threading.Barrier(2)
    lookups = count()

    class RacingTable(weakref.WeakValueDictionary):
        def get(self, key, default=None):
            found = super().get(key, default)
            if next(lookups) < 2:
                try:
                    barrier.wait(timeout=2)
                except threading.BrokenBarrierError:
                    pass  # one lookup at a time: nothing to race
            return found

    monkeypatch.setattr(ObjectKey, "_interned", RacingTable())
    built: list[ObjectKey] = []
    threads = [threading.Thread(target=lambda: built.append(ObjectKey("barrier probe"))) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    a, b = built
    assert a is b


# --- task tree validation -------------------------------------------------


def _milk_to_whipped_cream():
    graph = build_graph([(["milk"], "skim", ["cream"]), (["cream"], "whip", ["whipped cream"])])
    return graph, frozenset({key_of("milk")}), key_of("whipped cream")


def test_validate_task_tree_accepts_executable_trees():
    graph, kitchen, goal = _milk_to_whipped_cream()
    validate_task_tree(graph, kitchen, goal, TaskTree((0, 1), SearchStats(Algorithm.IDS)))
    validate_task_tree(graph, kitchen, key_of("milk"), TaskTree((), SearchStats(Algorithm.IDS)))


@pytest.mark.parametrize(
    "steps, message",
    [
        ((0, 0, 1), "task tree repeats a unit"),
        ((1,), "step 1 needs cream which is not available"),
        ((), "empty task tree but goal not in kitchen"),
        ((0,), "final step does not produce the goal"),
        ((0, -1), "step -1 is not a unit of the graph"),  # not read as the last unit
        ((0, 2), "step 2 is not a unit of the graph"),
    ],
)
def test_validate_task_tree_rejects(steps, message):
    graph, kitchen, goal = _milk_to_whipped_cream()
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_task_tree(graph, kitchen, goal, TaskTree(steps, SearchStats(Algorithm.IDS)))
