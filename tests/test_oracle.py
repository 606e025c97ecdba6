import random
import time

import pytest

from foon.core import Algorithm, SearchStats, TaskTree, validate_task_tree
from foon.oracle import TooLarge, enumerate_resolutions, minima
from foon.retrieval import HeuristicId, UnresolvableGoal, execution_order, retrieve_gbfs, retrieve_ids
from helpers import (
    brute_force_resolutions,
    build_graph,
    chain_graph,
    fan_graph,
    key_of,
    ladder_graph,
    random_instance,
)


def milk_chain():
    graph = build_graph(
        [
            (["cream"], "whip", ["whipped cream"]),
            (["milk"], "skim", ["cream"]),
        ]
    )
    return graph, frozenset({key_of("milk")}), key_of("whipped cream")


def ab_graph():
    graph = build_graph(
        [
            (["p", "q"], "blend", ["goal"]),
            (["r"], "mash", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("p"), key_of("q"), key_of("r")})
    return graph, kitchen, key_of("goal")


def test_goal_in_kitchen():
    graph, _, goal = milk_chain()
    kitchen = frozenset({goal})
    assert enumerate_resolutions(graph, kitchen, goal) == [(frozenset(), 0)]
    assert minima(graph, kitchen, goal)[0] == 0
    assert minima(graph, kitchen, goal)[1] == 0


def test_two_unit_chain_single_resolution():
    graph, kitchen, goal = milk_chain()
    # hand enumeration of all four subsets: only {0, 1} resolves the goal
    assert enumerate_resolutions(graph, kitchen, goal) == [(frozenset({0, 1}), 2)]
    assert minima(graph, kitchen, goal)[0] == 2
    assert minima(graph, kitchen, goal)[1] == 2


def test_or_graph_two_singleton_resolutions():
    graph, kitchen, goal = ab_graph()
    resolutions = enumerate_resolutions(graph, kitchen, goal)
    assert sorted(len(s) for s, _ in resolutions) == [1, 1]
    assert {s for s, _ in resolutions} == {frozenset({0}), frozenset({1})}


def test_unresolvable_goal():
    graph, kitchen, _ = milk_chain()
    missing = key_of("cake")
    assert enumerate_resolutions(graph, kitchen, missing) == []
    with pytest.raises(UnresolvableGoal):
        minima(graph, kitchen, missing)[0]
    with pytest.raises(UnresolvableGoal):
        minima(graph, kitchen, missing)[1]
    # the reason is the one the unbounded search gives: no unit produces the
    # goal, or some does but the kitchen cannot derive it through any
    stuck = build_graph([(["a"], "bake", ["cake"])]), frozenset({key_of("b")})
    for instance, reason in [((graph, kitchen), "no-candidates"), (stuck, "dead-end")]:
        for search in (minima, lambda *args: retrieve_gbfs(*args, HeuristicId.INPUT_COUNT)):
            with pytest.raises(UnresolvableGoal) as raised:
                search(*instance, missing)
            assert raised.value.reason == reason


def test_guard_refuses_huge_enumerations():
    graph, kitchen, goal = fan_graph(20)  # 2**20 resolutions
    with pytest.raises(TooLarge):
        enumerate_resolutions(graph, kitchen, goal)


def test_deep_chain_enumerates_without_recursion_error():
    graph, kitchen, goal = chain_graph(600)
    assert enumerate_resolutions(graph, kitchen, goal) == [(frozenset(range(0, 1200, 2)), 600)]


def test_ladder_depth_is_computed_once_per_key():
    graph, kitchen, goal = ladder_graph(30)
    started = time.monotonic()
    assert minima(graph, kitchen, goal)[1] == 30
    assert time.monotonic() - started < 1.0


def test_matches_power_set_scan_on_corpus(corpus_graph, corpus_kitchen, corpus_goals):
    for goal in corpus_goals:
        fast = enumerate_resolutions(corpus_graph, corpus_kitchen, goal)
        slow = brute_force_resolutions(corpus_graph, corpus_kitchen, goal)
        assert fast == slow


def test_matches_power_set_scan_on_random_graphs():
    rng = random.Random(20240917)
    for _ in range(25):
        graph, kitchen, goal, _ = random_instance(rng)
        fast = enumerate_resolutions(graph, kitchen, goal)
        slow = brute_force_resolutions(graph, kitchen, goal)
        assert fast == slow


def test_every_resolution_is_executable(corpus_graph, corpus_kitchen, corpus_goals):
    for goal in corpus_goals:
        for units, _ in enumerate_resolutions(corpus_graph, corpus_kitchen, goal):
            steps = execution_order(corpus_graph, corpus_kitchen, set(units))
            tree = TaskTree(steps, SearchStats(Algorithm.IDS))
            validate_task_tree(corpus_graph, corpus_kitchen, goal, tree)


def test_ids_depth_agrees_with_oracle_on_chains():
    for depth in range(1, 6):
        graph, kitchen, goal = chain_graph(depth)
        tree = retrieve_ids(graph, kitchen, goal)
        assert tree.stats.final_depth_bound == minima(graph, kitchen, goal)[1] == depth
