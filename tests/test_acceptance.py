"""End-to-end acceptance checks. Each test prints one PASS line when its
criterion holds; any failure shows up as a normal pytest failure."""

import random
import time

import pytest

from foon.cli import main as cli_main
from foon.core import validate_task_tree
from foon.merge import merge_subgraphs
from foon.oracle import enumerate_resolutions, minima
from foon.parser import parse_subgraph, write_subgraph
from foon.retrieval import (
    HeuristicId,
    UnresolvableGoal,
    retrieve_gbfs,
    retrieve_ids,
)
from conftest import fixture_graph
from helpers import CliRunner, audit_decision_log, chain_graph, random_instance
from test_parser import functional_units

N_RANDOM_GRAPHS = 200
RANDOM_SEED = 73214


def _instances(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    """Corpus goals plus the randomized instance battery."""
    for goal in corpus_goals:
        yield corpus_graph, corpus_kitchen, goal, corpus_rates
    rng = random.Random(RANDOM_SEED)
    for _ in range(N_RANDOM_GRAPHS):
        yield random_instance(rng)


def _run_all(graph, kitchen, goal, rates):
    results = {}
    for name, run in (
        ("ids", lambda: retrieve_ids(graph, kitchen, goal)),
        ("gbfs1", lambda: retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE, rates)),
        ("gbfs2", lambda: retrieve_gbfs(graph, kitchen, goal, HeuristicId.INPUT_COUNT, rates)),
    ):
        try:
            results[name] = run()
        except UnresolvableGoal:
            results[name] = None
    return results


def test_criterion_1_oracle_equivalence(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    started = time.monotonic()
    checked = 0
    for graph, kitchen, goal, rates in _instances(
        corpus_graph, corpus_kitchen, corpus_goals, corpus_rates
    ):
        resolutions = enumerate_resolutions(graph, kitchen, goal)
        results = _run_all(graph, kitchen, goal, rates)
        if resolutions:
            for name, tree in results.items():
                assert tree is not None, f"{name} failed on a resolvable instance"
                validate_task_tree(graph, kitchen, goal, tree)
            assert results["ids"].stats.final_depth_bound == minima(graph, kitchen, goal)[1]
        else:
            for name, tree in results.items():
                assert tree is None, f"{name} resolved an unresolvable instance"
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle battery took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: oracle equivalence on {checked} instances in {elapsed:.1f}s")


def test_criterion_2_choice_point_audit(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    decisions = 0
    for graph, kitchen, goal, rates in _instances(
        corpus_graph, corpus_kitchen, corpus_goals, corpus_rates
    ):
        results = _run_all(graph, kitchen, goal, rates)
        for name, minimize in (("gbfs1", False), ("gbfs2", True)):
            tree = results[name]
            if tree is None:
                continue
            audit_decision_log(tree.stats, minimize)
            decisions += len(tree.stats.decision_log)
    assert decisions > 0
    print(f"\nPASS criterion 2: {decisions} GBFS decisions all heuristic-optimal")


@pytest.mark.parametrize(
    "name, expected",
    [
        ("ids_best", {"ids": 2, "gbfs1": 4, "gbfs2": 4}),
        ("gbfs2_best", {"ids": 4, "gbfs1": 4, "gbfs2": 3}),
        ("gbfs1_best", {"ids": 6, "gbfs1": 3, "gbfs2": 6}),
    ],
)
def test_criterion_3_directional_reproduction(
    name, expected, fixture_kitchen, fixture_goal, fixture_rates
):
    graph = fixture_graph(name)
    results = _run_all(graph, fixture_kitchen, fixture_goal, fixture_rates)
    counts = {algo: len(tree.steps) for algo, tree in results.items()}
    assert counts == expected
    winner = name.split("_")[0]
    others = [c for algo, c in counts.items() if algo != winner]
    assert all(counts[winner] < c for c in others)
    # the documented counts are genuinely achievable and nothing smaller is
    # claimed than the oracle's minimum
    assert min(counts.values()) >= minima(graph, fixture_kitchen, fixture_goal)[0]
    sets = {frozenset(tree.steps) for tree in results.values()}
    oracle_sets = {
        s for s, _ in enumerate_resolutions(graph, fixture_kitchen, fixture_goal)
    }
    assert sets <= oracle_sets
    print(f"\nPASS criterion 3 ({name}): counts {counts}")


def test_criterion_4_parser_round_trip():
    from hypothesis import given, settings

    runs = {"count": 0}

    @settings(max_examples=100, deadline=None)
    @given(functional_units())
    def one(unit):
        text = write_subgraph([unit])
        assert parse_subgraph(text) == [unit]
        assert write_subgraph(parse_subgraph(text)) == text
        runs["count"] += 1

    one()
    assert runs["count"] >= 100
    print(f"\nPASS criterion 4: {runs['count']} parser round-trips byte-exact")


def test_criterion_5_merge_idempotence(corpus_subgraphs):
    once = merge_subgraphs(corpus_subgraphs)
    twice = merge_subgraphs(corpus_subgraphs + corpus_subgraphs)
    assert twice.kept == once.kept
    assert twice.dropped == once.dropped + once.kept + once.dropped
    assert set(twice.graph.units) == set(once.graph.units)
    print(f"\nPASS criterion 5: double-merge keeps {twice.kept}, drops duplicates")


def test_criterion_6_cycle_termination():
    from helpers import build_graph, key_of

    graph = build_graph(
        [
            (["b"], "m1", ["a"]),
            (["c"], "m2", ["b"]),
            (["a"], "m3", ["c"]),
        ]
    )
    kitchen = frozenset(set())
    goal = key_of("a")
    started = time.monotonic()
    outcomes = []
    for run in (
        lambda: retrieve_ids(graph, kitchen, goal),
        lambda: retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE),
        lambda: retrieve_gbfs(graph, kitchen, goal, HeuristicId.INPUT_COUNT),
    ):
        try:
            tree = run()
            validate_task_tree(graph, kitchen, goal, tree)
            outcomes.append("tree")
        except UnresolvableGoal:
            outcomes.append("unresolvable")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: cyclic graph handled in {elapsed * 1000:.0f}ms ({outcomes})")


def test_criterion_7_compare_determinism(tmp_path):
    import shutil

    from foon.data import corpus_file, subgraph_paths

    runner = CliRunner()
    inputs = [str(shutil.copy(p, tmp_path)) for p in subgraph_paths()]
    kitchen = str(shutil.copy(corpus_file("kitchen.json"), tmp_path))
    goals = str(shutil.copy(corpus_file("goal_nodes.json"), tmp_path))
    rates = str(shutil.copy(corpus_file("motion.txt"), tmp_path))
    universal = str(tmp_path / "universal.foon.txt")
    merged = runner.invoke(cli_main, ["merge", *inputs, "-o", universal])
    assert merged.exit_code == 0, merged.output

    args = ["compare", universal, kitchen, goals, "--motion-rates", rates, "--format", "csv"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    print("\nPASS criterion 7: compare CSV byte-identical across runs")


def test_criterion_8_growth_observability():
    ids_work = []
    gbfs_work = []
    for depth in range(2, 9):
        graph, kitchen, goal = chain_graph(depth)
        ids_work.append(retrieve_ids(graph, kitchen, goal).stats.units_expanded)
        h1 = retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE)
        h2 = retrieve_gbfs(graph, kitchen, goal, HeuristicId.INPUT_COUNT)
        gbfs_work.append(max(h1.stats.units_expanded, h2.stats.units_expanded))
    assert all(a < b for a, b in zip(ids_work, ids_work[1:])), ids_work
    for depth, ids_n, gbfs_n in zip(range(2, 9), ids_work, gbfs_work):
        if depth >= 4:
            assert ids_n > gbfs_n, (depth, ids_n, gbfs_n)
    print(f"\nPASS criterion 8: IDS work {ids_work} vs GBFS work {gbfs_work}")
