import json
import random
import sys
import threading
from collections import Counter

import pytest

import foon.retrieval
import helpers
from foon.cli import main as cli_main
from foon.core import Algorithm, GoalSpec, SearchStats, index_outputs, validate_task_tree
from foon.data import corpus_file
from foon.oracle import TooLarge, enumerate_resolutions
from foon.parser import write_subgraph
from foon.retrieval import (
    CyclicResolution,
    HeuristicId,
    UnresolvableGoal,
    derivation_depths,
    execution_order,
    heuristic_input_count,
    retrieve_gbfs,
    retrieve_ids,
)
from helpers import (
    CliRunner,
    audit_decision_log,
    brute_force_resolutions,
    build_graph,
    chain_graph,
    key_of,
    naive_execution_order,
    obj,
    random_instance,
    recursive_retrieve_gbfs,
    recursive_retrieve_ids,
    unit,
)

MILK_CHAIN = [
    (["cream"], "whip", ["whipped cream"]),  # U1
    (["milk"], "skim", ["cream"]),  # U2
]


def milk_setup():
    graph = build_graph(MILK_CHAIN)
    kitchen = frozenset({key_of("milk")})
    return graph, kitchen, GoalSpec(key_of("whipped cream"))


def all_algorithms(graph, kitchen, goal, rates={}, depth_cap=100):
    return [
        retrieve_ids(graph, kitchen, goal, depth_cap=depth_cap),
        retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE, rates),
        retrieve_gbfs(graph, kitchen, goal, HeuristicId.INPUT_COUNT, rates),
    ]


@pytest.fixture()
def built_stats(monkeypatch):
    """Every ``SearchStats`` the retrieval module builds, so a failed
    retrieval's counters can be read too."""
    built = []

    def recording(*args, **kwargs):
        built.append(SearchStats(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(foon.retrieval, "SearchStats", recording)
    return built


DERIVATIONS = ("derivation_depths", "_chain_bounds", "_input_counts")


@pytest.fixture
def derivations(monkeypatch):
    """``(reads, builds)``: per derivation in the graphs' memos, how often the
    library read it and how often it was built because the memo lacked it."""
    reads, builds = Counter(), Counter()
    for name in DERIVATIONS:
        derived = getattr(foon.retrieval, name)

        def build(*args, name=name, build=derived.__wrapped__):
            builds[name] += 1
            return build(*args)

        def read(*args, name=name, derived=derived):
            reads[name] += 1
            return derived(*args)

        monkeypatch.setattr(derived, "__wrapped__", build)
        monkeypatch.setattr(foon.retrieval, name, read)
    monkeypatch.setattr(foon.cli, "derivation_depths", foon.retrieval.derivation_depths)
    return reads, builds


# --- heuristics ---------------------------------------------------------


def test_input_count_plain():
    assert heuristic_input_count(unit(["a", "b"], "m", ["x"])) == 2


def test_input_count_with_ingredients():
    u = unit([obj("bowl", ["empty"], ["tomato", "feta"]), obj("knife")], "m", ["x"])
    assert heuristic_input_count(u) == 4


def test_input_count_single_object_three_ingredients():
    u = unit([obj("salad", [], ["a", "b", "c"])], "m", ["x"])
    assert heuristic_input_count(u) == 4


# --- IDS ----------------------------------------------------------------


def test_ids_goal_in_kitchen():
    graph, _, _ = milk_setup()
    kitchen = frozenset({key_of("whipped cream")})
    tree = retrieve_ids(graph, kitchen, GoalSpec(key_of("whipped cream")))
    assert tree.steps == ()
    assert tree.stats.final_depth_bound == 0


def test_ids_two_unit_chain():
    graph, kitchen, goal = milk_setup()
    tree = retrieve_ids(graph, kitchen, goal)
    assert tree.steps == (1, 0)  # skim milk, then whip
    assert tree.stats.final_depth_bound == 2
    validate_task_tree(graph, kitchen, goal, tree)


def test_ids_no_candidates():
    graph, kitchen, _ = milk_setup()
    with pytest.raises(UnresolvableGoal) as err:
        retrieve_ids(graph, kitchen, GoalSpec(key_of("cake")))
    assert err.value.reason == "no-candidates"


def test_ids_depth_cap_exhausted(built_stats):
    graph, kitchen, goal = milk_setup()  # the goal is 2 hops deep
    with pytest.raises(UnresolvableGoal) as err:
        retrieve_ids(graph, kitchen, goal, depth_cap=1)
    assert err.value.reason == "depth-cap-exhausted"
    (stats,) = built_stats  # no bound was searched
    assert stats.units_expanded == stats.candidate_evaluations == 0


def test_ids_refuses_a_negative_depth_cap():
    graph, kitchen, goal = milk_setup()
    with pytest.raises(ValueError, match="^depth_cap must be >= 0$"):
        retrieve_ids(graph, kitchen, goal, depth_cap=-1)


def test_ids_backtracks_past_dead_end():
    graph = build_graph(
        [
            (["ghost"], "m1", ["goal"]),  # dead end, tried first
            (["base"], "m2", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("base")})
    tree = retrieve_ids(graph, kitchen, GoalSpec(key_of("goal")))
    assert tree.steps == (1,)


def test_ids_reused_subtree_counts_its_deepest_branch():
    # "shared" resolves at level 1 with branches of height 1 and 2, then is
    # reused at level 2 under "side": only bound 4 fits the deeper branch
    graph = build_graph(
        [
            (["shared", "side"], "join", ["goal"]),
            (["shared"], "m1", ["side"]),
            (["k1", "mid"], "m2", ["shared"]),
            (["k2"], "m3", ["mid"]),
        ]
    )
    kitchen = frozenset({key_of("k1"), key_of("k2")})
    goal = GoalSpec(key_of("goal"))
    tree = retrieve_ids(graph, kitchen, goal)
    assert tree.stats.final_depth_bound == 4
    assert tree.steps == (3, 2, 1, 0)
    reference = recursive_retrieve_ids(graph, kitchen, goal)
    assert (tree.steps, tree.stats) == (reference.steps, reference.stats)


def test_ids_expansions_accumulate_across_bounds():
    graph, kitchen, goal = chain_graph(4)
    tree = retrieve_ids(graph, kitchen, goal)
    assert tree.stats.final_depth_bound == 4
    # re-running just the final bound would expand fewer units
    assert tree.stats.units_expanded > len(tree.steps)


def test_ids_monotone_work_in_depth():
    expanded = []
    for depth in range(2, 7):
        graph, kitchen, goal = chain_graph(depth)
        expanded.append(retrieve_ids(graph, kitchen, goal).stats.units_expanded)
    assert expanded == sorted(expanded)
    assert len(set(expanded)) == len(expanded)


# --- GBFS ---------------------------------------------------------------


def ab_setup():
    # A: rate 0.9, two kitchen inputs; B: rate 0.5, one kitchen input
    graph = build_graph(
        [
            (["p", "q"], "blend", ["goal"]),  # A
            (["r"], "mash", ["goal"]),  # B
        ]
    )
    kitchen = frozenset({key_of("p"), key_of("q"), key_of("r")})
    rates = {"blend": 0.9, "mash": 0.5}
    return graph, kitchen, GoalSpec(key_of("goal")), rates


def test_gbfs_success_rate_prefers_high_rate():
    graph, kitchen, goal, rates = ab_setup()
    tree = retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE, rates)
    assert tree.steps == (0,)


def test_gbfs_input_count_prefers_fewer_inputs():
    graph, kitchen, goal, rates = ab_setup()
    tree = retrieve_gbfs(graph, kitchen, goal, HeuristicId.INPUT_COUNT, rates)
    assert tree.steps == (1,)


def test_gbfs_goal_in_kitchen():
    graph, _, goal, rates = ab_setup()
    kitchen = frozenset({goal.target})
    for heuristic in HeuristicId:
        assert retrieve_gbfs(graph, kitchen, goal, heuristic, rates).steps == ()


def test_gbfs_missing_rate_loses_to_known_rate():
    graph = build_graph(
        [
            (["p"], "mystery", ["goal"]),
            (["q"], "mash", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("p"), key_of("q")})
    rates = {"mash": 0.4}
    tree = retrieve_gbfs(graph, kitchen, GoalSpec(key_of("goal")), HeuristicId.SUCCESS_RATE, rates)
    assert tree.steps == (1,)
    (decision,) = tree.stats.decision_log
    assert decision.chosen == 1
    assert decision.scores == (0.0, 0.4)


def test_gbfs_backtracks_on_dead_end():
    # best-rate candidate needs an unobtainable object
    graph = build_graph(
        [
            (["ghost"], "blend", ["goal"]),
            (["p"], "mash", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("p")})
    rates = {"blend": 0.9, "mash": 0.5}
    tree = retrieve_gbfs(graph, kitchen, GoalSpec(key_of("goal")), HeuristicId.SUCCESS_RATE, rates)
    assert tree.steps == (1,)
    chosen = [d.chosen for d in tree.stats.decision_log]
    assert chosen == [0, 1]  # tried the 0.9 unit, fell back
    assert tree.stats.decision_log[1].candidates == (1,)


def test_gbfs_tie_breaks_to_lowest_index():
    graph = build_graph(
        [
            (["p"], "mash", ["goal"]),
            (["q"], "mash", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("p"), key_of("q")})
    for heuristic in HeuristicId:
        tree = retrieve_gbfs(graph, kitchen, GoalSpec(key_of("goal")), heuristic)
        assert tree.steps == (0,)


def test_gbfs_unresolvable():
    graph, kitchen, _, rates = ab_setup()
    with pytest.raises(UnresolvableGoal):
        retrieve_gbfs(graph, kitchen, GoalSpec(key_of("cake")), HeuristicId.SUCCESS_RATE, rates)


def test_gbfs_decision_log_audit(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    for goal in corpus_goals:
        h1 = retrieve_gbfs(corpus_graph, corpus_kitchen, goal, HeuristicId.SUCCESS_RATE, corpus_rates)
        audit_decision_log(h1.stats, minimize=False)
        h2 = retrieve_gbfs(corpus_graph, corpus_kitchen, goal, HeuristicId.INPUT_COUNT)
        audit_decision_log(h2.stats, minimize=True)


# --- shared behaviour ---------------------------------------------------


def test_unit_listing_an_output_twice_is_one_producer():
    graph = build_graph([(["a"], "m", ["b", "b"]), (["c"], "m", ["b"])])
    assert graph.output_index[key_of("b")] == (0, 1)
    kitchen, goal = frozenset({key_of("c")}), GoalSpec(key_of("b"))
    ids = retrieve_ids(graph, kitchen, goal)
    assert (ids.steps, ids.stats.units_expanded) == ((1,), 2)
    gbfs = retrieve_gbfs(graph, kitchen, goal, HeuristicId.SUCCESS_RATE)
    assert (gbfs.steps, gbfs.stats.units_expanded) == ((1,), 2)
    assert [d.candidates for d in gbfs.stats.decision_log] == [(0, 1), (1,)]


def test_shared_intermediate_computed_once():
    graph = build_graph(
        [
            (["base"], "prep", ["mid"]),
            (["mid"], "m1", ["left"]),
            (["mid"], "m2", ["right"]),
            (["left", "right"], "join", ["goal"]),
        ]
    )
    kitchen = frozenset({key_of("base")})
    goal = GoalSpec(key_of("goal"))
    for tree in all_algorithms(graph, kitchen, goal):
        assert sorted(tree.steps) == [0, 1, 2, 3]
        validate_task_tree(graph, kitchen, goal, tree)


def test_cycle_with_escape_terminates():
    graph = build_graph(
        [
            (["b"], "m1", ["a"]),
            (["a"], "m2", ["b"]),
            (["k"], "m3", ["b"]),
        ]
    )
    kitchen = frozenset({key_of("k")})
    goal = GoalSpec(key_of("a"))
    for tree in all_algorithms(graph, kitchen, goal):
        assert sorted(tree.steps) == [0, 2]
        validate_task_tree(graph, kitchen, goal, tree)


def test_pure_cycle_unresolvable():
    graph = build_graph(
        [
            (["b"], "m1", ["a"]),
            (["c"], "m2", ["b"]),
            (["a"], "m3", ["c"]),
        ]
    )
    kitchen = frozenset(set())
    goal = GoalSpec(key_of("a"))
    with pytest.raises(UnresolvableGoal):
        retrieve_ids(graph, kitchen, goal)
    for heuristic in HeuristicId:
        with pytest.raises(UnresolvableGoal):
            retrieve_gbfs(graph, kitchen, goal, heuristic)


def test_determinism_byte_identical_trees(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    from foon.export import write_task_tree

    for goal in corpus_goals:
        first = all_algorithms(corpus_graph, corpus_kitchen, goal, corpus_rates)
        second = all_algorithms(corpus_graph, corpus_kitchen, goal, corpus_rates)
        for a, b in zip(first, second):
            assert write_task_tree(corpus_graph, a) == write_task_tree(corpus_graph, b)


# --- the derivation pre-pass -------------------------------------------


def _oracle_depth(graph, kitchen, goal):
    """Smallest depth over the oracle's resolutions, or None without one."""
    return min((depth for _, depth in enumerate_resolutions(graph, kitchen, goal)), default=None)


def test_derivation_depths_match_the_oracle():
    rng = random.Random(4241)
    draws = [random_instance(rng) for _ in range(1500)]
    draws += [random_instance(rng, max_units=30, max_branching=4) for _ in range(400)]
    outcomes = Counter()
    for graph, kitchen, goal, _ in draws:
        try:
            want = _oracle_depth(graph, kitchen, goal)
        except TooLarge:
            continue
        # derivable iff the oracle finds a resolution, at its smallest depth
        assert derivation_depths(graph, kitchen).get(goal.target) == want, goal
        outcomes[want is None] += 1
    assert outcomes[False] >= 500 and outcomes[True] >= 300, outcomes


NAMED_INSTANCES = {
    # ROADMAP open item 1: depth 4 through unit 4, while IDS returns bound 5
    "reuse-too-deep": (
        [
            (["obj4", "obj2"], "m0", ["obj0"]),
            (["obj6", "obj4"], "m1", ["obj2"]),
            (["obj1", "obj5"], "m2", ["obj2"]),
            (["obj8", "obj7"], "m3", ["obj4"]),
            (["obj1", "obj7"], "m4", ["obj4"]),
            (["obj1"], "m5", ["obj7"]),
            (["obj7"], "m6", ["obj8"]),
        ],
        {"obj1", "obj6"},
        "obj0",
        4,
    ),
    # two units each make every input of the goal's unit
    "shared-outputs": (
        [
            (["k0", "k1", "k2", "k3"], "join", ["g0"]),
            (["a"], "m1", ["k0", "k1", "k2", "k3"]),
            (["b"], "m2", ["k0", "k1", "k2", "k3"]),
        ],
        {"a", "b"},
        "g0",
        2,
    ),
    # the join waits on "c" once, however often it lists it
    "repeated-input": (
        [
            (["c", "c", "k"], "join", ["g"]),
            (["k"], "m1", ["c"]),
        ],
        {"k"},
        "g",
        2,
    ),
    "cycle-without-entry": (
        [
            (["b"], "m1", ["a"]),
            (["a"], "m2", ["b"]),
        ],
        {"k"},
        "a",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_INSTANCES))
def test_derivation_depths_named_instances(name):
    specs, stocked, goal_name, depth = NAMED_INSTANCES[name]
    graph = build_graph(specs)
    kitchen = frozenset(key_of(n) for n in stocked)
    goal = GoalSpec(key_of(goal_name))
    assert derivation_depths(graph, kitchen).get(goal.target) == depth
    assert _oracle_depth(graph, kitchen, goal) == depth


def test_ids_fails_a_derivable_goal_that_no_bound_up_to_the_cap_resolves(built_stats, monkeypatch):
    # the goal derives at depth 4, but IDS first resolves it at bound 5
    # (ROADMAP open item 1), so cap 4 tries every bound and falls through to
    # depth-cap-exhausted; mending item 1 makes cap 4 resolve
    specs, stocked, goal_name, depth = NAMED_INSTANCES["reuse-too-deep"]
    graph = build_graph(specs)
    kitchen = frozenset(key_of(n) for n in stocked)
    goal = GoalSpec(key_of(goal_name))
    reference_stats = []

    def recording(*args, **kwargs):
        reference_stats.append(SearchStats(*args, **kwargs))
        return reference_stats[-1]

    monkeypatch.setattr(helpers, "SearchStats", recording)
    for retrieve, built in ((retrieve_ids, built_stats), (recursive_retrieve_ids, reference_stats)):
        with pytest.raises(UnresolvableGoal) as err:
            retrieve(graph, kitchen, goal, depth_cap=depth)
        assert err.value.reason == "depth-cap-exhausted"
        assert (built[-1].units_expanded, built[-1].candidate_evaluations) == (17, 17)
        stats = retrieve(graph, kitchen, goal, depth_cap=depth + 1).stats
        assert (stats.final_depth_bound, stats.units_expanded, stats.candidate_evaluations) == (5, 22, 22)
    args = (graph, kitchen, goal, depth + 1)
    assert _outcome(retrieve_ids, *args) == _outcome(recursive_retrieve_ids, *args)


def test_derivation_depths_are_read_only():
    graph, kitchen, goal = milk_setup()
    depths = derivation_depths(graph, kitchen)
    assert dict(depths) == {key_of("milk"): 0, key_of("cream"): 1, goal.target: 2}
    with pytest.raises(TypeError):
        depths[goal.target] = 0


@pytest.mark.parametrize("heuristic", list(HeuristicId))
@pytest.mark.parametrize("goal_name, reason", [("a", "dead-end"), ("cake", "no-candidates")])
def test_gbfs_underivable_goal_searches_nothing(built_stats, heuristic, goal_name, reason):
    graph = build_graph([(["b"], "m1", ["a"]), (["a"], "m2", ["b"])])
    with pytest.raises(UnresolvableGoal) as err:
        retrieve_gbfs(graph, frozenset({key_of("k")}), GoalSpec(key_of(goal_name)), heuristic)
    assert err.value.reason == reason
    (stats,) = built_stats
    assert stats.units_expanded == stats.candidate_evaluations == 0
    assert stats.decision_log == []


def test_compare_computes_derivation_depths_once(tmp_path, corpus_graph, corpus_goals, derivations):
    reads, builds = derivations
    universal = tmp_path / "universal.foon.txt"
    universal.write_text(write_subgraph(corpus_graph.units), encoding="utf-8")
    args = ["compare", str(universal), str(corpus_file("kitchen.json")), str(corpus_file("goal_nodes.json"))]
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    # loading fills the memo and every retrieval of every goal reads it
    name = "derivation_depths"
    assert (builds[name], reads[name] - builds[name]) == (1, 3 * len(corpus_goals))


# --- the chain bound ----------------------------------------------------


def _cap_search(graph, kitchen, goal, cap, stop_at_cut):
    """IDS's search at bound ``cap``: whether it stopped at a cut, and its stats."""
    stats = SearchStats(Algorithm.IDS)

    def options(key, path):
        for pos in graph.output_index.get(key, ()):
            stats.candidate_evaluations += 1
            if path.isdisjoint(graph.units[pos].inputs):
                yield pos

    _, cut = foon.retrieval._backtrack(graph, kitchen, goal.target, options, stats, cap, stop_at_cut)
    return cut, stats


def _underivable_draws(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        size = {"max_units": 30, "max_branching": 4} if i % 2 else {}
        graph, kitchen, goal, _ = random_instance(rng, **size)
        if goal.target not in derivation_depths(graph, kitchen):
            yield graph, kitchen, goal


def test_chain_bound_rules_out_every_cut():
    outcomes = Counter()
    for graph, kitchen, goal in _underivable_draws(7, 3000):
        bound = foon.retrieval._chain_bounds(graph, kitchen).get(goal.target, 1)
        for cap in (0, 1, 2, 3, 5, 100):
            cut, _ = _cap_search(graph, kitchen, goal, cap, stop_at_cut=True)
            if bound <= cap:
                assert not cut, (goal, cap)
            outcomes[bound <= cap, cut] += 1
    # the bound skipped searches, and where it did not, some searches cut
    # and some did not
    assert outcomes[True, False] >= 3000 and outcomes[False, True] >= 1000, outcomes
    assert outcomes[False, False] >= 100, outcomes


def test_first_cut_gives_the_reason_with_no_more_work():
    stopped_early = 0
    for graph, kitchen, goal in _underivable_draws(8, 1000):
        for cap in (0, 1, 2, 3, 5, 100):
            _, full = _cap_search(graph, kitchen, goal, cap, stop_at_cut=False)
            cut, early = _cap_search(graph, kitchen, goal, cap, stop_at_cut=True)
            # the reference searches every bound to the end
            reason = _outcome(recursive_retrieve_ids, graph, kitchen, goal, cap)
            assert reason == ("depth-cap-exhausted" if cut else "no-candidates")
            assert early.units_expanded <= full.units_expanded
            assert early.candidate_evaluations <= full.candidate_evaluations
            stopped_early += early.units_expanded < full.units_expanded
    assert stopped_early >= 100


def _chain(n):
    """Goal ``g0`` made from ``g1`` ... made from ``g{n-1}``, which nothing
    makes: a chain of n keys, with an empty kitchen."""
    graph = build_graph([([f"g{i + 1}"], f"m{i}", [f"g{i}"]) for i in range(n - 1)])
    return graph, frozenset(), GoalSpec(key_of("g0"))


CHAIN_BOUND_INSTANCES = {
    # name: (graph, kitchen, goal, bound)
    "chain-of-5": (*_chain(5), 5),
    "cycle-without-entry": (
        build_graph([(["b"], "m1", ["a"]), (["a"], "m2", ["b"])]),
        frozenset(),
        GoalSpec(key_of("a")),
        2,
    ),
    "no-producers": (*milk_setup()[:2], GoalSpec(key_of("cake")), 1),
}


@pytest.mark.parametrize("name", sorted(CHAIN_BOUND_INSTANCES))
def test_chain_bound_named_instances(built_stats, name):
    graph, kitchen, goal, bound = CHAIN_BOUND_INSTANCES[name]
    assert foon.retrieval._chain_bounds(graph, kitchen).get(goal.target, 1) == bound
    for cap, reason in ((bound - 1, "depth-cap-exhausted"), (bound, "no-candidates")):
        with pytest.raises(UnresolvableGoal) as err:
            retrieve_ids(graph, kitchen, goal, depth_cap=cap)
        assert err.value.reason == reason == _outcome(recursive_retrieve_ids, graph, kitchen, goal, cap)
    searched, skipped = built_stats
    # below the bound the search stops at its first cut; at the bound none runs
    assert searched.units_expanded == bound - 1
    assert skipped.units_expanded == skipped.candidate_evaluations == 0


def test_reuse_past_the_cap_ends_a_first_cut_search(built_stats):
    # "a" resolves at level 1 under the goal, then "b" reuses it at level 2,
    # where its height of 1 does not fit cap 2: the first cut is that reuse
    graph = build_graph([(["k"], "m1", ["a"]), (["a", "b"], "m2", ["g"]), (["a", "x"], "m3", ["b"])])
    kitchen, goal = frozenset({key_of("k")}), GoalSpec(key_of("g"))
    assert goal.target not in derivation_depths(graph, kitchen)
    assert foon.retrieval._chain_bounds(graph, kitchen)[goal.target] == 3
    for cap, reason in ((2, "depth-cap-exhausted"), (3, "no-candidates")):
        with pytest.raises(UnresolvableGoal) as err:
            retrieve_ids(graph, kitchen, goal, depth_cap=cap)
        assert err.value.reason == reason == _outcome(recursive_retrieve_ids, graph, kitchen, goal, cap)
    searched, skipped = built_stats
    assert (searched.units_expanded, searched.candidate_evaluations) == (3, 3)
    assert skipped.units_expanded == skipped.candidate_evaluations == 0


def test_chain_bounds_are_read_only():
    graph, kitchen, goal = _chain(3)
    bounds = foon.retrieval._chain_bounds(graph, kitchen)
    assert dict(bounds) == {key_of("g0"): 3, key_of("g1"): 2, key_of("g2"): 1}
    with pytest.raises(TypeError):
        bounds[goal.target] = 0


def test_chain_bounds_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 200
    graph, kitchen, goal = _chain(n)
    assert foon.retrieval._chain_bounds(graph, kitchen)[goal.target] == n
    with pytest.raises(UnresolvableGoal) as err:
        retrieve_ids(graph, kitchen, goal, depth_cap=n)
    assert err.value.reason == "no-candidates"


def test_compare_computes_chain_bounds_only_for_underivable_ids_goals(tmp_path, corpus_graph, derivations):
    reads, builds = derivations
    universal = tmp_path / "universal.foon.txt"
    universal.write_text(write_subgraph(corpus_graph.units), encoding="utf-8")
    underivable = tmp_path / "goals.json"
    underivable.write_text(json.dumps([{"object": name} for name in ("cake", "pie", "tart")]), encoding="utf-8")
    kitchen = str(corpus_file("kitchen.json"))
    resolvable = corpus_file("goal_nodes.json")
    result = CliRunner().invoke(cli_main, ["compare", str(universal), kitchen, str(resolvable)])
    assert result.exit_code == 0, result.output
    assert (builds["_chain_bounds"], reads["_chain_bounds"]) == (0, 0)  # every goal resolves
    result = CliRunner().invoke(cli_main, ["compare", str(universal), kitchen, str(underivable)])
    assert result.exit_code == 1, result.output
    # the first IDS failure pays for the pass, the others read it
    assert (builds["_chain_bounds"], reads["_chain_bounds"] - builds["_chain_bounds"]) == (1, 2)


# --- the iterative engine against the recursive reference --------------


def _outcome(retrieve, *args):
    """The reason of a failure; else the steps, every counter and the
    decision log. A failure's counters are left out: the engine decides it
    from ``derivation_depths`` and the chain bound, and skips searches the
    reference runs."""
    try:
        tree = retrieve(*args)
    except UnresolvableGoal as exc:
        return exc.reason
    stats = tree.stats
    return (
        tree.steps,
        stats.units_expanded,
        stats.candidate_evaluations,
        stats.final_depth_bound,
        stats.decision_log,
    )


def test_engine_matches_recursive_reference(corpus_graph, corpus_kitchen, corpus_goals, corpus_rates):
    instances = [(corpus_graph, corpus_kitchen, goal, corpus_rates) for goal in corpus_goals]
    rng = random.Random(60221)
    instances += [random_instance(rng) for _ in range(1000)]
    instances += [random_instance(rng, max_units=24, max_branching=4) for _ in range(200)]
    outcomes = Counter()
    for graph, kitchen, goal, rates in instances:
        runs = [
            (f"ids{cap}", retrieve_ids, recursive_retrieve_ids, (cap,)) for cap in (0, 1, 2, 3, 100)
        ] + [
            (h.value, retrieve_gbfs, recursive_retrieve_gbfs, (h, rates)) for h in HeuristicId
        ]
        for name, engine, reference, extra in runs:
            args = (graph, kitchen, goal) + extra
            got = _outcome(engine, *args)
            assert got == _outcome(reference, *args), (name, goal)
            outcomes[name, got if isinstance(got, str) else "resolved"] += 1
    # every algorithm both resolved and failed, for every reason it can give
    for name in ("ids0", "ids1", "ids2", "ids3", "ids100", "success-rate", "input-count"):
        assert outcomes[name, "resolved"] >= 50, name
    for name in ("ids1", "ids2", "ids3"):
        assert outcomes[name, "depth-cap-exhausted"] >= 50, name
    for name in ("ids100", "success-rate", "input-count"):
        assert outcomes[name, "no-candidates"] >= 50, name
    for name in ("success-rate", "input-count"):
        assert outcomes[name, "dead-end"] >= 50, name


def test_gbfs_matches_recursive_reference_as_input_counts_vary_and_graphs_switch(derivations):
    # ingredients spread input counts past 1 and 2 and still tie; each round
    # runs every goal of one graph with both heuristics, and the rounds go
    # A, B, A, so each graph's memo of input counts is read warm, and A's
    # survives the switch to B
    reads, builds = derivations
    rng = random.Random(14)
    outcomes, counts, ties = Counter(), Counter(), 0
    for _ in range(150):
        pair = [random_instance(rng, max_units=16, max_ingredients=3) for _ in range(2)]
        for turn, (graph, kitchen, _, rates) in enumerate(pair + pair[:1]):
            built = builds["_input_counts"]
            for target in graph.output_index:
                for heuristic in HeuristicId:
                    args = (graph, kitchen, GoalSpec(target), heuristic, rates)
                    got = _outcome(retrieve_gbfs, *args)
                    assert got == _outcome(recursive_retrieve_gbfs, *args), (heuristic, target)
                    outcomes[heuristic, got if isinstance(got, str) else "resolved"] += 1
                    if heuristic is HeuristicId.INPUT_COUNT and not isinstance(got, str):
                        for decision in got[-1]:
                            counts.update(decision.scores)
                            ties += decision.scores.count(min(decision.scores)) > 1
            assert builds["_input_counts"] - built <= (turn < 2)
    for heuristic in HeuristicId:
        assert outcomes[heuristic, "resolved"] >= 1000 and outcomes[heuristic, "dead-end"] >= 400, heuristic
    assert sorted(counts) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] and ties >= 150
    assert builds["_input_counts"] >= 250 and reads["_input_counts"] - builds["_input_counts"] >= 1000


def test_input_count_memo_stays_off_failures_and_success_rates(tmp_path, corpus_graph, corpus_goals, derivations):
    reads, builds = derivations
    universal = tmp_path / "universal.foon.txt"
    universal.write_text(write_subgraph(corpus_graph.units), encoding="utf-8")
    underivable = tmp_path / "goals.json"
    underivable.write_text(json.dumps([{"object": name} for name in ("cake", "pie", "tart")]), encoding="utf-8")
    inputs = [str(universal), str(corpus_file("kitchen.json"))]
    resolvable = str(corpus_file("goal_nodes.json"))
    for args, exit_code in [
        (["compare", *inputs, str(underivable)], 1),  # every algorithm, every goal fails
        (["retrieve", *inputs, resolvable, "--algo", "gbfs1", "--out-dir", str(tmp_path / "h1")], 0),
    ]:
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == exit_code, result.output
        assert (builds["_input_counts"], reads["_input_counts"]) == (0, 0)
    args = ["retrieve", *inputs, resolvable, "--algo", "gbfs2", "--out-dir", str(tmp_path / "h2")]
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output
    assert (builds["_input_counts"], reads["_input_counts"] - builds["_input_counts"]) == (1, len(corpus_goals) - 1)


def test_concurrent_gbfs_over_one_graph_matches_serial_runs():
    # the memo of input counts is the one mutable thing retrievals over a
    # shared graph share; threads that fill it at once from cold must see the
    # scores a serial run sees
    rng = random.Random(4)
    layers = [
        [key_of(f"o{layer}_{i}", ingredients=rng.sample(["egg", "salt", "oil"], rng.randint(0, 3))) for i in range(30)]
        for layer in range(7)
    ]
    units = [
        unit(rng.sample(layers[layer + 1], 3), rng.choice(["mix", "stir", "bake"]), [key])
        for layer in range(6)
        for key in layers[layer]
        for _ in range(3)
    ]
    units = list(dict.fromkeys(units))
    kitchen = frozenset(layers[6])
    goals = [GoalSpec(key) for key in layers[0]]

    def run_all(graph, order):
        return {goal: _outcome(retrieve_gbfs, graph, kitchen, goal, HeuristicId.INPUT_COUNT) for goal in order}

    serial = run_all(index_outputs(units), goals)
    assert all(not isinstance(outcome, str) for outcome in serial.values())
    results = []
    graph = index_outputs(units)  # a new graph, whose memo is cold
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda seed=seed: results.append(run_all(graph, random.Random(seed).sample(goals, 30)))
            )
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4
    assert all(result == serial for result in results)


# --- the graph's memo ---------------------------------------------------


def _retrieve_all(graph, kitchen, goal):
    """Every algorithm's outcome for ``goal``, failures included."""
    return [_outcome(retrieve_ids, graph, kitchen, goal)] + [
        _outcome(retrieve_gbfs, graph, kitchen, goal, heuristic) for heuristic in HeuristicId
    ]


def test_alternating_kitchens_build_each_derivation_once_per_kitchen(derivations):
    _, builds = derivations
    graph, kitchen, goal = milk_setup()
    runs = [(k, g) for k in (kitchen, frozenset({key_of("cream")})) for g in (goal, GoalSpec(key_of("cake")))]
    first = [_retrieve_all(graph, *run) for run in runs]
    for _ in range(3):
        assert [_retrieve_all(graph, *run) for run in runs] == first
    # "cake" has no producer, so IDS reads its chain bound under each kitchen
    assert builds == {"derivation_depths": 2, "_chain_bounds": 2, "_input_counts": 1}


def test_alternating_graphs_build_each_derivation_once_per_graph(derivations):
    _, builds = derivations
    graph, kitchen, goal = milk_setup()
    graphs = [graph, index_outputs(graph.units)]  # equal units, a memo each
    first = [_retrieve_all(g, kitchen, goal) for g in graphs]
    for _ in range(3):
        assert [_retrieve_all(g, kitchen, goal) for g in graphs] == first
    assert builds == {"derivation_depths": 2, "_input_counts": 2}


def test_kitchens_past_the_limit_evict_the_oldest(derivations):
    _, builds = derivations
    graph = milk_setup()[0]
    kitchens = [frozenset({key_of(f"k{i}")}) for i in range(foon.retrieval._KITCHENS + 1)]
    for kitchen in kitchens + kitchens[1:]:  # the last _KITCHENS stay
        derivation_depths(graph, kitchen)
    assert builds["derivation_depths"] == len(kitchens)
    derivation_depths(graph, kitchens[0])
    assert builds["derivation_depths"] == len(kitchens) + 1


def test_a_retrieval_adds_no_reference_to_its_graph():
    # so a dropped graph is freed by reference counting, memo and all: nothing
    # in the memo refers back to it, and no module-level state holds it
    graph, kitchen, goal = milk_setup()
    before = sys.getrefcount(graph)
    for target in (goal, GoalSpec(key_of("cake"))):
        _retrieve_all(graph, kitchen, target)
    assert sys.getrefcount(graph) == before
    assert set(graph._derived) == set(DERIVATIONS)


# --- deep graphs --------------------------------------------------------


@pytest.mark.parametrize("heuristic", list(HeuristicId))
def test_gbfs_deeper_than_recursion_limit(heuristic):
    depth = sys.getrecursionlimit() + 200
    graph, kitchen, goal = chain_graph(depth)
    tree = retrieve_gbfs(graph, kitchen, goal, heuristic)
    assert len(tree.steps) == depth
    assert tree.stats.units_expanded == depth
    validate_task_tree(graph, kitchen, goal, tree)


def test_ids_deep_chain():
    graph, kitchen, goal = chain_graph(600, with_decoys=False)
    tree = retrieve_ids(graph, kitchen, goal, depth_cap=600)
    assert tree.stats.final_depth_bound == 600
    assert tree.steps == tuple(range(599, -1, -1))
    assert tree.stats.units_expanded == 600 * 601 // 2  # bound b expands b units
    validate_task_tree(graph, kitchen, goal, tree)


# --- execution order ----------------------------------------------------


def test_execution_order_chain():
    graph, kitchen, _ = milk_setup()
    assert execution_order(graph, kitchen, {0, 1}) == (1, 0)


def test_execution_order_diamond():
    graph = build_graph(
        [
            (["left", "right"], "join", ["goal"]),
            (["base"], "m1", ["left"]),
            (["base"], "m2", ["right"]),
        ]
    )
    kitchen = frozenset({key_of("base")})
    order = execution_order(graph, kitchen, {0, 1, 2})
    # all valid orders enumerated by hand: (1,2,0) and (2,1,0); ties go ascending
    assert order == (1, 2, 0)


def test_execution_order_empty():
    graph, _, goal = milk_setup()
    kitchen = frozenset({goal.target})
    assert execution_order(graph, kitchen, set()) == ()


def test_execution_order_detects_cycle():
    graph = build_graph(
        [
            (["b"], "m1", ["a"]),
            (["a"], "m2", ["b"]),
        ]
    )
    kitchen = frozenset(set())
    with pytest.raises(CyclicResolution):
        execution_order(graph, kitchen, {0, 1})


def _order_or_error(order_fn, graph, kitchen, chosen):
    try:
        return order_fn(graph, kitchen, chosen)
    except CyclicResolution as exc:
        return ("CyclicResolution", str(exc))


def test_execution_order_matches_naive_scan():
    rng = random.Random(51966)
    resolutions = stuck = 0
    for _ in range(500):
        graph, kitchen, goal, _ = random_instance(rng)
        subsets = [set(units) for units, _ in brute_force_resolutions(graph, kitchen, goal)]
        resolutions += len(subsets)
        for _ in range(4):
            subsets.append(set(rng.sample(range(len(graph)), rng.randint(0, len(graph)))))
        for chosen in subsets:
            expected = _order_or_error(naive_execution_order, graph, kitchen, chosen)
            assert _order_or_error(execution_order, graph, kitchen, chosen) == expected
            stuck += expected[:1] == ("CyclicResolution",)
    # both the executable and the stuck branch were exercised
    assert resolutions >= 400 and stuck >= 1000


def test_execution_order_repeated_input_key():
    # unit 0 lists "a" twice; it waits for one key, not two
    graph = build_graph(
        [
            (["a", "a", "c"], "join", ["goal"]),
            (["c"], "m1", ["a"]),
            (["goal"], "m2", ["c"]),
        ]
    )
    stocked, empty = frozenset({key_of("c")}), frozenset(set())
    for kitchen in (stocked, empty):
        for chosen in ({0}, {0, 1}, {0, 1, 2}):
            assert _order_or_error(execution_order, graph, kitchen, chosen) == _order_or_error(
                naive_execution_order, graph, kitchen, chosen
            )
    assert execution_order(graph, stocked, {0, 1}) == (1, 0)
    with pytest.raises(CyclicResolution, match=r"units \[0, 1, 2\] have no executable order"):
        execution_order(graph, empty, {0, 1, 2})
