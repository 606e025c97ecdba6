import itertools

from foon.merge import merge_subgraphs
from helpers import key_of, unit


def test_unit_equals_reflexive():
    u = unit(["cream"], "whip", ["whipped cream"])
    assert u == u


def test_unit_equals_ignores_timestamps():
    a = unit(["cream"], "whip", ["whipped cream"], ts=("3:05", "3:20"))
    b = unit(["cream"], "whip", ["whipped cream"], ts=("9:00", None))
    assert a == b


def test_unit_equals_different_motion():
    assert not (
        unit(["cream"], "whip", ["x"]) == unit(["cream"], "pour", ["x"])
    )


def test_merge_empty():
    result = merge_subgraphs([])
    assert len(result.graph) == 0
    assert result.kept == 0
    assert result.dropped == 0


def test_merge_idempotent(corpus_subgraphs):
    subgraph = corpus_subgraphs[0]
    result = merge_subgraphs([subgraph, subgraph])
    assert result.kept == len(subgraph)
    assert result.dropped == len(subgraph)
    assert list(result.graph.units) == list(subgraph)


def test_merge_shares_cut_tomato_unit(corpus_subgraphs):
    whipped_cream, greek_salad, _ = corpus_subgraphs
    shared = [u for u in whipped_cream if u in greek_salad]
    assert len(shared) == 1  # the cut-tomato step appears in both recipes
    assert key_of("tomato", ["sliced"]) in shared[0].outputs
    result = merge_subgraphs([whipped_cream, greek_salad])
    assert result.kept == len(whipped_cream) + len(greek_salad) - 1
    assert result.dropped == 1


def test_merge_order_insensitive_at_set_level(corpus_subgraphs):
    baseline = set(merge_subgraphs(corpus_subgraphs).graph.units)
    for perm in itertools.permutations(corpus_subgraphs):
        assert set(merge_subgraphs(list(perm)).graph.units) == baseline


def test_merge_result_has_no_equal_pair(corpus_graph):
    units = corpus_graph.units
    for a, b in itertools.combinations(units, 2):
        assert not a == b


def test_first_occurrence_wins():
    timestamped = unit(["cream"], "whip", ["whipped cream"], ts=("1:00", "2:00"))
    bare = unit(["cream"], "whip", ["whipped cream"])
    result = merge_subgraphs([[timestamped], [bare]])
    assert result.kept == 1
    assert result.graph.units[0].start_time == "1:00"


def test_merge_takes_any_iterable_of_unit_sequences(corpus_subgraphs):
    expected = merge_subgraphs(corpus_subgraphs)
    result = merge_subgraphs(tuple(subgraph) for subgraph in corpus_subgraphs)
    assert (result.kept, result.dropped) == (expected.kept, expected.dropped)
    assert list(result.graph.units) == list(expected.graph.units)
