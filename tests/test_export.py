from hypothesis import given, settings
from hypothesis import strategies as st

from foon.core import Algorithm, GoalSpec, SearchStats, TaskTree, index_outputs
from foon.export import write_task_tree, to_dot
from foon.merge import merge_subgraphs
from foon.parser import parse_subgraph
from foon.retrieval import retrieve_ids
from helpers import build_graph, check_dot_syntax, key_of
from test_parser import functional_units


def _tree(steps):
    return TaskTree(tuple(steps), SearchStats(Algorithm.IDS))


def test_write_empty_tree_is_header_only():
    graph = build_graph([(["milk"], "skim", ["cream"])])
    text = write_task_tree(graph, _tree([]))
    assert text == "# task tree: 0 units\n"
    assert parse_subgraph(text) == []


def test_write_tree_units_in_step_order():
    graph = build_graph(
        [
            (["cream"], "whip", ["whipped cream"]),
            (["milk"], "skim", ["cream"]),
        ]
    )
    text = write_task_tree(graph, _tree([1, 0]))
    units = parse_subgraph(text)
    assert units == [graph.units[1], graph.units[0]]


def test_write_tree_golden(corpus_graph, corpus_kitchen):
    goal = GoalSpec(key_of("ice", ["solid"]))
    tree = retrieve_ids(corpus_graph, corpus_kitchen, goal)
    assert write_task_tree(corpus_graph, tree) == (
        "# task tree: 1 units\n"
        "O\twater\n"
        "O\ttray\n"
        "M\tfreeze\n"
        "O\tice\n"
        "S\tsolid\n"
        "O\ttray\n"
        "S\tcold\n"
        "//\n"
    )


@settings(max_examples=50)
@given(st.lists(functional_units(), max_size=5))
def test_write_tree_round_trip(units):
    deduped = merge_subgraphs([units]).graph
    tree = _tree(range(len(deduped.units)))
    assert parse_subgraph(write_task_tree(deduped, tree)) == list(deduped.units)


def test_dot_empty_graph():
    graph = build_graph([])
    assert to_dot(graph) == "digraph foon {\n}\n"


def test_dot_single_unit_shapes_and_colors():
    # one unit, three inputs, two outputs
    graph = build_graph([(["a", "b", "c"], "m", ["x", "y"])])
    dot = to_dot(graph)
    check_dot_syntax(dot)
    assert dot.count("shape=ellipse color=green") == 3
    assert dot.count("shape=ellipse color=purple") == 2
    assert dot.count("shape=square color=red") == 1
    assert dot.count("->") == 5


def test_dot_input_and_output_object_is_blue_and_single():
    graph = build_graph(
        [
            (["milk"], "skim", ["cream"]),
            (["cream"], "whip", ["whipped cream"]),
        ]
    )
    dot = to_dot(graph)
    check_dot_syntax(dot)
    assert dot.count('label="cream"') == 1
    assert 'label="cream" shape=ellipse color=blue' in dot


def test_dot_keys_that_print_alike_get_their_own_nodes():
    # a name may hold braces, so "egg" boiled and "egg{boiled}" share a label
    text = "O\tegg\nS\tboiled\nM\tpeel\nO\tegg white\n//\nO\tegg{boiled}\nM\tcrack\nO\tyolk\n//\n"
    dot = to_dot(index_outputs(parse_subgraph(text)))
    check_dot_syntax(dot)
    nodes = [line.split()[0] for line in dot.splitlines() if "shape=ellipse" in line]
    assert len(nodes) == len(set(nodes)) == 4
    boiled, named = [line.split()[0] for line in dot.splitlines() if 'label="egg{boiled}"' in line]
    assert named == boiled + "_2"  # in sort order, states before a longer name
    assert f"  {boiled} -> u0_motion;" in dot and f"  {named} -> u1_motion;" in dot
    assert dot.count(" -> u0_motion;") == dot.count(" -> u1_motion;") == 1


def test_dot_tree_restricts_to_tree_units():
    graph = build_graph(
        [
            (["milk"], "skim", ["cream"]),
            (["water"], "freeze", ["ice"]),
        ]
    )
    dot = to_dot(graph, _tree([1]))
    check_dot_syntax(dot)
    assert "freeze" in dot
    assert "skim" not in dot


def test_dot_is_deterministic(corpus_graph):
    assert to_dot(corpus_graph) == to_dot(corpus_graph)
    check_dot_syntax(to_dot(corpus_graph))
