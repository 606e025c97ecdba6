import json
import shutil

import pytest
from click.testing import CliRunner

from foon.cli import main
from foon.data import corpus_file, subgraph_paths
from foon.parser import write_subgraph
from helpers import chain_graph


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def corpus_paths(tmp_path):
    paths = {p.stem.replace(".foon", ""): shutil.copy(p, tmp_path) for p in subgraph_paths()}
    for name in ("kitchen.json", "goal_nodes.json", "motion.txt"):
        paths[name] = shutil.copy(corpus_file(name), tmp_path)
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture()
def universal(runner, corpus_paths, tmp_path):
    out = tmp_path / "universal.foon.txt"
    result = runner.invoke(
        main,
        ["merge", corpus_paths["whipped_cream"], corpus_paths["greek_salad"],
         corpus_paths["ice"], "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    return str(out)


def test_merge_reports_counts(runner, corpus_paths, tmp_path):
    out = tmp_path / "u.foon.txt"
    result = runner.invoke(
        main, ["merge", corpus_paths["whipped_cream"], corpus_paths["ice"], "-o", str(out)]
    )
    assert result.exit_code == 0
    assert "kept 5 units, dropped 0 duplicates" in result.output


def test_merge_same_file_twice_is_idempotent(runner, corpus_paths, tmp_path):
    out = tmp_path / "u.foon.txt"
    result = runner.invoke(
        main,
        ["merge", corpus_paths["whipped_cream"], corpus_paths["whipped_cream"], "-o", str(out)],
    )
    assert result.exit_code == 0
    assert "kept 4 units, dropped 4 duplicates" in result.output


def test_merge_missing_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["merge", str(tmp_path / "nope.foon.txt"), "-o", "x"])
    assert result.exit_code == 2
    assert "nope.foon.txt" in result.output


def test_merge_parse_error_exits_2_with_line(runner, tmp_path):
    bad = tmp_path / "bad.foon.txt"
    bad.write_text("O\tcream\nZ\toops\n//\n")
    result = runner.invoke(main, ["merge", str(bad), "-o", str(tmp_path / "u")])
    assert result.exit_code == 2
    assert "line 2" in result.output


def test_retrieve_writes_tree_and_dot(runner, universal, corpus_paths, tmp_path):
    out_dir = tmp_path / "trees"
    result = runner.invoke(
        main,
        [
            "retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
            "--algo", "ids", "--out-dir", str(out_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out_dir / "whipped_cream_ids.foon.txt").exists()
    assert (out_dir / "whipped_cream_ids.dot").exists()
    assert "whipped cream{whipped}: 3 units" in result.output


def test_retrieve_goal_in_kitchen_zero_steps(runner, universal, corpus_paths, tmp_path):
    goals = tmp_path / "goals.json"
    goals.write_text('[{"object":"cream","states":["raw"]}]')
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], str(goals),
         "--algo", "gbfs2", "--out-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 0, result.output
    assert "0 units" in result.output
    assert (tmp_path / "o" / "cream_gbfs2.foon.txt").read_text().startswith("# task tree: 0 units")


def test_retrieve_unknown_algo_usage_error(runner, universal, corpus_paths):
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--algo", "dfs"],
    )
    assert result.exit_code == 2


def test_retrieve_unresolvable_goal_exits_1(runner, universal, corpus_paths, tmp_path):
    goals = tmp_path / "goals.json"
    goals.write_text('[{"object":"lasagna"}]')
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], str(goals),
         "--algo", "ids", "--out-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 1
    assert "unresolvable" in result.output


def test_compare_table(runner, universal, corpus_paths):
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--motion-rates", corpus_paths["motion.txt"]],
    )
    assert result.exit_code == 0, result.output
    assert "Goal: whipped cream{whipped}" in result.output
    assert "IDS" in result.output
    assert "GBFS with heuristic 1" in result.output
    assert "GBFS with heuristic 2" in result.output


def test_compare_csv_schema(runner, universal, corpus_paths):
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--motion-rates", corpus_paths["motion.txt"], "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "goal,algorithm,units,expanded,depth_bound,resolved"
    assert len(lines) == 1 + 3 * 3  # three goals, three algorithms


def test_compare_with_oracle_columns(runner, universal, corpus_paths):
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    header = result.output.splitlines()[0]
    assert header.endswith("resolved,minimal_units,minimal_depth")


def test_compare_with_oracle_too_large_leaves_columns_blank(runner, tmp_path):
    graph, kitchen, goal = chain_graph(12)  # 24 units: past the oracle's guard
    universal = tmp_path / "chain.foon.txt"
    universal.write_text(write_subgraph(graph.units))
    kitchen_file = tmp_path / "kitchen.json"
    kitchen_file.write_text(json.dumps([{"object": key.name} for key in kitchen.items]))
    goals_file = tmp_path / "goals.json"
    goals_file.write_text(json.dumps([{"object": goal.target.name}]))
    result = runner.invoke(
        main,
        ["compare", str(universal), str(kitchen_file), str(goals_file),
         "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    rows = result.stdout.splitlines()
    assert rows[0].endswith("resolved,minimal_units,minimal_depth")
    assert len(rows) == 4
    assert all(row.endswith(",true,,") for row in rows[1:])
    assert result.stderr.count("g0: oracle skipped") == 1


def test_compare_empty_goals_header_only(runner, universal, corpus_paths, tmp_path):
    goals = tmp_path / "goals.json"
    goals.write_text("[]")
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], str(goals), "--format", "csv"],
    )
    assert result.exit_code == 0
    assert result.output == "goal,algorithm,units,expanded,depth_bound,resolved\n"


def test_compare_byte_identical_across_runs(runner, universal, corpus_paths):
    args = [
        "compare", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
        "--motion-rates", corpus_paths["motion.txt"], "--format", "csv",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes


def test_depth_cap_env_var(runner, universal, corpus_paths, tmp_path):
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--algo", "ids", "--out-dir", str(tmp_path / "o")],
        env={"FOON_DEPTH_CAP": "1"},
    )
    assert result.exit_code == 1  # the deeper goals no longer resolve
    assert "depth-cap-exhausted" in result.output


def test_viz_universal(runner, universal, tmp_path):
    out = tmp_path / "foon.dot"
    result = runner.invoke(main, ["viz", universal, "-o", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("digraph foon {")


def test_viz_single_unit_has_one_red_square(runner, corpus_paths, tmp_path):
    out = tmp_path / "ice.dot"
    result = runner.invoke(main, ["viz", corpus_paths["ice"], "-o", str(out)])
    assert result.exit_code == 0
    assert out.read_text().count("shape=square color=red") == 1


def test_viz_malformed_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.foon.txt"
    bad.write_text("O\tcream\nM\twhip\n")
    result = runner.invoke(main, ["viz", str(bad), "-o", str(tmp_path / "x.dot")])
    assert result.exit_code == 2
    assert "line 3" in result.output


def test_viz_non_utf8_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.foon.txt"
    bad.write_bytes(b"O\tcr\xe9me\nM\twhip\nO\tcream\n//\n")
    result = runner.invoke(main, ["viz", str(bad), "-o", str(tmp_path / "x.dot")])
    assert result.exit_code == 2
    assert "bad.foon.txt" in result.output
