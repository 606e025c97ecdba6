import gc
import importlib.util
import errno
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import foon
from foon import oracle
from foon.cli import _parse, _parser, _read, main
from foon.core import FoonError, ObjectKey
from foon.data import corpus_file, subgraph_paths
from foon.parser import parse_goal_nodes, parse_kitchen, parse_motion_rates, parse_subgraph, write_subgraph
from helpers import CliRunner, build_graph, chain_graph, fan_graph, key_of


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


def test_merge_parse_error_names_the_file(runner, corpus_paths, tmp_path):
    bad = tmp_path / "bad.foon.txt"
    bad.write_text("O\tcream\nM\twhip\n//\n")
    result = runner.invoke(main, ["merge", corpus_paths["whipped_cream"], str(bad), "-o", str(tmp_path / "u")])
    assert result.exit_code == 2
    assert result.output == f"Error: cannot parse {bad}: line 3: unit has no output objects\n"
    assert not (tmp_path / "u").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("kitchen.json", '[{"states": ["raw"]}]', "field 'object': missing in entry 0"),
        ("goal_nodes.json", "[", "line 1: invalid JSON: Expecting value"),
        ("motion.txt", "whip\thigh\n", "line 1: non-numeric rate 'high'"),
    ],
)
def test_compare_input_errors_name_the_file(runner, universal, corpus_paths, tmp_path, name, text, message):
    files = {key: corpus_paths[key] for key in ("kitchen.json", "goal_nodes.json", "motion.txt")}
    bad = tmp_path / f"bad_{name}"
    bad.write_text(text)
    files[name] = str(bad)
    result = runner.invoke(
        main,
        ["compare", universal, files["kitchen.json"], files["goal_nodes.json"], "--motion-rates", files["motion.txt"]],
    )
    assert result.exit_code == 2
    assert result.output == f"Error: cannot parse {bad}: {message}\n"


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


def test_retrieve_goals_sharing_a_name_get_distinct_files(runner, universal, corpus_paths, tmp_path):
    goals = tmp_path / "goals.json"
    goals.write_text('[{"object":"cream","states":["in [bowl]"]},{"object":"cream","states":["raw"]}]')
    out_dir = tmp_path / "o"
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], str(goals),
         "--algo", "ids", "--out-dir", str(out_dir)],
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        "cream{in [bowl]}: 1 units -> cream_ids.foon.txt",
        "cream{raw}: 0 units -> cream_ids_2.foon.txt",
    ]
    assert (out_dir / "cream_ids.foon.txt").read_text().startswith("# task tree: 1 units")
    assert (out_dir / "cream_ids_2.foon.txt").read_text().startswith("# task tree: 0 units")
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "cream_ids.dot", "cream_ids.foon.txt", "cream_ids_2.dot", "cream_ids_2.foon.txt"
    ]


@pytest.mark.parametrize(
    "goals_text",
    ["[" * 100_000, "[" + "7" * 5_000 + "]", '[{"object": "\\ud800"}]'],
    ids=["deep-nesting", "long-integer", "lone-surrogate"],
)
def test_retrieve_json_goals_past_the_decoder_exit_2(runner, universal, corpus_paths, tmp_path, goals_text):
    goals = tmp_path / "goals.json"
    goals.write_text(goals_text)
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], str(goals),
         "--algo", "ids", "--out-dir", str(tmp_path / "o")],
    )
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("Error: ")


def test_retrieve_out_dir_under_a_regular_file_exits_2(runner, universal, corpus_paths, tmp_path):
    (tmp_path / "afile").write_text("")
    out_dir = tmp_path / "afile" / "sub"
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--algo", "gbfs2", "--out-dir", str(out_dir)],
    )
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("Error: ")
    assert str(out_dir) in result.output


def test_retrieve_tree_path_taken_by_a_directory_exits_2(runner, universal, corpus_paths, tmp_path):
    taken = tmp_path / "o" / "whipped_cream_gbfs2.foon.txt"
    taken.mkdir(parents=True)
    result = runner.invoke(
        main,
        ["retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--algo", "gbfs2", "--out-dir", str(tmp_path / "o")],
    )
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("Error: ")
    assert str(taken) in result.output


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


def test_compare_table(runner, universal, corpus_paths, tmp_path):
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
    # a goal listed twice gets one header over all six of its rows
    goals = tmp_path / "goals.json"
    whipped = {"object": "whipped cream", "states": ["whipped"]}
    goals.write_text(json.dumps([whipped, {"object": "lasagna"}, whipped]))
    result = runner.invoke(main, ["compare", universal, corpus_paths["kitchen.json"], str(goals)])
    assert result.exit_code == 1, result.output
    rows = {
        "3": ["  IDS                                               3",
              "  GBFS with heuristic 1                             3",
              "  GBFS with heuristic 2                             3"],
        "-": ["  IDS                                    unresolvable",
              "  GBFS with heuristic 1                  unresolvable",
              "  GBFS with heuristic 2                  unresolvable"],
    }
    header = "  Search Algorithm         Number of Functional Units"
    assert result.stdout.splitlines() == [
        "Goal: whipped cream{whipped}", header, *rows["3"], *rows["3"], "",
        "Goal: lasagna", header, *rows["-"],
    ]
    assert result.stdout.endswith("unresolvable\n")


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


def test_desk_corpus_figures(runner, universal, corpus_paths, tmp_path):
    # the paper's table on the desk corpus: units, expansions and depth bound
    # of each algorithm per goal, against the oracle's minima, and what a
    # depth cap of 1 leaves unresolved
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    result = runner.invoke(
        main, ["compare", *inputs, "--motion-rates", corpus_paths["motion.txt"], "--with-oracle", "--format", "csv"]
    )
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == (
        "goal,algorithm,units,expanded,depth_bound,resolved,minimal_units,minimal_depth\n"
        "whipped cream{whipped},ids,3,6,3,true,3,3\n"
        "whipped cream{whipped},gbfs1,3,3,,true,3,3\n"
        "whipped cream{whipped},gbfs2,3,3,,true,3,3\n"
        "greek salad{mixed},ids,6,12,4,true,6,4\n"
        "greek salad{mixed},gbfs1,6,6,,true,6,4\n"
        "greek salad{mixed},gbfs2,6,6,,true,6,4\n"
        "ice{solid},ids,1,1,1,true,1,1\n"
        "ice{solid},gbfs1,1,1,,true,1,1\n"
        "ice{solid},gbfs2,1,1,,true,1,1\n"
    )
    result = runner.invoke(main, ["compare", *inputs, "--depth-cap", "1", "--format", "csv"])
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout == (
        "goal,algorithm,units,expanded,depth_bound,resolved\n"
        "whipped cream{whipped},ids,,,,false\n"
        "whipped cream{whipped},gbfs1,3,3,,true\n"
        "whipped cream{whipped},gbfs2,3,3,,true\n"
        "greek salad{mixed},ids,,,,false\n"
        "greek salad{mixed},gbfs1,6,6,,true\n"
        "greek salad{mixed},gbfs2,6,6,,true\n"
        "ice{solid},ids,1,1,1,true\n"
        "ice{solid},gbfs1,1,1,,true\n"
        "ice{solid},gbfs2,1,1,,true\n"
    )
    result = runner.invoke(
        main, ["retrieve", *inputs, "--algo", "ids", "--depth-cap", "1", "--out-dir", str(tmp_path / "o")]
    )
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout == (
        "whipped cream{whipped}: unresolvable (depth-cap-exhausted)\n"
        "greek salad{mixed}: unresolvable (depth-cap-exhausted)\n"
        "ice{solid}: 1 units -> ice_ids.foon.txt\n"
    )


def test_compare_table_shows_the_oracle(runner, universal, corpus_paths, tmp_path):
    # one oracle line per goal, after its algorithm lines
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    result = runner.invoke(main, ["compare", *inputs, "--with-oracle"])
    assert (result.exit_code, result.stderr) == (0, "")
    oracle_lines = [line for line in result.stdout.splitlines() if "Oracle" in line]
    assert oracle_lines == [f"  {'Oracle (fewest units)':<24} {units:>26}" for units in (3, 6, 1)]
    assert result.stdout.splitlines()[2:7] == [
        "  IDS                                               3",
        "  GBFS with heuristic 1                             3",
        "  GBFS with heuristic 2                             3",
        "  Oracle (fewest units)                             3",
        "",
    ]
    # a goal in the kitchen needs no unit; one the pass cannot derive shows as unresolvable
    goals = tmp_path / "more_goals.json"
    goals.write_text('[{"object": "sugar"}, {"object": "cake"}]')
    result = runner.invoke(main, ["compare", *inputs[:2], str(goals), "--with-oracle"])
    assert result.exit_code == 1
    assert [line.split()[-1] for line in result.stdout.splitlines() if "Oracle" in line] == ["0", "unresolvable"]
    # an oracle refusal shows as skipped and keeps its note
    result = runner.invoke(main, ["compare", *_write_instance(tmp_path, *fan_graph(20)), "--with-oracle"])
    assert result.exit_code == 0
    assert [line.split()[-1] for line in result.stdout.splitlines() if "Oracle" in line] == ["skipped"]
    assert result.stderr.count("g0: oracle skipped") == 1


def test_compare_with_oracle_enumerates_once_per_goal(runner, universal, corpus_paths, monkeypatch):
    calls = []
    enumerate_resolutions = oracle.enumerate_resolutions

    def counting(*args, **kwargs):
        calls.append(args[2])  # the goal
        return enumerate_resolutions(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_resolutions", counting)
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"],
         "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    goals = [row.split(",")[0] for row in result.stdout.splitlines()[1::3]]
    assert [str(goal) for goal in calls] == goals
    assert len(goals) == 3


def test_compare_with_oracle_skips_underivable_goals(runner, universal, corpus_paths, tmp_path, monkeypatch):
    calls = []
    enumerate_resolutions = oracle.enumerate_resolutions

    def counting(*args, **kwargs):
        calls.append(args[2])
        return enumerate_resolutions(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_resolutions", counting)
    goals = tmp_path / "goals.json"
    goals.write_text('[{"object": "cake"}]')
    result = runner.invoke(
        main,
        ["compare", universal, corpus_paths["kitchen.json"], str(goals), "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 1, result.output
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",false,,") for row in rows)
    assert calls == []


def _write_instance(tmp_path, graph, kitchen, goal):
    """A graph, kitchen and goal written as universal, kitchen and goals files."""
    universal = tmp_path / "graph.foon.txt"
    universal.write_text(write_subgraph(graph.units))
    kitchen_file = tmp_path / "kitchen.json"
    kitchen_file.write_text(json.dumps([{"object": key.name} for key in kitchen]))
    goals_file = tmp_path / "goals.json"
    goals_file.write_text(json.dumps([{"object": goal.name}]))
    return str(universal), str(kitchen_file), str(goals_file)


def test_compare_with_oracle_on_chain(runner, tmp_path):
    universal, kitchen_file, goals_file = _write_instance(tmp_path, *chain_graph(12))
    result = runner.invoke(
        main,
        ["compare", universal, kitchen_file, goals_file, "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",true,12,12") for row in rows)
    assert result.stderr == ""


def test_compare_with_oracle_too_large_leaves_columns_blank(runner, tmp_path):
    universal, kitchen_file, goals_file = _write_instance(tmp_path, *fan_graph(20))  # 2**20 resolutions
    result = runner.invoke(
        main,
        ["compare", universal, kitchen_file, goals_file, "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    rows = result.stdout.splitlines()
    assert rows[0].endswith("resolved,minimal_units,minimal_depth")
    assert len(rows) == 4
    assert all(row.endswith(",true,,") for row in rows[1:])
    assert result.stderr.count("g0: oracle skipped") == 1


def test_compare_with_oracle_underivable_too_large_goal_is_silent(runner, tmp_path):
    # the fan's 2**20 resolutions of its other inputs come before the ghost,
    # so enumerating would pass MAX_STATES; the forward pass skips it
    specs = [(["ghost"] + [f"k{i}" for i in range(20)], "mix", ["g0"])]
    for i in range(20):
        specs += [(["x"], f"m{i}", [f"k{i}"]), (["x"], f"m{i}y", [f"k{i}"])]
    graph, kitchen, goal = build_graph(specs), frozenset({key_of("x")}), key_of("g0")
    with pytest.raises(oracle.TooLarge):
        oracle.enumerate_resolutions(graph, kitchen, goal)
    universal, kitchen_file, goals_file = _write_instance(tmp_path, graph, kitchen, goal)
    result = runner.invoke(
        main,
        ["compare", universal, kitchen_file, goals_file, "--with-oracle", "--format", "csv"],
    )
    assert result.exit_code == 1, result.output
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",false,,") for row in rows)
    assert result.stderr == ""


def test_retrieve_deep_chain(runner, tmp_path):
    universal, kitchen_file, goals_file = _write_instance(tmp_path, *chain_graph(600))
    result = runner.invoke(
        main,
        ["retrieve", universal, kitchen_file, goals_file, "--algo", "gbfs2",
         "--out-dir", str(tmp_path / "o")],
    )
    assert result.exception is None, result.exception
    assert result.exit_code == 0, result.output
    assert result.output == "g0: 600 units -> g0_gbfs2.foon.txt\n"


def test_compare_deep_chain(runner, tmp_path):
    universal, kitchen_file, goals_file = _write_instance(tmp_path, *chain_graph(600))
    result = runner.invoke(
        main, ["compare", universal, kitchen_file, goals_file, "--depth-cap", "700", "--format", "csv"]
    )
    assert result.exception is None, result.exception
    assert result.exit_code == 0, result.output
    rows = result.stdout.splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["ids", "600"], ["gbfs1", "600"], ["gbfs2", "600"]]
    assert rows[0].endswith(",600,true")  # the IDS depth bound


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


def _fresh_env(**extra):
    """The environment of a new ``python -m foon.cli`` process that imports
    this package's source."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(foon.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_output_byte_identical_across_hash_seeds(universal, corpus_paths, tmp_path):
    # keys hash by address, and string hashes change with PYTHONHASHSEED, so
    # only separate processes can show output that follows hash order
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    outputs = []
    for seed in ("0", "1"):
        env = _fresh_env(PYTHONHASHSEED=seed)
        out_dir = tmp_path / f"trees-{seed}"
        runs = [
            ["compare", *inputs, "--motion-rates", corpus_paths["motion.txt"], "--with-oracle", "--format", "csv"],
            ["retrieve", *inputs, "--algo", "gbfs2", "--out-dir", str(out_dir)],
        ]
        results = [
            subprocess.run([sys.executable, "-m", "foon.cli", *args], env=env, capture_output=True, timeout=120)
            for args in runs
        ]
        written = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        outputs.append(([(r.returncode, r.stdout) for r in results], written))
    streams, written = outputs[0]
    assert [code for code, _ in streams] == [0, 0]
    assert {Path(name).suffix for name in written} == {".txt", ".dot"}
    assert outputs[0] == outputs[1]


def _readme_block(corpus_paths, tmp_path):
    """The arguments of the README's corpus commands, in order, writing under
    ``tmp_path``."""
    universal = str(tmp_path / "universal.foon.txt")
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    rates = ["--motion-rates", corpus_paths["motion.txt"]]
    return [
        ["merge", corpus_paths["whipped_cream"], corpus_paths["greek_salad"], corpus_paths["ice"], "-o", universal],
        ["retrieve", *inputs, "--algo", "gbfs1", *rates, "--out-dir", str(tmp_path / "out")],
        ["compare", *inputs, *rates, "--with-oracle", "--format", "csv"],
        ["viz", universal, "-o", str(tmp_path / "universal.dot")],
    ]


def test_readme_cli_block_runs_as_processes(corpus_paths, tmp_path):
    for args in _readme_block(corpus_paths, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "foon.cli", *args], env=_fresh_env(), capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (args[0], result.stderr)
        # development mode shows a leaked descriptor only on stderr
        assert result.stderr == "", args[0]


def _benchmark_patches():
    """The ``(module, attribute)`` pairs of ``PATCHES`` in the benchmark's
    ``perfbench/child.py``, the names its traced runs wrap."""
    path = Path(__file__).parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, attribute) for module, attribute, *_ in child.PATCHES]


def test_every_name_the_benchmark_wraps_is_called(runner, corpus_paths, tmp_path, monkeypatch):
    # the benchmark times and counts a layer by replacing the module global
    # the program calls it through; a call that bypasses the name reads 0
    # there and fails no other check
    hooks = [*_benchmark_patches(), ("foon.cli", "retrieve_ids"), ("foon.cli", "retrieve_gbfs"),
             ("foon.retrieval", "SearchStats")]
    calls = dict.fromkeys(hooks, 0)

    def counting(hook, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            calls[hook] += 1
            if hook[1] in ("retrieve_ids", "retrieve_gbfs"):
                # the benchmark labels a retrieval by its bound goal's ``target``
                goal = signature.bind(*args, **kwargs).arguments["goal"]
                assert goal.target is goal and type(goal) is ObjectKey
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attribute in calls:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attribute, counting((module_name, attribute), getattr(module, attribute)))
    for args in _readme_block(corpus_paths, tmp_path):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output)
    assert [hook for hook, n in calls.items() if n == 0] == []
    retrievals = calls["foon.cli", "retrieve_ids"] + calls["foon.cli", "retrieve_gbfs"]
    assert calls["foon.retrieval", "SearchStats"] == retrievals == 12  # one per retrieval
    assert foon.cli.main.main is foon.cli.main  # the name the benchmark runs a command through
    # and it reads each parsed goal's ``target`` to match trees to goals
    goals = parse_goal_nodes(corpus_file("goal_nodes.json").read_text(encoding="utf-8"))
    assert goals and all(goal.target is goal and type(goal) is ObjectKey for goal in goals)


def test_labels_stdout_cannot_encode_exit_2(universal, corpus_paths, tmp_path):
    goals = tmp_path / "creme.json"
    goals.write_text(json.dumps([{"object": "crème", "states": ["whipped"]}]), encoding="utf-8")
    inputs = [universal, corpus_paths["kitchen.json"], str(goals)]
    for args in (
        ["retrieve", *inputs, "--algo", "ids", "--out-dir", str(tmp_path / "trees")],
        ["compare", *inputs, "--format", "csv"],
        ["merge", corpus_paths["ice"], "-o", str(tmp_path / "crème.txt")],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "foon.cli", *args], env=_fresh_env(PYTHONIOENCODING="ascii"),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2, (args[0], result.stderr)
        [line] = result.stderr.splitlines()
        assert line.startswith("Error: ") and "Traceback" not in result.stderr


def test_parse_warnings_made_errors_exit_2(universal, corpus_paths, tmp_path):
    (tmp_path / "doubled").mkdir()
    kitchen = tmp_path / "doubled" / "kitchen.json"
    items = json.loads(Path(corpus_paths["kitchen.json"]).read_text(encoding="utf-8"))
    kitchen.write_text(json.dumps([*items, items[0]]), encoding="utf-8")
    rates = tmp_path / "doubled" / "motion.txt"
    table = Path(corpus_paths["motion.txt"]).read_text(encoding="utf-8")
    rates.write_text(table + table.splitlines()[0] + "\n", encoding="utf-8")
    goals = corpus_paths["goal_nodes.json"]
    for args, path, message in [
        (["compare", universal, str(kitchen), goals], kitchen, "duplicate kitchen item cream{raw} collapsed"),
        (["compare", universal, corpus_paths["kitchen.json"], goals, "--motion-rates", str(rates)], rates,
         "duplicate rate for"),
    ]:
        strict = subprocess.run(
            [sys.executable, "-m", "foon.cli", *args], env=_fresh_env(PYTHONWARNINGS="error::UserWarning"),
            capture_output=True, text=True, timeout=120,
        )
        assert strict.returncode == 2, strict.stderr
        assert strict.stderr.startswith(f"Error: cannot parse {path}: ") and strict.stderr.count("\n") == 1
        assert message in strict.stderr
        lenient = subprocess.run(
            [sys.executable, "-m", "foon.cli", *args], env=_fresh_env(PYTHONWARNINGS="default"),
            capture_output=True, text=True, timeout=120,
        )
        assert lenient.returncode == 0, lenient.stderr
        assert "ParseWarning" in lenient.stderr and message in lenient.stderr


def _unwritable_stdout(sink: str) -> int:
    """A descriptor whose every write fails: with ENOSPC for "full", with
    EPIPE for "pipe" (a pipe whose reader has closed)."""
    if sink == "full":
        return os.open("/dev/full", os.O_WRONLY)
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _buffered_env(unbuffered: bool):
    """A fresh environment with Python's stdout and stderr buffered or not. A
    buffered stream keeps the bytes it could not write and tries them again
    at exit, so tests of unwritable streams run both modes."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "sink",
    [pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")), "pipe"],
)
def test_stdout_that_cannot_be_written_exits_2(universal, corpus_paths, tmp_path, sink, unbuffered):
    env = _buffered_env(unbuffered)
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    for args in (
        ["merge", corpus_paths["ice"], "-o", str(tmp_path / "ice.foon.txt")],
        ["retrieve", *inputs, "--algo", "gbfs1", "--out-dir", str(tmp_path / "trees")],
        ["compare", *inputs, "--motion-rates", corpus_paths["motion.txt"], "--with-oracle", "--format", "csv"],
        ["viz", universal, "-o", str(tmp_path / "universal.dot")],
    ):
        stdout = _unwritable_stdout(sink)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "foon.cli", *args], env=env, stdout=stdout,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(stdout)
        assert result.returncode == 2, (args[0], result.stderr)
        [line] = result.stderr.splitlines()
        assert line.startswith("Error: ") and "Traceback" not in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_errors_exit_2_when_stderr_cannot_be_written(universal, corpus_paths, tmp_path, unbuffered):
    # exit 1 means "unresolvable", so an error that cannot be shown is still 2
    env = _buffered_env(unbuffered)
    missing = str(tmp_path / "missing.foon.txt")
    latin1 = tmp_path / "latin1.foon.txt"
    latin1.write_bytes(b"O\tcr\xe9me\nM\twhip\nO\tcream\n//\n")
    kitchen, goals = corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]
    retrieve = ["retrieve", "--algo", "gbfs1", "--out-dir", str(tmp_path / "trees")]
    dot = ["-o", str(tmp_path / "out.dot")]
    commands = {  # a run that succeeds, then a usage error and a read error
        "merge": [["merge", corpus_paths["ice"], "-o", str(tmp_path / "u.foon.txt")],
                  ["merge", missing, "-o", str(tmp_path / "u.foon.txt")],
                  ["merge", str(latin1), "-o", str(tmp_path / "u.foon.txt")]],
        "retrieve": [[*retrieve, universal, kitchen, goals],
                     [*retrieve, missing, kitchen, goals],
                     [*retrieve, str(latin1), kitchen, goals]],
        "compare": [["compare", universal, kitchen, goals],
                    ["compare", universal, missing, goals],
                    ["compare", universal, str(latin1), goals]],
        "viz": [["viz", universal, *dot], ["viz", missing, *dot], ["viz", str(latin1), *dot]],
    }
    for command, (valid, *errors) in commands.items():
        with open("/dev/full", "w") as full:
            runs = [(args, subprocess.PIPE) for args in errors] + [(valid, full)]
            for args, stdout in runs:
                result = subprocess.run(
                    [sys.executable, "-m", "foon.cli", *args], env=env, stdout=stdout, stderr=full, timeout=120
                )
                assert result.returncode == 2, (command, args is valid)
                assert not result.stdout


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")), reason="needs /dev/full and /proc/self/fd"
)
def test_stdout_that_cannot_be_written_leaks_no_descriptor_in_process(corpus_paths, tmp_path):
    # main points an unwritable stdout at the null device; a caller that runs
    # it in its own process must get back every descriptor opened for that
    args = ["merge", corpus_paths["ice"], "-o", str(tmp_path / "ice.foon.txt")]
    saved = sys.stdout, sys.stderr
    before = len(os.listdir("/proc/self/fd"))
    try:
        for _ in range(4):
            with open("/dev/full", "w") as full:
                sys.stdout, sys.stderr = full, io.StringIO()
                with pytest.raises(SystemExit) as exit:
                    main(args)
            assert exit.value.code == 2
    finally:
        sys.stdout, sys.stderr = saved
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "sink",
    [pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")), "pipe"],
)
def test_help_that_cannot_be_written_exits_2(sink, unbuffered):
    # argparse drops a failed write of its help and exits 0
    env = _buffered_env(unbuffered)
    for args in (["--help"], ["compare", "--help"], ["retrieve", "-h"]):
        stdout = _unwritable_stdout(sink)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "foon.cli", *args], env=env, stdout=stdout,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(stdout)
        assert result.returncode == 2, (args, result.stderr)
        [line] = result.stderr.splitlines()
        assert line.startswith("Error: ") and "Traceback" not in result.stderr


def test_help_to_a_working_stdout_exits_0_with_the_parsers_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    expected = io.StringIO()
    _parser("foon").print_help(expected)
    for unbuffered in (False, True):
        result = subprocess.run(
            [sys.executable, "-m", "foon.cli", "--help"], env=_buffered_env(unbuffered), capture_output=True, timeout=120
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, expected.getvalue().encode(), b"")
        result = subprocess.run(
            [sys.executable, "-m", "foon.cli", "compare", "--help"], env=_buffered_env(unbuffered),
            capture_output=True, timeout=120,
        )
        assert result.returncode == 0 and result.stdout.startswith(b"usage: foon compare ") and not result.stderr


def test_main_turns_the_collector_off_and_restores_it(runner, universal, corpus_paths, tmp_path, monkeypatch):
    collecting = []  # the collector's state each time a command parses a graph
    parse = foon.cli.parse_subgraph

    def parse_subgraph(text):
        collecting.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(foon.cli, "parse_subgraph", parse_subgraph)
    lasagna = tmp_path / "lasagna.json"
    lasagna.write_text('[{"object":"lasagna"}]')
    latin1 = tmp_path / "latin1.foon.txt"
    latin1.write_bytes(b"O\tcr\xe9me\nM\twhip\nO\tcream\n//\n")
    retrieve = ["retrieve", universal, corpus_paths["kitchen.json"], str(lasagna), "--out-dir", str(tmp_path / "o")]
    runs = [  # exit code, graphs parsed, arguments
        (0, 1, ["viz", universal, "-o", str(tmp_path / "u.dot")]),
        (1, 1, [*retrieve, "--algo", "ids"]),
        (2, 0, ["viz", str(latin1), "-o", str(tmp_path / "l.dot")]),  # a read error
        (2, 0, [*retrieve, "--algo", "bogus"]),  # a usage error
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            for code, parsed, args in runs:
                (gc.enable if enabled else gc.disable)()
                collecting.clear()
                result = runner.invoke(main, args)
                assert result.exit_code == code, (args, result.output)
                assert gc.isenabled() is enabled, (enabled, args)
                assert collecting == [False] * parsed, (enabled, args)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _collector_passes(runner, args):
    """Exit code of ``foon args`` run in this process with the collector on,
    and the generation of each collector pass that started inside ``main``."""
    passes, running = [], []

    def watched(*main_args, **options):
        running.append(True)
        try:
            main(*main_args, **options)
        finally:
            running.clear()

    def record(phase, info):
        if phase == "start" and running:
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(record)
    try:
        gc.enable()
        return runner.invoke(watched, args).exit_code, passes
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()


def test_main_keeps_the_callers_frozen_objects_frozen(runner, universal, corpus_paths, tmp_path):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        args = ["viz", universal, "-o", str(tmp_path / "u.dot")]
        assert _collector_passes(runner, args)[0] == 0
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


CYCLIC_GARBAGE = (
    "import gc, json, sys\n"
    "gc.disable()\n"
    "gc.set_debug(gc.DEBUG_SAVEALL)\n"
    "from foon.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:], prog_name='foon')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "found = gc.collect()\n"
    "types = {type(o) for o in gc.garbage}\n"
    "foon_types = sorted(t.__module__ + '.' + t.__qualname__ for t in types if t.__module__.split('.')[0] == 'foon')\n"
    "print()\n"
    "print(json.dumps([code, found, foon_types]))\n"
)


def _cyclic_garbage(*args):
    """Exit code, the number of objects ``gc.collect()`` finds, and the
    package's types among them, after ``foon args`` runs in a process whose
    collector is off and keeps what it finds."""
    result = subprocess.run(
        [sys.executable, "-c", CYCLIC_GARBAGE, *args], env=_fresh_env(), capture_output=True, text=True, timeout=120
    )
    assert "Traceback" not in result.stderr, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cyclic_garbage_does_not_grow_with_the_input(universal, corpus_paths, tmp_path):
    # main turns the collector off, which is safe while no command leaves
    # cyclic garbage that grows with its input
    goals = [*json.loads(Path(corpus_paths["goal_nodes.json"]).read_text()), {"object": "lasagna"}]
    corpus_goals = tmp_path / "corpus_goals.json"
    corpus_goals.write_text(json.dumps(goals))
    corpus = _cyclic_garbage("compare", universal, corpus_paths["kitchen.json"], str(corpus_goals), "--format", "csv")
    graph, kitchen, goal = chain_graph(1000)
    assert len(graph.units) >= 2000
    chain_dir = tmp_path / "chain"
    chain_dir.mkdir()
    chain, chain_kitchen, chain_goals = _write_instance(chain_dir, graph, kitchen, goal)
    Path(chain_goals).write_text(json.dumps([{"object": goal.name}, {"object": "lasagna"}]))
    large = _cyclic_garbage("compare", chain, chain_kitchen, chain_goals, "--format", "csv")
    assert corpus[0] == large[0] == 1  # lasagna is unresolvable in both
    assert corpus[1] == large[1]
    assert corpus[2] == large[2] == []


SURVIVORS = (
    "import gc, json, sys\n"
    "from foon.cli import main\n"
    "gc.collect()\n"
    "before = len(gc.get_objects())\n"
    "try:\n"
    "    main(sys.argv[1:], prog_name='foon')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "gc.collect()\n"
    "print()\n"
    "print(json.dumps([code, len(gc.get_objects()) - before]))\n"
)


def _survivors(*args):
    """Exit code, and how many more objects the collector tracks after
    ``foon args`` runs in a new process than before, garbage collected."""
    result = subprocess.run(
        [sys.executable, "-c", SURVIVORS, *args], env=_fresh_env(), capture_output=True, text=True, timeout=120
    )
    assert "Traceback" not in result.stderr, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_what_main_leaves_alive_does_not_grow_with_the_input(universal, corpus_paths, tmp_path):
    # the command's graph, its memo and its keys are freed as the command
    # returns; what stays (lazily imported modules, the regex cache) is the
    # same few hundred objects whatever the input
    corpus = ["retrieve", universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    corpus = _survivors(*corpus, "--algo", "gbfs2", "--out-dir", str(tmp_path / "corpus"))
    graph, kitchen, goal = chain_graph(1000)
    assert len(graph.units) >= 2000
    chain_dir = tmp_path / "chain"
    chain_dir.mkdir()
    chain = _write_instance(chain_dir, graph, kitchen, goal)
    large = _survivors("retrieve", *chain, "--algo", "gbfs2", "--out-dir", str(tmp_path / "large"))
    assert corpus[0] == large[0] == 0
    assert large[1] <= corpus[1] + 100, (corpus, large)


def _foon(*args, **env):
    """Exit code and stdout of ``foon args`` run as a process whose only
    ``FOON_`` variables are ``env``."""
    base = {name: value for name, value in _fresh_env().items() if not name.startswith("FOON_")}
    result = subprocess.run(
        [sys.executable, "-m", "foon.cli", *args], env={**base, **env}, capture_output=True, timeout=120
    )
    return result.returncode, result.stdout


def test_options_beat_environment_which_beats_defaults(universal, corpus_paths, tmp_path):
    inputs = [universal, corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]]
    ids = ["retrieve", *inputs, "--algo", "ids", "--out-dir", str(tmp_path / "o")]
    resolved, capped = _foon(*ids), _foon(*ids, FOON_DEPTH_CAP="1")
    assert resolved[0] == 0 and capped[0] == 1
    assert _foon(*ids, "--depth-cap", "100", FOON_DEPTH_CAP="1") == resolved
    assert _foon(*ids, "--depth-cap", "1") == capped
    assert _foon(*ids, FOON_DEPTH_CAP="") == resolved  # empty counts as unset
    compare = ["compare", *inputs, "--format", "csv"]
    rates = corpus_paths["motion.txt"]
    with_rates = _foon(*compare, "--motion-rates", rates)
    assert with_rates[0] == 0
    assert _foon(*compare, FOON_MOTION_RATES=rates) == with_rates
    assert _foon(*compare, "--motion-rates", rates, FOON_MOTION_RATES=str(tmp_path / "missing.txt")) == with_rates
    assert _foon(*compare, FOON_MOTION_RATES="") == _foon(*compare)


def test_usage_errors_exit_2_as_processes_before_any_work(universal, corpus_paths, tmp_path):
    kitchen, goals = corpus_paths["kitchen.json"], corpus_paths["goal_nodes.json"]
    missing = str(tmp_path / "missing.json")
    out_dir, merged = tmp_path / "trees", tmp_path / "u.foon.txt"
    before = sorted(tmp_path.iterdir())

    def retrieve(*files, algo="ids"):
        return ["retrieve", *(files or (universal, kitchen, goals)), "--algo", algo, "--out-dir", str(out_dir)]

    for args, env in [
        (retrieve(), {"FOON_DEPTH_CAP": "abc"}),
        (retrieve(), {"FOON_DEPTH_CAP": "-1"}),
        (retrieve(), {"FOON_MOTION_RATES": missing}),
        ([*retrieve(), "--depth", "3"], {}),  # an abbreviation of --depth-cap
        (retrieve(universal, missing, goals), {}),
        (retrieve(universal, kitchen, str(tmp_path)), {}),  # a directory
        (retrieve(algo="bogus"), {}),
        (["compare", universal, kitchen, goals, "--format", "html"], {}),
        (["compare", str(tmp_path), kitchen, goals], {}),
        (["viz", missing, "-o", str(tmp_path / "out.dot")], {}),
        (["merge", "-o", str(merged)], {}),  # no inputs
        (["merge", universal, missing, "-o", str(merged)], {}),
        (["search", universal], {}),
        ([], {}),
    ]:
        assert _foon(*args, **env) == (2, b""), (args, env)
        assert sorted(tmp_path.iterdir()) == before, (args, env)


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


@pytest.mark.parametrize(
    "name, parse",
    [("whipped_cream.foon.txt", parse_subgraph), ("kitchen.json", parse_kitchen),
     ("goal_nodes.json", parse_goal_nodes), ("motion.txt", parse_motion_rates)],
)
def test_inputs_read_the_same_after_a_byte_order_mark(name, parse, tmp_path):
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + corpus_file(name).read_bytes())
    assert _parse(parse, str(marked)) == _parse(parse, str(corpus_file(name)))


def test_read_counts_bytes_from_the_start_of_the_file(tmp_path):
    bad = tmp_path / "bad.foon.txt"
    bad.write_bytes(b"\xef\xbb\xbfO\tcr\xe9me\n")  # the mark counts: utf-8-sig would say byte 4
    with pytest.raises(FoonError, match=r"not UTF-8 \(byte 7\)$"):
        _read(str(bad))


def test_read_names_the_file_it_cannot_read(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(FoonError) as caught:
        _read(str(missing))
    assert str(caught.value) == f"cannot read {missing}: {os.strerror(errno.ENOENT)}"
    with pytest.raises(FoonError, match=f"^cannot read {re.escape(str(tmp_path))}: .+"):
        _read(str(tmp_path))  # a directory


_VALID = {
    "graph": corpus_file("whipped_cream.foon.txt").read_bytes(),
    "kitchen": corpus_file("kitchen.json").read_bytes(),
    "goals": corpus_file("goal_nodes.json").read_bytes(),
    "rates": corpus_file("motion.txt").read_bytes(),
}


# JSON that the decoder accepts or chokes on in ways no byte splice reaches:
# nesting past the recursion limit, integers past the digit limit, and
# names, states and ingredients holding lone surrogate escapes
_json_text = st.text(st.characters(categories=["Ll", "Cs"]), min_size=1, max_size=3)
_json_entries = st.lists(
    st.fixed_dictionaries(
        {"object": _json_text},
        optional={"states": st.lists(_json_text, max_size=2), "ingredients": st.lists(_json_text, max_size=2)},
    ),
    max_size=3,
)
_json_docs = st.one_of(
    st.integers(0, 100_000).map(lambda depth: "[" * depth),
    st.integers(4_000, 6_000).map(lambda digits: "[" + "7" * digits + "]"),
    _json_entries.map(json.dumps),
).map(str.encode)


def _file_bytes(name):
    """Arbitrary bytes, or a valid file with a run of bytes spliced in; for
    the JSON files also JSON-shaped documents."""
    valid = _VALID[name]
    spliced = st.tuples(
        st.integers(0, len(valid)), st.integers(0, 16), st.binary(max_size=16)
    ).map(lambda cut: valid[: cut[0]] + cut[2] + valid[cut[0] + cut[1]:])
    json_docs = (_json_docs,) if name in ("kitchen", "goals") else ()
    return st.one_of(st.binary(max_size=256), spliced, *json_docs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=_file_bytes("graph"),
    kitchen=_file_bytes("kitchen"),
    goals=_file_bytes("goals"),
    rates=_file_bytes("rates"),
)
def test_cli_exit_codes_on_arbitrary_input_bytes(graph, kitchen, goals, rates):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("graph", graph), ("kitchen", kitchen), ("goals", goals), ("rates", rates)):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_bytes(data)
        files = [paths["graph"], paths["kitchen"], paths["goals"]]
        for args in (
            ["viz", paths["graph"], "-o", str(Path(tmp) / "out.dot")],
            ["retrieve", *files, "--algo", "gbfs1", "--motion-rates", paths["rates"],
             "--out-dir", str(Path(tmp) / "trees")],
            ["compare", *files, "--motion-rates", paths["rates"], "--with-oracle"],
        ):
            result = runner.invoke(main, args)
            # an exception other than SystemExit escaped the command
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args[0], repr(result.exception)
            )
            assert result.exit_code in (0, 1, 2), (args[0], result.output)
            assert "Traceback" not in result.output
