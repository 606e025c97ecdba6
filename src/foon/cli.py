"""Command-line interface: merge subgraphs, retrieve task trees, compare
algorithms, and render DOT figures.

Exit codes: 0 on success, 1 when one or more goals could not be resolved,
2 on a usage error or a failure to read, parse or write anything, stdout
included (``--help`` too, and a label stdout cannot encode), and also when
stderr cannot take the error message. Commands return 0 or 1; :func:`main`
alone turns errors into 2. Option values beat environment variables
(``FOON_DEPTH_CAP``, ``FOON_MOTION_RATES``; an empty one counts as unset),
which beat defaults. The parser is the standard library's ``argparse``, so
the package has no runtime dependency.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import os
import re
import sys
from pathlib import Path

from .core import Algorithm, FoonError, ObjectKey, TaskTree
from .export import to_dot, write_task_tree
from .merge import merge_subgraphs
from .parser import (
    ParseError,
    ParseWarning,
    SchemaError,
    parse_goal_nodes,
    parse_kitchen,
    parse_motion_rates,
    parse_subgraph,
    write_subgraph,
)
from .retrieval import (
    DEFAULT_DEPTH_CAP,
    HeuristicId,
    UnresolvableGoal,
    derivation_depths,
    retrieve_gbfs,
    retrieve_ids,
)

ALGOS = tuple(algorithm.value for algorithm in Algorithm)

CSV_COLUMNS = ["goal", "algorithm", "units", "expanded", "depth_bound", "resolved"]
CSV_ORACLE_COLUMNS = CSV_COLUMNS + ["minimal_units", "minimal_depth"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FoonError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FoonError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None


def _parse(parse, path: str, **options):
    """``parse`` of the text of the file at ``path``, whose name a parse or
    schema error then carries, as does a parse warning that the warnings
    filter turned into an error."""
    text = _read(path)
    try:
        return parse(text, **options)
    except (ParseError, SchemaError, ParseWarning) as exc:
        raise FoonError(f"cannot parse {path}: {exc}") from None


def _load_graph(path: str):
    return merge_subgraphs([_parse(parse_subgraph, path)]).graph


def _load_inputs(universal: str, kitchen_file: str, goals_file: str, rates_file: str | None):
    """Graph, kitchen, goals and motion rates."""
    graph = _load_graph(universal)
    kitchen = _parse(parse_kitchen, kitchen_file)
    goals = _parse(parse_goal_nodes, goals_file)
    rates = {} if rates_file is None else _parse(parse_motion_rates, rates_file)
    # fill the graph's memo that every retrieval reads, so loading pays for
    # the pass rather than the first retrieval
    derivation_depths(graph, kitchen)
    return graph, kitchen, goals, rates


def _run_algo(algo: str, graph, kitchen, goal, rates, depth_cap) -> TaskTree:
    if algo == "ids":
        return retrieve_ids(graph, kitchen, goal, depth_cap=depth_cap)
    heuristic = HeuristicId.SUCCESS_RATE if algo == "gbfs1" else HeuristicId.INPUT_COUNT
    return retrieve_gbfs(graph, kitchen, goal, heuristic, rates)


def _goal_slug(goal: ObjectKey) -> str:
    return re.sub(r"[^a-z0-9]+", "_", goal.name).strip("_")


def cmd_merge(inputs, out) -> int:
    """Merge recipe subgraph files into one universal FOON."""
    blocks = {}  # one memo for all the files, which repeat each other's objects
    result = merge_subgraphs([_parse(parse_subgraph, path, blocks=blocks) for path in inputs])
    Path(out).write_text(write_subgraph(result.graph.units), encoding="utf-8")
    print(f"kept {result.kept} units, dropped {result.dropped} duplicates -> {out}")
    return 0


def cmd_retrieve(universal, kitchen_file, goals_file, algo, out_dir, depth_cap, motion_rates) -> int:
    """Extract one task tree per goal and write .foon.txt + .dot files."""
    graph, kitchen, goals, rates = _load_inputs(universal, kitchen_file, goals_file, motion_rates)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    stems = set()
    for goal in goals:
        label = str(goal)
        try:
            tree = _run_algo(algo, graph, kitchen, goal, rates, depth_cap)
        except UnresolvableGoal as exc:
            print(f"{label}: unresolvable ({exc.reason})")
            failures += 1
            continue
        stem = base = f"{_goal_slug(goal)}_{algo}"
        suffix = 1
        while stem in stems:  # goals that differ only in states or ingredients share a slug
            suffix += 1
            stem = f"{base}_{suffix}"
        stems.add(stem)
        (out / f"{stem}.foon.txt").write_text(write_task_tree(graph, tree), encoding="utf-8")
        (out / f"{stem}.dot").write_text(to_dot(graph, tree), encoding="utf-8")
        print(f"{label}: {len(tree.steps)} units -> {stem}.foon.txt")
    return 1 if failures else 0


def _compare_rows(graph, kitchen, goals, rates, depth_cap, with_oracle):
    if with_oracle:
        from . import oracle  # imported only by the command that asks for it
    rows = []
    any_failure = False
    for goal in goals:
        oracle_cols = {"minimal_units": "", "minimal_depth": ""}
        # the oracle resolves exactly the goals the forward pass derives
        if with_oracle and goal in derivation_depths(graph, kitchen):
            try:
                units, depth = oracle.minima(graph, kitchen, goal)  # one enumeration for both
                oracle_cols = {"minimal_units": units, "minimal_depth": depth}
            except oracle.TooLarge as exc:
                print(f"{goal}: oracle skipped ({exc})", file=sys.stderr)
        for algo in ALGOS:
            row = {"goal": str(goal), "algorithm": algo}
            try:
                tree = _run_algo(algo, graph, kitchen, goal, rates, depth_cap)
            except UnresolvableGoal:
                any_failure = True
                row.update(units="", expanded="", depth_bound="", resolved="false")
            else:
                row.update(
                    units=len(tree.steps),
                    expanded=tree.stats.units_expanded,
                    depth_bound=tree.stats.final_depth_bound,  # GBFS leaves it None, written empty
                    resolved="true",
                )
            if with_oracle:
                row.update(oracle_cols)
            rows.append(row)
    return rows, any_failure


ALGO_TITLES = {"ids": "IDS", "gbfs1": "GBFS with heuristic 1", "gbfs2": "GBFS with heuristic 2"}


def _render_table(rows) -> str:
    by_goal = {}  # a goal listed twice gets one header over all its rows
    for row in rows:
        units = row["units"] if row["resolved"] == "true" else "unresolvable"
        by_goal.setdefault(row["goal"], []).append(f"  {ALGO_TITLES[row['algorithm']]:<24} {units:>26}")
    lines = []
    for goal, goal_lines in by_goal.items():
        lines.append(f"Goal: {goal}")
        lines.append(f"  {'Search Algorithm':<24} {'Number of Functional Units':>26}")
        lines.extend(goal_lines)
        lines.append("")
    return "\n".join(lines)


def render_csv(rows, with_oracle: bool) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=CSV_ORACLE_COLUMNS if with_oracle else CSV_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_compare(universal, kitchen_file, goals_file, with_oracle, fmt, depth_cap, motion_rates) -> int:
    """Run all three algorithms per goal and report unit counts."""
    graph, kitchen, goals, rates = _load_inputs(universal, kitchen_file, goals_file, motion_rates)
    rows, any_failure = _compare_rows(graph, kitchen, goals, rates, depth_cap, with_oracle)
    sys.stdout.write(render_csv(rows, with_oracle) if fmt == "csv" else _render_table(rows))
    return 1 if any_failure else 0


def cmd_viz(graph_file, out) -> int:
    """Render a subgraph, universal FOON, or task tree file as DOT."""
    graph = _load_graph(graph_file)
    Path(out).write_text(to_dot(graph), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _input_file(path: str) -> str:
    """``path`` when it names a file, for the parser to check inputs with."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"{path!r} does not exist")
    return path


def _depth_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return cap


def _parser(prog_name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name,
        description="Build FOON graphs from recipe subgraphs and extract task trees.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")

    def command(run, name):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def retrieval_inputs(sub):
        for name in ("universal", "kitchen_file", "goals_file"):
            sub.add_argument(name, type=_input_file)

    def search_options(sub):
        sub.add_argument(
            "--depth-cap", type=_depth_cap, default=os.environ.get("FOON_DEPTH_CAP") or DEFAULT_DEPTH_CAP,
            help="Maximum IDS depth bound before giving up (env FOON_DEPTH_CAP; default: %(default)s).",
        )
        sub.add_argument(
            "--motion-rates", type=_input_file, default=os.environ.get("FOON_MOTION_RATES") or None,
            help="motion.txt file with per-motion success rates, for gbfs1 (env FOON_MOTION_RATES).",
        )

    merge = command(cmd_merge, "merge")
    merge.add_argument("inputs", nargs="+", type=_input_file)
    merge.add_argument("--out", "-o", required=True, help="Universal FOON output path.")

    retrieve = command(cmd_retrieve, "retrieve")
    retrieval_inputs(retrieve)
    retrieve.add_argument("--algo", choices=ALGOS, required=True)
    retrieve.add_argument("--out-dir", default=".", help="Directory for the tree files (default: %(default)s).")
    search_options(retrieve)

    compare = command(cmd_compare, "compare")
    retrieval_inputs(compare)
    compare.add_argument("--with-oracle", action="store_true", help="Add exhaustive-search minimal columns.")
    compare.add_argument(
        "--format", dest="fmt", choices=("table", "csv"), default="table", help="Output format (default: %(default)s)."
    )
    search_options(compare)

    viz = command(cmd_viz, "viz")
    viz.add_argument("graph_file", type=_input_file)
    viz.add_argument("--out", "-o", required=True, help="DOT output path.")
    return parser


def _parse_args(prog_name: str, args) -> dict:
    """The options of the command ``args`` names, ``run`` among them. The
    parser's ``--help`` text is written here rather than by ``argparse``,
    which drops a failed write and exits 0, so that it raises ``OSError``."""
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            return vars(_parser(prog_name).parse_args(args))
    finally:  # also after the parser's exit
        sys.stdout.write(help_text.getvalue())
        sys.stdout.flush()


def _flush_or_drop(stream) -> None:
    """Flush ``stream``, or point its descriptor at the null device when it
    cannot take the bytes, so the flush at exit does not fail again."""
    try:
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, stream.fileno())
        finally:
            os.close(devnull)


def main(args=None, prog_name: str = "foon"):
    """Run one command and exit with its code: 0, 1 when a goal is
    unresolvable, 2 on any error, shown as one ``Error:`` line or not at all
    when stderr cannot take it. Usage errors exit 2 from the parser.

    The cyclic garbage collector is off while the command runs, since no
    object it builds forms a reference cycle (see :mod:`foon.core`), and is
    turned back on afterwards only if it was on when ``main`` was called.
    By then reference counting has freed the command's graph."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        options = _parse_args(prog_name, args)
        code = options.pop("run")(**options)
        sys.stdout.flush()
    except (FoonError, OSError, UnicodeEncodeError) as exc:  # from any command, stdout and stderr writes included
        _flush_or_drop(sys.stdout)  # what stdout holds goes before the message
        try:
            sys.stderr.write(f"Error: {exc}\n")
        except OSError:
            pass
        code = 2
    finally:  # also after the parser's exit, whose messages may not have been written
        _flush_or_drop(sys.stdout)
        _flush_or_drop(sys.stderr)
        if collecting:
            gc.enable()
    sys.exit(code)


main.main = main  # the name perfbench/child.py calls


if __name__ == "__main__":
    main()
