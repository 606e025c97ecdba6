"""Command-line interface: merge subgraphs, retrieve task trees, compare
algorithms, and render DOT figures.

Exit codes: 0 on success, 1 when one or more goals could not be resolved,
2 on a usage error or a failure to read, parse or write anything, stdout
included. Option values beat environment variables (``FOON_DEPTH_CAP``,
``FOON_MOTION_RATES``), which beat defaults.
"""

from __future__ import annotations

import csv
import io
import os
import re
import sys
from pathlib import Path

import click

from .core import FoonError, GoalSpec, TaskTree
from .export import to_dot, write_task_tree
from .merge import merge_subgraphs
from .parser import (
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

ALGOS = ("ids", "gbfs1", "gbfs2")

CSV_COLUMNS = ["goal", "algorithm", "units", "expanded", "depth_bound", "resolved"]
CSV_ORACLE_COLUMNS = CSV_COLUMNS + ["minimal_units", "minimal_depth"]


def _fail(message: str):
    # parse/I-O failures share exit code 2 with usage errors
    exc = click.ClickException(message)
    exc.exit_code = 2
    raise exc


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        _fail(f"cannot read {path}: not UTF-8 (byte {exc.start})")


def _load_graph(path: str):
    return merge_subgraphs([parse_subgraph(_read(path))]).graph


def _load_inputs(universal: str, kitchen_file: str, goals_file: str, rates_file: str | None):
    """Graph, kitchen, goals and motion rates."""
    graph = _load_graph(universal)
    kitchen = parse_kitchen(_read(kitchen_file))
    goals = parse_goal_nodes(_read(goals_file))
    rates = {} if rates_file is None else parse_motion_rates(_read(rates_file))
    # fill the cache every retrieval reads, so loading pays for it once
    # rather than the first retrieval
    derivation_depths(graph, kitchen)
    return graph, kitchen, goals, rates


def _run_algo(algo: str, graph, kitchen, goal, rates, depth_cap) -> TaskTree:
    if algo == "ids":
        return retrieve_ids(graph, kitchen, goal, depth_cap=depth_cap)
    heuristic = HeuristicId.SUCCESS_RATE if algo == "gbfs1" else HeuristicId.INPUT_COUNT
    return retrieve_gbfs(graph, kitchen, goal, heuristic, rates)


def _goal_slug(goal: GoalSpec) -> str:
    return re.sub(r"[^a-z0-9]+", "_", goal.target.name).strip("_")


depth_cap_option = click.option(
    "--depth-cap",
    type=click.IntRange(min=0),
    default=DEFAULT_DEPTH_CAP,
    envvar="FOON_DEPTH_CAP",
    show_default=True,
    help="Maximum IDS depth bound before giving up.",
)
rates_option = click.option(
    "--motion-rates",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    envvar="FOON_MOTION_RATES",
    help="motion.txt file with per-motion success rates (for gbfs1).",
)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FoonError, OSError) as exc:  # from any command, stdout writes included
            try:
                sys.stdout.flush()
            except OSError:  # drop the bytes stdout cannot take, or the exit flush fails too
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _fail(str(exc))


@click.group(cls=_Group)
def main():
    """Build FOON graphs from recipe subgraphs and extract task trees."""


@main.command("merge")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", required=True, type=click.Path(dir_okay=False), help="Universal FOON output path.")
def cmd_merge(inputs, out):
    """Merge recipe subgraph files into one universal FOON."""
    result = merge_subgraphs([parse_subgraph(_read(path)) for path in inputs])
    Path(out).write_text(write_subgraph(result.graph.units), encoding="utf-8")
    click.echo(f"kept {result.kept} units, dropped {result.dropped} duplicates -> {out}")


@main.command("retrieve")
@click.argument("universal", type=click.Path(exists=True, dir_okay=False))
@click.argument("kitchen_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("goals_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--algo", type=click.Choice(ALGOS), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
@depth_cap_option
@rates_option
def cmd_retrieve(universal, kitchen_file, goals_file, algo, out_dir, depth_cap, motion_rates):
    """Extract one task tree per goal and write .foon.txt + .dot files."""
    graph, kitchen, goals, rates = _load_inputs(universal, kitchen_file, goals_file, motion_rates)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    stems = set()
    for goal in goals:
        label = str(goal.target)
        try:
            tree = _run_algo(algo, graph, kitchen, goal, rates, depth_cap)
        except UnresolvableGoal as exc:
            click.echo(f"{label}: unresolvable ({exc.reason})")
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
        click.echo(f"{label}: {len(tree.steps)} units -> {stem}.foon.txt")
    if failures:
        sys.exit(1)


def _compare_rows(graph, kitchen, goals, rates, depth_cap, with_oracle):
    if with_oracle:
        from . import oracle  # imported only by the command that asks for it
    rows = []
    any_failure = False
    for goal in goals:
        oracle_cols = {"minimal_units": "", "minimal_depth": ""}
        # the oracle resolves exactly the goals the forward pass derives
        if with_oracle and goal.target in derivation_depths(graph, kitchen):
            try:
                units, depth = oracle.minima(graph, kitchen, goal)  # one enumeration for both
                oracle_cols = {"minimal_units": units, "minimal_depth": depth}
            except oracle.TooLarge as exc:
                click.echo(f"{goal.target}: oracle skipped ({exc})", err=True)
        for algo in ALGOS:
            row = {"goal": str(goal.target), "algorithm": algo}
            try:
                tree = _run_algo(algo, graph, kitchen, goal, rates, depth_cap)
            except UnresolvableGoal:
                any_failure = True
                row.update(units="", expanded="", depth_bound="", resolved="false")
            else:
                row.update(
                    units=len(tree.steps),
                    expanded=tree.stats.units_expanded,
                    depth_bound=tree.stats.final_depth_bound if algo == "ids" else "",
                    resolved="true",
                )
            if with_oracle:
                row.update(oracle_cols)
            rows.append(row)
    return rows, any_failure


ALGO_TITLES = {"ids": "IDS", "gbfs1": "GBFS with heuristic 1", "gbfs2": "GBFS with heuristic 2"}


def _render_table(rows) -> str:
    lines = []
    for goal in dict.fromkeys(row["goal"] for row in rows):
        lines.append(f"Goal: {goal}")
        lines.append(f"  {'Search Algorithm':<24} {'Number of Functional Units':>26}")
        for row in rows:
            if row["goal"] != goal:
                continue
            units = row["units"] if row["resolved"] == "true" else "unresolvable"
            lines.append(f"  {ALGO_TITLES[row['algorithm']]:<24} {units:>26}")
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


@main.command("compare")
@click.argument("universal", type=click.Path(exists=True, dir_okay=False))
@click.argument("kitchen_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("goals_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--with-oracle", is_flag=True, help="Add exhaustive-search minimal columns.")
@click.option("--format", "fmt", type=click.Choice(["table", "csv"]), default="table", show_default=True)
@depth_cap_option
@rates_option
def cmd_compare(universal, kitchen_file, goals_file, with_oracle, fmt, depth_cap, motion_rates):
    """Run all three algorithms per goal and report unit counts."""
    graph, kitchen, goals, rates = _load_inputs(universal, kitchen_file, goals_file, motion_rates)
    rows, any_failure = _compare_rows(graph, kitchen, goals, rates, depth_cap, with_oracle)
    click.echo(render_csv(rows, with_oracle) if fmt == "csv" else _render_table(rows), nl=False)
    if any_failure:
        sys.exit(1)


@main.command("viz")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", required=True, type=click.Path(dir_okay=False), help="DOT output path.")
def cmd_viz(graph_file, out):
    """Render a subgraph, universal FOON, or task tree file as DOT."""
    graph = _load_graph(graph_file)
    Path(out).write_text(to_dot(graph), encoding="utf-8")
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
