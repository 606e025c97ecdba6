"""Runs inside each process the benchmark starts; never imported by ``run.py``.

``python3 child.py --record FILE [--trace] -- <foon arguments>`` runs one
``foon`` CLI command in this process, the way the ``foon`` console script
does, and writes a JSON record to FILE. Every time in it is a reading of
``time.perf_counter``, the system-wide monotonic clock the parent reads too:

* ``started``, ``imported`` and ``setup_end``: just before and after
  ``import foon.cli``, and at the first retrieval. Set-up is everything in
  between: importing, parsing the arguments, reading, parsing, merging and
  indexing the graph and reading kitchen, goals and rates;
* one entry per retrieval, with its start, end, outcome and the counters
  the output checks need, failed retrievals included. For this,
  ``retrieve_ids`` and ``retrieve_gbfs`` are wrapped where ``foon.cli``
  looks them up, and ``SearchStats`` is caught as it is built (one call per
  retrieval): the only hooks in an untraced run;
* ``reference``: start and duration of each run of a fixed pure-Python
  loop, three before the command, one before each retrieval, three after
  the command and one every 50 ms in between, from a timer signal. They
  show how fast this process's CPU ran at each moment, so ``run.py`` can
  express every time at one reference speed and leave the loops out;
* with ``--trace``, spans around the public functions of every module,
  patched where they are looked up (see ``PATCHES``).

The record is written even when the command raises, and the exception then
propagates, so the process exits 1 with a traceback just as ``foon`` would.
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys
import time
from pathlib import Path

_clock = time.perf_counter
REFERENCE_ITERATIONS = 20000  # about 3 ms on a 2-vCPU Xeon VM at its faster speed
REFERENCE_EVERY_S = 0.05
END_SAMPLES = 3  # reference samples before and after the command


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, counts]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def start(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _clock(), None, self._open[-1] if self._open else None, {}])
        self._open.append(index)
        return index

    def end(self, index: int, counts: dict) -> None:
        self._open.pop()
        span = self.spans[index]
        span[2] = _clock()
        span[4] = counts


class Reference:
    """Runs of a fixed pure-Python loop of dict updates, the yardstick for
    this process's CPU speed: [start, duration] each."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self._busy = False

    def sample(self, times: int = 1) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            for _ in range(times):
                started = _clock()
                counts: dict = {}
                for i in range(REFERENCE_ITERATIONS):
                    counts[i % 1000] = counts.get(i % 1000, 0) + i
                self.samples.append([started, _clock() - started])
        finally:
            self._busy = False


def _len_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


# (module, attribute, span name, counts taken from (bound arguments, result))
PATCHES = (
    ("foon.cli", "parse_subgraph", "parser.parse_subgraph", lambda a, r: {"units": len(r)}),
    ("foon.cli", "write_subgraph", "parser.write_subgraph", lambda a, r: {"bytes": _len_bytes(r)}),
    ("foon.export", "write_subgraph", "parser.write_subgraph", lambda a, r: {"bytes": _len_bytes(r)}),
    ("foon.cli", "parse_kitchen", "parser.inputs", None),
    ("foon.cli", "parse_goal_nodes", "parser.inputs", None),
    ("foon.cli", "parse_motion_rates", "parser.inputs", None),
    (
        "foon.cli",
        "merge_subgraphs",
        "merge.merge_subgraphs",
        lambda a, r: {"units_in": sum(len(s) for s in a["subgraphs"]), "kept": r.kept},
    ),
    ("foon.merge", "index_outputs", "core.index_outputs", lambda a, r: {"keys": len(r.output_index)}),
    ("foon.retrieval", "execution_order", "retrieval.execution_order", lambda a, r: {"steps": len(r)}),
    ("foon.cli", "write_task_tree", "export.write_task_tree", lambda a, r: {"bytes": _len_bytes(r)}),
    ("foon.cli", "to_dot", "export.to_dot", lambda a, r: {"bytes": _len_bytes(r)}),
)


def _wrap(tracer: Tracer, fn, name: str, counter):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        index = tracer.start(name)
        counts = {}
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result
        finally:
            tracer.end(index, counts)

    return wrapper


def _algo_name(fn_name: str, arguments: dict) -> str:
    if fn_name == "retrieve_ids":
        return "ids"
    return "gbfs1" if arguments["heuristic"].value == "success-rate" else "gbfs2"


def _add_counts(record: dict, stats) -> None:
    if stats is not None:
        record.update(
            units_expanded=stats.units_expanded,
            candidate_evaluations=stats.candidate_evaluations,
            final_depth_bound=stats.final_depth_bound,
            decisions=len(stats.decision_log),
        )


def _wrap_retrieval(
    tracer: Tracer, record: dict, reference: Reference, fn, fn_name: str, unresolvable_type, last_stats: list
):
    """Time one retrieval and record what the output checks compare. The
    first call also ends set-up."""
    signature = inspect.signature(fn)
    records = record["retrievals"]

    def wrapper(*args, **kwargs):
        record.setdefault("setup_end", _clock())
        reference.sample()
        arguments = signature.bind(*args, **kwargs).arguments
        algo = _algo_name(fn_name, arguments)
        entry = {"algo": algo, "goal": str(arguments["goal"].target)}
        records.append(entry)
        index = tracer.start(f"retrieval.{algo}") if tracer.enabled else None
        last_stats.clear()
        entry["start"] = _clock()
        try:
            tree = fn(*args, **kwargs)
        except unresolvable_type as exc:
            entry["end"] = _clock()
            entry["reason"] = exc.reason
            _add_counts(entry, last_stats[0] if last_stats else None)
            raise
        else:
            entry["end"] = _clock()
            entry["steps"] = list(tree.steps)
            _add_counts(entry, tree.stats)
            return tree
        finally:
            if index is not None:
                tracer.end(index, {})

    return wrapper


def _install(tracer: Tracer, record: dict, reference: Reference) -> None:
    import importlib

    import foon.cli
    import foon.retrieval

    # a failed retrieval raises before returning its stats; catch the
    # object as it is built so its work is recorded too
    last_stats: list = []
    stats_type = foon.retrieval.SearchStats

    def recording_stats(*args, **kwargs):
        stats = stats_type(*args, **kwargs)
        last_stats[:] = [stats]
        return stats

    foon.retrieval.SearchStats = recording_stats
    for fn_name in ("retrieve_ids", "retrieve_gbfs"):
        fn = getattr(foon.cli, fn_name)
        setattr(
            foon.cli,
            fn_name,
            _wrap_retrieval(tracer, record, reference, fn, fn_name, foon.retrieval.UnresolvableGoal, last_stats),
        )
    if not tracer.enabled:
        return
    for module_name, attr, name, counter in PATCHES:
        module = importlib.import_module(module_name)
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, counter))


def invoke(args) -> int:
    tracer = Tracer(args.trace)
    reference = Reference()
    record = {"retrievals": [], "reference": reference.samples}
    reference.sample(END_SAMPLES)
    signal.signal(signal.SIGALRM, lambda signum, frame: reference.sample())
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    record["started"] = _clock()
    try:
        import foon.cli

        record["imported"] = _clock()
        _install(tracer, record, reference)
        root = tracer.start("cli.invoke") if tracer.enabled else None
        try:
            foon.cli.main.main(args=args.foon_args, prog_name="foon")
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else (0 if code is None else 1)
        finally:
            if root is not None:
                tracer.end(root, {})
        return 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        reference.sample(END_SAMPLES)
        record["spans"] = tracer.spans
        Path(args.record).write_text(json.dumps(record), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("foon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.foon_args[:1] == ["--"]:
        args.foon_args = args.foon_args[1:]
    return invoke(args)


if __name__ == "__main__":
    sys.exit(main())
