"""Benchmark of the ``foon`` CLI on seeded, generated inputs.

Run from the repository root::

    python3 perfbench/run.py --workload resolve --seed 7 --seconds 20 --trace 0

The generator (``gen.py``) writes the workload's files from ``--seed``; the
program receives only those files. One client runs the workload's command
sequence (``workloads.py``) again and again, one ``foon`` process at a time,
for ``--seconds``. Every command gets a time budget, and its exit code,
stderr, stdout, written files and retrieval counters are checked; a command
that fails counts against those attempted and the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self times and
counts per module from spans recorded around the program's public
functions (``child.py``), and the tracing overhead. The spans are written to
``.bench_build/perfbench/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 unless an output check
failed, and 2 when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
CHILD = str(HERE / "child.py")

HARD_LIMIT_S = 165.0  # whole run, generation included; a run must end within 180 s
INVOKE_BUDGET_S = 60.0  # one foon process
MIN_PASSES = 3
# duration of one child.Reference loop at the speed all times are expressed at:
# about its fastest on a 2-vCPU Xeon VM with Python 3.11
REFERENCE_S = 0.003
REFERENCE_WINDOW = 3  # loops on either side of a stretch that set its speed

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("retrievals_per_s", "1/s"),
    ("retrieval_ms_p50", "ms"),
    ("retrieval_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("parser.parse_subgraph.self_s", "s"),
    ("parser.parse_subgraph.calls", "count"),
    ("parser.parse_subgraph.units", "count"),
    ("parser.write_subgraph.self_s", "s"),
    ("parser.write_subgraph.bytes", "bytes"),
    ("parser.inputs.self_s", "s"),
    ("merge.merge_subgraphs.self_s", "s"),
    ("merge.units_in", "count"),
    ("merge.kept_ratio", "ratio"),
    ("core.index_outputs.self_s", "s"),
    ("core.index_outputs.keys", "count"),
    *(
        (f"retrieval.{algo}.{name}", unit)
        for algo in wl.ALGOS
        for name, unit in (
            ("self_s", "s"),
            ("calls", "count"),
            ("units_expanded", "count"),
            ("candidate_evaluations", "count"),
            ("unresolvable", "count"),
            ("yield", "ratio"),
        )
    ),
    ("retrieval.ids.final_depth_bound_max", "count"),
    ("retrieval.execution_order.self_s", "s"),
    ("retrieval.execution_order.steps", "count"),
    ("export.write_task_tree.self_s", "s"),
    ("export.to_dot.self_s", "s"),
    ("export.bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

clock = time.perf_counter
COUNTERS = ("units_expanded", "candidate_evaluations", "final_depth_bound", "decisions")


@dataclass
class Invocation:
    label: str
    started: float = 0.0  # time.perf_counter(), which the child reads too
    wall_s: float = 0.0
    exit_code: int | None = None
    timed_out: bool = False
    maxrss_kb: int = 0
    stdout: str = ""
    stderr: str = ""
    record: dict | None = None
    clock: ReferenceClock | None = None

    def elapsed(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` at the reference speed."""
        return self.clock.at(end) - self.clock.at(start)


class ReferenceClock:
    """Reads one process's time at the reference speed.

    The process ran ``child.Reference`` loops at known moments. Each stretch
    between two loops runs at ``REFERENCE_S`` over the median duration of
    the ``REFERENCE_WINDOW`` loops on either side of it, and the loops' own
    time is left out. Before the first loop and after the last, the nearest
    loops set the speed."""

    def __init__(self, samples: list[list[float]]):
        self.starts = [start for start, _ in samples]
        self.ends = [start + duration for start, duration in samples]
        durations = [duration for _, duration in samples]
        w = REFERENCE_WINDOW
        # stretch j lies before loop j, between ends[j - 1] and starts[j]
        self.scales = [
            REFERENCE_S / statistics.median(durations[max(j - w, 0) : j + w])
            for j in range(len(samples) + 1)
        ]
        self.before = [0.0, 0.0]  # reference time from the first loop's start to ends[j - 1]
        for j in range(1, len(samples)):
            self.before.append(self.before[j] + (self.starts[j] - self.ends[j - 1]) * self.scales[j])

    def at(self, t: float) -> float:
        j = bisect.bisect_right(self.starts, t)
        if j == 0:
            return (t - self.starts[0]) * self.scales[0]
        return self.before[j] + (max(t, self.ends[j - 1]) - self.ends[j - 1]) * self.scales[j]


class Spawner:
    """Runs one child process at a time, each within a time budget.

    ``os.wait4`` gives the child's exit status and peak RSS; SIGALRM kills
    a child that outlives its budget, so the parent needs no second thread.
    """

    def __init__(self, directory: Path, deadline: float):
        self.directory = directory
        self.deadline = deadline
        self._pid: int | None = None
        self._killed = False
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = "0"
        for name in ("FOON_DEPTH_CAP", "FOON_MOTION_RATES"):
            env.pop(name, None)
        self.env = env
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
                self._killed = True
            except ProcessLookupError:
                pass

    def run(self, label: str, args: list[str]) -> Invocation:
        inv = Invocation(label)
        budget = min(INVOKE_BUDGET_S, self.deadline - clock())
        if budget <= 0:
            inv.timed_out = True
            return inv
        record = self.directory / f"{label}.record.json"
        record.unlink(missing_ok=True)
        out, err = self.directory / f"{label}.stdout", self.directory / f"{label}.stderr"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            inv.started = clock()
            proc = subprocess.Popen(
                [sys.executable, CHILD, "--record", record.name, *args],
                cwd=self.directory,
                env=self.env,
                stdout=fout,
                stderr=ferr,
            )
            self._pid, self._killed = proc.pid, False
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._pid = None
            inv.wall_s = clock() - inv.started
        proc.returncode = inv.exit_code = os.waitstatus_to_exitcode(status)
        inv.timed_out = self._killed
        inv.maxrss_kb = usage.ru_maxrss
        inv.stdout = out.read_text(encoding="utf-8", errors="replace")
        inv.stderr = err.read_text(encoding="utf-8", errors="replace")
        if record.exists():
            inv.record = json.loads(record.read_text(encoding="utf-8"))
            inv.clock = ReferenceClock(inv.record["reference"])
        return inv


class TreeValidator:
    """Replays every returned tree with the program's ``validate_task_tree``
    on the graph the command loaded; each distinct tree is checked once."""

    def __init__(self, directory: Path):
        sys.path.insert(0, str(SRC))
        from foon import core, merge, parser

        self.core, self.merge, self.parser = core, merge, parser
        self.directory = directory
        self.kitchen = parser.parse_kitchen((directory / "kitchen.json").read_text(encoding="utf-8"))
        self.goals = {
            str(g.target): g
            for g in parser.parse_goal_nodes((directory / "goals.json").read_text(encoding="utf-8"))
        }
        self._graphs: dict[str, object] = {}
        self._checked: set = set()

    def problems(self, records: list) -> list[str]:
        text = (self.directory / "universal.foon.txt").read_text(encoding="utf-8")
        key = hashlib.sha256(text.encode()).hexdigest()
        if key not in self._graphs:
            self._graphs[key] = self.merge.merge_subgraphs([self.parser.parse_subgraph(text)]).graph
        graph = self._graphs[key]
        problems = []
        for r in records:
            if "steps" not in r or (key, r["goal"], tuple(r["steps"])) in self._checked:
                continue
            tree = self.core.TaskTree(tuple(r["steps"]), self.core.SearchStats(self.core.Algorithm.IDS))
            try:
                self.core.validate_task_tree(graph, self.kitchen, self.goals[r["goal"]], tree)
            except (ValueError, IndexError) as exc:
                problems.append(f"{r['algo']} tree for {r['goal']} is invalid: {exc}")
            else:
                self._checked.add((key, r["goal"], tuple(r["steps"])))
        return problems


@dataclass
class Pass:
    """One run of the workload's command sequence."""

    traced: bool
    invocations: list[Invocation] = field(default_factory=list)


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, deadline: float):
        self.w = workload
        self.seed = seed
        self.directory = WORK / f"{workload.name}-{seed}"
        shutil.rmtree(self.directory, ignore_errors=True)
        self.inputs = wl.build(workload, seed, self.directory)
        self.spawner = Spawner(self.directory, deadline)
        self.recorded = self._recorded_digests()
        self.seen_digests: dict[str, str] = {}
        self.failed_counters: dict[tuple, tuple] = {}
        self.validator: TreeValidator | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_output = False
        self.passes: list[Pass] = []

    def _recorded_digests(self) -> dict:
        table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        entry = table.get(self.w.name, {}).get(str(self.seed))
        if entry and entry.get("inputs") != self.inputs.input_digest():
            print(f"note: inputs for seed {self.seed} differ from the recorded ones; digests not compared")
            return {}
        if not entry:
            print(f"note: no digests recorded for seed {self.seed}; outputs are compared with the first pass only")
        return entry or {}

    def _fail(self, label: str, problems: list[str], wrong_output: bool = True) -> None:
        self.failures.append(f"pass {len(self.passes)} {label}: " + "; ".join(problems))
        self.wrong_output |= wrong_output

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        for command in self.inputs.commands:
            for out in command.outputs:
                path = self.directory / out
                shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
        for command in self.inputs.commands:
            args = [*(["--trace"] if traced else []), "--", *command.argv]
            inv = self.spawner.run(command.label, args)
            self.attempted += 1
            p.invocations.append(inv)
            self._check(command, inv)
        self.passes.append(p)
        return p

    def _check(self, command: wl.Command, inv: Invocation) -> None:
        if inv.timed_out:
            self._fail(command.label, [f"timed out after {inv.wall_s:.1f} s"], wrong_output=False)
            return
        problems = []
        if "Traceback (most recent call last)" in inv.stderr:
            problems.append("traceback: " + inv.stderr.strip().splitlines()[-1])
        if inv.exit_code != command.expect_exit:
            problems.append(f"exit code {inv.exit_code}, expected {command.expect_exit}")
        if inv.record is None:
            problems.append("no record written")
        if not problems:
            records = inv.record["retrievals"]
            problems += wl.check_command(self.inputs, command, inv.stdout, records, self.directory)
            if any("steps" in r for r in records):
                if self.validator is None:
                    self.validator = TreeValidator(self.directory)
                problems += self.validator.problems(records)
            digest = wl.command_digest(command, inv.exit_code, inv.stdout, records, self.directory)
            want = self.recorded.get(command.label) or self.seen_digests.setdefault(command.label, digest)
            if digest != want:
                source = "recorded for this seed" if command.label in self.recorded else "of the first pass"
                problems.append(f"output digest {digest[:12]} differs from the one {source} ({want[:12]})")
            problems += self._check_failed_counters(command, records)
        if problems:
            self._fail(command.label, problems)

    def _check_failed_counters(self, command: wl.Command, records: list) -> list[str]:
        """The work a failed retrieval did is not in the digest, but it
        must be the same on every pass, traced or not."""
        problems = []
        for r in records:
            if "reason" in r:
                counters = tuple(r.get(name) for name in COUNTERS)
                first = self.failed_counters.setdefault((command.label, r["goal"], r["algo"]), counters)
                if counters != first:
                    problems.append(f"failed {r['algo']} on {r['goal']} did work {counters}, first pass {first}")
        return problems

    def digests(self) -> dict:
        return {"inputs": self.inputs.input_digest(), **self.seen_digests}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed(passes: list[Pass]) -> list[Pass]:
    """The passes whose every command left a record to time it by."""
    return [p for p in passes if p.invocations and all(inv.clock for inv in p.invocations)]


def _pass_wall(p: Pass) -> float:
    return sum(inv.elapsed(inv.started, inv.started + inv.wall_s) for inv in p.invocations)


def _wall(passes: list[Pass]) -> float:
    return _median([_pass_wall(p) for p in _timed(passes)])


def _latencies(passes: list[Pass]) -> list[float]:
    """Median latency of each retrieval (command, goal, algorithm) over the passes, sorted."""
    samples: dict[tuple, list[float]] = {}
    for p in _timed(passes):
        for inv in p.invocations:
            for r in inv.record["retrievals"]:
                if "end" in r:
                    slot = (inv.label, r["goal"], r["algo"])
                    samples.setdefault(slot, []).append(inv.elapsed(r["start"], r["end"]))
    return sorted(statistics.median(v) for v in samples.values())


def end_to_end(bench: Bench) -> tuple[dict, list[str]]:
    """Times are medians over passes, each expressed at the reference speed.

    On a 2-vCPU virtual machine shared with other tenants the CPU runs at
    speeds up to 1.7x apart, changing every few seconds, so raw times
    measure the neighbours as much as the program. Every process therefore
    times a fixed loop (``child.Reference``) before, during and after
    its command, and ``ReferenceClock`` reads each of its times at the speed
    where that loop takes ``REFERENCE_S``. ``setup_s`` is the median
    over every command that reached a retrieval. The tail is the highest
    percentile with ten retrievals beyond it, so its rank depends on the
    workload alone, not on how many passes fit in the run."""
    passes = _timed([p for p in bench.passes if not p.traced])
    latencies = _latencies(passes)
    tail_rank = max(len(latencies) - 11, 0)
    rss = [max(inv.maxrss_kb for inv in p.invocations) / 1024.0 for p in passes]
    setups = [
        inv.elapsed(inv.record["started"], inv.record["setup_end"])
        for p in passes
        for inv in p.invocations
        if "setup_end" in inv.record
    ]
    values = {
        "wall_s": _wall(passes),
        "setup_s": _median(setups),
        "retrievals_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "retrieval_ms_p50": 1000 * _median(latencies),
        "retrieval_ms_tail": 1000 * latencies[tail_rank] if latencies else 0.0,
        "peak_rss_mb": _median(rss),
    }
    share = 100.0 * tail_rank / len(latencies) if latencies else 0.0
    notes = [
        f"passes {len(passes)}, set-up samples {len(setups)}, retrievals {len(latencies)} distinct",
        f"retrieval_ms_tail is p{share:.1f} of {len(latencies)} retrievals, "
        f"{len(latencies) - tail_rank - 1} beyond it",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def _self_times(inv: Invocation) -> list[float]:
    spans = inv.record["spans"]
    own = [inv.elapsed(span[1], span[2]) for span in spans]
    for span, length in zip(spans, list(own)):
        if span[3] is not None:
            own[span[3]] -= length
    return own


def _layer_values(p: Pass) -> dict:
    v: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    kept = 0
    for inv in p.invocations:
        for span, own in zip(inv.record["spans"], _self_times(inv)):
            name, counts = span[0], span[4]
            if name == "cli.invoke":
                v["cli.self_s"] += own
                continue
            v[f"{name}.self_s"] += own
            if name == "parser.parse_subgraph":
                v["parser.parse_subgraph.calls"] += 1
                v["parser.parse_subgraph.units"] += counts.get("units", 0)
            elif name == "parser.write_subgraph":
                v["parser.write_subgraph.bytes"] += counts.get("bytes", 0)
            elif name == "merge.merge_subgraphs":
                v["merge.units_in"] += counts.get("units_in", 0)
                kept += counts.get("kept", 0)
            elif name == "core.index_outputs":
                v["core.index_outputs.keys"] += counts.get("keys", 0)
            elif name == "retrieval.execution_order":
                v["retrieval.execution_order.steps"] += counts.get("steps", 0)
            elif name.startswith("export."):
                v["export.bytes"] += counts.get("bytes", 0)
        for r in inv.record["retrievals"]:
            prefix = f"retrieval.{r['algo']}"
            v[f"{prefix}.calls"] += 1
            v[f"{prefix}.units_expanded"] += r.get("units_expanded", 0)
            v[f"{prefix}.candidate_evaluations"] += r.get("candidate_evaluations", 0)
            v[f"{prefix}.unresolvable"] += "reason" in r
            v[f"{prefix}.yield"] += len(r.get("steps", ()))  # divided below
            if r["algo"] == "ids":
                bound = r.get("final_depth_bound") or 0
                v["retrieval.ids.final_depth_bound_max"] = max(v["retrieval.ids.final_depth_bound_max"], bound)
    v["merge.kept_ratio"] = kept / v["merge.units_in"] if v["merge.units_in"] else 0.0
    for algo in wl.ALGOS:
        expanded = v[f"retrieval.{algo}.units_expanded"]
        v[f"retrieval.{algo}.yield"] = v[f"retrieval.{algo}.yield"] / expanded if expanded else 0.0
    return v


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    traced = _timed([p for p in bench.passes if p.traced])
    plain = _timed([p for p in bench.passes if not p.traced])
    per_pass = [_layer_values(p) for p in traced]
    values = {name: _median([v[name] for v in per_pass]) for name, _ in PER_LAYER}
    invocations = [inv for p in traced + plain for inv in p.invocations]
    imports = [inv.elapsed(inv.record["started"], inv.record["imported"]) for inv in invocations]
    values["cli.import_s"] = _median(imports)
    values["trace.overhead_s"] = _wall(traced) - _wall(plain)
    notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, notes


def write_spans(bench: Bench) -> Path:
    path = WORK / f"spans-{bench.w.name}-{bench.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for number, p in enumerate(bench.passes):
            for inv in p.invocations:
                for name, start, end, parent, counts in (inv.record or {}).get("spans", ()):
                    span = {"run": f"{number}.{inv.label}", "name": name, "start": start, "end": end}
                    out.write(json.dumps({**span, "parent": parent, "counts": counts}) + "\n")
    return path


def measure(bench: Bench, seconds: float, trace: bool) -> None:
    """Repeat the command sequence for ``seconds``; in a traced run,
    alternate untraced and traced passes and end on a traced one."""
    started = clock()
    while clock() < bench.spawner.deadline:
        traced = trace and len(bench.passes) % 2 == 1
        bench.run_pass(traced)
        if clock() - started < seconds:
            continue
        if trace:
            if traced:
                break
            continue
        if len(bench.passes) >= MIN_PASSES:
            break


def main(argv: list[str] | None = None) -> int:
    started = clock()
    parser = argparse.ArgumentParser(description="Benchmark of the foon CLI on generated inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "foon" / "cli.py").is_file():
        print(f"error: the program's sources are not at {SRC / 'foon'}", file=sys.stderr)
        return 2

    bench = Bench(wl.WORKLOADS[args.workload], args.seed, started + HARD_LIMIT_S)
    measure(bench, args.seconds, bool(args.trace))
    metrics, notes = per_layer(bench) if args.trace else end_to_end(bench)
    failed = len(bench.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {clock() - started:.1f} s")
    for note in notes:
        print("  " + note)
    print(f"  failed_share {failed}/{bench.attempted} = {failed / max(bench.attempted, 1):.4f}")
    for failure in bench.failures:
        print("  FAIL " + failure)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {write_spans(bench).relative_to(ROOT)}")
    shutil.rmtree(bench.directory, ignore_errors=True)
    result = {"correct": not bench.wrong_output, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if bench.wrong_output else 0


if __name__ == "__main__":
    sys.exit(main())
