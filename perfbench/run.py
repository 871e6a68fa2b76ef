#!/usr/bin/env python3
"""End-to-end benchmark of the tabgrid CLI chain, with an optional traced run.

Usage (from the root of a tabgrid checkout):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each run builds its inputs from the seed with the program's own generator
(``tabgrid gen-fixtures``, or the dense stacker in ``perfbench/dense.py``)
three times, then runs the chain

    recognize -> interpret -> eval recognition -> eval cells -> eval interpretation

as separate ``python -m tabgrid`` processes on the checkout's ``src/``, one
command after the other (a closed loop with one client).  It repeats the
chain until ``--seconds`` have passed, and at least three times; on the
dense workloads each chain runs the commands after recognize more than
once (``REST_REPEATS``).  ``TABGRID_THREADS`` and ``TABGRID_NUMBA`` are
cleared, so every command runs at its defaults.  Each process is timed
with ``os.wait4`` (wall, CPU, peak RSS).  A run reports the mean over its
executions of each command, and the median of its set-ups.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs the
chain once in this process through ``tabgrid.cli.main`` with every
function in ``perfbench/tracer.py`` wrapped, between two untraced
in-process chains that measure the tracing overhead, and prints the
per-layer metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--out FILE`` also
writes the full report (environment, output digests, per-chain timings
and, when traced, every span).

A run is correct when every command succeeds, the outputs of every chain
(and of the traced chain) hash the same, every recognized grid tiles, and
on ``corpus`` all three F1 scores are 1.0.  Work files live in
``.perfbench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
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

SETUP_REPEATS = 3
MIN_CHAINS = 3  # so that no single chain sets a run's figures
STARTUP_REPEATS = 5
CLEARED_ENV = ("TABGRID_THREADS", "TABGRID_NUMBA")

CORPUS_SPEC = {
    "bordered": {"count": 200},
    "booktabs": {"count": 200},
    "interpretation": {"count": 100},
}
DENSE_TABLES = "5,10,20,40,80"
DENSE_NOLINE_TABLES = "5,10,15"
WORKLOADS = ("corpus", "dense", "dense-noline")
# Times each chain runs the commands after recognize.  On dense pages they
# take a fraction of a second, mostly interpreter start-up, which one
# execution per chain times too coarsely.
REST_REPEATS = {"corpus": 1, "dense": 3, "dense-noline": 2}

# name -> unit, as printed; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "recognize_pages_per_s": "pages/s",
    "interpret_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "recognition_f1": "ratio",
    "cells_wavg_f1": "ratio",
    "interpretation_f1": "ratio",
    "page_success_rate": "ratio",
}

sys.path.insert(0, str(HERE))
from stats import summarize  # noqa: E402
from tracer import TRACED_NAMES, Tracer, covered  # noqa: E402

# (name, unit, better) of the per-layer metrics, in print order.
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("cli.recognize.cpu_s", "s", "lower"),
    ("cli.recognize.cpu_util", "ratio", "higher"),
    ("cli.interpret.cpu_util", "ratio", "higher"),
    ("cli.page_error_rate", "ratio", "lower"),
    ("corpusio.bytes_read", "B", "lower"),
    ("corpusio.bytes_written", "B", "lower"),
    ("model.assign_words_to_cells.pairs", "count", "lower"),
    ("pipeline.recognize_page.p50_s", "s", "lower"),
    ("pipeline.recognize_page.p_hi_s", "s", "lower"),
    ("pipeline.recognize_page.p_hi_pct", "%", "higher"),
    ("pipeline.recognize_page.max_s", "s", "lower"),
    ("pipeline.recognize_page.samples", "count", "higher"),
    ("pipeline.accepted_ratio", "ratio", "higher"),
    ("separator.merge_separators.pairs", "count", "lower"),
    ("separator.kept_ratio", "ratio", "higher"),
    ("booktabs.compute_column_threshold.words_scanned", "count", "lower"),
    ("booktabs.kept_ratio", "ratio", "higher"),
    ("interpret.match_meanings.per_table", "ratio", "lower"),
    ("kernels.levenshtein_codes.cells", "count", "lower"),
    ("kernels.levenshtein_codes.max_len", "count", "lower"),
    ("kernels.hungarian_min.cells", "count", "lower"),
    ("kernels.interval_profile.bins", "count", "lower"),
    ("kernels.iou_matrix.pairs", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.threads", "count", "higher"),
    ("trace.counter_errors", "count", "lower"),
] + [
    (f"{name}.{stat}", unit, "lower")
    for name in TRACED_NAMES
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("wait_s", "s"))
]

_ERROR_LINE = re.compile(r"^error: ([^:\s]+\.json): ", re.MULTILINE)


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_proc(argv: list, log: Path) -> Proc:
    """Run one process to completion; wall from spawn to reap, rusage from wait4."""
    with open(log, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
            cwd=log.parent,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def tabgrid_argv(*args) -> list:
    return [sys.executable, "-m", "tabgrid", *args]


# ---------------------------------------------------------------------------
# inputs and the chain


def setup_argv(workload: str, seed: int, work: Path, out: Path) -> list:
    if workload == "corpus":
        spec = work / "spec.json"
        spec.write_text(json.dumps({"seed": seed, "random": CORPUS_SPEC}), encoding="utf-8")
        return tabgrid_argv("gen-fixtures", spec, out)
    tables = DENSE_TABLES if workload == "dense" else DENSE_NOLINE_TABLES
    argv = [sys.executable, HERE / "dense.py", out, "--seed", seed, "--tables", tables]
    return argv + (["--no-line-ids"] if workload == "dense-noline" else [])


@dataclass
class Command:
    name: str
    args: list
    output: Path  # directory (with a run manifest) or report file
    page_scoped: bool


def chain(inputs: Path, out: Path, repeats: int = 1) -> list[Command]:
    """recognize, then the commands after it ``repeats`` times on its output."""
    pred = out / "pred"
    cmds = [Command("recognize", ["recognize", inputs / "layouts", pred, "--config",
                                  inputs / "recognizer_config.json"], pred, True)]
    for r in range(repeats):
        rest = out / f"r{r}"
        tuples = rest / "tuples"
        cmds += [
            Command("interpret", ["interpret", pred, inputs / "rules.json", tuples], tuples, True),
            Command("eval recognition", ["eval", "recognition", inputs / "recognition_gt", pred,
                                         "--strict", "--out", rest / "recognition.json"],
                    rest / "recognition.json", False),
            Command("eval cells", ["eval", "cells", inputs / "recognition_gt", pred, "--strict",
                                   "--out", rest / "cells.json"], rest / "cells.json", False),
            # not --strict: a lost table renumbers the tuple sets after it on
            # its page, and the evaluator pairs tuple sets by content anyway
            Command("eval interpretation", ["eval", "interpretation",
                                            inputs / "interpretation_gt", tuples,
                                            "--out", rest / "interpretation.json"],
                    rest / "interpretation.json", False),
        ]
    return cmds


def written(output: Path) -> bool:
    if output.suffix == ".json":
        return output.is_file()
    return (output / "run_manifest.json").is_file()


def failed_pages(rc: int, stderr: str, output: Path, n_pages: int) -> int:
    """Pages a command failed on: its ``error: <file>:`` lines, or all of
    them when it crashed, wrote nothing, or failed without naming files."""
    if rc == 0 and written(output):
        return 0
    files = set(_ERROR_LINE.findall(stderr))
    if rc == 1 or not written(output) or not files:
        return n_pages
    return min(len(files), n_pages)


def digest(path: Path) -> str:
    """sha256 over a file, or over a directory's files except run_manifest.json."""
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.read_bytes())
    elif path.is_dir():
        for p in sorted(path.rglob("*")):
            if p.is_file() and p.name != "run_manifest.json":
                h.update(str(p.relative_to(path)).encode() + b"\0")
                h.update(p.read_bytes() + b"\0")
    else:
        return "missing"
    return h.hexdigest()


def quality(out: Path) -> dict:
    def field_of(name: str, *keys) -> float:
        try:
            value = json.loads((out / name).read_text(encoding="utf-8"))
            for k in keys:
                value = value[k]
            return float(value)
        except (OSError, ValueError, KeyError, TypeError):
            return 0.0

    return {
        "recognition_f1": field_of("recognition.json", "corpus", "f1"),
        "cells_wavg_f1": field_of("cells.json", "wavg_f1"),
        "interpretation_f1": field_of("interpretation.json", "f1"),
    }


@dataclass
class ChainResult:
    wall: dict = field(default_factory=dict)  # command -> [s, one per execution]
    cpu: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def total(self) -> float:
        """Wall time of one pass through the chain."""
        return sum(statistics.fmean(w) for w in self.wall.values())


def finish_chain(res: ChainResult, cmds: list[Command], out: Path, n_pages: int, outcomes) -> None:
    for cmd, (rc, stderr) in zip(cmds, outcomes):
        res.attempted += n_pages
        bad = failed_pages(rc, stderr, cmd.output, n_pages)
        res.failed += bad
        if bad:
            res.errors.append(f"{cmd.name}: exit {rc}: {stderr.strip()[:500]}")
        d = digest(cmd.output)
        if res.digests.setdefault(cmd.name, d) != d:
            res.errors.append(f"{cmd.name}: outputs differ between repeats")
    res.quality = quality(out / "r0")


def run_chain(inputs: Path, out: Path, n_pages: int, repeats: int) -> ChainResult:
    cmds = chain(inputs, out, repeats)
    res = ChainResult()
    outcomes = []
    for i, cmd in enumerate(cmds):
        cmd.output.parent.mkdir(parents=True, exist_ok=True)
        p = run_proc(tabgrid_argv(*cmd.args), cmd.output.parent / f"stderr{i}.txt")
        res.wall.setdefault(cmd.name, []).append(p.wall)
        res.cpu.setdefault(cmd.name, []).append(p.cpu)
        res.rss_mb = max(res.rss_mb, p.rss_mb)
        outcomes.append((p.rc, p.stderr))
    finish_chain(res, cmds, out, n_pages, outcomes)
    return res


def inprocess_chain(inputs: Path, out: Path, n_pages: int, tracer: Tracer | None) -> ChainResult:
    """The same chain in this process through ``tabgrid.cli.main``."""
    from tabgrid import cli

    cmds = chain(inputs, out)
    res = ChainResult()
    outcomes = []
    for cmd in cmds:
        cmd.output.parent.mkdir(parents=True, exist_ok=True)
        if tracer:
            tracer.start_command(cmd.name, cmd.page_scoped)
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main([str(a) for a in cmd.args])
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
        res.wall[cmd.name] = [time.perf_counter() - t0]
        outcomes.append((rc, err.getvalue()))
    finish_chain(res, cmds, out, n_pages, outcomes)
    return res


def untiled_tables(pred: Path) -> int:
    """Recognized tables whose cells do not tile their grid."""
    from tabgrid.corpusio import page_tables_from_dict, read_json
    from tabgrid.model import grid_is_tiled

    bad = 0
    for p in sorted(pred.glob("*.json")):
        if p.name != "run_manifest.json":
            bad += sum(not grid_is_tiled(t) for t in page_tables_from_dict(read_json(p)).tables)
    return bad


# ---------------------------------------------------------------------------
# metrics


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# On a shared machine a process runs at one of two speeds for reasons
# outside it.  The median of a few samples flips between them from run to
# run; the mean moves with the share of slow samples, so a run reports
# means and they spread less across runs.


def mean_of(chains: list[ChainResult], command: str, clock: str = "wall") -> float:
    """Mean over every execution of one command in the run."""
    return statistics.fmean(x for c in chains for x in getattr(c, clock)[command])


def util_of(chains: list[ChainResult], command: str) -> float:
    """Mean CPU over wall time of one command; 1.0 is one busy core."""
    return statistics.fmean(
        ratio(cpu, wall) for c in chains for cpu, wall in zip(c.cpu[command], c.wall[command])
    )


EVALS = ("eval recognition", "eval cells", "eval interpretation")


def end_to_end(setup_walls: list[float], chains: list[ChainResult], n_pages: int) -> dict:
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    return {
        "setup_s": statistics.median(setup_walls),
        "recognize_pages_per_s": n_pages / mean_of(chains, "recognize"),
        "interpret_s": mean_of(chains, "interpret"),
        "eval_s": sum(mean_of(chains, e) for e in EVALS),
        "total_s": statistics.fmean(c.total for c in chains),
        "peak_rss_mb": statistics.fmean(c.rss_mb for c in chains),
        **chains[-1].quality,
        "page_success_rate": 1.0 - ratio(failed, attempted),
    }


def per_layer(
    tracer: Tracer,
    traced: ChainResult,
    untraced: list[ChainResult],
    chains: list[ChainResult],
    startup: list[float],
) -> dict:
    counts = tracer.counts()
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    page_times = tracer.durations("pipeline.recognize_page")
    pages = summarize(page_times or [0.0])
    functions = tracer.functions()
    candidates = counts.get("separator.tables", 0) + counts.get("booktabs.tables", 0)
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "cli.recognize.cpu_s": mean_of(chains, "recognize", "cpu"),
        "cli.recognize.cpu_util": util_of(chains, "recognize"),
        "cli.interpret.cpu_util": util_of(chains, "interpret"),
        "cli.page_error_rate": ratio(failed, attempted),
        "pipeline.recognize_page.p50_s": pages["p50"],
        "pipeline.recognize_page.p_hi_s": pages["p_hi"],
        "pipeline.recognize_page.p_hi_pct": pages["p_hi_pct"],
        "pipeline.recognize_page.max_s": pages["max"],
        "pipeline.recognize_page.samples": len(page_times),
        "pipeline.accepted_ratio": ratio(counts.get("pipeline.accepted", 0), candidates),
        "separator.kept_ratio": ratio(
            counts.get("separator.tables", 0), counts.get("separator.clusters", 0)
        ),
        "booktabs.kept_ratio": ratio(
            counts.get("booktabs.tables", 0), counts.get("booktabs.triples", 0)
        ),
        # the interpret command reads each table through cli's binding
        "interpret.match_meanings.per_table": ratio(
            functions["interpret.match_meanings"][0],
            tracer.calls_via("model.recognized_table_from_dict", "tabgrid.cli"),
        ),
        "trace.coverage": ratio(covered(tracer.root_intervals()), traced.total),
        "trace.overhead": ratio(traced.total, statistics.fmean(c.total for c in untraced)),
        "trace.threads": tracer.threads(),
        "trace.counter_errors": tracer.counter_errors(),
    }
    for name, value in counts.items():
        metrics.setdefault(name, value)
    for name, (calls, wall, cpu) in functions.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = wall
        # the two clocks tick differently, so tiny negative waits read as 0
        metrics[f"{name}.wait_s"] = max(0.0, wall - cpu)
    return {name: metrics.get(name, 0) for name, _, _ in PER_LAYER}


def environment(workload: str, seed: int, load: tuple) -> dict:
    import numpy

    try:
        from tabgrid.kernels import backend_name

        backend = backend_name()
    except ImportError:
        backend = "n/a"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_start": load,
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tabgrid CLI pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full report here")
    args = parser.parse_args(argv)

    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "tabgrid" / "cli.py").is_file():
        print(f"perfbench: no tabgrid sources at {SRC}; run from a tabgrid checkout",
              file=sys.stderr)
        return 2
    for k in CLEARED_ENV:
        os.environ.pop(k, None)
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, work, load)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def bench(args, work: Path, load: tuple) -> int:
    problems: list[str] = []
    # compiles the bytecode caches, so no timed command pays for it
    run_proc(tabgrid_argv("--version"), work / "warmup.txt")

    setup_walls, setup_digests = [], set()
    for i in range(SETUP_REPEATS):
        out = work / f"inputs{i}"
        p = run_proc(setup_argv(args.workload, args.seed, work, out), work / f"setup{i}.txt")
        if p.rc != 0:
            problems.append(f"setup exit {p.rc}: {p.stderr.strip()[:500]}")
        setup_walls.append(p.wall)
        setup_digests.add(digest(out))
        if i:
            shutil.rmtree(out, ignore_errors=True)
    if len(setup_digests) != 1:
        problems.append("setup outputs differ between repeats")
    inputs = work / "inputs0"
    n_pages = max(1, len(list((inputs / "layouts").glob("*.json"))))

    chains: list[ChainResult] = []
    t0 = time.perf_counter()
    while len(chains) < MIN_CHAINS or time.perf_counter() - t0 < args.seconds:
        out = work / f"chain{len(chains)}"
        chains.append(run_chain(inputs, out, n_pages, REST_REPEATS[args.workload]))
        if len(chains) == 1:
            try:
                bad = untiled_tables(out / "pred")
            except Exception as exc:  # the run still reports every metric
                problems.append(f"cannot read the recognized tables: {exc!r}")
            else:
                if bad:
                    problems.append(f"{bad} recognized table(s) do not tile their grid")
        shutil.rmtree(out, ignore_errors=True)

    report: dict = {"env": environment(args.workload, args.seed, load)}
    report["env"]["setup_digest"] = setup_digests.pop() if len(setup_digests) == 1 else "differs"
    report["env"]["output_digests"] = chains[0].digests
    report["chains"] = [
        {"wall": c.wall, "cpu": c.cpu, "rss_mb": c.rss_mb, "total": c.total} for c in chains
    ]
    for c in chains:
        problems.extend(c.errors)
        if c.digests != chains[0].digests:
            problems.append("outputs differ between chains")
    if args.workload == "corpus":
        for k, v in chains[-1].quality.items():
            if v != 1.0:
                problems.append(f"{k} = {v} on corpus, expected 1.0")

    if args.trace:
        startup = [run_proc(tabgrid_argv("--version"), work / "startup.txt").wall
                   for _ in range(STARTUP_REPEATS)]
        # untraced in-process chains either side of the traced one are the
        # base of trace.overhead
        untraced = [inprocess_chain(inputs, work / "untraced0", n_pages, None)]
        tracer = Tracer()
        missing = tracer.install()
        try:
            traced = inprocess_chain(inputs, work / "traced", n_pages, tracer)
        finally:
            tracer.uninstall()
        untraced.append(inprocess_chain(inputs, work / "untraced1", n_pages, None))
        for res in (*untraced, traced):
            problems.extend(res.errors)
            if res.digests != chains[0].digests:
                problems.append("in-process outputs differ from the CLI's")
        gap = tracer.self_time_gap()
        if gap > 1e-6:
            problems.append(f"self times miss the traced wall time by {gap:.3g} s on a thread")
        if missing:
            report["env"]["untraced_missing"] = missing
        metrics = per_layer(tracer, traced, untraced, chains, startup)
        units = {n: u for n, u, _ in PER_LAYER}
        report["spans"] = tracer.spans()
    else:
        metrics = end_to_end(setup_walls, chains, n_pages)
        units = END_TO_END

    correct = not problems
    report.update(problems=problems, metrics=metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"problem: {p}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"chains: {len(chains)}, pages per command: {n_pages}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(c.attempted for c in chains),
        "failed": sum(c.failed for c in chains),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
