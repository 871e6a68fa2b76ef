"""Command line interface.

Subcommands: ``recognize`` (layouts -> tables), ``interpret`` (tables ->
tuple sets), ``eval`` (scores predictions against ground truth), and
``gen-fixtures`` (synthetic corpora).  Exit codes: 0 success, 1
unexpected failure, 2 invalid input or configuration.

Commands that fill an output directory finish by writing
``run_manifest.json`` (inputs, config digest, tool version, timestamp);
it is the only output that differs between reruns on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple, NoReturn

from . import __version__
from .corpusio import (
    PageTables,
    dump_json,
    page_tables_from_dict,
    page_tables_to_dict,
    parse_layout_name,
    parse_tuple_name,
    read_json,
    read_tuple_set,
    write_tuple_set,
)
from .errors import ConfigError, DuplicateKey, EmptyCorpus, TabgridError
from .evaluate import (
    PRF,
    cell_score,
    corpus_average,
    interpretation_score,
    recognition_score,
    wavg_f1,
)
from .fields import load
from .interpret import load_meanings, match_meanings, tuples_from_matching
from .model import (
    RecognizerConfig,
    load_recognizer_config,
    page_layout_from_dict,
)
from .pipeline import PageOrientation, recognize_page

_INPUT_ERRORS = (TabgridError, json.JSONDecodeError, UnicodeDecodeError, OSError)


def _sha256(path: str | Path | None) -> str | None:
    import hashlib

    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, inputs: dict, config_path=None) -> None:
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "config_sha256": _sha256(config_path),
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    dump_json(out_dir / "run_manifest.json", manifest)


def _json_files(directory: Path) -> list[Path]:
    """The directory's ``*.json`` files, sorted; every reader skips the run manifest."""
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    return sorted(
        p
        for p in directory.iterdir()
        if p.suffix == ".json" and p.is_file() and p.name != "run_manifest.json"
    )


# Forking two workers, handing out their chunks and reaping them costs about
# 5 ms; the workers then copy the pages of the parent that they write to.
# What an item costs grows with its input, so a pool pays from some number
# of input bytes per worker on.  Measured as program runs on 2 shared cores
# and given in compact bytes (the runs read indented files, 2.0-2.2 times as
# large), recognize breaks even at about 53 KB per worker and interpret at about
# 110 KB; eval recognition and eval cells on one-table pages at 210-420 KB
# of page pairs, while 92 KB of dense pairs per worker lost 6-8%.
MIN_BYTES_PER_WORKER = 80_000
MIN_PAIR_BYTES_PER_WORKER = 235_000


def _cores() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _attempt(work, item) -> tuple[str, str | None, bool, object]:
    """``(item.name, message, crashed, value)`` of ``work(item)``; never raises."""
    try:
        return item.name, None, False, work(item)
    except _INPUT_ERRORS as exc:
        return item.name, str(exc), False, None
    except Exception as exc:
        return item.name, f"{type(exc).__name__}: {exc}", True, None


def _file_size(path: Path | None) -> int:
    """Bytes in the file; 0 for no file, or one that its reader will report."""
    try:
        return 0 if path is None else path.stat().st_size
    except OSError:
        return 0


def _chunks(sizes: list[int], n: int) -> list[list[int]]:
    """Item indices in ``n`` chunks of near-equal count, cut from the items
    in descending size, so the first chunk holds the largest items."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    return [order[c * len(order) // n : (c + 1) * len(order) // n] for c in range(n)]


def _death(code: int) -> str:
    """How a worker that exited with ``code`` (minus a signal number) died."""
    import signal

    if code >= 0:
        return f"worker process exited with code {code}"
    try:
        return f"worker process killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"worker process killed by signal {-code}"


def _attempt_in_pool(items: list, work, workers: int, sizes: list[int]) -> list[tuple]:
    """``_attempt`` over ``items`` in ``workers`` forked processes, in order.

    Up to four chunks per worker, largest items first, wait in a pipe as
    one byte each, so a worker that finishes early takes more.  Each worker
    sends one pickle of ``(index, result)`` pairs when the pipe is empty.
    ``work`` reaches the workers through fork, so it need not pickle; what
    it returns does.  If a worker dies, every item from the first one
    without a result on is reported as crashed.  No worker outlives this
    call.
    """
    import pickle
    import signal

    chunks = _chunks(sizes, min(len(items), 4 * workers, 256))  # a chunk id is one byte
    queue, queue_in = os.pipe()
    os.write(queue_in, bytes(range(len(chunks))))  # far below a pipe's capacity
    os.close(queue_in)
    sys.stdout.flush()  # else a worker could write the parent's buffered text again
    sys.stderr.flush()
    pids: list[int] = []  # not yet reaped
    pipes: list = []  # the read end of each worker's result pipe
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: it never returns from here
                code = 1
                try:
                    os.close(read_end)
                    for pipe in pipes:
                        pipe.close()
                    done = []
                    while chunk := os.read(queue, 1):  # atomic: no chunk is taken twice
                        done += [(i, _attempt(work, items[i])) for i in chunks[chunk[0]]]
                    with open(write_end, "wb") as out:
                        pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(write_end)
            pipes.append(open(read_end, "rb"))
        results: dict[int, tuple] = {}
        lost = None
        for pid, pipe in zip(list(pids), pipes):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code == 0:
                results.update(pickle.loads(data))
            elif lost is None:
                lost = _death(code)
    finally:
        os.close(queue)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    first_lost = next((i for i in range(len(items)) if i not in results), len(items))
    return [results[i] for i in range(first_lost)] + [
        (item.name, lost, True, None) for item in items[first_lost:]
    ]


def _attempt_all(items: list, work, max_workers: int, min_bytes: int, size) -> list[tuple]:
    """``_attempt`` over ``items``, in order, in up to ``max_workers``
    processes, but in this one unless every worker gets ``min_bytes`` of
    input, counting ``size(item)`` bytes an item."""
    if max_workers > 1:
        sizes = [size(item) for item in items]
        workers = min(max_workers, len(items), sum(sizes) // min_bytes)
        if workers > 1:
            return _attempt_in_pool(items, work, workers, sizes)
    return [_attempt(work, item) for item in items]


def _run_per_file(files: list[Path], work, max_workers: int) -> tuple[int, list]:
    """Call ``work(path)`` for every file; one bad file never ends the run.

    Runs in worker processes when every worker gets ``MIN_BYTES_PER_WORKER``
    bytes of files.  Prints one sorted ``error: <file>: <msg>`` line per failed file
    and returns the exit code (0, 2 if any file is invalid input, 1 if any
    file crashed) and the values ``work`` returned, in file order.
    """
    results = _attempt_all(files, work, max_workers, MIN_BYTES_PER_WORKER, _file_size)
    errors = sorted((name, message) for name, message, _, _ in results if message is not None)
    for name, message in errors:
        print(f"error: {name}: {message}", file=sys.stderr)
    crashed = any(crash for _, _, crash, _ in results)
    values = [value for _, message, _, value in results if message is None]
    return (1 if crashed else 2 if errors else 0), values


def _page_name(path: Path, kind: str) -> tuple[str, int]:
    parsed = parse_layout_name(path.name)
    if parsed is None:
        raise TabgridError(f"{kind} file name not of the form <id>_page<NR>.json: {path.name}")
    return parsed


def _key_name(key: tuple) -> str:
    """``<id>_pageNN`` for a page key, ``<id>_pageNN_tableI`` for a tuple-set key."""
    file_id, page_nr, *table_idx = key
    return f"{file_id}_page{page_nr:02d}" + "".join(f"_table{i}" for i in table_idx)


def _check_name(path: Path, named: tuple, held: tuple) -> None:
    if named != held:
        raise TabgridError(
            f"file name does not match its content: {path.name} holds {_key_name(held)}"
        )


def _check_unique_names(directory: Path, files: list[Path], parse_name) -> None:
    """Two files whose names give one key would be written, or scored, as one.

    Every reader checks that a file's name gives the key it holds, so keys
    from names are keys from contents; names of no known form are left to
    those readers.
    """
    names: dict[tuple, str] = {}
    for path in files:
        key = parse_name(path.name)
        if key in names:
            raise DuplicateKey(
                f"{directory}: {names[key]} and {path.name} both name {_key_name(key)}"
            )
        if key is not None:
            names[key] = path.name


def _read_page_tables(path: Path) -> PageTables:
    """A page tables file whose ``<id>_page<NR>`` name is the page it holds."""
    named = _page_name(path, "table")
    page = page_tables_from_dict(read_json(path))
    _check_name(path, named, (page.file_id, page.page_nr))
    return page


# ---------------------------------------------------------------------------
# recognize


def _cmd_recognize(args: argparse.Namespace) -> int:
    layout_dir = Path(args.layout_dir)
    out_dir = Path(args.out_dir)
    cfg = load_recognizer_config(args.config) if args.config else RecognizerConfig()
    orientation = PageOrientation(args.orientation)
    files = _json_files(layout_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def recognize_file(path: Path) -> None:
        file_id, page_nr = _page_name(path, "layout")
        result = recognize_page(page_layout_from_dict(read_json(path)), cfg, orientation)
        payload = page_tables_to_dict(
            PageTables(
                file_id=file_id,
                page_nr=page_nr,
                tables=list(result.tables),
                orientation=orientation.value,
                diagnostics=list(result.diagnostics),
            )
        )
        del result  # free the tables before serializing, the command's memory peak
        dump_json(out_dir / path.name, payload)

    rc, _ = _run_per_file(files, recognize_file, args.max_workers)
    _write_manifest(
        out_dir,
        "recognize",
        {"layout_dir": layout_dir, "out_dir": out_dir, "orientation": args.orientation},
        args.config,
    )
    if rc == 0:
        print(f"recognized {len(files)} page(s) -> {out_dir}")
    return rc


# ---------------------------------------------------------------------------
# interpret


def _cmd_interpret(args: argparse.Namespace) -> int:
    tables_dir = Path(args.tables_dir)
    out_dir = Path(args.out_dir)
    meanings = load_meanings(args.rules)  # validated before any table is read
    files = _json_files(tables_dir)
    _check_unique_names(tables_dir, files, parse_layout_name)
    out_dir.mkdir(parents=True, exist_ok=True)

    def interpret_file(path: Path) -> int:
        page = _read_page_tables(path)
        written = 0
        for idx, table in enumerate(page.tables):
            views, matching = match_meanings(table, meanings)
            if matching.pairs:
                ts = tuples_from_matching(
                    table, meanings, views, matching, page.file_id, page.page_nr, idx
                )
                write_tuple_set(out_dir, ts)
                written += 1
        return written

    rc, written = _run_per_file(files, interpret_file, args.max_workers)
    _write_manifest(
        out_dir,
        "interpret",
        {"tables_dir": tables_dir, "out_dir": out_dir, "rules": args.rules},
        args.rules,
    )
    if rc == 0:
        print(f"wrote {sum(written)} tuple set(s) -> {out_dir}")
    return rc


# ---------------------------------------------------------------------------
# eval


def _eval_files(directory: Path, parse_name) -> list[Path]:
    files = _json_files(directory)
    _check_unique_names(directory, files, parse_name)
    return files


def _check_not_empty(args: argparse.Namespace, gt, pred) -> None:
    if not gt and not pred:
        raise EmptyCorpus(f"no files to score in {args.gt_dir} or {args.pred_dir}")


def _check_strict(gt_keys, pred_keys) -> None:
    """With ``--strict``, every key must be on both sides."""
    lines = [f"missing prediction for {_key_name(k)}" for k in sorted(gt_keys - pred_keys)]
    lines += [f"missing ground truth for {_key_name(k)}" for k in sorted(pred_keys - gt_keys)]
    if lines:
        raise TabgridError("; ".join(lines))


class _PagePair(NamedTuple):
    """The ground-truth and predicted tables files of one page; either may be None."""

    name: str  # <id>_pageNN
    gt: Path | None
    pred: Path | None


class _Unscored(Exception):
    """A page pair whose scoring failed unexpectedly, or whose worker died."""


def _gt_tables(page: PageTables) -> list:
    """Ground-truth tables that are expected to be recognized."""
    return [t for t, missed in zip(page.tables, page.expected_missed) if not missed]


def _score_page_pairs(args: argparse.Namespace, score) -> list[tuple[tuple[str, int], object]]:
    """``(key, score(gt_tables, pred_tables))`` for every page of either
    directory, in ``(file_id, page_nr)`` order; a page on one side only
    scores against no tables.

    Files pair by their ``<id>_page<NR>`` names, which the reader checks
    against the pages they hold.  Each pair is read and scored on its own,
    in worker processes when every worker gets ``MIN_PAIR_BYTES_PER_WORKER``
    bytes of files, and only its counts come back.  Invalid input raises the fault
    that reading the ground truth in name order, then the predictions,
    would meet first; ``--strict`` pairing is checked after that.  A pair
    that fails otherwise raises ``_Unscored``.
    """
    gt_dir, pred_dir = Path(args.gt_dir), Path(args.pred_dir)
    gt_files = _eval_files(gt_dir, parse_layout_name)
    try:
        pred_files = _eval_files(pred_dir, parse_layout_name)
    except _INPUT_ERRORS:
        for path in gt_files:  # a fault in the ground truth comes first
            _read_page_tables(path)
        raise
    _check_not_empty(args, gt_files, pred_files)
    faults: list[tuple[int, str, str]] = []  # (side, file name, message); 0 is ground truth
    by_key: dict[tuple[str, int], list] = {}
    for side, files in enumerate((gt_files, pred_files)):
        for path in files:
            try:
                by_key.setdefault(_page_name(path, "table"), [None, None])[side] = path
            except TabgridError as exc:
                faults.append((side, path.name, str(exc)))
    keys = sorted(by_key)

    def score_pair(pair: _PagePair):
        pages = []
        for side, path in enumerate((pair.gt, pair.pred)):
            try:
                pages.append(None if path is None else _read_page_tables(path))
            except _INPUT_ERRORS as exc:
                return (side, path.name, str(exc)), None
        gt, pred = pages
        return None, score(
            [] if gt is None else _gt_tables(gt), [] if pred is None else list(pred.tables)
        )

    pairs = [_PagePair(_key_name(key), *by_key[key]) for key in keys]
    results = _attempt_all(
        pairs,
        score_pair,
        args.max_workers,
        MIN_PAIR_BYTES_PER_WORKER,
        lambda pair: _file_size(pair.gt) + _file_size(pair.pred),
    )
    for name, message, _, _ in results:
        if message is not None:
            raise _Unscored(f"{name}: {message}")
    faults += [fault for _, _, _, (fault, _) in results if fault is not None]
    if faults:
        raise TabgridError(min(faults)[2])
    if args.strict:
        _check_strict(
            {k for k in keys if by_key[k][0] is not None},
            {k for k in keys if by_key[k][1] is not None},
        )
    return [(key, counts) for key, (_, _, _, (_, counts)) in zip(keys, results)]


def _eval_recognition(args: argparse.Namespace) -> tuple[dict, str]:
    per_doc: dict[str, PRF] = {}
    for (fid, _), prf in _score_page_pairs(
        args, lambda gt, pred: recognition_score(gt, pred, args.iou_min)
    ):
        per_doc[fid] = per_doc.get(fid, PRF()) + prf
    corpus = corpus_average(per_doc.values())

    lines = [f"document {fid}: {prf}" for fid, prf in per_doc.items()]
    lines.append(
        f"corpus ({len(per_doc)} documents): P={corpus.precision:.4f}"
        f" R={corpus.recall:.4f} F1={corpus.f1:.4f}"
    )
    report = {
        "mode": "recognition",
        "iou_min": args.iou_min,
        "documents": {fid: prf.fields() for fid, prf in per_doc.items()},
        "corpus": {**asdict(corpus), "documents": len(per_doc)},
    }
    return report, "\n".join(lines)


def _parse_cell_thresholds(text: str) -> tuple[float, ...]:
    try:
        thresholds = tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--cell-thresholds: not a comma-separated number list: {text!r}"
        ) from None
    if not all(0.0 < t <= 1.0 for t in thresholds):
        raise ConfigError(f"--cell-thresholds: every threshold must be in (0, 1]: {text!r}")
    if len(set(thresholds)) != len(thresholds):
        raise ConfigError(f"--cell-thresholds: thresholds must be distinct: {text!r}")
    return thresholds


def _eval_cells(args: argparse.Namespace) -> tuple[dict, str]:
    thresholds = _parse_cell_thresholds(args.cell_thresholds)
    by_t = dict.fromkeys(thresholds, PRF())
    for _, counts in _score_page_pairs(
        args, lambda gt, pred: cell_score({0: gt}, {0: pred}, args.iou_min, thresholds)
    ):
        for t, prf in counts.items():
            by_t[t] += prf
    wavg = wavg_f1({t: prf.f1 for t, prf in by_t.items()})
    lines = [f"IoU>={t:g}: {prf}" for t, prf in by_t.items()]
    lines.append(f"WAvg-F1={wavg:.4f}")
    report = {
        "mode": "cells",
        "iou_min": args.iou_min,
        "thresholds": {str(t): {**asdict(prf), "f1": prf.f1} for t, prf in by_t.items()},
        "wavg_f1": wavg,
    }
    return report, "\n".join(lines)


def _load_tuple_sets(directory: Path) -> dict:
    """Tuple sets keyed by ``(file_id, page_nr, table_idx)``, as the files
    say.  A file whose name disagrees with its key, or two files with the
    same key, are invalid input."""
    loaded: dict = {}
    for path in _eval_files(directory, parse_tuple_name):
        named = parse_tuple_name(path.name)
        if named is None:
            raise TabgridError(
                f"tuple file name not of the form <id>_page<NR>_table<IDX>.json: {path.name}"
            )
        item = read_tuple_set(path)
        key = (item.file_id, item.page_nr, item.table_idx)
        _check_name(path, named, key)
        loaded[key] = item
    return loaded


def _eval_interpretation(args: argparse.Namespace) -> tuple[dict, str]:
    gt_sets = _load_tuple_sets(Path(args.gt_dir))
    pred_sets = _load_tuple_sets(Path(args.pred_dir))
    _check_not_empty(args, gt_sets, pred_sets)
    if args.strict:
        _check_strict(gt_sets.keys(), pred_sets.keys())
    prf = interpretation_score(list(gt_sets.values()), list(pred_sets.values()))
    return {"mode": "interpretation", **prf.fields()}, f"interpretation: {prf}"


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou_min <= 1.0:
        raise ConfigError(f"--iou-min must be in (0, 1], got {args.iou_min}")
    try:
        if args.mode == "recognition":
            report, text = _eval_recognition(args)
        elif args.mode == "cells":
            report, text = _eval_cells(args)
        else:
            report, text = _eval_interpretation(args)
    except _Unscored as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    if args.out:
        dump_json(Path(args.out), report)
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures


def _cmd_gen_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import build_corpus  # the largest module; no other command needs it

    spec = load(args.spec, "fixture spec")
    out_dir = Path(args.out_dir)
    summary = build_corpus(spec, out_dir)
    _write_manifest(out_dir, "gen-fixtures", {"spec": args.spec, "out_dir": out_dir}, args.spec)
    print(
        f"generated {summary['pages']} page(s), {summary['tuple_sets']} tuple set(s)"
        f" -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabgrid", description="Table recognition, interpretation, and evaluation."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("recognize", help="detect tables in page layout files")
    p_rec.add_argument("layout_dir", help="directory of <id>_page<NR>.json layout files")
    p_rec.add_argument("out_dir", help="directory for per-page table files")
    p_rec.add_argument("--config", default=None, help="recognizer config JSON")
    p_rec.add_argument(
        "--orientation",
        choices=[o.value for o in PageOrientation],
        default=PageOrientation.STANDARD.value,
        help="page orientation for every input file",
    )
    p_rec.set_defaults(func=_cmd_recognize)

    p_int = sub.add_parser("interpret", help="extract tuples from recognized tables")
    p_int.add_argument("tables_dir", help="directory produced by 'recognize'")
    p_int.add_argument("rules", help="meanings config JSON")
    p_int.add_argument("out_dir", help="directory for tuple set files")
    p_int.set_defaults(func=_cmd_interpret)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("mode", choices=["recognition", "cells", "interpretation"])
    p_eval.add_argument("gt_dir")
    p_eval.add_argument("pred_dir")
    p_eval.add_argument("--iou-min", type=float, default=0.5, help="table pairing threshold")
    p_eval.add_argument(
        "--cell-thresholds",
        default="0.6,0.7,0.8,0.9",
        help="comma-separated cell IoU thresholds (cells mode)",
    )
    p_eval.add_argument("--strict", action="store_true", help="fail on unpaired files")
    p_eval.add_argument("--out", default=None, help="write the report as JSON")
    p_eval.set_defaults(func=_cmd_eval)

    p_gen = sub.add_parser("gen-fixtures", help="generate a synthetic corpus")
    p_gen.add_argument("spec", help="corpus spec JSON")
    p_gen.add_argument("out_dir", help="corpus output directory")
    p_gen.set_defaults(func=_cmd_gen_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Run as a program, recognize and interpret fork one worker per core; a
    # host that calls main(argv) may hold threads, which fork does not copy.
    args.max_workers = _cores() if argv is None else 1
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The program: ``main()``, then exit without the interpreter's teardown.

    A batch run has nothing left to tear down.  Every output file is closed
    once written, workers are reaped, and tabgrid registers no ``atexit``
    handler; only the standard streams may still hold text.  If they cannot
    take it, the interpreter's own exit reports that, as for any program.
    A host that calls ``main(argv)`` keeps its interpreter.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
