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
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

from . import __version__
from .corpusio import (
    PageTables,
    dump_json,
    format_layout_name,
    format_tuple_name,
    page_tables_from_dict,
    page_tables_to_dict,
    parse_layout_name,
    parse_tuple_name,
    read_json,
    tuple_set_from_dict,
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
from .interpret import interpret_table, load_meanings
from .model import (
    PageOrientation,
    RecognizerConfig,
    load_recognizer_config,
    page_layout_from_dict,
)
from .pipeline import recognize_page

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


def _refuse_filled(out_dir: Path) -> None:
    """An earlier run's files left in ``out_dir`` would read as this run's."""
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise TabgridError(f"the output directory is not empty: {out_dir}")


class _Input(NamedTuple):
    """An input file, the key its name gives (None for no known form) and its bytes."""

    path: Path
    key: tuple | None
    size: int

    @property
    def name(self) -> str:
        return self.path.name


def _scan(directory: Path, parse_name) -> list[_Input]:
    """The inputs in ``directory``, in name order: its ``*.json`` files, or
    links to them, but the run manifest, each keyed by ``parse_name``.

    Two names that give one key raise ``DuplicateKey``: their files would be
    written, or scored, as one.  Every reader checks that a file's name gives
    the key it holds, so keys from names are keys from contents; names of no
    known form are left to those readers.
    """
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    with os.scandir(directory) as entries:
        found = sorted(
            (e.name, e.stat().st_size)  # a link's stat is the one that is_file made
            for e in entries
            if e.name.endswith(".json") and e.name not in (".json", "run_manifest.json")
            and e.is_file()
        )
    items = [_Input(directory / name, parse_name(name), size) for name, size in found]
    names: dict[tuple, str] = {}
    for item in items:
        if item.key is not None and names.setdefault(item.key, item.name) != item.name:
            named = f"{names[item.key]} and {item.name} both name {_key_name(item.key)}"
            raise DuplicateKey(f"{directory}: {named}")
    return items


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


def _attempt(work, item) -> tuple[str, Exception | str | None, bool, object]:
    """``(item.name, fault, crashed, value)`` of ``work(item)``; never raises.
    The fault is the invalid-input exception raised, or a crash's message."""
    try:
        return item.name, None, False, work(item)
    except _INPUT_ERRORS as exc:
        return item.name, exc, False, None
    except Exception as exc:
        return item.name, f"{type(exc).__name__}: {exc}", True, None


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
    it returns or raises as invalid input does.  If a worker dies, every
    item from the first one without a result on is reported as crashed.
    No worker outlives this call.
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


def _attempt_all(items: list, work, max_workers: int, min_bytes: int) -> list[tuple]:
    """``_attempt`` over ``items``, in order, in up to ``max_workers``
    processes, but in this one unless every worker gets ``min_bytes`` of
    input, counting ``item.size`` bytes an item."""
    if max_workers > 1:
        sizes = [item.size for item in items]
        workers = min(max_workers, len(items), sum(sizes) // min_bytes)
        if workers > 1:
            return _attempt_in_pool(items, work, workers, sizes)
    return [_attempt(work, item) for item in items]


def _key_name(key: tuple) -> str:
    """``<id>_pageNN`` for a page key, ``<id>_pageNN_tableI`` for a tuple-set key."""
    name = format_layout_name(*key) if len(key) == 2 else format_tuple_name(*key)
    return name.removesuffix(".json")


def _named(item: _Input, kind: str, form: str = "<id>_page<NR>") -> tuple:
    """The key that ``item``'s name gives; a name of no known form is a fault."""
    if item.key is None:
        raise TabgridError(f"{kind} file name not of the form {form}.json: {item.name}")
    return item.key


def _read_keyed(kind: str, form: str, from_dict, key_of, item: _Input):
    """``from_dict`` of the JSON in ``item``, whose name has the form ``form``
    and gives the key that ``key_of`` finds in what the file holds."""
    _named(item, kind, form)
    value = from_dict(read_json(item.path))
    if item.key != (held := key_of(value)):
        raise TabgridError(
            f"file name does not match its content: {item.name} holds {_key_name(held)}"
        )
    return value


_read_page_tables = partial(
    _read_keyed, "table", "<id>_page<NR>", page_tables_from_dict, attrgetter("file_id", "page_nr")
)
_read_tuple_set = partial(
    _read_keyed, "tuple", "<id>_page<NR>_table<IDX>", tuple_set_from_dict,
    attrgetter("file_id", "page_nr", "table_idx"),
)


def _fill_dir(args: argparse.Namespace, in_dir: Path, work, inputs: dict, config):
    """Run the stage ``work`` on each ``<id>_page<NR>.json`` file of ``in_dir``,
    in worker processes when each gets ``MIN_BYTES_PER_WORKER`` bytes of files;
    one bad file never ends the run.  ``work`` writes into ``args.out_dir``,
    which must be new or empty and is not ``in_dir``; the run manifest comes
    last.  Prints one sorted ``error: <file>: <msg>`` line per failed file, and
    returns the exit code (0; 2 if any file is invalid input; 1 if any
    crashed), the values ``work`` returned, in file order, and the file count."""
    out_dir = Path(args.out_dir)
    files = _scan(in_dir, parse_layout_name)
    if out_dir.is_dir() and os.path.samefile(in_dir, out_dir):
        raise TabgridError(f"the output directory is the input directory: {out_dir}")
    _refuse_filled(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _attempt_all(files, work, args.max_workers, MIN_BYTES_PER_WORKER)
    errors = sorted((name, str(fault)) for name, fault, _, _ in results if fault is not None)
    for name, message in errors:
        print(f"error: {name}: {message}", file=sys.stderr)
    _write_manifest(out_dir, args.command, inputs, config)
    crashed = any(crash for _, _, crash, _ in results)
    values = [value for _, fault, _, value in results if fault is None]
    return (1 if crashed else 2 if errors else 0), values, len(files)


# ---------------------------------------------------------------------------
# recognize and interpret: the stage of one file, and its command


def _recognize_file(item: _Input, out_dir: Path, cfg: RecognizerConfig, orientation) -> None:
    file_id, page_nr = _named(item, "layout")
    result = recognize_page(page_layout_from_dict(read_json(item.path)), cfg, orientation)
    payload = page_tables_to_dict(
        PageTables(file_id, page_nr, [*result.tables], orientation.value, [*result.diagnostics])
    )
    del result  # free the tables before serializing, the command's memory peak
    dump_json(out_dir / item.name, payload)


def _interpret_file(item: _Input, out_dir: Path, meanings) -> int:
    """Writes each tuple set as soon as it is made; returns how many."""
    page = _read_page_tables(item)
    written = 0
    for idx, table in enumerate(page.tables):
        ts = interpret_table(table, meanings, page.file_id, page.page_nr, idx)
        if ts.tuples:
            write_tuple_set(out_dir, ts)
            written += 1
    return written


def _cmd_recognize(args: argparse.Namespace) -> int:
    cfg = load_recognizer_config(args.config) if args.config else RecognizerConfig()
    orientation = PageOrientation(args.orientation)
    layout_dir, out_dir = Path(args.layout_dir), Path(args.out_dir)
    inputs = {"layout_dir": layout_dir, "out_dir": out_dir, "orientation": args.orientation}
    work = partial(_recognize_file, out_dir=out_dir, cfg=cfg, orientation=orientation)
    rc, _, pages = _fill_dir(args, layout_dir, work, inputs, args.config)
    if rc == 0:
        print(f"recognized {pages} page(s) -> {out_dir}")
    return rc


def _cmd_interpret(args: argparse.Namespace) -> int:
    meanings = load_meanings(args.rules)  # validated before any table is read
    tables_dir, out_dir = Path(args.tables_dir), Path(args.out_dir)
    inputs = {"tables_dir": tables_dir, "out_dir": out_dir, "rules": args.rules}
    work = partial(_interpret_file, out_dir=out_dir, meanings=meanings)
    rc, written, _ = _fill_dir(args, tables_dir, work, inputs, args.rules)
    if rc == 0:
        print(f"wrote {sum(written)} tuple set(s) -> {out_dir}")
    return rc


# ---------------------------------------------------------------------------
# eval


def _check_strict(gt_keys, pred_keys) -> None:
    """With ``--strict``, every key must be on both sides."""
    lines = [f"missing prediction for {_key_name(k)}" for k in sorted(gt_keys - pred_keys)]
    lines += [f"missing ground truth for {_key_name(k)}" for k in sorted(pred_keys - gt_keys)]
    if lines:
        raise TabgridError("; ".join(lines))


def _read_eval(read, item: _Input, side: int):
    """``read(item)``, whose fault is placed at ``(side, item.name)``: a name of no
    known form as the reader words it, any other as ``<path>: <reason>``."""
    try:
        return read(item)
    except _INPUT_ERRORS as exc:
        fault = exc if item.key is None else TabgridError(f"{item.path}: {exc}")
        fault.place = (side, item.name)
        raise fault


class _PagePair(NamedTuple):
    """The ground-truth and predicted files of one page; either list may be empty."""

    name: str  # <id>_pageNN
    gt: list[_Input]
    pred: list[_Input]

    @property
    def size(self) -> int:
        return sum(item.size for item in self.gt + self.pred)


class _Unscored(Exception):
    """A page pair whose scoring failed unexpectedly, or whose worker died."""


def _score_page_pairs(
    args: argparse.Namespace, parse_name, read, score
) -> list[tuple[tuple[str, int], object]]:
    """``(page, score(gt_items, pred_items))`` for every page of either
    directory, in ``(file_id, page_nr)`` order, where a side's items are
    what ``read`` gives for its files of that page; a page on one side only
    scores against no items.

    Files pair by the page, ``key[:2]``, of the key that ``parse_name``
    gives their names, and ``read`` checks each name against what the file
    holds.  Each pair is read and scored on its own, in worker processes
    when every worker gets ``MIN_PAIR_BYTES_PER_WORKER`` bytes of files, and
    only its counts come back.  A pair that fails unexpectedly raises
    ``_Unscored``; then the lowest-placed fault is raised (a fault of scoring
    has no place, so it ranks last), and ``--strict`` pairing is checked last.
    """
    gt_files = _scan(Path(args.gt_dir), parse_name)
    try:
        pred_files = _scan(Path(args.pred_dir), parse_name)
    except _INPUT_ERRORS:
        for item in gt_files:
            _read_eval(read, item, 0)
        raise
    if not gt_files and not pred_files:
        raise EmptyCorpus(f"no files to score in {args.gt_dir} or {args.pred_dir}")
    by_page: dict[tuple[str, int], tuple[list, list]] = {}
    faults = []  # of names of no known form, then of the pairs
    for side, files in enumerate((gt_files, pred_files)):
        for item in files:
            if item.key:
                by_page.setdefault(item.key[:2], ([], []))[side].append(item)
            else:  # rejected from its name alone
                faults.append(_attempt(lambda item: _read_eval(read, item, side), item)[1])
    pages = sorted(by_page)

    def score_pair(pair: _PagePair):
        sides = enumerate((pair.gt, pair.pred))
        return score(*([_read_eval(read, item, side) for item in files] for side, files in sides))

    pairs = [_PagePair(_key_name(page), *by_page[page]) for page in pages]
    results = _attempt_all(pairs, score_pair, args.max_workers, MIN_PAIR_BYTES_PER_WORKER)
    for name, fault, crashed, _ in results:
        if crashed:
            raise _Unscored(f"{name}: {fault}")
    faults += [fault for _, fault, _, _ in results if fault is not None]
    if faults:  # min keeps the first of equal places: scoring faults in page order
        raise min(faults, key=lambda fault: getattr(fault, "place", (2,)))
    if args.strict:  # every name now gives a key
        _check_strict(*({item.key for item in files} for files in (gt_files, pred_files)))
    return [(page, counts) for page, (_, _, _, counts) in zip(pages, results)]


def _page_map(pages: list[PageTables]) -> dict[int, list]:
    """One page's tables, from its tables files, as the map the scores take."""
    return {0: [table for page in pages for table in page.tables]}


def _eval_recognition(args: argparse.Namespace) -> tuple[dict, str]:
    def score(gt: list[PageTables], pred: list[PageTables]) -> PRF:
        return recognition_score(_page_map(gt), _page_map(pred), args.iou_min)

    per_doc: dict[str, PRF] = {}
    for (fid, _), prf in _score_page_pairs(args, parse_layout_name, _read_page_tables, score):
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

    def score(gt: list[PageTables], pred: list[PageTables]) -> dict[float, PRF]:
        return cell_score(_page_map(gt), _page_map(pred), args.iou_min, thresholds)

    by_t = dict.fromkeys(thresholds, PRF())
    for _, counts in _score_page_pairs(args, parse_layout_name, _read_page_tables, score):
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


def _eval_interpretation(args: argparse.Namespace) -> tuple[dict, str]:
    pages = _score_page_pairs(args, parse_tuple_name, _read_tuple_set, interpretation_score)
    prf = sum((counts for _, counts in pages), PRF())
    return {"mode": "interpretation", **prf.fields()}, f"interpretation: {prf}"


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou_min <= 1.0:
        raise ConfigError(f"--iou-min must be in (0, 1], got {args.iou_min}")
    evaluate = dict(
        recognition=_eval_recognition, cells=_eval_cells, interpretation=_eval_interpretation
    )[args.mode]
    try:
        report, text = evaluate(args)
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
    _refuse_filled(out_dir)
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
