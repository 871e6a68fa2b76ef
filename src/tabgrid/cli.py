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
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

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
from .errors import ConfigError, DuplicateKey, TabgridError
from .evaluate import (
    cell_score,
    corpus_average,
    interpretation_score,
    recognition_score,
    wavg_f1,
)
from .fixtures import build_corpus
from .interpret import load_meanings, match_meanings, tuples_from_matching
from .model import (
    RecognizerConfig,
    load_recognizer_config,
    page_layout_from_dict,
)
from .pipeline import PageOrientation, recognize_page

_INPUT_ERRORS = (TabgridError, json.JSONDecodeError, OSError)


def _sha256(path: str | Path | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, inputs: dict, config_path=None) -> None:
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


# A pool costs about 25 ms to import concurrent.futures and multiprocessing
# plus 10-20 ms to start and stop its workers.  A one-table page takes about
# 2.5 ms, so two workers win that back from about 40 files on: each worker
# needs about 20 files to pay for itself.
MIN_FILES_PER_WORKER = 20


def _cores() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _attempt(work, path: Path) -> tuple[str, str | None, bool, object]:
    """``(name, message, crashed, value)`` of ``work(path)``; never raises."""
    try:
        return path.name, None, False, work(path)
    except _INPUT_ERRORS as exc:
        return path.name, str(exc), False, None
    except Exception as exc:
        return path.name, f"{type(exc).__name__}: {exc}", True, None


_worker_work = None  # the per-file function of this pool worker


def _init_worker(work) -> None:
    global _worker_work
    _worker_work = work


def _attempt_in_worker(path: Path) -> tuple[str, str | None, bool, object]:
    return _attempt(_worker_work, path)


def _attempt_in_pool(files: list[Path], work, workers: int) -> list[tuple]:
    """``_attempt`` over ``files`` in ``workers`` forked processes, in file order.

    ``work`` reaches the workers through fork, so it need not pickle.  If a
    worker dies, every file without a result is reported as crashed.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list[tuple] = []
    chunksize = -(-len(files) // (4 * workers))  # a few chunks per worker even out page costs
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(work,),
    ) as pool:
        try:
            for result in pool.map(_attempt_in_worker, files, chunksize=chunksize):
                results.append(result)
        except BrokenProcessPool as exc:
            lost = f"{type(exc).__name__}: {exc}"
            results += [(p.name, lost, True, None) for p in files[len(results):]]
    return results


def _run_per_file(files: list[Path], work, max_workers: int) -> tuple[int, list]:
    """Call ``work(path)`` for every file; one bad file never ends the run.

    Runs in up to ``max_workers`` processes, but in this one unless every
    worker gets ``MIN_FILES_PER_WORKER`` files.  Prints one sorted
    ``error: <file>: <msg>`` line per failed file and returns the exit
    code (0, 2 if any file is invalid input, 1 if any file crashed) and
    the values ``work`` returned, in file order.
    """
    workers = min(max_workers, len(files) // MIN_FILES_PER_WORKER)
    if workers > 1:
        results = _attempt_in_pool(files, work, workers)
    else:
        results = [_attempt(work, path) for path in files]
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


def _load_eval_dir(directory: Path, tuple_sets: bool) -> dict:
    """Page tables keyed by ``(file_id, page_nr)`` or, with ``tuple_sets``,
    tuple sets keyed by ``(file_id, page_nr, table_idx)``, as the files say.
    A file whose name disagrees with its key, or two files with the same
    key, are invalid input."""
    files = _json_files(directory)
    _check_unique_names(directory, files, parse_tuple_name if tuple_sets else parse_layout_name)
    loaded: dict = {}
    for path in files:
        if tuple_sets:
            named = parse_tuple_name(path.name)
            if named is None:
                raise TabgridError(
                    f"tuple file name not of the form <id>_page<NR>_table<IDX>.json: {path.name}"
                )
            item = read_tuple_set(path)
            key = (item.file_id, item.page_nr, item.table_idx)
            _check_name(path, named, key)
        else:
            item = _read_page_tables(path)
            key = (item.file_id, item.page_nr)
        loaded[key] = item
    return loaded


def _load_eval_dirs(args: argparse.Namespace, tuple_sets: bool = False) -> tuple[dict, dict]:
    """Ground truth and predictions; with ``--strict``, every key must be on both sides."""
    gt = _load_eval_dir(Path(args.gt_dir), tuple_sets)
    pred = _load_eval_dir(Path(args.pred_dir), tuple_sets)
    if args.strict:
        lines = [f"missing prediction for {_key_name(k)}" for k in sorted(gt.keys() - pred)]
        lines += [f"missing ground truth for {_key_name(k)}" for k in sorted(pred.keys() - gt)]
        if lines:
            raise TabgridError("; ".join(lines))
    return gt, pred


def _gt_tables(page: PageTables) -> list:
    """Ground-truth tables that are expected to be recognized."""
    return [t for t, missed in zip(page.tables, page.expected_missed) if not missed]


def _eval_recognition(args: argparse.Namespace) -> tuple[dict, str]:
    gt_pages, pred_pages = _load_eval_dirs(args)
    gt_docs: dict[str, dict[int, list]] = {}
    pred_docs: dict[str, dict[int, list]] = {}
    for (fid, nr), page in gt_pages.items():
        gt_docs.setdefault(fid, {})[nr] = _gt_tables(page)
    for (fid, nr), page in pred_pages.items():
        pred_docs.setdefault(fid, {})[nr] = list(page.tables)
    per_doc = {
        fid: recognition_score(gt_docs.get(fid, {}), pred_docs.get(fid, {}), args.iou_min)
        for fid in sorted(set(gt_docs) | set(pred_docs))
    }
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
    gt_pages, pred_pages = _load_eval_dirs(args)
    by_t = cell_score(
        {key: _gt_tables(page) for key, page in gt_pages.items()},
        {key: list(page.tables) for key, page in pred_pages.items()},
        args.iou_min,
        thresholds,
    )
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
    gt_sets, pred_sets = _load_eval_dirs(args, tuple_sets=True)
    prf = interpretation_score(list(gt_sets.values()), list(pred_sets.values()))
    return {"mode": "interpretation", **prf.fields()}, f"interpretation: {prf}"


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou_min <= 1.0:
        raise ConfigError(f"--iou-min must be in (0, 1], got {args.iou_min}")
    if args.mode == "recognition":
        report, text = _eval_recognition(args)
    elif args.mode == "cells":
        report, text = _eval_cells(args)
    else:
        report, text = _eval_interpretation(args)
    print(text)
    if args.out:
        dump_json(Path(args.out), report)
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures


def _cmd_gen_fixtures(args: argparse.Namespace) -> int:
    spec = read_json(Path(args.spec))
    if not isinstance(spec, dict):
        raise TabgridError("fixture spec must be a JSON object")
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


if __name__ == "__main__":
    sys.exit(main())
