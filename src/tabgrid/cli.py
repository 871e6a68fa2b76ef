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
import sys
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
from .errors import ConfigError, TabgridError
from .evaluate import (
    PRF,
    cell_f1_at_iou,
    corpus_average,
    interpretation_score,
    match_tables,
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
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    return sorted(p for p in directory.iterdir() if p.suffix == ".json" and p.is_file())


def _report_file_errors(errors: list[tuple[str, str]], crashed: list[str]) -> int:
    """Print one sorted ``error: <file>: <msg>`` line per failed file.

    Exit 1 if any file crashed unexpectedly, else 2 (invalid input).
    """
    for name, message in sorted(errors):
        print(f"error: {name}: {message}", file=sys.stderr)
    return 1 if crashed else 2


# ---------------------------------------------------------------------------
# recognize


def _recognize_one(path: Path, cfg: RecognizerConfig, orientation: PageOrientation) -> dict:
    parsed = parse_layout_name(path.name)
    if parsed is None:
        raise TabgridError(f"layout file name not of the form <id>_page<NR>.json: {path.name}")
    file_id, page_nr = parsed
    layout = page_layout_from_dict(read_json(path))
    result = recognize_page(layout, cfg, orientation)
    page = PageTables(
        file_id=file_id,
        page_nr=page_nr,
        tables=list(result.tables),
        orientation=orientation.value,
        diagnostics=list(result.diagnostics),
    )
    return page_tables_to_dict(page)


def _cmd_recognize(args: argparse.Namespace) -> int:
    layout_dir = Path(args.layout_dir)
    out_dir = Path(args.out_dir)
    cfg = load_recognizer_config(args.config) if args.config else RecognizerConfig()
    orientation = PageOrientation(args.orientation)
    files = _json_files(layout_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    errors: list[tuple[str, str]] = []
    crashed: list[str] = []
    for path in files:
        try:
            payload = _recognize_one(path, cfg, orientation)
            dump_json(out_dir / path.name, payload)
        except (TabgridError, json.JSONDecodeError, OSError) as exc:
            errors.append((path.name, str(exc)))
        except Exception as exc:  # one bad page never ends the run
            errors.append((path.name, f"{type(exc).__name__}: {exc}"))
            crashed.append(path.name)

    _write_manifest(
        out_dir,
        "recognize",
        {"layout_dir": layout_dir, "out_dir": out_dir, "orientation": args.orientation},
        args.config,
    )
    if errors:
        return _report_file_errors(errors, crashed)
    print(f"recognized {len(files)} page(s) -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# interpret


def _cmd_interpret(args: argparse.Namespace) -> int:
    tables_dir = Path(args.tables_dir)
    out_dir = Path(args.out_dir)
    meanings = load_meanings(args.rules)  # validated before any table is read
    files = _json_files(tables_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    errors: list[tuple[str, str]] = []
    crashed: list[str] = []
    n_written = 0
    for path in files:
        if path.name == "run_manifest.json":
            continue
        try:
            parsed = parse_layout_name(path.name)
            if parsed is None:
                raise TabgridError(
                    f"table file name not of the form <id>_page<NR>.json: {path.name}"
                )
            file_id, page_nr = parsed
            page = page_tables_from_dict(read_json(path))
            for idx, table in enumerate(page.tables):
                views, matching = match_meanings(table, meanings)
                if not matching.pairs:
                    continue
                write_tuple_set(
                    out_dir,
                    tuples_from_matching(table, meanings, views, matching, file_id, page_nr, idx),
                )
                n_written += 1
        except (TabgridError, json.JSONDecodeError, OSError) as exc:
            errors.append((path.name, str(exc)))
        except Exception as exc:  # one bad file never ends the run
            errors.append((path.name, f"{type(exc).__name__}: {exc}"))
            crashed.append(path.name)

    _write_manifest(
        out_dir,
        "interpret",
        {"tables_dir": tables_dir, "out_dir": out_dir, "rules": args.rules},
        args.rules,
    )
    if errors:
        return _report_file_errors(errors, crashed)
    print(f"wrote {n_written} tuple set(s) -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_page_tables_dir(directory: Path) -> dict[tuple[str, int], PageTables]:
    pages: dict[tuple[str, int], PageTables] = {}
    for path in _json_files(directory):
        if path.name == "run_manifest.json":
            continue
        parsed = parse_layout_name(path.name)
        if parsed is None:
            raise TabgridError(
                f"table file name not of the form <id>_page<NR>.json: {path.name}"
            )
        page = page_tables_from_dict(read_json(path))
        pages[(page.file_id, page.page_nr)] = page
    return pages


def _gt_tables(page: PageTables) -> list:
    """Ground-truth tables that are expected to be recognized."""
    return [t for t, missed in zip(page.tables, page.expected_missed) if not missed]


def _eval_recognition(args: argparse.Namespace) -> tuple[dict, str, int]:
    gt_pages = _load_page_tables_dir(Path(args.gt_dir))
    pred_pages = _load_page_tables_dir(Path(args.pred_dir))
    missing_pred = sorted(set(gt_pages) - set(pred_pages))
    missing_gt = sorted(set(pred_pages) - set(gt_pages))
    if args.strict and (missing_pred or missing_gt):
        lines = [f"missing prediction for {fid}_page{nr:02d}" for fid, nr in missing_pred]
        lines += [f"missing ground truth for {fid}_page{nr:02d}" for fid, nr in missing_gt]
        raise TabgridError("; ".join(lines))

    gt_docs: dict[str, dict[int, list]] = {}
    pred_docs: dict[str, dict[int, list]] = {}
    for (fid, nr), page in gt_pages.items():
        gt_docs.setdefault(fid, {})[nr] = _gt_tables(page)
    for (fid, nr), page in pred_pages.items():
        pred_docs.setdefault(fid, {})[nr] = list(page.tables)

    per_doc: dict[str, PRF] = {}
    for fid in sorted(set(gt_docs) | set(pred_docs)):
        per_doc[fid] = recognition_score(
            gt_docs.get(fid, {}), pred_docs.get(fid, {}), args.iou_min
        )
    corpus = corpus_average(per_doc.values())

    lines = []
    for fid, prf in per_doc.items():
        lines.append(
            f"document {fid}: P={prf.precision:.4f} R={prf.recall:.4f} F1={prf.f1:.4f}"
            f" (tp={prf.tp} fp={prf.fp} fn={prf.fn})"
        )
    lines.append(
        f"corpus ({len(per_doc)} documents): P={corpus.precision:.4f}"
        f" R={corpus.recall:.4f} F1={corpus.f1:.4f}"
    )
    report = {
        "mode": "recognition",
        "iou_min": args.iou_min,
        "documents": {
            fid: {
                "tp": prf.tp,
                "fp": prf.fp,
                "fn": prf.fn,
                "precision": prf.precision,
                "recall": prf.recall,
                "f1": prf.f1,
            }
            for fid, prf in per_doc.items()
        },
        "corpus": {
            "precision": corpus.precision,
            "recall": corpus.recall,
            "f1": corpus.f1,
            "documents": len(per_doc),
        },
    }
    return report, "\n".join(lines), 0


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


def _eval_cells(args: argparse.Namespace) -> tuple[dict, str, int]:
    thresholds = _parse_cell_thresholds(args.cell_thresholds)
    gt_pages = _load_page_tables_dir(Path(args.gt_dir))
    pred_pages = _load_page_tables_dir(Path(args.pred_dir))
    if args.strict:
        missing = sorted(set(gt_pages) ^ set(pred_pages))
        if missing:
            raise TabgridError(
                "; ".join(f"unpaired page {fid}_page{nr:02d}" for fid, nr in missing)
            )
    counts = {t: [0, 0, 0] for t in thresholds}  # tp, fp, fn pooled corpus-wide
    for key in sorted(set(gt_pages) | set(pred_pages)):
        gt = _gt_tables(gt_pages[key]) if key in gt_pages else []
        pred = list(pred_pages[key].tables) if key in pred_pages else []
        match = match_tables(gt, pred, iou_min=args.iou_min)
        for i, j in match.pairs:
            for t, prf in cell_f1_at_iou(gt[i], pred[j], thresholds).items():
                counts[t][0] += prf.tp
                counts[t][1] += prf.fp
                counts[t][2] += prf.fn
        for i in match.unmatched_gt:
            for t in thresholds:
                counts[t][2] += len(gt[i].cells)
        for j in match.unmatched_pred:
            for t in thresholds:
                counts[t][1] += len(pred[j].cells)

    f1_by_t = {}
    lines = []
    for t in thresholds:
        tp, fp, fn = counts[t]
        prf = PRF(tp=tp, fp=fp, fn=fn)
        f1_by_t[t] = prf.f1
        lines.append(
            f"IoU>={t:g}: P={prf.precision:.4f} R={prf.recall:.4f} F1={prf.f1:.4f}"
            f" (tp={tp} fp={fp} fn={fn})"
        )
    wavg = wavg_f1(f1_by_t)
    lines.append(f"WAvg-F1={wavg:.4f}")
    report = {
        "mode": "cells",
        "iou_min": args.iou_min,
        "thresholds": {
            str(t): {"tp": counts[t][0], "fp": counts[t][1], "fn": counts[t][2], "f1": f1_by_t[t]}
            for t in thresholds
        },
        "wavg_f1": wavg,
    }
    return report, "\n".join(lines), 0


def _load_tuple_sets(directory: Path) -> list:
    sets = []
    for path in _json_files(directory):
        if path.name == "run_manifest.json":
            continue
        if parse_tuple_name(path.name) is None:
            raise TabgridError(
                f"tuple file name not of the form <id>_page<NR>_table<IDX>.json: {path.name}"
            )
        sets.append(read_tuple_set(path))
    return sets


def _eval_interpretation(args: argparse.Namespace) -> tuple[dict, str, int]:
    gt_sets = _load_tuple_sets(Path(args.gt_dir))
    pred_sets = _load_tuple_sets(Path(args.pred_dir))
    if args.strict:
        gt_keys = {(int(s.page_nr), s.file_id, s.table_idx) for s in gt_sets}
        pred_keys = {(int(s.page_nr), s.file_id, s.table_idx) for s in pred_sets}
        missing = sorted(gt_keys ^ pred_keys)
        if missing:
            raise TabgridError(
                "; ".join(f"unpaired tuple set {fid}_page{nr:02d}_table{idx}" for nr, fid, idx in missing)
            )
    prf = interpretation_score(gt_sets, pred_sets)
    text = (
        f"interpretation: P={prf.precision:.4f} R={prf.recall:.4f} F1={prf.f1:.4f}"
        f" (tp={prf.tp} fp={prf.fp} fn={prf.fn})"
    )
    report = {
        "mode": "interpretation",
        "tp": prf.tp,
        "fp": prf.fp,
        "fn": prf.fn,
        "precision": prf.precision,
        "recall": prf.recall,
        "f1": prf.f1,
    }
    return report, text, 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou_min <= 1.0:
        raise ConfigError(f"--iou-min must be in (0, 1], got {args.iou_min}")
    if args.mode == "recognition":
        report, text, rc = _eval_recognition(args)
    elif args.mode == "cells":
        report, text, rc = _eval_cells(args)
    else:
        report, text, rc = _eval_interpretation(args)
    print(text)
    if args.out:
        dump_json(Path(args.out), report)
    return rc


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
    try:
        return args.func(args)
    except (TabgridError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
