"""End-to-end command line workflow and exit-code contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tabgrid
from tabgrid import __version__, cli, corpusio
from tabgrid.cli import main
from tabgrid.corpusio import (
    PageTables,
    dump_json,
    page_tables_from_dict,
    page_tables_to_dict,
    parse_tuple_name,
)
from tabgrid.fixtures import default_meanings
from tabgrid.geometry import box
from tabgrid.interpret import meaning_to_dict
from tabgrid.model import Cell, RecognizedTable, TableSource, page_layout_from_dict


SPEC = {
    "seed": 7,
    "random": {
        "bordered": {"count": 3},
        "booktabs": {"count": 3},
        "interpretation": {"count": 3},
    },
}


def _make_corpus(tmp_path):
    spec_path = tmp_path / "spec.json"
    dump_json(spec_path, SPEC)
    corpus = tmp_path / "corpus"
    rc = main(["gen-fixtures", str(spec_path), str(corpus)])
    assert rc == 0
    return corpus


# ---------------------------------------------------------------------------
# full workflow


def test_full_workflow_recognize_interpret_eval(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    layouts = corpus / "layouts"
    gt = corpus / "recognition_gt"
    config = corpus / "recognizer_config.json"
    pred = tmp_path / "pred"

    rc = main(["recognize", str(layouts), str(pred), "--config", str(config)])
    assert rc == 0
    assert "recognized 9 page(s)" in capsys.readouterr().out

    rc = main(["eval", "recognition", str(gt), str(pred), "--strict"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "corpus (9 documents): P=1.0000 R=1.0000 F1=1.0000" in out

    report_path = tmp_path / "cells.json"
    rc = main(["eval", "cells", str(gt), str(pred), "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "WAvg-F1=1.0000" in out
    report = json.loads(report_path.read_text())
    assert report["mode"] == "cells"
    assert report["wavg_f1"] == pytest.approx(1.0)
    assert set(report["thresholds"]) == {"0.6", "0.7", "0.8", "0.9"}

    tuples_out = tmp_path / "tuples"
    rc = main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples_out)])
    assert rc == 0
    assert "wrote 3 tuple set(s)" in capsys.readouterr().out

    rc = main([
        "eval", "interpretation",
        str(corpus / "interpretation_gt"), str(tuples_out), "--strict",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P=1.0000 R=1.0000 F1=1.0000" in out


def test_eval_recognition_report_file(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    pred = tmp_path / "pred"
    main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ])
    report_path = tmp_path / "rec.json"
    rc = main([
        "eval", "recognition", str(corpus / "recognition_gt"), str(pred),
        "--out", str(report_path),
    ])
    assert rc == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["mode"] == "recognition"
    assert report["corpus"]["documents"] == 9
    assert report["corpus"]["f1"] == pytest.approx(1.0)
    assert len(report["documents"]) == 9


def _chain_outputs(root: Path, capsys) -> tuple[list[str], dict]:
    """The stdout of each command of the chain on ``root/corpus``, with root
    spelt ROOT, and every file the chain wrote but its manifests."""
    corpus, pred, tuples = root / "corpus", root / "pred", root / "tuples"
    steps = [
        ["recognize", f"{corpus}/layouts", str(pred), "--config", f"{corpus}/recognizer_config.json"],
        ["interpret", str(pred), f"{corpus}/rules.json", str(tuples)],
        *(
            ["eval", mode, f"{corpus}/recognition_gt", str(pred), "--out", f"{root}/{mode}.json"]
            for mode in ("recognition", "cells")
        ),
        ["eval", "interpretation", f"{corpus}/interpretation_gt", str(tuples),
         "--out", f"{root}/interpretation.json"],
    ]
    stdout = []
    for argv in steps:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        stdout.append(captured.out.replace(str(root), "ROOT"))
    files = {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*.json")
        if corpus not in p.parents and p.name not in ("spec.json", "run_manifest.json")
    }
    return stdout, files


def test_an_indented_corpus_gives_the_same_outputs(tmp_path, capsys):
    compact = tmp_path / "compact"
    compact.mkdir()
    corpus = _make_corpus(compact)
    indented = tmp_path / "indented"
    for p in sorted(corpus.rglob("*.json")):
        q = indented / "corpus" / p.relative_to(corpus)
        q.parent.mkdir(parents=True, exist_ok=True)
        q.write_text(json.dumps(json.loads(p.read_bytes()), indent=2, sort_keys=True) + "\n")
        assert len(q.read_bytes()) > len(p.read_bytes())
    capsys.readouterr()
    stdout, files = _chain_outputs(compact, capsys)
    assert len(files) == 9 + 3 + 3  # tables, tuple sets, reports
    assert _chain_outputs(indented, capsys) == (stdout, files)


REPORT_FIELDS = {"tp", "fp", "fn", "precision", "recall", "f1"}


def test_eval_reports_and_text_keep_their_shape(tmp_path, capsys):
    corpus, pred = _recognized(tmp_path, capsys)
    tuples = tmp_path / "tuples"
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples)]) == 0
    reports, texts = {}, {}
    for mode, gt, predicted in [
        ("recognition", corpus / "recognition_gt", pred),
        ("cells", corpus / "recognition_gt", pred),
        ("interpretation", corpus / "interpretation_gt", tuples),
    ]:
        capsys.readouterr()
        out = tmp_path / f"{mode}.json"
        assert main(["eval", mode, str(gt), str(predicted), "--out", str(out)]) == 0
        texts[mode] = capsys.readouterr().out.splitlines()
        reports[mode] = json.loads(out.read_text())
    perfect = "P=1.0000 R=1.0000 F1=1.0000 (tp={tp} fp=0 fn=0)"

    rec = reports["recognition"]
    assert set(rec) == {"mode", "iou_min", "documents", "corpus"}
    assert all(set(doc) == REPORT_FIELDS for doc in rec["documents"].values())
    assert set(rec["corpus"]) == {"precision", "recall", "f1", "documents"}
    assert texts["recognition"][:-1] == [
        f"document {fid}: " + perfect.format(tp=doc["tp"]) for fid, doc in rec["documents"].items()
    ]
    cells = reports["cells"]["thresholds"]
    assert all(set(counts) == {"tp", "fp", "fn", "f1"} for counts in cells.values())
    assert texts["cells"][:-1] == [
        f"IoU>={t}: " + perfect.format(tp=counts["tp"]) for t, counts in cells.items()
    ]
    interp = reports["interpretation"]
    assert set(interp) == {"mode"} | REPORT_FIELDS
    assert texts["interpretation"] == ["interpretation: " + perfect.format(tp=interp["tp"])]


# ---------------------------------------------------------------------------
# determinism


def test_recognize_reruns_byte_identical_except_manifest(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    layouts = corpus / "layouts"
    config = corpus / "recognizer_config.json"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"

    assert main(["recognize", str(layouts), str(out1), "--config", str(config)]) == 0
    assert main(["recognize", str(layouts), str(out2), "--config", str(config)]) == 0
    capsys.readouterr()

    names1 = sorted(p.name for p in out1.glob("*.json"))
    names2 = sorted(p.name for p in out2.glob("*.json"))
    assert names1 == names2 and "run_manifest.json" in names1
    for name in names1:
        if name == "run_manifest.json":
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_manifest_shape(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    pred = tmp_path / "pred"
    main(["recognize", str(corpus / "layouts"), str(pred)])
    capsys.readouterr()
    manifest = json.loads((pred / "run_manifest.json").read_text())
    assert manifest["command"] == "recognize"
    assert manifest["version"] == __version__
    assert manifest["config_sha256"] is None  # no --config given
    assert manifest["inputs"]["orientation"] == "standard"
    assert "generated_at" in manifest


def _manifest(directory: Path) -> tuple:
    """The command, inputs and config digest of ``directory``'s run manifest."""
    manifest = json.loads((directory / "run_manifest.json").read_text())
    assert set(manifest) == {"command", "inputs", "config_sha256", "version", "generated_at"}
    assert manifest["version"] == __version__
    return manifest["command"], manifest["inputs"], manifest["config_sha256"]


def test_run_manifest_of_every_command_that_writes_one(tmp_path, capsys):
    import hashlib

    corpus = _make_corpus(tmp_path)
    spec, layouts = tmp_path / "spec.json", corpus / "layouts"
    config, rules = corpus / "recognizer_config.json", corpus / "rules.json"
    pred, vertical, tuples = tmp_path / "pred", tmp_path / "vertical", tmp_path / "tuples"
    assert main(["recognize", str(layouts), str(pred), "--config", str(config)]) == 0
    assert main(["recognize", str(layouts), str(vertical), "--orientation", "vertical"]) == 0
    assert main(["interpret", str(pred), str(rules), str(tuples)]) == 0
    capsys.readouterr()

    def digest(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert _manifest(corpus) == (
        "gen-fixtures", {"spec": str(spec), "out_dir": str(corpus)}, digest(spec)
    )
    assert _manifest(pred) == (
        "recognize",
        {"layout_dir": str(layouts), "out_dir": str(pred), "orientation": "standard"},
        digest(config),
    )
    assert _manifest(vertical) == (
        "recognize",
        {"layout_dir": str(layouts), "out_dir": str(vertical), "orientation": "vertical"},
        None,  # no --config given
    )
    assert _manifest(tuples) == (
        "interpret",
        {"tables_dir": str(pred), "out_dir": str(tuples), "rules": str(rules)},
        digest(rules),
    )


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_layout_dir_is_exit_2(tmp_path, capsys):
    rc = main(["recognize", str(tmp_path / "nope"), str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_empty_layout_dir_is_success(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["recognize", str(empty), str(tmp_path / "out")])
    assert rc == 0
    assert "recognized 0 page(s)" in capsys.readouterr().out


def test_bad_layout_names_reported_per_file(tmp_path, capsys):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    (layouts / "bad.json").write_text("{}")
    (layouts / "also-bad.json").write_text("{}")
    rc = main(["recognize", str(layouts), str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: also-bad.json:" in err
    assert "error: bad.json:" in err
    # sorted per-file reporting
    assert err.index("also-bad.json") < err.index("bad.json")


def test_page_crash_is_reported_and_run_completes(tmp_path, monkeypatch, capsys):
    spec_path = tmp_path / "spec.json"
    dump_json(spec_path, {"seed": 3, "random": {"bordered": {"count": 3}}})
    corpus = tmp_path / "corpus"
    assert main(["gen-fixtures", str(spec_path), str(corpus)]) == 0
    layouts = sorted((corpus / "layouts").glob("*.json"))
    assert len(layouts) == 3
    bad = layouts[1]
    bad_layout = page_layout_from_dict(json.loads(bad.read_text()))
    real = cli.recognize_page

    def flaky(layout, *args, **kwargs):
        if layout == bad_layout:
            raise RuntimeError("boom")
        return real(layout, *args, **kwargs)

    monkeypatch.setattr(cli, "recognize_page", flaky)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["recognize", str(corpus / "layouts"), str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad.name}: RuntimeError: boom\n"
    written = sorted(p.name for p in out.glob("*.json"))
    assert written == sorted([layouts[0].name, layouts[2].name, "run_manifest.json"])


@pytest.mark.parametrize("field, value", [("words", 5), ("separators", None),
                                          ("non_text_regions", "none")])
def test_layout_field_that_is_not_a_list_is_exit_2(tmp_path, capsys, field, value):
    corpus = _make_corpus(tmp_path)
    layouts = sorted((corpus / "layouts").glob("*.json"))
    bad = layouts[0]
    doc = json.loads(bad.read_text())
    doc[field] = value
    dump_json(bad, doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["recognize", str(corpus / "layouts"), str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad.name}: {field} must be a list, got {value!r}\n"
    written = sorted(p.name for p in out.glob("*.json"))
    assert written == sorted([p.name for p in layouts[1:]] + ["run_manifest.json"])


def test_recognize_skips_run_manifest_in_layout_dir(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    layouts = corpus / "layouts"
    names = sorted(p.name for p in layouts.glob("*.json"))
    (layouts / "run_manifest.json").write_bytes((corpus / "run_manifest.json").read_bytes())
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["recognize", str(layouts), str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "recognized 9 page(s)" in captured.out
    assert sorted(p.name for p in out.glob("*.json")) == sorted(names + ["run_manifest.json"])
    assert json.loads((out / "run_manifest.json").read_text())["command"] == "recognize"


def test_unparseable_layout_json_is_exit_2(tmp_path, capsys):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    (layouts / "doc_page01.json").write_text("{not json")
    rc = main(["recognize", str(layouts), str(tmp_path / "out")])
    assert rc == 2
    assert "doc_page01.json" in capsys.readouterr().err


LATIN_1 = '{"file_id": "café"}'.encode("latin-1")  # é is 0xe9, at byte 16
NOT_UTF_8 = "'utf-8' codec can't decode byte 0xe9 in position 16: invalid continuation byte"


@pytest.mark.parametrize(
    "command", ["recognize", "interpret", "eval recognition", "eval cells", "eval interpretation"]
)
def test_page_file_that_is_not_utf_8_is_exit_2(tmp_path, capsys, command):
    corpus, pred = _recognized(tmp_path, capsys)
    rules = str(corpus / "rules.json")
    tuples = tmp_path / "tuples"
    assert main(["interpret", str(pred), rules, str(tuples)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    gt = str(corpus / "recognition_gt")
    bad, argv = {
        "recognize": (corpus / "layouts", ["recognize", str(corpus / "layouts"), str(out)]),
        "interpret": (pred, ["interpret", str(pred), rules, str(out)]),
        "eval recognition": (pred, ["eval", "recognition", gt, str(pred)]),
        "eval cells": (pred, ["eval", "cells", gt, str(pred)]),
        "eval interpretation": (
            tuples, ["eval", "interpretation", str(corpus / "interpretation_gt"), str(tuples)]
        ),
    }[command]
    name = "a_page01_table0.json" if bad == tuples else "a_page01.json"
    (bad / name).write_bytes(LATIN_1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    if command in ("recognize", "interpret"):  # every other page is written, and the manifest
        assert captured.err == f"error: {name}: {NOT_UTF_8}\n"
        clean = pred if command == "recognize" else tuples
        assert {p.name for p in out.iterdir()} == {p.name for p in clean.iterdir()}
    else:
        assert captured == ("", f"error: {bad / name}: {NOT_UTF_8}\n")


def test_recognize_drops_ruling_clipped_at_page_edge(tmp_path, capsys):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    dump_json(layouts / "doc_page01.json", {
        "page_width": 100,
        "page_height": 100,
        "words": [{"box": [10, 10, 30, 20], "text": "x"}],
        "separators": [{"box": [99, 50, 300, 53], "orientation": "h"}],
    })
    out = tmp_path / "out"
    assert main(["recognize", str(layouts), str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "recognized 1 page(s)" in captured.out
    assert json.loads((out / "doc_page01.json").read_text())["tables"] == []


def test_bad_recognizer_config_is_exit_2(tmp_path, capsys):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": -1}))
    rc = main(["recognize", str(layouts), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["NaN", "Infinity"])
def test_non_finite_gamma_is_exit_2(tmp_path, capsys, gamma):
    # json reads NaN and Infinity; a NaN d_column would give every booktabs
    # table one column
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gamma": %s}' % gamma)
    rc = main(["recognize", str(layouts), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "error: gamma must be positive and finite\n"


def test_gen_fixtures_rejects_non_object_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert capsys.readouterr().err == "error: fixture spec must be an object, got [1, 2]\n"


def test_gen_fixtures_rejects_unknown_kind(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"pages": [{"kind": "csv", "file_id": "x", "page_nr": 1}]})
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: pages[0].kind must be 'bordered' or 'booktabs', got 'csv'\n"
    )


@pytest.mark.parametrize(
    "page, message",
    [
        (
            {"kind": "bordered", "rows": 3, "cols": 3,
             "merges": [{"row": 1, "col": 0, "dir": "right"}, {"row": 0, "col": 1, "dir": "down"}]},
            "shares cell (1, 1) with another merge",
        ),
        (
            {"kind": "booktabs", "cols": 5, "cmidrule_levels": [[[0, 2], [2, 3]]]},
            "cmidrules (0, 2) and (2, 3) overlap in one level",
        ),
        (
            {"kind": "bordered", "rows": 5, "cols": 4, "interpretation": True,
             "merges": [{"row": 3, "col": 0, "dir": "down"}]},
            "fixture page ('x', 1): an interpretation page takes no merges",
        ),
        (
            {"kind": "booktabs", "cols": 3, "cmidrule_levels": [[[1, 5]]]},
            "error: cmidrule (1, 5) outside 3 columns",
        ),
    ],
)
def test_gen_fixtures_rejects_overlapping_merges_and_cmidrules(tmp_path, capsys, page, message):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"pages": [{"file_id": "x", "page_nr": 1, **page}]})
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


_PAGE = {"kind": "bordered", "file_id": "x", "page_nr": 1}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"pages": 5}, "pages must be a list, got 5"),
        ({"pages": [5]}, "pages[0] must be an object, got 5"),
        ({"random": {"bordered": 3}}, "random.bordered must be an object, got 3"),
        ({"random": {"booktabs": {"count": True}}},
         "random.booktabs.count must be an integer >= 0, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"pages": [{**_PAGE, "page_nr": True}]},
         "pages[0].page_nr must be an integer >= 0, got True"),
        ({"pages": [{**_PAGE, "rows": "a"}]}, "pages[0].rows must be an integer >= 1, got 'a'"),
        ({"pages": [{**_PAGE, "cols": 3.0}]}, "pages[0].cols must be an integer >= 1, got 3.0"),
        ({"pages": [{**_PAGE, "kind": "booktabs", "rows": 0}]},
         "pages[0].rows must be an integer >= 1, got 0"),
        ({"pages": [{**_PAGE, "labeled": "false"}]},
         "pages[0].labeled must be a boolean, got 'false'"),
        ({"pages": [{**_PAGE, "interpretation": 1}]},
         "pages[0].interpretation must be a boolean, got 1"),
        ({"pages": [{**_PAGE, "orientation": "sideways"}]},
         "pages[0].orientation must be 'standard' or 'vertical', got 'sideways'"),
        ({"pages": [{**_PAGE, "merges": {"row": 0}}]},
         "pages[0].merges must be a list, got {'row': 0}"),
        ({"pages": [{**_PAGE, "rows": 3, "cols": 3, "merges": [{"row": 0, "dir": "right"}]}]},
         "pages[0].merges[0].col must be an integer >= 0, got None"),
        ({"pages": [{**_PAGE, "merges": [{"row": 0, "col": 0, "dir": "up"}]}]},
         "pages[0].merges[0].dir must be 'right' or 'down', got 'up'"),
        ({"pages": [{**_PAGE, "kind": "booktabs", "cmidrule_levels": [[[0]]]}]},
         "pages[0].cmidrule_levels[0][0] must be a list of 2 integers, got [0]"),
        ({"pages": [{**_PAGE, "kind": "booktabs", "cmidrule_levels": [[[0, 1.0]]]}]},
         "pages[0].cmidrule_levels[0][0][1] must be an integer >= 0, got 1.0"),
        ({"pages": [{**_PAGE, "kind": "booktabs", "cmidrule_levels": [5]}]},
         "pages[0].cmidrule_levels[0] must be a list, got 5"),
        ({"page": [_PAGE]}, "unknown field page"),
        ({"random": {"bordered": {"cnt": 3}}}, "unknown field random.bordered.cnt"),
        ({"pages": [{**_PAGE, "row": 3}]}, "unknown field pages[0].row of a bordered page"),
        ({"pages": [{**_PAGE, "rows": 3, "cols": 3,
                     "merges": [{"row": 0, "col": 0, "dir": "right", "span": 2}]}]},
         "unknown field pages[0].merges[0].span"),
        ({"pages": [{**_PAGE, "kind": "booktabs", "merges": []}]},
         "unknown field pages[0].merges of a booktabs page"),
        ({"pages": [{**_PAGE, "cmidrule_levels": []}]},
         "unknown field pages[0].cmidrule_levels of a bordered page"),
        ({"random": {"bordred": {"count": 3}}}, "unknown field random.bordred"),
        ({"pages": [{**_PAGE, "file_id": ""}]},
         "pages[0].file_id must be a non-empty string, got ''"),
        (None, "fixture spec must be an object, got None"),
        (0, "fixture spec must be an object, got 0"),
        (1.5, "fixture spec must be an object, got 1.5"),
        ("", "fixture spec must be an object, got ''"),
        ([], "fixture spec must be an object, got []"),
    ],
    ids=[
        "pages-int", "page-int", "group-int", "count-bool", "seed-float", "page-nr-bool",
        "rows-string", "cols-float", "rows-zero", "labeled-string", "interpretation-int",
        "orientation-unknown", "merges-object", "merge-without-col", "merge-dir-unknown",
        "cmidrule-one-bound", "cmidrule-float-bound", "level-int", "top-level-unknown",
        "group-unknown", "page-unknown", "merge-unknown", "booktabs-merges",
        "bordered-cmidrules", "random-group-unknown", "file-id-empty", "spec-null",
        "spec-int", "spec-float", "spec-string", "spec-list",
    ],
)
def test_gen_fixtures_rejects_wrongly_typed_fields(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    dump_json(path, spec)
    rc = main(["gen-fixtures", str(path), str(tmp_path / "c")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"gamma": "2"}, "gamma must be a number, got '2'"),
        ({"gamma": None}, "gamma must be a number, got None"),
        ({"gamma": True}, "gamma must be a number, got True"),
        ({"gamma": 0}, "gamma must be positive and finite"),
        ({"require_labels_separator": "true"},
         "require_labels_separator must be a boolean, got 'true'"),
        ({"require_labels_booktabs": 1}, "require_labels_booktabs must be a boolean, got 1"),
        ({"label_keywords": "table"},
         "label_keywords must be a list of non-empty strings, got 'table'"),
        ({"label_keywords": ["table", ""]},
         "label_keywords must be a list of non-empty strings, got ['table', '']"),
        ({"label_keywords": [], "require_labels_booktabs": True},
         "label keywords required when labels are required"),
        ({"separator_expand_px": 2.5}, "separator_expand_px must be an integer, got 2.5"),
        ({"label_search_margin_px": True}, "label_search_margin_px must be an integer, got True"),
        ({"label_search_margin_px": -1}, "pixel margins must be non-negative"),
        ({"gama": 1.5}, "unknown field gama"),
        ([1.5], "recognizer config must be an object, got [1.5]"),
    ],
    ids=[
        "gamma-string", "gamma-null", "gamma-bool", "gamma-zero", "labels-string",
        "labels-int", "keywords-string", "keywords-empty-string", "keywords-none-required",
        "expand-float", "margin-bool", "margin-negative", "unknown", "not-an-object",
    ],
)
def test_recognize_rejects_wrongly_typed_config_fields(tmp_path, capsys, config, message):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    path = tmp_path / "cfg.json"
    dump_json(path, config)
    rc = main(["recognize", str(layouts), str(tmp_path / "out"), "--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


_MEANING = {"name": "M", "w_title": 1.0, "w_content": 1.0, "min_affinity": 0.5,
            "title_keywords": ["k"]}


@pytest.mark.parametrize(
    "rules, message",
    [
        ({"meanings": [_MEANING], "meaning": [1]}, "unknown field meaning"),
        ({"meanings": {"name": "M"}}, "meanings must be a list, got {'name': 'M'}"),
        ("M", "rules config must be a list or an object, got 'M'"),
        ([5], "meanings[0] must be an object, got 5"),
        ([{**_MEANING, "weight": 1}], "unknown field meanings[0].weight"),
        ([{**_MEANING, "name": 7}], "meanings[0].name must be a string, got 7"),
        ([{**_MEANING, "name": ""}], "meanings[0]: meaning name must be non-empty"),
        ([{**_MEANING, "w_title": "1"}], "meanings[0].w_title must be a number, got '1'"),
        ([{**_MEANING, "w_content": True}], "meanings[0].w_content must be a number, got True"),
        ([{**_MEANING, "min_affinity": None}],
         "meanings[0].min_affinity must be a number, got None"),
        ([{k: v for k, v in _MEANING.items() if k != "min_affinity"}],
         "meanings[0].min_affinity is required"),
        ([{**_MEANING, "title_keywords": "k"}],
         "meanings[0].title_keywords must be a non-empty list of non-empty strings, got 'k'"),
        ([{**_MEANING, "title_keywords": []}],
         "meanings[0].title_keywords must be a non-empty list of non-empty strings, got []"),
        ([{**_MEANING, "title_regex": 1}], "meanings[0].title_regex must be a string, got 1"),
        ([{**_MEANING, "content_regex": ["x"]}],
         "meanings[0].content_regex must be a string, got ['x']"),
        ([{**_MEANING, "data_type": 1}], "meanings[0].data_type must be a string, got 1"),
        ([{**_MEANING, "data_type": "Complex"}],
         "meanings[0].data_type must be 'Integer', 'Real', 'Date' or 'Text', got 'Complex'"),
        ([_MEANING, {**_MEANING, "name": "N", "w_title": "x", "data_type": 2}],
         "meanings[1].w_title must be a number, got 'x'\n"
         "meanings[1].data_type must be a string, got 2"),
    ],
    ids=[
        "top-level-unknown", "meanings-object", "rules-string", "meaning-int",
        "meaning-unknown", "name-int", "name-empty", "weight-string", "weight-bool", "floor-null",
        "floor-missing", "keywords-string", "keywords-empty", "title-regex-int",
        "content-regex-list", "data-type-int", "data-type-unknown", "two-faults",
    ],
)
def test_interpret_rejects_wrongly_typed_rules_fields(tmp_path, capsys, rules, message):
    tables = tmp_path / "tables"
    tables.mkdir()
    path = tmp_path / "rules.json"
    dump_json(path, rules)
    rc = main(["interpret", str(tables), str(path), str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [b'{"seed": 1', b'{"seed": 1}\xff'], ids=["bad-json", "bad-utf-8"])
@pytest.mark.parametrize("what", ["fixture spec", "recognizer config", "rules config"])
def test_unreadable_small_inputs_are_exit_2(tmp_path, capsys, what, text):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    empty, out = tmp_path / "empty", tmp_path / "out"
    empty.mkdir()
    argv = {
        "fixture spec": ["gen-fixtures", str(path), str(out)],
        "recognizer config": ["recognize", str(empty), str(out), "--config", str(path)],
        "rules config": ["interpret", str(empty), str(path), str(out)],
    }[what]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_interpret_validates_rules_before_writing(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    rules = tmp_path / "rules.json"
    dump_json(rules, [
        {"name": "A", "content_regex": "["},  # unbalanced pattern
        {"w_title": 2.0},                     # no name at all
        {"name": "B", "w_title": float("inf"), "w_content": 1.0, "min_affinity": 0.5,
         "title_keywords": ["k"]},            # written as Infinity
    ])
    out = tmp_path / "tuples"
    rc = main(["interpret", str(tables), str(rules), str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "meanings[0]" in err
    assert "meanings[1]" in err
    assert "meanings[2]: B: weights must be finite" in err
    assert not out.exists()  # fail-fast: nothing written


def _recognized(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    pred = tmp_path / "pred"
    assert main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ]) == 0
    capsys.readouterr()
    return corpus, pred


def _break_tiling(page_path):
    """Push one cell's row span past the table's last row."""
    page = json.loads(page_path.read_text())
    table = page["tables"][0]
    table["cells"][0]["row_end"] = table["n_rows"]
    dump_json(page_path, page)


def _tuple_files(directory):
    return {
        p.name: p.read_bytes() for p in directory.glob("*.json") if p.name != "run_manifest.json"
    }


@pytest.mark.parametrize(
    "payload",
    [[1, 2], {"file_id": "zz", "page_nr": 1, "tables": 5}, None],
    ids=["array", "tables-not-a-list", "non-tiling"],
)
def test_interpret_reports_bad_tables_file_and_keeps_the_rest(tmp_path, capsys, payload):
    corpus, pred = _recognized(tmp_path, capsys)
    rules = str(corpus / "rules.json")
    clean = tmp_path / "clean"
    assert main(["interpret", str(pred), rules, str(clean)]) == 0
    capsys.readouterr()

    bad = pred / "zz_page01.json"
    if payload is None:
        bad.write_bytes(sorted(pred.glob("ri*_page*.json"))[0].read_bytes())
        _break_tiling(bad)
    else:
        dump_json(bad, payload)
    out = tmp_path / "tuples"
    assert main(["interpret", str(pred), rules, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zz_page01.json: ") and err.count("\n") == 1
    assert (out / "run_manifest.json").is_file()
    assert _tuple_files(out) == _tuple_files(clean)
    assert len(_tuple_files(out)) == 3


def test_interpret_crash_is_reported_and_run_completes(tmp_path, monkeypatch, capsys):
    corpus, pred = _recognized(tmp_path, capsys)
    first = sorted(pred.glob("ri*_page*.json"))[0]
    bad_id = json.loads(first.read_text())["file_id"]
    real = cli.interpret_table

    def flaky(table, meanings, file_id, *args):
        if file_id == bad_id:
            raise RuntimeError("boom")
        return real(table, meanings, file_id, *args)

    monkeypatch.setattr(cli, "interpret_table", flaky)
    out = tmp_path / "tuples"
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(out)]) == 1
    assert capsys.readouterr().err == f"error: {first.name}: RuntimeError: boom\n"
    assert len(_tuple_files(out)) == 2
    assert (out / "run_manifest.json").is_file()


def test_interpret_keeps_what_a_page_wrote_before_a_crash(tmp_path, monkeypatch, capsys):
    corpus, pred = _recognized(tmp_path, capsys)
    first = sorted(pred.glob("ri*_page*.json"))[0]
    table = page_tables_from_dict(json.loads(first.read_text())).tables[0]
    tables = tmp_path / "tables"
    tables.mkdir()
    dump_json(tables / "two_page01.json", page_tables_to_dict(PageTables("two", 1, [table] * 2)))
    real = cli.interpret_table

    def flaky(table, meanings, file_id, page_nr, table_idx):
        if table_idx == 1:
            raise RuntimeError("boom")
        return real(table, meanings, file_id, page_nr, table_idx)

    monkeypatch.setattr(cli, "interpret_table", flaky)
    out = tmp_path / "tuples"
    assert main(["interpret", str(tables), str(corpus / "rules.json"), str(out)]) == 1
    assert capsys.readouterr() == ("", "error: two_page01.json: RuntimeError: boom\n")
    assert list(_tuple_files(out)) == ["two_page01_table0.json"]  # written before the crash
    monkeypatch.setattr(cli, "interpret_table", real)
    assert main(["interpret", str(tables), str(corpus / "rules.json"), str(out)]) == 0
    assert len(_tuple_files(out)) == 2  # both tables give tuples


def test_interpret_writes_no_tuple_set_for_a_table_without_body_rows(tmp_path, capsys):
    header = [
        Cell(box=box(j * 50, 0, j * 50 + 50, 20), row_start=0, row_end=0, col_start=j,
             col_end=j, words=(), content=title)
        for j, title in enumerate(["Compound", "IC50"])
    ]
    table = RecognizedTable(region=box(0, 0, 100, 20), n_rows=1, n_cols=2,
                            cells=tuple(header), labeled=True, source=TableSource.SEPARATOR)
    tables, rules, out = tmp_path / "tables", tmp_path / "rules.json", tmp_path / "tuples"
    tables.mkdir()
    dump_json(tables / "h_page01.json", page_tables_to_dict(PageTables("h", 1, [table])))
    dump_json(rules, [meaning_to_dict(m) for m in default_meanings()])
    assert main(["interpret", str(tables), str(rules), str(out)]) == 0
    assert capsys.readouterr() == (f"wrote 0 tuple set(s) -> {out}\n", "")
    assert _tuple_files(out) == {}


@pytest.mark.parametrize("mode", ["recognition", "cells"])
def test_eval_rejects_non_tiling_table(tmp_path, capsys, mode):
    corpus, pred = _recognized(tmp_path, capsys)
    broken = sorted(pred.glob("*_page*.json"))[0]
    _break_tiling(broken)
    rc = main(["eval", mode, str(corpus / "recognition_gt"), str(pred)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cell span outside grid" in err


def test_eval_strict_flags_missing_prediction(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    pred = tmp_path / "pred"
    main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ])
    capsys.readouterr()
    removed = sorted(pred.glob("r*_page01.json"))[0]
    removed.unlink()
    rc = main(["eval", "recognition", str(corpus / "recognition_gt"), str(pred), "--strict"])
    assert rc == 2
    assert "missing prediction" in capsys.readouterr().err
    # without --strict the unpaired page just counts as misses
    rc = main(["eval", "recognition", str(corpus / "recognition_gt"), str(pred)])
    assert rc == 0
    assert "F1=1.0000" not in capsys.readouterr().out.splitlines()[-1]


def test_eval_interpretation_strict_flags_unpaired_sets(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    ts = {"file_id": "d", "page_nr": 1, "table_idx": 0,
          "tuples": [{"row": 0, "values": {"A": "1"}}]}
    dump_json(gt_dir / "d_page01_table0.json", ts)
    rc = main(["eval", "interpretation", str(gt_dir), str(pred_dir), "--strict"])
    assert rc == 2
    assert capsys.readouterr().err == "error: missing prediction for d_page01_table0\n"


def _tuple_set(directory, name, file_id, page_nr, table_idx):
    directory.mkdir(exist_ok=True)
    dump_json(directory / name, {
        "file_id": file_id, "page_nr": page_nr, "table_idx": table_idx,
        "tuples": [{"row": 0, "values": {"A": "1"}}],
    })


@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_strict_names_missing_files_in_one_wording(tmp_path, capsys, mode):
    if mode == "interpretation":
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        for directory, file_id, page_nr, table_idx in [
            (gt, "d", 1, 0), (gt, "d", 1, 1),
            (pred, "d", 1, 0), (pred, "e", 2, 0), (pred, "e", 1, 3),
        ]:
            name = f"{file_id}_page{page_nr:02d}_table{table_idx}.json"
            _tuple_set(directory, name, file_id, page_nr, table_idx)
        expected = [
            "missing prediction for d_page01_table1",
            "missing ground truth for e_page01_table3",
            "missing ground truth for e_page02_table0",
        ]
    else:
        corpus, pred = _recognized(tmp_path, capsys)
        gt = corpus / "recognition_gt"
        removed = sorted(pred.glob("rb*_page01.json"))[0]
        page = json.loads(removed.read_text())
        removed.unlink()
        page["file_id"] = "zz"
        dump_json(pred / "zz_page01.json", page)
        expected = [f"missing prediction for {removed.stem}", "missing ground truth for zz_page01"]
    rc = main(["eval", mode, str(gt), str(pred), "--strict"])
    assert rc == 2
    assert capsys.readouterr().err == "error: " + "; ".join(expected) + "\n"


@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_rejects_two_files_with_one_key(tmp_path, capsys, mode):
    if mode == "interpretation":
        pred = tmp_path / "pred"
        gt = pred
        _tuple_set(pred, "d_page01_table0.json", "d", 1, 0)
        first, second = "d_page01_table0.json", "d_1_0.json"
    else:
        corpus, pred = _recognized(tmp_path, capsys)
        gt = corpus / "recognition_gt"
        first = sorted(p.name for p in pred.glob("rb*_page01.json"))[0]
        second = first.replace("_page01", "_page1")
    (pred / second).write_bytes((pred / first).read_bytes())
    rc = main(["eval", mode, str(gt), str(pred)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert first in err and second in err


@pytest.mark.parametrize("mode", ["interpret", "recognition", "cells", "interpretation"])
def test_file_named_for_another_page_is_rejected(tmp_path, capsys, mode):
    corpus, pred = _recognized(tmp_path, capsys)
    rules = str(corpus / "rules.json")
    if mode == "interpretation":
        gt = corpus / "interpretation_gt"
        pred = tmp_path / "tuples"
        assert main(["interpret", str(tmp_path / "pred"), rules, str(pred)]) == 0
        capsys.readouterr()
        source = sorted(pred.glob("ri*_page01_table0.json"))[0]
        copy, held = pred / "zz_page01_table0.json", source.stem
    else:
        gt = corpus / "recognition_gt"
        source = sorted(pred.glob("ri*_page01.json"))[0]
        copy, held = pred / "zz_page01.json", source.stem
    copy.write_bytes(source.read_bytes())
    message = f"file name does not match its content: {copy.name} holds {held}\n"
    if mode == "interpret":
        out = tmp_path / "out"
        assert main(["interpret", str(pred), rules, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {copy.name}: {message}"
        assert len(_tuple_files(out)) == 3 and (out / "run_manifest.json").is_file()
        return
    rc = main(["eval", mode, str(gt), str(pred)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {copy}: {message}"


def _command_inputs(tmp_path, capsys, command):
    """The argv of ``command`` run on a generated corpus, and the directory
    of the inputs it scans: the layouts, the tables or the predictions."""
    corpus, pred = _recognized(tmp_path, capsys)
    out = tmp_path / "out"
    if command == "recognize":
        inputs = corpus / "layouts"
        return ["recognize", str(inputs), str(out)], inputs
    if command == "interpret":
        return ["interpret", str(pred), str(corpus / "rules.json"), str(out)], pred
    return ["eval", "recognition", str(corpus / "recognition_gt"), str(pred)], pred


@pytest.mark.parametrize("command", ["recognize", "interpret"])
def test_per_file_commands_reject_two_names_for_one_page(tmp_path, capsys, command):
    argv, inputs = _command_inputs(tmp_path, capsys, command)
    source = sorted(inputs.glob("ri*_page01.json"))[0]
    copy = inputs / source.name.replace("_page01", "_page1")
    copy.write_bytes(source.read_bytes())
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {inputs}: {source.name} and {copy.name} both name {source.stem}\n"
    )
    assert not (tmp_path / "out").exists()  # rejected before any file is written


@pytest.mark.parametrize(
    "command, link", [("recognize", False), ("recognize", True), ("interpret", False)]
)
def test_per_file_commands_refuse_to_write_into_their_input_directory(
    tmp_path, capsys, command, link
):
    argv, inputs = _command_inputs(tmp_path, capsys, command)
    out = inputs
    if link:
        out = tmp_path / "link"
        out.symlink_to(inputs, target_is_directory=True)
    argv[-1] = str(out)
    before = {p.name: p.read_bytes() for p in inputs.iterdir()}
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: the output directory is the input directory: {out}\n"
    )
    # every input keeps its bytes, and no file (a manifest, say) is added or replaced
    assert {p.name: p.read_bytes() for p in inputs.iterdir()} == before


def _run_outputs(argv, capsys):
    """The exit code, stdout and stderr of ``main(argv)``, and the files it wrote."""
    rc = main(argv)
    out = Path(argv[-1])
    written = _outputs(out) if argv[0] != "eval" else None
    if written is not None:
        shutil.rmtree(out)
    return rc, capsys.readouterr(), written


@pytest.mark.parametrize("command", ["recognize", "interpret", "eval"])
def test_scan_skips_a_directory_and_a_dangling_link_named_json(tmp_path, capsys, command):
    argv, inputs = _command_inputs(tmp_path, capsys, command)
    want = _run_outputs(argv, capsys)
    (inputs / "x.json").mkdir()
    (inputs / "y_page01.json").symlink_to(tmp_path / "absent.json")
    assert _run_outputs(argv, capsys) == want
    assert want[0] == 0 and want[1].err == ""


@pytest.mark.parametrize("command", ["recognize", "interpret", "eval"])
def test_scan_reads_a_link_to_an_input_file(tmp_path, capsys, command):
    argv, inputs = _command_inputs(tmp_path, capsys, command)
    want = _run_outputs(argv, capsys)
    source = sorted(inputs.glob("ri*_page01.json"))[0]
    elsewhere = source.rename(tmp_path / source.name)
    assert _run_outputs(argv, capsys) != want  # the file is missed
    source.symlink_to(elsewhere)
    assert _run_outputs(argv, capsys) == want


@pytest.mark.parametrize("command", ["recognize", "interpret", "eval"])
def test_a_file_given_as_the_input_directory_is_exit_2(tmp_path, capsys, command):
    argv, inputs = _command_inputs(tmp_path, capsys, command)
    a_file = sorted(inputs.glob("*.json"))[0]
    argv[argv.index(str(inputs))] = str(a_file)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: not a directory: {a_file}\n")


def test_eval_strict_parses_each_file_name_once(tmp_path, capsys, monkeypatch):
    argv, pred = _command_inputs(tmp_path, capsys, "eval")
    gt = Path(argv[2])
    parsed = []
    monkeypatch.setattr(cli, "parse_layout_name", lambda name, real=cli.parse_layout_name: (
        parsed.append(name) or real(name)
    ))
    assert main([*argv, "--strict"]) == 0
    assert "F1=1.0000" in capsys.readouterr().out
    assert sorted(parsed) == sorted(p.name for d in (gt, pred) for p in d.glob("*_page*.json"))


def test_eval_names_both_files_of_one_key(tmp_path, capsys):
    corpus, pred = _recognized(tmp_path, capsys)
    source = sorted(pred.glob("ri*_page01.json"))[0]
    copy = pred / source.name.replace("_page01", "_page1")
    copy.write_bytes(source.read_bytes())
    assert main(["eval", "recognition", str(corpus / "recognition_gt"), str(pred)]) == 2
    assert capsys.readouterr().err == (
        f"error: {pred}: {source.name} and {copy.name} both name {source.stem}\n"
    )


LAYOUT_FORM = "file name not of the form <id>_page<NR>.json: notes.json"


@pytest.mark.parametrize("command", ["recognize", "interpret"])
def test_per_file_commands_report_a_file_name_of_no_known_form(tmp_path, capsys, command):
    corpus, pred = _recognized(tmp_path, capsys)
    out = tmp_path / "out"
    if command == "recognize":
        inputs, kind, outputs = corpus / "layouts", "layout", 9
        argv = ["recognize", str(inputs), str(out)]
    else:
        inputs, kind, outputs = pred, "table", 3
        argv = ["interpret", str(inputs), str(corpus / "rules.json"), str(out)]
    (inputs / "notes.json").write_text("{}")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: notes.json: {kind} {LAYOUT_FORM}\n"
    assert len(_tuple_files(out)) == outputs and (out / "run_manifest.json").is_file()


@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_rejects_a_file_name_of_no_known_form(tmp_path, capsys, mode):
    corpus, pred = _recognized(tmp_path, capsys)
    if mode == "interpretation":
        gt, tuples = corpus / "interpretation_gt", tmp_path / "tuples"
        assert main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples)]) == 0
        pred = tuples
        capsys.readouterr()
        message = "tuple file name not of the form <id>_page<NR>_table<IDX>.json: notes.json"
    else:
        gt, message = corpus / "recognition_gt", f"table {LAYOUT_FORM}"
    (pred / "notes.json").write_text("{}")
    assert main(["eval", mode, str(gt), str(pred)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cells", "--cell-thresholds", "0.5,x"],
        ["cells", "--cell-thresholds", ""],
        ["cells", "--cell-thresholds", "0"],
        ["cells", "--cell-thresholds", "0.5,-0.5"],
        ["cells", "--cell-thresholds", "0.9,1.5"],
        ["cells", "--cell-thresholds", "nan"],
        ["cells", "--cell-thresholds", "0.7,0.7"],
        ["cells", "--iou-min", "0"],
        ["recognition", "--iou-min", "1.5"],
    ],
    ids=[
        "not-a-number", "empty", "zero", "negative", "above-one", "nan", "repeated",
        "iou-min-zero", "iou-min-above-one",
    ],
)
def test_eval_rejects_bad_iou_arguments(tmp_path, capsys, argv):
    mode, *flags = argv
    rc = main(["eval", mode, str(tmp_path), str(tmp_path), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_of_two_empty_directories_is_exit_2(tmp_path, capsys, mode):
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    gt.mkdir()
    pred.mkdir()
    (pred / "run_manifest.json").write_text("{}")  # not a file to score
    report = tmp_path / "report.json"
    assert main(["eval", mode, str(gt), str(pred), "--out", str(report)]) == 2
    assert capsys.readouterr() == ("", f"error: no files to score in {gt} or {pred}\n")
    assert not report.exists()


def _python(script, *args, timeout=60):
    """Run ``script`` in a new interpreter that imports this checkout's tabgrid."""
    src = str(Path(tabgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


IMPORT_CHECK = """
import os, sys
before = set(sys.modules)
from tabgrid import cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"tabgrid"}))
if len(sys.argv) > 1:  # run the command in the arguments as a program, in two workers
    os.sched_getaffinity = lambda pid: {0, 1}
    cli.MIN_BYTES_PER_WORKER = 1
    real, pools = cli._attempt_in_pool, []
    cli._attempt_in_pool = lambda items, work, workers, sizes: (
        pools.append(workers) or real(items, work, workers, sizes)
    )
    assert cli.main() == 0
    print(pools)
# the worker processes need neither multiprocessing nor concurrent.futures
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
"""


def test_cli_import_loads_only_the_standard_library():
    proc = _python(IMPORT_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pooled_program_run_imports_no_multiprocessing(tmp_path):
    corpus = _make_corpus(tmp_path)
    out = tmp_path / "out"
    proc = _python(IMPORT_CHECK, "recognize", str(corpus / "layouts"), str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"recognized 9 page(s) -> {out}", "[2]"]


PACKAGE_IMPORT_CHECK = """
import sys
import tabgrid
print(sorted(name for name in sys.modules if name.split(".")[0] == "tabgrid"))
"""


def test_package_import_loads_no_submodule():
    proc = _python(PACKAGE_IMPORT_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['tabgrid']"


def test_eval_cells_custom_thresholds(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    pred = tmp_path / "pred"
    main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ])
    capsys.readouterr()
    rc = main([
        "eval", "cells", str(corpus / "recognition_gt"), str(pred),
        "--cell-thresholds", "0.5,0.95",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IoU>=0.5:" in out and "IoU>=0.95:" in out


# ---------------------------------------------------------------------------
# worker processes

PER_KIND = 20  # pages of each kind in the pool corpus


def _pool_corpus(tmp_path):
    """A generated corpus of 3 * PER_KIND pages, enough input for two workers."""
    spec_path = tmp_path / "spec.json"
    dump_json(spec_path, {"seed": 5, "random": {
        "bordered": {"count": PER_KIND},
        "booktabs": {"count": PER_KIND},
        "interpretation": {"count": PER_KIND},
    }})
    corpus = tmp_path / "corpus"
    assert main(["gen-fixtures", str(spec_path), str(corpus)]) == 0
    layouts = (corpus / "layouts").glob("*.json")
    assert sum(p.stat().st_size for p in layouts) >= 2 * cli.MIN_BYTES_PER_WORKER
    return corpus


def _outputs(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "run_manifest.json"}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started on a host with 2 cores."""
    asked = []
    real = cli._attempt_in_pool

    def recording(items, work, workers, sizes):
        asked.append(workers)
        return real(items, work, workers, sizes)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_attempt_in_pool", recording)
    return asked


def _run(monkeypatch, argv, program):
    """``main(argv)``, or ``main()`` run as a program with ``argv``."""
    if not program:
        return main(argv)
    monkeypatch.setattr(sys, "argv", ["tabgrid", *argv])
    return main()


def test_worker_processes_give_the_serial_outputs_and_errors(
    tmp_path, monkeypatch, capsys, pools
):
    corpus = _pool_corpus(tmp_path)
    layouts = corpus / "layouts"
    (layouts / "broken_page01.json").write_text("{not json")
    victim = sorted(layouts.glob("rb*_page01.json"))[3]
    victim_layout = page_layout_from_dict(json.loads(victim.read_text()))
    real = cli.recognize_page

    def flaky(layout, *args, **kwargs):
        if layout == victim_layout:
            raise RuntimeError("boom")
        return real(layout, *args, **kwargs)

    monkeypatch.setattr(cli, "recognize_page", flaky)
    rules = str(corpus / "rules.json")
    runs = {}
    for program in (False, True):  # main(argv) runs serially, the program in 2 workers
        pred, tuples = tmp_path / f"pred{program}", tmp_path / f"tuples{program}"
        capsys.readouterr()
        rc_rec = _run(monkeypatch, ["recognize", str(layouts), str(pred)], program)
        rec = capsys.readouterr()
        (pred / "zz_page01.json").write_bytes(sorted(pred.glob("ri*.json"))[0].read_bytes())
        rc_int = _run(monkeypatch, ["interpret", str(pred), rules, str(tuples)], program)
        runs[program] = (rc_rec, rec, rc_int, capsys.readouterr(), _outputs(pred), _outputs(tuples))
    assert pools == [2, 2]
    assert runs[False] == runs[True]
    rc_rec, rec, rc_int, inter, pred_files, tuple_files = runs[True]
    errors = rec.err.splitlines()
    assert rc_rec == 1 and len(errors) == 2
    assert errors[0].startswith("error: broken_page01.json: Expecting property name")
    assert errors[1] == f"error: {victim.name}: RuntimeError: boom"
    assert len(pred_files) == 3 * PER_KIND  # the recognized pages and the copy
    assert rc_int == 2 and inter.err.startswith("error: zz_page01.json: file name does not")
    assert len(tuple_files) == PER_KIND


def _stacked_page(paths: list[Path]) -> dict:
    """One layout holding the pages of ``paths``, each below the one before."""
    page = {"page_width": 0, "page_height": 0, "words": [], "separators": [],
            "non_text_regions": []}
    lines = 0

    def moved(box):
        dy = page["page_height"]
        return [box[0], box[1] + dy, box[2], box[3] + dy]

    for path in paths:
        part = json.loads(path.read_text())
        for w in part["words"]:
            line_id = None if w["line_id"] is None else w["line_id"] + lines
            page["words"].append({**w, "box": moved(w["box"]), "line_id": line_id})
        page["separators"] += [{**s, "box": moved(s["box"])} for s in part["separators"]]
        page["non_text_regions"] += [moved(r) for r in part["non_text_regions"]]
        lines += 1 + max((w["line_id"] or 0 for w in part["words"]), default=0)
        page["page_width"] = max(page["page_width"], part["page_width"])
        page["page_height"] += part["page_height"]
    return page


def test_large_multi_table_page_gives_the_serial_bytes(tmp_path, monkeypatch, capsys, pools):
    corpus = _pool_corpus(tmp_path)
    layouts = corpus / "layouts"
    stacked = sorted(layouts.glob("*.json"))[::3]
    dump_json(layouts / "stacked_page01.json", _stacked_page(stacked))
    sizes = {p.name: p.stat().st_size for p in layouts.glob("*.json")}
    assert max(sizes, key=sizes.get) == "stacked_page01.json"
    config = str(corpus / "recognizer_config.json")
    runs = {}
    for program in (False, True):
        pred = tmp_path / f"pred{program}"
        capsys.readouterr()
        rc = _run(monkeypatch, ["recognize", str(layouts), str(pred), "--config", config], program)
        runs[program] = (rc, capsys.readouterr().err, _outputs(pred))
    assert pools == [2]
    assert runs[False] == runs[True]
    rc, err, pred_files = runs[True]
    assert rc == 0 and err == "" and len(pred_files) == len(sizes)
    assert len(json.loads(pred_files["stacked_page01.json"])["tables"]) > 1


def test_an_exception_in_the_parent_kills_and_reaps_every_worker(monkeypatch):
    import signal
    import time

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    class Stop(Exception):
        pass

    def stop(*_):
        raise Stop

    monkeypatch.setattr(os, "fork", fork)
    items = [cli._PagePair(name, None, None) for name in "ab"]
    old = signal.signal(signal.SIGALRM, stop)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # a fork does not copy the timer
        with pytest.raises(Stop):
            cli._attempt_in_pool(items, lambda item: time.sleep(60), 2, [1, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 30  # killed, not waited for
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)


def test_chunks_start_with_the_largest_items():
    assert cli._chunks([5, 40, 20, 80, 10], 5) == [[3], [1], [2], [4], [0]]
    assert cli._chunks([1, 3, 2, 3, 0, 9], 4) == [[5], [1, 3], [2], [0, 4]]
    assert sorted(sum(cli._chunks(list(range(10)), 3), [])) == list(range(10))


KILLED_WORKER = """
import os, sys
from tabgrid import cli

real = cli.recognize_page

def dying(layout, *args, **kwargs):
    if layout.page_width == 999:
        os._exit(3)
    return real(layout, *args, **kwargs)

cli.recognize_page = dying
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main())  # run as a program: one worker per core
"""


def test_killed_worker_reports_unfinished_files(tmp_path, capsys):
    corpus = _pool_corpus(tmp_path)
    layouts = corpus / "layouts"
    dump_json(layouts / "victim_page01.json", {"page_width": 999, "page_height": 999})
    names = sorted(p.name for p in layouts.glob("*.json"))
    out = tmp_path / "out"
    proc = _python(KILLED_WORKER, "recognize", str(layouts), str(out), timeout=120)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    lost = [line.split(": ")[1] for line in lines]
    assert lost == names[len(names) - len(lost):] and "victim_page01.json" in lost
    assert all(line.endswith(": worker process exited with code 3") for line in lines)
    written = _outputs(out)
    assert set(written) | set(lost) == set(names)
    assert (out / "run_manifest.json").is_file()


KILLED_ON_LARGEST = """
import os, signal, sys
from tabgrid import cli

real = cli.recognize_page

def dying(layout, *args, **kwargs):
    if layout.page_width == 999:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(layout, *args, **kwargs)

cli.recognize_page = dying
os.sched_getaffinity = lambda pid: {0, 1}
rc = cli.main()  # run as a program: one worker per core
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(rc)
"""


def test_worker_killed_on_the_largest_page_is_reported_and_reaped(tmp_path):
    corpus = _pool_corpus(tmp_path)
    layouts = corpus / "layouts"
    largest = max(p.stat().st_size for p in layouts.glob("*.json"))
    page = json.dumps({"page_width": 999, "page_height": 999})
    (layouts / "victim_page01.json").write_text(page + " " * largest)  # the largest input
    names = sorted(p.name for p in layouts.glob("*.json"))
    out = tmp_path / "out"
    proc = _python(KILLED_ON_LARGEST, "recognize", str(layouts), str(out), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == ["no child left"]
    lines = proc.stderr.splitlines()
    lost = [line.split(": ")[1] for line in lines]
    assert lost == names[len(names) - len(lost):] and "victim_page01.json" in lost
    assert all(line.endswith(": worker process killed by SIGKILL") for line in lines)
    assert set(_outputs(out)) | set(lost) == set(names)
    assert (out / "run_manifest.json").is_file()


def _recognized_pool_corpus(tmp_path):
    """Ground truth and predictions of ``_pool_corpus``."""
    corpus = _pool_corpus(tmp_path)
    pred = tmp_path / "pred"
    assert main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ]) == 0
    return corpus / "recognition_gt", pred


TUPLE_FORM = "tuple file name not of the form <id>_page<NR>_table<IDX>.json: notes.json"


def _pool_eval_dirs(tmp_path):
    """The ground-truth and predicted directories of ``_pool_corpus`` that
    each eval mode scores."""
    gt, pred = _recognized_pool_corpus(tmp_path)
    tuples = tmp_path / "tuples"
    assert main(["interpret", str(pred), str(gt.parent / "rules.json"), str(tuples)]) == 0
    interpretation = (gt.parent / "interpretation_gt", tuples)
    return {"recognition": (gt, pred), "cells": (gt, pred), "interpretation": interpretation}


def _alter_predictions(pred, mode):
    """One prediction left out, one added without ground truth (zz), one changed."""
    if mode == "interpretation":
        sets = sorted(pred.glob("ri*.json"))
        sets[1].unlink()
        dump_json(pred / "zz_page01_table0.json", {**json.loads(sets[0].read_text()), "file_id": "zz"})
        altered = json.loads(sets[4].read_text())
        row = altered["tuples"][0]
        row["values"] = {k: v + " altered" for k, v in row["values"].items()}
        dump_json(sets[4], altered)
        return
    sorted(pred.glob("rb*_page01.json"))[1].unlink()  # a missing prediction
    extra = json.loads(sorted(pred.glob("ri*_page01.json"))[0].read_text())
    dump_json(pred / "zz_page01.json", {**extra, "file_id": "zz"})  # no ground truth
    altered = sorted(pred.glob("rb*_page01.json"))[4]
    page = json.loads(altered.read_text())
    cell = page["tables"][0]["cells"][0]
    cell["box"][2] = (cell["box"][0] + cell["box"][2]) // 2
    cell["content"] += " altered"
    dump_json(altered, page)


@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_worker_processes_give_the_serial_results(
    tmp_path, monkeypatch, capsys, pools, mode
):
    gt, pred = _pool_eval_dirs(tmp_path)[mode]
    _alter_predictions(pred, mode)
    monkeypatch.setattr(cli, "MIN_PAIR_BYTES_PER_WORKER", 1)
    capsys.readouterr()
    runs = {}
    for program in (False, True):  # main(argv) runs serially, the program in 2 workers
        runs[program] = []
        for strict in ([], ["--strict"]):
            report = tmp_path / f"{mode}{program}{len(strict)}.json"
            argv = ["eval", mode, str(gt), str(pred), "--out", str(report), *strict]
            rc = _run(monkeypatch, argv, program)
            written = report.read_bytes() if report.exists() else None
            runs[program].append((rc, capsys.readouterr(), written))
    assert pools == [2, 2]
    assert runs[False] == runs[True]
    (rc, text, written), (rc_strict, strict_text, strict_written) = runs[True]
    assert rc == 0 and text.err == "" and written is not None
    assert text.out.splitlines()[-1].split("F1=")[1][:6] < "1.0000"
    assert rc_strict == 2 and strict_text.out == "" and strict_written is None
    kind = "ri" if mode == "interpretation" else "rb"
    assert strict_text.err.startswith(f"error: missing prediction for {kind}")
    zz = "zz_page01_table0" if mode == "interpretation" else "zz_page01"
    assert strict_text.err.endswith(f"; missing ground truth for {zz}\n")


def _break_tuple_set(path):
    """Leave out the set's ``tuples`` list: give it a number instead."""
    dump_json(path, {**json.loads(path.read_text()), "tuples": 3})


def test_eval_reports_the_ground_truth_fault_before_a_prediction_fault(
    tmp_path, monkeypatch, capsys, pools
):
    dirs = _pool_eval_dirs(tmp_path)
    monkeypatch.setattr(cli, "MIN_PAIR_BYTES_PER_WORKER", 1)
    for mode in ("cells", "interpretation"):
        gt, pred = dirs[mode]
        names = sorted(p.name for p in gt.glob("*.json"))
        (pred / names[0]).write_text("{not json")  # in the first pair
        last = gt / names[-1]  # in the last pair
        (_break_tuple_set if mode == "interpretation" else _break_tiling)(last)
        capsys.readouterr()
        errors = []
        for program in (False, True):
            assert _run(monkeypatch, ["eval", mode, str(gt), str(pred)], program) == 2
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1]
        assert errors[0].out == "" and errors[0].err.count("\n") == 1
        fault = "tuples must be a list" if mode == "interpretation" else "cell span outside grid"
        assert errors[0].err.startswith(f"error: {last}: ") and fault in errors[0].err
    assert pools == [2, 2]


@pytest.mark.parametrize("mode", ["recognition", "cells"])
def test_eval_reports_a_ground_truth_fault_before_a_missing_prediction_dir(
    tmp_path, capsys, mode
):
    corpus = _make_corpus(tmp_path)
    gt = corpus / "recognition_gt"
    _break_tiling(sorted(gt.glob("*.json"))[-1])
    assert main(["eval", mode, str(gt), str(tmp_path / "absent")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cell span outside grid" in err and err.count("\n") == 1


def test_eval_reads_the_ground_truth_names_before_any_prediction(
    tmp_path, monkeypatch, capsys, pools
):
    dirs = _pool_eval_dirs(tmp_path)
    monkeypatch.setattr(cli, "MIN_PAIR_BYTES_PER_WORKER", 1)
    for mode, form in (("cells", f"table {LAYOUT_FORM}"), ("interpretation", TUPLE_FORM)):
        gt, pred = dirs[mode]
        (gt / "notes.json").write_text("{}")
        sorted(pred.glob("r*.json"))[0].write_text("{not json")  # in the first pair
        capsys.readouterr()
        for program in (False, True):
            assert _run(monkeypatch, ["eval", mode, str(gt), str(pred)], program) == 2
            assert capsys.readouterr() == ("", f"error: {form}\n")
    assert pools == [2, 2]


def test_eval_reports_a_crashed_pair_before_a_file_name_of_no_known_form(
    tmp_path, monkeypatch, capsys, pools
):
    dirs = _pool_eval_dirs(tmp_path)
    monkeypatch.setattr(cli, "MIN_PAIR_BYTES_PER_WORKER", 1)
    for mode, name in (("cells", "cell_score"), ("interpretation", "interpretation_score")):
        gt, pred = dirs[mode]
        (gt / "notes.json").write_text("{}")
        victim = sorted(gt.glob("r*_page01*.json"))[3]
        if mode == "interpretation":
            victim_gt = [cli._read_tuple_set(cli._Input(victim, parse_tuple_name(victim.name), 0))]
        else:
            victim_gt = {0: page_tables_from_dict(json.loads(victim.read_text())).tables}

        def flaky(gt_items, *args, real=getattr(cli, name), victim_gt=victim_gt):
            if gt_items == victim_gt:
                raise RuntimeError("boom")
            return real(gt_items, *args)

        monkeypatch.setattr(cli, name, flaky)
        capsys.readouterr()
        page = victim.stem.split("_table")[0]
        for program in (False, True):
            assert _run(monkeypatch, ["eval", mode, str(gt), str(pred)], program) == 1
            assert capsys.readouterr() == ("", f"error: {page}: RuntimeError: boom\n")
    assert pools == [2, 2]


def test_eval_interpretation_crash_names_its_page(tmp_path, monkeypatch, capsys):
    gt = _make_corpus(tmp_path) / "interpretation_gt"

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "interpretation_score", boom)
    capsys.readouterr()
    assert main(["eval", "interpretation", str(gt), str(gt)]) == 1
    page = sorted(gt.glob("*.json"))[0].stem.split("_table")[0]
    assert capsys.readouterr() == ("", f"error: {page}: RuntimeError: boom\n")


@pytest.mark.parametrize("mode", ["recognition", "cells"])
def test_eval_does_not_score_a_found_expected_missed_table(tmp_path, capsys, mode):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"seed": 3, "pages": [
        {"kind": "bordered", "file_id": "u", "page_nr": 1, "labeled": False},
        {"kind": "bordered", "file_id": "l", "page_nr": 1},
    ]})
    corpus, pred = tmp_path / "corpus", tmp_path / "pred"
    assert main(["gen-fixtures", str(spec), str(corpus)]) == 0
    assert main(["recognize", str(corpus / "layouts"), str(pred)]) == 0
    found = page_tables_from_dict(json.loads((pred / "u_page01.json").read_text()))
    assert len(found.tables) == 1  # the default config also finds unlabeled tables
    capsys.readouterr()
    assert main(["eval", mode, str(corpus / "recognition_gt"), str(pred), "--strict"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if mode == "recognition":
        assert "document u: P=1.0000 R=1.0000 F1=1.0000 (tp=0 fp=0 fn=0)" in lines
        assert lines[-1] == "corpus (2 documents): P=1.0000 R=1.0000 F1=1.0000"
    else:
        assert all("F1=1.0000" in line for line in lines[:-1])
        assert lines[-1] == "WAvg-F1=1.0000"


KILLED_EVAL_WORKER = """
import os, sys
from tabgrid import cli

real = cli.recognition_score

def dying(gt, pred, *args):
    if not pred[0]:  # the page whose prediction is missing
        os._exit(3)
    return real(gt, pred, *args)

cli.recognition_score = dying
cli.MIN_PAIR_BYTES_PER_WORKER = 1
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main())  # run as a program: one worker per core
"""


def test_killed_eval_worker_is_exit_1_without_a_report(tmp_path):
    gt, pred = _recognized_pool_corpus(tmp_path)
    sorted(pred.glob("*_page01.json"))[7].unlink()
    report = tmp_path / "report.json"
    argv = ["eval", "recognition", str(gt), str(pred), "--out", str(report)]
    proc = _python(KILLED_EVAL_WORKER, *argv, timeout=120)
    assert proc.returncode == 1, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(": worker process exited with code 3")
    assert proc.stdout == "" and not report.exists()


MIN = cli.MIN_BYTES_PER_WORKER
MIN_PAIR = cli.MIN_PAIR_BYTES_PER_WORKER


def _padded(path: Path, obj: dict, size: int) -> None:
    """``obj`` as JSON in a file of ``size`` bytes: blanks after the value."""
    text = json.dumps(obj)
    path.write_text(text + " " * (size - len(text)))


@pytest.mark.parametrize(
    "command, program, items, size, cores, asked",
    [
        ("recognize", True, 3, 2 * MIN, 1_000_000, [3]),
        ("recognize", True, 3, MIN, 2, [2]),
        ("recognize", True, 6, (2 * MIN - 1) // 6, 4, []),
        ("recognize", False, 3, MIN, 4, []),  # cli.main(argv) stays in its own process
        ("recognize", True, 8, MIN // 2, 1_000_000, [4]),
        ("eval", True, 3, 2 * MIN_PAIR, 1_000_000, [3]),  # two files a pair: pairs set the bound
        ("eval", True, 3, MIN_PAIR, 2, [2]),
        ("eval", True, 6, (2 * MIN_PAIR - 1) // 6, 4, []),
        ("eval", False, 3, MIN_PAIR, 4, []),
    ],
    ids=[
        "bound-by-files", "bound-by-cores", "too-few-files", "main-argv", "bound-by-bytes",
        "eval-bound-by-pairs", "eval-bound-by-cores", "eval-too-few-pairs", "eval-main-argv",
    ],
)
def test_pool_size_is_bounded_by_cores_and_files(
    tmp_path, monkeypatch, capsys, command, program, items, size, cores, asked
):
    """``size`` is the input bytes of a file, or of a page pair."""
    out = tmp_path / "out"
    if command == "recognize":
        layouts = tmp_path / "layouts"
        layouts.mkdir()
        for i in range(items):
            page = {"page_width": 100, "page_height": 100}
            _padded(layouts / f"p{i:03d}_page01.json", page, size)
        argv, done = ["recognize", str(layouts), str(out)], f"recognized {items} page(s)"
    else:
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
            for i in range(items):
                page = {"file_id": f"p{i:03d}", "page_nr": 1, "tables": []}
                _padded(tmp_path / side / f"p{i:03d}_page01.json", page, size // 2)
        argv = ["eval", "recognition", str(tmp_path / "gt"), str(tmp_path / "pred")]
        done = f"corpus ({items} documents): P=1.0000 R=1.0000 F1=1.0000"
    started = []

    def in_process(items, work, workers, sizes):
        """Records the pool it is asked for and runs the work here."""
        started.append(workers)
        return [cli._attempt(work, item) for item in items]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cores))
    monkeypatch.setattr(cli, "_attempt_in_pool", in_process)
    if program:
        monkeypatch.setattr(sys, "argv", ["tabgrid", *argv])
        assert main() == 0
    else:
        assert main(argv) == 0
    assert started == asked
    assert done in capsys.readouterr().out
    if command == "recognize":
        assert len(_outputs(out)) == items


def test_recognize_drops_a_cluster_with_one_border_each_way(tmp_path, capsys):
    layouts = tmp_path / "layouts"
    layouts.mkdir()
    dump_json(layouts / "doc_page01.json", {
        "page_width": 400,
        "page_height": 400,
        "words": [],
        "separators": [
            {"box": [50, 99, 250, 101], "orientation": "h"},
            {"box": [149, 20, 151, 200], "orientation": "v"},
        ],
    })
    out = tmp_path / "out"
    assert main(["recognize", str(layouts), str(out)]) == 0
    page = json.loads((out / "doc_page01.json").read_text())
    assert page["tables"] == []
    assert page["diagnostics"] == [
        "separator candidate dropped: cluster at (45, 15, 255, 205) has 1 row and 1 column borders"
    ]


def test_eval_names_a_tuple_set_file_that_is_not_an_object(tmp_path, capsys):
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    gt.mkdir()
    pred.mkdir()
    bad = pred / "a_page01_table0.json"
    dump_json(bad, [1])
    assert main(["eval", "interpretation", str(gt), str(pred)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: tuple set JSON must be an object\n")


@pytest.mark.parametrize("mode", ["recognition", "cells"])
def test_eval_names_a_prediction_file_that_is_not_json(tmp_path, capsys, mode):
    corpus, pred = _recognized(tmp_path, capsys)
    bad = sorted(pred.glob("*_page01.json"))[0]
    bad.write_text("{not json")
    assert main(["eval", mode, str(corpus / "recognition_gt"), str(pred)]) == 2
    reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert capsys.readouterr() == ("", f"error: {bad}: {reason}\n")


def test_eval_names_the_ground_truth_file_when_the_prediction_dir_is_missing(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    bad = sorted((corpus / "recognition_gt").glob("*.json"))[-1]
    bad.write_text("[]")
    argv = ["eval", "cells", str(corpus / "recognition_gt"), str(tmp_path / "absent")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: page tables JSON must be an object\n"



@pytest.mark.parametrize("mode", ["recognition", "cells", "interpretation"])
def test_eval_reads_each_file_once_when_one_is_faulty(tmp_path, monkeypatch, capsys, mode):
    corpus, pred = _recognized(tmp_path, capsys)
    gt = corpus / "recognition_gt"
    if mode == "interpretation":
        gt, tuples = corpus / "interpretation_gt", tmp_path / "tuples"
        assert main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples)]) == 0
        pred = tuples
    files = sorted(p for d in (gt, pred) for p in d.glob("*_page*.json"))
    bad = sorted(pred.glob("*_page01*.json"))[1]
    bad.write_text("{not json")
    reads = []

    def counted(path, real=corpusio.read_json):
        reads.append(Path(path))
        return real(path)

    monkeypatch.setattr(cli, "read_json", counted)
    monkeypatch.setattr(corpusio, "read_json", counted)  # the binding read_tuple_set calls
    capsys.readouterr()
    assert main(["eval", mode, str(gt), str(pred)]) == 2
    reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert capsys.readouterr() == ("", f"error: {bad}: {reason}\n")
    assert sorted(reads) == files


def test_an_unlabeled_table_the_config_skips_has_no_tuple_ground_truth(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"seed": 5, "pages": [
        {"kind": "bordered", "file_id": "a", "page_nr": 1, "labeled": False,
         "interpretation": True},
        {"kind": "booktabs", "file_id": "b", "page_nr": 1, "interpretation": True},
    ]})
    corpus, pred, tuples = tmp_path / "corpus", tmp_path / "pred", tmp_path / "tuples"
    assert main(["gen-fixtures", str(spec), str(corpus)]) == 0
    assert main([
        "recognize", str(corpus / "layouts"), str(pred),
        "--config", str(corpus / "recognizer_config.json"),
    ]) == 0
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples)]) == 0
    capsys.readouterr()
    argv = ["eval", "recognition", str(corpus / "recognition_gt"), str(pred), "--strict"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("F1=1.0000")
    argv = ["eval", "interpretation", str(corpus / "interpretation_gt"), str(tuples), "--strict"]
    assert main(argv) == 0
    out = "interpretation: P=1.0000 R=1.0000 F1=1.0000 (tp=7 fp=0 fn=0)\n"
    assert capsys.readouterr() == (out, "")
