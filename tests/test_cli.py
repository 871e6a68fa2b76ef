"""End-to-end command line workflow and exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabgrid
from tabgrid import __version__, cli
from tabgrid.cli import main
from tabgrid.corpusio import dump_json
from tabgrid.model import page_layout_from_dict


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


def test_gen_fixtures_rejects_non_object_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert "spec must be a JSON object" in capsys.readouterr().err


def test_gen_fixtures_rejects_unknown_kind(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"pages": [{"kind": "csv", "file_id": "x", "page_nr": 1}]})
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert "unknown fixture kind" in capsys.readouterr().err


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
    ],
)
def test_gen_fixtures_rejects_overlapping_merges_and_cmidrules(tmp_path, capsys, page, message):
    spec = tmp_path / "spec.json"
    dump_json(spec, {"pages": [{"file_id": "x", "page_nr": 1, **page}]})
    rc = main(["gen-fixtures", str(spec), str(tmp_path / "c")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_interpret_validates_rules_before_writing(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    rules = tmp_path / "rules.json"
    dump_json(rules, [
        {"name": "A", "content_regex": "["},  # unbalanced pattern
        {"w_title": 2.0},                     # no name at all
    ])
    out = tmp_path / "tuples"
    rc = main(["interpret", str(tables), str(rules), str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "meanings[0]" in err
    assert "meanings[1]" in err
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
    real = cli.tuples_from_matching

    def flaky(table, meanings, views, matching, file_id, *args):
        if file_id == bad_id:
            raise RuntimeError("boom")
        return real(table, meanings, views, matching, file_id, *args)

    monkeypatch.setattr(cli, "tuples_from_matching", flaky)
    out = tmp_path / "tuples"
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(out)]) == 1
    assert capsys.readouterr().err == f"error: {first.name}: RuntimeError: boom\n"
    assert len(_tuple_files(out)) == 2
    assert (out / "run_manifest.json").is_file()


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
    assert capsys.readouterr().err == f"error: {message}"


def test_interpret_rejects_two_names_for_one_page(tmp_path, capsys):
    corpus, pred = _recognized(tmp_path, capsys)
    source = sorted(pred.glob("ri*_page01.json"))[0]
    copy = pred / source.name.replace("_page01", "_page1")
    copy.write_bytes(source.read_bytes())
    out = tmp_path / "out"
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {pred}: {source.name} and {copy.name} both name {source.stem}\n"
    )
    assert not out.exists()  # rejected before any file is written


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
import sys
before = set(sys.modules)
import tabgrid.cli
# the process pool is imported only when a command starts one
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"tabgrid"}))
"""


def test_cli_import_loads_only_the_standard_library():
    proc = _python(IMPORT_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

MIN = cli.MIN_FILES_PER_WORKER


def _pool_corpus(tmp_path):
    """A generated corpus of 3 * MIN_FILES_PER_WORKER pages, enough for two workers."""
    spec_path = tmp_path / "spec.json"
    dump_json(spec_path, {"seed": 5, "random": {
        "bordered": {"count": MIN}, "booktabs": {"count": MIN}, "interpretation": {"count": MIN},
    }})
    corpus = tmp_path / "corpus"
    assert main(["gen-fixtures", str(spec_path), str(corpus)]) == 0
    return corpus


def _outputs(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "run_manifest.json"}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started on a host with 2 cores."""
    import concurrent.futures

    asked = []

    class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
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
    assert len(pred_files) == 3 * MIN  # the recognized pages and the copy
    assert rc_int == 2 and inter.err.startswith("error: zz_page01.json: file name does not")
    assert len(tuple_files) == MIN


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
    assert all(": BrokenProcessPool: " in line for line in lines)
    written = _outputs(out)
    assert set(written) | set(lost) == set(names)
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


@pytest.mark.parametrize("mode", ["recognition", "cells"])
def test_eval_worker_processes_give_the_serial_results(
    tmp_path, monkeypatch, capsys, pools, mode
):
    gt, pred = _recognized_pool_corpus(tmp_path)
    sorted(pred.glob("rb*_page01.json"))[1].unlink()  # a missing prediction
    extra = json.loads(sorted(pred.glob("ri*_page01.json"))[0].read_text())
    dump_json(pred / "zz_page01.json", {**extra, "file_id": "zz"})  # no ground truth
    altered = sorted(pred.glob("rb*_page01.json"))[4]
    page = json.loads(altered.read_text())
    cell = page["tables"][0]["cells"][0]
    cell["box"][2] = (cell["box"][0] + cell["box"][2]) // 2
    cell["content"] += " altered"
    dump_json(altered, page)
    monkeypatch.setattr(cli, "MIN_PAIRS_PER_WORKER", MIN)
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
    assert strict_text.err.startswith("error: missing prediction for rb")
    assert strict_text.err.endswith("; missing ground truth for zz_page01\n")


def test_eval_reports_the_ground_truth_fault_before_a_prediction_fault(
    tmp_path, monkeypatch, capsys, pools
):
    gt, pred = _recognized_pool_corpus(tmp_path)
    names = sorted(p.name for p in gt.glob("*.json"))
    (pred / names[0]).write_text("{not json")  # in the first pair
    _break_tiling(gt / names[-1])  # in the last pair
    monkeypatch.setattr(cli, "MIN_PAIRS_PER_WORKER", MIN)
    capsys.readouterr()
    errors = []
    for program in (False, True):
        assert _run(monkeypatch, ["eval", "cells", str(gt), str(pred)], program) == 2
        errors.append(capsys.readouterr())
    assert pools == [2]
    assert errors[0] == errors[1]
    assert errors[0].out == "" and errors[0].err.count("\n") == 1
    assert errors[0].err.startswith("error: ") and "cell span outside grid" in errors[0].err


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


KILLED_EVAL_WORKER = """
import os, sys
from tabgrid import cli

real = cli.recognition_score

def dying(gt, pred, *args):
    if not pred:  # the page whose prediction is missing
        os._exit(3)
    return real(gt, pred, *args)

cli.recognition_score = dying
cli.MIN_PAIRS_PER_WORKER = 10
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
    assert line.startswith("error: ") and ": BrokenProcessPool: " in line
    assert proc.stdout == "" and not report.exists()


MIN_PAIRS = cli.MIN_PAIRS_PER_WORKER


@pytest.mark.parametrize(
    "command, program, items, cores, asked",
    [
        ("recognize", True, 3 * MIN, 1_000_000, [3]),
        ("recognize", True, 3 * MIN, 2, [2]),
        ("recognize", True, 2 * MIN - 1, 4, []),
        ("recognize", False, 3 * MIN, 4, []),  # cli.main(argv) stays in its own process
        ("eval", True, 3 * MIN_PAIRS, 1_000_000, [3]),  # two files a pair: pairs set the bound
        ("eval", True, 3 * MIN_PAIRS, 2, [2]),
        ("eval", True, 2 * MIN_PAIRS - 1, 4, []),
        ("eval", False, 3 * MIN_PAIRS, 4, []),
    ],
    ids=[
        "bound-by-files", "bound-by-cores", "too-few-files", "main-argv",
        "eval-bound-by-pairs", "eval-bound-by-cores", "eval-too-few-pairs", "eval-main-argv",
    ],
)
def test_pool_size_is_bounded_by_cores_and_files(
    tmp_path, monkeypatch, capsys, command, program, items, cores, asked
):
    import concurrent.futures

    out = tmp_path / "out"
    if command == "recognize":
        layouts = tmp_path / "layouts"
        layouts.mkdir()
        for i in range(items):
            dump_json(layouts / f"p{i:03d}_page01.json", {"page_width": 100, "page_height": 100})
        argv, done = ["recognize", str(layouts), str(out)], f"recognized {items} page(s)"
    else:
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
            for i in range(items):
                page = {"file_id": f"p{i:03d}", "page_nr": 1, "tables": []}
                dump_json(tmp_path / side / f"p{i:03d}_page01.json", page)
        argv = ["eval", "recognition", str(tmp_path / "gt"), str(tmp_path / "pred")]
        done = f"corpus ({items} documents): P=1.0000 R=1.0000 F1=1.0000"
    started = []

    class InProcessExecutor:
        """Records the pool it is asked for and runs the work here."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(cli, "_worker_work", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cores))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    if program:
        monkeypatch.setattr(sys, "argv", ["tabgrid", *argv])
        assert main() == 0
    else:
        assert main(argv) == 0
    assert started == asked
    assert done in capsys.readouterr().out
    if command == "recognize":
        assert len(_outputs(out)) == items
