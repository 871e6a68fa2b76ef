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


IMPORT_CHECK = """
import sys
before = set(sys.modules)
import tabgrid.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"tabgrid"}))
"""


def test_cli_import_loads_only_the_standard_library():
    src = str(Path(tabgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
