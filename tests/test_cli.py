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
# the process pool is imported only when a command starts one
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules)
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


def test_worker_processes_give_the_serial_outputs_and_errors(tmp_path, monkeypatch, capsys):
    import concurrent.futures

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

    asked = []

    class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def run(argv, program):
        if not program:
            return main(argv)
        monkeypatch.setattr(sys, "argv", ["tabgrid", *argv])
        return main()

    monkeypatch.setattr(cli, "recognize_page", flaky)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    rules = str(corpus / "rules.json")
    runs = {}
    for program in (False, True):  # main(argv) runs serially, the program in 2 workers
        pred, tuples = tmp_path / f"pred{program}", tmp_path / f"tuples{program}"
        capsys.readouterr()
        rc_rec = run(["recognize", str(layouts), str(pred)], program)
        rec = capsys.readouterr()
        (pred / "zz_page01.json").write_bytes(sorted(pred.glob("ri*.json"))[0].read_bytes())
        rc_int = run(["interpret", str(pred), rules, str(tuples)], program)
        runs[program] = (rc_rec, rec, rc_int, capsys.readouterr(), _outputs(pred), _outputs(tuples))
    assert asked == [2, 2]
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
    src = str(Path(tabgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WORKER, "recognize", str(layouts), str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    lost = [line.split(": ")[1] for line in lines]
    assert lost == names[len(names) - len(lost):] and "victim_page01.json" in lost
    assert all(": BrokenProcessPool: " in line for line in lines)
    written = _outputs(out)
    assert set(written) | set(lost) == set(names)
    assert (out / "run_manifest.json").is_file()


@pytest.mark.parametrize(
    "program, files, cores, asked",
    [
        (True, 3 * MIN, 1_000_000, [3]),
        (True, 3 * MIN, 2, [2]),
        (True, 2 * MIN - 1, 4, []),
        (False, 3 * MIN, 4, []),  # cli.main(argv) stays in its own process
    ],
    ids=["bound-by-files", "bound-by-cores", "too-few-files", "main-argv"],
)
def test_pool_size_is_bounded_by_cores_and_files(
    tmp_path, monkeypatch, capsys, program, files, cores, asked
):
    import concurrent.futures

    layouts = tmp_path / "layouts"
    layouts.mkdir()
    for i in range(files):
        dump_json(layouts / f"p{i:03d}_page01.json", {"page_width": 100, "page_height": 100})
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
    out = tmp_path / "out"
    argv = ["recognize", str(layouts), str(out)]
    if program:
        monkeypatch.setattr(sys, "argv", ["tabgrid", *argv])
        assert main() == 0
    else:
        assert main(argv) == 0
    assert started == asked
    assert f"recognized {files} page(s)" in capsys.readouterr().out
    assert len(_outputs(out)) == files

