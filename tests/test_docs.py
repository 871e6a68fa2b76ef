"""Every JSON example in docs/formats.md is what the code reads or writes."""

from __future__ import annotations

import json
import re
from pathlib import Path

from tabgrid.cli import main
from tabgrid.corpusio import (
    dump_json,
    page_tables_from_dict,
    page_tables_to_dict,
    tuple_set_from_dict,
    tuple_set_to_dict,
)
from tabgrid.fixtures import generate_pages
from tabgrid.interpret import (
    meaning_to_dict,
    meanings_from_json,
)
from tabgrid.model import (
    page_layout_from_dict,
    page_layout_to_dict,
    recognizer_config_from_dict,
    recognizer_config_to_dict,
)

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

# a key each example holds and no example before it in this list does
_KINDS = [
    ("mode", None),  # the three eval reports, named by their mode
    ("page_width", "layout"),
    ("tables", "page tables"),
    ("tuples", "tuple set"),
    ("meanings", "rules"),
    ("gamma", "recognizer config"),
    ("seed", "fixture spec"),
    ("command", "manifest"),
]


def _examples() -> dict[str, dict]:
    blocks = re.findall(r"```json\n(.*?)```", FORMATS.read_text(), re.S)
    examples = {}
    for block in blocks:
        example = json.loads(block)
        key, kind = next((key, kind) for key, kind in _KINDS if key in example)
        kind = kind or f"{example['mode']} report"
        assert kind not in examples, f"two {kind} examples"
        examples[kind] = example
    assert len(examples) == len(blocks)
    return examples


def test_formats_shows_one_example_of_each_format():
    assert set(_examples()) == {
        "layout",
        "page tables",
        "tuple set",
        "rules",
        "recognizer config",
        "fixture spec",
        "recognition report",
        "cells report",
        "interpretation report",
        "manifest",
    }


def test_input_examples_load_with_their_readers():
    ex = _examples()
    layout = page_layout_from_dict(ex["layout"])
    assert page_layout_to_dict(layout) == ex["layout"]
    # a page tables file must tile every grid; the writer gives the example back
    assert page_tables_to_dict(page_tables_from_dict(ex["page tables"])) == ex["page tables"]
    for diagnostic in ex["page tables"]["diagnostics"]:  # in the form the recognizers write
        assert re.fullmatch(r"\w+ candidate at \(\d+(, \d+){3}\) dropped: .+", diagnostic)
    assert tuple_set_to_dict(tuple_set_from_dict(ex["tuple set"])) == ex["tuple set"]
    meanings = meanings_from_json(ex["rules"])
    assert [meaning_to_dict(m) for m in meanings] == ex["rules"]["meanings"]
    cfg = recognizer_config_from_dict(ex["recognizer config"])
    assert recognizer_config_to_dict(cfg) == ex["recognizer config"]
    spec = ex["fixture spec"]
    pages = generate_pages(spec)
    assert len(pages) == len(spec["pages"]) + sum(g["count"] for g in spec["random"].values())


def _paths(value, prefix=()) -> set[tuple]:
    """Every key path in a report; the names of documents and of
    thresholds, which differ from run to run, become '*'."""
    if not isinstance(value, dict):
        return {prefix}
    out = set()
    for k, v in value.items():
        key = "*" if prefix and prefix[-1] in ("documents", "thresholds") else k
        out |= _paths(v, (*prefix, key))
    return out


def test_report_and_manifest_examples_have_the_keys_the_cli_writes(tmp_path, capsys):
    ex = _examples()
    spec = tmp_path / "spec.json"
    dump_json(spec, ex["fixture spec"])
    corpus, pred, tuples = tmp_path / "corpus", tmp_path / "pred", tmp_path / "tuples"
    config = str(corpus / "recognizer_config.json")
    assert main(["gen-fixtures", str(spec), str(corpus)]) == 0
    assert main(["recognize", str(corpus / "layouts"), str(pred), "--config", config]) == 0
    assert main(["interpret", str(pred), str(corpus / "rules.json"), str(tuples)]) == 0
    for mode, gt, predicted in [
        ("recognition", corpus / "recognition_gt", pred),
        ("cells", corpus / "recognition_gt", pred),
        ("interpretation", corpus / "interpretation_gt", tuples),
    ]:
        out = tmp_path / f"{mode}.json"
        assert main(["eval", mode, str(gt), str(predicted), "--out", str(out)]) == 0
        assert _paths(json.loads(out.read_text())) == _paths(ex[f"{mode} report"]), mode
    capsys.readouterr()
    manifest = json.loads((pred / "run_manifest.json").read_text())
    assert _paths(manifest) == _paths(ex["manifest"])
