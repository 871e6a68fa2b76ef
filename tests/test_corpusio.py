"""File naming and on-disk round trips for corpus I/O."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid.corpusio import (
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
from tabgrid.errors import LayoutError
from tabgrid.geometry import box
from tabgrid.interpret import RowTuple, TupleSet
from tabgrid.model import Cell, RecognizedTable, TableSource


def _tiny_table(text: str = "x") -> RecognizedTable:
    cells = (
        Cell(box(0, 0, 50, 20), 0, 0, 0, 0, content=text),
        Cell(box(50, 0, 100, 20), 0, 0, 1, 1, content=text + "2"),
    )
    return RecognizedTable(
        region=box(0, 0, 100, 20),
        n_rows=1,
        n_cols=2,
        cells=cells,
        labeled=True,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )


# ---------------------------------------------------------------------------
# name formatting and parsing


def test_layout_name_zero_pads_page():
    assert format_layout_name("doc", 3) == "doc_page03.json"
    assert format_layout_name("doc", 12) == "doc_page12.json"


def test_layout_name_round_trip_with_underscored_id():
    name = format_layout_name("a_b_c", 7)
    assert parse_layout_name(name) == ("a_b_c", 7)


def test_layout_name_rejects_non_matching():
    assert parse_layout_name("nope.json") is None
    assert parse_layout_name("x_pageXX.json") is None
    assert parse_layout_name("x_page3.txt") is None


def test_tuple_name_round_trip():
    name = format_tuple_name("doc_v2", 3, 0)
    assert name == "doc_v2_page03_table0.json"
    assert parse_tuple_name(name) == ("doc_v2", 3, 0)


def test_tuple_name_accepts_bare_form():
    assert parse_tuple_name("doc_3_2.json") == ("doc", 3, 2)
    # FILE_ID may contain digits and underscores; parse binds from the right
    assert parse_tuple_name("a_1_2_3.json") == ("a_1", 2, 3)


def test_tuple_name_rejects_non_matching():
    assert parse_tuple_name("doc_page3.json") is None
    assert parse_tuple_name("doc_only.json") is None


# ---------------------------------------------------------------------------
# deterministic JSON writing


def test_dump_json_sorted_keys_and_trailing_newline(tmp_path):
    p = tmp_path / "a.json"
    dump_json(p, {"b": 1, "a": 2})
    text = p.read_text(encoding="utf-8")
    assert text == '{"a": 2, "b": 1}\n'


def test_dump_json_is_insertion_order_independent(tmp_path):
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    dump_json(p1, {"b": 1, "a": {"y": 0, "x": 9}})
    dump_json(p2, {"a": {"x": 9, "y": 0}, "b": 1})
    assert p1.read_bytes() == p2.read_bytes()


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.text(st.characters(blacklist_categories=()))
    | st.sampled_from(["", "\"", "\\", "a\"b\\c", "\x00\x1f\x7f\n\t", "\u00e9\u4e2d", "\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=5)
        | st.dictionaries(st.text(st.characters(blacklist_categories=()), max_size=5), inner,
                          max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_VALUES)
def test_dump_json_writes_the_bytes_json_dumps_writes(tmp_path_factory, obj):
    p = tmp_path_factory.mktemp("dump") / "x.json"
    dump_json(p, obj)
    data = p.read_bytes()
    text = data.decode("ascii")
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert text == json.dumps(obj, sort_keys=True) + "\n"
    # the value reads back; compared through json.dumps, since NaN != NaN
    assert json.dumps(json.loads(data), sort_keys=True) == json.dumps(obj, sort_keys=True)


# json writes int and None keys as strings; a tuple key is an error
@pytest.mark.parametrize(
    "obj",
    [{1, 2}, b"bytes", {"a": [1, {2}]}, [object()], {(1, 2): "tuple key"}],
    ids=["obj0", "bytes", "obj2", "obj5", "tuple-key"],
)
def test_dump_json_rejects_other_types_and_non_str_keys(tmp_path, obj):
    with pytest.raises(TypeError):
        dump_json(tmp_path / "x.json", obj)


def test_read_json_round_trip(tmp_path):
    p = tmp_path / "r.json"
    obj = {"k": [1, 2, 3], "s": "text"}
    dump_json(p, obj)
    assert read_json(p) == obj


# ---------------------------------------------------------------------------
# PageTables round trip


def test_page_tables_round_trip_preserves_everything():
    doc = PageTables(
        file_id="doc",
        page_nr=2,
        tables=[_tiny_table("a"), replace(_tiny_table("b"), expected_missed=True)],
        orientation="vertical",
        diagnostics=["note one", "note two"],
    )
    back = page_tables_from_dict(page_tables_to_dict(doc))
    assert back.file_id == "doc"
    assert back.page_nr == 2
    assert back.orientation == "vertical"
    assert back.diagnostics == ["note one", "note two"]
    assert [t.expected_missed for t in back.tables] == [False, True]
    assert back.tables == doc.tables


def test_expected_missed_key_only_on_marked_tables():
    doc = PageTables(
        file_id="doc",
        page_nr=0,
        tables=[_tiny_table("a"), replace(_tiny_table("b"), expected_missed=True)],
    )
    entries = page_tables_to_dict(doc)["tables"]
    assert "expected_missed" not in entries[0]
    assert entries[1]["expected_missed"] is True


def test_expected_missed_defaults_to_all_false():
    doc = page_tables_from_dict(page_tables_to_dict(
        PageTables(file_id="d", page_nr=0, tables=[_tiny_table()])
    ))
    assert [t.expected_missed for t in doc.tables] == [False]


def test_page_tables_from_dict_defaults():
    back = page_tables_from_dict({"file_id": "d", "page_nr": 1})
    assert back.tables == []
    assert back.orientation == "standard"
    assert back.diagnostics == []


def test_page_tables_from_dict_rejects_bad_shapes():
    with pytest.raises(LayoutError):
        page_tables_from_dict(["not", "an", "object"])
    with pytest.raises(LayoutError):
        page_tables_from_dict({"page_nr": 1})  # missing file_id


def test_page_tables_survives_disk_round_trip(tmp_path):
    doc = PageTables(file_id="d", page_nr=1, tables=[_tiny_table()])
    p = tmp_path / format_layout_name("d", 1)
    dump_json(p, page_tables_to_dict(doc))
    assert page_tables_from_dict(read_json(p)) == doc


# ---------------------------------------------------------------------------
# tuple-set files


def test_write_tuple_set_names_file_and_round_trips(tmp_path):
    ts = TupleSet(
        file_id="doc",
        page_nr=4,
        table_idx=1,
        tuples=[RowTuple(row=2, values={"COMPOUND": "C-7", "ACTIVITY": "3.5"})],
    )
    path = write_tuple_set(tmp_path, ts)
    assert path.name == "doc_page04_table1.json"
    assert tuple_set_from_dict(read_json(path)) == ts


def test_tuple_set_file_is_plain_json(tmp_path):
    ts = TupleSet(file_id="d", page_nr=0, table_idx=0, tuples=[])
    path = write_tuple_set(tmp_path, ts)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw == {"file_id": "d", "page_nr": 0, "table_idx": 0, "tuples": []}
