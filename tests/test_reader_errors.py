"""Every LayoutError the three JSON readers raise, with its exact message.

Each case edits one field of a valid document.  The messages name the
location (``words[1]``, ``cells[0].box``, ...) and the cause, and the
readers' fast paths must leave every one of them as it is.
"""

from __future__ import annotations

import copy

import pytest

from tabgrid.corpusio import page_tables_from_dict
from tabgrid.errors import LayoutError
from tabgrid.model import page_layout_from_dict, recognized_table_from_dict

_DROP = object()


def _page() -> dict:
    return {
        "page_width": 100,
        "page_height": 50,
        "words": [
            {"box": [1, 1, 9, 9], "text": "a", "line_id": 0},
            {"box": [11, 1, 19, 9], "text": "b", "line_id": 0},
        ],
        "separators": [
            {"box": [0, 20, 90, 22], "orientation": "h"},
            {"box": [40, 0, 42, 50], "orientation": "v"},
        ],
        "non_text_regions": [[50, 30, 60, 40]],
    }


def _table() -> dict:
    return {
        "region": [0, 0, 20, 10],
        "n_rows": 1,
        "n_cols": 2,
        "labeled": True,
        "source": "separator",
        "header_row_count": 0,
        "cells": [
            {"box": [0, 0, 10, 10], "row_start": 0, "row_end": 0,
             "col_start": 0, "col_end": 0, "content": "a"},
            {"box": [10, 0, 20, 10], "row_start": 0, "row_end": 0,
             "col_start": 1, "col_end": 1, "content": "b"},
        ],
    }


def _page_tables() -> dict:
    return {
        "file_id": "doc",
        "page_nr": 1,
        "orientation": "standard",
        "diagnostics": [],
        "tables": [_table()],
    }


def _with(doc: dict, path: tuple, value: object) -> dict:
    """A deep copy of doc with the value at path replaced (or dropped)."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_the_base_documents_are_valid():
    page_layout_from_dict(_page())
    recognized_table_from_dict(_table())
    page_tables_from_dict(_page_tables())


LAYOUT_ERRORS = [
    ("not-an-object", [1, 2], "layout JSON must be an object"),
    ("width-missing", _with(_page(), ("page_width",), _DROP),
     "bad or missing page dimensions: 'page_width'"),
    ("height-missing", _with(_page(), ("page_height",), _DROP),
     "bad or missing page dimensions: 'page_height'"),
    ("width-zero", _with(_page(), ("page_width",), 0), "page dimensions must be positive"),
    ("height-negative", _with(_page(), ("page_height",), -3),
     "page dimensions must be positive"),
    ("word-not-object", _with(_page(), ("words", 1), [11, 1, 19, 9]),
     "words[1]: must be an object"),
    ("word-box-missing", _with(_page(), ("words", 1, "box"), _DROP),
     "words[1]: box must be a list of 4 integers, got None"),
    ("word-box-three", _with(_page(), ("words", 0, "box"), [1, 1, 9]),
     "words[0]: box must be a list of 4 integers, got [1, 1, 9]"),
    ("word-box-float", _with(_page(), ("words", 1, "box"), [11, 1, 19.5, 9]),
     "words[1]: box must be a list of 4 integers, got [11, 1, 19.5, 9]"),
    ("word-box-string", _with(_page(), ("words", 0, "box"), "1 1 9 9"),
     "words[0]: box must be a list of 4 integers, got '1 1 9 9'"),
    ("word-box-degenerate", _with(_page(), ("words", 1, "box"), [19, 1, 11, 9]),
     "words[1]: degenerate box: BoundingBox(left=19, top=1, right=11, bottom=9)"),
    ("word-box-upside-down", _with(_page(), ("words", 0, "box"), [1, 9, 9, 1]),
     "words[0]: degenerate box: BoundingBox(left=1, top=9, right=9, bottom=1)"),
    ("word-text-missing", _with(_page(), ("words", 1, "text"), _DROP),
     "words[1]: text must be a string"),
    ("word-text-number", _with(_page(), ("words", 0, "text"), 7),
     "words[0]: text must be a string"),
    ("word-line-id-string", _with(_page(), ("words", 1, "line_id"), "0"),
     "words[1]: line_id must be an integer or null"),
    ("word-line-id-float", _with(_page(), ("words", 0, "line_id"), 1.0),
     "words[0]: line_id must be an integer or null"),
    ("separator-not-object", _with(_page(), ("separators", 1), "v"),
     "separators[1]: must be an object"),
    ("separator-box-missing", _with(_page(), ("separators", 0, "box"), _DROP),
     "separators[0]: box must be a list of 4 integers, got None"),
    ("separator-box-five", _with(_page(), ("separators", 1, "box"), [40, 0, 42, 50, 1]),
     "separators[1]: box must be a list of 4 integers, got [40, 0, 42, 50, 1]"),
    ("separator-box-degenerate", _with(_page(), ("separators", 0, "box"), [90, 20, 0, 22]),
     "separators[0]: degenerate box: BoundingBox(left=90, top=20, right=0, bottom=22)"),
    ("separator-orientation-bad", _with(_page(), ("separators", 1, "orientation"), "x"),
     "separators[1]: orientation must be 'h' or 'v'"),
    ("separator-orientation-missing", _with(_page(), ("separators", 0, "orientation"), _DROP),
     "separators[0]: orientation must be 'h' or 'v'"),
    ("separator-h-taller-than-wide", _with(_page(), ("separators", 0, "orientation"), "v"),
     "separators[0]: vertical separator wider than tall: "
     "BoundingBox(left=0, top=20, right=90, bottom=22)"),
    ("separator-v-wider-than-tall", _with(_page(), ("separators", 1, "orientation"), "h"),
     "separators[1]: horizontal separator taller than wide: "
     "BoundingBox(left=40, top=0, right=42, bottom=50)"),
    ("region-not-a-list", _with(_page(), ("non_text_regions", 0), {"box": [50, 30, 60, 40]}),
     "non_text_regions[0]: box must be a list of 4 integers, got {'box': [50, 30, 60, 40]}"),
    ("region-string-coordinate", _with(_page(), ("non_text_regions", 0), [50, "30", 60, 40]),
     "non_text_regions[0]: box must be a list of 4 integers, got [50, '30', 60, 40]"),
    ("region-degenerate", _with(_page(), ("non_text_regions", 0), [60, 30, 50, 40]),
     "non_text_regions[0]: degenerate box: BoundingBox(left=60, top=30, right=50, bottom=40)"),
    ("words-int", _with(_page(), ("words",), 5), "words must be a list, got 5"),
    ("words-object", _with(_page(), ("words",), {"box": [1, 1, 9, 9]}),
     "words must be a list, got {'box': [1, 1, 9, 9]}"),
    ("separators-null", _with(_page(), ("separators",), None),
     "separators must be a list, got None"),
    ("separators-string", _with(_page(), ("separators",), "h"),
     "separators must be a list, got 'h'"),
    ("regions-null", _with(_page(), ("non_text_regions",), None),
     "non_text_regions must be a list, got None"),
    ("regions-box", _with(_page(), ("non_text_regions",), 7),
     "non_text_regions must be a list, got 7"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in LAYOUT_ERRORS],
                         ids=[c[0] for c in LAYOUT_ERRORS])
def test_page_layout_error_messages(doc, message):
    with pytest.raises(LayoutError) as info:
        page_layout_from_dict(doc)
    assert str(info.value) == message


TABLE_ERRORS = [
    ("not-an-object", ["region"], "table entry must be an object"),
    ("region-missing", _with(_table(), ("region",), _DROP), "bad table entry: 'region'"),
    ("region-three", _with(_table(), ("region",), [0, 0, 20]),
     "table.region: box must be a list of 4 integers, got [0, 0, 20]"),
    ("region-float", _with(_table(), ("region",), [0, 0, 20.0, 10]),
     "table.region: box must be a list of 4 integers, got [0, 0, 20.0, 10]"),
    ("region-degenerate", _with(_table(), ("region",), [20, 0, 0, 10]),
     "table.region: degenerate box: BoundingBox(left=20, top=0, right=0, bottom=10)"),
    ("cells-missing", _with(_table(), ("cells",), _DROP), "bad table entry: 'cells'"),
    ("cells-not-a-list", _with(_table(), ("cells",), {"box": [0, 0, 10, 10]}),
     "bad table entry: cells must be a list, got {'box': [0, 0, 10, 10]}"),
    ("cell-not-object", _with(_table(), ("cells", 1), [10, 0, 20, 10]),
     "bad table entry: cells[1] must be an object, got [10, 0, 20, 10]"),
    ("cell-box-missing", _with(_table(), ("cells", 0, "box"), _DROP), "bad table entry: 'box'"),
    ("cell-box-null", _with(_table(), ("cells", 1, "box"), None),
     "cells[1].box: box must be a list of 4 integers, got None"),
    ("cell-box-string-coordinate", _with(_table(), ("cells", 0, "box"), [0, 0, "10", 10]),
     "cells[0].box: box must be a list of 4 integers, got [0, 0, '10', 10]"),
    ("cell-box-degenerate", _with(_table(), ("cells", 1, "box"), [10, 10, 20, 0]),
     "cells[1].box: degenerate box: BoundingBox(left=10, top=10, right=20, bottom=0)"),
    ("cell-span-missing", _with(_table(), ("cells", 1, "col_end"), _DROP),
     "bad table entry: 'col_end'"),
    ("cell-row-span-backwards", _with(_table(), ("cells", 0, "row_start"), 1),
     "bad table entry: bad row span: 1..0"),
    ("cell-col-span-negative", _with(_table(), ("cells", 0, "col_start"), -1),
     "bad table entry: bad col span: -1..0"),
    ("n-rows-missing", _with(_table(), ("n_rows",), _DROP), "bad table entry: 'n_rows'"),
    ("n-cols-zero", _with(_table(), ("n_cols",), 0),
     "bad table entry: table needs at least one row and one column"),
    ("header-negative", _with(_table(), ("header_row_count",), -1),
     "bad table entry: negative header_row_count"),
    ("source-unknown", _with(_table(), ("source",), "ocr"),
     "bad table entry: source must be 'separator' or 'booktabs', got 'ocr'"),
    ("source-null", _with(_table(), ("source",), None),
     "bad table entry: source must be 'separator' or 'booktabs', got None"),
    ("grid-hole", _with(_table(), ("n_cols",), 3), "bad table entry: grid hole at (0, 2)"),
    ("grid-overlap", _with(_table(), ("cells", 1, "col_start"), 0),
     "bad table entry: overlapping cells at (0, 0)"),
    ("grid-outside", _with(_table(), ("cells", 1, "row_end"), 1),
     "bad table entry: cell span outside grid: Cell(box=BoundingBox(left=10, top=0, "
     "right=20, bottom=10), row_start=0, row_end=1, col_start=1, col_end=1, words=(), "
     "content='b')"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in TABLE_ERRORS],
                         ids=[c[0] for c in TABLE_ERRORS])
def test_recognized_table_error_messages(doc, message):
    with pytest.raises(LayoutError) as info:
        recognized_table_from_dict(doc)
    assert str(info.value) == message


PAGE_TABLES_ERRORS = [
    ("not-an-object", "doc", "page tables JSON must be an object"),
    ("file-id-missing", _with(_page_tables(), ("file_id",), _DROP),
     "bad page tables entry: 'file_id'"),
    ("page-nr-missing", _with(_page_tables(), ("page_nr",), _DROP),
     "bad page tables entry: 'page_nr'"),
    ("tables-not-a-list", _with(_page_tables(), ("tables",), 3),
     "bad page tables entry: tables must be a list, got 3"),
    ("tables-object", _with(_page_tables(), ("tables",), {"region": [0, 0, 20, 10]}),
     "bad page tables entry: tables must be a list, got {'region': [0, 0, 20, 10]}"),
    ("table-not-an-object", _with(_page_tables(), ("tables", 0), 3),
     "table entry must be an object"),
    ("table-error-passes-through", _with(_page_tables(), ("tables", 0, "cells", 1, "box"), [1]),
     "cells[1].box: box must be a list of 4 integers, got [1]"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in PAGE_TABLES_ERRORS],
                         ids=[c[0] for c in PAGE_TABLES_ERRORS])
def test_page_tables_error_messages(doc, message):
    with pytest.raises(LayoutError) as info:
        page_tables_from_dict(doc)
    assert str(info.value) == message


# Every integer field takes a JSON integer and every flag a JSON boolean.
# Each of these was once read through int() or bool(): 612.9 as 612, "1"
# as 1, true as a coordinate, and the string "false" as True.
STRICT_LAYOUT = [
    ("width-float", _with(_page(), ("page_width",), 612.9),
     "bad or missing page dimensions: page_width must be an integer, got 612.9"),
    ("height-bool", _with(_page(), ("page_height",), True),
     "bad or missing page dimensions: page_height must be an integer, got True"),
    ("height-string", _with(_page(), ("page_height",), "50"),
     "bad or missing page dimensions: page_height must be an integer, got '50'"),
    ("word-box-bool", _with(_page(), ("words", 0, "box"), [1, 1, True, 9]),
     "words[0]: box must be a list of 4 integers, got [1, 1, True, 9]"),
    ("word-line-id-bool", _with(_page(), ("words", 1, "line_id"), True),
     "words[1]: line_id must be an integer or null"),
    ("separator-box-bool", _with(_page(), ("separators", 1, "box"), [40, False, 42, 50]),
     "separators[1]: box must be a list of 4 integers, got [40, False, 42, 50]"),
    ("region-bool", _with(_page(), ("non_text_regions", 0), [False, 30, 60, 40]),
     "non_text_regions[0]: box must be a list of 4 integers, got [False, 30, 60, 40]"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in STRICT_LAYOUT],
                         ids=[c[0] for c in STRICT_LAYOUT])
def test_page_layout_takes_json_integers_only(doc, message):
    with pytest.raises(LayoutError) as info:
        page_layout_from_dict(doc)
    assert str(info.value) == message


STRICT_TABLE = [
    ("region-bool", _with(_table(), ("region",), [0, 0, 20, True]),
     "table.region: box must be a list of 4 integers, got [0, 0, 20, True]"),
    ("cell-box-bool", _with(_table(), ("cells", 0, "box"), [False, 0, 10, 10]),
     "cells[0].box: box must be a list of 4 integers, got [False, 0, 10, 10]"),
    ("row-start-string", _with(_table(), ("cells", 0, "row_start"), "0"),
     "bad table entry: cells[0].row_start must be an integer, got '0'"),
    ("row-end-float", _with(_table(), ("cells", 1, "row_end"), 0.9),
     "bad table entry: cells[1].row_end must be an integer, got 0.9"),
    ("col-start-bool", _with(_table(), ("cells", 1, "col_start"), True),
     "bad table entry: cells[1].col_start must be an integer, got True"),
    ("col-end-float", _with(_table(), ("cells", 0, "col_end"), 0.0),
     "bad table entry: cells[0].col_end must be an integer, got 0.0"),
    ("n-rows-float", _with(_table(), ("n_rows",), 1.0),
     "bad table entry: n_rows must be an integer, got 1.0"),
    ("n-cols-string", _with(_table(), ("n_cols",), "2"),
     "bad table entry: n_cols must be an integer, got '2'"),
    ("header-row-count-float", _with(_table(), ("header_row_count",), 0.9),
     "bad table entry: header_row_count must be an integer, got 0.9"),
    ("labeled-string", _with(_table(), ("labeled",), "false"),
     "bad table entry: labeled must be a boolean, got 'false'"),
    ("labeled-int", _with(_table(), ("labeled",), 1),
     "bad table entry: labeled must be a boolean, got 1"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in STRICT_TABLE],
                         ids=[c[0] for c in STRICT_TABLE])
def test_recognized_table_takes_json_integers_and_booleans_only(doc, message):
    with pytest.raises(LayoutError) as info:
        recognized_table_from_dict(doc)
    assert str(info.value) == message


STRICT_PAGE_TABLES = [
    ("page-nr-string", _with(_page_tables(), ("page_nr",), "1"),
     "bad page tables entry: page_nr must be an integer, got '1'"),
    ("page-nr-float", _with(_page_tables(), ("page_nr",), 1.5),
     "bad page tables entry: page_nr must be an integer, got 1.5"),
    ("expected-missed-string", _with(_page_tables(), ("tables", 0, "expected_missed"), "false"),
     "bad table entry: expected_missed must be a boolean, got 'false'"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in STRICT_PAGE_TABLES],
                         ids=[c[0] for c in STRICT_PAGE_TABLES])
def test_page_tables_take_json_integers_and_booleans_only(doc, message):
    with pytest.raises(LayoutError) as info:
        page_tables_from_dict(doc)
    assert str(info.value) == message


# Every string field takes a JSON string.  Each of these was once read
# through str(): "abc" as the diagnostics ['a', 'b', 'c'], null as 'None'
# and 7 as '7'.
STRICT_STRINGS = [
    ("table", "content-null", _with(_table(), ("cells", 1, "content"), None),
     "bad table entry: cells[1].content must be a string, got None"),
    ("table", "content-int", _with(_table(), ("cells", 0, "content"), 7),
     "bad table entry: cells[0].content must be a string, got 7"),
    ("page-tables", "file-id-int", _with(_page_tables(), ("file_id",), 7),
     "bad page tables entry: file_id must be a string, got 7"),
    ("page-tables", "orientation-null", _with(_page_tables(), ("orientation",), None),
     "bad page tables entry: orientation must be a string, got None"),
    ("page-tables", "orientation-sideways", _with(_page_tables(), ("orientation",), "sideways"),
     "bad page tables entry: orientation must be 'standard' or 'vertical', got 'sideways'"),
    ("page-tables", "diagnostics-string", _with(_page_tables(), ("diagnostics",), "abc"),
     "bad page tables entry: diagnostics must be a list, got 'abc'"),
    ("page-tables", "diagnostics-null", _with(_page_tables(), ("diagnostics",), None),
     "bad page tables entry: diagnostics must be a list, got None"),
    ("page-tables", "diagnostic-int", _with(_page_tables(), ("diagnostics",), ["ok", 3]),
     "bad page tables entry: diagnostics[1] must be a string, got 3"),
    ("page-tables", "table-content-passes-through",
     _with(_page_tables(), ("tables", 0, "cells", 0, "content"), ["a"]),
     "bad table entry: cells[0].content must be a string, got ['a']"),
]


@pytest.mark.parametrize("reader, doc, message", [(c[0], *c[2:]) for c in STRICT_STRINGS],
                         ids=[c[1] for c in STRICT_STRINGS])
def test_string_fields_take_json_strings_only(reader, doc, message):
    read = recognized_table_from_dict if reader == "table" else page_tables_from_dict
    with pytest.raises(LayoutError) as info:
        read(doc)
    assert str(info.value) == message


def test_plain_strings_still_read():
    doc = _with(_page_tables(), ("diagnostics",), ["dropped: no table label"])
    page = page_tables_from_dict(_with(doc, ("tables", 0, "cells", 0, "content"), ""))
    assert page.diagnostics == ["dropped: no table label"] and page.file_id == "doc"
    assert page.orientation == "standard" and page.tables[0].cells[0].content == ""
    bare = page_tables_from_dict(_with(_with(_page_tables(), ("orientation",), _DROP),
                                       ("diagnostics",), _DROP))
    assert bare.orientation == "standard" and bare.diagnostics == []
    table = recognized_table_from_dict(_with(_table(), ("cells", 1, "content"), _DROP))
    assert table.cells[1].content == ""


def test_plain_flags_and_integers_still_read():
    doc = _with(_page_tables(), ("tables", 0, "expected_missed"), True)
    assert page_tables_from_dict(doc).tables[0].expected_missed is True
    table = recognized_table_from_dict(_with(_table(), ("labeled",), False))
    assert table.labeled is False and table.header_row_count == 0
    layout = page_layout_from_dict(_with(_page(), ("words", 0, "line_id"), None))
    assert layout.words[0].line_id is None and layout.page_width == 100
