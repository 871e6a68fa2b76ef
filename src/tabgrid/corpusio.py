"""File naming conventions and on-disk corpus formats.

Layout pages:        <FILE_ID>_page<NR>.json
Recognition output:  <FILE_ID>_page<NR>.json   (mirrors the layout name)
Tuple sets:          <FILE_ID>_page<NR>_table<IDX>.json

FILE_ID may itself contain underscores; names parse from the right.
All JSON is written as ``json.dumps(obj, sort_keys=True)`` plus a trailing
newline: one line of ASCII, so repeated runs produce byte-identical files.
The readers take any JSON layout, indented files included.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, LayoutError
from .fields import expect, one_of
from .model import (
    PageOrientation,
    RecognizedTable,
    RowTuple,
    TupleSet,
    recognized_table_from_dict,
    recognized_table_to_dict,
)

_LAYOUT_RE = re.compile(r"^(?P<fid>.+)_page(?P<page>\d+)\.json$")
_TUPLE_RE = re.compile(r"^(?P<fid>.+)_page(?P<page>\d+)_table(?P<idx>\d+)\.json$")
_TUPLE_BARE_RE = re.compile(r"^(?P<fid>.+)_(?P<page>\d+)_(?P<idx>\d+)\.json$")
_ORIENTATIONS = tuple(o.value for o in PageOrientation)


def format_layout_name(file_id: str, page_nr: int) -> str:
    return f"{file_id}_page{page_nr:02d}.json"


def parse_layout_name(name: str) -> tuple[str, int] | None:
    m = _LAYOUT_RE.match(name)
    if not m:
        return None
    return m.group("fid"), int(m.group("page"))


def format_tuple_name(file_id: str, page_nr: int, table_idx: int) -> str:
    return f"{file_id}_page{page_nr:02d}_table{table_idx}.json"


def parse_tuple_name(name: str) -> tuple[str, int, int] | None:
    m = _TUPLE_RE.match(name) or _TUPLE_BARE_RE.match(name)
    if not m:
        return None
    return m.group("fid"), int(m.group("page")), int(m.group("idx"))


def dump_json(path: Path, obj: object) -> None:
    # json's C encoder; ASCII escapes, and bytes keep "\n" on every platform
    path.write_bytes((json.dumps(obj, sort_keys=True) + "\n").encode("ascii"))


def read_json(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class PageTables:
    """One page's recognized (or ground-truth) tables."""

    file_id: str
    page_nr: int
    tables: list[RecognizedTable] = field(default_factory=list)
    orientation: str = PageOrientation.STANDARD.value
    diagnostics: list[str] = field(default_factory=list)


def page_tables_to_dict(doc: PageTables) -> dict:
    return {
        "file_id": doc.file_id,
        "page_nr": doc.page_nr,
        "orientation": doc.orientation,
        "tables": [recognized_table_to_dict(t) for t in doc.tables],
        "diagnostics": list(doc.diagnostics),
    }


def page_tables_from_dict(d: dict) -> PageTables:
    if not isinstance(d, dict):
        raise LayoutError("page tables JSON must be an object")
    try:
        raw_tables = expect(d.get("tables", []), "tables", "list")
        tables = [recognized_table_from_dict(t) for t in raw_tables]
        diagnostics = expect(d.get("diagnostics", []), "diagnostics", "list")
        return PageTables(
            file_id=expect(d["file_id"], "file_id", "string"),
            page_nr=expect(d["page_nr"], "page_nr", "integer"),
            tables=tables,
            orientation=one_of(
                expect(d.get("orientation", PageTables.orientation), "orientation", "string"),
                "orientation", _ORIENTATIONS,
            ),
            diagnostics=[
                expect(x, f"diagnostics[{i}]", "string") for i, x in enumerate(diagnostics)
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"bad page tables entry: {exc}") from exc


def tuple_set_to_dict(ts: TupleSet) -> dict:
    return {
        "file_id": ts.file_id,
        "page_nr": ts.page_nr,
        "table_idx": ts.table_idx,
        "tuples": [{"row": t.row, "values": dict(t.values)} for t in ts.tuples],
    }


def tuple_set_from_dict(d: dict) -> TupleSet:
    if not isinstance(d, dict):
        raise ConfigError("tuple set JSON must be an object")
    try:
        tuples = []
        for i, t in enumerate(expect(d.get("tuples", []), "tuples", "list")):
            if type(t) is not dict:
                expect(t, f"tuples[{i}]", "object")
            row, values = t["row"], t["values"]
            if type(row) is not int or type(values) is not dict:
                expect(row, f"tuples[{i}].row", "integer")
                expect(values, f"tuples[{i}].values", "object")
            for k, v in values.items():
                if type(k) is not str or type(v) is not str:
                    expect(k, f"tuples[{i}].values key", "string")
                    expect(v, f"tuples[{i}].values[{k!r}]", "string")
            tuples.append(RowTuple(row=row, values=values))
        return TupleSet(
            file_id=expect(d["file_id"], "file_id", "string"),
            page_nr=expect(d["page_nr"], "page_nr", "integer"),
            table_idx=expect(d["table_idx"], "table_idx", "integer"),
            tuples=tuples,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad tuple set entry: {exc}") from exc


def write_tuple_set(out_dir: Path, ts: TupleSet) -> Path:
    path = out_dir / format_tuple_name(ts.file_id, ts.page_nr, ts.table_idx)
    dump_json(path, tuple_set_to_dict(ts))
    return path
