"""File naming conventions and on-disk corpus formats.

Layout pages:        <FILE_ID>_page<NR>.json
Recognition output:  <FILE_ID>_page<NR>.json   (mirrors the layout name)
Tuple sets:          <FILE_ID>_page<NR>_table<IDX>.json

FILE_ID may itself contain underscores; names parse from the right.
All JSON is written as ``json.dumps(obj, indent=2, sort_keys=True)`` plus
a trailing newline, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import LayoutError
from .interpret import TupleSet, tuple_set_from_dict, tuple_set_to_dict
from .model import (
    RecognizedTable,
    json_bool,
    json_int,
    json_str,
    recognized_table_from_dict,
    recognized_table_to_dict,
)

_LAYOUT_RE = re.compile(r"^(?P<fid>.+)_page(?P<page>\d+)\.json$")
_TUPLE_RE = re.compile(r"^(?P<fid>.+)_page(?P<page>\d+)_table(?P<idx>\d+)\.json$")
_TUPLE_BARE_RE = re.compile(r"^(?P<fid>.+)_(?P<page>\d+)_(?P<idx>\d+)\.json$")


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


_INF = float("inf")
_INTS = {int}


def _encode(o: object, out: list[str], pad: str) -> None:
    """Append o as ``json.dumps(o, indent=2, sort_keys=True)`` writes it.

    ``indent`` makes ``json`` use its pure-Python encoder; this walk writes
    the same bytes with less work.  pad is a newline and the indentation of
    the enclosing line.  Only dict (with str keys), list, tuple, str, int,
    float, bool and None are written, each by its exact type, so ``True``
    stays ``true``; anything else raises TypeError.
    """
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(o):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            v = o[k]
            tv = type(v)
            if tv is str:
                out.append(sep + _quote(k) + ": " + _quote(v))
            elif tv is int:
                out.append(sep + _quote(k) + ": " + int.__repr__(v))
            else:
                out.append(sep + _quote(k) + ": ")
                _encode(v, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, o)) == _INTS:  # a box, say: one join
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + pad + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _encode(v, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif t is float:
        # json's own spelling of the non-finite floats
        if o != o:
            out.append("NaN")
        elif o == _INF:
            out.append("Infinity")
        elif o == -_INF:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(o))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dump_json(path: Path, obj: object) -> None:
    out: list[str] = []
    _encode(obj, out, "\n")
    out.append("\n")
    # the escaper leaves only ASCII, and bytes keep "\n" on every platform
    path.write_bytes("".join(out).encode("ascii"))


def read_json(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class PageTables:
    """One page's recognized (or ground-truth) tables."""

    file_id: str
    page_nr: int
    tables: list[RecognizedTable] = field(default_factory=list)
    orientation: str = "standard"
    diagnostics: list[str] = field(default_factory=list)
    # parallel to tables; fixture ground truth marks tables a
    # label-requiring configuration is expected to skip
    expected_missed: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.expected_missed:
            self.expected_missed = [False] * len(self.tables)


def page_tables_to_dict(doc: PageTables) -> dict:
    tables = []
    for t, missed in zip(doc.tables, doc.expected_missed):
        entry = recognized_table_to_dict(t)
        if missed:
            entry["expected_missed"] = True
        tables.append(entry)
    return {
        "file_id": doc.file_id,
        "page_nr": doc.page_nr,
        "orientation": doc.orientation,
        "tables": tables,
        "diagnostics": list(doc.diagnostics),
    }


def page_tables_from_dict(d: dict) -> PageTables:
    if not isinstance(d, dict):
        raise LayoutError("page tables JSON must be an object")
    try:
        raw_tables = d.get("tables", [])
        tables = [recognized_table_from_dict(t) for t in raw_tables]
        missed = [
            json_bool(t.get("expected_missed", False), f"tables[{i}].expected_missed")
            for i, t in enumerate(raw_tables)
        ]
        diagnostics = d.get("diagnostics", [])
        if type(diagnostics) is not list:
            raise ValueError(f"diagnostics must be a list, got {diagnostics!r}")
        return PageTables(
            file_id=json_str(d["file_id"], "file_id"),
            page_nr=json_int(d["page_nr"], "page_nr"),
            tables=tables,
            orientation=json_str(d.get("orientation", "standard"), "orientation"),
            diagnostics=[json_str(x, f"diagnostics[{i}]") for i, x in enumerate(diagnostics)],
            expected_missed=missed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"bad page tables entry: {exc}") from exc


def write_tuple_set(out_dir: Path, ts: TupleSet) -> Path:
    path = out_dir / format_tuple_name(ts.file_id, ts.page_nr, ts.table_idx)
    dump_json(path, tuple_set_to_dict(ts))
    return path


def read_tuple_set(path: Path) -> TupleSet:
    return tuple_set_from_dict(read_json(path))
