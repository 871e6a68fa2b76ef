"""Assign configured meanings to table columns and extract row tuples.

Every (column, meaning) pair gets an affinity blending content evidence
(regex or data-type match rate over body cells) with title evidence
(fuzzy keyword similarity or regex), weighted per meaning:

    S = (w_c * max(S_c_rx, S_c_dt) + w_t * max(S_t_rx, S_t_kw)) / (w_c + w_t)

Pairs under the meaning's affinity floor are pruned; the survivors form
a bipartite graph solved by maximum-weight matching, so each meaning
lands on at most one column and vice versa.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InvalidPattern
from .kernels import levenshtein_codes
from .matching import Matching, WeightedBipartiteGraph, max_weight_matching
from .model import RecognizedTable, TableSource, json_float, json_int, json_str


class DataType(enum.Enum):
    INTEGER = "Integer"
    REAL = "Real"
    DATE = "Date"
    TEXT = "Text"


DATA_TYPE_PATTERNS: dict[DataType, str] = {
    DataType.INTEGER: r"^[+-]?\d+$",
    DataType.REAL: r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$",
    DataType.DATE: r"^(?:\d{4}-\d{2}-\d{2}|\d{1,2}[./-]\d{1,2}[./-]\d{2,4})$",
    DataType.TEXT: r"^.+$",
}


@dataclass(frozen=True)
class MeaningConfig:
    name: str
    w_title: float
    w_content: float
    min_affinity: float
    title_keywords: tuple[str, ...] = ()
    title_regex: str | None = None
    content_regex: str | None = None
    data_type: DataType | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("meaning name must be non-empty")
        weights = (self.w_title, self.w_content)
        if not (all(0 <= w < math.inf for w in weights) and sum(weights) > 0):  # NaN fails too
            raise ValueError(
                f"{self.name}: weights must be finite and non-negative with a positive sum"
            )
        if not (0.0 <= self.min_affinity <= 1.0):
            raise ValueError(f"{self.name}: min_affinity must lie in [0, 1]")
        if not (
            self.title_keywords or self.title_regex or self.content_regex or self.data_type
        ):
            raise ValueError(f"{self.name}: at least one rule is required")


@dataclass(frozen=True)
class ColumnView:
    index: int
    title: str
    body_cells: tuple[str, ...]


@dataclass(frozen=True)
class AffinityScores:
    content_regex: float
    content_dtype: float
    title_regex: float
    title_keyword: float
    combined: float


@dataclass
class RowTuple:
    row: int
    values: dict[str, str] = field(default_factory=dict)


@dataclass
class TupleSet:
    file_id: str
    page_nr: int
    table_idx: int
    tuples: list[RowTuple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# similarity scores


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode code points."""
    return levenshtein_codes(a, b)


def _normalize(s: str) -> str:
    return " ".join(s.split()).lower()


def fuzzy_similarity(a: str, b: str) -> float:
    """1 - distance / max length, case- and whitespace-insensitive."""
    na, nb = _normalize(a), _normalize(b)
    longest = max(len(na), len(nb))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(na, nb) / longest


def title_keyword_score(title: str, keywords: list[str] | tuple[str, ...]) -> float:
    if not keywords:
        raise ValueError("title_keyword_score needs at least one keyword")
    return max(fuzzy_similarity(title, k) for k in keywords)


def regex_score(text: str, pattern: str) -> float:
    """1.0 when the pattern is found (unanchored search), else 0.0."""
    return 1.0 if re.search(pattern, text) else 0.0


def column_content_score(cells: list[str] | tuple[str, ...], pattern: str) -> float:
    if not cells:
        return 0.0
    return sum(regex_score(c, pattern) for c in cells) / len(cells)


def data_type_score(cells: list[str] | tuple[str, ...], data_type: DataType) -> float:
    pattern = DATA_TYPE_PATTERNS[data_type]
    if not cells:
        return 0.0
    return sum(regex_score(c.strip(), pattern) for c in cells) / len(cells)


def affinity(column: ColumnView, m: MeaningConfig) -> AffinityScores:
    """Combined affinity per the weighted-max formula; absent rules score 0."""
    s_c_rx = column_content_score(column.body_cells, m.content_regex) if m.content_regex else 0.0
    s_c_dt = data_type_score(column.body_cells, m.data_type) if m.data_type else 0.0
    s_t_rx = regex_score(column.title, m.title_regex) if m.title_regex else 0.0
    s_t_kw = title_keyword_score(column.title, m.title_keywords) if m.title_keywords else 0.0
    combined = (m.w_content * max(s_c_rx, s_c_dt) + m.w_title * max(s_t_rx, s_t_kw)) / (
        m.w_content + m.w_title
    )
    return AffinityScores(
        content_regex=s_c_rx,
        content_dtype=s_c_dt,
        title_regex=s_t_rx,
        title_keyword=s_t_kw,
        combined=combined,
    )


# ---------------------------------------------------------------------------
# column views and table interpretation


def header_row_count_for(table: RecognizedTable) -> int:
    """Booktabs grids carry their own header depth; ruled grids use row 0."""
    if table.source is TableSource.BOOKTABS:
        return min(max(table.header_row_count, 1), table.n_rows)
    return min(1, table.n_rows)


def column_views(table: RecognizedTable) -> list[ColumnView]:
    grid = table.grid
    n_header = header_row_count_for(table)
    views = []
    for j in range(table.n_cols):
        header_cells = []
        for r in range(n_header):
            c = grid[r][j]
            if c not in header_cells:  # a spanning cell titles every column once
                header_cells.append(c)
        title = " ".join(c.content for c in header_cells if c.content).strip()
        body = tuple(grid[r][j].content for r in range(n_header, table.n_rows))
        views.append(ColumnView(index=j, title=title, body_cells=body))
    return views


def match_meanings(
    table: RecognizedTable, meanings: list[MeaningConfig] | tuple[MeaningConfig, ...]
) -> tuple[list[ColumnView], Matching]:
    views = column_views(table)
    edges = []
    for mi, m in enumerate(meanings):
        for cv in views:
            s = affinity(cv, m).combined
            if s >= m.min_affinity:
                edges.append((mi, cv.index, s))
    graph = WeightedBipartiteGraph(
        n_left=len(meanings), n_right=table.n_cols, edges=tuple(edges)
    )
    return views, max_weight_matching(graph)


def interpret_table(
    table: RecognizedTable,
    meanings: list[MeaningConfig] | tuple[MeaningConfig, ...],
    file_id: str = "",
    page_nr: int = 0,
    table_idx: int = 0,
) -> TupleSet:
    """One tuple per body row with the matched meanings' cell strings."""
    views, matching = match_meanings(table, meanings)
    return tuples_from_matching(
        table, meanings, views, matching, file_id, page_nr, table_idx
    )


def tuples_from_matching(
    table: RecognizedTable,
    meanings: list[MeaningConfig] | tuple[MeaningConfig, ...],
    views: list[ColumnView],
    matching: Matching,
    file_id: str = "",
    page_nr: int = 0,
    table_idx: int = 0,
) -> TupleSet:
    """The tuple set of ``interpret_table`` from an existing ``match_meanings`` result."""
    result = TupleSet(file_id=file_id, page_nr=page_nr, table_idx=table_idx)
    if not matching.pairs:
        return result
    by_column = {ri: meanings[li].name for li, ri in matching.pairs}
    n_body = table.n_rows - header_row_count_for(table)
    for i in range(n_body):
        values = {}
        for cv in views:
            name = by_column.get(cv.index)
            if name is not None:
                values[name] = cv.body_cells[i]
        result.tuples.append(RowTuple(row=i, values=values))
    return result


# ---------------------------------------------------------------------------
# rules config JSON


_MEANING_KEYS = {
    "name",
    "title_keywords",
    "title_regex",
    "content_regex",
    "data_type",
    "w_title",
    "w_content",
    "min_affinity",
}


def meanings_from_json(raw: object) -> list[MeaningConfig]:
    """Parse and validate a rules config; reports every violation at once.

    Accepts either a bare JSON array of meaning objects or an object
    with a ``"meanings"`` array.
    """
    if isinstance(raw, dict) and isinstance(raw.get("meanings"), list):
        raw = raw["meanings"]
    if not isinstance(raw, list):
        raise ConfigError(
            "rules config must be a JSON array of meaning objects"
            " (or an object with a 'meanings' array)"
        )
    errors: list[str] = []
    pattern_error = False
    meanings: list[MeaningConfig] = []
    names = set()
    for i, entry in enumerate(raw):
        where = f"meanings[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        unknown = sorted(set(entry) - _MEANING_KEYS)
        if unknown:
            errors.append(f"{where}: unknown keys: {', '.join(unknown)}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: name must be a non-empty string")
            name = f"<{i}>"
        if name in names:
            errors.append(f"{where}: duplicate meaning name {name!r}")
        names.add(name)

        kwargs: dict = {"name": name}
        ok = True
        for key in ("w_title", "w_content", "min_affinity"):
            v = entry.get(key)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                kwargs[key] = json_float(v)
            elif key not in entry:
                errors.append(f"{where}: {key} is required")
                ok = False
            else:
                errors.append(f"{where}: {key} must be a number")
                ok = False

        kws = entry.get("title_keywords")
        if kws is not None:
            if isinstance(kws, list) and all(isinstance(k, str) and k for k in kws) and kws:
                kwargs["title_keywords"] = tuple(kws)
            else:
                errors.append(f"{where}: title_keywords must be a non-empty list of strings")
                ok = False
        for key in ("title_regex", "content_regex"):
            pat = entry.get(key)
            if pat is None:
                continue
            if not isinstance(pat, str):
                errors.append(f"{where}: {key} must be a string")
                ok = False
                continue
            try:
                re.compile(pat)
                kwargs[key] = pat
            except re.error as exc:
                errors.append(f"{where}: {key} does not compile: {exc}")
                pattern_error = True
                ok = False
        dt = entry.get("data_type")
        if dt is not None:
            try:
                kwargs["data_type"] = DataType(str(dt).capitalize())
            except ValueError:
                allowed = ", ".join(t.value for t in DataType)
                errors.append(f"{where}: data_type must be one of {allowed}")
                ok = False
        if not ok:
            continue
        try:
            meanings.append(MeaningConfig(**kwargs))
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
    if not errors and not meanings:
        errors.append("rules config defines no meanings")
    if errors:
        cls = InvalidPattern if pattern_error else ConfigError
        raise cls("\n".join(errors))
    return meanings


def load_meanings(path: str | Path) -> list[MeaningConfig]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read rules config {path}: {exc}") from exc
    return meanings_from_json(raw)


def meaning_to_dict(m: MeaningConfig) -> dict:
    out: dict = {
        "name": m.name,
        "w_title": m.w_title,
        "w_content": m.w_content,
        "min_affinity": m.min_affinity,
    }
    if m.title_keywords:
        out["title_keywords"] = list(m.title_keywords)
    if m.title_regex is not None:
        out["title_regex"] = m.title_regex
    if m.content_regex is not None:
        out["content_regex"] = m.content_regex
    if m.data_type is not None:
        out["data_type"] = m.data_type.value
    return out


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
        for i, t in enumerate(d.get("tuples", [])):
            row = json_int(t["row"], f"tuples[{i}].row")
            values = dict(t["values"].items())  # not dict(): it takes a list of pairs
            for k, v in values.items():
                if type(k) is not str or type(v) is not str:
                    json_str(k, f"tuples[{i}].values key")
                    json_str(v, f"tuples[{i}].values[{k!r}]")
            tuples.append(RowTuple(row=row, values=values))
        return TupleSet(
            file_id=json_str(d["file_id"], "file_id"),
            page_nr=json_int(d["page_nr"], "page_nr"),
            table_idx=json_int(d["table_idx"], "table_idx"),
            tuples=tuples,
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad tuple set entry: {exc}") from exc
