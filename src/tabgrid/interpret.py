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
import math
import re
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError, InvalidPattern
from .fields import FieldError, expect, keywords, known, load, must_be, one_of
from .kernels import levenshtein_codes
from .matching import Matching, WeightedBipartiteGraph, max_weight_matching
from .model import RecognizedTable, RowTuple, TableSource, TupleSet


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
        rules = (self.title_regex, self.content_regex, self.data_type)
        if not self.title_keywords and all(r is None for r in rules):  # "" is a rule
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
    return column_content_score([c.strip() for c in cells], DATA_TYPE_PATTERNS[data_type])


def affinity(column: ColumnView, m: MeaningConfig) -> AffinityScores:
    """Combined affinity per the weighted-max formula; absent rules score 0."""
    cells, title = column.body_cells, column.title
    s_c_rx = 0.0 if m.content_regex is None else column_content_score(cells, m.content_regex)
    s_c_dt = 0.0 if m.data_type is None else data_type_score(cells, m.data_type)
    s_t_rx = 0.0 if m.title_regex is None else regex_score(title, m.title_regex)
    s_t_kw = title_keyword_score(title, m.title_keywords) if m.title_keywords else 0.0
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
    """The tuples of the columns that the meanings are matched to."""
    _, matching = match_meanings(table, meanings)
    by_column = {ri: meanings[li].name for li, ri in matching.pairs}
    return tuple_set_of(table, by_column, file_id, page_nr, table_idx)


def tuple_set_of(
    table: RecognizedTable,
    meaning_of_col: dict[int, str],
    file_id: str = "",
    page_nr: int = 0,
    table_idx: int = 0,
) -> TupleSet:
    """One tuple per body row, numbered from 0, with the content of each column
    that ``meaning_of_col`` gives a meaning, in column order; none without one."""
    result = TupleSet(file_id=file_id, page_nr=page_nr, table_idx=table_idx)
    if meaning_of_col:
        columns = sorted(meaning_of_col.items())
        result.tuples.extend(
            RowTuple(row=i, values={name: row[j].content for j, name in columns})
            for i, row in enumerate(table.grid[header_row_count_for(table):])
        )
    return result


# ---------------------------------------------------------------------------
# rules config JSON


_MEANING_FIELDS = tuple(f.name for f in fields(MeaningConfig))
_REQUIRED_FIELDS = tuple(f.name for f in fields(MeaningConfig) if f.default is MISSING)
_DATA_TYPE_NAMES = tuple(t.value for t in DataType)


def _meaning_field(key: str, v: object, at: str) -> object:
    """The MeaningConfig argument of the field ``key`` of a meaning."""
    if key == "name":
        return expect(v, at, "string")
    if key == "title_keywords":
        return keywords(v, at, non_empty=True)
    if key == "data_type":
        return DataType(one_of(expect(v, at, "string").capitalize(), at, _DATA_TYPE_NAMES))
    if key in ("title_regex", "content_regex"):
        pattern = expect(v, at, "string")
        try:
            re.compile(pattern)
        except re.error as exc:
            raise InvalidPattern(f"{at} does not compile: {exc}") from exc
        return pattern
    return expect(v, at, "number")  # w_title, w_content, min_affinity


def _meaning_fields(entry: dict, where: str) -> tuple[dict, list[ConfigError]]:
    """The MeaningConfig arguments of one meaning object, and a fault for
    each field that cannot give its argument."""
    faults: list[ConfigError] = []
    try:
        known(entry, where, _MEANING_FIELDS)
    except FieldError as exc:
        faults.append(exc)
    kwargs: dict = {}
    for key in _MEANING_FIELDS:
        if key in _REQUIRED_FIELDS and key not in entry:
            faults.append(ConfigError(f"{where}.{key} is required"))
        elif key in _REQUIRED_FIELDS or entry.get(key) is not None:  # null leaves a rule out
            try:
                kwargs[key] = _meaning_field(key, entry[key], f"{where}.{key}")
            except ConfigError as exc:
                faults.append(exc)
    return kwargs, faults


def meanings_from_json(raw: object) -> list[MeaningConfig]:
    """Parse and validate a rules config; reports every violation at once,
    one per line.

    Accepts either a bare JSON array of meaning objects or an object
    with a ``"meanings"`` array.
    """
    if type(raw) is dict:
        known(raw, "", ("meanings",))
        raw = expect(raw.get("meanings"), "meanings", "list")
    elif type(raw) is not list:
        raise FieldError(must_be("rules config", "a list or an object", raw))
    faults: list[ConfigError] = []
    meanings: list[MeaningConfig] = []
    names = set()
    for i, entry in enumerate(raw):
        where = f"meanings[{i}]"
        if type(entry) is not dict:
            faults.append(FieldError(must_be(where, "an object", entry)))
            continue
        kwargs, found = _meaning_fields(entry, where)
        if not found:
            try:
                meanings.append(MeaningConfig(**kwargs))
            except ValueError as exc:
                found.append(ConfigError(f"{where}: {exc}"))
        name = kwargs.get("name")
        if name is not None and name in names:
            found.append(ConfigError(f"{where}: duplicate meaning name {name!r}"))
        names.add(name)
        faults += found
    if not faults and not meanings:
        faults.append(ConfigError("rules config defines no meanings"))
    if faults:
        cls = InvalidPattern if any(type(e) is InvalidPattern for e in faults) else ConfigError
        raise cls("\n".join(map(str, faults)))
    return meanings


def load_meanings(path: str | Path) -> list[MeaningConfig]:
    return meanings_from_json(load(path, "rules config"))


def meaning_to_dict(m: MeaningConfig) -> dict:
    """Every required field, and every rule that is not left out (None or ())."""
    out: dict = {}
    for key in _MEANING_FIELDS:
        v = getattr(m, key)
        if key in _REQUIRED_FIELDS or (v is not None and v != ()):
            out[key] = v.value if isinstance(v, DataType) else list(v) if type(v) is tuple else v
    return out
