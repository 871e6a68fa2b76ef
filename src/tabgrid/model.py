"""Core data model: pages, words, separators, cells, recognized tables, tuple sets.

All geometry is integer pixels with exclusive right/bottom edges.  JSON
ingestion clamps every box to the page rectangle, strips control
characters from word text, and rejects separators whose box shape
contradicts their declared orientation.  Integer fields take JSON
integers only and flags JSON booleans only.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import NoReturn

from .dsu import linked_groups
from .errors import ConfigError, LayoutError
from .fields import expect, keywords, known, load, must_be, one_of
from .geometry import BoundingBox, transpose_box, union_box

DEFAULT_LABEL_KEYWORDS = ("table", "tab.")


class SeparatorOrientation(enum.Enum):
    HORIZONTAL = "h"
    VERTICAL = "v"


@dataclass(frozen=True)
class Word:
    box: BoundingBox
    text: str
    line_id: int | None = None


@dataclass(frozen=True)
class Separator:
    box: BoundingBox
    orientation: SeparatorOrientation

    def __post_init__(self) -> None:
        if self.orientation is SeparatorOrientation.HORIZONTAL:
            if self.box.width < self.box.height:
                raise ValueError(f"horizontal separator taller than wide: {self.box}")
        else:
            if self.box.height < self.box.width:
                raise ValueError(f"vertical separator wider than tall: {self.box}")


@dataclass(frozen=True)
class PageLayout:
    page_width: int
    page_height: int
    words: tuple[Word, ...]
    separators: tuple[Separator, ...]
    non_text_regions: tuple[BoundingBox, ...] = ()

    @cached_property
    def word_index(self) -> WordIndex:
        """The page's words indexed by y, built on first use."""
        return WordIndex(self.words)


class WordIndex:
    """One page's words sorted by y, so a region asks only for its own rows.

    Every query returns words in page order, which keeps cell contents
    and tie-breaks the same as a scan over ``PageLayout.words``.
    """

    def __init__(self, words: tuple[Word, ...]) -> None:
        self.words = words
        tops = [w.box.top for w in words]
        self._by_top = sorted(range(len(words)), key=tops.__getitem__)
        self._tops = [tops[i] for i in self._by_top]
        self._max_height = max((w.box.height for w in words), default=0)

    def centered(self, top: int, bottom: int) -> list[Word]:
        """Words whose box center y lies in [top, bottom), all ``touching``
        words; the doubled center y, box.top + box.bottom, is an integer."""
        touching = self.touching(top, bottom)
        return [w for w in touching if 2 * top <= w.box.top + w.box.bottom < 2 * bottom]

    def touching(self, top: int, bottom: int) -> list[Word]:
        """Words whose rows [box.top, box.bottom] meet [top, bottom]."""
        lo = bisect_left(self._tops, top - self._max_height)
        hi = bisect_right(self._tops, bottom)
        words = self.words
        hits = [i for i in self._by_top[lo:hi] if words[i].box.bottom >= top]
        return [words[i] for i in sorted(hits)]

    @cached_property
    def d_page(self) -> float | None:
        """Median of (horizontal gap / mean pair height) over horizontally
        adjacent words on one line, or None when the page has no such pair.

        Lines come from ``line_id`` when any word has one (words without
        one are then left out), else from ``reconstruct_lines``.
        """
        import statistics  # and with it fractions and decimal; only this needs them

        with_ids = [w for w in self.words if w.line_id is not None]
        if with_ids:
            by_line: dict[int, list[Word]] = {}
            for w in with_ids:
                by_line.setdefault(w.line_id, []).append(w)
            lines = [by_line[k] for k in sorted(by_line)]
        else:
            lines = reconstruct_lines(list(self.words))

        units = []
        for line in lines:
            line = sorted(line, key=lambda w: (w.box.left, w.box.top))
            for prev, nxt in zip(line, line[1:]):
                mean_h = (prev.box.height + nxt.box.height) / 2.0
                if mean_h <= 0:
                    continue
                gap = max(0, nxt.box.left - prev.box.right)
                units.append(gap / mean_h)
        return statistics.median(units) if units else None


def reconstruct_lines(words: list[Word]) -> list[list[Word]]:
    """Chain words whose vertical overlap is positive and covers half the
    smaller box, in one sweep down the page (``linked_groups``).  Lines
    keep page order inside and are sorted by their topmost word."""
    def same_line(upper: BoundingBox, lower: BoundingBox) -> bool:
        overlap = min(upper.bottom, lower.bottom) - lower.top  # lower.top >= upper.top
        return overlap > 0 and overlap >= 0.5 * min(upper.height, lower.height)

    lines = [[words[i] for i in g] for g in linked_groups([w.box for w in words], same_line)]
    lines.sort(key=lambda ws: min(w.box.top for w in ws))
    return lines


class TableSource(enum.Enum):
    SEPARATOR = "separator"
    BOOKTABS = "booktabs"


class PageOrientation(enum.Enum):
    STANDARD = "standard"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class Cell:
    box: BoundingBox
    row_start: int
    row_end: int
    col_start: int
    col_end: int
    words: tuple[Word, ...] = ()
    content: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.row_start <= self.row_end):
            raise ValueError(f"bad row span: {self.row_start}..{self.row_end}")
        if not (0 <= self.col_start <= self.col_end):
            raise ValueError(f"bad col span: {self.col_start}..{self.col_end}")


def join_words(words: list[Word] | tuple[Word, ...]) -> str:
    """Single-space join, left-to-right within a line, lines top-down."""
    ordered = sorted(words, key=lambda w: (w.box.top, w.box.left, w.box.right))
    return " ".join(w.text for w in ordered if w.text)


@dataclass(frozen=True)
class RecognizedTable:
    region: BoundingBox
    n_rows: int
    n_cols: int
    cells: tuple[Cell, ...]
    labeled: bool
    source: TableSource
    header_row_count: int = 0
    # fixture ground truth marks a table a label-requiring config is
    # expected to skip; scores count it neither way
    expected_missed: bool = False

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("table needs at least one row and one column")
        if self.header_row_count < 0:
            raise ValueError("negative header_row_count")

    @cached_property
    def grid(self) -> list[list[Cell]]:
        """``cell_grid(self)``, built on first use and then kept.

        It is not a field, so equality and ``replace`` ignore it.  While the
        cells do not tile the grid, every use raises ValueError.
        """
        return cell_grid(self)


def grid_is_tiled(table: RecognizedTable) -> bool:
    """True iff the cells' index spans cover the grid exactly once."""
    try:
        cell_grid(table)
    except ValueError:
        return False
    return True


def cell_grid(table: RecognizedTable) -> list[list[Cell]]:
    """Position -> covering cell lookup; raises on holes or overlap."""
    grid: list[list[Cell | None]] = [[None] * table.n_cols for _ in range(table.n_rows)]
    for c in table.cells:
        if c.row_end >= table.n_rows or c.col_end >= table.n_cols:
            raise ValueError(f"cell span outside grid: {c}")
        for r in range(c.row_start, c.row_end + 1):
            for j in range(c.col_start, c.col_end + 1):
                if grid[r][j] is not None:
                    raise ValueError(f"overlapping cells at ({r}, {j})")
                grid[r][j] = c
    for r in range(table.n_rows):
        for j in range(table.n_cols):
            if grid[r][j] is None:
                raise ValueError(f"grid hole at ({r}, {j})")
    return grid  # type: ignore[return-value]


def assign_words_to_cells(
    spans: list[tuple[int, int, int, int]],
    words: list[Word] | tuple[Word, ...],
    row_borders: list[int] | tuple[int, ...],
    col_borders: list[int] | tuple[int, ...],
) -> list[Cell]:
    """One cell per span ``(row_start, row_end, col_start, col_end)`` over
    the increasing borders, holding the words whose box center it
    contains, in the order given.

    The spans tile the grid: an owner grid maps each slot to its span,
    and each word center is bisected once into the borders.  A word whose
    slot no span covers, or that lies outside the borders, is dropped.
    """
    rb, cb = row_borders, col_borders
    n_rows, n_cols = len(rb) - 1, len(cb) - 1
    owner: list[list[int | None]] = [[None] * n_cols for _ in range(n_rows)]
    for k, (rs, re_, cs, ce) in enumerate(spans):
        for i in range(rs, re_ + 1):
            owner[i][cs : ce + 1] = [k] * (ce + 1 - cs)

    mine: list[list[Word]] = [[] for _ in spans]
    for w in words:
        x, y = w.box.center
        # slot (i, j) is [rb[i], rb[i + 1]) x [cb[j], cb[j + 1]), half-open like cells
        i = bisect_right(rb, y) - 1
        j = bisect_right(cb, x) - 1
        if 0 <= i < n_rows and 0 <= j < n_cols and owner[i][j] is not None:
            mine[owner[i][j]].append(w)
    return [
        Cell(
            BoundingBox(cb[cs], rb[rs], cb[ce + 1], rb[re_ + 1]),
            rs, re_, cs, ce, tuple(ws), join_words(ws),
        )
        for (rs, re_, cs, ce), ws in zip(spans, mine)
    ]


def column_runs(n_cols: int, joined: set[int]) -> list[tuple[int, int]]:
    """Maximal runs ``(first, last)`` of the columns ``0 .. n_cols - 1``;
    column ``j + 1`` continues the run of column ``j`` iff ``j`` is in ``joined``."""
    runs = []
    first = 0
    for j in range(n_cols):
        if j + 1 == n_cols or j not in joined:
            runs.append((first, j))
            first = j + 1
    return runs


def grid_spans(
    n_rows: int, n_cols: int, joined: list[set[int]], continues: Callable = lambda i, run: False
) -> list[tuple[int, int, int, int]]:
    """The cells ``(row_start, row_end, col_start, col_end)`` that the slots of
    an ``n_rows`` x ``n_cols`` grid join into, in order of their top-left slot.
    Row ``i`` splits into the ``column_runs`` of ``joined[i]`` (rows past its
    end into single columns); a run's cell grows into row ``i + 1`` while that
    row has the same run and ``continues(i, run)``, so every cell is a rectangle."""
    spans: list[tuple[int, int, int, int]] = []
    above: dict[tuple[int, int], int] = {}  # each run of the row above -> its cell in spans
    for i in range(n_rows):
        here = {}
        for cs, ce in column_runs(n_cols, joined[i] if i < len(joined) else set()):
            k = above.get((cs, ce))
            if k is not None and continues(i - 1, (cs, ce)):
                spans[k] = (spans[k][0], i, cs, ce)
            else:
                k = len(spans)
                spans.append((i, i, cs, ce))
            here[(cs, ce)] = k
        above = here
    return spans


def grid_table(
    cells: list[Cell], source: TableSource, labeled: bool = False, header_row_count: int = 0
) -> RecognizedTable:
    """The table that ``cells`` tile: its region is their hull, and it has
    as many rows and columns as their largest indices give."""
    return RecognizedTable(
        region=union_box([c.box for c in cells]),
        n_rows=max(c.row_end for c in cells) + 1,
        n_cols=max(c.col_end for c in cells) + 1,
        cells=tuple(cells),
        labeled=labeled,
        source=source,
        header_row_count=header_row_count,
    )


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


@dataclass(frozen=True)
class RecognizerConfig:
    gamma: float = 2.0
    require_labels_separator: bool = False
    require_labels_booktabs: bool = False
    label_keywords: tuple[str, ...] = DEFAULT_LABEL_KEYWORDS
    separator_expand_px: int = 5
    label_search_margin_px: int = 50

    def __post_init__(self) -> None:
        if not 0 < self.gamma < math.inf:  # NaN fails too
            raise ValueError("gamma must be positive and finite")
        if self.separator_expand_px < 0 or self.label_search_margin_px < 0:
            raise ValueError("pixel margins must be non-negative")
        if (self.require_labels_separator or self.require_labels_booktabs) and not self.label_keywords:
            raise ValueError("label keywords required when labels are required")


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _valid_box(v: object, width: int = 0, height: int = 0) -> BoundingBox | None:
    """The box of a list of four plain ints with left <= right and top <= bottom,
    clipped to the page when a page width is given; None for anything else,
    which ``_reject_box`` then reports."""
    if type(v) is list and len(v) == 4:
        left, top, right, bottom = v
        if (
            type(left) is int
            and type(top) is int
            and type(right) is int
            and type(bottom) is int
            and left <= right
            and top <= bottom
        ):
            if width:
                left = 0 if left < 0 else width if left > width else left
                top = 0 if top < 0 else height if top > height else top
                right = left if right < left else width if right > width else right
                bottom = top if bottom < top else height if bottom > height else bottom
            return BoundingBox(left, top, right, bottom)
    return None


def _reject_box(v: object, where: str) -> NoReturn:
    """Raise the LayoutError for a box ``_valid_box`` turned down."""
    if type(v) is list and len(v) == 4 and all(type(x) is int for x in v):
        try:
            BoundingBox(*v)
        except ValueError as exc:
            raise LayoutError(f"{where}: {exc}") from exc
    raise LayoutError(f"{where}: {must_be('box', 'a list of 4 integers', v)}")


def _json_list(d: dict, key: str) -> list:
    """d[key] if it is a JSON array, [] if the key is absent; else LayoutError."""
    v = d.get(key, [])
    if type(v) is not list:
        raise LayoutError(must_be(key, "a list", v))
    return v


def _strip_control(text: str) -> str:
    return "".join(ch for ch in text if ord(ch) >= 32 and ord(ch) != 127)


def page_layout_from_dict(d: dict) -> PageLayout:
    """Read a layout, building each box once.

    The checks run on plain values first; a location string such as
    ``words[3]`` is built only on the way to an error.
    """
    if not isinstance(d, dict):
        raise LayoutError("layout JSON must be an object")
    try:
        width = expect(d["page_width"], "page_width", "integer")
        height = expect(d["page_height"], "page_height", "integer")
    except (KeyError, ValueError) as exc:
        raise LayoutError(f"bad or missing page dimensions: {exc}") from exc
    if width <= 0 or height <= 0:
        raise LayoutError("page dimensions must be positive")

    words = []
    for i, w in enumerate(_json_list(d, "words")):
        if not isinstance(w, dict):
            raise LayoutError(f"words[{i}]: must be an object")
        v = w.get("box")
        b = _valid_box(v, width, height) or _reject_box(v, f"words[{i}]")
        text = w.get("text")
        if not isinstance(text, str):
            raise LayoutError(f"words[{i}]: text must be a string")
        line_id = w.get("line_id")
        if line_id is not None and (not isinstance(line_id, int) or type(line_id) is bool):
            raise LayoutError(f"words[{i}]: line_id must be an integer or null")
        # every code point below 32, and 127, is non-printable
        words.append(Word(b, text if text.isprintable() else _strip_control(text), line_id))

    separators = []
    for i, s in enumerate(_json_list(d, "separators")):
        where = f"separators[{i}]"  # a few per page, unlike words
        if not isinstance(s, dict):
            raise LayoutError(f"{where}: must be an object")
        v = s.get("box")
        b = _valid_box(v, width, height) or _reject_box(v, where)
        kind = s.get("orientation")
        if kind not in ("h", "v"):
            raise LayoutError(f"{where}: orientation must be 'h' or 'v'")
        orientation = SeparatorOrientation(kind)
        try:
            separators.append(Separator(b, orientation))
        except ValueError as exc:
            try:
                Separator(_valid_box(v), orientation)
            except ValueError:
                raise LayoutError(f"{where}: {exc}") from exc
            # right-shaped as given, clipped at the page edge to a stub: dropped

    regions = tuple(
        _valid_box(r, width, height) or _reject_box(r, f"non_text_regions[{i}]")
        for i, r in enumerate(_json_list(d, "non_text_regions"))
    )
    return PageLayout(width, height, tuple(words), tuple(separators), regions)


def page_layout_to_dict(layout: PageLayout) -> dict:
    return {
        "page_width": layout.page_width,
        "page_height": layout.page_height,
        "words": [
            {"box": list(w.box.as_tuple()), "text": w.text, "line_id": w.line_id}
            for w in layout.words
        ],
        "separators": [
            {"box": list(s.box.as_tuple()), "orientation": s.orientation.value}
            for s in layout.separators
        ],
        "non_text_regions": [list(r.as_tuple()) for r in layout.non_text_regions],
    }


def recognized_table_to_dict(table: RecognizedTable) -> dict:
    return {
        "region": list(table.region.as_tuple()),
        "n_rows": table.n_rows,
        "n_cols": table.n_cols,
        "labeled": table.labeled,
        "source": table.source.value,
        "header_row_count": table.header_row_count,
        "cells": [
            {
                "box": list(c.box.as_tuple()),
                "row_start": c.row_start,
                "row_end": c.row_end,
                "col_start": c.col_start,
                "col_end": c.col_end,
                "content": c.content,
            }
            for c in table.cells
        ],
        **({"expected_missed": True} if table.expected_missed else {}),
    }


_SPANS = ("row_start", "row_end", "col_start", "col_end")
_SOURCES = tuple(s.value for s in TableSource)


def recognized_table_from_dict(d: dict) -> RecognizedTable:
    """Read a table, building each box once; its cells must tile the grid."""
    if not isinstance(d, dict):
        raise LayoutError("table entry must be an object")
    try:
        v = d["region"]
        region = _valid_box(v) or _reject_box(v, "table.region")
        cells = []
        for i, c in enumerate(expect(d["cells"], "cells", "list")):
            if type(c) is not dict:
                expect(c, f"cells[{i}]", "object")
            v = c["box"]
            b = _valid_box(v) or _reject_box(v, f"cells[{i}].box")
            r0, r1, c0, c1 = c["row_start"], c["row_end"], c["col_start"], c["col_end"]
            if not (type(r0) is int and type(r1) is int and type(c0) is int and type(c1) is int):
                for k, x in zip(_SPANS, (r0, r1, c0, c1)):
                    expect(x, f"cells[{i}].{k}", "integer")
            content = c.get("content", "")
            if type(content) is not str:
                expect(content, f"cells[{i}].content", "string")
            cells.append(Cell(b, r0, r1, c0, c1, (), content))
        table = RecognizedTable(
            region,
            expect(d["n_rows"], "n_rows", "integer"),
            expect(d["n_cols"], "n_cols", "integer"),
            tuple(cells),
            expect(d.get("labeled", False), "labeled", "boolean"),
            TableSource(one_of(d.get("source", "separator"), "source", _SOURCES)),
            expect(d.get("header_row_count", 0), "header_row_count", "integer"),
            expect(d.get("expected_missed", False), "expected_missed", "boolean"),
        )
        table.grid  # raises unless the cells tile the grid; kept for later use
        return table
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"bad table entry: {exc}") from exc


def transpose_word(w: Word) -> Word:
    return replace(w, box=transpose_box(w.box))


def transpose_separator(s: Separator) -> Separator:
    flipped = (
        SeparatorOrientation.VERTICAL
        if s.orientation is SeparatorOrientation.HORIZONTAL
        else SeparatorOrientation.HORIZONTAL
    )
    return Separator(box=transpose_box(s.box), orientation=flipped)


def transpose_layout(layout: PageLayout) -> PageLayout:
    """Mirror the page across the main diagonal, flipping separator
    orientations; applying it twice returns the original layout."""
    return PageLayout(
        page_width=layout.page_height,
        page_height=layout.page_width,
        words=tuple(transpose_word(w) for w in layout.words),
        separators=tuple(transpose_separator(s) for s in layout.separators),
        non_text_regions=tuple(transpose_box(b) for b in layout.non_text_regions),
    )


def transpose_table(table: RecognizedTable) -> RecognizedTable:
    """Transpose all boxes back to page coordinates; indices keep the
    reading orientation the grid was recognized in."""
    return replace(
        table,
        region=transpose_box(table.region),
        cells=tuple(
            replace(
                c,
                box=transpose_box(c.box),
                words=tuple(transpose_word(w) for w in c.words),
            )
            for c in table.cells
        ),
    )


# the JSON kind of each RecognizerConfig field, by its annotation
_CONFIG_KINDS = {"float": "number", "bool": "boolean", "int": "integer"}


def recognizer_config_from_dict(d: object) -> RecognizerConfig:
    """A RecognizerConfig from its JSON object; every key is optional."""
    d = expect(d, "recognizer config", "object")
    annotations = {f.name: f.type for f in fields(RecognizerConfig)}
    known(d, "", annotations)
    kwargs: dict = {}
    for key, annotation in annotations.items():
        if key == "label_keywords" and key in d:
            kwargs[key] = keywords(d[key], key)
        elif key in d:
            kwargs[key] = expect(d[key], key, _CONFIG_KINDS[annotation])
    try:
        return RecognizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def recognizer_config_to_dict(cfg: RecognizerConfig) -> dict:
    return {**asdict(cfg), "label_keywords": list(cfg.label_keywords)}


def load_recognizer_config(path: str | Path) -> RecognizerConfig:
    return recognizer_config_from_dict(load(path, "recognizer config"))
