"""Core data model: pages, words, separators, cells, recognized tables.

All geometry is integer pixels with exclusive right/bottom edges.  JSON
ingestion clamps every box to the page rectangle, strips control
characters from word text, and rejects separators whose box shape
contradicts their declared orientation.
"""

from __future__ import annotations

import enum
import json
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .dsu import UnionFind
from .errors import ConfigError, LayoutError
from .geometry import BoundingBox, clamp, transpose_box

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
        """The page's words indexed by y, built on first use.

        It lives on the page object, so pages recognized on different
        threads never share one.
        """
        return WordIndex(self.words)


class WordIndex:
    """One page's words sorted by y, so a region asks only for its own rows.

    Every query returns words in page order, which keeps cell contents
    and tie-breaks the same as a scan over ``PageLayout.words``.
    """

    def __init__(self, words: tuple[Word, ...]) -> None:
        self.words = words
        # the doubled center y, top + bottom, stays an integer
        doubled = [w.box.top + w.box.bottom for w in words]
        self._by_center = sorted(range(len(words)), key=doubled.__getitem__)
        self._centers = [doubled[i] for i in self._by_center]
        tops = [w.box.top for w in words]
        self._by_top = sorted(range(len(words)), key=tops.__getitem__)
        self._tops = [tops[i] for i in self._by_top]
        self._max_height = max((w.box.height for w in words), default=0)

    def _in_page_order(self, indices: list[int]) -> list[Word]:
        return [self.words[i] for i in sorted(indices)]

    def centered(self, top: int, bottom: int) -> list[Word]:
        """Words whose box center y lies in [top, bottom)."""
        lo = bisect_left(self._centers, 2 * top)
        hi = bisect_left(self._centers, 2 * bottom)
        return self._in_page_order(self._by_center[lo:hi])

    def touching(self, top: int, bottom: int) -> list[Word]:
        """Words whose rows [box.top, box.bottom] meet [top, bottom]."""
        lo = bisect_left(self._tops, top - self._max_height)
        hi = bisect_right(self._tops, bottom)
        words = self.words
        return self._in_page_order(
            [i for i in self._by_top[lo:hi] if words[i].box.bottom >= top]
        )

    @cached_property
    def d_page(self) -> float | None:
        """Median of (horizontal gap / mean pair height) over horizontally
        adjacent words on one line, or None when the page has no such pair.

        Lines come from ``line_id`` when any word has one (words without
        one are then left out), else from ``reconstruct_lines``.
        """
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
    """Chain words whose vertical overlap covers half the smaller box.

    A sweep down the page tests each word only against the words whose
    box is still open at its top edge; no other pair overlaps.  Lines
    keep page order inside and are sorted by their topmost word.
    """
    uf = UnionFind(len(words))
    open_: list[int] = []
    for j in sorted(range(len(words)), key=lambda i: words[i].box.top):
        bj = words[j].box
        open_ = [i for i in open_ if words[i].box.bottom > bj.top]
        for i in open_:
            bi = words[i].box
            overlap = min(bi.bottom, bj.bottom) - bj.top  # bj.top >= bi.top
            if overlap > 0 and overlap >= 0.5 * min(bi.height, bj.height):
                uf.union(i, j)
        open_.append(j)
    lines = [[words[i] for i in idxs] for idxs in uf.groups().values()]
    lines.sort(key=lambda ws: min(w.box.top for w in ws))
    return lines


class TableSource(enum.Enum):
    SEPARATOR = "separator"
    BOOKTABS = "booktabs"


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


def make_cell(
    box: BoundingBox,
    row_start: int,
    row_end: int,
    col_start: int,
    col_end: int,
    words: list[Word] | tuple[Word, ...] = (),
) -> Cell:
    return Cell(
        box=box,
        row_start=row_start,
        row_end=row_end,
        col_start=col_start,
        col_end=col_end,
        words=tuple(words),
        content=join_words(words),
    )


@dataclass(frozen=True)
class RecognizedTable:
    region: BoundingBox
    n_rows: int
    n_cols: int
    cells: tuple[Cell, ...]
    labeled: bool
    source: TableSource
    header_row_count: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("table needs at least one row and one column")
        if self.header_row_count < 0:
            raise ValueError("negative header_row_count")


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


def assign_words_to_cells(cells: list[Cell], words: list[Word] | tuple[Word, ...]) -> list[Cell]:
    """Rebuild each cell with the words whose box center it contains.

    The distinct cell borders cut the plane into slots; each word center
    is bisected into its slot, and a slot -> covering cells map does the
    rest.  Cells may overlap or leave gaps; each keeps its words in the
    order given.
    """
    xs = sorted({v for c in cells for v in (c.box.left, c.box.right)})
    ys = sorted({v for c in cells for v in (c.box.top, c.box.bottom)})
    x_at = {v: i for i, v in enumerate(xs)}
    y_at = {v: i for i, v in enumerate(ys)}
    covering: dict[tuple[int, int], list[int]] = {}
    for k, c in enumerate(cells):
        b = c.box
        for i in range(y_at[b.top], y_at[b.bottom]):
            for j in range(x_at[b.left], x_at[b.right]):
                covering.setdefault((i, j), []).append(k)

    mine: list[list[Word]] = [[] for _ in cells]
    for w in words:
        x, y = w.box.center
        # slot (i, j) is [ys[i], ys[i + 1]) x [xs[j], xs[j + 1]), half-open like cells
        slot = (bisect_right(ys, y) - 1, bisect_right(xs, x) - 1)
        for k in covering.get(slot, ()):
            mine[k].append(w)
    return [
        make_cell(c.box, c.row_start, c.row_end, c.col_start, c.col_end, ws)
        for c, ws in zip(cells, mine)
    ]


@dataclass(frozen=True)
class RecognizerConfig:
    gamma: float = 2.0
    require_labels_separator: bool = False
    require_labels_booktabs: bool = False
    label_keywords: tuple[str, ...] = DEFAULT_LABEL_KEYWORDS
    separator_expand_px: int = 5
    label_search_margin_px: int = 50

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.separator_expand_px < 0 or self.label_search_margin_px < 0:
            raise ValueError("pixel margins must be non-negative")
        if (self.require_labels_separator or self.require_labels_booktabs) and not self.label_keywords:
            raise ValueError("label keywords required when labels are required")


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _box_from_json(v: object, where: str) -> BoundingBox:
    if not (isinstance(v, list) and len(v) == 4 and all(isinstance(x, int) for x in v)):
        raise LayoutError(f"{where}: box must be a list of 4 integers, got {v!r}")
    try:
        return BoundingBox(*v)
    except ValueError as exc:
        raise LayoutError(f"{where}: {exc}") from exc


def _strip_control(text: str) -> str:
    return "".join(ch for ch in text if ord(ch) >= 32 and ord(ch) != 127)


def page_layout_from_dict(d: dict) -> PageLayout:
    if not isinstance(d, dict):
        raise LayoutError("layout JSON must be an object")
    try:
        width = int(d["page_width"])
        height = int(d["page_height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"bad or missing page dimensions: {exc}") from exc
    if width <= 0 or height <= 0:
        raise LayoutError("page dimensions must be positive")

    words = []
    for i, w in enumerate(d.get("words", [])):
        where = f"words[{i}]"
        if not isinstance(w, dict):
            raise LayoutError(f"{where}: must be an object")
        b = clamp(_box_from_json(w.get("box"), where), width, height)
        text = w.get("text")
        if not isinstance(text, str):
            raise LayoutError(f"{where}: text must be a string")
        line_id = w.get("line_id")
        if line_id is not None and not isinstance(line_id, int):
            raise LayoutError(f"{where}: line_id must be an integer or null")
        words.append(Word(box=b, text=_strip_control(text), line_id=line_id))

    separators = []
    for i, s in enumerate(d.get("separators", [])):
        where = f"separators[{i}]"
        if not isinstance(s, dict):
            raise LayoutError(f"{where}: must be an object")
        b = clamp(_box_from_json(s.get("box"), where), width, height)
        kind = s.get("orientation")
        if kind not in ("h", "v"):
            raise LayoutError(f"{where}: orientation must be 'h' or 'v'")
        try:
            separators.append(Separator(box=b, orientation=SeparatorOrientation(kind)))
        except ValueError as exc:
            raise LayoutError(f"{where}: {exc}") from exc

    regions = tuple(
        clamp(_box_from_json(r, f"non_text_regions[{i}]"), width, height)
        for i, r in enumerate(d.get("non_text_regions", []))
    )
    return PageLayout(
        page_width=width,
        page_height=height,
        words=tuple(words),
        separators=tuple(separators),
        non_text_regions=regions,
    )


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
    }


def recognized_table_from_dict(d: dict) -> RecognizedTable:
    if not isinstance(d, dict):
        raise LayoutError("table entry must be an object")
    try:
        region = _box_from_json(d["region"], "table.region")
        cells = tuple(
            Cell(
                box=_box_from_json(c["box"], f"cells[{i}].box"),
                row_start=int(c["row_start"]),
                row_end=int(c["row_end"]),
                col_start=int(c["col_start"]),
                col_end=int(c["col_end"]),
                words=(),
                content=str(c.get("content", "")),
            )
            for i, c in enumerate(d["cells"])
        )
        table = RecognizedTable(
            region=region,
            n_rows=int(d["n_rows"]),
            n_cols=int(d["n_cols"]),
            cells=cells,
            labeled=bool(d.get("labeled", False)),
            source=TableSource(d.get("source", "separator")),
            header_row_count=int(d.get("header_row_count", 0)),
        )
        cell_grid(table)  # cells must tile the grid
        return table
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, LayoutError):
            raise
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


def recognizer_config_from_dict(d: dict) -> RecognizerConfig:
    if not isinstance(d, dict):
        raise ConfigError("recognizer config must be a JSON object")
    known = {
        "gamma",
        "require_labels_separator",
        "require_labels_booktabs",
        "label_keywords",
        "separator_expand_px",
        "label_search_margin_px",
    }
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"unknown recognizer config keys: {', '.join(unknown)}")
    kwargs: dict = {}
    if "gamma" in d:
        if not isinstance(d["gamma"], (int, float)) or isinstance(d["gamma"], bool):
            raise ConfigError("gamma must be a number")
        kwargs["gamma"] = float(d["gamma"])
    for key in ("require_labels_separator", "require_labels_booktabs"):
        if key in d:
            if not isinstance(d[key], bool):
                raise ConfigError(f"{key} must be a boolean")
            kwargs[key] = d[key]
    if "label_keywords" in d:
        kws = d["label_keywords"]
        if not isinstance(kws, list) or not all(isinstance(k, str) and k for k in kws):
            raise ConfigError("label_keywords must be a list of non-empty strings")
        kwargs["label_keywords"] = tuple(kws)
    for key in ("separator_expand_px", "label_search_margin_px"):
        if key in d:
            if not isinstance(d[key], int) or isinstance(d[key], bool):
                raise ConfigError(f"{key} must be an integer")
            kwargs[key] = d[key]
    try:
        return RecognizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def recognizer_config_to_dict(cfg: RecognizerConfig) -> dict:
    return {
        "gamma": cfg.gamma,
        "require_labels_separator": cfg.require_labels_separator,
        "require_labels_booktabs": cfg.require_labels_booktabs,
        "label_keywords": list(cfg.label_keywords),
        "separator_expand_px": cfg.separator_expand_px,
        "label_search_margin_px": cfg.label_search_margin_px,
    }


def load_recognizer_config(path: str | Path) -> RecognizerConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read recognizer config {path}: {exc}") from exc
    return recognizer_config_from_dict(raw)
