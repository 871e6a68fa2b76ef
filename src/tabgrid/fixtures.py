"""Synthetic page generator producing layout / ground-truth pairs.

Every page carries its own recognition ground truth derived from the
same placement arithmetic the generator used, so a correct recognizer
recovers each grid exactly.  Geometry keeps safety margins (text well
inside cells; in random tables also a single ruling piece per grid border
and one grouping rule per header level) so rulings jittered by a couple
of pixels still resolve to the same grid.

Randomized corpora additionally write an interpretation rules config
and per-table tuple ground truth for tables generated in
interpretation mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

from .errors import ConfigError
from .fields import FieldError, expect, known, must_be, one_of
from .corpusio import (
    PageTables,
    dump_json,
    format_layout_name,
    page_tables_to_dict,
    write_tuple_set,
)
from .geometry import BoundingBox
from .interpret import DataType, MeaningConfig, meaning_to_dict, tuple_set_of
from .model import (
    PageLayout,
    PageOrientation,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    TupleSet,
    Word,
    assign_words_to_cells,
    column_runs,
    grid_table,
    page_layout_to_dict,
    recognizer_config_to_dict,
    transpose_layout,
    transpose_table,
)

WORD_HEIGHT = 16
# share of blank cells in a bordered table outside interpretation mode
BLANK_RATE = 0.1

_CONSONANTS = "bcdgklmnprsvz"
_VOWELS = "aeiou"


@dataclass
class FixturePage:
    file_id: str
    page_nr: int
    layout: PageLayout
    gt: PageTables
    tuple_sets: list[TupleSet] = field(default_factory=list)


def _token(rng: random.Random, syllables: int | None = None) -> str:
    n = syllables or rng.randint(2, 4)
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n))


def _word(
    rng: random.Random, x: int, y: int, text: str, line_id: int, right: int | None = None
) -> Word:
    """A word at (x, y) about 7 px per character wide, cut at ``right``."""
    end = x + 7 * len(text) + rng.randint(0, 4)
    if right is not None:
        end = min(end, right)
    return Word(box=BoundingBox(x, y, end, y + WORD_HEIGHT), text=text, line_id=line_id)


def _h_rule(x0: int, y: int, x1: int) -> Separator:
    return Separator(
        box=BoundingBox(x0, y - 1, x1, y + 1), orientation=SeparatorOrientation.HORIZONTAL
    )


def _v_rule(x: int, y0: int, y1: int) -> Separator:
    return Separator(
        box=BoundingBox(x - 1, y0, x + 1, y1), orientation=SeparatorOrientation.VERTICAL
    )


def _label_words(
    rng: random.Random, x: int, table_top: int, number: int, labeled: bool, line_id: int
) -> list[Word]:
    head = "Table" if labeled else "Figure"
    y = table_top - rng.randint(24, 40)
    first = _word(rng, x, y, head, line_id)
    second = _word(rng, first.box.right + 5, y, f"{number}:", line_id)
    return [first, second]


def _paragraph(
    rng: random.Random, x0: int, y0: int, n_lines: int, words_per_line: int, line_id0: int
) -> list[Word]:
    words = []
    for li in range(n_lines):
        x = x0
        y = y0 + li * (WORD_HEIGHT + 6)
        for _ in range(words_per_line):
            w = _word(rng, x, y, _token(rng), line_id0 + li)
            words.append(w)
            x = w.box.right + 5  # keeps the page-wide gap unit at 5/16
    return words


# ---------------------------------------------------------------------------
# bordered (fully ruled) tables


@dataclass(frozen=True)
class MergeSpec:
    row: int
    col: int
    direction: str  # "right" | "down"


def _random_merges(rng: random.Random, rows: int, cols: int, count: int) -> list[MergeSpec]:
    """Single-span merges in boundary bands only, one per border line,
    so every grid border keeps one contiguous ruling piece."""
    taken_cells: set[tuple[int, int]] = set()
    used_v_borders: set[int] = set()
    used_h_borders: set[int] = set()
    merges: list[MergeSpec] = []
    attempts = 0
    while len(merges) < count and attempts < 50:
        attempts += 1
        right = rng.random() < 0.5  # drawn on every attempt: later pages read on from here
        if rows < 2 or cols < 2:
            continue  # any merge of a one-row or one-column grid cuts a whole border
        if right:
            i = rng.choice([0, rows - 1])
            j = rng.randrange(cols - 1)
            if (i, j) in taken_cells or (i, j + 1) in taken_cells or (j + 1) in used_v_borders:
                continue
            taken_cells.update({(i, j), (i, j + 1)})
            used_v_borders.add(j + 1)
            merges.append(MergeSpec(i, j, "right"))
        else:
            j = rng.choice([0, cols - 1])
            i = rng.randrange(rows - 1)
            if (i, j) in taken_cells or (i + 1, j) in taken_cells or (i + 1) in used_h_borders:
                continue
            taken_cells.update({(i, j), (i + 1, j)})
            used_h_borders.add(i + 1)
            merges.append(MergeSpec(i, j, "down"))
    return merges


def _merge_spans(
    rows: int, cols: int, merges: list[MergeSpec]
) -> list[tuple[int, int, int, int]]:
    """Cell index spans (rs, re, cs, ce) after applying the merges; two
    merges that share a cell are a ConfigError."""
    owner: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for m in merges:
        if m.direction == "right":
            span = (m.row, m.row, m.col, m.col + 1)
        else:
            span = (m.row, m.row + 1, m.col, m.col)
        for cell in ((span[0], span[2]), (span[1], span[3])):
            if cell in owner:
                raise ConfigError(f"merge {m} shares cell {cell} with another merge")
            owner[cell] = span
    spans = []
    for i in range(rows):
        for j in range(cols):
            span = owner.get((i, j), (i, i, j, j))
            if (span[0], span[2]) == (i, j):
                spans.append(span)
    return spans


def _ruling_pieces(borders: list[int], cut: set[int]) -> list[tuple[int, int]]:
    """The (start, end) pieces of a ruling that runs from ``borders[0]`` to
    ``borders[-1]`` with the bands in ``cut`` removed; band i runs from
    ``borders[i]`` to ``borders[i + 1]``."""
    n = len(borders) - 1
    joined = {i for i in range(n - 1) if i not in cut and i + 1 not in cut}
    return [(borders[a], borders[b + 1]) for a, b in column_runs(n, joined) if a not in cut]


def gen_bordered_page(
    rng: random.Random,
    file_id: str,
    page_nr: int,
    rows: int | None = None,
    cols: int | None = None,
    merges: list[MergeSpec] | None = None,
    labeled: bool = True,
    columns_mode: str | None = None,
) -> FixturePage:
    rows = rows if rows is not None else rng.randint(2, 8)
    cols = cols if cols is not None else rng.randint(2, 8)
    if columns_mode == "interpretation":
        # a merged cell would orphan the per-column titles and values the
        # tuple ground truth is built from, and the columns are shuffled,
        # so no merge is safe on such a page
        if merges:
            raise ConfigError(
                f"fixture page {(file_id, page_nr)}: an interpretation page takes no merges"
            )
        cols = max(cols, 3)
        merges = []
    elif merges is None:
        merges = _random_merges(rng, rows, cols, rng.randint(0, 2))
    for m in merges:
        if m.direction == "right" and not (0 <= m.row < rows and 0 <= m.col < cols - 1):
            raise ConfigError(f"merge {m} outside a {rows}x{cols} grid")
        if m.direction == "down" and not (0 <= m.row < rows - 1 and 0 <= m.col < cols):
            raise ConfigError(f"merge {m} outside a {rows}x{cols} grid")
    spans = _merge_spans(rows, cols, merges)
    # the bands each merge cuts out of the border it spans
    cut_v: dict[int, set[int]] = {}
    cut_h: dict[int, set[int]] = {}
    for m in merges:
        if m.direction == "right":
            cut_v.setdefault(m.col + 1, set()).add(m.row)
        else:
            cut_h.setdefault(m.row + 1, set()).add(m.col)
    if any(len(cut) == rows for cut in cut_v.values()) or any(
        len(cut) == cols for cut in cut_h.values()
    ):
        raise ConfigError("merges remove a whole grid border, which the page then lacks")

    col_w = [rng.randint(78, 128) for _ in range(cols)]
    row_h = [rng.randint(34, 46) for _ in range(rows)]
    x0 = rng.randint(70, 150)
    y0 = rng.randint(130, 210)
    cb = list(accumulate(col_w, initial=x0))
    rb = list(accumulate(row_h, initial=y0))

    separators: list[Separator] = []
    for j, x in enumerate(cb):
        separators += [_v_rule(x, y0, y1) for y0, y1 in _ruling_pieces(rb, cut_v.get(j, set()))]
    for i, y in enumerate(rb):
        separators += [_h_rule(x0, y, x1) for x0, x1 in _ruling_pieces(cb, cut_h.get(i, set()))]

    plan = _interpretation_columns(rng, cols) if columns_mode == "interpretation" else None

    words: list[Word] = []
    for rs, re_, cs, ce in spans:
        box = BoundingBox(cb[cs], rb[rs], cb[ce + 1], rb[re_ + 1])
        blank = rng.random() < BLANK_RATE and plan is None
        if not blank:
            if plan is None:
                text = _token(rng)
            elif rs == 0:
                text = plan["titles"][cs]
            else:
                text = plan["make_value"][cs](rng)
            wy = box.top + (box.height - WORD_HEIGHT) // 2
            # keep the word inside even the narrowest merged cell
            words.append(_word(rng, box.left + 8, wy, text, 100 + rs, right=box.right - 8))
    cells = assign_words_to_cells(spans, words, rb, cb)
    table = grid_table(cells, TableSource.SEPARATOR, labeled)

    words.extend(_label_words(rng, x0, rb[0], page_nr, labeled, line_id=99))
    layout = PageLayout(
        page_width=max(cb[-1] + 80, 1000),
        page_height=max(rb[-1] + 120, 1000),
        words=tuple(words),
        separators=tuple(separators),
    )
    return _one_table_page(file_id, page_nr, layout, table, plan)


# ---------------------------------------------------------------------------
# booktabs tables


def gen_booktabs_page(
    rng: random.Random,
    file_id: str,
    page_nr: int,
    rows: int | None = None,
    cols: int | None = None,
    cmidrule_levels: list[list[tuple[int, int]]] | None = None,
    labeled: bool = True,
    columns_mode: str | None = None,
) -> FixturePage:
    rows = rows if rows is not None else rng.randint(2, 8)
    cols = cols if cols is not None else rng.randint(2, 6)
    if columns_mode == "interpretation":
        cols = max(cols, 3)
    if cmidrule_levels is None:
        n_levels = rng.randint(0, 2) if cols >= 3 else 0
        cmidrule_levels = []
        for _ in range(n_levels):
            span = rng.randint(2, cols - 1)
            a = rng.randint(0, cols - span)
            cmidrule_levels.append([(a, a + span - 1)])
    n_levels = len(cmidrule_levels)
    for level in cmidrule_levels:
        for a, b in level:
            if not (0 <= a <= b < cols):
                raise ConfigError(f"cmidrule ({a}, {b}) outside {cols} columns")
            if a == 0 and b == cols - 1:
                raise ConfigError("a grouping rule must not span every column")
        ranges = sorted(level)
        for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
            if a1 <= b0:
                raise ConfigError(
                    f"cmidrules ({a0}, {b0}) and ({a1}, {b1}) overlap in one level"
                )

    plan = _interpretation_columns(rng, cols) if columns_mode == "interpretation" else None

    # column text: one token per body cell, titles in the lowest header row
    titles = (
        plan["titles"] if plan is not None else [_token(rng, 2).capitalize() for _ in range(cols)]
    )
    body_text = [
        [plan["make_value"][j](rng) if plan is not None else _token(rng) for j in range(cols)]
        for _ in range(rows)
    ]
    # gap unit 5/16 everywhere in running text pins the page median
    word_w = lambda t: 7 * len(t)
    col_w = [
        max(word_w(titles[j]), max(word_w(body_text[i][j]) for i in range(rows)))
        for j in range(cols)
    ]
    gaps = [rng.randint(15, 26) for _ in range(cols - 1)]

    x0 = rng.randint(80, 140)
    slots = list(accumulate((w + g for w, g in zip(col_w, gaps)), initial=x0))
    text_right = slots[-1] + col_w[-1]
    pad_l, pad_r = rng.randint(6, 9), rng.randint(6, 9)
    rule_l, rule_r = x0 - pad_l, text_right + pad_r

    # enough paragraph pairs to own the page-wide median gap
    table_pairs = rows * (cols - 1) + (cols - 1) + sum(len(lv) for lv in cmidrule_levels) + 1
    lines_needed = max(6, (table_pairs + 12) // 9 + 1)
    para = _paragraph(rng, 70, 60, lines_needed, 10, line_id0=0)
    para_bottom = max(w.box.bottom for w in para)

    words: list[Word] = list(para)
    separators: list[Separator] = []
    line_id = 50

    top_y = para_bottom + rng.randint(90, 130)
    separators.append(_h_rule(rule_l, top_y, rule_r))
    y = top_y + 1 + 6

    level_rule_centers: list[int] = []
    for level in cmidrule_levels:
        for a, b in sorted(level):
            span_l, span_r = slots[a], slots[b] + col_w[b]
            text = _token(rng, 2).capitalize()
            tw = min(word_w(text), span_r - span_l - 10)
            tx = span_l + (span_r - span_l - tw) // 2
            words.append(
                Word(box=BoundingBox(tx, y + 4, tx + tw, y + 4 + WORD_HEIGHT), text=text, line_id=line_id)
            )
            separators.append(_h_rule(span_l - 2, y + 27, span_r + 2))
        level_rule_centers.append(y + 27)
        line_id += 1
        y += 34

    # lowest header row; every word is cut to its column slot so gaps stay exact
    for j in range(cols):
        words.append(_word(rng, slots[j], y + 6, titles[j], line_id, right=slots[j] + col_w[j]))
    line_id += 1
    y += 6 + WORD_HEIGHT + 8
    mid_y = y + 1
    separators.append(_h_rule(rule_l, mid_y, rule_r))

    band_h = rng.randint(34, 44)
    text_off = (band_h - WORD_HEIGHT) // 2
    body_tops = []
    yb = mid_y + 1 + rng.randint(6, 10)
    for i in range(rows):
        ty = yb + i * band_h + text_off
        body_tops.append(ty)
        for j in range(cols):
            right = slots[j] + col_w[j]
            words.append(_word(rng, slots[j], ty, body_text[i][j], line_id, right=right))
        line_id += 1
    bottom_y = yb + rows * band_h + rng.randint(4, 8)
    separators.append(_h_rule(rule_l, bottom_y, rule_r))

    words.extend(_label_words(rng, rule_l, top_y - 1, page_nr, labeled, line_id=98))

    # ground-truth grid via the same midpoint arithmetic the profile uses
    region = BoundingBox(rule_l, top_y - 1, rule_r, bottom_y + 1)
    row_borders = [region.top, *level_rule_centers, mid_y]
    for i in range(rows - 1):
        gap_start = body_tops[i] + WORD_HEIGHT
        gap_end = body_tops[i + 1]
        row_borders.append((gap_start + gap_end) // 2)
    row_borders.append(region.bottom)
    col_borders = [region.left]
    for j in range(cols - 1):
        gap_start = slots[j] + col_w[j]
        gap_end = slots[j + 1]
        col_borders.append((gap_start + gap_end) // 2)
    col_borders.append(region.right)

    # a header level's cells are its spans plus the single columns they
    # leave; the lowest header row and the body have one cell per column
    spans = []
    n_header = n_levels + 1
    for r in range(n_header + rows):
        joined = {j for a, b in (cmidrule_levels[r] if r < n_levels else ()) for j in range(a, b)}
        spans += [(r, r, a, b) for a, b in column_runs(cols, joined)]
    cells = assign_words_to_cells(spans, words, row_borders, col_borders)
    table = grid_table(cells, TableSource.BOOKTABS, labeled, n_header)
    layout = PageLayout(
        page_width=max(rule_r + 80, 1000),
        page_height=max(bottom_y + 120, 1200),
        words=tuple(words),
        separators=tuple(separators),
    )
    return _one_table_page(file_id, page_nr, layout, table, plan)


# ---------------------------------------------------------------------------
# interpretation fixtures


def default_meanings() -> list[MeaningConfig]:
    return [
        MeaningConfig(
            name="COMPOUND",
            w_title=1.0,
            w_content=1.0,
            min_affinity=0.5,
            title_keywords=("Compound",),
            content_regex=r"^C-\d+$",
        ),
        MeaningConfig(
            name="ACTIVITY",
            w_title=1.0,
            w_content=1.0,
            min_affinity=0.5,
            title_keywords=("IC50",),
            data_type=DataType.REAL,
        ),
    ]


def _interpretation_columns(rng: random.Random, cols: int) -> dict:
    """Column plan: the two meaning columns plus distractors, shuffled."""
    def compound(r: random.Random) -> str:
        return f"C-{r.randint(1, 999)}"

    def activity(r: random.Random) -> str:
        return f"{r.randint(0, 99)}.{r.randint(0, 9)}"

    def rank(r: random.Random) -> str:
        return str(r.randint(1, 50))

    def notes(r: random.Random) -> str:
        return _token(r)

    plan = [("Compound", compound, "COMPOUND"), ("IC50", activity, "ACTIVITY")]
    distractors = [("Notes", notes, None), ("Rank", rank, None)]
    rng.shuffle(distractors)
    plan.extend(distractors[: max(0, cols - 2)])
    while len(plan) < cols:
        plan.append((_token(rng, 2).capitalize(), notes, None))
    rng.shuffle(plan)
    return {
        "titles": [p[0] for p in plan],
        "make_value": [p[1] for p in plan],
        "meaning_of_col": {i: p[2] for i, p in enumerate(plan) if p[2] is not None},
    }


def _one_table_page(
    file_id: str, page_nr: int, layout: PageLayout, table: RecognizedTable, plan: dict | None
) -> FixturePage:
    """The fixture page for one table: its ground truth marks an unlabeled
    table as expected missed, and an interpretation ``plan`` adds the tuples
    of a labeled one."""
    marked = table if table.labeled else replace(table, expected_missed=True)
    gt = PageTables(file_id=file_id, page_nr=page_nr, tables=[marked])
    tuple_sets = []
    if plan is not None and table.labeled:
        tuple_sets.append(tuple_set_of(table, plan["meaning_of_col"], file_id, page_nr))
    return FixturePage(file_id, page_nr, layout, gt, tuple_sets)


# ---------------------------------------------------------------------------
# perturbation and corpus assembly


def _moved(b: BoundingBox, dx: int, dy: int) -> BoundingBox:
    return BoundingBox(b.left + dx, b.top + dy, b.right + dx, b.bottom + dy)


def shift_separators(layout: PageLayout, rng: random.Random, magnitude: int) -> PageLayout:
    """Translate every ruling independently by up to ``magnitude`` px per axis."""
    moved = []
    for sep in layout.separators:
        dx = rng.randint(-magnitude, magnitude)
        dy = rng.randint(-magnitude, magnitude)
        moved.append(replace(sep, box=_moved(sep.box, dx, dy)))
    return replace(layout, separators=tuple(moved))


def move_page(page: FixturePage, dx: int, dy: int, lines: int = 0) -> FixturePage:
    """The page with every box, its ground truth's too, moved by ``(dx, dy)`` and grown as
    much, and every line id, its cell words' too, raised by ``lines`` (``None`` stays)."""
    def words(ws: tuple[Word, ...]) -> tuple[Word, ...]:
        ids = (None if w.line_id is None else w.line_id + lines for w in ws)
        return tuple(replace(w, box=_moved(w.box, dx, dy), line_id=i) for w, i in zip(ws, ids))

    def table(t: RecognizedTable) -> RecognizedTable:
        cells = tuple(replace(c, box=_moved(c.box, dx, dy), words=words(c.words)) for c in t.cells)
        return replace(t, region=_moved(t.region, dx, dy), cells=cells)

    old = page.layout
    layout = PageLayout(
        old.page_width + dx, old.page_height + dy, words(old.words),
        tuple(replace(s, box=_moved(s.box, dx, dy)) for s in old.separators),
        tuple(_moved(r, dx, dy) for r in old.non_text_regions),
    )
    return replace(page, layout=layout, gt=replace(page.gt, tables=[*map(table, page.gt.tables)]))


def stack_pages(pages: list[FixturePage], file_id: str, page_nr: int) -> FixturePage:
    """``pages`` top to bottom on one page, each moved down by the heights above it and its
    line ids raised past theirs; each tuple set points at its table on the page."""
    words, separators, regions, tables, tuple_sets = [], [], [], [], []
    height = width = base = 0
    for page in pages:
        page = move_page(page, 0, height, base)
        words += page.layout.words
        base = max({w.line_id for w in page.layout.words} - {None}, default=base - 1) + 1
        separators += page.layout.separators
        regions += page.layout.non_text_regions
        tuple_sets += [TupleSet(file_id, page_nr, len(tables) + ts.table_idx, ts.tuples)
                       for ts in page.tuple_sets]
        tables += page.gt.tables
        height, width = page.layout.page_height, max(width, page.layout.page_width)
    layout = PageLayout(width, height, tuple(words), tuple(separators), tuple(regions))
    return FixturePage(file_id, page_nr, layout, PageTables(file_id, page_nr, tables), tuple_sets)


def _transpose_fixture(page: FixturePage) -> FixturePage:
    tables = [transpose_table(t) for t in page.gt.tables]
    gt = replace(page.gt, tables=tables, orientation=PageOrientation.VERTICAL.value)
    return replace(page, layout=transpose_layout(page.layout), gt=gt)


_PAGE_FIELDS = ("kind", "file_id", "page_nr", "orientation", "rows", "cols", "labeled",
                "interpretation")


def _page_from_spec(rng: random.Random, entry: object, where: str) -> FixturePage:
    entry = expect(entry, where, "object")
    kind = one_of(entry.get("kind"), f"{where}.kind", ("bordered", "booktabs"))
    extra = "merges" if kind == "bordered" else "cmidrule_levels"
    known(entry, where, (*_PAGE_FIELDS, extra), f" of a {kind} page")
    file_id = entry.get("file_id")
    if type(file_id) is not str or not file_id:
        raise FieldError(must_be(f"{where}.file_id", "a non-empty string", file_id))
    page_nr = expect(entry.get("page_nr"), f"{where}.page_nr", "integer", 0)
    orientation = one_of(
        entry.get("orientation", PageOrientation.STANDARD.value),
        f"{where}.orientation",
        tuple(o.value for o in PageOrientation),
    )
    rows, cols = entry.get("rows"), entry.get("cols")
    interpretation = expect(
        entry.get("interpretation", False), f"{where}.interpretation", "boolean"
    )
    common = dict(
        rows=None if rows is None else expect(rows, f"{where}.rows", "integer", 1),
        cols=None if cols is None else expect(cols, f"{where}.cols", "integer", 1),
        labeled=expect(entry.get("labeled", True), f"{where}.labeled", "boolean"),
        columns_mode="interpretation" if interpretation else None,
    )
    if kind == "bordered":
        merges = None
        if "merges" in entry:
            merges = []
            for k, m in enumerate(expect(entry["merges"], f"{where}.merges", "list")):
                at = f"{where}.merges[{k}]"
                m = expect(m, at, "object")
                known(m, at, ("row", "col", "dir"))
                direction = one_of(m.get("dir"), f"{at}.dir", ("right", "down"))
                row, col = (expect(m.get(k), f"{at}.{k}", "integer", 0) for k in ("row", "col"))
                merges.append(MergeSpec(row, col, direction))
        page = gen_bordered_page(rng, file_id, page_nr, merges=merges, **common)
    else:
        levels = None
        if "cmidrule_levels" in entry:
            at = f"{where}.cmidrule_levels"
            levels = []
            for i, level in enumerate(expect(entry["cmidrule_levels"], at, "list")):
                level = expect(level, f"{at}[{i}]", "list")
                levels.append([_cmidrule(r, f"{at}[{i}][{j}]") for j, r in enumerate(level)])
        page = gen_booktabs_page(rng, file_id, page_nr, cmidrule_levels=levels, **common)
    if orientation == PageOrientation.VERTICAL.value:
        page = _transpose_fixture(page)
    return page


def _cmidrule(v: object, name: str) -> tuple[int, int]:
    """A grouping rule's inclusive column span, given as [first, last]."""
    if type(v) is not list or len(v) != 2:
        raise FieldError(must_be(name, "a list of 2 integers", v))
    return expect(v[0], f"{name}[0]", "integer", 0), expect(v[1], f"{name}[1]", "integer", 0)


def generate_pages(spec: object) -> list[FixturePage]:
    """All fixture pages for a corpus spec, in deterministic order."""
    spec = expect(spec, "fixture spec", "object")
    known(spec, "", ("seed", "pages", "random"))
    rng = random.Random(expect(spec.get("seed", 0), "seed", "integer"))
    pages = [
        _page_from_spec(rng, entry, f"pages[{i}]")
        for i, entry in enumerate(expect(spec.get("pages", []), "pages", "list"))
    ]
    rand = expect(spec.get("random", {}), "random", "object")
    known(rand, "random", ("bordered", "booktabs", "interpretation"))

    def _count(group: str) -> int:
        entry = expect(rand.get(group, {}), f"random.{group}", "object")
        known(entry, f"random.{group}", ("count",))
        return expect(entry.get("count", 0), f"random.{group}.count", "integer", 0)

    for k in range(_count("bordered")):
        pages.append(gen_bordered_page(rng, f"rb{k:03d}", 1))
    for k in range(_count("booktabs")):
        pages.append(gen_booktabs_page(rng, f"rt{k:03d}", 1))
    for k in range(_count("interpretation")):
        gen = gen_bordered_page if k % 2 == 0 else gen_booktabs_page
        pages.append(gen(rng, f"ri{k:03d}", 1, columns_mode="interpretation"))
    seen: set[tuple[str, int]] = set()
    for page in pages:
        key = (page.file_id, page.page_nr)
        if key in seen:
            raise ConfigError(f"duplicate fixture page {key}")
        seen.add(key)
    return pages


def corpus_recognizer_config() -> RecognizerConfig:
    return RecognizerConfig(require_labels_separator=True, require_labels_booktabs=True)


def build_corpus(spec: dict, out_dir: str | Path) -> dict:
    """Write layouts, ground truth, and configs for a corpus spec.

    Returns the number of pages and of tuple sets written.
    """
    pages = generate_pages(spec)
    out = Path(out_dir)
    layouts_dir = out / "layouts"
    rec_dir = out / "recognition_gt"
    tup_dir = out / "interpretation_gt"
    for d in (layouts_dir, rec_dir, tup_dir):
        d.mkdir(parents=True, exist_ok=True)

    n_tuple_sets = 0
    for page in pages:
        name = format_layout_name(page.file_id, page.page_nr)
        dump_json(layouts_dir / name, page_layout_to_dict(page.layout))
        dump_json(rec_dir / name, page_tables_to_dict(page.gt))
        for ts in page.tuple_sets:
            write_tuple_set(tup_dir, ts)
            n_tuple_sets += 1

    dump_json(out / "rules.json", {"meanings": [meaning_to_dict(m) for m in default_meanings()]})
    dump_json(out / "recognizer_config.json", recognizer_config_to_dict(corpus_recognizer_config()))
    return {"pages": len(pages), "tuple_sets": n_tuple_sets}
