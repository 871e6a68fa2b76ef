"""Synthetic page generator producing layout / ground-truth pairs.

Every page carries its own recognition ground truth derived from the
same placement arithmetic the generator used, so a correct recognizer
recovers each grid exactly.  Geometry keeps safety margins (single
ruling piece per grid border, one grouping rule per header level, text
well inside cells) so rulings jittered by a couple of pixels still
resolve to the same grid.

Randomized corpora additionally write an interpretation rules config
and per-table tuple ground truth for tables generated in
interpretation mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .corpusio import (
    PageTables,
    dump_json,
    format_layout_name,
    page_tables_to_dict,
    write_tuple_set,
)
from .geometry import BoundingBox
from .interpret import (
    DataType,
    MeaningConfig,
    RowTuple,
    TupleSet,
    meaning_to_dict,
)
from .model import (
    Cell,
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    assign_words_to_cells,
    cell_grid,
    make_cell,
    page_layout_to_dict,
    recognizer_config_to_dict,
)
from .pipeline import transpose_layout, transpose_table

WORD_HEIGHT = 16

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


def _word(rng: random.Random, x: int, y: int, text: str, line_id: int) -> Word:
    width = 7 * len(text) + rng.randint(0, 4)
    return Word(box=BoundingBox(x, y, x + width, y + WORD_HEIGHT), text=text, line_id=line_id)


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
        if rng.random() < 0.5 and cols >= 2:
            i = rng.choice([0, rows - 1])
            j = rng.randrange(cols - 1)
            if (i, j) in taken_cells or (i, j + 1) in taken_cells or (j + 1) in used_v_borders:
                continue
            taken_cells.update({(i, j), (i, j + 1)})
            used_v_borders.add(j + 1)
            merges.append(MergeSpec(i, j, "right"))
        elif rows >= 2:
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
    """Cell index spans (rs, re, cs, ce) after applying the merges."""
    owner: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for m in merges:
        if m.direction == "right":
            span = (m.row, m.row, m.col, m.col + 1)
            owner[(m.row, m.col)] = span
            owner[(m.row, m.col + 1)] = span
        else:
            span = (m.row, m.row + 1, m.col, m.col)
            owner[(m.row, m.col)] = span
            owner[(m.row + 1, m.col)] = span
    spans = []
    for i in range(rows):
        for j in range(cols):
            span = owner.get((i, j), (i, i, j, j))
            if (span[0], span[2]) == (i, j):
                spans.append(span)
    return spans


def gen_bordered_page(
    rng: random.Random,
    file_id: str,
    page_nr: int,
    rows: int | None = None,
    cols: int | None = None,
    merges: list[MergeSpec] | None = None,
    n_merges: int | None = None,
    labeled: bool = True,
    blank_rate: float = 0.1,
    columns_mode: str | None = None,
) -> FixturePage:
    rows = rows if rows is not None else rng.randint(2, 8)
    cols = cols if cols is not None else rng.randint(2, 8)
    if columns_mode == "interpretation":
        cols = max(cols, 3)
        blank_rate = 0.0
    if merges is None:
        if columns_mode == "interpretation":
            # merged cells would orphan the per-column titles and values
            # the tuple ground truth is built from
            merges = []
        else:
            want = n_merges if n_merges is not None else rng.randint(0, 2)
            merges = _random_merges(rng, rows, cols, want)
    for m in merges:
        if m.direction == "right" and not (0 <= m.row < rows and 0 <= m.col < cols - 1):
            raise ConfigError(f"merge {m} outside a {rows}x{cols} grid")
        if m.direction == "down" and not (0 <= m.row < rows - 1 and 0 <= m.col < cols):
            raise ConfigError(f"merge {m} outside a {rows}x{cols} grid")

    col_w = [rng.randint(78, 128) for _ in range(cols)]
    row_h = [rng.randint(34, 46) for _ in range(rows)]
    x0 = rng.randint(70, 150)
    y0 = rng.randint(130, 210)
    cb = [x0]
    for w in col_w:
        cb.append(cb[-1] + w)
    rb = [y0]
    for h in row_h:
        rb.append(rb[-1] + h)

    # interior bands a merge removed from a border's ruling
    removed_v: dict[int, int] = {m.col + 1: m.row for m in merges if m.direction == "right"}
    removed_h: dict[int, int] = {m.row + 1: m.col for m in merges if m.direction == "down"}

    separators: list[Separator] = []
    for j, x in enumerate(cb):
        band = removed_v.get(j)
        if band is None:
            separators.append(_v_rule(x, rb[0], rb[-1]))
        elif band == 0:
            separators.append(_v_rule(x, rb[1], rb[-1]))
        else:  # bottom band by construction of _random_merges
            separators.append(_v_rule(x, rb[0], rb[band]))
    for i, y in enumerate(rb):
        band = removed_h.get(i)
        if band is None:
            separators.append(_h_rule(cb[0], y, cb[-1]))
        elif band == 0:
            separators.append(_h_rule(cb[1], y, cb[-1]))
        else:
            separators.append(_h_rule(cb[0], y, cb[band]))

    spans = _merge_spans(rows, cols, merges)
    meanings_layout = _interpretation_columns(rng, cols) if columns_mode == "interpretation" else None

    words: list[Word] = []
    cells: list[Cell] = []
    line_base = 100
    for rs, re_, cs, ce in spans:
        box = BoundingBox(cb[cs], rb[rs], cb[ce + 1], rb[re_ + 1])
        blank = rng.random() < blank_rate and meanings_layout is None
        cell_words: list[Word] = []
        if not blank:
            if meanings_layout is None:
                text = _token(rng)
            elif rs == 0:
                text = meanings_layout["titles"][cs]
            else:
                text = meanings_layout["make_value"][cs](rng)
            wx = box.left + 8
            wy = box.top + (box.height - WORD_HEIGHT) // 2
            w = _word(rng, wx, wy, text, line_base + rs)
            # keep the word inside even the narrowest merged cell
            if w.box.right > box.right - 8:
                w = Word(
                    box=BoundingBox(wx, wy, box.right - 8, wy + WORD_HEIGHT),
                    text=text,
                    line_id=w.line_id,
                )
            cell_words.append(w)
            words.append(w)
        cells.append(make_cell(box, rs, re_, cs, ce, cell_words))

    words.extend(_label_words(rng, x0, rb[0], page_nr, labeled, line_id=99))

    table = RecognizedTable(
        region=BoundingBox(cb[0], rb[0], cb[-1], rb[-1]),
        n_rows=rows,
        n_cols=cols,
        cells=tuple(cells),
        labeled=labeled,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )
    page_w = max(cb[-1] + 80, 1000)
    page_h = max(rb[-1] + 120, 1000)
    layout = PageLayout(
        page_width=page_w,
        page_height=page_h,
        words=tuple(words),
        separators=tuple(separators),
    )
    gt = PageTables(
        file_id=file_id,
        page_nr=page_nr,
        tables=[table],
        expected_missed=[not labeled],
    )
    tuple_sets = []
    if meanings_layout is not None:
        tuple_sets.append(_tuple_gt(table, meanings_layout, file_id, page_nr, 0))
    return FixturePage(file_id, page_nr, layout, gt, tuple_sets)


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
    gamma: float = 2.0,
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

    meanings_layout = _interpretation_columns(rng, cols) if columns_mode == "interpretation" else None

    # column text: one token per body cell, titles in the lowest header row
    titles = (
        meanings_layout["titles"]
        if meanings_layout is not None
        else [_token(rng, 2).capitalize() for _ in range(cols)]
    )
    body_text = [
        [
            meanings_layout["make_value"][j](rng) if meanings_layout is not None else _token(rng)
            for j in range(cols)
        ]
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
    slots = [x0]
    for j in range(1, cols):
        slots.append(slots[-1] + col_w[j - 1] + gaps[j - 1])
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
    level_cells: list[list[tuple[int, int]]] = []
    for level in cmidrule_levels:
        ranges = sorted(level)
        for a, b in ranges:
            span_l, span_r = slots[a], slots[b] + col_w[b]
            text = _token(rng, 2).capitalize()
            tw = min(word_w(text), span_r - span_l - 10)
            tx = span_l + (span_r - span_l - tw) // 2
            words.append(
                Word(box=BoundingBox(tx, y + 4, tx + tw, y + 4 + WORD_HEIGHT), text=text, line_id=line_id)
            )
            separators.append(_h_rule(span_l - 2, y + 27, span_r + 2))
        level_rule_centers.append(y + 27)
        level_cells.append(ranges)
        line_id += 1
        y += 34

    # lowest header row
    for j in range(cols):
        w = _word(rng, slots[j], y + 6, titles[j], line_id)
        if w.box.width > col_w[j]:
            w = Word(
                box=BoundingBox(w.box.left, w.box.top, w.box.left + col_w[j], w.box.bottom),
                text=w.text,
                line_id=w.line_id,
            )
        words.append(w)
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
            w = _word(rng, slots[j], ty, body_text[i][j], line_id)
            # clamp into the column slot so gaps stay exact
            if w.box.width > col_w[j]:
                w = Word(
                    box=BoundingBox(w.box.left, w.box.top, w.box.left + col_w[j], w.box.bottom),
                    text=w.text,
                    line_id=w.line_id,
                )
            words.append(w)
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

    cells: list[Cell] = []
    n_header = n_levels + 1
    n_rows_total = n_header + rows
    for r in range(n_rows_total):
        ry0, ry1 = row_borders[r], row_borders[r + 1]
        if r < n_levels:
            merged = {}
            for a, b in level_cells[r]:
                for j in range(a, b + 1):
                    merged[j] = (a, b)
            j = 0
            while j < cols:
                a, b = merged.get(j, (j, j))
                cells.append(
                    make_cell(
                        BoundingBox(col_borders[a], ry0, col_borders[b + 1], ry1), r, r, a, b
                    )
                )
                j = b + 1
        else:
            for j in range(cols):
                cells.append(
                    make_cell(
                        BoundingBox(col_borders[j], ry0, col_borders[j + 1], ry1), r, r, j, j
                    )
                )
    cells = assign_words_to_cells(cells, words)
    table = RecognizedTable(
        region=region,
        n_rows=n_rows_total,
        n_cols=cols,
        cells=tuple(cells),
        labeled=labeled,
        source=TableSource.BOOKTABS,
        header_row_count=n_header,
    )
    layout = PageLayout(
        page_width=max(rule_r + 80, 1000),
        page_height=max(bottom_y + 120, 1200),
        words=tuple(words),
        separators=tuple(separators),
    )
    gt = PageTables(file_id=file_id, page_nr=page_nr, tables=[table], expected_missed=[not labeled])
    tuple_sets = []
    if meanings_layout is not None:
        tuple_sets.append(_tuple_gt(table, meanings_layout, file_id, page_nr, 0))
    return FixturePage(file_id, page_nr, layout, gt, tuple_sets)


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


def _tuple_gt(
    table: RecognizedTable, meanings_layout: dict, file_id: str, page_nr: int, table_idx: int
) -> TupleSet:
    from .interpret import header_row_count_for

    grid = cell_grid(table)
    n_header = header_row_count_for(table)
    ts = TupleSet(file_id=file_id, page_nr=page_nr, table_idx=table_idx)
    for i in range(n_header, table.n_rows):
        values = {
            name: grid[i][col].content
            for col, name in sorted(meanings_layout["meaning_of_col"].items())
        }
        ts.tuples.append(RowTuple(row=i - n_header, values=values))
    return ts


# ---------------------------------------------------------------------------
# perturbation and corpus assembly


def shift_separators(layout: PageLayout, rng: random.Random, magnitude: int) -> PageLayout:
    """Translate every ruling independently by up to ``magnitude`` px per axis."""
    moved = []
    for sep in layout.separators:
        dx = rng.randint(-magnitude, magnitude)
        dy = rng.randint(-magnitude, magnitude)
        b = sep.box
        moved.append(
            Separator(
                box=BoundingBox(b.left + dx, b.top + dy, b.right + dx, b.bottom + dy),
                orientation=sep.orientation,
            )
        )
    return PageLayout(
        page_width=layout.page_width,
        page_height=layout.page_height,
        words=layout.words,
        separators=tuple(moved),
        non_text_regions=layout.non_text_regions,
    )


def _transpose_fixture(page: FixturePage) -> FixturePage:
    layout = transpose_layout(page.layout)
    gt = PageTables(
        file_id=page.gt.file_id,
        page_nr=page.gt.page_nr,
        tables=[transpose_table(t) for t in page.gt.tables],
        orientation="vertical",
        diagnostics=page.gt.diagnostics,
        expected_missed=page.gt.expected_missed,
    )
    return FixturePage(page.file_id, page.page_nr, layout, gt, page.tuple_sets)


def _page_from_spec(rng: random.Random, entry: dict) -> FixturePage:
    kind = entry.get("kind")
    if kind not in ("bordered", "booktabs"):
        raise ConfigError(f"unknown fixture kind: {kind!r}")
    file_id = entry.get("file_id")
    page_nr = entry.get("page_nr")
    if not isinstance(file_id, str) or not file_id:
        raise ConfigError("fixture page needs a non-empty 'file_id'")
    if not isinstance(page_nr, int) or page_nr < 0:
        raise ConfigError("fixture page needs a non-negative integer 'page_nr'")
    common = dict(
        rows=entry.get("rows"),
        cols=entry.get("cols"),
        labeled=bool(entry.get("labeled", True)),
        columns_mode="interpretation" if entry.get("interpretation") else None,
    )
    if kind == "bordered":
        merges = None
        if "merges" in entry:
            merges = [
                MergeSpec(m["row"], m["col"], m["dir"]) for m in entry["merges"]
            ]
            for m in merges:
                if m.direction not in ("right", "down"):
                    raise ConfigError(f"unknown merge direction: {m.direction!r}")
        page = gen_bordered_page(rng, file_id, page_nr, merges=merges, **common)
    else:
        levels = None
        if "cmidrule_levels" in entry:
            levels = [
                [(int(a), int(b)) for a, b in level] for level in entry["cmidrule_levels"]
            ]
        page = gen_booktabs_page(rng, file_id, page_nr, cmidrule_levels=levels, **common)
    if entry.get("orientation", "standard") == "vertical":
        page = _transpose_fixture(page)
    return page


def generate_pages(spec: dict) -> list[FixturePage]:
    """All fixture pages for a corpus spec, in deterministic order."""
    seed = spec.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer")
    rng = random.Random(seed)
    pages = [_page_from_spec(rng, entry) for entry in spec.get("pages", [])]
    rand = spec.get("random", {})
    if not isinstance(rand, dict):
        raise ConfigError("'random' must be an object")
    known = {"bordered", "booktabs", "interpretation"}
    unknown = set(rand) - known
    if unknown:
        raise ConfigError(f"unknown random corpus groups: {sorted(unknown)}")

    def _count(group: str) -> int:
        entry = rand.get(group, {})
        n = entry.get("count", 0)
        if not isinstance(n, int) or n < 0:
            raise ConfigError(f"random.{group}.count must be a non-negative integer")
        return n

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


def corpus_recognizer_config(gamma: float = 2.0) -> RecognizerConfig:
    return RecognizerConfig(
        gamma=gamma,
        require_labels_separator=True,
        require_labels_booktabs=True,
    )


def build_corpus(spec: dict, out_dir: str | Path) -> dict:
    """Write layouts, ground truth, and configs for a corpus spec.

    Returns a summary manifest (file counts per artifact kind).
    """
    out = Path(out_dir)
    layouts_dir = out / "layouts"
    rec_dir = out / "recognition_gt"
    tup_dir = out / "interpretation_gt"
    for d in (layouts_dir, rec_dir, tup_dir):
        d.mkdir(parents=True, exist_ok=True)

    pages = generate_pages(spec)
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
    return {
        "pages": len(pages),
        "layouts": len(pages),
        "recognition_gt": len(pages),
        "tuple_sets": n_tuple_sets,
    }
