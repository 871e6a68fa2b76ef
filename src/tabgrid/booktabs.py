"""Grid recognition for tables ruled only by horizontal lines.

The target format is three aligned full-width rules (top, middle,
bottom) with optional shorter grouping rules between top and middle,
found among the horizontal rulings that no accepted ruled table owns.
Rows and columns are both cut at the gaps of a text projection profile
inside the triple's region: rows at every gap, columns at gaps wider than
a threshold calibrated on the page's own word spacing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DegenerateGrid, EmptyBody, InsufficientContext
from .geometry import BoundingBox, contains_point, expand, union_box
from .kernels import interval_profile
from .model import (
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    assign_words_to_cells,
    grid_spans,
    grid_table,
)
from .separator import BORDER_CLUSTER_TOL, has_table_label, split_at_gaps


@dataclass(frozen=True)
class RuleTriple:
    top: Separator
    middle: Separator
    bottom: Separator
    inner_rules: tuple[Separator, ...]

    @property
    def region(self) -> BoundingBox:
        """The three rules' hull, cut to the top rule's top and the bottom rule's bottom."""
        hull = union_box([self.top.box, self.middle.box, self.bottom.box])
        return BoundingBox(hull.left, self.top.box.top, hull.right, self.bottom.box.bottom)


@dataclass(frozen=True)
class HeaderLevel:
    band: tuple[int, int]  # (top, bottom) hull of the level's rule boxes
    rules: tuple[Separator, ...]


@dataclass(frozen=True)
class ColumnThreshold:
    d_page: float
    h_table: float
    d_column: float


def _aligned(a: Separator, b: Separator, min_tol: float) -> bool:
    tol = max(min_tol, 0.02 * max(a.box.width, b.box.width))
    return abs(a.box.left - b.box.left) <= tol and abs(a.box.right - b.box.right) <= tol


def find_rule_triples(
    horizontals: Sequence[Separator], cfg: RecognizerConfig, ruled: Sequence[BoundingBox] = ()
) -> list[RuleTriple]:
    """Greedy top-down scan for aligned (top, middle, bottom) rule triples.

    Each two of the three rules must have left and right edges that agree
    within max(2 * separator_expand_px, 2 % of the wider rule's width).
    Rules strictly between top and middle that overlap the triple's
    x-extent become its inner (grouping) rules.  A ruling centred in a
    ``ruled`` region grown by BORDER_CLUSTER_TOL is that table's and takes no part.
    """
    rules = sorted(horizontals, key=lambda s: (s.box.top, s.box.left, s.box.right))
    min_tol = 2 * cfg.separator_expand_px
    centers = [s.box.center for s in rules]
    by_y = sorted(range(len(rules)), key=lambda i: centers[i][1])
    ys = [centers[i][1] for i in by_y]
    used = [False] * len(rules)
    for r in ruled:
        grown = expand(r, BORDER_CLUSTER_TOL)
        for i in by_y[bisect_left(ys, grown.top) : bisect_left(ys, grown.bottom)]:
            used[i] = used[i] or contains_point(grown, *centers[i])
    # an aligned rule's left edge lies within reach of a's, so in near[a's bucket]:
    # the free rules of that bucket of left edges and the two beside it, in top order
    free = [i for i, u in enumerate(used) if not u]
    reach = math.ceil(max([1, min_tol] + [0.02 * rules[i].box.width for i in free]))
    near: dict[int, list[int]] = {}
    for i in free:
        k = rules[i].box.left // reach
        for key in (k - 1, k, k + 1):
            near.setdefault(key, []).append(i)
    triples: list[RuleTriple] = []
    for ia, a in enumerate(rules):
        if used[ia]:
            continue
        window = near[a.box.left // reach]
        picked = None
        for p in range(bisect_right(window, ia), len(window)):
            ib = window[p]
            if used[ib] or not _aligned(a, rules[ib], min_tol):
                continue
            for ic in map(window.__getitem__, range(p + 1, len(window))):
                if used[ic]:
                    continue
                if _aligned(a, rules[ic], min_tol) and _aligned(rules[ib], rules[ic], min_tol):
                    picked = (ib, ic)
                    break
            if picked:
                break
        if not picked:
            continue
        ib, ic = picked
        b, c = rules[ib], rules[ic]
        used[ia] = used[ib] = used[ic] = True
        hull = union_box([a.box, b.box, c.box])
        band = by_y[bisect_right(ys, centers[ia][1]) : bisect_left(ys, centers[ib][1])]
        inner = []
        for ii in sorted(band):  # in top order, which the stable sort below keeps on ties
            r = rules[ii]
            if not used[ii] and r.box.left < hull.right and hull.left < r.box.right:
                inner.append(r)
                used[ii] = True
        inner.sort(key=lambda s: (s.box.top, s.box.left))
        triples.append(RuleTriple(top=a, middle=b, bottom=c, inner_rules=tuple(inner)))
    return triples


def group_inner_rules(triple: RuleTriple) -> tuple[HeaderLevel, ...]:
    """Cluster inner rules into levels: y-centers chained within 3 px share one."""
    rules = sorted(triple.inner_rules, key=lambda s: (s.box.center[1], s.box.left))
    return tuple(
        HeaderLevel(
            band=(min(r.box.top for r in lv), max(r.box.bottom for r in lv)),
            rules=tuple(sorted(lv, key=lambda s: (s.box.left, s.box.top))),
        )
        for lv in split_at_gaps(rules, lambda s: s.box.center[1])
    )


def _gap_centers(
    words: list[Word] | tuple[Word, ...], region: BoundingBox, axis: str, min_gap: float
) -> list[int]:
    """Absolute centres of the interior zero runs longer than ``min_gap`` in the
    projection profile of the words clipped to region: along y each covered row
    weighs the covering widths, along x each column the covering heights."""
    along_y = axis == "y"
    origin, length = (region.top, region.height) if along_y else (region.left, region.width)
    starts, ends, weights = [], [], []
    for w in words:
        b = w.box
        l, t = max(b.left, region.left), max(b.top, region.top)
        r, bt = min(b.right, region.right), min(b.bottom, region.bottom)
        if r > l and bt > t:
            s, e, weight = (t, bt, r - l) if along_y else (l, r, bt - t)
            starts.append(s - origin)
            ends.append(e - origin)
            weights.append(weight)
    values = interval_profile(starts, ends, weights, length)
    if not any(values):
        raise EmptyBody(f"{'' if along_y else 'column '}projection profile is entirely zero")
    covered = [i for i, v in enumerate(values) if v]
    return [
        origin + (a + 1 + b) // 2
        for a, b in zip(covered, covered[1:])
        if b - a > 1 and b - a - 1 > min_gap
    ]


def segment_rows(words: list[Word] | tuple[Word, ...], region: BoundingBox) -> list[int]:
    """Row borders at the centres of every interior gap (absolute y)."""
    return _gap_centers(words, region, "y", 0)


def segment_columns(
    projection_words: list[Word] | tuple[Word, ...],
    region: BoundingBox,
    d_column: float,
) -> list[int]:
    """Column borders at the centres of interior gaps wider than d_column (absolute x)."""
    return _gap_centers(projection_words, region, "x", d_column)


def compute_column_threshold(
    page: PageLayout, table_words: list[Word] | tuple[Word, ...], gamma: float
) -> ColumnThreshold:
    """d_column = d_page * h_table * gamma.

    d_page is the page-wide median of (horizontal gap / mean pair
    height) over horizontally adjacent words on one line, computed once
    per page by ``WordIndex.d_page``; h_table is the candidate's mean
    word height.
    """
    d_page = page.word_index.d_page
    if d_page is None:
        raise InsufficientContext("no adjacent same-line word pairs on the page")
    if not table_words:
        raise InsufficientContext("table candidate contains no words")

    h_table = sum(w.box.height for w in table_words) / len(table_words)
    return ColumnThreshold(d_page=d_page, h_table=h_table, d_column=d_page * h_table * gamma)


def build_booktabs_grid(
    triple: RuleTriple,
    levels: tuple[HeaderLevel, ...],
    row_borders: list[int],
    col_borders: list[int],
    labeled: bool,
    words: list[Word] | tuple[Word, ...] = (),
) -> RecognizedTable:
    """Assemble the grid: header rows between top and middle rules (one
    per level plus the lowest), body rows from row_borders, and merged
    header cells joining the columns each grouping rule covers."""
    region = triple.region
    level_centers = [(lv.band[0] + lv.band[1]) // 2 for lv in levels]
    mid_y = int(triple.middle.box.center[1] + 0.5)
    ys = [region.top, *level_centers, mid_y, *sorted(row_borders), region.bottom]
    xs = [region.left, *sorted(col_borders), region.right]
    if any(b <= a for a, b in zip(ys, ys[1:])) or any(b <= a for a, b in zip(xs, xs[1:])):
        raise DegenerateGrid(f"non-increasing borders for triple at {region.as_tuple()}")

    n_rows, n_cols = len(ys) - 1, len(xs) - 1
    # a grouping rule joins the two columns beside each border it crosses
    joined = [
        {j for r in lv.rules for j in range(n_cols - 1) if r.box.left < xs[j + 1] < r.box.right}
        for lv in levels
    ]
    spans = grid_spans(n_rows, n_cols, joined)
    cells = assign_words_to_cells(spans, words, ys, xs)
    return grid_table(cells, TableSource.BOOKTABS, labeled, header_row_count=len(levels) + 1)


def _booktabs_table(
    layout: PageLayout, triple: RuleTriple, labeled: bool, gamma: float
) -> RecognizedTable:
    """The grid of a triple whose middle rule ends above its bottom rule."""
    index = layout.word_index
    levels = group_inner_rules(triple)
    region = triple.region
    body_region = BoundingBox(
        region.left, triple.middle.box.bottom, region.right, triple.bottom.box.top
    )
    body_borders = segment_rows(index.touching(body_region.top, body_region.bottom), body_region)
    lowest_band_top = levels[-1].band[1] if levels else triple.top.box.bottom
    if lowest_band_top > triple.middle.box.top:
        raise DegenerateGrid(
            "no room for a header row between the inner rules and the middle rule"
        )
    lowest_band = BoundingBox(region.left, lowest_band_top, region.right, triple.middle.box.top)
    table_words = [
        w
        for w in index.centered(region.top, region.bottom)
        if contains_point(region, *w.box.center)
    ]
    projection_words = [
        w
        for w in table_words
        if contains_point(body_region, *w.box.center)
        or contains_point(lowest_band, *w.box.center)
    ]
    threshold = compute_column_threshold(layout, table_words, gamma)
    col_borders = segment_columns(projection_words, region, threshold.d_column)
    # the grid tiles region, so its words are exactly table_words
    return build_booktabs_grid(triple, levels, body_borders, col_borders, labeled, table_words)


def recognize_booktabs_tables(
    layout: PageLayout, cfg: RecognizerConfig, ruled: Sequence[BoundingBox] = ()
) -> tuple[list[RecognizedTable], list[str]]:
    """Booktabs tables and why each other rule triple was dropped.  The
    horizontal rulings of the ``ruled`` regions are not scanned."""
    horizontals = [
        s for s in layout.separators if s.orientation is SeparatorOrientation.HORIZONTAL
    ]
    index = layout.word_index
    tables: list[RecognizedTable] = []
    diagnostics: list[str] = []
    for triple in find_rule_triples(horizontals, cfg, ruled):
        region = triple.region
        labeled = has_table_label(index, region, cfg)
        if cfg.require_labels_booktabs and not labeled:
            reason = "no table label"
        elif triple.middle.box.bottom >= triple.bottom.box.top:
            reason = "no body region"
        else:
            try:
                tables.append(_booktabs_table(layout, triple, labeled, cfg.gamma))
                continue
            except (EmptyBody, InsufficientContext, DegenerateGrid) as exc:
                reason = str(exc)
        diagnostics.append(f"booktabs candidate at {region.as_tuple()} dropped: {reason}")
    tables.sort(key=lambda t: (t.region.top, t.region.left))
    return tables, diagnostics
