"""Grid recognition for tables ruled only by horizontal lines.

The target format is three aligned full-width rules (top, middle,
bottom) with optional shorter grouping rules between top and middle.
Rows come from the gaps of a text projection profile; columns from gaps
wider than a threshold calibrated on the page's own word spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateGrid, EmptyBody, InsufficientContext
from .geometry import BoundingBox, contains_point, union_box
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
)
from .separator import column_runs, has_table_label, split_at_gaps


@dataclass(frozen=True)
class RuleTriple:
    top: Separator
    middle: Separator
    bottom: Separator
    inner_rules: tuple[Separator, ...]

    @property
    def extent(self) -> BoundingBox:
        return union_box([self.top.box, self.middle.box, self.bottom.box])

    @property
    def region(self) -> BoundingBox:
        """``extent`` cut to the top rule's top and the bottom rule's bottom."""
        e = self.extent
        return BoundingBox(e.left, self.top.box.top, e.right, self.bottom.box.bottom)


@dataclass(frozen=True)
class HeaderLevel:
    band: tuple[int, int]  # (top, bottom) hull of the level's rule boxes
    rules: tuple[Separator, ...]


@dataclass(frozen=True, eq=False)
class Profile:
    origin: int
    values: list[int]


@dataclass(frozen=True)
class ColumnThreshold:
    d_page: float
    h_table: float
    d_column: float


def _aligned(a: Separator, b: Separator) -> bool:
    tol = max(5.0, 0.02 * max(a.box.width, b.box.width))
    return abs(a.box.left - b.box.left) <= tol and abs(a.box.right - b.box.right) <= tol


def find_rule_triples(horizontals: list[Separator] | tuple[Separator, ...]) -> list[RuleTriple]:
    """Greedy top-down scan for aligned (top, middle, bottom) rule triples.

    Each two of the three rules must have left and right edges that agree
    within max(5 px, 2 % of the wider rule's width).
    Rules strictly between top and middle that overlap the triple's
    x-extent become its inner (grouping) rules.
    """
    rules = sorted(horizontals, key=lambda s: (s.box.top, s.box.left, s.box.right))
    used = [False] * len(rules)
    triples: list[RuleTriple] = []
    for ia, a in enumerate(rules):
        if used[ia]:
            continue
        picked = None
        for ib in range(ia + 1, len(rules)):
            if used[ib] or not _aligned(a, rules[ib]):
                continue
            for ic in range(ib + 1, len(rules)):
                if used[ic]:
                    continue
                if _aligned(a, rules[ic]) and _aligned(rules[ib], rules[ic]):
                    picked = (ib, ic)
                    break
            if picked:
                break
        if not picked:
            continue
        ib, ic = picked
        b, c = rules[ib], rules[ic]
        used[ia] = used[ib] = used[ic] = True
        extent = union_box([a.box, b.box, c.box])
        top_y, mid_y = a.box.center[1], b.box.center[1]
        inner = []
        for ii, r in enumerate(rules):
            if used[ii]:
                continue
            y = r.box.center[1]
            if top_y < y < mid_y and r.box.left < extent.right and extent.left < r.box.right:
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


def _profile(words, region: BoundingBox, axis: str) -> Profile:
    starts, ends, weights = [], [], []
    for w in words:
        b = w.box
        l = max(b.left, region.left)
        t = max(b.top, region.top)
        r = min(b.right, region.right)
        bt = min(b.bottom, region.bottom)
        if r <= l or bt <= t:
            continue
        if axis == "y":
            starts.append(t - region.top)
            ends.append(bt - region.top)
            weights.append(r - l)
        else:
            starts.append(l - region.left)
            ends.append(r - region.left)
            weights.append(bt - t)
    length = region.height if axis == "y" else region.width
    values = interval_profile(starts, ends, weights, length)
    origin = region.top if axis == "y" else region.left
    return Profile(origin=origin, values=values)


def horizontal_profile(words: list[Word] | tuple[Word, ...], region: BoundingBox) -> Profile:
    """values[y - region.top] = total width of word boxes covering row y."""
    return _profile(words, region, "y")


def vertical_profile(words: list[Word] | tuple[Word, ...], region: BoundingBox) -> Profile:
    """values[x - region.left] = total height of word boxes covering column x."""
    return _profile(words, region, "x")


def _interior_zero_runs(values: list[int]) -> list[tuple[int, int]]:
    """Maximal zero runs not touching either end of the profile."""
    runs = []
    n = len(values)
    i = 0
    while i < n:
        if values[i] == 0:
            j = i
            while j < n and values[j] == 0:
                j += 1
            if i > 0 and j < n:
                runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def segment_rows(profile: Profile) -> list[int]:
    """Row borders at the midpoints of interior zero gaps (absolute y)."""
    if not any(profile.values):
        raise EmptyBody("projection profile is entirely zero")
    return [profile.origin + (s + e) // 2 for s, e in _interior_zero_runs(profile.values)]


def segment_columns(
    projection_words: list[Word] | tuple[Word, ...],
    region: BoundingBox,
    d_column: float,
) -> list[int]:
    """Column borders at centers of interior zero gaps longer than d_column."""
    profile = vertical_profile(projection_words, region)
    if not any(profile.values):
        raise EmptyBody("column projection profile is entirely zero")
    return [
        profile.origin + (s + e) // 2
        for s, e in _interior_zero_runs(profile.values)
        if (e - s) > d_column
    ]


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
        raise DegenerateGrid(f"non-increasing borders for triple at {triple.extent.as_tuple()}")

    n_rows, n_cols = len(ys) - 1, len(xs) - 1
    spans = []
    for r in range(n_rows):
        # a grouping rule joins the two columns beside each border it crosses
        joined = {
            j
            for rule in (levels[r].rules if r < len(levels) else ())
            for j in range(n_cols - 1)
            if rule.box.left < xs[j + 1] < rule.box.right
        }
        spans += [(r, r, cs, ce) for cs, ce in column_runs(n_cols, joined)]

    cells = assign_words_to_cells(spans, words, ys, xs)
    return RecognizedTable(
        region=region,
        n_rows=n_rows,
        n_cols=n_cols,
        cells=tuple(cells),
        labeled=labeled,
        source=TableSource.BOOKTABS,
        header_row_count=len(levels) + 1,
    )


def recognize_booktabs_tables(
    layout: PageLayout, cfg: RecognizerConfig
) -> tuple[list[RecognizedTable], list[str]]:
    horizontals = [
        s for s in layout.separators if s.orientation is SeparatorOrientation.HORIZONTAL
    ]
    index = layout.word_index
    tables: list[RecognizedTable] = []
    diagnostics: list[str] = []
    for triple in find_rule_triples(horizontals):
        extent = triple.extent
        labeled = has_table_label(index, extent, cfg)
        if cfg.require_labels_booktabs and not labeled:
            diagnostics.append(
                f"booktabs candidate at {extent.as_tuple()} dropped: no table label"
            )
            continue
        levels = group_inner_rules(triple)
        region = triple.region
        if triple.middle.box.bottom >= triple.bottom.box.top:
            diagnostics.append(
                f"booktabs candidate at {extent.as_tuple()} dropped: no body region"
            )
            continue
        body_region = BoundingBox(
            region.left, triple.middle.box.bottom, region.right, triple.bottom.box.top
        )
        try:
            body_words = index.touching(body_region.top, body_region.bottom)
            body_borders = segment_rows(horizontal_profile(body_words, body_region))
            lowest_band_top = levels[-1].band[1] if levels else triple.top.box.bottom
            if lowest_band_top > triple.middle.box.top:
                raise DegenerateGrid(
                    "no room for a header row between the inner rules and the middle rule"
                )
            lowest_band = BoundingBox(
                region.left, lowest_band_top, region.right, triple.middle.box.top
            )
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
            threshold = compute_column_threshold(layout, table_words, cfg.gamma)
            col_borders = segment_columns(projection_words, region, threshold.d_column)
            # the grid tiles region, so its words are exactly table_words
            table = build_booktabs_grid(
                triple, levels, body_borders, col_borders, labeled, table_words
            )
        except (EmptyBody, InsufficientContext, DegenerateGrid) as exc:
            diagnostics.append(f"booktabs candidate at {extent.as_tuple()} dropped: {exc}")
            continue
        tables.append(table)
    tables.sort(key=lambda t: (t.region.top, t.region.left))
    return tables, diagnostics
