"""Grid recognition for fully or partially ruled tables.

Ruling lines are expanded by a few pixels so almost-touching lines
count as crossing, then merged into clusters; clusters containing both
orientations become table candidates.  A rough grid comes from the
distinct border coordinates.  The rough cells then join into final cells
by ``model.grid_spans``, the one rule that joins grid slots into cells in
both recognizers and both fixture generators: in each row, rough cells with
no vertical ruling between them join into runs of columns, and a run's cell
extends down through every row below that has the same run and no
horizontal ruling above it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .dsu import linked_groups
from .errors import DegenerateGrid
from .geometry import BoundingBox, expand, intersects, union_box
from .model import (
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    WordIndex,
    assign_words_to_cells,
    grid_spans,
    grid_table,
)

# Rulings whose centers land this close together, in a chain, are one
# border of a grid or one header level of a booktabs table.
BORDER_CLUSTER_TOL = 3.0
# Probe strip queried for rulings at a shared border: 4 px wide,
# spanning the middle 60 % of the cell extent along the border.
PROBE_HALF_WIDTH = 2.0
PROBE_SPAN_FRACTION = 0.6


@dataclass(frozen=True)
class SeparatorCluster:
    raw_members: tuple[Separator, ...]
    hull: BoundingBox  # union of the members' boxes, grown by the expansion margin

    @property
    def horizontals(self) -> list[Separator]:
        return [s for s in self.raw_members if s.orientation is SeparatorOrientation.HORIZONTAL]

    @property
    def verticals(self) -> list[Separator]:
        return [s for s in self.raw_members if s.orientation is SeparatorOrientation.VERTICAL]


@dataclass(frozen=True)
class RoughGrid:
    row_borders: tuple[int, ...]
    col_borders: tuple[int, ...]


def _sort_key(s: Separator) -> tuple:
    if s.orientation is SeparatorOrientation.HORIZONTAL:
        return (0, s.box.top, s.box.left, s.box.bottom, s.box.right)
    return (1, s.box.left, s.box.top, s.box.right, s.box.bottom)


def merge_separators(
    separators: list[Separator] | tuple[Separator, ...], expand_px: int = 5
) -> list[SeparatorCluster]:
    """Cluster rulings whose expanded boxes touch; keep mixed-orientation clusters.

    A cluster absorbs another as soon as any pair of member boxes
    intersects: the clusters are the connected components of the pairwise
    intersection graph, found in one sweep down the page (``linked_groups``).
    """
    raw = sorted(separators, key=_sort_key)
    clusters = []
    for indices in linked_groups([expand(s.box, expand_px) for s in raw], intersects):
        members = [raw[i] for i in indices]
        if len({m.orientation for m in members}) < 2:
            continue  # rulings alone in one direction never form a table
        clusters.append(
            SeparatorCluster(
                raw_members=tuple(members),
                hull=expand(union_box([m.box for m in members]), expand_px),
            )
        )
    clusters.sort(key=lambda c: (c.hull.top, c.hull.left, c.hull.bottom, c.hull.right))
    return clusters


def has_table_label(words: WordIndex, hull: BoundingBox, cfg: RecognizerConfig) -> bool:
    """True iff a word that starts with a label keyword (case-insensitive)
    meets the band ``label_search_margin_px`` above the hull's top edge or
    below its bottom edge, each band widened by the margin left and right;
    a band may start left of or above the page."""
    m = cfg.label_search_margin_px
    keywords = tuple(k.lower() for k in cfg.label_keywords)
    near = words.touching(BoundingBox(hull.left - m, hull.top - m, hull.right + m, hull.top))
    near += words.touching(BoundingBox(hull.left - m, hull.bottom, hull.right + m, hull.bottom + m))
    return any(w.text.lower().startswith(keywords) for w in near)


def split_at_gaps(items: list, key) -> list[list]:
    """Cut items sorted by ``key`` wherever the key grows by more than BORDER_CLUSTER_TOL."""
    groups: list[list] = []
    for item in items:
        if groups and key(item) - key(groups[-1][-1]) <= BORDER_CLUSTER_TOL:
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


def _cluster_coords(values: list[float]) -> list[int]:
    """Collapse close coordinates into single borders, each their mean."""
    return [int(sum(g) / len(g) + 0.5) for g in split_at_gaps(sorted(values), float)]


def estimate_grid(cluster: SeparatorCluster) -> RoughGrid:
    row_borders = _cluster_coords([s.box.center[1] for s in cluster.horizontals])
    col_borders = _cluster_coords([s.box.center[0] for s in cluster.verticals])
    if len(row_borders) < 2 or len(col_borders) < 2:
        raise DegenerateGrid(f"{len(row_borders)} row and {len(col_borders)} column borders")
    return RoughGrid(tuple(row_borders), tuple(col_borders))


def _strip_hits_separator(
    separators: list[Separator], l: float, r: float, t: float, b: float
) -> bool:
    for s in separators:
        sb = s.box
        if sb.left < r and l < sb.right and sb.top < b and t < sb.bottom:
            return True
    return False


def _middle(a: int, b: int) -> tuple[float, float]:
    """The middle PROBE_SPAN_FRACTION of [a, b], along which a probe strip runs."""
    inset = (b - a) * (1.0 - PROBE_SPAN_FRACTION) / 2.0
    return a + inset, b - inset


def _by_border(
    borders: tuple[int, ...], rulings: list[Separator], vertical: bool
) -> list[list[Separator]]:
    """For each border, the rulings whose extent across the borders meets
    its probe strip (border - PROBE_HALF_WIDTH, border + PROBE_HALF_WIDTH);
    each extent is bisected into the increasing borders once."""
    near: list[list[Separator]] = [[] for _ in borders]
    for s in rulings:
        lo, hi = (s.box.left, s.box.right) if vertical else (s.box.top, s.box.bottom)
        first = bisect_right(borders, lo - PROBE_HALF_WIDTH)
        for k in range(first, bisect_left(borders, hi + PROBE_HALF_WIDTH)):
            near[k].append(s)
    return near


def refine_grid(
    grid: RoughGrid,
    cluster: SeparatorCluster,
    words: list[Word] | tuple[Word, ...] = (),
    labeled: bool = False,
) -> RecognizedTable:
    """Merge rough cells not separated by a ruling into final cells.

    Through ``grid_spans``, each row splits into runs of columns with no
    vertical ruling between them; a cell then extends downward while the
    next row has the same run and no horizontal ruling crosses the run
    between the two rows, which keeps every cell rectangular.
    """
    rb, cb = grid.row_borders, grid.col_borders
    n_rows, n_cols = len(rb) - 1, len(cb) - 1
    # a probe at a border can only hit the rulings that meet its strip
    at_col = _by_border(cb, cluster.verticals, vertical=True)
    at_row = _by_border(rb, cluster.horizontals, vertical=False)
    half = PROBE_HALF_WIDTH

    joined = []
    for i in range(n_rows):
        t, b = _middle(rb[i], rb[i + 1])
        joined.append({
            j
            for j in range(n_cols - 1)
            if not _strip_hits_separator(at_col[j + 1], cb[j + 1] - half, cb[j + 1] + half, t, b)
        })

    def continues(i: int, run: tuple[int, int]) -> bool:
        """No horizontal ruling crosses ``run`` between rows i and i + 1."""
        cs, ce = run
        return not _strip_hits_separator(
            at_row[i + 1], *_middle(cb[cs], cb[ce + 1]), rb[i + 1] - half, rb[i + 1] + half
        )

    spans = grid_spans(n_rows, n_cols, joined, continues)
    return grid_table(assign_words_to_cells(spans, words, rb, cb), TableSource.SEPARATOR, labeled)


def recognize_separator_tables(
    layout: PageLayout, cfg: RecognizerConfig
) -> tuple[list[RecognizedTable], list[tuple[str, BoundingBox, str]]]:
    """Ruled tables, and a ``("separator", hull, reason)`` drop for each other cluster."""
    index = layout.word_index
    tables: list[RecognizedTable] = []
    drops: list[tuple[str, BoundingBox, str]] = []
    for cluster in merge_separators(list(layout.separators), cfg.separator_expand_px):
        labeled = has_table_label(index, cluster.hull, cfg)
        if cfg.require_labels_separator and not labeled:
            drops.append(("separator", cluster.hull, "no table label"))
            continue
        try:
            grid = estimate_grid(cluster)
        except DegenerateGrid as exc:
            drops.append(("separator", cluster.hull, str(exc)))
            continue
        rb, cb = grid.row_borders, grid.col_borders
        # the refined cells tile the rough grid, so these are exactly the words they keep
        words = index.centered_in(BoundingBox(cb[0], rb[0], cb[-1], rb[-1]))
        tables.append(refine_grid(grid, cluster, words, labeled))
    return tables, drops
