"""Grid recognition for fully or partially ruled tables.

Ruling lines are expanded by a few pixels so almost-touching lines
count as crossing, then merged into clusters; clusters containing both
orientations become table candidates.  A rough grid comes from the
distinct border coordinates, and neighboring rough cells merge wherever
no ruling separates them (raster scan, then the same top-down).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dsu import UnionFind
from .errors import DegenerateGrid
from .geometry import BoundingBox, expand, intersects, union_box
from .model import (
    Cell,
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    WordIndex,
    assign_words_to_cells,
    make_cell,
)

# Coordinates whose centers land this close together are one border.
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

    Merging runs to a fixed point: a cluster absorbs another as soon as
    any pair of member boxes intersects, which is exactly the connected
    components of the pairwise intersection graph.  A sweep down the page
    finds those pairs: each grown box is tested only against the boxes
    still open at its top edge.
    """
    raw = sorted(separators, key=_sort_key)
    grown = [expand(s.box, expand_px) for s in raw]
    uf = UnionFind(len(grown))
    open_: list[int] = []
    for j in sorted(range(len(grown)), key=lambda i: grown[i].top):
        bj = grown[j]
        open_ = [i for i in open_ if grown[i].bottom >= bj.top]
        for i in open_:
            if grown[i].left <= bj.right and bj.left <= grown[i].right:
                uf.union(i, j)
        open_.append(j)

    clusters = []
    for indices in uf.groups().values():
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


def assign_table_label(
    candidate_hull: BoundingBox,
    words: list[Word] | tuple[Word, ...],
    cfg: RecognizerConfig,
) -> bool:
    """True iff a word near the hull's top or bottom edge starts with a keyword."""
    m = cfg.label_search_margin_px
    above = BoundingBox(
        candidate_hull.left - m, candidate_hull.top - m, candidate_hull.right + m, candidate_hull.top
    )
    below = BoundingBox(
        candidate_hull.left - m,
        candidate_hull.bottom,
        candidate_hull.right + m,
        candidate_hull.bottom + m,
    )
    keywords = [k.lower() for k in cfg.label_keywords]
    for w in words:
        if not (intersects(w.box, above) or intersects(w.box, below)):
            continue
        text = w.text.lower()
        if any(text.startswith(k) for k in keywords):
            return True
    return False


def label_candidates(
    words: WordIndex, candidate_hull: BoundingBox, cfg: RecognizerConfig
) -> list[Word]:
    """The page's words that can meet either band assign_table_label searches."""
    m = cfg.label_search_margin_px
    return words.touching(candidate_hull.top - m, candidate_hull.top) + words.touching(
        candidate_hull.bottom, candidate_hull.bottom + m
    )


def _cluster_coords(values: list[float], tol: float = BORDER_CLUSTER_TOL) -> list[int]:
    """Collapse close coordinates into single borders (chain clustering)."""
    if not values:
        return []
    values = sorted(values)
    groups: list[list[float]] = [[values[0]]]
    for v in values[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [int(sum(g) / len(g) + 0.5) for g in groups]


def estimate_grid(cluster: SeparatorCluster) -> RoughGrid:
    row_borders = _cluster_coords([s.box.center[1] for s in cluster.horizontals])
    col_borders = _cluster_coords([s.box.center[0] for s in cluster.verticals])
    if len(row_borders) < 2 or len(col_borders) < 2:
        raise DegenerateGrid(
            f"cluster at {cluster.hull.as_tuple()} has {len(row_borders)} row "
            f"and {len(col_borders)} column borders"
        )
    return RoughGrid(tuple(row_borders), tuple(col_borders))


def _strip_hits_separator(
    l: float, t: float, r: float, b: float, separators: list[Separator]
) -> bool:
    for s in separators:
        sb = s.box
        if sb.left < r and l < sb.right and sb.top < b and t < sb.bottom:
            return True
    return False


def refine_grid(
    grid: RoughGrid,
    cluster: SeparatorCluster,
    words: list[Word] | tuple[Word, ...] = (),
) -> RecognizedTable:
    """Merge rough cells not separated by a ruling into final cells.

    Left-to-right first, then top-down; a top-down merge additionally
    requires equal column spans, which keeps every cell rectangular.
    """
    rb, cb = grid.row_borders, grid.col_borders
    n_rows, n_cols = len(rb) - 1, len(cb) - 1
    verticals = cluster.verticals
    horizontals = cluster.horizontals

    uf = UnionFind(n_rows * n_cols)
    pos = lambda i, j: i * n_cols + j

    for i in range(n_rows):
        y0, y1 = rb[i], rb[i + 1]
        inset = (y1 - y0) * (1.0 - PROBE_SPAN_FRACTION) / 2.0
        st, sb_ = y0 + inset, y1 - inset
        for j in range(n_cols - 1):
            x = cb[j + 1]
            if not _strip_hits_separator(
                x - PROBE_HALF_WIDTH, st, x + PROBE_HALF_WIDTH, sb_, verticals
            ):
                uf.union(pos(i, j), pos(i, j + 1))

    # runs per row as produced by the horizontal pass
    def row_runs(i: int) -> list[tuple[int, int]]:
        runs = []
        j = 0
        while j < n_cols:
            k = j
            while k + 1 < n_cols and uf.find(pos(i, k + 1)) == uf.find(pos(i, j)):
                k += 1
            runs.append((j, k))
            j = k + 1
        return runs

    runs_by_row = [row_runs(i) for i in range(n_rows)]
    for i in range(n_rows - 1):
        below = {run[0]: run for run in runs_by_row[i + 1]}
        for cs, ce in runs_by_row[i]:
            if below.get(cs) != (cs, ce):
                continue  # unequal column spans never merge
            x0, x1 = cb[cs], cb[ce + 1]
            inset = (x1 - x0) * (1.0 - PROBE_SPAN_FRACTION) / 2.0
            y = rb[i + 1]
            if not _strip_hits_separator(
                x0 + inset, y - PROBE_HALF_WIDTH, x1 - inset, y + PROBE_HALF_WIDTH, horizontals
            ):
                uf.union(pos(i, cs), pos(i + 1, cs))

    spans: dict[int, list[int]] = {}
    for i in range(n_rows):
        for j in range(n_cols):
            root = uf.find(pos(i, j))
            if root not in spans:
                spans[root] = [i, i, j, j, 0]
            s = spans[root]
            s[0], s[1] = min(s[0], i), max(s[1], i)
            s[2], s[3] = min(s[2], j), max(s[3], j)
            s[4] += 1

    cells: list[Cell] = []
    for rs, re_, cs, ce, count in spans.values():
        if count != (re_ - rs + 1) * (ce - cs + 1):  # merged cells stay rectangular
            raise AssertionError("non-rectangular merge")
        cells.append(
            make_cell(BoundingBox(cb[cs], rb[rs], cb[ce + 1], rb[re_ + 1]), rs, re_, cs, ce)
        )
    cells.sort(key=lambda c: (c.row_start, c.col_start))
    cells = assign_words_to_cells(cells, words)

    return RecognizedTable(
        region=BoundingBox(cb[0], rb[0], cb[-1], rb[-1]),
        n_rows=n_rows,
        n_cols=n_cols,
        cells=tuple(cells),
        labeled=False,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )


def recognize_separator_tables(
    layout: PageLayout, cfg: RecognizerConfig
) -> tuple[list[RecognizedTable], list[str]]:
    index = layout.word_index
    tables: list[RecognizedTable] = []
    diagnostics: list[str] = []
    for cluster in merge_separators(list(layout.separators), cfg.separator_expand_px):
        labeled = assign_table_label(
            cluster.hull, label_candidates(index, cluster.hull, cfg), cfg
        )
        if cfg.require_labels_separator and not labeled:
            diagnostics.append(
                f"separator candidate at {cluster.hull.as_tuple()} dropped: no table label"
            )
            continue
        try:
            grid = estimate_grid(cluster)
        except DegenerateGrid as exc:
            diagnostics.append(f"separator candidate dropped: {exc}")
            continue
        # the refined cells tile the rough grid, so a word centered outside its rows lands nowhere
        words = index.centered(grid.row_borders[0], grid.row_borders[-1])
        table = refine_grid(grid, cluster, words)
        tables.append(replace(table, labeled=labeled))
    return tables, diagnostics
