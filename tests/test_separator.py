import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid import separator
from tabgrid.dsu import UnionFind
from tabgrid.errors import DegenerateGrid
from tabgrid.fixtures import gen_bordered_page
from tabgrid.geometry import box, expand, intersects, union_box
from tabgrid.model import (
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    Word,
    WordIndex,
    column_runs,
)
from tabgrid.separator import (
    RoughGrid,
    SeparatorCluster,
    _sort_key,
    _strip_hits_separator,
    estimate_grid,
    has_table_label,
    merge_separators,
    recognize_separator_tables,
    refine_grid,
)


def h_sep(x0, y, x1, thickness=2):
    half = thickness // 2
    return Separator(box=box(x0, y - half, x1, y + half),
                     orientation=SeparatorOrientation.HORIZONTAL)


def v_sep(x, y0, y1, thickness=2):
    half = thickness // 2
    return Separator(box=box(x - half, y0, x + half, y1),
                     orientation=SeparatorOrientation.VERTICAL)


def grid_seps(xs, ys):
    """Full ruling set for a grid with column borders xs and row borders ys."""
    seps = [v_sep(x, ys[0], ys[-1]) for x in xs]
    seps += [h_sep(xs[0], y, xs[-1]) for y in ys]
    return seps


def test_single_crossing_cluster():
    seps = [h_sep(10, 51, 90), v_sep(51, 10, 90)]
    clusters = merge_separators(seps, expand_px=5)
    assert len(clusters) == 1
    c = clusters[0]
    assert sorted(c.raw_members, key=lambda s: s.orientation.value) == seps
    # union of (10, 50, 90, 52) and (50, 10, 52, 90), grown by 5 px
    assert c.hull == box(5, 5, 95, 95)


def test_parallel_only_clusters_discarded():
    seps = [h_sep(0, 10, 100), h_sep(0, 14, 100), v_sep(300, 0, 80)]
    # horizontals touch each other once expanded, but no vertical joins them
    assert merge_separators(seps, expand_px=5) == []


def test_disjoint_groups_stay_separate():
    a = grid_seps([0, 50], [0, 40])
    b = grid_seps([300, 360], [300, 340])
    clusters = merge_separators(a + b, expand_px=5)
    assert len(clusters) == 2
    assert [set(c.raw_members) for c in clusters] == [set(a), set(b)]
    assert [c.hull for c in clusters] == [box(-6, -6, 56, 46), box(294, 294, 366, 346)]


def test_three_by_three_grid_intersections():
    seps = grid_seps([0, 40, 80, 120], [0, 30, 60, 90])
    clusters = merge_separators(seps, expand_px=5)
    assert len(clusters) == 1
    assert set(clusters[0].raw_members) == set(seps)
    assert clusters[0].hull == box(-6, -6, 126, 96)
    g = estimate_grid(clusters[0])
    assert list(g.col_borders) == [0, 40, 80, 120]
    assert list(g.row_borders) == [0, 30, 60, 90]


def test_expansion_bridges_small_gaps():
    # vertical stops 4 px short of the horizontal: still one cluster
    seps = [h_sep(0, 50, 100), v_sep(50, 53, 90)]
    assert len(merge_separators(seps, expand_px=5)) == 1
    # but an 11 px gap exceeds two 5 px expansions
    seps = [h_sep(0, 50, 100), v_sep(50, 62, 90)]
    assert merge_separators(seps, expand_px=5) == []


def test_merge_order_insensitive():
    rng = random.Random(9)
    seps = grid_seps([0, 60, 120, 180, 240], [0, 35, 70, 105])
    want = merge_separators(seps, expand_px=5)
    for _ in range(10):
        shuffled = seps[:]
        rng.shuffle(shuffled)
        got = merge_separators(shuffled, expand_px=5)
        assert got == want


def merge_separators_oracle(separators, expand_px):
    """Union-find over every pair of grown boxes."""
    raw = sorted(separators, key=_sort_key)
    grown = [expand(s.box, expand_px) for s in raw]
    uf = UnionFind(len(raw))
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            if intersects(grown[i], grown[j]):
                uf.union(i, j)
    clusters = []
    for indices in uf.groups().values():
        if len({raw[i].orientation for i in indices}) < 2:
            continue
        clusters.append(
            SeparatorCluster(
                raw_members=tuple(raw[i] for i in indices),
                hull=union_box([grown[i] for i in indices]),
            )
        )
    clusters.sort(key=lambda c: (c.hull.top, c.hull.left, c.hull.bottom, c.hull.right))
    return clusters


@st.composite
def rulings(draw):
    x = draw(st.integers(0, 120))
    y = draw(st.integers(0, 120))
    length = draw(st.integers(0, 60))
    thickness = draw(st.integers(0, 4))
    if draw(st.booleans()):
        b = box(x, y, x + max(length, thickness), y + thickness)
        return Separator(box=b, orientation=SeparatorOrientation.HORIZONTAL)
    b = box(x, y, x + thickness, y + max(length, thickness))
    return Separator(box=b, orientation=SeparatorOrientation.VERTICAL)


@settings(max_examples=200, deadline=None)
@given(seps=st.lists(rulings(), max_size=30), expand_px=st.integers(0, 8))
def test_merge_separators_matches_pairwise(seps, expand_px):
    assert merge_separators(seps, expand_px) == merge_separators_oracle(seps, expand_px)


def test_close_centers_cluster_to_one_border():
    # two pieces of the same vertical border 2 px apart in center
    seps = [
        v_sep(50, 0, 40),
        v_sep(52, 40, 80),
        v_sep(0, 0, 80),
        h_sep(0, 0, 52),
        h_sep(0, 40, 52),
        h_sep(0, 80, 52),
    ]
    clusters = merge_separators(seps, expand_px=5)
    assert len(clusters) == 1
    g = estimate_grid(clusters[0])
    assert list(g.col_borders) == [0, 51]  # int(mean(50, 52) + 0.5)
    assert list(g.row_borders) == [0, 40, 80]


def test_degenerate_single_direction():
    seps = [h_sep(0, 0, 100), h_sep(0, 50, 100), v_sep(0, 0, 50)]
    clusters = merge_separators(seps, expand_px=5)
    assert len(clusters) == 1
    with pytest.raises(DegenerateGrid):
        estimate_grid(clusters[0])


def test_refine_grid_merges_unruled_neighbors():
    # 2x2 grid whose inner vertical ruling spans only the bottom row:
    # the top row becomes one 2-column cell
    seps = [
        v_sep(0, 0, 80),
        v_sep(100, 0, 80),
        v_sep(50, 40, 80),
        h_sep(0, 0, 100),
        h_sep(0, 40, 100),
        h_sep(0, 80, 100),
    ]
    clusters = merge_separators(seps, expand_px=5)
    table = refine_grid(estimate_grid(clusters[0]), clusters[0])
    spans = sorted((c.row_start, c.row_end, c.col_start, c.col_end) for c in table.cells)
    assert spans == [(0, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
    top = next(c for c in table.cells if c.col_end == 1)
    assert top.box.as_tuple() == (0, 0, 100, 40)


def test_refine_grid_vertical_merge_requires_equal_spans():
    # inner horizontal ruling spans only the right column: left column
    # merges vertically
    seps = [
        v_sep(0, 0, 80),
        v_sep(50, 0, 80),
        v_sep(100, 0, 80),
        h_sep(0, 0, 100),
        h_sep(50, 40, 100),
        h_sep(0, 80, 100),
    ]
    clusters = merge_separators(seps, expand_px=5)
    table = refine_grid(estimate_grid(clusters[0]), clusters[0])
    spans = sorted((c.row_start, c.row_end, c.col_start, c.col_end) for c in table.cells)
    assert spans == sorted([(0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)])


def test_refine_assigns_words():
    seps = grid_seps([0, 50, 100], [0, 40, 80])
    words = [
        Word(box=box(10, 10, 30, 26), text="a", line_id=0),
        Word(box=box(60, 50, 80, 66), text="b", line_id=1),
    ]
    clusters = merge_separators(seps, expand_px=5)
    table = refine_grid(estimate_grid(clusters[0]), clusters[0], words)
    by_span = {(c.row_start, c.col_start): c.content for c in table.cells}
    assert by_span[(0, 0)] == "a"
    assert by_span[(1, 1)] == "b"
    assert by_span[(0, 1)] == ""


def test_label_detection_bands():
    cfg = RecognizerConfig()
    hull = box(100, 100, 300, 200)
    above = Word(box=box(100, 70, 150, 86), text="Table 4:")
    below = Word(box=box(100, 210, 150, 226), text="TAB. 7")
    far = Word(box=box(100, 10, 150, 26), text="Table 1:")
    wrong = Word(box=box(100, 70, 150, 86), text="Figure 2:")
    assert has_table_label(WordIndex((above,)), hull, cfg)
    assert has_table_label(WordIndex((below,)), hull, cfg)
    assert not has_table_label(WordIndex((far,)), hull, cfg)
    assert not has_table_label(WordIndex((wrong,)), hull, cfg)


def test_recognize_separator_tables_end_to_end():
    rng = random.Random(21)
    page = gen_bordered_page(rng, "s", 1, rows=4, cols=3)
    tables, diags = recognize_separator_tables(page.layout, RecognizerConfig())
    assert len(tables) == 1
    got = tables[0]
    want = page.gt.tables[0]
    assert got.region == want.region
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert got.labeled
    assert {(c.row_start, c.col_start): c.content for c in got.cells} == {
        (c.row_start, c.col_start): c.content for c in want.cells
    }
    assert list(diags) == []


def test_require_labels_drops_unlabeled():
    rng = random.Random(22)
    page = gen_bordered_page(rng, "s", 1, rows=3, cols=3, labeled=False)
    cfg = RecognizerConfig(require_labels_separator=True)
    tables, diags = recognize_separator_tables(page.layout, cfg)
    assert tables == []
    assert any("label" in d for d in diags)


def test_random_bordered_grids_recovered_exactly():
    rng = random.Random(31)
    for _ in range(25):
        page = gen_bordered_page(rng, "s", 1)
        tables, _ = recognize_separator_tables(page.layout, RecognizerConfig())
        assert len(tables) == 1
        got, want = tables[0], page.gt.tables[0]
        assert got.region == want.region
        got_cells = {(c.row_start, c.row_end, c.col_start, c.col_end): (c.content, c.box)
                     for c in got.cells}
        want_cells = {(c.row_start, c.row_end, c.col_start, c.col_end): (c.content, c.box)
                      for c in want.cells}
        assert got_cells == want_cells


def test_label_band_stops_at_its_widened_edges():
    # the bands reach label_search_margin_px (50) past the hull's left and
    # right edges; a keyword word at the band's height beyond that misses
    cfg = RecognizerConfig()
    hull = box(100, 100, 300, 200)
    for left, right, found in [
        (351, 400, False),  # starts 1 px past the right edge of the band
        (350, 400, True),  # touches it
        (0, 49, False),  # ends 1 px before the left edge
        (0, 50, True),
    ]:
        for top in (70, 210):  # above and below the hull
            word = Word(box=box(left, top, right, top + 16), text="Table 4:")
            assert has_table_label(WordIndex((word,)), hull, cfg) is found, (left, top)


# ---------------------------------------------------------------------------
# refine_grid against the union-find it replaced


def refine_grid_oracle(grid, cluster):
    """Union-find over every rough cell: join left-right where no vertical
    ruling crosses the probe, then top-down between rows whose column runs
    are equal and where no horizontal ruling crosses the probe."""
    rb, cb = grid.row_borders, grid.col_borders
    n_rows, n_cols = len(rb) - 1, len(cb) - 1

    def hits(l, t, r, b, seps):
        return any(
            s.box.left < r and l < s.box.right and s.box.top < b and t < s.box.bottom
            for s in seps
        )

    uf = UnionFind(n_rows * n_cols)
    for i in range(n_rows):
        inset = (rb[i + 1] - rb[i]) * 0.4 / 2.0
        for j in range(n_cols - 1):
            x = cb[j + 1]
            if not hits(x - 2.0, rb[i] + inset, x + 2.0, rb[i + 1] - inset, cluster.verticals):
                uf.union(i * n_cols + j, i * n_cols + j + 1)

    def row_runs(i):
        runs, j = [], 0
        while j < n_cols:
            k = j
            while k + 1 < n_cols and uf.find(i * n_cols + k + 1) == uf.find(i * n_cols + j):
                k += 1
            runs.append((j, k))
            j = k + 1
        return runs

    runs_by_row = [row_runs(i) for i in range(n_rows)]
    for i in range(n_rows - 1):
        below = {run[0]: run for run in runs_by_row[i + 1]}
        for cs, ce in runs_by_row[i]:
            if below.get(cs) != (cs, ce):
                continue
            inset = (cb[ce + 1] - cb[cs]) * 0.4 / 2.0
            y = rb[i + 1]
            if not hits(cb[cs] + inset, y - 2.0, cb[ce + 1] - inset, y + 2.0, cluster.horizontals):
                uf.union(i * n_cols + cs, (i + 1) * n_cols + cs)

    spans = {}
    for i in range(n_rows):
        for j in range(n_cols):
            s = spans.setdefault(uf.find(i * n_cols + j), [i, i, j, j, 0])
            s[0], s[1] = min(s[0], i), max(s[1], i)
            s[2], s[3] = min(s[2], j), max(s[3], j)
            s[4] += 1
    cells = []
    for rs, re_, cs, ce, count in spans.values():
        assert count == (re_ - rs + 1) * (ce - cs + 1), "non-rectangular merge"
        cells.append((rs, re_, cs, ce, (cb[cs], rb[rs], cb[ce + 1], rb[re_ + 1])))
    return sorted(cells, key=lambda c: (c[0], c[2]))


@st.composite
def partial_rulings(draw):
    """A rough grid and a ruling set in which each stretch of each border,
    one cell long, is drawn, left out or drawn too short to meet the probe;
    an erased rectangle adds a merged cell spanning rows and columns."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    xs = [0]
    for _ in range(n_cols):
        xs.append(xs[-1] + draw(st.integers(10, 60)))
    ys = [0]
    for _ in range(n_rows):
        ys.append(ys[-1] + draw(st.integers(10, 60)))
    r0, c0 = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
    r1, c1 = draw(st.integers(r0, n_rows - 1)), draw(st.integers(c0, n_cols - 1))
    density = draw(st.sampled_from([0.3, 0.6, 0.85]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def stretch(a, b):
        """(start, end) of the ruling drawn along [a, b], or None."""
        if rng.random() > density:
            return None
        if rng.random() < 0.15:  # a stub at one end that the probe misses
            return (a, a + 2) if rng.random() < 0.5 else (b - 2, b)
        return (a, b)

    seps = []
    for j, x in enumerate(xs):
        for i in range(n_rows):
            inside = 0 < j < len(xs) - 1 and r0 <= i <= r1 and c0 < j <= c1
            piece = (ys[i], ys[i + 1]) if j in (0, n_cols) else stretch(ys[i], ys[i + 1])
            if piece and not inside:
                seps.append(v_sep(x, *piece))
    for i, y in enumerate(ys):
        for j in range(n_cols):
            inside = 0 < i < len(ys) - 1 and c0 <= j <= c1 and r0 < i <= r1
            piece = (xs[j], xs[j + 1]) if i in (0, n_rows) else stretch(xs[j], xs[j + 1])
            if piece and not inside:
                seps.append(h_sep(piece[0], y, piece[1]))
    grid = RoughGrid(tuple(ys), tuple(xs))
    return grid, SeparatorCluster(raw_members=tuple(seps), hull=box(0, 0, xs[-1], ys[-1]))


@settings(max_examples=300, deadline=None)
@given(case=partial_rulings())
def test_refine_grid_matches_union_find(case):
    grid, cluster = case
    table = refine_grid(grid, cluster)
    got = [(c.row_start, c.row_end, c.col_start, c.col_end, c.box.as_tuple()) for c in table.cells]
    assert got == refine_grid_oracle(grid, cluster)


def test_grid_probes_grow_with_the_rulings_on_their_border(monkeypatch):
    """The rulings probed for one n x n table, at n and 2n: about 4 times as
    many, one per probe, where probing every ruling gives 8 times as many."""
    probed = []

    def counted(separators, *strip):
        probed.append(len(separators))
        return _strip_hits_separator(separators, *strip)

    monkeypatch.setattr(separator, "_strip_hits_separator", counted)
    counts = []
    for n in (30, 60):
        probed.clear()
        page = gen_bordered_page(random.Random(1), "s", 1, rows=n, cols=n, merges=[])
        (table,), _ = recognize_separator_tables(page.layout, RecognizerConfig())
        assert len(table.cells) == n * n
        counts.append(sum(probed))
    assert counts[1] <= 4.5 * counts[0]


def test_column_runs_examples():
    assert column_runs(5, {0, 2, 3}) == [(0, 1), (2, 4)]
    assert column_runs(3, set()) == [(0, 0), (1, 1), (2, 2)]
    assert column_runs(3, {0, 1}) == [(0, 2)]
    assert column_runs(1, set()) == [(0, 0)]
    assert column_runs(0, set()) == []


@given(n_cols=st.integers(0, 12), data=st.data())
def test_column_runs_tile_the_columns_and_cut_where_not_joined(n_cols, data):
    joined = data.draw(st.sets(st.integers(0, n_cols - 2))) if n_cols > 1 else set()
    runs = column_runs(n_cols, joined)
    assert [j for first, last in runs for j in range(first, last + 1)] == list(range(n_cols))
    for first, last in runs:
        assert all(j in joined for j in range(first, last))
        assert last + 1 == n_cols or last not in joined
