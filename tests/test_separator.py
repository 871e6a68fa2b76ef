import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid.dsu import UnionFind
from tabgrid.errors import DegenerateGrid
from tabgrid.fixtures import gen_bordered_page
from tabgrid.geometry import box, expand, intersects, union_box
from tabgrid.model import (
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    Word,
)
from tabgrid.separator import (
    SeparatorCluster,
    _sort_key,
    assign_table_label,
    estimate_grid,
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
    assert assign_table_label(hull, [above], cfg)
    assert assign_table_label(hull, [below], cfg)
    assert not assign_table_label(hull, [far], cfg)
    assert not assign_table_label(hull, [wrong], cfg)


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
