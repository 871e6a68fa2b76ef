import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid import booktabs
from tabgrid.booktabs import (
    HeaderLevel,
    RuleTriple,
    _aligned,
    build_booktabs_grid,
    compute_column_threshold,
    find_rule_triples,
    group_inner_rules,
    recognize_booktabs_tables,
    segment_columns,
    segment_rows,
)
from tabgrid.dsu import UnionFind
from tabgrid.errors import DegenerateGrid, EmptyBody, InsufficientContext
from tabgrid.fixtures import gen_booktabs_page
from tabgrid.geometry import box, contains_point, expand, union_box
from tabgrid.model import PageLayout, RecognizerConfig, Separator, SeparatorOrientation, Word
from tabgrid.separator import BORDER_CLUSTER_TOL


def h_rule(x0, y, x1):
    return Separator(box=box(x0, y - 1, x1, y + 1),
                     orientation=SeparatorOrientation.HORIZONTAL)


def word(l, t, r, b, text="w", line_id=None):
    return Word(box=box(l, t, r, b), text=text, line_id=line_id)


CFG = RecognizerConfig()


# ---------------------------------------------------------------------------
# rule triples


def test_three_aligned_rules_form_one_triple():
    rules = [h_rule(100, 100, 500), h_rule(100, 150, 500), h_rule(100, 300, 500)]
    triples = find_rule_triples(rules, CFG)
    assert len(triples) == 1
    t = triples[0]
    assert t.top.box.center[1] == 100
    assert t.middle.box.center[1] == 150
    assert t.bottom.box.center[1] == 300
    assert t.inner_rules == ()


def test_short_rules_between_top_and_middle_become_inner():
    rules = [
        h_rule(100, 100, 500),
        h_rule(120, 120, 260),   # grouping rules: narrower, between top and middle
        h_rule(300, 120, 480),
        h_rule(100, 150, 500),
        h_rule(100, 300, 500),
    ]
    triples = find_rule_triples(rules, CFG)
    assert len(triples) == 1
    assert len(triples[0].inner_rules) == 2


def test_misaligned_middle_rule_blocks_triple():
    # middle rule 40% narrower than the others: no compatible triple
    rules = [h_rule(100, 100, 500), h_rule(100, 150, 340), h_rule(100, 300, 500)]
    assert find_rule_triples(rules, CFG) == []


def test_alignment_tolerance_scales_with_width():
    # 2% of a 1000 px rule is 20 px: edges 15 px apart still align
    rules = [h_rule(0, 100, 1000), h_rule(15, 150, 995), h_rule(5, 300, 1000)]
    assert len(find_rule_triples(rules, CFG)) == 1
    # but on a 100 px rule the tolerance is max(2 * separator_expand_px, 2)
    # = 10: 15 px breaks it, 10 px does not
    rules = [h_rule(0, 100, 100), h_rule(15, 150, 100), h_rule(0, 300, 100)]
    assert find_rule_triples(rules, CFG) == []
    rules = [h_rule(0, 100, 100), h_rule(10, 150, 100), h_rule(0, 300, 100)]
    assert len(find_rule_triples(rules, CFG)) == 1
    # the floor follows the ruled recognizer's expansion setting
    assert find_rule_triples(rules, RecognizerConfig(separator_expand_px=4)) == []


def test_greedy_scan_takes_first_compatible_pair():
    # four aligned rules: the first three are consumed, the fourth stays free
    rules = [h_rule(0, y, 400) for y in (100, 150, 300, 360)]
    triples = find_rule_triples(rules, CFG)
    assert len(triples) == 1
    assert triples[0].bottom.box.center[1] == 300


def test_two_stacked_tables_found_in_one_pass():
    rules = [h_rule(0, y, 400) for y in (100, 150, 300)]
    rules += [h_rule(0, y, 400) for y in (500, 540, 700)]
    triples = find_rule_triples(rules, CFG)
    assert len(triples) == 2
    assert [t.top.box.center[1] for t in triples] == [100, 500]


@pytest.mark.parametrize(
    "ruled, scanned",
    [
        ((0, 303, 400, 350), False),  # grown by 3 px, its top reaches the bottom rule's centre
        ((0, 304, 400, 350), True),
        ((0, 250, 400, 298), False),  # grown, its bottom passes the centre at y = 300
        ((0, 250, 400, 297), True),  # the grown bottom edge itself is outside
        ((203, 250, 300, 350), False),  # grown, its left edge reaches the centre at x = 200
        ((204, 250, 300, 350), True),
    ],
)
def test_rulings_whose_centre_a_ruled_region_holds_are_not_scanned(ruled, scanned):
    rules = [h_rule(0, 100, 400), h_rule(0, 150, 400), h_rule(0, 300, 400)]
    page = PageLayout(page_width=500, page_height=400, words=(), separators=tuple(rules))
    # the full triple is a candidate, dropped for want of body words
    diagnostic = (
        "booktabs candidate at (0, 99, 400, 301) dropped: projection profile is entirely zero"
    )
    assert recognize_booktabs_tables(page, CFG) == ([], [diagnostic])
    want = [diagnostic] if scanned else []
    assert recognize_booktabs_tables(page, CFG, [box(*ruled)]) == ([], want)


def _reference_triples(horizontals, cfg, ruled):
    """The scan without a shared index: the rulings centred in a grown ruled
    region filtered out first, then every ruling tested for each triple's
    inner rules."""
    grown = [expand(r, BORDER_CLUSTER_TOL) for r in ruled]
    free = [s for s in horizontals if not any(contains_point(g, *s.box.center) for g in grown)]
    rules = sorted(free, key=lambda s: (s.box.top, s.box.left, s.box.right))
    tol = 2 * cfg.separator_expand_px
    used = [False] * len(rules)
    triples = []
    for ia, a in enumerate(rules):
        if used[ia]:
            continue
        picked = next(
            (
                (ib, ic)
                for ib in range(ia + 1, len(rules))
                if not used[ib] and _aligned(a, rules[ib], tol)
                for ic in range(ib + 1, len(rules))
                if not used[ic]
                and _aligned(a, rules[ic], tol)
                and _aligned(rules[ib], rules[ic], tol)
            ),
            None,
        )
        if picked is None:
            continue
        b, c = rules[picked[0]], rules[picked[1]]
        used[ia] = used[picked[0]] = used[picked[1]] = True
        hull = union_box([a.box, b.box, c.box])
        inner = []
        for ii, r in enumerate(rules):
            y = r.box.center[1]
            if not used[ii] and a.box.center[1] < y < b.box.center[1] and (
                r.box.left < hull.right and hull.left < r.box.right
            ):
                inner.append(r)
                used[ii] = True
        inner.sort(key=lambda s: (s.box.top, s.box.left))
        triples.append(RuleTriple(top=a, middle=b, bottom=c, inner_rules=tuple(inner)))
    return triples


@st.composite
def thick_rulings(draw) -> list[Separator]:
    """Thick rulings on few tops and edges, some in pairs that share their
    top and left edge but not their height or right edge, so that centre
    order differs from top order and rulings tie on top, edges and centre."""
    rules = []
    for _ in range(draw(st.integers(0, 10))):
        left, top = draw(st.sampled_from([0, 6, 30, 100])), draw(st.integers(0, 40))
        for _ in range(draw(st.integers(1, 2))):
            right, height = draw(st.sampled_from([120, 124, 200, 400])), draw(st.integers(1, 20))
            rules.append(Separator(box=box(left, top, right, top + height),
                                   orientation=SeparatorOrientation.HORIZONTAL))
    return draw(st.permutations(rules))


_RULED = st.lists(
    st.builds(
        lambda l, t, w, h: box(l, t, l + w, t + h),
        st.integers(-5, 300), st.integers(-5, 60), st.integers(1, 400), st.integers(1, 30),
    ),
    max_size=3,
)


@settings(max_examples=500, deadline=None)
@given(
    rules=thick_rulings(),
    ruled=_RULED,
    cfg=st.sampled_from([CFG, RecognizerConfig(separator_expand_px=1)]),
)
def test_rule_triples_equal_a_scan_of_every_free_ruling(rules, ruled, cfg):
    assert find_rule_triples(rules, cfg, ruled) == _reference_triples(rules, cfg, ruled)
    if not ruled:
        assert find_rule_triples(rules, cfg) == _reference_triples(rules, cfg, ())


@settings(max_examples=300, deadline=None)
@given(
    rules=st.lists(
        st.builds(
            lambda l, t, w: h_rule(l, t, l + w),
            st.integers(0, 60), st.integers(2, 200), st.sampled_from([40, 98, 100, 102, 500, 520]),
        ),
        max_size=14,
    ),
    cfg=st.sampled_from([CFG, RecognizerConfig(separator_expand_px=0)]),
)
def test_rule_triples_equal_the_scan_on_rules_at_the_edge_of_alignment(rules, cfg):
    """Left edges a few pixels apart, on both sides of every tolerance, so
    that aligned rules also fall into neighbouring buckets of left edges."""
    assert find_rule_triples(rules, cfg) == _reference_triples(rules, cfg, ())


@pytest.mark.parametrize("n", [250, 500])
def test_unaligned_rulings_are_tested_only_against_their_neighbours(monkeypatch, n):
    """A staircase of rulings 100 px wide, each 20 px right of the one above,
    holds no aligned pair; a scan of every later ruling tests n(n - 1) / 2."""
    def staircase(k):
        return [h_rule(20 * i, 10 * i + 5, 20 * i + 100) for i in range(k)]

    calls = []
    monkeypatch.setattr(booktabs, "_aligned", lambda a, b, tol, real=_aligned: (
        calls.append(1) or real(a, b, tol)
    ))
    counts = []
    for k in (n, 2 * n):
        calls.clear()
        assert find_rule_triples(staircase(k), CFG) == []
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]


def test_inner_rules_cluster_into_levels():
    t = find_rule_triples(
        [
            h_rule(0, 100, 400),
            h_rule(10, 120, 150),
            h_rule(200, 121, 390),  # same level: centers 1 px apart
            h_rule(10, 130, 200),   # separate level
            h_rule(0, 160, 400),
            h_rule(0, 300, 400),
        ],
        CFG,
    )[0]
    levels = group_inner_rules(t)
    assert len(levels) == 2
    assert len(levels[0].rules) == 2
    assert len(levels[1].rules) == 1


def test_no_inner_rules_single_header_row():
    t = find_rule_triples(
        [h_rule(0, 100, 400), h_rule(0, 150, 400), h_rule(0, 300, 400)], CFG
    )[0]
    levels = group_inner_rules(t)
    assert levels == ()


# ---------------------------------------------------------------------------
# row and column gaps


def test_segment_rows_midpoints():
    region = box(0, 0, 50, 30)
    words = [word(0, 0, 50, 10), word(0, 20, 50, 30)]
    assert segment_rows(words, region) == [15]


def test_segment_rows_ignores_boundary_gaps():
    region = box(0, 0, 50, 40)
    words = [word(0, 8, 50, 16), word(0, 24, 50, 32)]
    # leading [0,8) and trailing [32,40) runs are not row gaps
    assert segment_rows(words, region) == [20]


def test_segment_rows_empty_body():
    with pytest.raises(EmptyBody, match="^projection profile is entirely zero$"):
        segment_rows([], box(0, 0, 10, 10))


def test_segments_clip_words_to_region():
    # a word reaching past the region's top covers only its in-region rows,
    # and the gap's centre is taken in page coordinates
    region = box(0, 10, 50, 40)
    assert segment_rows([word(0, 0, 50, 15), word(0, 30, 50, 60)], region) == [22]
    region = box(10, 0, 60, 30)
    assert segment_columns([word(0, 0, 20, 30), word(40, 0, 100, 30)], region, 0) == [30]
    # one word covering the whole region leaves no gap either way
    assert segment_rows([word(0, 0, 100, 100)], box(10, 10, 50, 30)) == []
    assert segment_columns([word(0, 0, 100, 100)], box(10, 10, 50, 30), 0) == []


def test_segments_ignore_words_outside_region():
    region = box(0, 0, 100, 20)
    inside = [word(0, 0, 20, 20), word(60, 0, 100, 20)]
    # below the region, across the column gap: ignored
    assert segment_columns([*inside, word(30, 25, 50, 35)], region, 0) == [40]
    with pytest.raises(EmptyBody):
        segment_rows([word(200, 0, 220, 10)], region)
    # a word that only touches the region's bottom edge covers none of its rows
    with pytest.raises(EmptyBody):
        segment_rows([word(10, 20, 30, 30)], region)


def test_segment_columns_threshold():
    region = box(0, 0, 130, 20)
    words = [word(0, 0, 30, 20), word(50, 0, 80, 20), word(100, 0, 130, 20)]
    # gaps [30,50) and [80,100) are 20 px wide
    assert segment_columns(words, region, d_column=10.0) == [40, 90]
    # threshold is strict: a gap equal to d_column is ignored
    assert segment_columns(words, region, d_column=20.0) == []
    assert segment_columns(words, region, d_column=19.999) == [40, 90]


def test_segment_columns_empty():
    with pytest.raises(EmptyBody, match="^column projection profile is entirely zero$"):
        segment_columns([], box(0, 0, 10, 10), 1.0)


def reference_gap_centers(words, region, axis, min_gap):
    """Pixel by pixel: which rows (or columns) of the region some word covers
    with positive area inside it, then the centres of the uncovered runs
    that touch neither end and are longer than min_gap; None if nothing is
    covered."""
    lo, hi = (region.top, region.bottom) if axis == "y" else (region.left, region.right)

    def covered(p):
        for w in words:
            b = w.box
            if axis == "y":
                on, across = b.top <= p < b.bottom, (b.left, b.right, region.left, region.right)
            else:
                on, across = b.left <= p < b.right, (b.top, b.bottom, region.top, region.bottom)
            if on and max(across[0], across[2]) < min(across[1], across[3]):
                return True
        return False

    cover = [covered(p) for p in range(lo, hi)]
    if not any(cover):
        return None
    centers, start = [], None
    for p, c in zip(range(lo, hi), cover):
        if not c and start is None:
            start = p
        elif c and start is not None:
            if start > lo and p - start > min_gap:
                centers.append((start + p) // 2)
            start = None
    return centers


@st.composite
def gap_cases(draw):
    """A region and word boxes inside it, across its edges and outside it,
    some of zero width or height, and a minimum gap."""
    left, top = draw(st.integers(-20, 40)), draw(st.integers(-20, 40))
    region = box(left, top, left + draw(st.integers(0, 60)), top + draw(st.integers(0, 60)))
    coord_x = st.integers(region.left - 15, region.right + 15)
    coord_y = st.integers(region.top - 15, region.bottom + 15)
    words = []
    for _ in range(draw(st.integers(0, 8))):
        x0, x1 = sorted((draw(coord_x), draw(coord_x)))
        y0, y1 = sorted((draw(coord_y), draw(coord_y)))
        words.append(word(x0, y0, x1, y1))
    min_gap = draw(st.one_of(st.integers(-2, 20), st.floats(-2, 20)))
    return words, region, min_gap


@settings(max_examples=400, deadline=None)
@given(case=gap_cases())
def test_segments_equal_the_per_pixel_reference(case):
    words, region, min_gap = case
    for axis, segment in (
        ("y", lambda: segment_rows(words, region)),
        ("x", lambda: segment_columns(words, region, min_gap)),
    ):
        want = reference_gap_centers(words, region, axis, min_gap if axis == "x" else 0)
        if want is None:
            with pytest.raises(EmptyBody):
                segment()
        else:
            assert segment() == want


# ---------------------------------------------------------------------------
# column threshold


def test_threshold_simple_line():
    words = [
        word(0, 0, 20, 10, "a", line_id=0),
        word(25, 0, 45, 10, "b", line_id=0),  # gap 5, heights 10
        word(50, 0, 70, 10, "c", line_id=0),
    ]
    page = PageLayout(page_width=200, page_height=50, words=tuple(words), separators=())
    th = compute_column_threshold(page, words, gamma=2.0)
    assert th.d_page == pytest.approx(0.5)
    assert th.h_table == pytest.approx(10.0)
    assert th.d_column == pytest.approx(10.0)


def test_threshold_is_median_over_pairs():
    words = [
        word(0, 0, 10, 10, line_id=0), word(12, 0, 22, 10, line_id=0),   # 0.2
        word(0, 20, 10, 30, line_id=1), word(14, 20, 24, 30, line_id=1),  # 0.4
        word(0, 40, 10, 50, line_id=2), word(110, 40, 120, 50, line_id=2),  # 10.0
    ]
    page = PageLayout(page_width=300, page_height=100, words=tuple(words), separators=())
    th = compute_column_threshold(page, [word(0, 0, 10, 10)], gamma=1.0)
    assert th.d_page == pytest.approx(0.4)


def test_threshold_overlapping_words_clamp_to_zero_gap():
    words = [
        word(0, 0, 30, 10, line_id=0), word(25, 0, 50, 10, line_id=0),  # overlap -> gap 0
        word(0, 20, 10, 30, line_id=1), word(16, 20, 26, 30, line_id=1),  # 0.6
    ]
    page = PageLayout(page_width=100, page_height=50, words=tuple(words), separators=())
    th = compute_column_threshold(page, words, gamma=1.0)
    assert th.d_page == pytest.approx(0.3)  # median of {0.0, 0.6}


def test_threshold_reconstructs_lines_without_ids():
    # same geometry as the simple case but line_id stripped: chained by
    # >= 50% vertical overlap
    words = [word(0, 0, 20, 10), word(25, 2, 45, 12), word(50, 0, 70, 10)]
    page = PageLayout(page_width=200, page_height=50, words=tuple(words), separators=())
    th = compute_column_threshold(page, words, gamma=2.0)
    assert th.d_page == pytest.approx(0.5)


def test_threshold_insufficient_context():
    lonely = [word(0, 0, 20, 10, line_id=0), word(0, 30, 20, 40, line_id=1)]
    page = PageLayout(page_width=100, page_height=60, words=tuple(lonely), separators=())
    with pytest.raises(InsufficientContext):
        compute_column_threshold(page, lonely, gamma=2.0)
    pair = [word(0, 0, 20, 10, line_id=0), word(25, 0, 45, 10, line_id=0)]
    page2 = PageLayout(page_width=100, page_height=30, words=tuple(pair), separators=())
    with pytest.raises(InsufficientContext):
        compute_column_threshold(page2, [], gamma=2.0)


# ---------------------------------------------------------------------------
# end to end


def test_booktabs_end_to_end_flat_header():
    rng = random.Random(12)
    page = gen_booktabs_page(rng, "t", 1, rows=4, cols=3, cmidrule_levels=[])
    tables, diags = recognize_booktabs_tables(page.layout, CFG)
    assert len(tables) == 1
    got, want = tables[0], page.gt.tables[0]
    assert got.header_row_count == 1
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert got.region == want.region
    assert {(c.row_start, c.col_start): c.content for c in got.cells} == {
        (c.row_start, c.col_start): c.content for c in want.cells
    }


def test_booktabs_end_to_end_grouped_header():
    rng = random.Random(13)
    page = gen_booktabs_page(
        rng, "t", 1, rows=3, cols=4, cmidrule_levels=[[(0, 1), (2, 3)]]
    )
    tables, _ = recognize_booktabs_tables(page.layout, CFG)
    assert len(tables) == 1
    got, want = tables[0], page.gt.tables[0]
    assert got.header_row_count == 2
    spans = {(c.row_start, c.row_end, c.col_start, c.col_end) for c in got.cells}
    assert (0, 0, 0, 1) in spans and (0, 0, 2, 3) in spans
    assert spans == {(c.row_start, c.row_end, c.col_start, c.col_end) for c in want.cells}


def test_booktabs_random_round_trip():
    rng = random.Random(14)
    for _ in range(20):
        page = gen_booktabs_page(rng, "t", 1)
        tables, diags = recognize_booktabs_tables(page.layout, CFG)
        assert len(tables) == 1, diags
        got, want = tables[0], page.gt.tables[0]
        got_cells = {(c.row_start, c.row_end, c.col_start, c.col_end): (c.content, c.box)
                     for c in got.cells}
        want_cells = {(c.row_start, c.row_end, c.col_start, c.col_end): (c.content, c.box)
                      for c in want.cells}
        assert got_cells == want_cells


def test_booktabs_requires_body_region():
    # middle rule at the bottom rule: no room for body rows
    layout_words = [
        word(0, 0, 20, 10, "a", line_id=0),
        word(25, 0, 45, 10, "b", line_id=0),
    ]
    rules = [h_rule(0, 30, 300), h_rule(0, 198, 300), h_rule(0, 200, 300)]
    page = PageLayout(
        page_width=400, page_height=300, words=tuple(layout_words),
        separators=tuple(rules),
    )
    tables, diags = recognize_booktabs_tables(page, CFG)
    assert tables == []
    assert diags  # explains why the candidate was dropped


# ---------------------------------------------------------------------------
# build_booktabs_grid against the per-level union-find it replaced


def header_cells_oracle(triple, levels, body, xs):
    """Per header level, a union-find joins every column range a grouping
    rule overlaps; every other row is one cell per column."""
    mid_y = int(triple.middle.box.center[1] + 0.5)
    level_centers = [(lv.band[0] + lv.band[1]) // 2 for lv in levels]
    ys = [triple.top.box.top, *level_centers, mid_y, *body, triple.bottom.box.bottom]
    n_rows, n_cols = len(ys) - 1, len(xs) - 1
    cells = []
    for r in range(n_rows):
        uf = UnionFind(n_cols)
        for rule in levels[r].rules if r < len(levels) else ():
            covered = [
                j
                for j in range(n_cols)
                if min(rule.box.right, xs[j + 1]) - max(rule.box.left, xs[j]) > 0
            ]
            for a, b in zip(covered, covered[1:]):
                uf.union(a, b)
        j = 0
        while j < n_cols:
            k = j
            while k + 1 < n_cols and uf.find(k + 1) == uf.find(j):
                k += 1
            cells.append((r, j, k, (xs[j], ys[r], xs[k + 1], ys[r + 1])))
            j = k + 1
    return cells


@st.composite
def header_layouts(draw):
    """A booktabs triple over random columns whose header levels hold
    grouping rules over random column ranges, drawn a few pixels inside or
    past the range's borders, so that rules overlap, abut or stay apart."""
    n_cols = draw(st.integers(1, 7))
    xs = [100]
    for _ in range(n_cols):
        xs.append(xs[-1] + draw(st.integers(12, 60)))
    n_levels = draw(st.integers(1, 3))
    levels = []
    for k in range(n_levels):
        y = 110 + 10 * k
        rules = []
        for _ in range(draw(st.integers(0, 4))):
            a = draw(st.integers(0, n_cols - 1))
            b = draw(st.integers(a, n_cols - 1))
            left = xs[a] + draw(st.integers(-4, 4))
            right = max(xs[b + 1] + draw(st.integers(-4, 4)), left + 2)
            rules.append(h_rule(left, y, right))
        rules.sort(key=lambda s: (s.box.left, s.box.top))
        levels.append(HeaderLevel(band=(y - 1, y + 1), rules=tuple(rules)))
    mid_y = 110 + 10 * n_levels
    triple = RuleTriple(
        top=h_rule(xs[0], 100, xs[-1]),
        middle=h_rule(xs[0], mid_y, xs[-1]),
        bottom=h_rule(xs[0], mid_y + 40, xs[-1]),
        inner_rules=tuple(r for lv in levels for r in lv.rules),
    )
    body = sorted(draw(st.sets(st.integers(mid_y + 2, mid_y + 38), max_size=3)))
    return triple, tuple(levels), body, xs, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=header_layouts())
def test_build_booktabs_grid_matches_union_find(case):
    triple, levels, body, xs, labeled = case
    table = build_booktabs_grid(triple, levels, body, xs[1:-1], labeled)
    got = [(c.row_start, c.col_start, c.col_end, c.box.as_tuple()) for c in table.cells]
    assert all(c.row_start == c.row_end for c in table.cells)
    assert got == header_cells_oracle(triple, levels, body, xs)
    assert table.header_row_count == len(levels) + 1
    assert table.labeled is labeled


def test_build_booktabs_grid_rejects_body_border_above_middle_rule():
    triple = RuleTriple(
        top=h_rule(0, 10, 100), middle=h_rule(0, 40, 100), bottom=h_rule(0, 100, 100),
        inner_rules=(),
    )
    with pytest.raises(DegenerateGrid) as exc:
        build_booktabs_grid(triple, (), [30], [], False)
    assert str(exc.value) == "non-increasing borders for triple at (0, 9, 100, 101)"
