import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabgrid.corpusio import PageTables
from tabgrid.errors import TabgridError
from tabgrid.booktabs import recognize_booktabs_tables
from tabgrid.fixtures import (
    FixturePage,
    corpus_recognizer_config,
    gen_booktabs_page,
    gen_bordered_page,
    move_page,
    shift_separators,
    stack_pages,
)
from tabgrid.geometry import box, iou
from tabgrid.model import (
    PageLayout,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
    grid_is_tiled,
    page_layout_from_dict,
    page_layout_to_dict,
)
from tabgrid import pipeline
from tabgrid.pipeline import (
    PageOrientation,
    PageResult,
    recognize_page,
    transpose_layout,
    transpose_table,
)

CFG = RecognizerConfig()


def test_transpose_layout_involution():
    rng = random.Random(4)
    page = gen_booktabs_page(rng, "p", 1)
    twice = transpose_layout(transpose_layout(page.layout))
    assert twice == page.layout


def test_transpose_swaps_dimensions_and_orientations():
    layout = PageLayout(
        page_width=100,
        page_height=200,
        words=(Word(box=box(10, 20, 30, 40), text="x"),),
        separators=(
            Separator(box=box(0, 50, 100, 52), orientation=SeparatorOrientation.HORIZONTAL),
        ),
        non_text_regions=(box(1, 2, 3, 4),),
    )
    t = transpose_layout(layout)
    assert (t.page_width, t.page_height) == (200, 100)
    assert t.words[0].box.as_tuple() == (20, 10, 40, 30)
    assert t.separators[0].orientation is SeparatorOrientation.VERTICAL
    assert t.separators[0].box.as_tuple() == (50, 0, 52, 100)
    assert t.non_text_regions[0].as_tuple() == (2, 1, 4, 3)


def test_transpose_table_keeps_grid_indices():
    rng = random.Random(5)
    page = gen_bordered_page(rng, "p", 1, rows=3, cols=4)
    t = page.gt.tables[0]
    tt = transpose_table(t)
    assert (tt.n_rows, tt.n_cols) == (t.n_rows, t.n_cols)
    assert tt.region.as_tuple() == (t.region.top, t.region.left, t.region.bottom, t.region.right)
    for a, b in zip(t.cells, tt.cells):
        assert (a.row_start, a.row_end, a.col_start, a.col_end) == (
            b.row_start, b.row_end, b.col_start, b.col_end,
        )
        assert b.box.as_tuple() == (a.box.top, a.box.left, a.box.bottom, a.box.right)
        assert a.content == b.content
    assert transpose_table(tt) == t


def test_separator_table_suppresses_overlapping_booktabs_candidate():
    rng = random.Random(7)
    page = gen_bordered_page(rng, "p", 1, rows=4, cols=4)
    res = recognize_page(page.layout, CFG)
    assert len(res.tables) == 1
    assert res.tables[0].source is TableSource.SEPARATOR
    assert res.diagnostics == ()
    # alone, the booktabs scan builds a candidate from the ruled table's
    # rulings; told of the accepted ruled table, it leaves them alone
    assert len(recognize_booktabs_tables(page.layout, CFG)[0]) == 1
    assert recognize_booktabs_tables(page.layout, CFG, [res.tables[0].region]) == ([], [])


class _Region:
    """Stands in for a recognized table: the accept loop reads only the region."""

    def __init__(self, *region):
        self.region = box(*region)


def test_overlap_drops_follow_each_recognizers_own_diagnostics(monkeypatch):
    sep, sep_clash = _Region(0, 0, 10, 10), _Region(5, 5, 15, 15)
    book, book_clash = _Region(20, 20, 30, 30), _Region(8, 8, 12, 12)
    sep_drops = [("separator", box(40, 40, 50, 50), "s")]
    book_drops = [("booktabs", box(60, 60, 70, 70), "b")]
    monkeypatch.setattr(
        pipeline, "recognize_separator_tables", lambda layout, cfg: ([sep, sep_clash], sep_drops)
    )
    ruled = []
    monkeypatch.setattr(
        pipeline,
        "recognize_booktabs_tables",
        lambda layout, cfg, regions: ruled.append(regions) or ([book_clash, book], book_drops),
    )
    layout = PageLayout(page_width=100, page_height=100, words=(), separators=())
    res = recognize_page(layout, CFG)
    assert res.tables == (sep, book)
    assert ruled == [[sep.region]]  # the booktabs scan is told of the accepted ruled table
    assert res.diagnostics == (
        "separator candidate at (40, 40, 50, 50) dropped: s",
        "separator candidate at (5, 5, 15, 15) dropped: overlaps accepted table at (0, 0, 10, 10)",
        "booktabs candidate at (60, 60, 70, 70) dropped: b",
        "booktabs candidate at (8, 8, 12, 12) dropped: overlaps accepted table at (0, 0, 10, 10)",
    )


_H, _V = SeparatorOrientation.HORIZONTAL, SeparatorOrientation.VERTICAL


def _layout(rulings=(), words=()) -> PageLayout:
    """A 500 x 500 page of (l, t, r, b) rulings, horizontal unless taller
    than wide, and of (l, t, r, b, text, line_id) words."""
    return PageLayout(
        page_width=500,
        page_height=500,
        words=tuple(Word(box(*w[:4]), w[4], w[5]) for w in words),
        separators=tuple(
            Separator(box(*r), _H if r[2] - r[0] >= r[3] - r[1] else _V) for r in rulings
        ),
    )


def _boxes_transposed(note: str) -> str:
    """The diagnostic with each (l, t, r, b) box it names written as (t, l, b, r)."""
    return re.sub(r"\((-?\d+), (-?\d+), (-?\d+), (-?\d+)\)", r"(\2, \1, \4, \3)", note)


_GRID = [(10, 9, 310, 11), (10, 209, 310, 211), (9, 10, 11, 210), (309, 10, 311, 210)]
_INNER_GRID = [(60, 59, 260, 61), (60, 159, 260, 161), (59, 60, 61, 160), (259, 60, 261, 160)]
_TRIPLE = [(0, 99, 400, 101), (0, 149, 400, 151), (0, 299, 400, 301)]  # rules at y 100, 150, 300
_BODY = [(10, 200, 50, 210, "a", 1)]
_PAIR = [(10, 350, 40, 360, "x", 9), (60, 350, 90, 360, "y", 9)]  # gives d_page
_LABELS = RecognizerConfig(require_labels_separator=True, require_labels_booktabs=True)
_DROP = re.compile(r"\w+ candidate at (\(\d+(?:, \d+){3}\)) dropped: .+")


# One page for each reason a drop is written for; no reason the code can write is left out.
@pytest.mark.parametrize("layout, cfg, want", [
    pytest.param(_layout(_GRID), _LABELS,
                 "separator candidate at (4, 4, 316, 216) dropped: no table label",
                 id="separator-no-label"),
    pytest.param(_layout(_TRIPLE, _BODY + _PAIR), _LABELS,
                 "booktabs candidate at (0, 99, 400, 301) dropped: no table label",
                 id="booktabs-no-label"),
    pytest.param(_layout([(50, 99, 250, 101), (149, 20, 151, 200)]), CFG,
                 "separator candidate at (45, 15, 255, 205) dropped: 1 row and 1 column borders",
                 id="too-few-ruled-borders"),
    pytest.param(_layout([(0, 29, 300, 31), (0, 197, 300, 199), (0, 199, 300, 201)]), CFG,
                 "booktabs candidate at (0, 29, 300, 201) dropped: no body region",
                 id="no-body-region"),
    pytest.param(_layout(_TRIPLE + [(100, 130, 200, 150)], _BODY + _PAIR), CFG,
                 "booktabs candidate at (0, 99, 400, 301) dropped: no room for a header row "
                 "between the inner rules and the middle rule",
                 id="no-room-for-a-header-row"),
    pytest.param(_layout(_TRIPLE), CFG,
                 "booktabs candidate at (0, 99, 400, 301) dropped: "
                 "projection profile is entirely zero",
                 id="empty-row-profile"),
    # a word across the middle rule meets the body but is centred in neither band
    pytest.param(_layout(_TRIPLE, [(10, 146, 50, 154, "a", 1)] + _PAIR), CFG,
                 "booktabs candidate at (0, 99, 400, 301) dropped: "
                 "column projection profile is entirely zero",
                 id="empty-column-profile"),
    pytest.param(_layout(_TRIPLE, _BODY), CFG,
                 "booktabs candidate at (0, 99, 400, 301) dropped: "
                 "no adjacent same-line word pairs on the page",
                 id="no-same-line-word-pairs"),
    # the one body word is centred left of the rules
    pytest.param(_layout([(20, y, 400, y + 2) for y in (99, 149, 299)],
                         [(0, 200, 30, 210, "a", 1)] + _PAIR), CFG,
                 "booktabs candidate at (20, 99, 400, 301) dropped: "
                 "table candidate contains no words",
                 id="no-table-words"),
    # top and middle rule coincide, so the header row would have no height
    pytest.param(_layout([(0, 100, 400, 100), (0, 100, 400, 100), (0, 299, 400, 301)],
                         _BODY + [(100, 200, 140, 210, "b", 1)]), CFG,
                 "booktabs candidate at (0, 100, 400, 301) dropped: non-increasing borders",
                 id="non-increasing-borders"),
    pytest.param(_layout(_GRID + _INNER_GRID), CFG,
                 "separator candidate at (60, 60, 260, 160) dropped: "
                 "overlaps accepted table at (10, 10, 310, 210)",
                 id="separator-overlap"),
    # a ruled grid in the body of a booktabs table, touching none of its rules
    pytest.param(_layout([(100, 149, 200, 151), (100, 249, 200, 251), (99, 150, 101, 250),
                          (199, 150, 201, 250), (0, 9, 400, 11), (0, 59, 400, 61),
                          (0, 389, 400, 391)],
                         [(10, 300, 40, 310, "a", 1), (300, 300, 340, 310, "b", 1)]), CFG,
                 "booktabs candidate at (0, 9, 400, 391) dropped: "
                 "overlaps accepted table at (100, 150, 200, 250)",
                 id="booktabs-overlap"),
])
def test_every_drop_reason_is_written_once_in_the_documented_form(layout, cfg, want):
    notes = recognize_page(layout, cfg).diagnostics
    assert notes == (want,)
    for note in notes:
        drop = _DROP.fullmatch(note)
        assert drop and note.count(drop[1]) == 1  # the candidate's box is written once
    # on the transposed page read as vertical, every box is in that page's coordinates
    vertical = recognize_page(transpose_layout(layout), cfg, PageOrientation.VERTICAL)
    assert vertical.diagnostics == tuple(map(_boxes_transposed, notes))


def _gapped(page, gap):
    """The page with ``gap`` px more at its foot."""
    return replace(page, layout=replace(page.layout, page_height=page.layout.page_height + gap))


def test_two_tables_on_one_page_sorted_reading_order():
    rng = random.Random(8)
    top = gen_bordered_page(rng, "p", 1, rows=2, cols=2)
    bottom = gen_booktabs_page(rng, "p", 1, rows=3, cols=3)
    res = recognize_page(stack_pages([_gapped(top, 60), bottom], "p", 1).layout, CFG)
    assert len(res.tables) == 2
    assert res.tables[0].source is TableSource.SEPARATOR
    assert res.tables[1].source is TableSource.BOOKTABS
    assert res.tables[0].region.top < res.tables[1].region.top
    got = {(c.row_start, c.col_start): c.content for c in res.tables[1].cells}
    want = {(c.row_start, c.col_start): c.content for c in bottom.gt.tables[0].cells}
    assert got == want


def _grid(t):
    return t.source, t.region, t.n_rows, t.n_cols, {
        (c.row_start, c.row_end, c.col_start, c.col_end): (c.box, c.content) for c in t.cells
    }


def test_three_ruled_and_three_booktabs_tables_on_one_page_each_recovered_exactly():
    # neighbours sit 40 px apart, inside the 50 px label search margin
    rng = random.Random(10)
    gens = [gen_bordered_page, gen_booktabs_page] * 3
    page = stack_pages([_gapped(gen(rng, "p", 1), 40) for gen in gens], "p", 1)
    got = [_grid(t) for t in recognize_page(page.layout, CFG).tables]
    assert [g[0] for g in got] == [TableSource.SEPARATOR, TableSource.BOOKTABS] * 3
    assert got == [_grid(t) for t in page.gt.tables]


def test_empty_page_is_fine():
    layout = PageLayout(page_width=100, page_height=100, words=(), separators=())
    res = recognize_page(layout, CFG)
    assert res.tables == ()
    assert res.diagnostics == ()


def test_recognize_page_deterministic():
    rng = random.Random(9)
    page = gen_booktabs_page(rng, "p", 1)
    a = recognize_page(page.layout, CFG)
    b = recognize_page(page.layout, CFG)
    assert a == b


def _stack(rng: random.Random, n: int = 3, dx: int = 0) -> FixturePage:
    """A page of ``n`` fixture tables, by turns a ruled, a booktabs and a
    ruled one, each page below the one before and ``dx`` px left of it."""
    blocks = []
    for k in range(n):
        gen = (gen_bordered_page, gen_booktabs_page)[k % 3 == 1]
        block = gen(rng, "s", 1, columns_mode="interpretation" if k % 3 == 2 else None)
        blocks.append(move_page(block, dx * (n - 1 - k), 0))
    return stack_pages(blocks, "s", 1)


# Were the ruled tables' rulings scanned, the top table's bottom ruling and
# the lower table's first two rulings could align into one page-spanning
# rule triple that takes the booktabs rules as its inner rules and is then
# dropped for want of a label, losing the booktabs table (seeds 58 and 94
# unjittered; ±3 px of jitter also breaks a fixed 5 px alignment floor).
@pytest.mark.parametrize("jitter", [0, 3])
@pytest.mark.parametrize("seed", range(100))
def test_no_table_of_a_ruled_booktabs_ruled_stack_is_lost(seed, jitter):
    page = _stack(random.Random(seed))
    want = page.gt.tables
    layout = shift_separators(page.layout, random.Random(100 + seed), jitter)
    found = recognize_page(layout, corpus_recognizer_config()).tables
    lost = [t.source for t in want if not any(iou(t.region, f.region) >= 0.5 for f in found)]
    assert lost == []


@pytest.mark.parametrize("n", [24, 48])
def test_each_candidate_is_tested_only_against_the_tables_beside_it(monkeypatch, n):
    layout = _stack(random.Random(n), n).layout
    calls = []
    monkeypatch.setattr(pipeline, "overlaps", lambda a, b, real=pipeline.overlaps: (
        calls.append(1) or real(a, b)
    ))
    found = recognize_page(layout, corpus_recognizer_config())
    assert len(found.tables) == n and found.diagnostics == ()
    # against every accepted table, the n candidates would take n(n - 1) / 2 tests
    assert len(calls) <= 2 * n


_REGIONS = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(1, 30), st.integers(1, 30)).map(
        lambda r: _Region(r[0], r[1], r[0] + r[2], r[1] + r[3])
    ),
    max_size=12,
)


def _meet(a, b) -> bool:
    """The boxes share positive area."""
    return (
        min(a.right, b.right) > max(a.left, b.left) and min(a.bottom, b.bottom) > max(a.top, b.top)
    )


@settings(max_examples=60, deadline=None)
@given(ruled=_REGIONS, booktabs=_REGIONS)
def test_accept_loop_keeps_and_drops_as_a_test_against_every_accepted_table(ruled, booktabs):
    accepted, notes = [], []
    for kind, candidates in (("separator", ruled), ("booktabs", booktabs)):
        for t in candidates:
            clash = next((a for a in accepted if _meet(t.region, a.region)), None)
            if clash is None:
                accepted.append(t)
            else:
                notes.append(f"{kind} candidate at {t.region.as_tuple()} dropped: overlaps "
                             f"accepted table at {clash.region.as_tuple()}")
    layout = PageLayout(page_width=100, page_height=100, words=(), separators=())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "recognize_separator_tables", lambda layout, cfg: (ruled, []))
        mp.setattr(pipeline, "recognize_booktabs_tables", lambda layout, cfg, r: (booktabs, []))
        res = recognize_page(layout, CFG)
    key = lambda t: (t.region.top, t.region.left, t.region.bottom, t.region.right)
    assert res.tables == tuple(sorted(accepted, key=key))
    assert res.diagnostics == tuple(notes)


_TEXTS = st.sampled_from(["Table 1", "Table", "Compound", "IC50", "7.5", "ab", "x", ""])


@st.composite
def layout_dicts(draw) -> dict:
    """Layout JSON of one to three blocks stacked top to bottom, each of
    words and rulings on a few shared grid lines of its own, so that rulings
    meet and form tables; some boxes run past their block or the page edge."""
    width = draw(st.integers(40, 300))
    words, separators, top = [], [], 0
    for k in range(draw(st.integers(1, 3))):
        height = draw(st.integers(40, 300))
        xs = draw(st.lists(st.integers(-10, width + 10), min_size=1, max_size=6))
        ys = draw(st.lists(st.integers(top - 10, top + height + 10), min_size=1, max_size=6))
        for _ in range(draw(st.integers(0, 25))):
            left, y = draw(st.integers(-5, width)), top + draw(st.integers(-5, height))
            right, bottom = left + draw(st.integers(1, 40)), y + draw(st.integers(1, 12))
            word = {"box": [left, y, right, bottom], "text": draw(_TEXTS)}
            if draw(st.booleans()):
                word["line_id"] = 9 * k + draw(st.integers(0, 8))
            words.append(word)
        for _ in range(draw(st.integers(0, 12))):
            if draw(st.booleans()):
                x0, x1 = sorted(draw(st.sampled_from(xs)) for _ in "ab")
                y = draw(st.sampled_from(ys))
                separators.append({"box": [x0, y, x1 + 2, y + 1], "orientation": "h"})
            else:
                y0, y1 = sorted(draw(st.sampled_from(ys)) for _ in "ab")
                x = draw(st.sampled_from(xs))
                separators.append({"box": [x, y0, x + 1, y1 + 2], "orientation": "v"})
        top += height
    return {"page_width": width, "page_height": top, "words": words,
            "separators": separators}


CONFIGS = (CFG, corpus_recognizer_config(), RecognizerConfig(gamma=0.5, separator_expand_px=0))


@settings(max_examples=60, deadline=None)
@given(doc=layout_dicts())
def test_random_layouts_give_tiled_tables_the_same_way_twice_or_a_tabgrid_error(doc):
    for cfg in CONFIGS:
        for orientation in PageOrientation:
            try:
                runs = [recognize_page(page_layout_from_dict(doc), cfg, orientation)
                        for _ in range(2)]
            except TabgridError:
                continue
            assert runs[0] == runs[1]
            assert all(grid_is_tiled(t) for t in runs[0].tables)


def _outcome(layout, cfg, orientation):
    try:
        return recognize_page(layout, cfg, orientation)
    except TabgridError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(doc=layout_dicts())
@example(doc=page_layout_to_dict(gen_booktabs_page(random.Random(6), "p", 1).layout))
@example(doc=page_layout_to_dict(_stack(random.Random(6), dx=300).layout))
def test_vertical_page_equals_standard_on_transposed_layout(doc):
    layout = page_layout_from_dict(doc)
    for cfg in CONFIGS:
        sres = _outcome(layout, cfg, PageOrientation.STANDARD)
        vres = _outcome(transpose_layout(layout), cfg, PageOrientation.VERTICAL)
        if not isinstance(sres, PageResult):
            assert vres == sres
            continue
        # the same tables with their boxes transposed back and their grid
        # indices in reading orientation, in the standard result's order,
        # which is (left, top) order on the vertical page
        assert vres.tables == tuple(transpose_table(t) for t in sres.tables)
        assert vres.diagnostics == tuple(map(_boxes_transposed, sres.diagnostics))
        key = lambda t: (t.region.left, t.region.top, t.region.right, t.region.bottom)
        assert list(vres.tables) == sorted(vres.tables, key=key)


@settings(max_examples=40, deadline=None)
@given(
    ruled=st.lists(st.booleans(), min_size=1, max_size=3),
    seed=st.integers(0, 999),
    dx=st.integers(0, 400),
    dy=st.integers(0, 400),
)
def test_recognition_moves_with_the_page(ruled, seed, dx, dy):
    """Moving a page's content moves its tables, and changes nothing else in them."""
    rng = random.Random(seed)
    gens = [gen_bordered_page if r else gen_booktabs_page for r in ruled]
    page = stack_pages([gen(rng, "m", 1) for gen in gens], "m", 1)
    moved = move_page(page, dx, dy).layout
    for cfg in CONFIGS:
        for orientation in PageOrientation:
            tables = recognize_page(page.layout, cfg, orientation).tables
            want = move_page(replace(page, gt=PageTables("m", 1, [*tables])), dx, dy).gt.tables
            assert [*recognize_page(moved, cfg, orientation).tables] == want
