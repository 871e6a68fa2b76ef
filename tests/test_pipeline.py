import random

from tabgrid.fixtures import gen_booktabs_page, gen_bordered_page
from tabgrid.geometry import box
from tabgrid.model import (
    PageLayout,
    RecognizerConfig,
    Separator,
    SeparatorOrientation,
    TableSource,
    Word,
)
from tabgrid import pipeline
from tabgrid.pipeline import (
    PageOrientation,
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


def test_vertical_page_equals_standard_on_transposed_layout():
    rng = random.Random(6)
    for _ in range(10):
        page = gen_booktabs_page(rng, "p", 1) if rng.random() < 0.5 else gen_bordered_page(rng, "p", 1)
        rotated = transpose_layout(page.layout)
        vres = recognize_page(rotated, CFG, PageOrientation.VERTICAL)
        sres = recognize_page(page.layout, CFG, PageOrientation.STANDARD)
        assert len(vres.tables) == len(sres.tables) == 1
        # vertical recognition reports boxes in the rotated frame but the
        # same reading-order grid
        v, s = vres.tables[0], sres.tables[0]
        assert transpose_table(v).region == s.region
        assert (v.n_rows, v.n_cols) == (s.n_rows, s.n_cols)
        assert [c.content for c in v.cells] == [c.content for c in s.cells]


def test_separator_table_suppresses_overlapping_booktabs_candidate():
    rng = random.Random(7)
    page = gen_bordered_page(rng, "p", 1, rows=4, cols=4)
    res = recognize_page(page.layout, CFG)
    assert len(res.tables) == 1
    assert res.tables[0].source is TableSource.SEPARATOR
    assert any("dropped" in d and "overlap" in d for d in res.diagnostics)


class _Region:
    """Stands in for a recognized table: the accept loop reads only the region."""

    def __init__(self, *region):
        self.region = box(*region)


def test_overlap_drops_follow_each_recognizers_own_diagnostics(monkeypatch):
    sep, sep_clash = _Region(0, 0, 10, 10), _Region(5, 5, 15, 15)
    book, book_clash = _Region(20, 20, 30, 30), _Region(8, 8, 12, 12)
    monkeypatch.setattr(
        pipeline, "recognize_separator_tables", lambda layout, cfg: ([sep, sep_clash], ["s"])
    )
    monkeypatch.setattr(
        pipeline, "recognize_booktabs_tables", lambda layout, cfg: ([book_clash, book], ["b"])
    )
    layout = PageLayout(page_width=100, page_height=100, words=(), separators=())
    res = recognize_page(layout, CFG)
    assert res.tables == (sep, book)
    assert res.diagnostics == (
        "s",
        "separator table at (5, 5, 15, 15) dropped: overlaps accepted table at (0, 0, 10, 10)",
        "b",
        "booktabs candidate at (8, 8, 12, 12) dropped: overlaps accepted table at (0, 0, 10, 10)",
    )


def test_two_tables_on_one_page_sorted_reading_order():
    rng = random.Random(8)
    top = gen_bordered_page(rng, "p", 1, rows=2, cols=2)
    bottom = gen_booktabs_page(rng, "p", 1, rows=3, cols=3)
    dy = top.layout.page_height + 60
    shifted_words = [
        Word(box=box(w.box.left, w.box.top + dy, w.box.right, w.box.bottom + dy),
             text=w.text,
             line_id=None if w.line_id is None else w.line_id + 1000)
        for w in bottom.layout.words
    ]
    shifted_seps = [
        Separator(box=box(s.box.left, s.box.top + dy, s.box.right, s.box.bottom + dy),
                  orientation=s.orientation)
        for s in bottom.layout.separators
    ]
    merged = PageLayout(
        page_width=max(top.layout.page_width, bottom.layout.page_width),
        page_height=bottom.layout.page_height + dy,
        words=top.layout.words + tuple(shifted_words),
        separators=top.layout.separators + tuple(shifted_seps),
    )
    res = recognize_page(merged, CFG)
    assert len(res.tables) == 2
    assert res.tables[0].source is TableSource.SEPARATOR
    assert res.tables[1].source is TableSource.BOOKTABS
    assert res.tables[0].region.top < res.tables[1].region.top
    got = {(c.row_start, c.col_start): c.content for c in res.tables[1].cells}
    want = {(c.row_start, c.col_start): c.content for c in bottom.gt.tables[0].cells}
    assert got == want


def _shifted(b, dy):
    return box(b.left, b.top + dy, b.right, b.bottom + dy)


def test_three_ruled_and_three_booktabs_tables_on_one_page_each_recovered_exactly():
    # neighbours sit 40 px apart, inside the 50 px label search margin
    rng = random.Random(10)
    words, seps, want = [], [], []
    dy = 0
    for k in range(6):
        gen = gen_bordered_page if k % 2 == 0 else gen_booktabs_page
        block = gen(rng, "p", 1)
        words += [
            Word(box=_shifted(w.box, dy), text=w.text,
                 line_id=None if w.line_id is None else w.line_id + 1000 * k)
            for w in block.layout.words
        ]
        seps += [Separator(box=_shifted(s.box, dy), orientation=s.orientation)
                 for s in block.layout.separators]
        (table,) = block.gt.tables
        want.append((table.source, _shifted(table.region, dy), table.n_rows, table.n_cols, {
            (c.row_start, c.row_end, c.col_start, c.col_end): (_shifted(c.box, dy), c.content)
            for c in table.cells
        }))
        dy += block.layout.page_height + 40
    page = PageLayout(
        page_width=max(w.box.right for w in words) + 10,
        page_height=dy,
        words=tuple(words),
        separators=tuple(seps),
    )
    res = recognize_page(page, CFG)
    got = [
        (t.source, t.region, t.n_rows, t.n_cols, {
            (c.row_start, c.row_end, c.col_start, c.col_end): (c.box, c.content)
            for c in t.cells
        })
        for t in res.tables
    ]
    assert [g[0] for g in got] == [TableSource.SEPARATOR, TableSource.BOOKTABS] * 3
    assert got == want


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
