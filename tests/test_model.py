import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid.dsu import UnionFind
from tabgrid.errors import ConfigError, LayoutError
from tabgrid.geometry import box, contains_point
from tabgrid.model import (
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
    cell_grid,
    grid_is_tiled,
    join_words,
    make_cell,
    page_layout_from_dict,
    page_layout_to_dict,
    recognized_table_from_dict,
    recognized_table_to_dict,
    recognizer_config_from_dict,
    recognizer_config_to_dict,
    reconstruct_lines,
)


def _word(l, t, r, b, text, line_id=None):
    return Word(box=box(l, t, r, b), text=text, line_id=line_id)


def _table_2x2():
    cells = (
        make_cell(box(0, 0, 10, 10), 0, 0, 0, 0, (_word(1, 1, 5, 5, "a"),)),
        make_cell(box(10, 0, 20, 10), 0, 0, 1, 1, (_word(11, 1, 15, 5, "b"),)),
        make_cell(box(0, 10, 10, 20), 1, 1, 0, 0, (_word(1, 11, 5, 15, "c"),)),
        make_cell(box(10, 10, 20, 20), 1, 1, 1, 1, ()),
    )
    return RecognizedTable(
        region=box(0, 0, 20, 20),
        n_rows=2,
        n_cols=2,
        cells=cells,
        labeled=True,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )


def test_separator_orientation_validated():
    Separator(box=box(0, 0, 100, 2), orientation=SeparatorOrientation.HORIZONTAL)
    with pytest.raises(ValueError):
        Separator(box=box(0, 0, 100, 2), orientation=SeparatorOrientation.VERTICAL)
    with pytest.raises(ValueError):
        Separator(box=box(0, 0, 2, 100), orientation=SeparatorOrientation.HORIZONTAL)
    # square-ish boxes pass for either orientation
    Separator(box=box(0, 0, 3, 3), orientation=SeparatorOrientation.VERTICAL)


def test_join_words_reading_order():
    words = (
        _word(50, 0, 60, 10, "world"),
        _word(0, 0, 10, 10, "hello"),
        _word(0, 20, 10, 30, "below"),
    )
    assert join_words(words) == "hello world below"
    assert join_words(()) == ""
    # empty strings are dropped
    assert join_words((_word(0, 0, 5, 5, ""), _word(6, 0, 9, 5, "x"))) == "x"


def test_cell_span_validation():
    with pytest.raises(ValueError):
        Cell(box=box(0, 0, 5, 5), row_start=2, row_end=1, col_start=0, col_end=0,
             words=(), content="")
    with pytest.raises(ValueError):
        Cell(box=box(0, 0, 5, 5), row_start=-1, row_end=0, col_start=0, col_end=0,
             words=(), content="")


def test_table_shape_validation():
    t = _table_2x2()
    assert t.n_rows == 2
    with pytest.raises(ValueError):
        RecognizedTable(
            region=box(0, 0, 10, 10), n_rows=0, n_cols=1, cells=(),
            labeled=False, source=TableSource.SEPARATOR, header_row_count=0,
        )


def test_cell_grid_and_tiling():
    t = _table_2x2()
    assert grid_is_tiled(t)
    grid = cell_grid(t)
    assert grid[0][0].content == "a"
    assert grid[1][1].content == ""
    # spanning cell appears at each covered coordinate
    span = make_cell(box(0, 0, 20, 10), 0, 0, 0, 1, ())
    t2 = RecognizedTable(
        region=box(0, 0, 20, 20), n_rows=2, n_cols=2,
        cells=(span, t.cells[2], t.cells[3]),
        labeled=False, source=TableSource.SEPARATOR, header_row_count=0,
    )
    g2 = cell_grid(t2)
    assert g2[0][0] is g2[0][1] is span


def test_cell_grid_rejects_holes_and_overlap():
    t = _table_2x2()
    holey = RecognizedTable(
        region=t.region, n_rows=2, n_cols=2, cells=t.cells[:3],
        labeled=False, source=TableSource.SEPARATOR, header_row_count=0,
    )
    assert not grid_is_tiled(holey)
    with pytest.raises(ValueError):
        cell_grid(holey)
    dup = RecognizedTable(
        region=t.region, n_rows=2, n_cols=2,
        cells=t.cells + (make_cell(box(0, 0, 10, 10), 0, 0, 0, 0, ()),),
        labeled=False, source=TableSource.SEPARATOR, header_row_count=0,
    )
    with pytest.raises(ValueError):
        cell_grid(dup)


def test_assign_words_by_center():
    cells = [
        make_cell(box(0, 0, 10, 10), 0, 0, 0, 0, ()),
        make_cell(box(10, 0, 20, 10), 0, 0, 1, 1, ()),
    ]
    words = [
        _word(8, 2, 12, 8, "mostly-right"),   # center x = 10 -> second cell
        _word(1, 1, 5, 5, "left"),
        _word(100, 100, 110, 110, "outside"),
    ]
    out = assign_words_to_cells(cells, words)
    assert out[0].content == "left"
    assert out[1].content == "mostly-right"


# ---------------------------------------------------------------------------
# indexed word placement against brute-force scans


def assign_words_oracle(cells, words):
    """Per-cell scan over every word: the definition of the assignment."""
    return [
        make_cell(
            c.box, c.row_start, c.row_end, c.col_start, c.col_end,
            [w for w in words if contains_point(c.box, *w.box.center)],
        )
        for c in cells
    ]


def reconstruct_lines_oracle(words):
    """Pairwise test of every word pair."""
    uf = UnionFind(len(words))
    for i in range(len(words)):
        bi = words[i].box
        for j in range(i + 1, len(words)):
            bj = words[j].box
            overlap = min(bi.bottom, bj.bottom) - max(bi.top, bj.top)
            if overlap > 0 and overlap >= 0.5 * min(bi.height, bj.height):
                uf.union(i, j)
    lines = [[words[i] for i in idxs] for idxs in uf.groups().values()]
    lines.sort(key=lambda ws: min(w.box.top for w in ws))
    return lines


@st.composite
def boxes(draw, lo=0, hi=24, max_side=12):
    left = draw(st.integers(lo, hi))
    top = draw(st.integers(lo, hi))
    width = draw(st.integers(0, max_side))
    return box(left, top, left + width, top + draw(st.integers(0, max_side)))


@st.composite
def numbered_words(draw, max_size=40):
    """Words with distinct texts, so equal lists mean the same words in the same order."""
    bs = draw(st.lists(boxes(lo=-3, hi=27), max_size=max_size))
    return [Word(box=b, text=f"w{i}") for i, b in enumerate(bs)]


@st.composite
def tiled_cells(draw):
    xs = sorted(draw(st.sets(st.integers(0, 24), min_size=2, max_size=6)))
    ys = sorted(draw(st.sets(st.integers(0, 24), min_size=2, max_size=6)))
    return [
        make_cell(box(xs[j], ys[i], xs[j + 1], ys[i + 1]), i, i, j, j)
        for i in range(len(ys) - 1)
        for j in range(len(xs) - 1)
    ]


# free boxes cover gaps, overlaps, nesting and zero-area cells
free_cells = st.lists(boxes().map(lambda b: make_cell(b, 0, 0, 0, 0)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(cells=st.one_of(tiled_cells(), free_cells), words=numbered_words())
def test_assign_words_matches_per_cell_scan(cells, words):
    assert assign_words_to_cells(cells, words) == assign_words_oracle(cells, words)


@settings(max_examples=200, deadline=None)
@given(words=numbered_words())
def test_reconstruct_lines_matches_pairwise(words):
    assert reconstruct_lines(words) == reconstruct_lines_oracle(words)


@settings(max_examples=200, deadline=None)
@given(words=numbered_words(), top=st.integers(-5, 30), height=st.integers(-2, 20))
def test_word_index_bands_match_scans(words, top, height):
    index = WordIndex(tuple(words))
    bottom = top + height
    assert index.centered(top, bottom) == [
        w for w in words if top <= w.box.center[1] < bottom
    ]
    assert index.touching(top, bottom) == [
        w for w in words if w.box.top <= bottom and w.box.bottom >= top
    ]


def test_page_layout_json_round_trip():
    layout = PageLayout(
        page_width=100,
        page_height=200,
        words=(_word(5, 5, 20, 15, "hi", line_id=3),),
        separators=(Separator(box=box(0, 50, 100, 52),
                              orientation=SeparatorOrientation.HORIZONTAL),),
        non_text_regions=(box(0, 150, 40, 190),),
    )
    d = page_layout_to_dict(layout)
    back = page_layout_from_dict(d)
    assert back == layout


def test_page_layout_clamps_and_strips():
    d = {
        "page_width": 50,
        "page_height": 50,
        "words": [{"box": [-5, 10, 40, 20], "text": "a\x00b\x1fc"}],
        "separators": [],
    }
    layout = page_layout_from_dict(d)
    assert layout.words[0].box.left == 0
    assert layout.words[0].text == "abc"


def test_page_layout_rejects_bad_orientation():
    d = {
        "page_width": 100,
        "page_height": 100,
        "words": [],
        "separators": [{"box": [0, 0, 90, 2], "orientation": "v"}],
    }
    with pytest.raises(LayoutError):
        page_layout_from_dict(d)


def test_page_layout_drops_rulings_clipped_to_the_wrong_shape():
    d = {
        "page_width": 100,
        "page_height": 100,
        "words": [],
        "separators": [
            {"box": [99, 50, 300, 53], "orientation": "h"},  # clips to 1 x 3
            {"box": [0, 20, 100, 22], "orientation": "h"},
            {"box": [50, 99, 53, 400], "orientation": "v"},  # clips to 3 x 1
            {"box": [10, 90, 12, 400], "orientation": "v"},  # clips to 2 x 10, kept
            {"box": [10, -100, 50, 5], "orientation": "h"},  # 40 x 105, clips to 40 x 5, kept
        ],
    }
    layout = page_layout_from_dict(d)
    assert [s.box.as_tuple() for s in layout.separators] == [
        (0, 20, 100, 22), (10, 90, 12, 100), (10, 0, 50, 5)
    ]
    d["separators"].append({"box": [99, 50, 100, 53], "orientation": "h"})  # wrong as given
    with pytest.raises(LayoutError, match=r"separators\[5\]: horizontal separator taller"):
        page_layout_from_dict(d)


def test_page_layout_rejects_garbage():
    with pytest.raises(LayoutError):
        page_layout_from_dict({"page_width": -1, "page_height": 10,
                               "words": [], "separators": []})
    with pytest.raises(LayoutError):
        page_layout_from_dict([1, 2, 3])
    with pytest.raises(LayoutError):
        page_layout_from_dict({"page_width": 10, "page_height": 10,
                               "words": [{"box": [0, 0, 1]}], "separators": []})


def test_recognized_table_json_round_trip():
    t = _table_2x2()
    back = recognized_table_from_dict(recognized_table_to_dict(t))
    assert back.region == t.region
    assert (back.n_rows, back.n_cols) == (2, 2)
    assert back.source is TableSource.SEPARATOR
    # word boxes are not serialized; contents are
    assert [c.content for c in back.cells] == [c.content for c in t.cells]
    assert all(c.words == () for c in back.cells)


def test_recognizer_config_round_trip_and_validation():
    cfg = RecognizerConfig(gamma=1.5, require_labels_separator=True)
    back = recognizer_config_from_dict(recognizer_config_to_dict(cfg))
    assert back == cfg
    with pytest.raises(ConfigError):
        recognizer_config_from_dict({"gamma": -1})
    with pytest.raises(ConfigError):
        recognizer_config_from_dict({"no_such_option": 1})
    with pytest.raises(ValueError):
        RecognizerConfig(require_labels_separator=True, label_keywords=())
    with pytest.raises(ValueError):
        RecognizerConfig(separator_expand_px=-2)
