import json
import random

from dense import build_dense_corpus, make_block, retext, stack_page
from tabgrid.fixtures import corpus_recognizer_config
from tabgrid.model import TableSource, grid_is_tiled
from tabgrid.pipeline import recognize_page


def _blocks(seed, n):
    """The fixture pages stack_page draws, in the same order from the same rng."""
    rng = random.Random(seed)
    return [make_block(rng, "d", 1, k) for k in range(n)]


def test_blocks_stack_top_down_with_their_own_lines():
    blocks = _blocks(3, 6)
    page = stack_page(random.Random(3), "d", 1, 6)
    layout = page.layout
    assert len(layout.words) == sum(len(b.layout.words) for b in blocks)
    assert len(layout.separators) == sum(len(b.layout.separators) for b in blocks)
    assert layout.page_height == sum(b.layout.page_height for b in blocks)
    # line ids are offset per block, so no two blocks share a line
    assert len({w.line_id for w in layout.words}) == sum(
        len({w.line_id for w in b.layout.words}) for b in blocks
    )
    tables = page.gt.tables
    shapes = [(t.n_rows, t.n_cols) for b in blocks for t in b.gt.tables]
    assert [(t.n_rows, t.n_cols) for t in tables] == shapes
    assert [t.source for t in tables] == [TableSource.SEPARATOR, TableSource.BOOKTABS] * 3
    assert all(a.region.bottom < b.region.top for a, b in zip(tables, tables[1:]))
    assert all(grid_is_tiled(t) for t in tables)
    # tuple ground truth points at the interpretation-mode tables
    assert [ts.table_idx for ts in page.tuple_sets] == [2, 5]
    assert [ts.tuples for ts in page.tuple_sets] == [
        blocks[2].tuple_sets[0].tuples,
        blocks[5].tuple_sets[0].tuples,
    ]


def _shape(t):
    return t.region, sorted((c.box, c.row_start, c.col_start, c.content) for c in t.cells)


def test_ground_truth_moves_with_its_block():
    page = stack_page(random.Random(5), "d", 1, 4)
    result = recognize_page(page.layout, corpus_recognizer_config())
    assert [_shape(t) for t in result.tables] == [_shape(t) for t in page.gt.tables]


def test_retext_redraws_filler_text_only():
    page = stack_page(random.Random(5), "d", 1, 3)
    new = retext(page, random.Random(9))
    old_words, new_words = page.layout.words, new.layout.words
    assert [w.box for w in new_words] == [w.box for w in old_words]
    assert [len(w.text) for w in new_words] == [len(w.text) for w in old_words]
    changed = [(a.text, b.text) for a, b in zip(old_words, new_words) if a.text != b.text]
    assert len(changed) > len(old_words) // 2
    kept = {a.text for a, b in zip(old_words, new_words) if a.text == b.text}
    assert {"Table", "Compound", "IC50"} <= kept
    # the ground truth follows, so the page is still recognized exactly
    result = recognize_page(new.layout, corpus_recognizer_config())
    assert [_shape(t) for t in result.tables] == [_shape(t) for t in new.gt.tables]
    assert [_shape(t) for t in new.gt.tables] != [_shape(t) for t in page.gt.tables]
    assert [ts.tuples for ts in new.tuple_sets] == [ts.tuples for ts in page.tuple_sets]


def test_line_ids_can_be_stripped():
    page = stack_page(random.Random(3), "d", 1, 4, keep_line_ids=False)
    assert {w.line_id for w in page.layout.words} == {None}


def test_corpus_layout_matches_gen_fixtures(tmp_path):
    assert build_dense_corpus(tmp_path, 11, [2, 3]) == 2
    other = tmp_path / "other"
    build_dense_corpus(other, 12, [2, 3])
    # another seed redraws text only
    a = json.loads((tmp_path / "layouts" / "dense003_page01.json").read_text())
    b = json.loads((other / "layouts" / "dense003_page01.json").read_text())
    assert [w["box"] for w in a["words"]] == [w["box"] for w in b["words"]]
    assert [w["text"] for w in a["words"]] != [w["text"] for w in b["words"]]
    layouts = sorted(p.name for p in (tmp_path / "layouts").iterdir())
    assert layouts == ["dense002_page01.json", "dense003_page01.json"]
    assert sorted(p.name for p in (tmp_path / "recognition_gt").iterdir()) == layouts
    tuple_files = [p.name for p in (tmp_path / "interpretation_gt").iterdir()]
    assert tuple_files == ["dense003_page01_table2.json"]
    gt = json.loads((tmp_path / "recognition_gt" / "dense003_page01.json").read_text())
    assert len(gt["tables"]) == 3
    assert (tmp_path / "rules.json").is_file() and (tmp_path / "recognizer_config.json").is_file()
