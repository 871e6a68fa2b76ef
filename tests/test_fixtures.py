"""Synthetic-corpus generator: structural invariants and spec handling."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from tabgrid.cli import main
from tabgrid.corpusio import page_tables_to_dict
from tabgrid.errors import ConfigError
from tabgrid.evaluate import PRF, cell_score, interpretation_score, recognition_score
from tabgrid.fixtures import (
    MergeSpec,
    build_corpus,
    corpus_recognizer_config,
    default_meanings,
    gen_bordered_page,
    gen_booktabs_page,
    generate_pages,
    move_page,
    shift_separators,
    stack_pages,
)
from tabgrid.geometry import BoundingBox
from tabgrid.interpret import header_row_count_for, interpret_table
from tabgrid.model import (
    RecognizerConfig,
    TableSource,
    cell_grid,
    grid_is_tiled,
    page_layout_from_dict,
    page_layout_to_dict,
)
from tabgrid.pipeline import PageOrientation, recognize_page


def _spec(**kw):
    base = {"seed": 11, "pages": [], "random": {}}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# structural invariants of generated ground truth


def test_every_generated_table_is_a_tiling():
    spec = _spec(random={
        "bordered": {"count": 6},
        "booktabs": {"count": 6},
        "interpretation": {"count": 4},
    })
    pages = generate_pages(spec)
    assert len(pages) == 16
    for page in pages:
        for t in page.gt.tables:
            assert grid_is_tiled(t), f"{page.file_id}: grid not tiled"
            assert t.n_rows >= 2 and t.n_cols >= 2


def test_generated_words_lie_inside_their_cells():
    pages = generate_pages(_spec(random={"bordered": {"count": 4}}))
    for page in pages:
        for t in page.gt.tables:
            for c in t.cells:
                for w in c.words:
                    assert w.box.left >= c.box.left
                    assert w.box.right <= c.box.right
                    assert w.box.top >= c.box.top
                    assert w.box.bottom <= c.box.bottom


def test_generate_pages_is_deterministic():
    spec = _spec(random={"bordered": {"count": 3}, "booktabs": {"count": 3}})
    a = generate_pages(spec)
    b = generate_pages(spec)
    assert [(p.file_id, p.page_nr) for p in a] == [(p.file_id, p.page_nr) for p in b]
    for pa, pb in zip(a, b):
        assert pa.layout == pb.layout
        assert pa.gt == pb.gt
        assert pa.tuple_sets == pb.tuple_sets


def test_different_seed_changes_content():
    a = generate_pages(_spec(seed=1, random={"bordered": {"count": 2}}))
    b = generate_pages(_spec(seed=2, random={"bordered": {"count": 2}}))
    assert a != b


# ---------------------------------------------------------------------------
# explicit page specs


def test_explicit_bordered_merge_right_produces_column_span():
    rng = random.Random(5)
    page = gen_bordered_page(
        rng, "m", 1, rows=3, cols=3, merges=[MergeSpec(1, 0, "right")]
    )
    (t,) = page.gt.tables
    grid = cell_grid(t)
    merged = grid[1][0]
    assert (merged.col_start, merged.col_end) == (0, 1)
    assert grid[1][1] is merged
    assert grid_is_tiled(t)


def test_explicit_bordered_merge_down_produces_row_span():
    rng = random.Random(5)
    page = gen_bordered_page(
        rng, "m", 1, rows=3, cols=3, merges=[MergeSpec(0, 2, "down")]
    )
    (t,) = page.gt.tables
    grid = cell_grid(t)
    merged = grid[0][2]
    assert (merged.row_start, merged.row_end) == (0, 1)
    assert grid[1][2] is merged


def test_booktabs_grouped_header_spans_cmidrule_columns():
    rng = random.Random(9)
    page = gen_booktabs_page(
        rng, "bt", 1, rows=4, cols=4, cmidrule_levels=[[(0, 1), (2, 3)]]
    )
    (t,) = page.gt.tables
    assert t.header_row_count == 2
    grid = cell_grid(t)
    top = grid[0]
    assert (top[0].col_start, top[0].col_end) == (0, 1)
    assert (top[2].col_start, top[2].col_end) == (2, 3)
    assert top[0] is top[1] and top[2] is top[3]
    # the lowest header row stays per-column
    assert all(c.col_start == c.col_end for c in grid[1])


def test_booktabs_without_cmidrules_has_single_header_row():
    rng = random.Random(3)
    page = gen_booktabs_page(rng, "bt", 1, rows=3, cols=3, cmidrule_levels=[])
    (t,) = page.gt.tables
    assert t.header_row_count == 1


def test_full_span_cmidrule_rejected():
    rng = random.Random(0)
    with pytest.raises(ConfigError):
        gen_booktabs_page(rng, "bt", 1, rows=3, cols=3, cmidrule_levels=[[(0, 2)]])


def test_merge_out_of_bounds_rejected():
    rng = random.Random(0)
    with pytest.raises(ConfigError):
        gen_bordered_page(rng, "m", 1, rows=2, cols=2, merges=[MergeSpec(1, 1, "right")])
    with pytest.raises(ConfigError):
        gen_bordered_page(rng, "m", 1, rows=2, cols=2, merges=[MergeSpec(1, 0, "down")])


def _spans(table):
    return sorted(
        (c.row_start, c.row_end, c.col_start, c.col_end, c.content) for c in table.cells
    )


def test_interior_merges_keep_the_rest_of_their_borders():
    # two merges cut two interior bands out of column border 1, one merge
    # cuts row border 2; each border keeps every piece between the cuts
    merges = [MergeSpec(1, 0, "right"), MergeSpec(3, 0, "right"), MergeSpec(1, 2, "down")]
    page = gen_bordered_page(random.Random(5), "m", 1, rows=5, cols=4, merges=merges)
    (want,) = page.gt.tables
    xs = sorted({c.box.left for c in want.cells} | {want.region.right})
    ys = sorted({c.box.top for c in want.cells} | {want.region.bottom})
    seps = page.layout.separators
    v = sorted((s.box.top, s.box.bottom) for s in seps if s.orientation.value == "v"
               and s.box.center[0] == xs[1])
    h = sorted((s.box.left, s.box.right) for s in seps if s.orientation.value == "h"
               and s.box.center[1] == ys[2])
    assert v == [(ys[0], ys[1]), (ys[2], ys[3]), (ys[4], ys[5])]
    assert h == [(xs[0], xs[2]), (xs[3], xs[4])]
    (got,) = recognize_page(page.layout, RecognizerConfig()).tables
    assert _spans(got) == _spans(want)


def test_docs_fixture_page_scores_its_own_ground_truth():
    # doc_a of the fixture spec in docs/formats.md: vertical, 5 x 4, a merge in row 1
    doc_a = {
        "kind": "bordered", "file_id": "doc_a", "page_nr": 1, "rows": 5, "cols": 4,
        "labeled": True, "orientation": "vertical",
        "merges": [{"row": 1, "col": 0, "dir": "right"}],
    }
    (page,) = generate_pages(_spec(seed=7, pages=[doc_a]))
    got = recognize_page(page.layout, corpus_recognizer_config(), PageOrientation.VERTICAL)
    assert recognition_score({0: page.gt.tables}, {0: list(got.tables)}).f1 == 1.0


def test_merges_that_share_a_cell_rejected():
    rng = random.Random(0)
    for merges in (
        [MergeSpec(1, 0, "right"), MergeSpec(1, 1, "down")],
        [MergeSpec(0, 1, "down"), MergeSpec(1, 0, "right")],
        [MergeSpec(0, 0, "right"), MergeSpec(0, 0, "right")],
    ):
        with pytest.raises(ConfigError, match="shares cell"):
            gen_bordered_page(rng, "m", 1, rows=3, cols=3, merges=merges)


@pytest.mark.parametrize("shape", [{"rows": 1}, {"cols": 1}, {"rows": 1, "cols": 1}])
def test_one_row_or_one_column_grids_draw_no_merges(shape):
    # any merge on such a grid would cut a whole border
    for seed in range(1, 13):
        spec = _spec(seed=seed, pages=[{"kind": "bordered", "file_id": "x", "page_nr": 1, **shape}])
        (page,) = generate_pages(spec)
        (table,) = page.gt.tables
        assert len(table.cells) == table.n_rows * table.n_cols
        assert grid_is_tiled(table)


def test_merges_that_remove_a_whole_border_rejected():
    rng = random.Random(0)
    for rows, cols, merges in (
        (2, 3, [MergeSpec(0, 0, "right"), MergeSpec(1, 0, "right")]),
        (1, 3, [MergeSpec(0, 1, "right")]),
        (3, 2, [MergeSpec(0, 0, "down"), MergeSpec(0, 1, "down")]),
    ):
        with pytest.raises(ConfigError, match="whole grid border"):
            gen_bordered_page(rng, "m", 1, rows=rows, cols=cols, merges=merges)


def test_overlapping_cmidrules_in_one_level_rejected():
    rng = random.Random(0)
    with pytest.raises(ConfigError, match="overlap in one level"):
        gen_booktabs_page(rng, "bt", 1, rows=3, cols=5, cmidrule_levels=[[(2, 3), (0, 2)]])
    # abutting spans in one level and overlapping spans in two levels are fine
    page = gen_booktabs_page(
        rng, "bt", 1, rows=3, cols=5, cmidrule_levels=[[(0, 1), (2, 3)], [(1, 2)]]
    )
    assert grid_is_tiled(page.gt.tables[0])


def test_unlabeled_page_marks_expected_missed():
    rng = random.Random(2)
    page = gen_bordered_page(rng, "u", 1, rows=2, cols=2, labeled=False)
    assert page.gt.tables[0].expected_missed is True
    labeled = gen_bordered_page(random.Random(2), "u", 1, rows=2, cols=2, labeled=True)
    assert labeled.gt.tables[0].expected_missed is False


def test_vertical_orientation_transposes_layout_not_grid():
    spec = _spec(pages=[
        {"kind": "bordered", "file_id": "v", "page_nr": 1, "rows": 3, "cols": 4,
         "orientation": "vertical"},
        {"kind": "bordered", "file_id": "s", "page_nr": 1, "rows": 3, "cols": 4},
    ])
    vert, std = generate_pages(spec)
    assert vert.gt.orientation == "vertical"
    (tv,) = vert.gt.tables
    assert (tv.n_rows, tv.n_cols) == (3, 4)
    # layout boxes are transposed: the page's words are taller than wide
    word = vert.layout.words[0]
    assert word.box.height > word.box.width


# ---------------------------------------------------------------------------
# spec validation


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        generate_pages(_spec(pages=[{"kind": "csv", "file_id": "x", "page_nr": 1}]))


def test_duplicate_page_key_rejected():
    spec = _spec(pages=[
        {"kind": "bordered", "file_id": "d", "page_nr": 1},
        {"kind": "booktabs", "file_id": "d", "page_nr": 1},
    ])
    with pytest.raises(ConfigError):
        generate_pages(spec)


def test_bad_seed_and_bad_groups_rejected():
    with pytest.raises(ConfigError):
        generate_pages(_spec(seed="eleven"))
    with pytest.raises(ConfigError):
        generate_pages(_spec(random={"mystery": {"count": 1}}))
    with pytest.raises(ConfigError):
        generate_pages(_spec(random={"bordered": {"count": -1}}))


# ---------------------------------------------------------------------------
# interpretation ground truth


def test_interpretation_tuples_mirror_body_cells():
    pages = generate_pages(_spec(random={"interpretation": {"count": 4}}))
    names = {m.name for m in default_meanings()}
    for page in pages:
        assert page.tuple_sets, f"{page.file_id}: no tuple ground truth"
        for t, ts in zip(page.gt.tables, page.tuple_sets):
            grid = cell_grid(t)
            header_rows = header_row_count_for(t)
            assert len(ts.tuples) == t.n_rows - header_rows
            for tup in ts.tuples:
                assert set(tup.values) == names
                # tuple rows index body rows; values are body cell contents
                row_contents = {c.content.strip() for c in grid[header_rows + tup.row]}
                for v in tup.values.values():
                    assert v in row_contents


def test_plain_random_pages_have_no_tuple_gt():
    pages = generate_pages(_spec(random={"bordered": {"count": 2}}))
    assert all(not p.tuple_sets for p in pages)


def test_default_meanings_shapes():
    meanings = default_meanings()
    assert [m.name for m in meanings] == ["COMPOUND", "ACTIVITY"]
    compound, activity = meanings
    assert compound.content_regex is not None
    assert activity.data_type is not None
    for m in meanings:
        assert m.min_affinity == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# separator jitter


def test_shift_separators_bounded_and_deterministic():
    page = gen_bordered_page(random.Random(4), "j", 1, rows=3, cols=3)
    jittered = shift_separators(page.layout, random.Random(7), 2)
    again = shift_separators(page.layout, random.Random(7), 2)
    assert jittered == again
    assert jittered != page.layout
    for orig, moved in zip(page.layout.separators, jittered.separators):
        assert abs(moved.box.left - orig.box.left) <= 2
        assert abs(moved.box.top - orig.box.top) <= 2
        assert moved.box.width == orig.box.width
        assert moved.box.height == orig.box.height


def test_shift_zero_magnitude_is_identity():
    page = gen_bordered_page(random.Random(4), "j", 1, rows=2, cols=2)
    assert shift_separators(page.layout, random.Random(1), 0) == page.layout


# ---------------------------------------------------------------------------
# moving and stacking pages


def test_move_page_moves_every_box_and_grows_the_page():
    rng = random.Random(4)
    pages = [
        gen_bordered_page(rng, "m", 1, labeled=False),
        gen_booktabs_page(rng, "m", 1, columns_mode="interpretation"),
    ]
    assert pages[0].gt.tables[0].expected_missed and pages[1].tuple_sets
    at = lambda b: (b.left + 7, b.top + 11, b.right + 7, b.bottom + 11)
    same = BoundingBox.as_tuple

    def words(ws, box):
        return [(box(w.box), w.text, w.line_id) for w in ws]

    for page in pages:
        regions = (BoundingBox(1, 2, 3, 4),)
        page = replace(page, layout=replace(page.layout, non_text_regions=regions))
        moved = move_page(page, 7, 11)
        old, new = page.layout, moved.layout
        assert (new.page_width, new.page_height) == (old.page_width + 7, old.page_height + 11)
        assert words(new.words, same) == words(old.words, at)
        assert [(same(s.box), s.orientation) for s in new.separators] == [
            (at(s.box), s.orientation) for s in old.separators
        ]
        assert [same(r) for r in new.non_text_regions] == [(8, 13, 10, 15)]
        for t, m in zip(page.gt.tables, moved.gt.tables, strict=True):
            assert same(m.region) == at(t.region)
            assert replace(m, region=t.region, cells=t.cells) == t  # marks and shape stay
            assert [(same(c.box), c.content, words(c.words, same)) for c in m.cells] == [
                (at(c.box), c.content, words(c.words, at)) for c in t.cells
            ]
        assert moved.tuple_sets == page.tuple_sets
        raised = move_page(page, 0, 0, 5)
        line = lambda w: w.line_id + 5
        assert [w.line_id for w in raised.layout.words] == [*map(line, old.words)]
        assert [w.line_id for t in raised.gt.tables for c in t.cells for w in c.words] == [
            line(w) for t in page.gt.tables for c in t.cells for w in c.words
        ]


def _blocks(seed, n):
    """Ruled and booktabs fixture pages by turns, every third in interpretation mode."""
    rng = random.Random(seed)
    return [
        (gen_bordered_page, gen_booktabs_page)[k % 2](
            rng, "d", 1, columns_mode="interpretation" if k % 3 == 2 else None
        )
        for k in range(n)
    ]


def _without_line_ids(page):
    words = tuple(replace(w, line_id=None) for w in page.layout.words)
    return replace(page, layout=replace(page.layout, words=words))


def test_stacked_pages_lie_top_down_with_their_own_lines():
    blocks = _blocks(3, 6)
    page = stack_pages(blocks, "d", 1)
    layout = page.layout
    assert len(layout.words) == sum(len(b.layout.words) for b in blocks)
    assert len(layout.separators) == sum(len(b.layout.separators) for b in blocks)
    assert layout.page_height == sum(b.layout.page_height for b in blocks)
    assert layout.page_width == max(b.layout.page_width for b in blocks)
    # line ids are offset per block, so no two blocks share a line
    assert len({w.line_id for w in layout.words}) == sum(
        len({w.line_id for w in b.layout.words}) for b in blocks
    )
    tables = page.gt.tables
    shapes = [(t.n_rows, t.n_cols, t.source) for b in blocks for t in b.gt.tables]
    assert [(t.n_rows, t.n_cols, t.source) for t in tables] == shapes
    assert [t.source for t in tables] == [TableSource.SEPARATOR, TableSource.BOOKTABS] * 3
    assert all(a.region.bottom < b.region.top for a, b in zip(tables, tables[1:]))
    assert all(grid_is_tiled(t) for t in tables)
    # tuple ground truth points at the interpretation-mode tables
    assert [(ts.file_id, ts.page_nr, ts.table_idx) for ts in page.tuple_sets] == [
        ("d", 1, 2), ("d", 1, 5)
    ]
    assert [ts.tuples for ts in page.tuple_sets] == [
        blocks[2].tuple_sets[0].tuples, blocks[5].tuple_sets[0].tuples
    ]


def test_a_page_without_line_ids_keeps_none_and_takes_no_line():
    first, second = _blocks(2, 2)
    page = stack_pages([_without_line_ids(first), second], "d", 1)
    n = len(first.layout.words)
    assert {w.line_id for w in page.layout.words[:n]} == {None}
    assert [w.line_id for w in page.layout.words[n:]] == [w.line_id for w in second.layout.words]


def test_stacked_cell_words_are_the_layout_words_on_their_lines():
    page = stack_pages(_blocks(3, 6), "d", 1)
    on_page = {(w.box, w.text, w.line_id) for w in page.layout.words}
    cells = [c for t in page.gt.tables for c in t.cells]
    cell_words = [(w.box, w.text, w.line_id) for c in cells for w in c.words]
    assert len(cell_words) > 100 and set(cell_words) <= on_page


def _cells(t):
    return t.region, {(c.row_start, c.col_start): (c.box, c.content, c.words) for c in t.cells}


def test_the_corpus_config_recognizes_a_stacked_page_as_its_ground_truth():
    page = stack_pages(_blocks(5, 4), "d", 1)
    result = recognize_page(page.layout, corpus_recognizer_config())
    assert [_cells(t) for t in result.tables] == [_cells(t) for t in page.gt.tables]


DENSE = Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"


@pytest.fixture(scope="module")
def dense():
    spec = importlib.util.spec_from_file_location("perfbench_dense", DENSE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _written(page):
    return page_layout_to_dict(page.layout), page_tables_to_dict(page.gt), page.tuple_sets


# the table counts of the benchmark's dense and dense-noline workloads, whose
# pages are drawn one after another from one generator
@pytest.mark.parametrize(
    "counts, line_ids", [((5, 10, 20, 40, 80), True), ((5, 10, 15), False)],
    ids=["dense", "dense-noline"],
)
def test_stack_pages_writes_the_benchmark_dense_pages(dense, counts, line_ids):
    ours, theirs = random.Random(dense.GEOMETRY_SEED), random.Random(dense.GEOMETRY_SEED)
    for n in counts:
        file_id = f"dense{n:03d}"
        page = stack_pages([dense.make_block(ours, file_id, 1, k) for k in range(n)], file_id, 1)
        page = page if line_ids else _without_line_ids(page)
        assert _written(page) == _written(dense.stack_page(theirs, file_id, 1, n, line_ids))


# ---------------------------------------------------------------------------
# corpus writer


def test_build_corpus_writes_expected_tree(tmp_path):
    spec = _spec(random={"bordered": {"count": 2}, "interpretation": {"count": 2}})
    counts = build_corpus(spec, tmp_path)
    assert counts["pages"] == 4
    assert counts["tuple_sets"] == 2
    assert len(list((tmp_path / "layouts").glob("*.json"))) == 4
    assert len(list((tmp_path / "recognition_gt").glob("*.json"))) == 4
    assert len(list((tmp_path / "interpretation_gt").glob("*.json"))) == 2
    assert (tmp_path / "rules.json").is_file()
    assert (tmp_path / "recognizer_config.json").is_file()


# every generator branch: explicit merges (two cuts in one border), two
# cmidrule levels, an unlabeled vertical page, a booktabs interpretation
# page, and all three random groups
PINNED_SPEC = _spec(
    pages=[
        {"kind": "bordered", "file_id": "pin_merge", "page_nr": 1, "rows": 5, "cols": 4,
         "merges": [{"row": 1, "col": 0, "dir": "right"}, {"row": 3, "col": 0, "dir": "right"},
                    {"row": 1, "col": 2, "dir": "down"}]},
        {"kind": "booktabs", "file_id": "pin_levels", "page_nr": 1, "cols": 5,
         "cmidrule_levels": [[[0, 1], [2, 4]], [[1, 3]]]},
        {"kind": "bordered", "file_id": "pin_vertical", "page_nr": 2, "labeled": False,
         "orientation": "vertical"},
        {"kind": "booktabs", "file_id": "pin_tuples", "page_nr": 1, "interpretation": True},
    ],
    random={"bordered": {"count": 3}, "booktabs": {"count": 3}, "interpretation": {"count": 4}},
)


def _pinned_digest(root: Path, files: list[Path]) -> str:
    """sha256 over each file's path and its JSON re-indented with ``indent=2``,
    so the digest pins content, not layout; each file must also hold the one
    line ``dump_json`` writes."""
    digest = hashlib.sha256()
    for p in files:
        data = p.read_bytes()
        obj = json.loads(data)
        assert data == (json.dumps(obj, sort_keys=True) + "\n").encode("ascii"), p
        indented = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + indented.encode())
    return digest.hexdigest()


# a changed digest means every existing corpus spec now gives different files
PINNED_DIGEST = "46e9c7cadaae723f3b4c69c2f24569c4f82614bbd0039e620f7fe25ec784e091"


def test_build_corpus_bytes_are_pinned(tmp_path):
    build_corpus(PINNED_SPEC, tmp_path)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == 35
    assert _pinned_digest(tmp_path, files) == PINNED_DIGEST


# a changed digest means recognize, interpret or eval now write other bytes
PINNED_CHAIN_DIGEST = "bde93b77ddc0e7f118fdd8471f15a33259f8a0ba239a51f39eb7921153dde99c"


def test_chain_bytes_on_the_pinned_spec_are_pinned(tmp_path):
    build_corpus(PINNED_SPEC, tmp_path / "corpus")
    corpus, pred, tuples = (str(tmp_path / d) for d in ("corpus", "pred", "tuples"))
    reports = [tmp_path / f"{mode}.json" for mode in ("recognition", "cells", "interpretation")]
    steps = [
        ["recognize", f"{corpus}/layouts", pred, "--config", f"{corpus}/recognizer_config.json"],
        ["interpret", pred, f"{corpus}/rules.json", tuples],
        ["eval", "recognition", f"{corpus}/recognition_gt", pred, "--out", str(reports[0])],
        ["eval", "cells", f"{corpus}/recognition_gt", pred, "--out", str(reports[1])],
        ["eval", "interpretation", f"{corpus}/interpretation_gt", tuples, "--out", str(reports[2])],
    ]
    for argv in steps:
        assert main(argv) == 0
    files = sorted(
        p for d in (pred, tuples) for p in Path(d).glob("*.json") if p.name != "run_manifest.json"
    ) + reports
    assert len(files) == 22
    assert _pinned_digest(tmp_path, files) == PINNED_CHAIN_DIGEST


# the same chain with every line_id set to null, so d_page rebuilds the lines;
# the rebuilt lines give the same d_page here, hence the same bytes
PINNED_NO_LINE_ID_CHAIN_DIGEST = "bde93b77ddc0e7f118fdd8471f15a33259f8a0ba239a51f39eb7921153dde99c"


def test_chain_bytes_without_line_ids_are_pinned(tmp_path):
    build_corpus(PINNED_SPEC, tmp_path / "corpus")
    corpus, pred, tuples = (str(tmp_path / d) for d in ("corpus", "pred", "tuples"))
    for p in Path(corpus, "layouts").glob("*.json"):
        layout = json.loads(p.read_bytes())
        for w in layout["words"]:
            w["line_id"] = None
        p.write_text(json.dumps(layout, sort_keys=True) + "\n")
    reports = [tmp_path / f"{mode}.json" for mode in ("recognition", "cells", "interpretation")]
    steps = [
        ["recognize", f"{corpus}/layouts", pred, "--config", f"{corpus}/recognizer_config.json"],
        ["interpret", pred, f"{corpus}/rules.json", tuples],
        ["eval", "recognition", f"{corpus}/recognition_gt", pred, "--out", str(reports[0])],
        ["eval", "cells", f"{corpus}/recognition_gt", pred, "--out", str(reports[1])],
        ["eval", "interpretation", f"{corpus}/interpretation_gt", tuples, "--out", str(reports[2])],
    ]
    for argv in steps:
        assert main(argv) == 0
    files = sorted(
        p for d in (pred, tuples) for p in Path(d).glob("*.json") if p.name != "run_manifest.json"
    ) + reports
    assert len(files) == 22
    assert _pinned_digest(tmp_path, files) == PINNED_NO_LINE_ID_CHAIN_DIGEST


# ---------------------------------------------------------------------------
# scores on jittered pages

# 100 pages of seed 7 in the 2:2:1 mix of the CI's 500-page seed-7 spec; the
# first 100 pages of that spec are all ruled and hold no tuple set
JITTER_SPEC = _spec(
    seed=7,
    random={"bordered": {"count": 40}, "booktabs": {"count": 40}, "interpretation": {"count": 20}},
)


def test_scores_of_jittered_pages_are_pinned():
    """Rulings moved by 0, 3, 5, 8 or 20 px lose tables and cells; a
    recognizer that finds or loses one more changes these counts."""
    rng = random.Random(3)
    cfg, meanings = corpus_recognizer_config(), default_meanings()
    recognition, gt_pages, pred_pages, gt_sets, pred_sets = PRF(), {}, {}, [], []
    for page in sorted(generate_pages(JITTER_SPEC), key=lambda p: (p.file_id, p.page_nr)):
        layout = shift_separators(page.layout, rng, rng.choice([0, 3, 5, 8, 20]))
        # through the reader, as recognize reads it: it clips what left the page
        layout = page_layout_from_dict(page_layout_to_dict(layout))
        key = (page.file_id, page.page_nr)
        gt_pages[key], pred_pages[key] = page.gt.tables, list(recognize_page(layout, cfg).tables)
        recognition += recognition_score({0: gt_pages[key]}, {0: pred_pages[key]})
        gt_sets += page.tuple_sets
        tuple_sets = (interpret_table(t, meanings, *key, i) for i, t in enumerate(pred_pages[key]))
        pred_sets += [ts for ts in tuple_sets if ts.tuples]
    assert recognition == PRF(tp=3189, fp=19, fn=495)
    assert cell_score(gt_pages, pred_pages, 0.5, (0.6, 0.7, 0.8, 0.9)) == {
        0.6: PRF(tp=2029, fp=144, fn=460),
        0.7: PRF(tp=1874, fp=299, fn=615),
        0.8: PRF(tp=1636, fp=537, fn=853),
        0.9: PRF(tp=1186, fp=987, fn=1303),
    }
    assert interpretation_score(gt_sets, pred_sets) == PRF(tp=83, fp=0, fn=9)
