import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid import kernels
from tabgrid.errors import DuplicateKey, EmptyCorpus
from tabgrid.evaluate import (
    PRF,
    TableMatch,
    _paired_tables,
    adjacency_relations,
    cell_f1_at_iou,
    cell_score,
    corpus_average,
    interpretation_score,
    match_tables,
    recognition_score,
    tuple_set_f1,
    wavg_f1,
)
from tabgrid.fixtures import corpus_recognizer_config, gen_booktabs_page, gen_bordered_page
from tabgrid.geometry import box
from tabgrid.interpret import RowTuple, TupleSet
from tabgrid.kernels import box_iou, iou_matrix
from tabgrid.model import Cell, RecognizedTable, RecognizerConfig, TableSource
from tabgrid.pipeline import recognize_page


def _cell(b, rs, re, cs, ce, text):
    return Cell(box=b, row_start=rs, row_end=re, col_start=cs, col_end=ce,
                words=(), content=text)


def _grid_table(rows, origin=(0, 0), cw=50, rh=20):
    """rows: list of lists of cell contents (None for a blank cell)."""
    oy, ox = origin[1], origin[0]
    n_rows, n_cols = len(rows), len(rows[0])
    cells = []
    for i, row in enumerate(rows):
        for j, content in enumerate(row):
            cells.append(
                _cell(
                    box(ox + j * cw, oy + i * rh, ox + (j + 1) * cw, oy + (i + 1) * rh),
                    i, i, j, j, "" if content is None else content,
                )
            )
    return RecognizedTable(
        region=box(ox, oy, ox + n_cols * cw, oy + n_rows * rh),
        n_rows=n_rows,
        n_cols=n_cols,
        cells=tuple(cells),
        labeled=True,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )


def rel_counts(table):
    return Counter(adjacency_relations(table))


# ---------------------------------------------------------------------------
# adjacency relations


def test_filled_2x2_has_four_relations():
    t = _grid_table([["a", "b"], ["c", "d"]])
    triples = rel_counts(t)
    assert sum(triples.values()) == 4
    assert triples[("a", "b", "right")] == 1
    assert triples[("c", "d", "right")] == 1
    assert triples[("a", "c", "down")] == 1
    assert triples[("b", "d", "down")] == 1


def test_blank_cells_are_skipped_not_related():
    # blank middle cell: a single Right relation jumps across it
    t = _grid_table([["a", None, "b"]])
    triples = rel_counts(t)
    assert triples == Counter({("a", "b", "right"): 1})
    # blank cells never originate relations
    t2 = _grid_table([[None, "x"]])
    assert sum(rel_counts(t2).values()) == 0


def test_duplicate_contents_counted_with_multiplicity():
    t = _grid_table([["x", "x", "x"]])
    triples = rel_counts(t)
    assert triples == Counter({("x", "x", "right"): 2})


def test_spanning_cell_relates_once_per_direction():
    # A row-spanning cell emits a single Right relation: the nearest
    # non-blank cell anywhere in its row band, not one per spanned row.
    cells = (
        _cell(box(0, 0, 50, 40), 0, 1, 0, 0, "tall"),
        _cell(box(50, 0, 100, 20), 0, 0, 1, 1, "r0"),
        _cell(box(50, 20, 100, 40), 1, 1, 1, 1, "r1"),
    )
    t = RecognizedTable(
        region=box(0, 0, 100, 40), n_rows=2, n_cols=2, cells=cells,
        labeled=True, source=TableSource.SEPARATOR, header_row_count=0,
    )
    triples = rel_counts(t)
    assert triples[("tall", "r0", "right")] == 1
    assert ("tall", "r1", "right") not in triples
    assert triples[("r0", "r1", "down")] == 1
    assert sum(triples.values()) == 2


def test_single_cell_no_relations():
    assert rel_counts(_grid_table([["only"]])) == Counter()


# ---------------------------------------------------------------------------
# precision / recall / F1


def test_prf_standard_values():
    prf = PRF(tp=69, fp=4, fn=45)
    assert prf.precision == pytest.approx(0.9452, abs=5e-5)
    assert prf.recall == pytest.approx(0.6053, abs=5e-5)
    assert prf.f1 == pytest.approx(0.7380, abs=5e-5)
    prf2 = PRF(tp=69, fp=4, fn=5)
    assert prf2.recall == pytest.approx(0.9324, abs=5e-5)
    assert prf2.f1 == pytest.approx(0.9388, abs=5e-5)


def test_prf_zero_denominators():
    # nothing to find and nothing predicted: vacuously perfect
    assert PRF(0, 0, 0).precision == 1.0
    assert PRF(0, 0, 0).recall == 1.0
    assert PRF(0, 0, 0).f1 == 1.0
    # only false positives: perfect recall, zero precision
    assert PRF(0, 5, 0).recall == 1.0
    assert PRF(0, 5, 0).f1 == 0.0
    # only false negatives: perfect precision, zero recall
    assert PRF(0, 0, 5).precision == 1.0
    assert PRF(0, 0, 5).f1 == 0.0


def test_prf_counts_default_to_zero_and_add():
    assert PRF() == PRF(0, 0, 0)
    assert PRF(tp=1, fp=2) + PRF(fp=1, fn=4) == PRF(tp=1, fp=3, fn=4)
    assert sum([PRF(tp=1), PRF(fn=2), PRF(tp=3, fp=1)], PRF()) == PRF(tp=4, fp=1, fn=2)


def test_prf_fields_and_text():
    prf = PRF(tp=69, fp=4, fn=45)
    assert prf.fields() == {
        "tp": 69, "fp": 4, "fn": 45,
        "precision": prf.precision, "recall": prf.recall, "f1": prf.f1,
    }
    assert str(prf) == "P=0.9452 R=0.6053 F1=0.7380 (tp=69 fp=4 fn=45)"
    assert str(PRF()) == "P=1.0000 R=1.0000 F1=1.0000 (tp=0 fp=0 fn=0)"


def test_corpus_average_is_macro():
    a = PRF(tp=1, fp=0, fn=1)   # P=1, R=.5, F1=2/3
    b = PRF(tp=3, fp=1, fn=0)   # P=.75, R=1, F1=6/7
    avg = corpus_average([a, b])
    assert avg.precision == pytest.approx((1.0 + 0.75) / 2)
    assert avg.recall == pytest.approx((0.5 + 1.0) / 2)
    assert avg.f1 == pytest.approx((2 / 3 + 6 / 7) / 2)
    with pytest.raises(EmptyCorpus):
        corpus_average([])


# ---------------------------------------------------------------------------
# table matching and recognition scoring


def test_match_tables_greedy_by_iou():
    gt = [_grid_table([["a"]], origin=(0, 0)), _grid_table([["b"]], origin=(200, 0))]
    pred = [
        _grid_table([["a"]], origin=(4, 0)),    # high IoU with gt[0]
        _grid_table([["b"]], origin=(204, 0)),  # high IoU with gt[1]
        _grid_table([["c"]], origin=(600, 0)),  # unmatched
    ]
    m = match_tables(gt, pred, iou_min=0.5)
    assert m.pairs == ((0, 0), (1, 1))
    assert m.unmatched_gt == ()
    assert m.unmatched_pred == (2,)


def test_match_tables_threshold():
    gt = [_grid_table([["a"]])]
    pred = [_grid_table([["a"]], origin=(40, 0))]  # IoU 10/90 = 1/9
    m = match_tables(gt, pred, iou_min=0.5)
    assert m.pairs == ()
    assert m.unmatched_gt == (0,) and m.unmatched_pred == (0,)


def test_recognition_score_perfect():
    rng = random.Random(1)
    page = gen_bordered_page(rng, "d", 1)
    t = page.gt.tables[0]
    prf = recognition_score({1: [t]}, {1: [t]})
    assert (prf.fp, prf.fn) == (0, 0)
    assert prf.precision == 1.0 and prf.recall == 1.0


def test_recognition_score_missed_table_counts_fn():
    t = _grid_table([["a", "b"], ["c", "d"]])
    prf = recognition_score({1: [t]}, {1: []})
    assert prf.tp == 0
    assert prf.fn == 4  # every gt relation missed
    assert prf.fp == 0
    assert prf.recall == 0.0


def test_recognition_score_spurious_table_counts_fp():
    t = _grid_table([["a", "b"], ["c", "d"]])
    prf = recognition_score({1: []}, {1: [t]})
    assert (prf.tp, prf.fp, prf.fn) == (0, 4, 0)


def test_recognition_score_partial_structure():
    gt = _grid_table([["a", "b"], ["c", "d"]])
    # prediction merges the bottom row into one cell: Right(c,d) lost,
    # Down relations change targets
    cells = (
        _cell(box(0, 0, 50, 20), 0, 0, 0, 0, "a"),
        _cell(box(50, 0, 100, 20), 0, 0, 1, 1, "b"),
        _cell(box(0, 20, 100, 40), 1, 1, 0, 1, "c d"),
    )
    pred = RecognizedTable(
        region=gt.region, n_rows=2, n_cols=2, cells=cells,
        labeled=True, source=TableSource.SEPARATOR, header_row_count=0,
    )
    prf = recognition_score({1: [gt]}, {1: [pred]})
    # shared: Right(a,b); everything else differs
    assert prf.tp == 1
    gt_n = 4
    pred_n = sum(rel_counts(pred).values())
    assert prf.fn == gt_n - 1
    assert prf.fp == pred_n - 1


def test_recognition_score_multi_page_document():
    t1 = _grid_table([["a", "b"]])
    t2 = _grid_table([["c", "d"]])
    prf = recognition_score({1: [t1], 2: [t2]}, {1: [t1], 2: []})
    assert prf.tp == 1 and prf.fn == 1


# ---------------------------------------------------------------------------
# cell-level scoring


def test_cell_f1_exact_match():
    t = _grid_table([["a", "b"], ["c", "d"]])
    by_thr = cell_f1_at_iou(t, t, (0.6, 0.9))
    assert set(by_thr) == {0.6, 0.9}
    for prf in by_thr.values():
        assert (prf.tp, prf.fp, prf.fn) == (4, 0, 0)


def test_cell_f1_threshold_sensitivity():
    gt = _grid_table([["a"]], cw=100, rh=10)  # box (0,0,100,10)
    # shifted by 2 px: IoU = 98/102
    pred_cells = (_cell(box(2, 0, 102, 10), 0, 0, 0, 0, "a"),)
    pred = RecognizedTable(
        region=box(2, 0, 102, 10), n_rows=1, n_cols=1, cells=pred_cells,
        labeled=True, source=TableSource.SEPARATOR, header_row_count=0,
    )
    high = 98 / 102
    by_thr = cell_f1_at_iou(gt, pred, (high - 1e-9, high + 1e-9))
    assert by_thr[high - 1e-9].tp == 1
    prf = by_thr[high + 1e-9]
    assert (prf.tp, prf.fp, prf.fn) == (0, 1, 1)


def test_cell_f1_threshold_is_inclusive():
    gt = _grid_table([["a"]], cw=100, rh=10)  # box (0,0,100,10)
    pred = _grid_table([["a"]], cw=50, rh=10)  # box (0,0,50,10): IoU exactly 0.5
    by_thr = cell_f1_at_iou(gt, pred, (0.5, 0.6))
    assert by_thr[0.5].tp == 1
    assert by_thr[0.6].tp == 0


def test_cell_score_pools_pages_and_counts_unpaired_cells_at_every_threshold():
    t = _grid_table([["a", "b"], ["c", "d"]])
    shifted = _grid_table([["a", "b"], ["c", "d"]], origin=(6, 0))  # cell IoU 44/56
    spurious = _grid_table([["x"]], origin=(400, 0))
    gt = {("d", 1): [t], ("d", 2): [t], ("e", 1): [t]}
    pred = {("d", 1): [t, spurious], ("d", 2): [shifted], ("f", 1): [t]}
    by_thr = cell_score(gt, pred, 0.5, (0.6, 0.9))
    assert list(by_thr) == [0.6, 0.9]
    # d1: 4 hits and 1 spurious cell; d2: 4 hits at 0.6 only; e1 missed; f1 spurious
    assert by_thr[0.6] == PRF(tp=8, fp=1 + 4, fn=4)
    assert by_thr[0.9] == PRF(tp=4, fp=1 + 4 + 4, fn=4 + 4)


def test_cell_score_without_pages_is_empty_counts():
    assert cell_score({}, {}, 0.5, (0.6, 0.7)) == {0.6: PRF(), 0.7: PRF()}


def _pairs_at(gt_boxes, pred_boxes, t):
    """The greedy one-to-one pairing by descending IoU (ties by index) run
    at threshold t alone."""
    matrix = iou_matrix([b.as_tuple() for b in gt_boxes], [b.as_tuple() for b in pred_boxes])
    used_gt, used_pred, pairs = set(), set(), []
    for _, i, j in sorted(
        (-x, i, j) for i, row in enumerate(matrix) for j, x in enumerate(row) if x >= t
    ):
        if i not in used_gt and j not in used_pred:
            used_gt.add(i)
            used_pred.add(j)
            pairs.append((i, j))
    return sorted(pairs)


# boxes of a few pixels, so that IoUs often equal a threshold exactly
_TINY_BOXES = st.lists(
    st.builds(
        lambda l, t, w, h: box(l, t, l + w, t + h),
        st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
    ),
    max_size=6,
)


def _table(region, cell_boxes=()):
    return RecognizedTable(
        region=region, n_rows=1, n_cols=1, labeled=True, source=TableSource.SEPARATOR,
        cells=tuple(_cell(b, 0, 0, 0, 0, "x") for b in cell_boxes),
    )


@settings(max_examples=300, deadline=None)
@given(
    gt=_TINY_BOXES,
    pred=_TINY_BOXES,
    thresholds=st.lists(
        st.sampled_from([0.25, 0.5, 0.6, 0.75, 1.0]), min_size=1, max_size=4, unique=True
    ),
)
def test_one_greedy_pass_scores_as_a_pass_per_threshold(gt, pred, thresholds):
    page = box(0, 0, 10, 10)
    by_t = cell_f1_at_iou(_table(page, gt), _table(page, pred), tuple(thresholds))
    assert list(by_t) == thresholds
    for t in thresholds:
        pairs = _pairs_at(gt, pred, t)
        assert by_t[t] == PRF(tp=len(pairs), fp=len(pred) - len(pairs), fn=len(gt) - len(pairs))
        tables = [[_table(b) for b in side] for side in (gt, pred)]
        assert match_tables(*tables, t) == TableMatch(
            pairs=tuple(pairs),
            unmatched_gt=tuple(i for i in range(len(gt)) if i not in {i for i, _ in pairs}),
            unmatched_pred=tuple(j for j in range(len(pred)) if j not in {j for _, j in pairs}),
        )


# boxes on few tops and of many heights, so that boxes share tops and a
# band of predicted tops holds boxes that meet and boxes that do not
_BANDED_BOXES = st.lists(
    st.builds(
        lambda l, t, w, h: box(l, t, l + w, t + h),
        st.integers(0, 12), st.sampled_from([0, 4, 5, 9, 20, 21, 40]),
        st.integers(1, 12), st.sampled_from([1, 4, 5, 15, 30]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(gt=_BANDED_BOXES, pred=_BANDED_BOXES, t=st.sampled_from([0.01, 0.2, 0.5, 1.0]))
def test_pairing_equals_the_pairing_over_the_full_matrix(gt, pred, t):
    tables = [[_table(b) for b in side] for side in (gt, pred)]
    assert match_tables(*tables, t).pairs == tuple(_pairs_at(gt, pred, t))


@pytest.mark.parametrize("floor", [0.0, -0.5, float("nan")])
def test_a_floor_that_would_pair_boxes_that_do_not_meet_is_rejected(floor):
    a, b = _grid_table([["a"]]), _grid_table([["b"]], origin=(500, 0))
    with pytest.raises(ValueError, match="IoU floor must be positive"):
        match_tables([a], [b], floor)
    with pytest.raises(ValueError, match="IoU floor must be positive"):
        cell_f1_at_iou(a, b, (floor,))


def test_cell_ious_grow_with_the_cells_of_a_row_band(monkeypatch):
    """The IoUs computed for one n x n pair, at n and 2n: about 4 times as
    many, like the cells, where the full matrix holds 16 times as many."""
    computed = []

    def counted(a, b):
        computed.append((a, b))
        return box_iou(a, b)

    monkeypatch.setattr(kernels, "box_iou", counted)  # the one IoU arithmetic
    counts = []
    for n in (20, 40):
        computed.clear()
        gt = _grid_table([["x"] * n] * n)
        pred = _grid_table([["x"] * n] * n, origin=(3, 2))
        assert cell_f1_at_iou(gt, pred, (0.6, 0.9))[0.6].tp == n * n
        assert len(computed) >= n * n  # each pair's IoU is computed here
        counts.append(len(computed))
    assert counts[1] <= 4.5 * counts[0]


# Tables on a coarse grid of origins and sizes, so that tables pair, pair
# partially or stay unpaired, and cells overlap at many IoU values.
@st.composite
def tables(draw):
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [
        [draw(st.sampled_from([None, " ", "a", "b", "c"])) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    origin = (draw(st.integers(0, 4)) * 10, draw(st.integers(0, 3)) * 10)
    return _grid_table(rows, origin, cw=draw(st.sampled_from([30, 40])), rh=20)


page_maps = st.dictionaries(st.integers(1, 4), st.lists(tables(), max_size=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(gt=page_maps, pred=page_maps)
def test_recognition_score_is_the_sum_of_its_pages(gt, pred):
    per_page = [
        recognition_score({0: gt.get(nr, [])}, {0: pred.get(nr, [])}) for nr in gt.keys() | pred
    ]
    assert recognition_score(gt, pred) == sum(per_page, PRF())


@settings(max_examples=200, deadline=None)
@given(
    gt=page_maps,
    pred=page_maps,
    thresholds=st.lists(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9]), min_size=1, unique=True),
)
def test_cell_score_is_the_sum_of_its_pages(gt, pred, thresholds):
    thresholds = tuple(thresholds)
    pooled = cell_score(gt, pred, 0.5, thresholds)
    for t in thresholds:
        assert pooled[t] == sum(
            (
                cell_score({0: gt.get(nr, [])}, {0: pred.get(nr, [])}, 0.5, thresholds)[t]
                for nr in gt.keys() | pred
            ),
            PRF(),
        )


def test_wavg_f1_weights_by_threshold():
    f1s = {0.6: 1.0, 0.7: 0.0, 0.8: 0.0, 0.9: 0.0}
    assert wavg_f1(f1s) == pytest.approx(0.6 / (0.6 + 0.7 + 0.8 + 0.9))
    f1s = {0.6: 0.9452, 0.7: 0.9452, 0.8: 0.9452, 0.9: 0.9452}
    assert wavg_f1(f1s) == pytest.approx(0.9452)
    assert wavg_f1({}) == 0.0


# ---------------------------------------------------------------------------
# tuple-set scoring


def _ts(fid, page, idx, rows):
    return TupleSet(
        file_id=fid, page_nr=page, table_idx=idx,
        tuples=[RowTuple(row=i, values=v) for i, v in enumerate(rows)],
    )


def test_tuple_set_f1_exact_and_trimmed():
    gt = _ts("f", 1, 0, [{"A": "1", "B": "x"}, {"A": "2", "B": "y"}])
    pred = _ts("f", 1, 0, [{"A": " 1 ", "B": "x"}, {"A": "2", "B": "y"}])
    prf = tuple_set_f1(gt, pred)
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 0)


def test_tuple_set_f1_order_independent_multiset():
    gt = _ts("f", 1, 0, [{"A": "1"}, {"A": "2"}])
    pred = _ts("f", 1, 0, [{"A": "2"}, {"A": "1"}])
    assert tuple_set_f1(gt, pred).f1 == 1.0
    # duplicates carry multiplicity
    gt2 = _ts("f", 1, 0, [{"A": "1"}, {"A": "1"}])
    pred2 = _ts("f", 1, 0, [{"A": "1"}])
    prf = tuple_set_f1(gt2, pred2)
    assert (prf.tp, prf.fp, prf.fn) == (1, 0, 1)


def test_tuple_set_f1_value_mismatch():
    gt = _ts("f", 1, 0, [{"A": "1", "B": "x"}])
    pred = _ts("f", 1, 0, [{"A": "1", "B": "CORRUPT"}])
    prf = tuple_set_f1(gt, pred)
    assert (prf.tp, prf.fp, prf.fn) == (0, 1, 1)


def test_interpretation_score_micro_pools():
    gt = [_ts("f", 1, 0, [{"A": "1"}]), _ts("f", 2, 0, [{"A": "2"}, {"A": "3"}])]
    pred = [_ts("f", 1, 0, [{"A": "1"}]), _ts("f", 2, 0, [{"A": "2"}, {"A": "BAD"}])]
    prf = interpretation_score(gt, pred)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)


def test_interpretation_score_pairs_within_page_by_best_f1():
    # two tables on one page, predictions indexed differently: the
    # matcher must pair them by content, not by table_idx
    gt = [_ts("f", 1, 0, [{"A": "1"}]), _ts("f", 1, 1, [{"A": "2"}])]
    pred = [_ts("f", 1, 0, [{"A": "2"}]), _ts("f", 1, 1, [{"A": "1"}])]
    prf = interpretation_score(gt, pred)
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 0)


def test_interpretation_score_unmatched_sets():
    gt = [_ts("f", 1, 0, [{"A": "1"}, {"A": "2"}])]
    prf = interpretation_score(gt, [])
    assert (prf.tp, prf.fp, prf.fn) == (0, 0, 2)
    prf = interpretation_score([], gt)
    assert (prf.tp, prf.fp, prf.fn) == (0, 2, 0)


@st.composite
def tuple_sets(draw):
    """Sets on up to six pages (two files of three), at most three a page, whose
    tuples share values often enough to pair and to tie."""
    keys = draw(st.sets(st.tuples(st.sampled_from("fg"), st.integers(1, 3), st.integers(0, 2))))
    rows = st.lists(st.dictionaries(st.sampled_from("AB"), st.sampled_from(["1", "2", " 1"])),
                    max_size=3)
    return [_ts(fid, page, idx, draw(rows)) for fid, page, idx in sorted(keys)]


@settings(max_examples=200, deadline=None)
@given(gt=tuple_sets(), pred=tuple_sets())
def test_interpretation_score_is_the_sum_of_its_pages(gt, pred):
    pages = {(ts.file_id, ts.page_nr) for ts in gt + pred}
    per_page = [
        interpretation_score(*([ts for ts in sets if (ts.file_id, ts.page_nr) == page]
                               for sets in (gt, pred)))
        for page in pages
    ]
    assert interpretation_score(gt, pred) == sum(per_page, PRF())


def test_interpretation_score_duplicate_key_rejected():
    a = _ts("f", 1, 0, [{"A": "1"}])
    b = _ts("f", 1, 0, [{"A": "2"}])
    with pytest.raises(DuplicateKey):
        interpretation_score([a, b], [])


def test_scored_tables_leave_out_marked_tables_and_the_predictions_paired_with_them():
    rows = [["a", "b"], ["c", "d"]]  # four relations and four cells a table
    kept = _grid_table(rows)
    marked = replace(_grid_table(rows, origin=(0, 100)), expected_missed=True)
    near_kept, near_marked = _grid_table(rows, origin=(5, 0)), _grid_table(rows, origin=(5, 100))
    apart = _grid_table(rows, origin=(0, 300))
    pred = [near_marked, apart, near_kept]

    def scores(gt, iou_min):
        return (recognition_score({0: gt}, {0: pred}, iou_min),
                cell_score({0: gt}, {0: pred}, iou_min, (0.5,))[0.5])

    # the marked table and near_marked count neither way; apart is spurious
    assert scores([kept, marked], 0.5) == (PRF(tp=4, fp=4), PRF(tp=4, fp=4))
    unmarked = replace(marked, expected_missed=False)
    assert scores([kept, unmarked], 0.5) == (PRF(tp=8, fp=4), PRF(tp=8, fp=4))
    # a prediction that does not reach --iou-min with the marked table still counts
    assert scores([marked], 0.95) == (PRF(fp=12), PRF(fp=12))


@pytest.mark.parametrize("gen", [gen_bordered_page, gen_booktabs_page])
@pytest.mark.parametrize(
    "config, n_found",
    [(RecognizerConfig(), 1), (corpus_recognizer_config(), 0)],
    ids=["found", "skipped"],
)
def test_library_scores_leave_out_a_marked_table_as_eval_does(gen, config, n_found):
    page = gen(random.Random(4), "u", 1, labeled=False)
    gt, pred = page.gt.tables, recognize_page(page.layout, config).tables
    assert [t.expected_missed for t in gt] == [True] and len(pred) == n_found
    assert recognition_score({0: gt}, {0: pred}) == PRF()
    thresholds = (0.5, 0.6, 0.7, 0.8, 0.9)
    assert cell_score({0: gt}, {0: pred}, 0.5, thresholds) == dict.fromkeys(thresholds, PRF())


def _two_pass_paired_tables(gt, pred, iou_min):
    """The rule that one pairing replaces: leave out the marked ground truth
    and each prediction paired with it, then pair the rest again."""
    found = {j for i, j in match_tables(gt, pred, iou_min).pairs if gt[i].expected_missed}
    gt = [t for t in gt if not t.expected_missed]
    pred = [t for j, t in enumerate(pred) if j not in found]
    match = match_tables(gt, pred, iou_min)
    return (
        [(gt[i], pred[j]) for i, j in match.pairs],
        [gt[i] for i in match.unmatched_gt],
        [pred[j] for j in match.unmatched_pred],
    )


_SMALL_BOXES = st.builds(
    lambda l, t, w, h: box(l, t, l + w, t + h),
    st.integers(0, 12), st.integers(0, 12), st.integers(1, 12), st.integers(1, 12),
)


@settings(max_examples=500, deadline=None)
@given(
    gt=st.lists(st.tuples(_SMALL_BOXES, st.booleans()), max_size=5),
    pred=st.lists(_SMALL_BOXES, max_size=5),
    iou_min=st.sampled_from([0.1, 0.3, 0.5, 0.7]),
)
def test_one_pairing_leaves_out_what_the_two_pass_rule_did(gt, pred, iou_min):
    def named(b, name, marked=False):  # a distinct content, so no two tables are equal
        return replace(_table(b), cells=(_cell(b, 0, 0, 0, 0, name),), expected_missed=marked)

    gt = [named(b, f"g{k}", m) for k, (b, m) in enumerate(gt)]
    pred = [named(b, f"p{k}") for k, b in enumerate(pred)]
    [one_pass] = _paired_tables({0: gt}, {0: pred}, iou_min)
    assert tuple(one_pass) == _two_pass_paired_tables(gt, pred, iou_min)


def test_averages_are_exactly_rounded_sums():
    """``fsum``, so that every Python rounds alike: the builtin ``sum``
    rounds each step on Pythons before 3.12."""
    assert corpus_average([PRF(tp=1, fp=9)] * 10).precision == 0.1
    f1s = dict.fromkeys((0.6, 0.7, 0.8, 0.9), 0.9724310776942355)
    assert wavg_f1(f1s) == 0.9724310776942356
