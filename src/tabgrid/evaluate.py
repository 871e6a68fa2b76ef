"""Evaluation protocols for recognition and interpretation output.

Recognition quality follows the adjacency-relation protocol: each
non-blank cell relates to its nearest non-blank right and down
neighbors, relations compare as (content, content, direction) multisets
within greedily IoU-matched tables, and corpora macro-average
per-document precision/recall/F1. Cell-level scoring matches cell boxes
at several IoU thresholds, pools the counts over the corpus and weights
the resulting F1 values by threshold.  Interpretation output compares
extracted tuples exactly (whitespace-trimmed) inside per-page matched
tuple sets, micro-pooled.  Every pooled score is a sum of ``PRF`` counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from math import fsum

from .errors import DuplicateKey, EmptyCorpus
from .kernels import Box, iou_matrix
from .matching import WeightedBipartiteGraph, max_weight_matching
from .model import RecognizedTable, TupleSet


@dataclass(frozen=True)
class PRF:
    """True positive, false positive and false negative counts; pooling
    scores is adding them."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: PRF) -> PRF:
        return PRF(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 1.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    def fields(self) -> dict[str, float]:
        """The counts and the three ratios, as a report writes them."""
        return {**asdict(self), "precision": self.precision, "recall": self.recall, "f1": self.f1}

    def __str__(self) -> str:
        return (
            f"P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f}"
            f" (tp={self.tp} fp={self.fp} fn={self.fn})"
        )


@dataclass(frozen=True)
class MacroPRF:
    precision: float
    recall: float
    f1: float


def _blank(content: str) -> bool:
    return not content.strip()


def adjacency_relations(table: RecognizedTable) -> list[tuple[str, str, str]]:
    """``(from_content, to_content, "right" | "down")`` relations from every
    non-blank cell to its nearest non-blank neighbor, skipping blank cells
    in between."""
    grid = table.grid
    # the grid rejects overlaps, so no two cells share a top-left corner
    cells = sorted(table.cells, key=lambda c: (c.row_start, c.col_start))
    relations = []
    for c in cells:
        if _blank(c.content):
            continue
        right = None
        for j in range(c.col_end + 1, table.n_cols):
            for r in range(c.row_start, c.row_end + 1):
                cand = grid[r][j]
                if not _blank(cand.content):
                    right = cand
                    break
            if right is not None:
                break
        if right is not None:
            relations.append((c.content, right.content, "right"))
        down = None
        for r in range(c.row_end + 1, table.n_rows):
            for j in range(c.col_start, c.col_end + 1):
                cand = grid[r][j]
                if not _blank(cand.content):
                    down = cand
                    break
            if down is not None:
                break
        if down is not None:
            relations.append((c.content, down.content, "down"))
    return relations


@dataclass(frozen=True)
class TableMatch:
    pairs: tuple[tuple[int, int], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


def _greedy_iou_pairs(
    gt_boxes: list[Box], pred_boxes: list[Box], floor: float
) -> list[tuple[int, int, float]]:
    """``(i, j, iou)`` of the greedy one-to-one pairing by descending IoU (ties
    by index) of the pairs with IoU >= floor.  The pairing at a higher threshold
    t runs on a prefix of the same candidates, so it is the pairs with iou >= t.
    Only boxes that overlap reach a floor > 0 (a floor <= 0 raises ValueError),
    so the ground-truth boxes of one top meet only the predicted boxes whose top
    lies in (that top - the tallest predicted height, their lowest bottom), and
    of those, a box meets only the ones whose left lies in (its left - the
    widest predicted width, its right)."""
    if not floor > 0:
        raise ValueError(f"the IoU floor must be positive, got {floor}")
    by_top = sorted(range(len(pred_boxes)), key=lambda j: pred_boxes[j][1])
    tops = [pred_boxes[j][1] for j in by_top]
    tallest = max((b[3] - b[1] for b in pred_boxes), default=0)
    widest = max((b[2] - b[0] for b in pred_boxes), default=0)
    rows_at: dict[int, list[int]] = {}
    for i, b in enumerate(gt_boxes):
        rows_at.setdefault(b[1], []).append(i)
    candidates = []
    for top, rows in rows_at.items():
        lo = bisect_right(tops, top - tallest)
        band = by_top[lo : bisect_left(tops, max(gt_boxes[i][3] for i in rows))]
        band.sort(key=lambda j: pred_boxes[j][0])
        lefts = [pred_boxes[j][0] for j in band]
        boxes = [pred_boxes[j] for j in band]
        for i in rows:
            g = gt_boxes[i]
            start, stop = bisect_right(lefts, g[0] - widest), bisect_left(lefts, g[2])
            [row] = iou_matrix((g,), boxes[start:stop])
            candidates += [(-x, i, j) for j, x in zip(band[start:stop], row) if x >= floor]
    candidates.sort()
    used_gt, used_pred, pairs = set(), set(), []
    for neg_iou, i, j in candidates:
        if i not in used_gt and j not in used_pred:
            used_gt.add(i)
            used_pred.add(j)
            pairs.append((i, j, -neg_iou))
    return pairs


def match_tables(
    gt: list[RecognizedTable], pred: list[RecognizedTable], iou_min: float
) -> TableMatch:
    """Greedy one-to-one region matching by descending IoU (ties by index)."""
    boxes = [[t.region.as_tuple() for t in side] for side in (gt, pred)]
    pairs = tuple(sorted((i, j) for i, j, _ in _greedy_iou_pairs(*boxes, iou_min)))
    used_gt = {i for i, _ in pairs}
    used_pred = {j for _, j in pairs}
    return TableMatch(
        pairs=pairs,
        unmatched_gt=tuple(i for i in range(len(gt)) if i not in used_gt),
        unmatched_pred=tuple(j for j in range(len(pred)) if j not in used_pred),
    )


def _paired_tables(gt_pages: dict, pred_pages: dict, iou_min: float):
    """For every page key on either side: the ``(gt, pred)`` table pairs
    that ``match_tables`` makes, then the unpaired ground-truth tables
    (misses) and the unpaired predicted tables (spurious).  A ground-truth
    table marked ``expected_missed`` counts neither way: its pair is left
    out, and so is the table when it stays unpaired."""
    for page in sorted(set(gt_pages) | set(pred_pages)):
        gt, pred = gt_pages.get(page, []), pred_pages.get(page, [])
        match = match_tables(gt, pred, iou_min)
        yield (
            [(gt[i], pred[j]) for i, j in match.pairs if not gt[i].expected_missed],
            [gt[i] for i in match.unmatched_gt if not gt[i].expected_missed],
            [pred[j] for j in match.unmatched_pred],
        )


def _multiset_prf(gt: Counter, pred: Counter) -> PRF:
    """Each item matches at most one equal item on the other side."""
    tp = sum((gt & pred).values())
    return PRF(tp=tp, fp=sum(pred.values()) - tp, fn=sum(gt.values()) - tp)


def recognition_score(
    gt_pages: dict[int, list[RecognizedTable]],
    pred_pages: dict[int, list[RecognizedTable]],
    iou_min: float = 0.5,
) -> PRF:
    """Adjacency-relation PRF for one document (tables aligned per page)."""
    total = PRF()
    for pairs, missed, spurious in _paired_tables(gt_pages, pred_pages, iou_min):
        for gt, pred in pairs:
            total += _multiset_prf(
                Counter(adjacency_relations(gt)), Counter(adjacency_relations(pred))
            )
        total += PRF(
            fp=sum(len(adjacency_relations(t)) for t in spurious),
            fn=sum(len(adjacency_relations(t)) for t in missed),
        )
    return total


def cell_score(
    gt_pages: dict[tuple[str, int], list[RecognizedTable]],
    pred_pages: dict[tuple[str, int], list[RecognizedTable]],
    iou_min: float,
    thresholds: tuple[float, ...],
) -> dict[float, PRF]:
    """Cell-box PRF per IoU threshold, pooled over every page.  Tables pair
    per page as in ``recognition_score``; the cells of an unpaired table
    count as misses (or spurious cells) at every threshold."""
    totals = dict.fromkeys(thresholds, PRF())
    unpaired = PRF()
    for pairs, missed, spurious in _paired_tables(gt_pages, pred_pages, iou_min):
        unpaired += PRF(
            fp=sum(len(t.cells) for t in spurious), fn=sum(len(t.cells) for t in missed)
        )
        for gt, pred in pairs:
            for t, prf in cell_f1_at_iou(gt, pred, thresholds).items():
                totals[t] += prf
    return {t: prf + unpaired for t, prf in totals.items()}


def corpus_average(per_document: list[PRF]) -> MacroPRF:
    """Mean of per-document precision, recall, and F1 (not recomputed)."""
    if not per_document:
        raise EmptyCorpus("no documents to average")
    n = len(per_document)
    return MacroPRF(
        precision=fsum(d.precision for d in per_document) / n,
        recall=fsum(d.recall for d in per_document) / n,
        f1=fsum(d.f1 for d in per_document) / n,
    )


def cell_f1_at_iou(
    gt_table: RecognizedTable, pred_table: RecognizedTable, thresholds: tuple[float, ...]
) -> dict[float, PRF]:
    """Greedy one-to-one cell box matching at each IoU threshold, from one pass."""
    boxes = [[c.box.as_tuple() for c in t.cells] for t in (gt_table, pred_table)]
    ious = [iou for _, _, iou in _greedy_iou_pairs(*boxes, min(thresholds))]
    n_gt, n_pred = map(len, boxes)
    tps = {t: sum(iou >= t for iou in ious) for t in thresholds}
    return {t: PRF(tp=tp, fp=n_pred - tp, fn=n_gt - tp) for t, tp in tps.items()}


def wavg_f1(f1_by_threshold: dict[float, float]) -> float:
    """Threshold-weighted average: sum(t * F1_t) / sum(t); empty -> 0.0."""
    if not f1_by_threshold:
        return 0.0
    return fsum(t * f1 for t, f1 in f1_by_threshold.items()) / fsum(f1_by_threshold)


def _canon(values: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, v.strip()) for k, v in values.items()))


def tuple_set_f1(gt: TupleSet, pred: TupleSet) -> PRF:
    """Exact tuple matching (values trimmed), each tuple used at most once."""
    return _multiset_prf(
        Counter(_canon(t.values) for t in gt.tuples),
        Counter(_canon(t.values) for t in pred.tuples),
    )


def interpretation_score(gt_sets: list[TupleSet], pred_sets: list[TupleSet]) -> PRF:
    """Micro-pooled tuple PRF; per page, tuple sets pair up by a
    maximum-weight matching over their mutual tuple F1, and every tuple
    that no pair matches is a miss or spurious."""
    by_page: dict[tuple[str, int], tuple[dict[int, TupleSet], dict[int, TupleSet]]] = {}
    for side, (name, sets) in enumerate((("ground-truth", gt_sets), ("predicted", pred_sets))):
        for ts in sets:
            page = by_page.setdefault((ts.file_id, ts.page_nr), ({}, {}))[side]
            if ts.table_idx in page:
                key = (ts.file_id, ts.page_nr, ts.table_idx)
                raise DuplicateKey(f"{name} tuple sets share key {key}")
            page[ts.table_idx] = ts
    tp = 0
    for gt_page, pred_page in by_page.values():
        gts, preds = ([page[i] for i in sorted(page)] for page in (gt_page, pred_page))
        scores = {
            (gi, pi): tuple_set_f1(g, p) for gi, g in enumerate(gts) for pi, p in enumerate(preds)
        }
        edges = tuple((gi, pi, prf.f1) for (gi, pi), prf in scores.items())
        graph = WeightedBipartiteGraph(n_left=len(gts), n_right=len(preds), edges=edges)
        tp += sum(scores[pair].tp for pair in max_weight_matching(graph).pairs)
    n_gt = sum(len(ts.tuples) for ts in gt_sets)
    n_pred = sum(len(ts.tuples) for ts in pred_sets)
    return PRF(tp=tp, fp=n_pred - tp, fn=n_gt - tp)
