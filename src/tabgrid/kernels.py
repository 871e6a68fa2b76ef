"""Hot numeric kernels in plain Python.

Edit distance, minimum-cost assignment, interval profiles and pairwise
box IoU.  The pipeline calls them on small inputs (strings of a few
dozen characters, matrices of a few rows, one table's cells), where
plain loops over lists beat array libraries' per-call overhead.  Each
kernel is deterministic: every argmin tie goes to the lowest index.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

Box = Sequence[int]  # (left, top, right, bottom)


def levenshtein_codes(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance between two sequences of hashable items, bit-parallel
    (Myers 1999; Hyyrö 2001): bit i of each integer is row i of a column of the table."""
    if len(a) < len(b):
        a, b = b, a
    peq: dict = {}  # item -> the bits of a's positions that hold it
    for i, x in enumerate(a):
        peq[x] = peq.get(x, 0) | 1 << i
    full, last = (1 << len(a)) - 1, 1 << len(a) >> 1  # every row's bit; the last row's
    pv, mv, dist = full, 0, len(a)  # vertical +1 / -1 deltas; the last row's value
    for y in b:
        eq = peq.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        dist += (ph & last != 0) - (mh & last != 0)
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def hungarian_min(cost: Sequence[Sequence[float]]) -> list[int]:
    """Minimum-cost perfect assignment on a finite square matrix (rows of floats).

    Returns col_of_row.  Deterministic: every internal tie goes to the
    lowest column index.
    """
    n = len(cost)
    if any(len(row) != n for row in cost):
        raise ValueError("hungarian_min needs a square matrix")
    # Potential-based shortest augmenting path (minimization).  1-based
    # lists; column 0 is the virtual root.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:  # strict: the lowest free column wins ties
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [-1] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row


def interval_profile(
    starts: Sequence[int], ends: Sequence[int], weights: Sequence[int], length: int
) -> list[int]:
    """Sum of weight over [start, end) per interval, clipped to [0, length)."""
    diff = [0] * (length + 1)
    for s, e, w in zip(starts, ends, weights):
        s = min(max(s, 0), length)
        e = min(max(e, 0), length)
        if e > s:
            diff[s] += w
            diff[e] -= w
    return list(accumulate(diff[:length]))


def box_iou(a: Box, b: Box) -> float:
    """IoU of two (l, t, r, b) boxes; 0.0 when they do not overlap."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    iw = (ar if ar < br else br) - (al if al > bl else bl)
    ih = (ab if ab < bb else bb) - (at if at > bt else bt)
    if iw > 0 and ih > 0:
        # both boxes then have positive area, so the union does too
        inter = iw * ih
        return inter / ((ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter)
    return 0.0


def iou_matrix(a: Sequence[Box], b: Sequence[Box]) -> list[list[float]]:
    """Pairwise IoU between two lists of (l, t, r, b) boxes; rows follow a."""
    return [[box_iou(x, y) for y in b] for x in a]
