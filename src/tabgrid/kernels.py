"""Hot numeric kernels, vectorized with numpy.

Edit distance, minimum-cost assignment, interval profiles and pairwise
box IoU.  Each kernel normalizes its inputs to contiguous int64/float64
arrays and is deterministic: every argmin tie goes to the lowest index.
"""

from __future__ import annotations

import numpy as np


def levenshtein_codes(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two int64 code-point arrays."""
    na = a.shape[0]
    nb = b.shape[0]
    if na == 0:
        return nb
    if nb == 0:
        return na
    idx = np.arange(nb + 1, dtype=np.int64)
    prev = idx.copy()
    for i in range(1, na + 1):
        sub = prev[:-1] + (b != a[i - 1])
        cur = np.minimum(sub, prev[1:] + 1)
        cur = np.concatenate((np.array([i], dtype=np.int64), cur))
        # insertion chain: cur[j] = j + min_{k<=j}(cur[k] - k)
        cur = np.minimum.accumulate(cur - idx) + idx
        prev = cur
    return int(prev[nb])


def hungarian_min(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect assignment on a finite square float64 matrix.

    Returns col_of_row.  Deterministic: every internal tie goes to the
    lowest column index.
    """
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("hungarian_min needs a square matrix")
    n = cost.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    # Potential-based shortest augmenting path (minimization).  1-based
    # arrays; column 0 is the virtual root.
    u = np.zeros(n + 1, dtype=np.float64)
    v = np.zeros(n + 1, dtype=np.float64)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cur_full = np.empty(n + 1, dtype=np.float64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf, dtype=np.float64)
        used = np.zeros(n + 1, dtype=np.bool_)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used
            free[0] = False
            cur_full[0] = np.inf
            cur_full[1:] = cost[i0 - 1] - u[i0] - v[1:]
            improve = free & (cur_full < minv)
            minv = np.where(improve, cur_full, minv)
            way = np.where(improve, j0, way)
            masked = np.where(free, minv, np.inf)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            # used columns hold distinct rows, so fancy += is safe
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    col_of_row = np.full(n, -1, dtype=np.int64)
    col_of_row[p[1:] - 1] = np.arange(n, dtype=np.int64)
    return col_of_row


def interval_profile(
    starts: np.ndarray, ends: np.ndarray, weights: np.ndarray, length: int
) -> np.ndarray:
    """Scatter-add weight over [start, end) per interval; int64 output."""
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    length = int(length)
    diff = np.zeros(length + 1, dtype=np.int64)
    s = np.clip(starts, 0, length)
    e = np.clip(ends, 0, length)
    valid = e > s
    np.add.at(diff, s[valid], weights[valid])
    np.add.at(diff, e[valid], -weights[valid])
    return np.cumsum(diff[:-1])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) int64 box arrays (l, t, r, b)."""
    a = np.ascontiguousarray(a, dtype=np.int64).reshape(-1, 4)
    b = np.ascontiguousarray(b, dtype=np.int64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(union, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out
