import itertools
import random

import numpy as np
import pytest

from tabgrid import kernels


# ---------------------------------------------------------------------------
# reference implementations (independent of the kernels module)


def ref_levenshtein(a, b) -> int:
    """Full-matrix edit distance."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[n][m]


def ref_min_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum over all permutations (n <= 7)."""
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


def ref_profile(starts, ends, weights, length):
    out = [0] * length
    for s, e, w in zip(starts, ends, weights):
        for k in range(max(s, 0), min(e, length)):
            out[k] += w
    return out


def ref_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(iw, 0) * max(ih, 0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------


def _codes(rng, n, alphabet=4):
    return np.array([rng.randrange(alphabet) for _ in range(n)], dtype=np.int64)


def test_levenshtein_known_values():
    cases = [
        ("kitten", "sitting", 3),
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("flaw", "lawn", 2),
    ]
    for a, b, want in cases:
        ca = np.array([ord(c) for c in a], dtype=np.int64)
        cb = np.array([ord(c) for c in b], dtype=np.int64)
        assert kernels.levenshtein_codes(ca, cb) == want
        assert ref_levenshtein(a, b) == want  # oracle agrees with the published values


def test_levenshtein_random_vs_reference():
    rng = random.Random(42)
    for _ in range(150):
        a = _codes(rng, rng.randrange(0, 13))
        b = _codes(rng, rng.randrange(0, 13))
        assert kernels.levenshtein_codes(a, b) == ref_levenshtein(list(a), list(b))


def test_hungarian_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        cost = np.round(rng.random((n, n)) * 10, 3)
        col_of_row = kernels.hungarian_min(cost)
        assert sorted(col_of_row.tolist()) == list(range(n))  # a permutation
        got = float(cost[np.arange(n), col_of_row].sum())
        assert got == pytest.approx(ref_min_assignment_cost(cost), abs=1e-9)


def test_hungarian_empty_and_one():
    assert kernels.hungarian_min(np.zeros((0, 0))).shape == (0,)
    assert kernels.hungarian_min(np.array([[3.5]])).tolist() == [0]


def test_hungarian_rejects_non_square():
    with pytest.raises(ValueError):
        kernels.hungarian_min(np.zeros((2, 3)))


def test_hungarian_deterministic_on_ties():
    # constant matrix: every permutation is optimal; first-minimum scanning
    # must give the identity
    for n in (1, 2, 3, 5, 8):
        cost = np.full((n, n), 2.5)
        assert kernels.hungarian_min(cost).tolist() == list(range(n))


def test_profile_reference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(0, 15))
        starts = rng.integers(-5, 50, n)
        ends = starts + rng.integers(0, 20, n)
        weights = rng.integers(0, 9, n)
        length = int(rng.integers(1, 60))
        got = kernels.interval_profile(starts, ends, weights, length)
        assert got.tolist() == ref_profile(starts.tolist(), ends.tolist(), weights.tolist(), length)


def test_iou_matrix_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        def boxes(k):
            lt = rng.integers(0, 60, (k, 2))
            wh = rng.integers(0, 30, (k, 2))
            return np.concatenate([lt, lt + wh], axis=1).astype(np.int64)

        a, b = boxes(int(rng.integers(0, 6))), boxes(int(rng.integers(0, 6)))
        got = kernels.iou_matrix(a, b)
        assert got.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert got[i, j] == pytest.approx(ref_iou(a[i], b[j]), abs=1e-12)
