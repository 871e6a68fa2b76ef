import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def ref_min_assignment_cost(cost: list[list[float]]) -> float:
    """Exhaustive minimum over all permutations (n <= 7)."""
    n = len(cost)
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i][perm[i]] for i in range(n))
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
    return [rng.randrange(alphabet) for _ in range(n)]


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
        assert kernels.levenshtein_codes(a, b) == want
        assert kernels.levenshtein_codes([ord(c) for c in a], [ord(c) for c in b]) == want
        assert ref_levenshtein(a, b) == want  # oracle agrees with the published values


def test_levenshtein_random_vs_reference():
    rng = random.Random(42)
    for _ in range(150):
        a = _codes(rng, rng.randrange(0, 13))
        b = _codes(rng, rng.randrange(0, 13))
        assert kernels.levenshtein_codes(a, b) == ref_levenshtein(a, b)


_SEQUENCE_PAIRS = st.one_of(
    st.tuples(st.text(max_size=70), st.text(max_size=70)),
    st.tuples(st.text("ab", max_size=70), st.text("ab", max_size=70)),
    st.tuples(st.lists(st.integers(-2, 2), max_size=70), st.lists(st.integers(-2, 2), max_size=70)),
)


@settings(max_examples=400, deadline=None)
@given(_SEQUENCE_PAIRS)
def test_levenshtein_equals_the_full_table(pair):
    """Strings and int lists, empty ones and ones longer than a machine word."""
    a, b = pair
    assert kernels.levenshtein_codes(a, b) == ref_levenshtein(a, b)


def test_hungarian_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randrange(1, 7)
        cost = [[round(rng.random() * 10, 3) for _ in range(n)] for _ in range(n)]
        col_of_row = kernels.hungarian_min(cost)
        assert sorted(col_of_row) == list(range(n))  # a permutation
        got = sum(cost[i][col_of_row[i]] for i in range(n))
        assert got == pytest.approx(ref_min_assignment_cost(cost), abs=1e-9)


def test_hungarian_empty_and_one():
    assert kernels.hungarian_min([]) == []
    assert kernels.hungarian_min([[3.5]]) == [0]


def test_hungarian_rejects_non_square():
    with pytest.raises(ValueError):
        kernels.hungarian_min([[0.0] * 3 for _ in range(2)])


def test_hungarian_deterministic_on_ties():
    # constant matrix: every permutation is optimal; first-minimum scanning
    # must give the identity
    for n in (1, 2, 3, 5, 8):
        cost = [[2.5] * n for _ in range(n)]
        assert kernels.hungarian_min(cost) == list(range(n))


def test_profile_reference():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(0, 15)
        starts = [rng.randrange(-5, 50) for _ in range(n)]
        ends = [s + rng.randrange(0, 20) for s in starts]
        weights = [rng.randrange(0, 9) for _ in range(n)]
        length = rng.randrange(1, 60)
        got = kernels.interval_profile(starts, ends, weights, length)
        assert got == ref_profile(starts, ends, weights, length)


def test_iou_matrix_reference():
    rng = random.Random(5)
    for _ in range(50):
        def boxes(k):
            out = []
            for _ in range(k):
                left, top = rng.randrange(0, 60), rng.randrange(0, 60)
                w, h = rng.randrange(0, 30), rng.randrange(0, 30)
                out.append((left, top, left + w, top + h))
            return out

        a, b = boxes(rng.randrange(0, 6)), boxes(rng.randrange(0, 6))
        got = kernels.iou_matrix(a, b)
        assert len(got) == len(a) and all(len(row) == len(b) for row in got)
        for i in range(len(a)):
            for j in range(len(b)):
                assert got[i][j] == pytest.approx(ref_iou(a[i], b[j]), abs=1e-12)
                assert got[i][j] == kernels.box_iou(a[i], b[j])
    # zero-area boxes that share an edge have no union
    assert kernels.iou_matrix([(5, 0, 5, 10)], [(5, 0, 5, 10), (0, 0, 5, 10)]) == [[0.0, 0.0]]
