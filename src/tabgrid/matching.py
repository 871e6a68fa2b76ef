"""Exact maximum-weight bipartite matching.

Solved as an assignment problem on a zero-padded square matrix (absent
edges weigh nothing, and real weights are non-negative, so the padded
optimum equals the matching optimum).  Pairs landing on absent edges
are dropped from the result; leaving vertices unmatched is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import hungarian_min


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    n_left: int
    n_right: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("negative vertex count")
        seen = set()
        for li, ri, w in self.edges:
            if not (0 <= li < self.n_left and 0 <= ri < self.n_right):
                raise ValueError(f"edge ({li}, {ri}) outside graph")
            if (li, ri) in seen:
                raise ValueError(f"duplicate edge ({li}, {ri})")
            seen.add((li, ri))
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"edge ({li}, {ri}) has invalid weight {w!r}")


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]
    total_weight: float


def max_weight_matching(g: WeightedBipartiteGraph) -> Matching:
    """Globally optimal matching; deterministic (ties go to low indices,
    so a fully tied square graph matches the diagonal)."""
    if g.n_left == 0 or g.n_right == 0 or not g.edges:
        return Matching(pairs=(), total_weight=0.0)

    n = max(g.n_left, g.n_right)
    weight = {}
    cost = [[0.0] * n for _ in range(n)]
    for li, ri, w in g.edges:
        cost[li][ri] = -w
        weight[(li, ri)] = w

    col_of_row = hungarian_min(cost)
    pairs = []
    total = 0.0
    for li in range(g.n_left):
        ri = col_of_row[li]
        if ri < g.n_right and (li, ri) in weight:
            pairs.append((li, ri))
            total += weight[(li, ri)]
    return Matching(pairs=tuple(pairs), total_weight=total)
