"""Disjoint-set union, and the one sweep down a page that groups linked boxes."""

from __future__ import annotations

from typing import Callable

from .geometry import BoundingBox


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def linked_groups(
    boxes: list[BoundingBox], linked: Callable[[BoundingBox, BoundingBox], bool]
) -> list[list[int]]:
    """Indices of the boxes joined by chains of linked pairs, grouped as by
    ``UnionFind.groups``.  Only pairs whose y-ranges meet are linked: a sweep
    down the page asks ``linked(upper, lower)`` of the boxes still open."""
    uf = UnionFind(len(boxes))
    open_: list[int] = []
    for j in sorted(range(len(boxes)), key=lambda i: boxes[i].top):
        bj = boxes[j]
        open_ = [i for i in open_ if boxes[i].bottom >= bj.top]
        for i in open_:
            if linked(boxes[i], bj):
                uf.union(i, j)
        open_.append(j)
    return list(uf.groups().values())
