"""Axis-aligned boxes in integer pixel coordinates.

Boxes are (left, top, right, bottom) with the right and bottom edges
exclusive, so width = right - left and a zero-area box is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import box_iou


@dataclass(frozen=True, order=True)
class BoundingBox:
    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self) -> None:
        if self.right < self.left or self.bottom < self.top:
            raise ValueError(f"degenerate box: {self}")

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.left + self.right) / 2.0, (self.top + self.bottom) / 2.0)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.left, self.top, self.right, self.bottom)


def box(left: int, top: int, right: int, bottom: int) -> BoundingBox:
    return BoundingBox(int(left), int(top), int(right), int(bottom))


def intersection_area(a: BoundingBox, b: BoundingBox) -> int:
    w = min(a.right, b.right) - max(a.left, b.left)
    h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if w <= 0 or h <= 0:
        return 0
    return w * h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0.0 when the boxes do not overlap."""
    return box_iou(a.as_tuple(), b.as_tuple())


def expand(b: BoundingBox, margin: int) -> BoundingBox:
    """Grow the box outward by margin on every side (no clamping here)."""
    return BoundingBox(b.left - margin, b.top - margin, b.right + margin, b.bottom + margin)


def intersects(a: BoundingBox, b: BoundingBox) -> bool:
    """True on positive-area overlap or zero-area edge/corner contact."""
    return (
        a.left <= b.right
        and b.left <= a.right
        and a.top <= b.bottom
        and b.top <= a.bottom
    )


def overlaps(a: BoundingBox, b: BoundingBox) -> bool:
    """True only on positive-area overlap; mere touching does not count."""
    return intersection_area(a, b) > 0


def union_box(boxes: list[BoundingBox]) -> BoundingBox:
    if not boxes:
        raise ValueError("union of zero boxes")
    return BoundingBox(
        min(b.left for b in boxes),
        min(b.top for b in boxes),
        max(b.right for b in boxes),
        max(b.bottom for b in boxes),
    )


def contains_point(b: BoundingBox, x: float, y: float) -> bool:
    """Half-open containment matching the exclusive right/bottom edges."""
    return b.left <= x < b.right and b.top <= y < b.bottom


def transpose_box(b: BoundingBox) -> BoundingBox:
    """Mirror across the main diagonal: (l, t, r, b) -> (t, l, b, r)."""
    return BoundingBox(b.top, b.left, b.bottom, b.right)
