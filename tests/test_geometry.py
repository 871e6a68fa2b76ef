import random

import pytest

from tabgrid.geometry import (
    BoundingBox,
    box,
    contains_point,
    expand,
    intersection_area,
    intersects,
    iou,
    overlaps,
    transpose_box,
    union_box,
)


def test_box_properties():
    b = box(10, 20, 30, 60)
    assert (b.width, b.height, b.area) == (20, 40, 800)
    assert b.center == (20.0, 40.0)
    assert b.as_tuple() == (10, 20, 30, 60)


def test_negative_extent_rejected():
    with pytest.raises(ValueError):
        box(10, 0, 5, 10)
    with pytest.raises(ValueError):
        box(0, 10, 10, 5)


def test_zero_extent_allowed():
    b = box(5, 5, 5, 9)
    assert b.width == 0 and b.area == 0


def test_intersection_area_basic():
    a = box(0, 0, 10, 10)
    b = box(5, 5, 15, 15)
    # overlap is the 5x5 square [5,10)x[5,10)
    assert intersection_area(a, b) == 25
    assert intersection_area(b, a) == 25
    assert intersection_area(a, box(10, 0, 20, 10)) == 0  # edge contact


def test_iou_value():
    a = box(0, 0, 10, 10)
    b = box(5, 0, 15, 10)
    # inter 50, union 150
    assert iou(a, b) == pytest.approx(50 / 150)
    assert iou(a, a) == 1.0
    assert iou(box(0, 0, 0, 5), box(0, 0, 0, 5)) == 0.0  # zero-area union


def test_intersects_closed_vs_overlaps_open():
    a = box(0, 0, 10, 10)
    touching = box(10, 0, 20, 10)
    assert intersects(a, touching)  # shared edge counts as contact
    assert not overlaps(a, touching)  # but has zero overlap area
    assert overlaps(a, box(9, 9, 20, 20))


def test_expand_grows_every_side():
    e = expand(box(10, 10, 20, 20), 5)
    assert e.as_tuple() == (5, 5, 25, 25)


def test_union_box():
    assert union_box([box(0, 0, 5, 5), box(10, 2, 12, 20)]).as_tuple() == (0, 0, 12, 20)
    with pytest.raises(ValueError):
        union_box([])


def test_contains_point_half_open():
    b = box(0, 0, 10, 10)
    assert contains_point(b, 0, 0)
    assert contains_point(b, 9.99, 9.99)
    assert not contains_point(b, 10, 5)
    assert not contains_point(b, 5, 10)


def test_transpose_box_involution():
    rng = random.Random(0)
    for _ in range(200):
        l, t = rng.randint(0, 100), rng.randint(0, 100)
        b = box(l, t, l + rng.randint(0, 50), t + rng.randint(0, 50))
        assert transpose_box(transpose_box(b)) == b
        assert transpose_box(b).as_tuple() == (b.top, b.left, b.bottom, b.right)


def test_iou_symmetry_and_bounds():
    rng = random.Random(1)
    for _ in range(300):
        def rand_box():
            l, t = rng.randint(0, 40), rng.randint(0, 40)
            return box(l, t, l + rng.randint(1, 30), t + rng.randint(1, 30))

        a, b = rand_box(), rand_box()
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert (v > 0) == overlaps(a, b)


def test_ordering_is_lexicographic_on_fields():
    boxes = [box(5, 10, 6, 11), box(0, 20, 1, 21), box(3, 10, 4, 11)]
    assert sorted(boxes) == [box(0, 20, 1, 21), box(3, 10, 4, 11), box(5, 10, 6, 11)]
