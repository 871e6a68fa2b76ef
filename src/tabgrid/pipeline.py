"""Page-level orchestration of the two recognizers.

Ruled tables are accepted first; the booktabs scan skips their horizontal
rulings, and a candidate of either kind that overlaps an accepted table is
dropped.  A vertical page is recognized on its transposed layout, and the
boxes of its tables and drops go back to page coordinates; grid indices
stay in reading orientation.  Each drop is written once, as ``<kind>
candidate at (l, t, r, b) dropped: <reason>``.  A ``separator`` cluster is
dropped for ``no table label`` or ``R row and C column borders``; a
``booktabs`` triple for ``no table label``, ``no body region``, ``no room
for a header row …``, ``(column) projection profile is entirely zero``, ``no
adjacent same-line word pairs on the page``, ``table candidate contains no
words`` or ``non-increasing borders``; either for ``overlaps accepted table
at (l, t, r, b)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .booktabs import recognize_booktabs_tables
from .geometry import BoundingBox, overlaps, transpose_box
from .model import (
    PageLayout,
    PageOrientation,
    RecognizedTable,
    RecognizerConfig,
    transpose_layout,
    transpose_table,
)
from .separator import recognize_separator_tables


@dataclass(frozen=True)
class PageResult:
    tables: tuple[RecognizedTable, ...]
    diagnostics: tuple[str, ...]


def _diagnostic(kind: str, box: BoundingBox, reason: str, *named: BoundingBox) -> str:
    """A dropped candidate in its one written form, the boxes its reason names last."""
    boxes = "".join(f" {b.as_tuple()}" for b in named)
    return f"{kind} candidate at {box.as_tuple()} dropped: {reason}{boxes}"


def recognize_page(
    layout: PageLayout,
    cfg: RecognizerConfig,
    orientation: PageOrientation = PageOrientation.STANDARD,
) -> PageResult:
    vertical = orientation is PageOrientation.VERTICAL
    layout = transpose_layout(layout) if vertical else layout
    accepted: list[RecognizedTable] = []
    by_top: list[tuple[int, int]] = []  # (region.top, index in accepted), sorted
    tallest = 0  # the greatest height in accepted
    drops: list[tuple] = []  # (kind, box, reason, *boxes the reason names)

    def accept(kind: str, tables: list[RecognizedTable], dropped: list) -> None:
        nonlocal tallest
        drops.extend(dropped)
        for t in tables:
            # only a table whose rows meet the candidate's can overlap it, so
            # only one whose top lies in (t.top - tallest, t.bottom)
            lo = bisect_right(by_top, (t.region.top - tallest, len(accepted)))
            hi = bisect_left(by_top, (t.region.bottom,))
            hits = [i for _, i in by_top[lo:hi] if overlaps(t.region, accepted[i].region)]
            if not hits:
                insort(by_top, (t.region.top, len(accepted)))
                accepted.append(t)
                tallest = max(tallest, t.region.height)
            else:  # the first clash in acceptance order
                clash = accepted[min(hits)].region
                drops.append((kind, t.region, "overlaps accepted table at", clash))

    accept("separator", *recognize_separator_tables(layout, cfg))
    ruled = [a.region for a in accepted]
    accept("booktabs", *recognize_booktabs_tables(layout, cfg, ruled))
    accepted.sort(key=lambda t: (t.region.top, t.region.left, t.region.bottom, t.region.right))
    if vertical:  # every box back in page coordinates, in the transposed page's order
        accepted = [transpose_table(t) for t in accepted]
        drops = [(k, transpose_box(b), r, *map(transpose_box, n)) for k, b, r, *n in drops]
    return PageResult(tables=tuple(accepted), diagnostics=tuple(_diagnostic(*d) for d in drops))
