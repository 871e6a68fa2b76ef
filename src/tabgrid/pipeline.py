"""Page-level orchestration of the two recognizers.

Ruled-grid candidates are accepted first.  The booktabs scan then skips
the horizontal rulings that lie in an accepted ruled table, and drops the
booktabs candidates whose region overlaps an accepted table.  Vertical
pages are recognized on the transposed layout and the resulting boxes
transposed back; grid indices stay in reading orientation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .booktabs import recognize_booktabs_tables
from .geometry import overlaps
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


def recognize_page(
    layout: PageLayout,
    cfg: RecognizerConfig,
    orientation: PageOrientation = PageOrientation.STANDARD,
) -> PageResult:
    if orientation is PageOrientation.VERTICAL:
        inner = recognize_page(transpose_layout(layout), cfg, PageOrientation.STANDARD)
        return PageResult(
            tables=tuple(transpose_table(t) for t in inner.tables),
            diagnostics=inner.diagnostics,
        )

    accepted: list[RecognizedTable] = []
    by_top: list[tuple[int, int]] = []  # (region.top, index in accepted), sorted
    tallest = 0  # the greatest height in accepted
    diagnostics: list[str] = []

    def accept(label: str, found: tuple[list[RecognizedTable], list[str]]) -> None:
        nonlocal tallest
        tables, notes = found
        diagnostics.extend(notes)
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
                diagnostics.append(
                    f"{label} at {t.region.as_tuple()} dropped: overlaps "
                    f"accepted table at {accepted[min(hits)].region.as_tuple()}"
                )

    accept("separator table", recognize_separator_tables(layout, cfg))
    ruled = [a.region for a in accepted]
    accept("booktabs candidate", recognize_booktabs_tables(layout, cfg, ruled))
    accepted.sort(key=lambda t: (t.region.top, t.region.left, t.region.bottom, t.region.right))
    return PageResult(tables=tuple(accepted), diagnostics=tuple(diagnostics))
