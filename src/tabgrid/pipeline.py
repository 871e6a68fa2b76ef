"""Page-level orchestration of the two recognizers.

Ruled-grid candidates are accepted first.  The booktabs scan then skips
the horizontal rulings that lie in an accepted ruled table, and drops the
booktabs candidates whose region overlaps an accepted table.  Vertical
pages are recognized on the transposed layout and the resulting boxes
transposed back; grid indices stay in reading orientation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, replace

from .booktabs import recognize_booktabs_tables
from .geometry import overlaps, transpose_box
from .model import (
    PageLayout,
    PageOrientation,
    RecognizedTable,
    RecognizerConfig,
    transpose_separator,
    transpose_word,
)
from .separator import recognize_separator_tables


@dataclass(frozen=True)
class PageResult:
    tables: tuple[RecognizedTable, ...]
    diagnostics: tuple[str, ...]


def transpose_layout(layout: PageLayout) -> PageLayout:
    """Mirror the page across the main diagonal, flipping separator
    orientations; applying it twice returns the original layout."""
    return PageLayout(
        page_width=layout.page_height,
        page_height=layout.page_width,
        words=tuple(transpose_word(w) for w in layout.words),
        separators=tuple(transpose_separator(s) for s in layout.separators),
        non_text_regions=tuple(transpose_box(b) for b in layout.non_text_regions),
    )


def transpose_table(table: RecognizedTable) -> RecognizedTable:
    """Transpose all boxes back to page coordinates; indices keep the
    reading orientation the grid was recognized in."""
    return replace(
        table,
        region=transpose_box(table.region),
        cells=tuple(
            replace(
                c,
                box=transpose_box(c.box),
                words=tuple(transpose_word(w) for w in c.words),
            )
            for c in table.cells
        ),
    )


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
