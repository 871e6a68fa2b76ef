"""Page-level orchestration of the two recognizers.

Ruled-grid candidates are accepted first; booktabs candidates whose
region overlaps an accepted table are discarded.  Vertical pages are
recognized on the transposed layout and the resulting boxes transposed
back; grid indices stay in reading orientation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .booktabs import recognize_booktabs_tables
from .geometry import overlaps, transpose_box
from .model import (
    PageLayout,
    RecognizedTable,
    RecognizerConfig,
    transpose_separator,
    transpose_word,
)
from .separator import recognize_separator_tables


class PageOrientation(enum.Enum):
    STANDARD = "standard"
    VERTICAL = "vertical"


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
    diagnostics: list[str] = []

    for label, recognize in (
        ("separator table", recognize_separator_tables),
        ("booktabs candidate", recognize_booktabs_tables),
    ):
        tables, found = recognize(layout, cfg)
        diagnostics.extend(found)
        for t in tables:
            clash = next((a for a in accepted if overlaps(t.region, a.region)), None)
            if clash is None:
                accepted.append(t)
            else:
                diagnostics.append(
                    f"{label} at {t.region.as_tuple()} dropped: overlaps "
                    f"accepted table at {clash.region.as_tuple()}"
                )

    accepted.sort(key=lambda t: (t.region.top, t.region.left, t.region.bottom, t.region.right))
    return PageResult(tables=tuple(accepted), diagnostics=tuple(diagnostics))
