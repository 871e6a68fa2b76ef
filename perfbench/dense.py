"""Dense pages: many fixture tables stacked vertically on one page.

The fixture generator puts one table on each page.  This module calls
``gen_bordered_page`` and ``gen_booktabs_page`` alternately and stacks
their pages top to bottom, so a stack of n fixture pages becomes one page
with n tables.  Each block keeps its own words, rulings and ground truth,
moved down by the heights of the blocks above it; its ``line_id``s are
offset so that no two blocks share a line.  Every third table is made in
interpretation mode, so interpretation has columns to match on dense
pages too.  ``keep_line_ids=False`` strips every ``line_id``, which sends
the booktabs recognizer down its line-reconstruction path.

The geometry of every page is drawn from one fixed seed; the corpus seed
only redraws the text of the filler words.  On stacked pages the booktabs
scan pairs rulings of different tables that happen to align, and the
tables it loses that way, and with them the recognition time, swing by
a factor of two between geometry seeds.  Fixed geometry keeps that swing
out of run-to-run comparisons while the loss itself stays in the scores.

Usage:
    python perfbench/dense.py OUT_DIR --seed N --tables 5,10,20 [--no-line-ids]

OUT_DIR gets the same layout as ``tabgrid gen-fixtures``: ``layouts/``,
``recognition_gt/``, ``interpretation_gt/``, ``rules.json`` and
``recognizer_config.json``.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import replace
from pathlib import Path

from tabgrid.corpusio import (
    PageTables,
    dump_json,
    format_layout_name,
    page_tables_to_dict,
    write_tuple_set,
)
from tabgrid.fixtures import (
    FixturePage,
    corpus_recognizer_config,
    default_meanings,
    gen_booktabs_page,
    gen_bordered_page,
)
from tabgrid.geometry import BoundingBox
from tabgrid.interpret import TupleSet, meaning_to_dict
from tabgrid.model import (
    PageLayout,
    RecognizedTable,
    grid_is_tiled,
    page_layout_to_dict,
    recognizer_config_to_dict,
)


GEOMETRY_SEED = 0
# the generator's filler words are runs of consonant-vowel syllables
_CONSONANTS = "bcdgklmnprsvz"
_VOWELS = "aeiou"
_FILLER = re.compile(f"^(?:[{_CONSONANTS}][{_VOWELS}])+$")


def _down(b: BoundingBox, dy: int) -> BoundingBox:
    return BoundingBox(b.left, b.top + dy, b.right, b.bottom + dy)


def _move_table(t: RecognizedTable, dy: int) -> RecognizedTable:
    return replace(
        t,
        region=_down(t.region, dy),
        cells=tuple(
            replace(
                c,
                box=_down(c.box, dy),
                words=tuple(replace(w, box=_down(w.box, dy)) for w in c.words),
            )
            for c in t.cells
        ),
    )


def make_block(rng: random.Random, file_id: str, page_nr: int, k: int) -> FixturePage:
    """The fixture page for the k-th table of a stack."""
    gen = gen_bordered_page if k % 2 == 0 else gen_booktabs_page
    return gen(rng, file_id, page_nr, columns_mode="interpretation" if k % 3 == 2 else None)


def stack_page(
    rng: random.Random, file_id: str, page_nr: int, n_tables: int, keep_line_ids: bool = True
) -> FixturePage:
    """One page holding ``n_tables`` fixture tables, ruled and booktabs alternating."""
    words, separators, tables, tuple_sets = [], [], [], []
    dy = 0
    line_base = 0
    width = 0
    for k in range(n_tables):
        block = make_block(rng, file_id, page_nr, k)
        ids = [w.line_id for w in block.layout.words if w.line_id is not None]
        for w in block.layout.words:
            line_id = w.line_id + line_base if keep_line_ids and w.line_id is not None else None
            words.append(replace(w, box=_down(w.box, dy), line_id=line_id))
        separators.extend(replace(s, box=_down(s.box, dy)) for s in block.layout.separators)
        for t in block.gt.tables:
            tables.append(_move_table(t, dy))
        for ts in block.tuple_sets:
            # tuple ground truth points at the table's index on the stacked page
            tuple_sets.append(TupleSet(file_id, page_nr, len(tables) - 1, ts.tuples))
        line_base += max(ids, default=-1) + 1
        dy += block.layout.page_height
        width = max(width, block.layout.page_width)

    for t in tables:
        if not grid_is_tiled(t):
            raise ValueError(f"{file_id}: ground-truth table at {t.region.as_tuple()} is not tiled")
    layout = PageLayout(
        page_width=width, page_height=dy, words=tuple(words), separators=tuple(separators)
    )
    gt = PageTables(file_id=file_id, page_nr=page_nr, tables=tables)
    return FixturePage(file_id, page_nr, layout, gt, tuple_sets)


def retext(page: FixturePage, rng: random.Random) -> FixturePage:
    """Redraw every filler word's text at the same length; boxes stay put.

    Filler words are the generator's consonant-vowel tokens; labels,
    interpretation titles and values keep their text.  Ground-truth cell
    contents and tuples follow the same mapping.
    """
    mapping: dict[str, str] = {}

    def word(text: str) -> str:
        if not _FILLER.match(text.lower()):
            return text
        if text not in mapping:
            new = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in text[::2])
            mapping[text] = new.capitalize() if text[0].isupper() else new
        return mapping[text]

    def content(text: str) -> str:
        return " ".join(word(t) for t in text.split(" "))

    def words(ws):
        return tuple(replace(w, text=word(w.text)) for w in ws)

    def cell(c):
        return replace(c, words=words(c.words), content=content(c.content))

    def row(rt):
        return replace(rt, values={k: content(v) for k, v in rt.values.items()})

    layout = replace(page.layout, words=words(page.layout.words))
    tables = [replace(t, cells=tuple(cell(c) for c in t.cells)) for t in page.gt.tables]
    tuple_sets = [
        TupleSet(ts.file_id, ts.page_nr, ts.table_idx, [row(rt) for rt in ts.tuples])
        for ts in page.tuple_sets
    ]
    gt = replace(page.gt, tables=tables)
    return FixturePage(page.file_id, page.page_nr, layout, gt, tuple_sets)


def build_dense_corpus(
    out_dir: str | Path, seed: int, table_counts: list[int], keep_line_ids: bool = True
) -> int:
    """Write one dense page per table count; returns the number of pages."""
    out = Path(out_dir)
    dirs = [out / "layouts", out / "recognition_gt", out / "interpretation_gt"]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    geometry, text = random.Random(GEOMETRY_SEED), random.Random(seed)
    for n in table_counts:
        page = retext(stack_page(geometry, f"dense{n:03d}", 1, n, keep_line_ids), text)
        name = format_layout_name(page.file_id, page.page_nr)
        dump_json(dirs[0] / name, page_layout_to_dict(page.layout))
        dump_json(dirs[1] / name, page_tables_to_dict(page.gt))
        for ts in page.tuple_sets:
            write_tuple_set(dirs[2], ts)
    dump_json(out / "rules.json", {"meanings": [meaning_to_dict(m) for m in default_meanings()]})
    dump_json(out / "recognizer_config.json", recognizer_config_to_dict(corpus_recognizer_config()))
    return len(table_counts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tables", required=True, help="comma-separated tables per page")
    parser.add_argument("--no-line-ids", action="store_true", help="strip every line_id")
    args = parser.parse_args(argv)
    counts = [int(n) for n in args.tables.split(",")]
    n = build_dense_corpus(args.out_dir, args.seed, counts, keep_line_ids=not args.no_line_ids)
    print(f"stacked {n} dense page(s) -> {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
