import random

import pytest

from tabgrid.corpusio import tuple_set_from_dict, tuple_set_to_dict
from tabgrid.errors import ConfigError, InvalidPattern
from tabgrid.fixtures import default_meanings, gen_booktabs_page, gen_bordered_page
from tabgrid.geometry import box
from tabgrid.interpret import (
    DATA_TYPE_PATTERNS,
    ColumnView,
    DataType,
    MeaningConfig,
    affinity,
    column_views,
    data_type_score,
    fuzzy_similarity,
    header_row_count_for,
    interpret_table,
    levenshtein,
    match_meanings,
    meanings_from_json,
    regex_score,
    title_keyword_score,
)
from tabgrid.model import Cell, RecognizedTable, TableSource


def _cell(b, rs, re, cs, ce, text):
    return Cell(box=b, row_start=rs, row_end=re, col_start=cs, col_end=ce,
                words=(), content=text)


def ref_levenshtein(a: str, b: str) -> int:
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


# ---------------------------------------------------------------------------
# string scores


def test_levenshtein_examples():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    rng = random.Random(1)
    letters = "abcd"
    for _ in range(120):
        a = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 10)))
        b = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 10)))
        assert levenshtein(a, b) == ref_levenshtein(a, b)


def test_fuzzy_similarity_normalizes():
    # oracle: lev("compound", "compd") = 3 deletions, max length 8
    assert ref_levenshtein("compound", "compd") == 3
    assert fuzzy_similarity("Compound", "Compd") == pytest.approx(0.625)
    # case and whitespace folding
    assert fuzzy_similarity("  HDAC6\tIC50 ", "hdac6 ic50") == 1.0
    assert fuzzy_similarity("", "") == 1.0
    assert fuzzy_similarity("a", "") == 0.0


def test_fuzzy_similarity_substring_penalty():
    # "hdac6 ic50" vs "hdac6": 5 deletions over max length 10
    assert ref_levenshtein("hdac6 ic50", "hdac6") == 5
    assert fuzzy_similarity("HDAC6 IC50", "HDAC6") == pytest.approx(0.5)


def test_title_keyword_score_max_over_keywords():
    assert title_keyword_score("Compound", ("Compd", "Compound")) == 1.0
    assert title_keyword_score("Compound", ("Compd",)) == pytest.approx(0.625)
    with pytest.raises(ValueError):
        title_keyword_score("x", ())


def test_regex_score_unanchored():
    assert regex_score("IC50 (nM)", r"IC50") == 1.0
    assert regex_score("IC50 (nM)", r"^nM$") == 0.0
    assert regex_score("", r".*") == 1.0


def test_data_type_patterns():
    integers = ["0", "42", "-7", "+13"]
    reals = ["0", "3.14", "-.5", "2.", "1e9", "-2.5E-3", "+42"]
    dates = ["2023-01-31", "1.2.2023", "31/12/99", "1-1-2000"]
    not_numbers = ["", "abc", "1.2.3", "--4", "4 2"]
    assert set(DATA_TYPE_PATTERNS) == set(DataType)
    # anchored full-cell matching via data_type_score
    assert data_type_score(integers, DataType.INTEGER) == 1.0
    assert data_type_score(reals, DataType.REAL) == 1.0
    assert data_type_score(dates, DataType.DATE) == 1.0
    assert data_type_score(not_numbers, DataType.INTEGER) == 0.0
    # integers are valid reals; the reverse is not
    assert data_type_score(integers, DataType.REAL) == 1.0
    assert data_type_score(["3.14"], DataType.INTEGER) == 0.0
    # fraction of matching cells, whitespace-trimmed
    assert data_type_score([" 7 ", "x", "9"], DataType.INTEGER) == pytest.approx(2 / 3)
    assert data_type_score([], DataType.TEXT) == 0.0
    assert data_type_score(["anything"], DataType.TEXT) == 1.0
    assert data_type_score([""], DataType.TEXT) == 0.0


def test_affinity_combines_best_evidence():
    m = MeaningConfig(
        name="ACT",
        w_title=1.0,
        w_content=1.0,
        min_affinity=0.0,
        title_keywords=("IC50",),
        data_type=DataType.REAL,
    )
    col = ColumnView(index=0, title="IC50", body_cells=("1.0", "2.5", "x", "y", "z"))
    scores = affinity(col, m)
    assert scores.title_keyword == 1.0
    assert scores.content_dtype == pytest.approx(0.4)
    assert scores.combined == pytest.approx((1.0 * 0.4 + 1.0 * 1.0) / 2.0)


def test_affinity_weights():
    m = MeaningConfig(
        name="X",
        w_title=1.0,
        w_content=3.0,
        min_affinity=0.0,
        title_keywords=("name",),
        content_regex=r"^C",
    )
    s = affinity(ColumnView(index=0, title="name", body_cells=("C1", "D2")), m)
    # content 0.5 regex-fraction, title 1.0
    assert s.combined == pytest.approx((3.0 * 0.5 + 1.0 * 1.0) / 4.0)


# ---------------------------------------------------------------------------
# table-level matching


def _flat_table(titles, columns):
    n_cols = len(titles)
    n_rows = 1 + len(columns[0])
    cells = []
    for j, t in enumerate(titles):
        cells.append(_cell(box(j * 50, 0, j * 50 + 50, 20), 0, 0, j, j, t))
    for i in range(1, n_rows):
        for j in range(n_cols):
            cells.append(
                _cell(
                    box(j * 50, i * 20, j * 50 + 50, i * 20 + 20),
                    i, i, j, j, columns[j][i - 1],
                )
            )
    return RecognizedTable(
        region=box(0, 0, n_cols * 50, n_rows * 20),
        n_rows=n_rows,
        n_cols=n_cols,
        cells=tuple(cells),
        labeled=True,
        source=TableSource.SEPARATOR,
        header_row_count=0,
    )


def test_header_row_count_rules():
    t = _flat_table(["a", "b"], [["1", "2"], ["3", "4"]])
    assert header_row_count_for(t) == 1  # ruled tables: top row is the header
    rng = random.Random(2)
    bt = gen_booktabs_page(rng, "x", 1, rows=3, cols=4,
                           cmidrule_levels=[[(0, 1)]]).gt.tables[0]
    assert header_row_count_for(bt) == 2


def test_column_views_spanning_header():
    rng = random.Random(3)
    bt = gen_booktabs_page(rng, "x", 1, rows=2, cols=4,
                           cmidrule_levels=[[(1, 2)]]).gt.tables[0]
    views = column_views(bt)
    assert len(views) == 4
    group_cell = next(c for c in bt.cells if c.row_start == 0 and c.col_start == 1)
    group = group_cell.content
    assert group  # the grouped columns inherit the group title once each
    assert views[1].title.startswith(group)
    assert views[2].title.startswith(group)
    assert not views[0].title.startswith(group)


def test_match_meanings_prefers_best_column():
    table = _flat_table(
        ["Compound", "IC50", "Rank"],
        [["C-1", "C-2"], ["1.5", "2.5"], ["1", "2"]],
    )
    meanings = default_meanings()
    views, matching = match_meanings(table, meanings)
    by_meaning = {meanings[l].name: r for l, r in matching.pairs}
    # "Rank" holds integers, which are valid reals, but the title pulls
    # ACTIVITY to the IC50 column
    assert by_meaning == {"COMPOUND": 0, "ACTIVITY": 1}


def test_match_meanings_prunes_below_min_affinity():
    table = _flat_table(["Notes", "More"], [["x", "y"], ["z", "w"]])
    _, matching = match_meanings(table, default_meanings())
    assert matching.pairs == ()


def test_interpret_table_tuples():
    table = _flat_table(
        ["Compound", "IC50"],
        [["C-1", "C-2", "C-3"], ["1.5", "2.5", "0.1"]],
    )
    ts = interpret_table(table, default_meanings(), "f", 3, 0)
    assert (ts.file_id, ts.page_nr, ts.table_idx) == ("f", 3, 0)
    assert [t.row for t in ts.tuples] == [0, 1, 2]
    assert ts.tuples[0].values == {"COMPOUND": "C-1", "ACTIVITY": "1.5"}
    assert ts.tuples[2].values == {"COMPOUND": "C-3", "ACTIVITY": "0.1"}


def test_interpret_table_no_match_is_empty():
    table = _flat_table(["Notes"], [["x", "y"]])
    ts = interpret_table(table, default_meanings(), "f", 1, 0)
    assert ts.tuples == []


def test_interpret_fixture_round_trip():
    rng = random.Random(11)
    for k in range(6):
        gen = gen_bordered_page if k % 2 == 0 else gen_booktabs_page
        page = gen(rng, "ri", 1, columns_mode="interpretation")
        want = page.tuple_sets[0]
        got = interpret_table(page.gt.tables[0], default_meanings(), "ri", 1, 0)
        assert [t.values for t in got.tuples] == [t.values for t in want.tuples]


def test_tuple_set_json_round_trip():
    table = _flat_table(["Compound", "IC50"], [["C-9"], ["7.5"]])
    ts = interpret_table(table, default_meanings(), "f", 2, 1)
    back = tuple_set_from_dict(tuple_set_to_dict(ts))
    assert back == ts


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("page_nr", "2", "bad tuple set entry: page_nr must be an integer, got '2'"),
        ("table_idx", 1.0, "bad tuple set entry: table_idx must be an integer, got 1.0"),
        ("row", True, "bad tuple set entry: tuples[0].row must be an integer, got True"),
    ],
)
def test_tuple_set_takes_json_integers_only(field, value, message):
    d = {"file_id": "f", "page_nr": 2, "table_idx": 1,
         "tuples": [{"row": 1, "values": {"M": "x"}}]}
    assert tuple_set_from_dict(d).tuples[0].row == 1
    if field == "row":
        d["tuples"][0]["row"] = value
    else:
        d[field] = value
    with pytest.raises(ConfigError) as err:
        tuple_set_from_dict(d)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("file_id", 7, "bad tuple set entry: file_id must be a string, got 7"),
        ("file_id", None, "bad tuple set entry: file_id must be a string, got None"),
        ("values", {"M": None},
         "bad tuple set entry: tuples[0].values['M'] must be a string, got None"),
        ("values", {"M": 7.5},
         "bad tuple set entry: tuples[0].values['M'] must be a string, got 7.5"),
        ("values", {"M": "x", 1: "y"},
         "bad tuple set entry: tuples[0].values key must be a string, got 1"),
        ("values", [["M", "x"]],
         "bad tuple set entry: tuples[0].values must be an object, got [['M', 'x']]"),
        ("tuples", {"row": 1}, "bad tuple set entry: tuples must be a list, got {'row': 1}"),
        ("tuples", ["x"], "bad tuple set entry: tuples[0] must be an object, got 'x'"),
    ],
)
def test_tuple_set_takes_json_strings_only(field, value, message):
    d = {"file_id": "f", "page_nr": 2, "table_idx": 1,
         "tuples": [{"row": 1, "values": {"M": "x", "N": ""}}]}
    assert tuple_set_from_dict(d).tuples[0].values == {"M": "x", "N": ""}
    if field == "values":
        d["tuples"][0]["values"] = value
    else:
        d[field] = value
    with pytest.raises(ConfigError) as err:
        tuple_set_from_dict(d)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# rules config parsing


def test_meanings_from_json_accepts_both_shapes():
    entry = {
        "name": "M",
        "w_title": 1.0,
        "w_content": 1.0,
        "min_affinity": 0.4,
        "title_keywords": ["x"],
    }
    assert len(meanings_from_json([entry])) == 1
    assert len(meanings_from_json({"meanings": [entry]})) == 1


def test_meanings_from_json_reports_every_violation():
    bad = [
        {"name": "A", "w_title": -1, "w_content": 0, "min_affinity": 2.0},
        {"name": "A", "w_title": 1, "w_content": 1, "min_affinity": 0.5,
         "title_keywords": ["k"], "data_type": "Complex"},
        {"name": "B", "w_title": float("nan"), "w_content": 1, "min_affinity": 0.5,
         "title_keywords": ["k"]},
        {"name": "C", "w_title": 1, "w_content": float("inf"), "min_affinity": 0.5,
         "title_keywords": ["k"]},
        {"name": "D", "w_title": -(10**400), "w_content": 1, "min_affinity": 0.5,
         "title_keywords": ["k"]},  # too large for a float
    ]
    with pytest.raises(ConfigError) as err:
        meanings_from_json(bad)
    msg = str(err.value)
    assert "meanings[0]" in msg
    assert "meanings[1]" in msg
    assert "duplicate" in msg.lower()
    assert "meanings[2]: B: weights must be finite" in msg
    assert "meanings[3]: C: weights must be finite" in msg
    assert "meanings[4]: D: weights must be finite" in msg


def test_meanings_from_json_distinguishes_missing_from_mistyped():
    bad = [{"name": "A", "w_content": "high", "min_affinity": 0.5, "title_keywords": ["k"]}]
    with pytest.raises(ConfigError) as err:
        meanings_from_json(bad)
    assert str(err.value) == (
        "meanings[0].w_title is required\n"
        "meanings[0].w_content must be a number, got 'high'"
    )


def test_meanings_from_json_bad_regex_is_invalid_pattern():
    entry = {
        "name": "M",
        "w_title": 1.0,
        "w_content": 1.0,
        "min_affinity": 0.4,
        "content_regex": "(unclosed",
    }
    with pytest.raises(InvalidPattern):
        meanings_from_json([entry])


def test_meanings_from_json_requires_some_rule():
    entry = {"name": "M", "w_title": 1.0, "w_content": 1.0, "min_affinity": 0.4}
    with pytest.raises(ConfigError):
        meanings_from_json([entry])
    with pytest.raises(ConfigError):
        meanings_from_json([])


def test_data_type_case_insensitive():
    entry = {
        "name": "M",
        "w_title": 0.0,
        "w_content": 1.0,
        "min_affinity": 0.4,
        "data_type": "real",
    }
    (m,) = meanings_from_json([entry])
    assert m.data_type is DataType.REAL


def test_interpret_table_with_no_body_row_has_no_tuple():
    table = _flat_table(["Compound", "IC50"], [[], []])
    _, matching = match_meanings(table, default_meanings())
    assert len(matching.pairs) == 2
    assert interpret_table(table, default_meanings(), "f", 1, 0).tuples == []


def test_an_empty_regex_is_a_rule_that_matches_every_string():
    base = {"name": "M", "w_title": 1, "w_content": 1, "min_affinity": 0.5}
    (alone,) = meanings_from_json([{**base, "title_regex": ""}])
    (beside,) = meanings_from_json([{**base, "title_regex": "", "content_regex": "x"}])
    (content,) = meanings_from_json([{**base, "content_regex": ""}])
    for title in ("", "IC50", "  "):
        col = ColumnView(index=0, title=title, body_cells=("y", ""))
        assert affinity(col, alone).title_regex == 1.0
        assert affinity(col, beside).title_regex == 1.0
        assert affinity(col, beside).content_regex == 0.0
        assert affinity(col, content).content_regex == 1.0
