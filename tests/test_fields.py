"""The fixture spec, recognizer config and rules readers share one field checker."""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabgrid.errors import ConfigError
from tabgrid.fields import FieldError, expect
from tabgrid.fixtures import corpus_recognizer_config, default_meanings, generate_pages
from tabgrid.interpret import DataType, MeaningConfig, meaning_to_dict, meanings_from_json
from tabgrid.model import RecognizerConfig, recognizer_config_from_dict, recognizer_config_to_dict


def test_expect_gives_numbers_as_floats_and_bounds_integers():
    assert type(expect(2, "x", "number")) is float
    assert expect(10**400, "x", "number") == math.inf
    assert expect(-(10**400), "x", "number") == -math.inf
    with pytest.raises(FieldError, match=r"^x must be an integer >= 1, got 0$"):
        expect(0, "x", "integer", 1)
    with pytest.raises(ValueError, match=r"^x must be an integer, got True$"):
        expect(True, "x", "integer")


@pytest.mark.parametrize(
    "cfg",
    [
        RecognizerConfig(),
        corpus_recognizer_config(),
        RecognizerConfig(gamma=1.5, label_keywords=("tab",), separator_expand_px=0,
                         label_search_margin_px=7),
    ],
)
def test_recognizer_config_round_trip(cfg):
    assert recognizer_config_from_dict(recognizer_config_to_dict(cfg)) == cfg


def test_default_meanings_round_trip():
    assert meanings_from_json([meaning_to_dict(m) for m in default_meanings()]) == default_meanings()


def test_meaning_writer_leaves_out_only_absent_rules():
    m = MeaningConfig(name="M", w_title=1.0, w_content=0.0, min_affinity=0.5,
                      title_regex="", content_regex=r"\d")
    assert meaning_to_dict(m) == {"name": "M", "w_title": 1.0, "w_content": 0.0,
                                  "min_affinity": 0.5, "title_regex": "", "content_regex": r"\d"}
    m = MeaningConfig(name="N", w_title=0.0, w_content=1.0, min_affinity=0.0,
                      title_keywords=("a", "b"), data_type=DataType.DATE)
    assert list(meaning_to_dict(m).items())[4:] == [
        ("title_keywords", ["a", "b"]), ("data_type", "Date")
    ]


def test_null_leaves_an_optional_rule_out():
    entry = meaning_to_dict(default_meanings()[0])
    nulls = {"title_regex": None, "data_type": None}
    assert meanings_from_json([{**entry, **nulls}]) == meanings_from_json([entry])


# valid documents that reach every field of their reader
_SPEC = {
    "seed": 3,
    "pages": [
        {"kind": "bordered", "file_id": "a", "page_nr": 1, "rows": 3, "cols": 3,
         "labeled": True, "orientation": "vertical", "interpretation": False,
         "merges": [{"row": 0, "col": 0, "dir": "right"}]},
        {"kind": "booktabs", "file_id": "b", "page_nr": 0, "rows": 2, "cols": 4,
         "cmidrule_levels": [[[0, 1], [2, 3]]]},
    ],
    "random": {"bordered": {"count": 1}, "booktabs": {"count": 1},
               "interpretation": {"count": 2}},
}
_CONFIG = recognizer_config_to_dict(corpus_recognizer_config())
_RULES = {
    "meanings": [meaning_to_dict(m) for m in default_meanings()]
    + [{"name": "RANK", "w_title": 1, "w_content": 0, "min_affinity": 0.5,
        "title_regex": "^Rank$"}]
}
_READERS = {
    "spec": (_SPEC, generate_pages),
    "config": (_CONFIG, recognizer_config_from_dict),
    "rules": (_RULES, meanings_from_json),
}


def _paths(node: object, path: tuple = ()):
    """The path of every node of a JSON value, the root's included."""
    yield path
    if type(node) is dict:
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif type(node) is list:
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


def _replaced(doc: object, path: tuple, value: object) -> object:
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# small integers only: a large count or row number is a large corpus, not a fault
_WORDS = st.sampled_from(
    ["", "bordered", "booktabs", "right", "down", "vertical", "Real", "count", "(", "k"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.text(max_size=3) | _WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORDS, inner, max_size=2),
    max_leaves=5,
)


def test_the_base_documents_are_valid():
    for doc, read in _READERS.values():
        read(doc)


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_replaced_node_raises_nothing_but_config_error(reader, data):
    doc, read = _READERS[reader]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    try:
        read(_replaced(doc, path, data.draw(_JSON)))
    except ConfigError:
        pass
