"""Checks on one field of a small JSON input, in one message form.

A wrong value reads ``<where>.<key> must be <what>, got <value>``, and a
key the input does not define reads ``unknown field <where>.<key>``.
The fixture spec, the recognizer config and the rules read every field
through these checks.  The layout, tables and tuple-set readers keep
their own fast paths and raise their messages through ``expect`` and
``must_be`` too.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container
from pathlib import Path

from .errors import ConfigError


class FieldError(ConfigError, ValueError):
    """A JSON field of the wrong type or value.

    It is a ValueError too, so a reader that adds its own prefix to a
    ValueError (``bad table entry: ...``) does the same for this one.
    """


# the Python types json.loads gives each JSON kind; bool is not an int here
_KINDS = {
    "boolean": ((bool,), "a boolean"),
    "integer": ((int,), "an integer"),
    "number": ((int, float), "a number"),
    "string": ((str,), "a string"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
}


def must_be(name: str, what: str, v: object) -> str:
    """The message for a field ``name`` that is not ``what``."""
    return f"{name} must be {what}, got {v!r}"


def expect(v: object, name: str, kind: str, low: int | None = None):
    """v, if it has exactly the JSON type ``kind`` and, for an integer, is
    at least ``low``; else a FieldError.

    A number comes back as a float; an integer too large for one becomes
    an infinity of its sign, which every finite bound then rejects.
    """
    types, what = _KINDS[kind]
    if type(v) in types and (low is None or v >= low):
        if kind != "number":
            return v
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
    raise FieldError(must_be(name, what if low is None else f"{what} >= {low}", v))


def one_of(v: object, name: str, choices: tuple[str, ...]) -> str:
    """v, if it is one of the strings ``choices``; else a FieldError."""
    if v in choices:
        return v
    listed = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
    raise FieldError(must_be(name, listed, v))


def keywords(v: object, name: str, non_empty: bool = False) -> tuple[str, ...]:
    """v as a tuple, if it is a list of non-empty strings, and not empty
    when ``non_empty``; else a FieldError."""
    if type(v) is list and (v or not non_empty) and all(type(k) is str and k for k in v):
        return tuple(v)
    what = "a non-empty list" if non_empty else "a list"
    raise FieldError(must_be(name, f"{what} of non-empty strings", v))


def known(d: dict, where: str, fields: Container[str], note: str = "") -> None:
    """A FieldError naming the first key of d, in sorted order, that is not
    in ``fields``; ``where`` is the object's own location, "" at the top."""
    for key in sorted(d):
        if key not in fields:
            at = f"{where}.{key}" if where else key
            raise FieldError(f"unknown field {at}{note}")


def load(path: str | Path, what: str) -> object:
    """The JSON value in the file at ``path``; a ConfigError names ``what``
    it is when the file cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
