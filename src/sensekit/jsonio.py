"""Canonical JSON and the file reader shared by all file formats and the CLI.

Every serializer in the package writes dumps()'s format, so identical
values always produce byte-identical output: sorted keys, two-space
indentation, a trailing newline, and strict JSON (NaN and infinities raise
ValueError instead of being written).  dumps() is the stdlib's encoder,
``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
allow_nan=False)`` plus the newline, and it raises the same errors (a
cyclic value is ``ValueError: Circular reference detected``).  One shape
takes a faster path to the same bytes: a document of one str key holding a
list of string records (the triples `sensekit nominalize` prints) is
rendered from one row template by _records.  _array is the one array
layout outside the encoder: _records, the corpus export and the ontology
document lay out their arrays with it (the meaning store, written record
by record, joins each dimension's pairs inline).

Three large documents do not call dumps(); they render its bytes directly
with the same string encoder: the corpus export,
corpus.corpus_to_json_text, the meaning store,
semantics.meanings_to_json_text, and the ontology document,
hierarchy.dag_to_json_text.  Property tests pin each to dumps() of its
JSON value (test_prop_json_text_equals_dumps_of_json in
tests/test_corpus.py, test_prop_store_text_equals_dumps_of_json in
tests/test_semantics.py, test_prop_exports_equal_the_references in
tests/test_hierarchy.py).

Input must be strict JSON too: loads() rejects NaN and Infinity.  Every
input file is read through read_text(), so a file that cannot be opened
or decoded fails the same way wherever it is read.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from itertools import chain
from json.encoder import encode_basestring as _encode
from operator import itemgetter

from .errors import ConfigError, InputDataError

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)


def dumps(obj: object) -> str:
    """Indented, key-sorted, strict JSON text of obj, ending in a newline."""
    if type(obj) is dict and len(obj) == 1:
        ((key, value),) = obj.items()
        if type(key) is str and isinstance(value, (list, tuple)) and value:
            rows = _records(value, "\n  ")
            if rows is not None:
                return f"{{\n  {_encode(key)}: {rows}\n}}\n"
    return _ENCODER.encode(obj) + "\n"


def _array(items: Iterable[str], nl: str) -> str:
    """The JSON array of the encoded items, laid out as dumps() lays it out at indent nl."""
    body = ("," + nl + "  ").join(items)
    return f"[{nl}  {body}{nl}]" if body else "[]"


_STR = frozenset((str,))
_DICT = frozenset((dict,))


def _records(value: list | tuple, nl: str) -> str | None:
    """The JSON array of value at indent nl, if value holds string records.

    A list of string records holds exact dicts that share the first one's
    keys, all of exact type str, and map them to str.  The keys are sorted and
    encoded once into a row template, which is repeated once per row and
    filled with every encoded value in one formatting pass.  None for any
    other list: the first row's keys and values are checked before the rest is
    scanned, so a list of other dicts costs one row.
    """
    first = value[0]
    if type(first) is not dict or not first:
        return None
    if set(map(type, first)) != _STR or set(map(type, first.values())) != _STR:
        return None
    width = len(first)
    if set(map(type, value)) != _DICT or set(map(len, value)) != {width}:
        return None
    if set(map(type, chain.from_iterable(value))) != _STR:  # every key
        return None
    keys = sorted(first)
    rows = map(itemgetter(*keys), value)  # a row holding the first row's keys holds no other
    try:
        encoded = tuple(map(_encode, chain.from_iterable(rows) if width > 1 else rows))
    except (KeyError, TypeError):  # a key is missing, or a value is not a str
        return None
    row = nl + "  "
    fields = ",".join(row + "  " + _encode(key).replace("%", "%%") + ": %s" for key in keys)
    return _array(["{" + fields + row + "}"] * len(value), nl) % encoded


def _reject_constant(name: str) -> object:
    raise ValueError(f"{name} is not valid JSON")


def loads(text: str | bytes, *, what: str) -> object:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    # JSONDecodeError is a ValueError; so is a NaN or Infinity literal and an
    # integer literal over the interpreter's digit limit, and deep nesting
    # exhausts the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise InputDataError(f"{what}: invalid JSON: {exc}") from exc


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; *what* names the file in the error message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{what} {path} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # open() rejects a path with an embedded NUL
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
