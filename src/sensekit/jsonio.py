"""Canonical JSON and the file reader shared by all file formats and the CLI.

Every serializer in the package writes dumps()'s format, so identical
values always produce byte-identical output: sorted keys, two-space
indentation, a trailing newline, and strict JSON (NaN and infinities raise
ValueError instead of being written).  All but three call dumps(); the
corpus export, corpus.corpus_to_json_text, the meaning store,
semantics.meanings_to_json_text, and the ontology document,
hierarchy.dag_to_json_text, render the same bytes directly with the same
string encoder, and property tests pin each to dumps() of its JSON value
(test_prop_json_text_equals_dumps_of_json in tests/test_corpus.py,
test_prop_store_text_equals_dumps_of_json in tests/test_semantics.py,
test_prop_exports_equal_the_references in tests/test_hierarchy.py).
dumps() is sensekit's own writer.
Its output equals, byte for byte, ``json.dumps(obj, indent=2,
sort_keys=True, ensure_ascii=False, allow_nan=False)`` plus the newline,
and it raises the same errors.  It exists because the stdlib uses its C
encoder only without indentation and otherwise falls back to a
pure-Python generator; this writer takes about half that time.  Three
shapes of list are written in one chunk: a list of str; a list of ints,
whose items are all of exact type int (the line pair of a conflict); and a
list of string records, whose items are all exact dicts with one shared set
of exact-str keys and only str values (the triples `sensekit nominalize`
prints), rendered from one row template.

Input must be strict JSON too: loads() rejects NaN and Infinity.  Every
input file is read through read_text(), so a file that cannot be opened
or decoded fails the same way wherever it is read.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring as _encode
from operator import itemgetter

from .errors import ConfigError, InputDataError

_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def dumps(obj: object) -> str:
    """Indented, key-sorted, strict JSON text of obj, ending in a newline.

    Cyclic values are not detected: every caller passes a fresh tree, built
    by a ``*_to_json`` function or by the CLI for its one document.
    """
    chunks: list[str] = []
    _write(obj, chunks, "", "\n")
    chunks.append("\n")
    return "".join(chunks)


def _float(value: float) -> str:
    text = float.__repr__(value)
    if text in _NON_FINITE:
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return text


_CONSTANTS = {None: "null", True: "true", False: "false"}
#: Exact scalar type -> encoder.  _write looks subclasses (str enums,
#: IntEnum) up by their base class.
_SCALARS = {
    str: _encode,
    int: int.__repr__,
    float: _float,
    bool: _CONSTANTS.__getitem__,
    type(None): _CONSTANTS.__getitem__,
}


def _key(key: object) -> str:
    """A dict key that is not a str, converted as the stdlib converts it."""
    if isinstance(key, float):
        return _float(key)
    if key is True or key is False or key is None:
        return _CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value: object, out: list[str], sep: str, nl: str) -> None:
    """Append sep followed by the JSON text of value to out.

    A scalar, a list of str, a list of exact ints or a list of string
    records (see _records) is one chunk; any other list or dict takes one
    chunk per item plus one for its closing bracket, with sep joined to the
    first.  nl is the newline and indentation of value's own level.
    """
    encode = _SCALARS.get(type(value))
    if encode is not None:
        out.append(sep + encode(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(sep + "[]")
            return
        inner = nl + "  "
        item_sep = "," + inner
        first = value[0]
        if isinstance(first, str):
            try:
                out.append(sep + "[" + inner + item_sep.join(map(_encode, value)) + nl + "]")
                return
            except TypeError:  # not every item is a str
                pass
        elif type(first) is int and set(map(type, value)) == _INT:  # no bool or IntEnum
            out.append(sep + "[" + inner + item_sep.join(map(int.__repr__, value)) + nl + "]")
            return
        elif type(first) is dict:
            rows = _records(value, first, inner)
            if rows is not None:
                out.append(sep + "[" + inner + rows + nl + "]")
                return
        sep += "[" + inner
        for item in value:
            _write(item, out, sep, inner)
            sep = item_sep
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append(sep + "{}")
            return
        inner = nl + "  "
        item_sep = "," + inner
        sep += "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                key = _key(key)
            _write(item, out, sep + _encode(key) + ": ", inner)
            sep = item_sep
        out.append(nl + "}")
    else:
        for base in (str, int, float):  # subclasses, such as str enums
            if isinstance(value, base):
                out.append(sep + _SCALARS[base](value))
                return
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


_INT = frozenset((int,))
_STR = frozenset((str,))
_DICT = frozenset((dict,))


def _records(value: list | tuple, first: dict, nl: str) -> str | None:
    """The items of value as JSON text joined at nl, if value holds string records.

    A list of string records holds exact dicts that share first's keys,
    all of exact type str, and map them to str.  The keys are sorted and
    encoded once into a row template, which is repeated once per row and
    filled with every encoded value in one formatting pass.  None for any
    other list: first's keys and values are checked before the rest is
    scanned, so a list of other dicts costs one row.
    """
    if not first or set(map(type, first)) != _STR or set(map(type, first.values())) != _STR:
        return None
    width = len(first)
    if set(map(type, value)) != _DICT or set(map(len, value)) != {width}:
        return None
    if set(map(type, chain.from_iterable(value))) != _STR:  # every key
        return None
    keys = sorted(first)
    rows = map(itemgetter(*keys), value)  # a row holding first's keys holds no other
    try:
        encoded = tuple(map(_encode, chain.from_iterable(rows) if width > 1 else rows))
    except (KeyError, TypeError):  # a key is missing, or a value is not a str
        return None
    inner = nl + "  "
    fields = ",".join(inner + _encode(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{" + fields + nl + "}"
    return ("," + nl).join([template] * len(value)) % encoded


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
