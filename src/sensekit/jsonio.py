"""Canonical JSON and the file reader shared by all file formats and the CLI.

Every serializer in the package goes through dumps() so that identical
values always produce byte-identical output (sorted keys, fixed
indentation, trailing newline) in strict JSON: NaN and infinities raise
ValueError instead of being written.  Every input file is read through
read_text(), so a file that cannot be opened or decoded fails the same way
wherever it is read.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ConfigError, InputDataError


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def loads(text: str, *, what: str) -> Any:
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError; so is an integer literal over the
    # interpreter's digit limit, and deep nesting exhausts the recursion limit.
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
