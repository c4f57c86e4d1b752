"""Canonical JSON encoding shared by all file formats and the CLI.

Every serializer in the package goes through dumps() so that identical
values always produce byte-identical output (sorted keys, fixed
indentation, trailing newline) in strict JSON: NaN and infinities raise
ValueError instead of being written.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InputDataError


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def loads(text: str, *, what: str) -> Any:
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError; so is an integer literal over the
    # interpreter's digit limit, and deep nesting exhausts the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise InputDataError(f"{what}: invalid JSON: {exc}") from exc
