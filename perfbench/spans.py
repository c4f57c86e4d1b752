"""In-memory spans for the traced benchmark run.

The benchmark opens a span around each call it makes into a sensekit layer,
and for a traced round it swaps timing wrappers onto the module attributes
the program resolves at call time, so calls *inside* the program show up as
child spans.  Spans are only recorded while an operation is open; work the
benchmark does between operations (checks, hashing) leaves no spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

#: (module, attribute path, span name, keep call arguments)
PATCH_POINTS = (
    ("sensekit.hierarchy", "extent", "corpus.extent", False),
    ("sensekit.hierarchy", "check_consistency", "corpus.consistency", False),
    ("sensekit.jsonio", "dumps", "jsonio.dumps", False),
    ("sensekit.jsonio", "loads", "jsonio.loads", False),
    ("sensekit.similarity", "dimension_similarity", "similarity.dimension", True),
    ("sensekit.elicitation", "MockProvider.complete", "elicitation.provider", False),
)

# Span record fields.
NAME, START, END, PARENT, OP, FAILED, ARGS, SIZE = range(8)

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[tuple[str, int]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._t0 = perf_counter()

    # -- operations ---------------------------------------------------------
    def begin_op(self, kind: str, round_no: int) -> None:
        self._op = len(self.ops)
        self.ops.append((kind, round_no))

    def end_op(self) -> None:
        self._op = None

    # -- spans ----------------------------------------------------------------
    def _open(self, name: str) -> list | None:
        if self._op is None:
            return None
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), 0.0, parent, self._op, False, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """A span around a block; free when no operation is open."""
        return _NO_SPAN if self._op is None else self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = self._open(name)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, keep_args: bool):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            if rec is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                tracer._close(rec)
            if keep_args:
                rec[ARGS] = args
            if isinstance(result, str):
                rec[SIZE] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of one traced round.

        A patch point whose target no longer exists is skipped: a later
        change that removes a call then shows as a vanished span, not a crash.
        """
        undo = []
        for module_name, path, name, keep_args in PATCH_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                continue
            setattr(owner, attr, self.wrap(name, original, keep_args))
            undo.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def children_time(self) -> list[float]:
        """Per span, the summed duration of its direct children (seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        return child

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (kind, round_no) in enumerate(self.ops):
                fh.write(json.dumps({"op": i, "kind": kind, "round": round_no}) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i,
                    "name": rec[NAME],
                    "start_us": round((rec[START] - self._t0) * 1e6, 1),
                    "end_us": round((rec[END] - self._t0) * 1e6, 1),
                    "parent": rec[PARENT],
                    "op": rec[OP],
                    "failed": rec[FAILED],
                }) + "\n")
