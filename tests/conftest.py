from __future__ import annotations

import http.server
import json
import os
import random
import threading
import time
from pathlib import Path

import pytest

from sensekit.corpus import (
    AGENT,
    NONSENSICAL,
    OBJECT,
    SENSIBLE,
    Assertion,
    AssertionSet,
    ConceptId,
    PropertyKey,
    parse_corpus,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def no_proxies(monkeypatch) -> None:
    """Clear every *_proxy variable, so a URL on 127.0.0.1 is opened directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.command, self.path, self.headers, body))
        replies = self.server.replies
        status, payload, headers, delay = replies.pop(0) if replies else (500, b"", {}, 0.0)
        time.sleep(delay)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST

    def log_message(self, *args) -> None:
        pass


class Loopback:
    """A completion provider on 127.0.0.1 that plays back queued replies.

    Each call records (method, path, headers, body) in received; once the
    queue is empty every call gets a 500.
    """

    def __init__(self, server: http.server.ThreadingHTTPServer) -> None:
        self.server = server
        self.url = f"http://127.0.0.1:{server.server_port}"
        self.received = server.received

    def reply(self, status: int = 200, payload: bytes = b"", headers=None, delay: float = 0.0) -> None:
        self.server.replies.append((status, payload, headers or {}, delay))

    def completions(self, *tokens: str) -> None:
        self.reply(payload=json.dumps({"completions": list(tokens)}).encode())


@pytest.fixture()
def loopback(no_proxies):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.handle_error = lambda *args: None  # a client that timed out closed its socket
    server.received, server.replies = [], []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield Loopback(server)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="session")
def leaf_corpus() -> AssertionSet:
    return parse_corpus((DATA_DIR / "leaf_hierarchy.sense").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def branch_corpus() -> AssertionSet:
    return parse_corpus((DATA_DIR / "branch_split.sense").read_text(encoding="utf-8"))


def random_assertion_set(
    rng: random.Random,
    max_properties: int = 8,
    max_concepts: int = 10,
    allow_negative: bool = True,
) -> AssertionSet:
    """A consistent random corpus (each pair gets one polarity at most)."""
    n_concepts = rng.randint(1, max_concepts)
    n_props = rng.randint(1, max_properties)
    concepts = [ConceptId(f"c{i}") for i in range(n_concepts)]
    props: list[PropertyKey] = []
    for i in range(n_props):
        if rng.random() < 0.3:
            props.append(
                PropertyKey(f"R{i}", arity=2, position=rng.choice([AGENT, OBJECT]))
            )
        else:
            props.append(PropertyKey(f"P{i}"))
    assertions = []
    for prop in props:
        for concept in concepts:
            roll = rng.random()
            if roll < 0.45:
                assertions.append(Assertion(prop, concept, SENSIBLE))
            elif allow_negative and roll < 0.6:
                assertions.append(Assertion(prop, concept, NONSENSICAL))
    return AssertionSet(tuple(assertions))


def interval_assertion_set(
    rng: random.Random,
    concepts: int,
    intervals: int,
    near_dups: int,
    max_drop: int = 3,
) -> AssertionSet:
    """Random intervals over ordered concepts, plus near-duplicates of some.

    Intervals nest into long inclusion chains, as in the benchmark's
    hierarchy_wide corpus.  A near-duplicate drops 1 to max_drop members of
    an interval, so its size lies close to its base's and a small tau may
    merge the two.
    """
    names = [ConceptId(f"c{i:03d}") for i in range(concepts)]
    extents = []
    for _ in range(intervals):
        length = rng.randint(1, concepts)
        start = rng.randrange(concepts - length + 1)
        extents.append(names[start:start + length])
    for base in rng.sample(extents, min(near_dups, len(extents))):
        gone = set(rng.sample(base, min(len(base) - 1, rng.randint(1, max_drop))))
        extents.append([c for c in base if c not in gone])
    return AssertionSet(tuple(
        Assertion(PropertyKey(f"P{i}"), c, SENSIBLE)
        for i, members in enumerate(extents)
        for c in members
    ))
