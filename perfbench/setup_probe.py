"""One program-side set-up, timed in a fresh interpreter.

Usage: python setup_probe.py SRC_DIR WORK_DIR SUBJECT

Imports sensekit (including the CLI module and its dependencies), builds the
mock provider from the workload's fixture, loads its lexicon, and warms up
every layer once on the tiny CLI inputs.  Prints one JSON object with the
phase timings.  The interpreter's own start-up is not included; the CLI
metrics cover it.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def main(src: str, work: str, subject: str) -> dict:
    t0 = perf_counter()
    sys.path.insert(0, src)
    import sensekit
    import sensekit.cli  # noqa: F401  (the CLI's import cost is set-up too)

    t1 = perf_counter()
    provider = sensekit.MockProvider.from_file(os.path.join(work, "fixture.json"))
    t2 = perf_counter()
    lexicon = sensekit.load_lexicon(os.path.join(work, "lexicon.json"))
    t3 = perf_counter()

    with open(os.path.join(work, "tiny.sense"), encoding="utf-8") as fh:
        aset = sensekit.parse_corpus(fh.read())
    sensekit.dag_to_json_text(sensekit.induce(aset))
    for a in aset.assertions:
        if a.is_sensible and (a.property.arity == 2 or lexicon.get(a.property.name)):
            sensekit.nominalize_assertion(a, lexicon)
    records = sensekit.load_meanings(os.path.join(work, "tiny_store.json"))
    sensekit.concept_similarity(records[0], records[1])
    sensekit.elicit(provider, subject, list(sensekit.DEFAULT_TEMPLATES), 25)
    t4 = perf_counter()
    return {
        "import_ms": (t1 - t0) * 1e3,
        "mock_build_ms": (t2 - t1) * 1e3,
        "lexicon_ms": (t3 - t2) * 1e3,
        "warmup_ms": (t4 - t3) * 1e3,
        "setup_s": t4 - t0,
    }


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
