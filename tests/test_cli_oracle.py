"""`sensekit ingest` and `sensekit nominalize` against oracles.reference_run:
stdout, stderr lines and exit code on drawn DSL corpora and lexicons."""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracles import reference_run
from sensekit.cli import main

_UNARY = ["OLD", "NEW", "HEAVY", "A-B", "RIDE@agent", "RIDE@object"]
_BINARY = ["RIDE", "A-B"]
_CONCEPTS = ["trip", "car", "book#1", "book#2", "a-b_c0"]
_fact = st.one_of(
    st.builds("{} {} {}".format, st.sampled_from("+-"), st.sampled_from(_UNARY), st.sampled_from(_CONCEPTS)),
    st.builds("{} {}({}, {})".format, st.sampled_from("+-"), st.sampled_from(_BINARY),
              st.sampled_from(_CONCEPTS), st.sampled_from(_CONCEPTS)),
)
_comment = st.sampled_from(["# a note", "#", "  # indented note"])
_bad = st.sampled_from(["+ old trip", "+ OLD Trip", "* OLD trip", "+ OLD", "+ OLD trip car",
                        "+ RIDE(trip car)", "+ RIDE@driver trip", "+ OLD trip#0", "- RIDE(a, b, c)"])
# A fact, then the same fact with the other sign: a conflict.
_conflict = _fact.map(lambda fact: f"{fact}\n{'+' if fact[0] == '-' else '-'}{fact[1:]}")
_line = st.one_of(_fact, _fact.map(lambda fact: f"{fact} # trailing"), _conflict, _comment, st.just(""))
# Mostly good lines, so that facts repeat, and at most one bad line.
_corpora = st.builds(
    lambda lines, bad, at: "\n".join(lines[:at] + bad + lines[at:]) + "\n",
    st.lists(_line, max_size=14),
    st.one_of(st.just([]), st.just([]), _bad.map(lambda line: [line])),
    st.integers(0, 14),
)
_names = sorted({token.partition("@")[0] for token in _UNARY + _BINARY})
_entries = st.fixed_dictionaries({
    "trope": st.sampled_from(["oldness", "newness", "riding", "a-b's"]),
    "cat": st.sampled_from(["property"] * 4 + ["state"] * 3 + ["activity", "event"]),
})
# Entries for every name, or for some (a unary one may be missing), in every category.
_lexicons = st.one_of(st.fixed_dictionaries(dict.fromkeys(_names, _entries)),
                      st.dictionaries(st.sampled_from(_names), _entries))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["ingest", "nominalize"]), corpus=_corpora, lexicon=_lexicons)
@example(command="ingest", corpus="+ OLD trip\n# note\n- OLD trip\n+ RIDE(car, trip)\n- RIDE@agent car\n",
         lexicon={})
@example(command="ingest", corpus="+ OLD trip\n+ old trip\n", lexicon={})
@example(command="nominalize", corpus="+ OLD trip\n+ NEW car\n- HEAVY car\n", lexicon={})
@example(command="nominalize", corpus="+ OLD book#1\n", lexicon={"OLD": {"trope": "oldness", "cat": "event"}})
@example(command="nominalize", corpus="+ OLD book#1\n+ RIDE(book#2, car)\n# ok\n",
         lexicon={"OLD": {"trope": "oldness", "cat": "state"}})
def test_cli_equals_the_reference_run(tmp_path, monkeypatch, command, corpus, lexicon) -> None:
    monkeypatch.chdir(tmp_path)  # no workspace config
    files = {str(tmp_path / "corpus.sense"): corpus, str(tmp_path / "lexicon.json"): json.dumps(lexicon)}
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    argv = [command, str(tmp_path / "corpus.sense")]
    if command == "nominalize":
        argv += ["--lexicon", str(tmp_path / "lexicon.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (out.getvalue(), err.getvalue().splitlines(), code) == reference_run(argv, files)
