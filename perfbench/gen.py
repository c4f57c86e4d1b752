"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and fixed size parameters and
returns plain Python data plus the text the program will read.  Sizes are
exact (not random) so that the work per operation barely depends on the
seed: the seed only decides *which* concepts, tokens and pairs appear.

Nothing here imports sensekit; the expected values the checks compare
against are computed from the generator's own bookkeeping.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

SENSIBLE = "sensible"
NONSENSICAL = "nonsensical"
DEFAULT_DIMS = ("hasProp", "agentOf", "objectOf", "inState", "partOf")
ELICIT_DIMS = ("hasProp", "agentOf", "objectOf")
UNUSABLE_TOKENS = ("o'clock", "3d", "9lives", "rock'n'roll")


def _letters(i: int, width: int) -> str:
    out = []
    for _ in range(width):
        i, r = divmod(i, 26)
        out.append(string.ascii_uppercase[r])
    return "".join(reversed(out))


def concept_names(rng: random.Random, n: int, suffixed_share: float) -> list[str]:
    """n distinct concept ids; a share of them are '#k' senses of one base."""
    n_suffixed = int(n * suffixed_share)
    names = [f"n{i:05d}" for i in range(n - n_suffixed)]
    bases = rng.sample(names, n_suffixed // 2) if n_suffixed else []
    for base in bases:
        names.append(f"{base}#1")
        names.append(f"{base}#2")
    for i in range(n - len(names)):
        names.append(f"z{i:05d}#3")
    rng.shuffle(names)
    return names


@dataclass
class Corpus:
    text: str
    #: (property token, concept, polarity) for every fact the text states.
    facts: set[tuple[str, str, str]]
    unary: list[str]
    relations: list[str]
    #: relation name -> trope for the relations the lexicon covers.
    lexicon: dict[str, dict[str, str]]
    lines: int

    def extent(self, token: str) -> frozenset[str]:
        return frozenset(c for t, c, p in self.facts if t == token and p == SENSIBLE)


def _lexicon(rng: random.Random, unary: list[str], relations: list[str]) -> dict:
    lex = {}
    for name in unary:
        cat = "state" if rng.random() < 0.25 else "property"
        lex[name] = {"trope": name.lower() + "ness", "cat": cat}
    # Half the relations get a trope; the rest fall back to the gerund rule.
    for name in relations[: len(relations) // 2]:
        lex[name] = {"trope": name.lower() + "-act", "cat": "activity"}
    return lex


def _render(rng: random.Random, lines: list[str], n_comments: int,
            n_blank: int, n_dups: int, trailing_share: float) -> tuple[str, int]:
    """Keep fact lines in order; scatter comments, blanks and exact repeats.

    Facts stay grouped by property, the way a corpus is usually written, so
    the parsed assertions sit in memory roughly in their canonical order.
    """
    lines = [
        f"{line}   # note {i}" if rng.random() < trailing_share else line
        for i, line in enumerate(lines)
    ]
    extras = [lines[rng.randrange(len(lines))] for _ in range(n_dups)]
    extras += [f"# comment {i}: generated" for i in range(n_comments)]
    extras += [""] * n_blank
    keyed = [(float(i), line) for i, line in enumerate(lines)]
    keyed += [(rng.uniform(0, len(lines)), line) for line in extras]
    keyed.sort(key=lambda kv: kv[0])
    return "\n".join(line for _, line in keyed) + "\n", len(keyed)


def make_corpus(
    rng: random.Random,
    *,
    concepts: int,
    extents: list[list[int]] | None = None,
    unary: int = 0,
    unary_share: tuple[float, float] = (0.15, 0.6),
    relations: int = 0,
    binary_facts: int = 0,
    negatives: int = 0,
    comments: int = 0,
    blank: int = 0,
    dups: int = 0,
    suffixed_share: float = 0.1,
) -> Corpus:
    """A consistent corpus: no (property, concept) pair gets both polarities.

    With ``extents`` given (lists of concept *indices* into the generated
    names), unary property i covers exactly extents[i]; otherwise property i
    covers a random subset whose size steps evenly through unary_share.
    Each unary property also gets an equal share of the ``negatives``
    ("- PROP concept" lines for concepts outside its extent).
    """
    names = concept_names(rng, concepts, suffixed_share)
    n_unary = len(extents) if extents is not None else unary
    width = 3 if n_unary > 26 * 26 else 2
    unary_names = [f"U{_letters(i, width)}" for i in range(n_unary)]
    rel_names = [f"R{_letters(i, 2)}Y" for i in range(relations)]

    facts: set[tuple[str, str, str]] = set()
    lines: list[str] = []
    per_prop = negatives // max(1, n_unary)
    for i, prop in enumerate(unary_names):
        if extents is not None:
            members = [names[k] for k in extents[i]]
        else:
            lo, hi = unary_share
            share = lo + (hi - lo) * i / max(1, n_unary - 1)
            members = rng.sample(names, max(1, int(concepts * share)))
        inside = set(members)
        outside = [c for c in names if c not in inside]
        block = [f"+ {prop} {c}" for c in members]
        nonmembers = rng.sample(outside, min(per_prop, len(outside)))
        block += [f"- {prop} {c}" for c in nonmembers]
        rng.shuffle(block)
        lines += block
        facts.update((prop, c, SENSIBLE) for c in members)
        facts.update((prop, c, NONSENSICAL) for c in nonmembers)

    pool = rng.sample(names, max(2, concepts // 3))
    agents, objects = pool[: len(pool) // 2], pool[len(pool) // 2:]
    for _ in range(binary_facts):
        rel = rng.choice(rel_names)
        a, b = rng.choice(agents), rng.choice(objects)
        facts.add((f"{rel}@agent", a, SENSIBLE))
        facts.add((f"{rel}@object", b, SENSIBLE))
        lines.append(f"+ {rel}({a}, {b})")

    text, n_lines = _render(rng, lines, comments, blank, dups, 0.05)
    return Corpus(
        text=text,
        facts=facts,
        unary=unary_names,
        relations=rel_names,
        lexicon=_lexicon(rng, unary_names, rel_names),
        lines=n_lines,
    )


def interval_extents(
    rng: random.Random, concepts: int, base: int, near_dups: int,
    min_len: int, max_len: int,
) -> list[list[int]]:
    """Seeded random intervals plus near-duplicates of some of them.

    Interval lengths step evenly from min_len to max_len, so the total size
    is the same for every seed; only the start positions move.  A
    near-duplicate drops about 5 % of its base interval's members, so it is
    a distinct extent at tau=0 and merges with its base at tau=0.1.
    """
    lengths = [min_len + (max_len - min_len) * i // max(1, base - 1) for i in range(base)]
    rng.shuffle(lengths)
    out = []
    for length in lengths:
        start = rng.randrange(concepts - length + 1)
        out.append(list(range(start, start + length)))
    # Near-duplicates copy the intervals at evenly spaced length ranks, so
    # the tau=0.1 merge loop finds its merges at similar places every seed.
    by_length = sorted(range(base), key=lambda k: lengths[k])
    step = base // max(1, near_dups)
    for src in by_length[step // 2::step][:near_dups]:
        members = out[src]
        drop = max(1, round(len(members) * 0.05))
        gone = set(rng.sample(members, drop))
        out.append([k for k in members if k not in gone])
    return out


# --- meaning store and mock fixture --------------------------------------------

def zipf_vocab(size: int, s: float = 1.07) -> tuple[list[str], list[float]]:
    vocab = [f"t{i:05d}" for i in range(size)]
    cum = list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, size + 1)))
    return vocab, cum


def _distinct_draws(rng: random.Random, vocab, cum, k: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < k:
        for token in rng.choices(vocab, cum_weights=cum, k=2 * (k - len(seen))):
            seen.setdefault(token, None)
            if len(seen) == k:
                break
    return list(seen)


def make_store(
    rng: random.Random, *, records: int, tokens: tuple[int, int], vocab: int,
    sparse_share: float = 0.1,
) -> list[dict]:
    """Meaning records as store JSON objects (sense, gloss, dims).

    Each record has every default dimension except, for a share of records,
    one dropped dimension, so some joins are empty by construction.  The
    dimension sizes step evenly through ``tokens`` and are dealt out at
    random, so the store's total size is the same for every seed.
    """
    words, cum = zipf_vocab(vocab)
    lo, hi = tokens
    slots = records * len(DEFAULT_DIMS)
    sizes = [lo + (hi - lo) * k // max(1, slots - 1) for k in range(slots)]
    rng.shuffle(sizes)
    sparse = set(rng.sample(range(records), int(records * sparse_share)))
    out = []
    for i in range(records):
        dims = {}
        dropped = rng.choice(DEFAULT_DIMS) if i in sparse else None
        for d, dim in enumerate(DEFAULT_DIMS):
            if dim == dropped:
                continue
            chosen = _distinct_draws(rng, words, cum, sizes[i * len(DEFAULT_DIMS) + d])
            pairs = [[rng.randint(1, 1000) / 1000, t] for t in chosen]
            pairs.sort(key=lambda p: (-p[0], p[1]))
            dims[dim] = pairs
        out.append({"sense": f"m{i:05d}", "gloss": f"record {i}", "dims": dims})
    return out


def make_fixture(
    rng: random.Random, *, subjects: int, per_dim: int, vocab: int,
) -> tuple[dict, str]:
    """Mock completion fixture: subject -> dimension -> ranked tokens.

    Lists contain repeats (deduplicated by the program) and a few tokens that
    are not usable property names.  Exactly one subject lacks the objectOf
    dimension, so eliciting it takes the provider-failure path.  Returns the
    fixture and the name of that subject.
    """
    words, cum = zipf_vocab(vocab)
    fixture: dict[str, dict[str, list[str]]] = {}
    names = [f"s{i:04d}" for i in range(subjects)]
    for name in names:
        fixture[name] = {}
        for dim in ELICIT_DIMS:
            tokens = rng.choices(words, cum_weights=cum, k=per_dim)
            if rng.random() < 0.3:
                tokens[rng.randrange(per_dim)] = rng.choice(UNUSABLE_TOKENS)
            fixture[name][dim] = tokens
    lacking = rng.choice(names)
    del fixture[lacking]["objectOf"]
    return fixture, lacking


def sim_pairs(rng: random.Random, senses: list[str], n: int) -> list[tuple[str, str, dict | None]]:
    """n seeded (a, b, weights) triples; every other one uses custom weights."""
    out = []
    for i in range(n):
        a, b = rng.sample(senses, 2)
        weights = None
        if i % 2:
            weights = {dim: rng.choice((0.0, 0.5, 1.0, 2.0, 3.0)) for dim in DEFAULT_DIMS}
            weights[rng.choice(DEFAULT_DIMS)] = rng.choice((1.0, 2.0))
        out.append((a, b, weights))
    return out
