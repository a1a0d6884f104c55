"""Comparison systems: random, most-frequent, category salience, distance.

All four produce the same Assignment records the density disambiguator
emits, so one output writer and one scorer serve every system.  The
salience system answers at lexicographer-file granularity only; its
assignments carry a category instead of a synset.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import add
from typing import Iterator, Sequence

from .corpus import ExtractedNouns, SenseKey
from .density import ConfigError
from .disambiguator import Assignment, Method, NounOccurrence, Outcome, build_window
from .evaluation import Level, Population
from .taxonomy import Taxonomy


# -- random guessing ---------------------------------------------------------


def random_baseline(
    nouns: Sequence[NounOccurrence], t: Taxonomy, seed: int = 0
) -> list[Assignment]:
    """Pick a uniformly random sense for every noun, in document order."""
    rng = random.Random(seed)
    out = []
    for occ in nouns:
        out.append(
            Assignment(
                occurrence=occ,
                outcome=Outcome.FULL,
                senses=(rng.choice(t.known_senses(occ.lemma)),),
                method=Method.RANDOM,
            )
        )
    return out


def analytic_random_expectation(
    t: Taxonomy,
    nouns: Sequence[NounOccurrence],
    gold: Sequence[SenseKey | None],
) -> dict[tuple[Level, Population], float | None]:
    """Expected precision of uniform guessing, per level and population.

    Sense level: mean of 1/polysemy.  File level: mean of the fraction of
    the lemma's senses sharing the gold lexicographer file.  The mean runs
    over occurrences whose gold key resolves in the taxonomy (the same
    population the scorer counts); unresolvable keys fall outside it.
    """
    if len(nouns) != len(gold):
        raise ValueError("nouns and gold have different lengths")
    rows = []
    for occ, key in zip(nouns, gold):
        if key is None:
            continue
        if t.resolve_sense_key(occ.lemma, key.lexfile, key.lex_id) is None:
            continue
        senses = t.senses_of(occ.lemma)
        same_file = sum(1 for s in senses if t.lexfile_of(s) == key.lexfile)
        rows.append((len(senses), same_file))
    if not rows:
        raise ValueError("no resolvable gold keys in the input")

    def mean(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    result: dict[tuple[Level, Population], float | None] = {}
    for population in Population:
        subset = [r for r in rows if population is Population.ALL or r[0] > 1]
        result[(Level.SENSE, population)] = mean([1.0 / p for p, _ in subset])
        result[(Level.FILE, population)] = mean([f / p for p, f in subset])
    return result


# -- most frequent sense -----------------------------------------------------


@dataclass
class FrequencyTable:
    """Gold sense counts per (lemma, synset id) from a training corpus."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def best_sense(self, t: Taxonomy, lemma: str) -> str | None:
        """Most counted sense of ``lemma``; ties go to the ascending id."""
        candidates = [
            (-self.counts[(lemma, s)], s)
            for s in t.senses_of(lemma)
            if (lemma, s) in self.counts
        ]
        if not candidates:
            return None
        return min(candidates)[1]


def _require_tagged(train: Sequence[ExtractedNouns]) -> None:
    """ConfigError unless some training noun carries a gold tag."""
    if all(key is None for doc in train for key in doc.gold):
        raise ConfigError("training corpus has no gold-tagged nouns")


def build_frequency(t: Taxonomy, train: Sequence[ExtractedNouns]) -> FrequencyTable:
    """Count the resolvable gold senses; ConfigError if no noun is gold-tagged."""
    _require_tagged(train)
    table = FrequencyTable()
    for doc in train:
        for occ, key in zip(doc.occurrences, doc.gold):
            if key is None:
                continue
            synset = t.resolve_sense_key(occ.lemma, key.lexfile, key.lex_id)
            if synset is None:
                continue
            pair = (occ.lemma, synset)
            table.counts[pair] = table.counts.get(pair, 0) + 1
    return table


def most_frequent_baseline(
    nouns: Sequence[NounOccurrence], t: Taxonomy, freq: FrequencyTable
) -> list[Assignment]:
    """Answer with the training-most-frequent sense; no counts, no answer."""
    out = []
    for occ in nouns:
        best = freq.best_sense(t, occ.lemma)
        if best is None:
            out.append(
                Assignment(occ, Outcome.NONE, (), Method.MOST_FREQUENT)
            )
        else:
            out.append(
                Assignment(occ, Outcome.FULL, (best,), Method.MOST_FREQUENT)
            )
    return out


# -- category salience -------------------------------------------------------


def _context(
    nouns: Sequence[NounOccurrence], i: int, window_size: int
) -> Iterator[str]:
    """Lemmas of the other nouns in the window around ``nouns[i]``.

    Training and answering both read this, so they see the same context.
    """
    window = build_window(nouns, i, window_size)
    for j, member in enumerate(window.members):
        if j != window.target:
            yield member.lemma


@dataclass
class SalienceTable:
    """Association ratios between context lemmas and lexicographer files."""

    salience: dict[tuple[str, str], float] = field(default_factory=dict)


def build_salience(
    train: Sequence[ExtractedNouns], t: Taxonomy, window_size: int = 51
) -> SalienceTable:
    """Train salience(w, cat) = P(w|cat) * log2(P(w|cat) / P(w)).

    Co-occurrence counts pair each gold-tagged target's category with every
    other noun token in its window.  P(w|cat) carries add-one smoothing
    over the context vocabulary, so every (seen word, seen category) cell
    gets a finite value; P(w) is unsmoothed (w was seen).  ConfigError if
    no noun is gold-tagged.
    """
    _require_tagged(train)
    pair_counts: Counter[tuple[str, str]] = Counter()
    word_counts: Counter[str] = Counter()
    cat_counts: Counter[str] = Counter()
    target_cats: set[str] = set()
    for doc in train:
        nouns = doc.occurrences
        for i, key in enumerate(doc.gold):
            if key is None:
                continue
            cat = key.lexfile
            target_cats.add(cat)
            for lemma in _context(nouns, i, window_size):
                pair_counts[(lemma, cat)] += 1
                word_counts[lemma] += 1
                cat_counts[cat] += 1

    table = SalienceTable()
    vocab = sorted(word_counts)
    total = sum(word_counts.values())
    if total == 0:
        return table
    for w in vocab:
        p_w = word_counts[w] / total
        for cat in target_cats:
            p_w_cat = (pair_counts[(w, cat)] + 1) / (cat_counts[cat] + len(vocab))
            table.salience[(w, cat)] = p_w_cat * math.log2(p_w_cat / p_w)
    return table


def yarowsky_baseline(
    t: Taxonomy,
    nouns: Sequence[NounOccurrence],
    table: SalienceTable,
    window_size: int = 51,
) -> list[Assignment]:
    """File-level answers: best salience-sum category among the senses' files.

    Always answers; ties and context-free targets fall to the ascending
    category name.  The answer is a category, so these assignments score at
    file level only.
    """
    out = []
    for i, occ in enumerate(nouns):
        candidates = sorted({t.lexfile_of(s) for s in t.known_senses(occ.lemma)})
        scores = {cat: 0.0 for cat in candidates}
        for lemma in _context(nouns, i, window_size):
            for cat in candidates:
                scores[cat] += table.salience.get((lemma, cat), 0.0)
        best = min(candidates, key=lambda cat: (-scores[cat], cat))
        out.append(
            Assignment(
                occurrence=occ,
                outcome=Outcome.FULL,
                senses=(),
                method=Method.YAROWSKY,
                category=best,
            )
        )
    return out


# -- conceptual distance -----------------------------------------------------


def mutual_constraint_assignment(
    t: Taxonomy,
    lemmas: Sequence[str],
    rng: random.Random,
) -> tuple[str, ...]:
    """Jointly pick one sense per lemma minimising the pairwise distance sum.

    Branch-and-bound over the sense combinations in lexicographic order.  A
    partial choice is pruned when its cost plus a lower bound on the rest
    exceeds the best complete cost so far.  The bound adds, for each later
    pool, its cheapest sense against the senses chosen so far (summed per
    pool as the search goes down), and for each pair of later pools, their
    closest pair of senses.  Every term is at most what any completion
    pays, and pruning is strict, so every minimising combination is kept,
    in lexicographic sense order, and one is drawn from ``rng`` (a single
    draw even without a tie).  A window whose combinations all tie still
    enumerates every one of them.
    """
    pools = [t.known_senses(lemma) for lemma in lemmas]
    if not pools:
        return ()

    # One search per distinct sense of every pool but the last, towards every
    # pool sense: the bound and the costs read rows of earlier pools' senses only.
    pool_senses = {s for pool in pools for s in pool}
    sources = {s for pool in pools[:-1] for s in pool}
    rows = {s: t.distances(s, pool_senses) for s in sorted(sources)}
    cap = len(t)  # disconnected pairs contribute the node count
    n = len(pools)
    # gaps[i][x][k]: distances from the x-th sense of pool i to each sense of
    # pool i + 1 + k.
    gaps = [
        [[[row.get(b, cap) for b in pool] for pool in pools[i + 1:]] for row in map(rows.get, pools[i])]
        for i in range(n)
    ]
    # tail[i]: the closest pair of senses of each pair of pools from i on, summed.
    tail = [0] * (n + 1)
    for i in reversed(range(n)):
        tail[i] = tail[i + 1] + sum(
            min(min(to[k]) for to in gaps[i]) for k in range(n - 1 - i)
        )

    best = math.inf
    optima: list[tuple[str, ...]] = []
    chosen: list[str] = []

    def extend(i: int, partial: int, costs: list[list[int]]) -> None:
        # costs[k][x]: summed distance from the chosen senses to the x-th
        # sense of pool i + k.
        nonlocal best, optima
        if i == n:
            if partial < best:
                best = partial
                optima = [tuple(chosen)]
            elif partial == best:
                optima.append(tuple(chosen))
            return
        # The bound for any sense of pool i before its own distances are
        # added: each later pool pays at least its closest pair with pool i.
        floor = partial + tail[i] + sum(map(min, costs[1:]))
        for sense, cost, to in zip(pools[i], costs[0], gaps[i]):
            if floor + cost > best:
                continue
            cost += partial
            later = [list(map(add, have, step)) for have, step in zip(costs[1:], to)]
            if cost + tail[i + 1] + sum(map(min, later)) > best:
                continue
            chosen.append(sense)
            extend(i + 1, cost, later)
            chosen.pop()

    extend(0, 0, [[0] * len(pool) for pool in pools])
    return rng.choice(optima)


def sussna_baseline(
    nouns: Sequence[NounOccurrence],
    t: Taxonomy,
    window_size: int = 41,
    mutual_size: int = 10,
    seed: int = 0,
) -> list[Assignment]:
    """Distance-minimising disambiguation with an initial mutual constraint.

    The first min(mutual_size, n) nouns are assigned jointly by exhaustive
    minimisation of their summed pairwise distances; every later noun takes
    the sense closest (summed distance) to the frozen senses of the
    preceding min(window_size - 1, available) nouns.  Ties are drawn
    uniformly from the seeded generator.  Disconnected pairs contribute a
    flat penalty of the taxonomy size so connected evidence dominates.

    Distances are symmetric, so each frozen context sense is searched once,
    towards the senses of every later polysemous noun that will see it, and
    candidates cost lookups into those rows.  A row is searched only when
    first needed and dropped once its position leaves the window.
    """
    rng = random.Random(seed)
    n = len(nouns)
    k = min(mutual_size, n)
    pools = [t.known_senses(occ.lemma) for occ in nouns]
    chosen: list[str] = []
    if k:
        chosen.extend(mutual_constraint_assignment(t, [o.lemma for o in nouns[:k]], rng))
    cap = len(t)  # disconnected pairs contribute the node count
    rows: dict[int, dict[str, int]] = {}  # context position -> distances
    for i in range(k, n):
        rows.pop(i - window_size, None)  # the position that just left the window
        if len(pools[i]) == 1:
            chosen.append(rng.choice(pools[i]))  # draws as a one-way tie would
            continue
        start = max(0, i - (window_size - 1))
        for j in range(start, i):
            if j not in rows:
                seen_by = range(max(j + 1, k), min(n, j + window_size))
                targets = {s for m in seen_by if len(pools[m]) > 1 for s in pools[m]}
                rows[j] = t.distances(chosen[j], targets)
        best_cost = math.inf
        ties: list[str] = []
        for s in pools[i]:
            cost = sum(rows[j].get(s, cap) for j in range(start, i))
            if cost < best_cost:
                best_cost, ties = cost, [s]
            elif cost == best_cost:
                ties.append(s)
        chosen.append(rng.choice(ties))
    return [
        Assignment(occ, Outcome.FULL, (sense,), Method.SUSSNA)
        for occ, sense in zip(nouns, chosen)
    ]
