"""Conceptual density scoring of candidate concepts for a noun window.

A candidate concept is any ancestor of any sense still alive in the
window.  Its density compares the expected area of a subhierarchy holding
``m`` marks (senses of window words) against the subhierarchy's actual
size:

    cd = sum(nhyp ** (i ** e) for i in 0..m-1) / descendants

where ``e`` is a smoothing exponent (0.20 unless reconfigured) and nhyp is
either the concept's own mean branching factor or one global estimate for
the whole hierarchy.

The candidates and their coverage live on the window's ``Lattice``.  The
first ``score_candidates`` call builds the coverage map (concept ->
occurrence -> covered senses) in one pass over the ancestor sets of the
remaining senses.  ``Lattice.freeze`` keeps it current: the next call
that reads the map subtracts only the senses each frozen word lost,
walking only their ancestor sets, and marks every concept over the word's
old senses for rescoring, since only those can change coverage,
resolvability or marks.  That call scores again just those concepts and
reuses every other ``DensityScore``; a qualifying call with no open word
left returns at once, since nothing can qualify.  Each word is frozen at
most once, so each sense's ancestors are walked at most twice per window.
Freezes wait in a queue for that call: when a window's last freezes close
its last open word, the call returns first and their walks are skipped
(seed-1 benchmark inputs: 2,539 of 9,150 on sweep-short, 104 of 4,814 on
evaluate-w31; updating the map at once was slower on sweep-short).
Changing ``remaining`` or ``frozen`` by hand after the first score is
unsupported: the map would no longer match them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .taxonomy import SubhierarchyMetrics, Taxonomy


class ConfigError(ValueError):
    """A parameter or training input the run cannot be configured with."""


class NhypMode(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass(frozen=True)
class DensityParams:
    """Knobs for the density computation."""

    smoothing_exponent: float = 0.20
    nhyp_mode: NhypMode = NhypMode.GLOBAL

    def __post_init__(self):
        if not self.smoothing_exponent > 0:
            raise ConfigError("smoothing_exponent must be > 0")
        if math.isinf(self.smoothing_exponent):
            raise ConfigError("smoothing_exponent must be finite")


@dataclass(frozen=True)
class DensityScore:
    """Density of one candidate concept over the current window state.

    ``covered`` maps window occurrence index -> the subset of that
    occurrence's remaining senses lying under the concept.  ``marks`` counts
    (lemma, sense) pairs under the concept when lemma-deduplication is on,
    else (occurrence, sense) pairs; either way every covered word
    contributes at least one mark.  ``resolvable`` says selecting this
    concept would strictly narrow at least one still-open occurrence.
    """

    concept: str
    cd: float
    marks: int
    covered: Mapping[int, frozenset[str]]
    resolvable: bool

    @property
    def covered_words(self) -> frozenset[int]:
        return frozenset(i for i, senses in self.covered.items() if senses)


@lru_cache(maxsize=1 << 16)
def _smoothed_numerator(nhyp: float, exponent: float, m: int) -> float:
    total = 0.0
    for i in range(m):
        if i == 0:
            total += 1.0
            continue
        try:
            total += nhyp ** (i**exponent)
        except OverflowError:
            # astronomically many marks under an extreme exponent; saturate,
            # ranking semantics survive
            return math.inf
    return total


def conceptual_density(
    metrics: SubhierarchyMetrics,
    m: int,
    params: DensityParams,
    global_nhyp: float = 0.0,
) -> float:
    """Evaluate the density formula for a concept holding ``m`` marks.

    The i=0 term is nhyp**0 == 1 even when nhyp is 0, so cd(c, 1) is always
    1/descendants; m == 0 yields 0 (empty sum).  Numerators are cached per
    (nhyp, exponent, m): under a global nhyp the whole run shares one
    numerator sequence.
    """
    if m < 0:
        raise ValueError("marks must be non-negative")
    nhyp = metrics.local_nhyp if params.nhyp_mode is NhypMode.LOCAL else global_nhyp
    return _smoothed_numerator(nhyp, params.smoothing_exponent, m) / metrics.descendants


@dataclass
class Lattice:
    """Mutable per-window working state for the disambiguation loop.

    The first ``score_candidates`` call builds the coverage map (concept ->
    occurrence -> covered senses) from ``remaining``; after that ``freeze``
    is the only supported way to narrow a word, because it keeps the map
    current.  Changing ``remaining`` or ``frozen`` by hand after the first
    score leaves the map stale.
    """

    lemmas: tuple[str, ...]
    remaining: list[set[str]]
    frozen: list[bool]
    # the coverage map and the taxonomy it was built over
    _taxonomy: Taxonomy | None = field(default=None, init=False, repr=False, compare=False)
    _covered: dict[str, dict[int, set[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # score_candidates' cache: the arguments it was filled for, the sort key
    # and score of every listed concept, and the concepts to score again
    _scored_for: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _scored: dict[str, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)
    _dirty: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    # (occurrence, old senses, kept senses) of freezes not yet taken out of the map
    _pending: list[tuple[int, set[str], set[str]]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def for_window(cls, t: Taxonomy, lemmas: Sequence[str]) -> "Lattice":
        remaining = [set(t.known_senses(lemma)) for lemma in lemmas]
        return cls(lemmas=tuple(lemmas), remaining=remaining,
                   frozen=[False] * len(remaining))

    def open_indices(self) -> list[int]:
        """Occurrences that are neither frozen nor down to one sense."""
        return [
            i
            for i in range(len(self.lemmas))
            if not self.frozen[i] and len(self.remaining[i]) >= 2
        ]

    def _coverage(self, t: Taxonomy) -> dict[str, dict[int, set[str]]]:
        """Concept -> occurrence -> remaining senses under the concept.

        Built on first use; after that, each pending freeze takes out the
        senses its word lost and marks the concepts over its old senses.
        """
        if self._taxonomy is not t:
            self._pending.clear()
            ancestors_of = t.ancestors_of
            covered: dict[str, dict[int, set[str]]] = {}
            for idx, senses in enumerate(self.remaining):
                for s in senses:
                    for anc in ancestors_of(s):
                        by_word = covered.get(anc)
                        if by_word is None:
                            covered[anc] = {idx: {s}}
                        elif idx in by_word:
                            by_word[idx].add(s)
                        else:
                            by_word[idx] = {s}
            self._taxonomy, self._covered, self._scored_for = t, covered, None
        ancestors_of, covered = t.ancestors_of, self._covered
        for idx, old, keep in self._pending:
            over_lost = set().union(*map(ancestors_of, old - keep))
            for anc in over_lost:
                by_word = covered[anc]
                left = by_word[idx] & keep
                if left:
                    by_word[idx] = left
                elif len(by_word) > 1:
                    del by_word[idx]
                else:
                    del covered[anc]
            self._dirty.update(over_lost, *map(ancestors_of, keep))
        self._pending.clear()
        return covered

    def freeze(self, idx: int, senses: Iterable[str]) -> None:
        """Keep only ``senses`` for occurrence ``idx`` and freeze it.

        Once the coverage map exists, the next ``score_candidates`` call
        that needs it takes the lost senses out (``_coverage``).  A word is
        frozen at most once, so each sense's ancestors are walked at most
        twice per window: once by the build and once for its freeze.
        """
        if self.frozen[idx]:
            raise ValueError(f"occurrence {idx} is already frozen")
        old, keep = self.remaining[idx], set(senses)
        if not keep or not keep <= old:
            raise ValueError(f"occurrence {idx} must keep a non-empty subset of its senses")
        self.remaining[idx] = keep
        self.frozen[idx] = True
        if self._taxonomy is not None:
            self._pending.append((idx, old, keep))


def score_candidates(
    t: Taxonomy,
    lattice: Lattice,
    params: DensityParams,
    dedup_by_lemma: bool = True,
    *,
    qualifying: bool = False,
) -> list[DensityScore]:
    """Score the candidate concepts of the lattice, best first.

    Candidates are the concepts of the lattice's coverage map: the union
    of ancestors of all remaining senses.  Ordering: cd descending, then
    fewer descendants (tighter subhierarchy), then ascending id.

    With ``qualifying`` set, only the concepts the elimination loop may
    select are scored: those that cover at least two occurrences, strictly
    narrow a still-open one and cover senses of at least two distinct
    lemmas.  The rule is tested on raw coverage, cheapest test first, before
    any metric or density is computed, so the result is the full list
    filtered by that rule, in the same order.

    Scores are kept on the lattice.  A repeated call with the same
    arguments scores again only the concepts over the words frozen since
    the last call; a ``DensityScore`` is immutable, so every other concept
    keeps its last one.  With ``qualifying`` set and no open occurrence
    left, nothing can qualify and the call returns at once.
    """
    if not lattice.lemmas:
        raise ValueError("empty lattice")

    # sense count of every open occurrence; a concept narrows one when it
    # covers fewer of its senses (closed occurrences are not listed)
    open_size = {i: len(lattice.remaining[i]) for i in lattice.open_indices()}
    if qualifying and not open_size:
        return []
    lemmas = lattice.lemmas
    covered = lattice._coverage(t)
    key = (params, dedup_by_lemma, qualifying)
    if lattice._scored_for == key:
        dirty = lattice._dirty
        scored = {c: entry for c, entry in lattice._scored.items() if c not in dirty}
        todo = [(c, covered[c]) for c in dirty if c in covered]
    else:
        scored, todo = {}, covered.items()
    lattice._scored_for, lattice._scored, lattice._dirty = key, scored, set()

    global_value = (
        t.global_nhyp() if params.nhyp_mode is NhypMode.GLOBAL else 0.0
    )
    for concept, cov in todo:
        if qualifying and len(cov) < 2:
            continue
        resolvable = any(i in cov and len(cov[i]) < n for i, n in open_size.items())
        if qualifying and not (resolvable and len({lemmas[i] for i in cov}) >= 2):
            continue
        if dedup_by_lemma:
            m = len({(lemmas[i], s) for i, ss in cov.items() for s in ss})
        else:
            m = sum(map(len, cov.values()))
        metrics = t.subhierarchy_metrics(concept)
        score = DensityScore(
            concept=concept,
            cd=conceptual_density(metrics, m, params, global_value),
            marks=m,
            covered={i: frozenset(ss) for i, ss in cov.items()},
            resolvable=resolvable,
        )
        scored[concept] = (-score.cd, metrics.descendants, concept, score)
    return [entry[3] for entry in sorted(scored.values())]
