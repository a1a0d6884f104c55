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
walking only their ancestor sets, and collects every concept over the
word's old senses, since only those can change coverage, resolvability or
marks.  The lattice keeps each scored concept's sort key (-cd,
descendants, id) with its marks and resolvability, so that call scores
again just the touched concepts.  A qualifying call, the elimination
loop's, returns only the winner: it takes the least key and builds a
single ``DensityScore``, or returns at once when no open word is left,
since nothing can qualify.  Each word is frozen at most once, so each
sense's ancestors are walked at most twice per window.  Freezes wait in
a queue for that call: when a window's last freezes close its last open
word, the call returns first and their walks are skipped (seed-1
benchmark inputs, global nhyp: 781 of 2,215 freezes on sweep-short, 54
of 1,038 on evaluate-w31; updating the map at once was slower on
sweep-short).  Changing ``remaining`` or ``frozen`` by hand after the
first score is unsupported: the map would no longer match them.  The map
is never rebuilt, so a lattice is scored only against the taxonomy it was
built for.
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

    ``covered`` maps window occurrence index -> the non-empty subset of
    that occurrence's remaining senses lying under the concept.  ``marks`` counts
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


@lru_cache(maxsize=1 << 16)
def _smoothed_numerator(nhyp: float, exponent: float, m: int) -> float:
    total = 1.0 if m else 0.0
    for i in range(1, m):
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
    score leaves the map stale, and the map is never rebuilt, so a lattice
    is scored only against the taxonomy it was built for.
    """

    lemmas: tuple[str, ...]
    remaining: list[set[str]]
    frozen: list[bool]
    # the coverage map, None until the first score
    _covered: dict[str, dict[int, set[str]]] | None = field(
        default=None, init=False, repr=False, compare=False)
    # score_candidates' cache: the arguments it was filled for, and the sort
    # key (-cd, descendants, id), marks and resolvability of every scored
    # concept, and for the full list its score
    _scored_for: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _scored: dict[str, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)
    # (occurrence, old senses, kept senses) of freezes not yet taken out of the map
    _pending: list[tuple[int, set[str], set[str]]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def for_window(cls, t: Taxonomy, lemmas: Sequence[str]) -> "Lattice":
        remaining = [set(t.known_senses(lemma)) for lemma in lemmas]
        return cls(lemmas=tuple(lemmas), remaining=remaining,
                   frozen=[False] * len(remaining))

    def _coverage(self, t: Taxonomy) -> tuple[dict[str, dict[int, set[str]]], set[str]]:
        """Concept -> occurrence -> remaining senses under the concept, and
        the concepts the pending freezes touched.

        Built on first use; after that, each pending freeze takes out the
        senses its word lost and touches every concept over its old senses.
        """
        ancestors_of, covered = t.ancestors_of, self._covered
        if covered is None:
            covered = self._covered = {}
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
        touched: set[str] = set()
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
            touched.update(over_lost, *map(ancestors_of, keep))
        self._pending.clear()
        return covered, touched

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
        if self._covered is not None:
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
    any metric or density is computed.  The call returns the best of them
    alone, ``[best]``, or ``[]`` if none qualifies: the first entry of the
    full list filtered by that rule.

    Sort keys are kept on the lattice.  A repeated call with the same
    arguments scores again only the concepts over the words frozen since
    the last call; every other concept keeps its last key and, in the full
    list, its last ``DensityScore``, which is immutable.  With
    ``qualifying`` set and no open occurrence left, nothing can qualify and
    the call returns at once.
    """
    if not lattice.lemmas:
        raise ValueError("empty lattice")

    # sense count of every open occurrence (neither frozen nor down to one
    # sense); a concept narrows one when it covers fewer of its senses
    lemmas, frozen = lattice.lemmas, lattice.frozen
    open_size = {i: len(senses) for i, senses in enumerate(lattice.remaining)
                 if not frozen[i] and len(senses) >= 2}
    if qualifying and not open_size:
        return []
    covered, touched = lattice._coverage(t)
    key = (params, dedup_by_lemma, qualifying)
    if lattice._scored_for == key:
        scored = lattice._scored
        for c in touched:
            scored.pop(c, None)
        todo = [(c, covered[c]) for c in touched if c in covered]
    else:
        scored, todo = {}, covered.items()
        lattice._scored_for, lattice._scored = key, scored

    global_value = (
        t.global_nhyp() if params.nhyp_mode is NhypMode.GLOBAL else 0.0
    )
    for concept, cov in todo:
        if qualifying and len(cov) < 2:
            continue
        # walk the open words, not the coverage: under meronym cycles a
        # concept covers most of the window
        resolvable = any(i in cov and len(cov[i]) < n for i, n in open_size.items())
        if qualifying and not (resolvable and len({lemmas[i] for i in cov}) >= 2):
            continue
        if dedup_by_lemma:
            m = len({(lemmas[i], s) for i, ss in cov.items() for s in ss})
        else:
            m = sum(map(len, cov.values()))
        metrics = t.subhierarchy_metrics(concept)
        entry = (-conceptual_density(metrics, m, params, global_value),
                 metrics.descendants, concept, m, resolvable)
        # the full list keeps every score it builds; the loop builds only
        # its winner's
        scored[concept] = entry if qualifying else (*entry, _density_score(entry, cov))
    if not qualifying:
        return [entry[5] for entry in sorted(scored.values())]
    if not scored:
        return []
    best = min(scored.values())
    return [_density_score(best, covered[best[2]])]


def _density_score(entry: tuple, cov: dict[int, set[str]]) -> DensityScore:
    """The ``DensityScore`` of a cached sort-key entry and its coverage."""
    neg_cd, _, concept, m, resolvable = entry[:5]
    return DensityScore(
        concept=concept,
        cd=-neg_cd,
        marks=m,
        covered={i: frozenset(ss) for i, ss in cov.items()},
        resolvable=resolvable,
    )
