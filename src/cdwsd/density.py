"""Conceptual density scoring of candidate concepts for a noun window.

A candidate concept is any ancestor of any sense still alive in the
window.  Its density compares the expected area of a subhierarchy holding
``m`` marks (senses of window words) against the subhierarchy's actual
size:

    cd = sum(nhyp ** (i ** e) for i in 0..m-1) / descendants

where ``e`` is a smoothing exponent (0.20 unless reconfigured) and nhyp is
either the concept's own mean branching factor or one global estimate for
the whole hierarchy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

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
    """Mutable per-window working state for the disambiguation loop."""

    lemmas: tuple[str, ...]
    remaining: list[set[str]]
    frozen: list[bool]

    @classmethod
    def for_window(cls, t: Taxonomy, lemmas: Sequence[str]) -> "Lattice":
        remaining = [set(t.senses_of(lemma)) for lemma in lemmas]
        for lemma, senses in zip(lemmas, remaining):
            if not senses:
                raise ValueError(f"lemma {lemma!r} is not in the taxonomy")
        return cls(lemmas=tuple(lemmas), remaining=remaining,
                   frozen=[False] * len(remaining))

    def open_indices(self) -> list[int]:
        """Occurrences that are neither frozen nor down to one sense."""
        return [
            i
            for i in range(len(self.lemmas))
            if not self.frozen[i] and len(self.remaining[i]) >= 2
        ]


def score_candidates(
    t: Taxonomy,
    lattice: Lattice,
    params: DensityParams,
    dedup_by_lemma: bool = True,
    *,
    qualifying: bool = False,
) -> list[DensityScore]:
    """Score the candidate concepts of the lattice, best first.

    Candidates are the union of ancestors of all remaining senses.  Coverage
    is accumulated in one pass over the (small) ancestor sets of those
    senses rather than by downward reachability.  Ordering: cd descending,
    then fewer descendants (tighter subhierarchy), then ascending id.

    With ``qualifying`` set, only the concepts the elimination loop may
    select are scored: those that cover at least two occurrences, strictly
    narrow a still-open one and cover senses of at least two distinct
    lemmas.  The rule is tested on raw coverage, cheapest test first, before
    any metric or density is computed, so the result is the full list
    filtered by that rule, in the same order.
    """
    if not lattice.lemmas:
        raise ValueError("empty lattice")

    lemmas = lattice.lemmas
    ancestors_of = t.ancestors_of
    covered: dict[str, dict[int, set[str]]] = {}
    for idx, senses in enumerate(lattice.remaining):
        for s in senses:
            for anc in ancestors_of(s):
                by_word = covered.get(anc)
                if by_word is None:
                    covered[anc] = {idx: {s}}
                elif idx in by_word:
                    by_word[idx].add(s)
                else:
                    by_word[idx] = {s}

    # sense count of every open occurrence; a concept narrows one when it
    # covers fewer of its senses (closed occurrences read 0 and never do)
    open_size = {i: len(lattice.remaining[i]) for i in lattice.open_indices()}
    global_value = (
        t.global_nhyp() if params.nhyp_mode is NhypMode.GLOBAL else 0.0
    )
    decorated = []
    for concept, cov in covered.items():
        if qualifying and len(cov) < 2:
            continue
        resolvable = any(len(ss) < open_size.get(i, 0) for i, ss in cov.items())
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
        decorated.append((-score.cd, metrics.descendants, concept, score))
    decorated.sort()
    return [entry[3] for entry in decorated]
