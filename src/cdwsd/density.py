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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .taxonomy import RelationMode, SubhierarchyMetrics, Taxonomy


class NhypMode(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass(frozen=True)
class DensityParams:
    """Knobs for the density computation."""

    smoothing_exponent: float = 0.20
    nhyp_mode: NhypMode = NhypMode.GLOBAL
    relation_mode: RelationMode = RelationMode.HYPERNYMY

    def __post_init__(self):
        if not self.smoothing_exponent > 0:
            raise ValueError("smoothing_exponent must be > 0")


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
    candidates: set[str] = field(default_factory=set)

    @classmethod
    def for_window(cls, t: Taxonomy, lemmas: Sequence[str]) -> "Lattice":
        remaining = [set(t.senses_of(lemma)) for lemma in lemmas]
        for lemma, senses in zip(lemmas, remaining):
            if not senses:
                raise ValueError(f"lemma {lemma!r} is not in the taxonomy")
        lat = cls(lemmas=tuple(lemmas), remaining=remaining,
                  frozen=[False] * len(remaining))
        lat.refresh_candidates(t)
        return lat

    def refresh_candidates(self, t: Taxonomy) -> None:
        self.candidates = set()
        for senses in self.remaining:
            for s in senses:
                self.candidates |= t.ancestors_of(s)

    def window_senses(self) -> list[tuple[str, set[str]]]:
        return list(zip(self.lemmas, self.remaining))

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
) -> list[DensityScore]:
    """Score every candidate concept of the lattice, best first.

    Candidates are the union of ancestors of all remaining senses.  Marks
    are accumulated in one pass over the (small) ancestor sets of those
    senses rather than by downward reachability.  Ordering: cd descending,
    then fewer descendants (tighter subhierarchy), then ascending id.
    """
    if params.relation_mode is not t.relation_mode:
        raise ValueError(
            f"params expect relations {params.relation_mode.value!r} but the "
            f"taxonomy was loaded with {t.relation_mode.value!r}"
        )
    if not lattice.lemmas:
        raise ValueError("empty lattice")

    covered: dict[str, dict[int, set[str]]] = {c: {} for c in lattice.candidates}
    mark_keys: dict[str, set[tuple[str, str] | tuple[int, str]]] = {
        c: set() for c in lattice.candidates
    }
    for idx, (lemma, senses) in enumerate(lattice.window_senses()):
        key = lemma if dedup_by_lemma else idx
        for s in senses:
            for anc in t.ancestors_of(s):
                covered[anc].setdefault(idx, set()).add(s)
                mark_keys[anc].add((key, s))

    open_set = set(lattice.open_indices())
    global_value = (
        t.global_nhyp() if params.nhyp_mode is NhypMode.GLOBAL else 0.0
    )
    decorated = []
    for concept in lattice.candidates:
        cov_raw = covered[concept]
        m = len(mark_keys[concept])
        metrics = t.subhierarchy_metrics(concept)
        resolvable = any(
            i in open_set and 0 < len(ss) < len(lattice.remaining[i])
            for i, ss in cov_raw.items()
        )
        score = DensityScore(
            concept=concept,
            cd=conceptual_density(metrics, m, params, global_value),
            marks=m,
            covered={i: frozenset(ss) for i, ss in cov_raw.items()},
            resolvable=resolvable,
        )
        decorated.append((-score.cd, metrics.descendants, concept, score))
    decorated.sort()
    return [entry[3] for entry in decorated]
