"""Sliding-window noun disambiguation driven by conceptual density.

For each noun occurrence a window of the nearest W nouns is assembled and
an elimination loop runs over it: score the candidate concepts that
qualify, take the densest, keep only the senses under it for every word
it covers, repeat until no concept qualifies, then read off the middle
noun's surviving senses.  A concept qualifies when it covers senses of at
least two distinct lemmas and strictly narrows at least one still-open
occurrence; without such a rule every leaf sense would win with density 1
and selection would be vacuous.  The rule is applied to raw coverage
before density is computed, so concepts that cannot win are never scored.
The loop narrows a word only through ``Lattice.freeze``, which keeps the
window's coverage map current, so each iteration rescores only the
concepts over the words the last winner froze.

Freezing is window-local and nothing propagates across windows, so each
occurrence is decided independently and documents can be processed in any
order.  The loop reads only the window's members, not which of them is
the target, so its winners (``WindowTrace``) decide every member alike:
the first winner that covers a member froze it to the senses it covers.
Near a document's ends consecutive targets get windows with the same
members; ``disambiguate_document`` runs the loop once for them and
decides each from that one result.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import IO, Sequence

from .density import DensityParams, DensityScore, Lattice, score_candidates
from .taxonomy import Taxonomy


class Outcome(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


class Method(enum.Enum):
    """How an assignment was produced.

    The disambiguation path only emits DENSITY, FALLBACK and MONOSEMOUS;
    the remaining tags let the comparison systems share one output format.
    """

    DENSITY = "density"
    FALLBACK = "fallback"
    MONOSEMOUS = "monosemous"
    RANDOM = "random"
    MOST_FREQUENT = "mfs"
    YAROWSKY = "yarowsky"
    SUSSNA = "sussna"


@dataclass(frozen=True)
class NounOccurrence:
    """One noun token kept for disambiguation (lemma known to the taxonomy)."""

    doc_position: int
    lemma: str


@dataclass(frozen=True)
class Window:
    """Consecutive noun occurrences built around ``members[target]``."""

    target: int
    members: tuple[NounOccurrence, ...]


@dataclass(frozen=True)
class Assignment:
    occurrence: NounOccurrence
    outcome: Outcome
    senses: tuple[str, ...]
    method: Method
    winning_cd: float | None = None
    category: str | None = None  # file-level answer, used by the salience baseline

    def is_answered(self) -> bool:
        return self.outcome is Outcome.FULL


@dataclass
class WindowTrace:
    """The result of one window's elimination loop.

    ``winners`` holds the winner of every iteration, in order.  The first
    winner that covers a member froze it, so any member's assignment can
    be read off them (``_decide``).  A monosemous target's shortcut runs
    no loop and leaves ``winners`` empty.
    """

    winners: list[DensityScore]


def build_window(
    nouns: Sequence[NounOccurrence], target: int, size_param: int
) -> Window:
    """Select the ``size_param`` nouns nearest ``target`` in document order.

    Near a document edge the window extends toward the populated side so it
    keeps min(size_param, len(nouns)) members instead of shrinking.
    """
    if not nouns:
        raise ValueError("empty noun list")
    if size_param < 1 or size_param % 2 == 0:
        raise ValueError("window size must be odd and >= 1")
    if not 0 <= target < len(nouns):
        raise ValueError(f"target {target} out of range")
    lo = max(0, min(target - size_param // 2, len(nouns) - size_param))
    return Window(target=target - lo, members=tuple(nouns[lo : lo + size_param]))


def disambiguate_window(
    t: Taxonomy,
    window: Window,
    params: DensityParams,
) -> tuple[Assignment, WindowTrace]:
    """Run the elimination loop and decide the window's middle noun.

    Loop per iteration: score the qualifying concepts over the remaining
    senses (frozen occurrences keep contributing their kept senses as
    marks), take the densest, and freeze every occurrence it covers to
    exactly the covered senses.  Exits when nothing qualifies and decides
    the target from the loop's winners (``_decide``), which the returned
    trace holds for every member.  A monosemous target skips the loop.
    """
    trace = WindowTrace(winners=[])
    if len(t.known_senses(window.members[window.target].lemma)) > 1:
        lattice = Lattice.for_window(t, [occ.lemma for occ in window.members])
        for _ in range(sum(len(r) for r in lattice.remaining)):
            scores = score_candidates(t, lattice, params, qualifying=True)
            if not scores:
                break
            winner = scores[0]
            trace.winners.append(winner)
            for idx, senses in winner.covered.items():
                if not lattice.frozen[idx]:
                    lattice.freeze(idx, senses)
    return _decide(t, window, trace), trace


def _decide(t: Taxonomy, window: Window, trace: WindowTrace) -> Assignment:
    """The target's assignment from its window's loop winners.

    A monosemous target is Full on its one sense.  Otherwise the first
    winner that covers the target froze it: Full if it kept one sense,
    Partial if several but fewer than all, with that winner's cd; None if
    no winner narrowed it.
    """
    occ = window.members[window.target]
    all_senses = t.known_senses(occ.lemma)
    if len(all_senses) == 1:
        return Assignment(occ, Outcome.FULL, all_senses, Method.MONOSEMOUS)
    froze = next((w for w in trace.winners if window.target in w.covered), None)
    left = tuple(sorted(froze.covered[window.target])) if froze else all_senses
    if len(left) == 1:
        return Assignment(occ, Outcome.FULL, left, Method.DENSITY, froze.cd)
    if len(left) < len(all_senses):
        return Assignment(occ, Outcome.PARTIAL, left, Method.DENSITY, froze.cd)
    return Assignment(occ, Outcome.NONE, (), Method.DENSITY)


def apply_random_fallback(
    t: Taxonomy, assignments: Sequence[Assignment], rng: random.Random
) -> list[Assignment]:
    """Replace every Partial/None outcome with a uniformly drawn Full one.

    Partial draws from the surviving set, None from all of the lemma's
    senses.  Draws are taken from ``rng`` in assignment order; passing one
    generator through the documents of a run in order makes a fixed seed
    reproduce byte-identical output.
    """
    out = []
    for a in assignments:
        if a.outcome is Outcome.FULL:
            out.append(a)
            continue
        pool = a.senses if a.outcome is Outcome.PARTIAL else t.senses_of(a.occurrence.lemma)
        choice = rng.choice(sorted(pool))
        out.append(
            Assignment(
                occurrence=a.occurrence,
                outcome=Outcome.FULL,
                senses=(choice,),
                method=Method.FALLBACK,
                winning_cd=a.winning_cd,
            )
        )
    return out


def disambiguate_document(
    t: Taxonomy,
    nouns: Sequence[NounOccurrence],
    params: DensityParams,
    window_size: int = 31,
) -> list[Assignment]:
    """One assignment per noun occurrence, in document order.

    Every occurrence is the middle of its own window.  A target whose
    window has the same members as the last loop run is decided from that
    run's trace, with the same result a new run would give; every other
    window runs ``disambiguate_window``.
    ``window_size`` must be odd (it counts the target too); the command
    line accepts even context-sized values and widens them before calling
    in here.  Undecided occurrences stay Partial or None;
    ``apply_random_fallback`` turns them into draws.
    """
    assignments = []
    members, trace = None, None  # the window and result of the last loop run
    for i in range(len(nouns)):
        window = build_window(nouns, i, window_size)
        if window.members == members:
            assignment = _decide(t, window, trace)
        else:
            assignment, last = disambiguate_window(t, window, params)
            if assignment.method is Method.DENSITY:
                members, trace = window.members, last
        assignments.append(assignment)
    return assignments


# -- assignment output format ------------------------------------------------

ASSIGNMENT_HEADER = "position\tlemma\toutcome\tsense_keys\tmethod\tcd"


def format_assignment(t: Taxonomy, a: Assignment) -> str:
    """One tab-separated line: position, lemma, outcome, keys, method, cd.

    Sense keys use the ``lexfile.lex_id`` notation of the gold annotations;
    the salience baseline's category answers print the bare category.
    """
    if a.category is not None:
        keys = a.category
    elif a.senses:
        keys = ",".join(
            t.sense_key_of(a.occurrence.lemma, s) or s for s in a.senses
        )
    else:
        keys = "-"
    cd = f"{a.winning_cd:.6f}" if a.winning_cd is not None else "-"
    return (
        f"{a.occurrence.doc_position}\t{a.occurrence.lemma}\t{a.outcome.value}"
        f"\t{keys}\t{a.method.value}\t{cd}"
    )


def write_assignments(t: Taxonomy, assignments: Sequence[Assignment], out: IO) -> None:
    out.write(ASSIGNMENT_HEADER + "\n")
    for a in assignments:
        out.write(format_assignment(t, a) + "\n")
