"""Scoring of assignment lists against gold keys, and comparison tables.

Coverage is answered/total, precision correct/answered, recall
correct/total; recall == precision * coverage holds exactly on the
underlying integer counts.  Partial answers count as unanswered.

Gold keys that do not resolve through the (lemma, lexfile, lex_id) index
are never silently dropped: if the system answered such an occurrence the
answer counts as wrong, otherwise the occurrence leaves the scored
population; either way the report carries the count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .corpus import SenseKey
from .disambiguator import Assignment
from .taxonomy import Taxonomy


class Level(enum.Enum):
    SENSE = "sense"
    FILE = "file"


class Population(enum.Enum):
    ALL = "all"
    POLYSEMOUS = "polysemous"


@dataclass(frozen=True)
class EvalReport:
    level: Level
    population: Population
    total: int
    answered: int
    correct: int
    gold_unresolvable: int = 0
    system: str = ""

    def __post_init__(self):
        if not 0 <= self.correct <= self.answered <= self.total:
            raise ValueError("counts must satisfy correct <= answered <= total")

    @property
    def coverage(self) -> Fraction | None:
        return Fraction(self.answered, self.total) if self.total else None

    @property
    def precision(self) -> Fraction | None:
        return Fraction(self.correct, self.answered) if self.answered else None

    @property
    def recall(self) -> Fraction | None:
        return Fraction(self.correct, self.total) if self.total else None


def format_pct(value: Fraction | None) -> str:
    """Percentage with one decimal, rounded half-up; '-' when undefined."""
    if value is None:
        return "-"
    tenths_num = value.numerator * 1000
    q, r = divmod(tenths_num, value.denominator)
    tenths = q + (1 if 2 * r >= value.denominator else 0)
    return f"{tenths // 10}.{tenths % 10}"


def score(
    t: Taxonomy,
    assignments: Sequence[Assignment],
    gold: Sequence[SenseKey | None],
    level: Level = Level.SENSE,
    population: Population = Population.ALL,
    system: str = "",
) -> EvalReport:
    """Score one assignment list against its parallel gold keys."""
    if len(assignments) != len(gold):
        raise ValueError(
            f"{len(assignments)} assignments vs {len(gold)} gold keys"
        )
    total = answered = correct = unresolvable = 0
    for a, key in zip(assignments, gold):
        lemma = a.occurrence.lemma
        if population is Population.POLYSEMOUS and len(t.senses_of(lemma)) <= 1:
            continue
        if a.category is not None and level is not Level.FILE:
            raise ValueError("category answers can only be scored at file level")

        gold_synset = (
            t.resolve_sense_key(lemma, key.lexfile, key.lex_id)
            if key is not None
            else None
        )
        if gold_synset is None:
            unresolvable += 1
            if a.is_answered():
                total += 1
                answered += 1
            continue

        total += 1
        if not a.is_answered():
            continue
        answered += 1
        if a.category is not None:
            hit = a.category == key.lexfile
        elif level is Level.SENSE:
            hit = gold_synset in a.senses
        else:
            hit = key.lexfile in {t.lexfile_of(s) for s in a.senses}
        correct += int(hit)
    return EvalReport(
        level=level,
        population=population,
        total=total,
        answered=answered,
        correct=correct,
        gold_unresolvable=unresolvable,
        system=system,
    )


def _require_same_scale(reports: Sequence[EvalReport]) -> None:
    """Raise unless every report shares the first one's level and population."""
    if any(
        r.level is not reports[0].level or r.population is not reports[0].population
        for r in reports
    ):
        raise ValueError("reports disagree on level/population")


def merge_reports(reports: Sequence[EvalReport]) -> EvalReport:
    """Add up per-document reports (counts are additive across shards)."""
    if not reports:
        raise ValueError("nothing to merge")
    _require_same_scale(reports)
    first = reports[0]
    return EvalReport(
        level=first.level,
        population=first.population,
        total=sum(r.total for r in reports),
        answered=sum(r.answered for r in reports),
        correct=sum(r.correct for r in reports),
        gold_unresolvable=sum(r.gold_unresolvable for r in reports),
        system=first.system,
    )


def rate_table(label: str, rows: Iterable[tuple[object, EvalReport]]) -> str:
    """Tab-separated coverage, precision and recall, one row per (label, report).

    The first column is headed ``label``.  Percentages carry one decimal,
    rounded half-up.
    """
    lines = [f"{label}\tcoverage\tprecision\trecall"]
    for name, r in rows:
        lines.append(
            f"{name}\t{format_pct(r.coverage)}"
            f"\t{format_pct(r.precision)}\t{format_pct(r.recall)}"
        )
    return "\n".join(lines) + "\n"


def compare(reports: Sequence[EvalReport]) -> str:
    """``rate_table`` with one row per system.

    All reports must share level and population.
    """
    _require_same_scale(reports)
    return rate_table("system", ((r.system, r) for r in reports))


def _report_fields(report: EvalReport) -> list[tuple[str, str]]:
    """The report's (name, value) pairs, in output order."""
    return [
        ("system", report.system or "-"),
        ("level", report.level.value),
        ("population", report.population.value),
        ("total", str(report.total)),
        ("answered", str(report.answered)),
        ("correct", str(report.correct)),
        ("gold_unresolvable", str(report.gold_unresolvable)),
        ("coverage", format_pct(report.coverage)),
        ("precision", format_pct(report.precision)),
        ("recall", format_pct(report.recall)),
    ]


def report_block(report: EvalReport) -> str:
    """Structured key/value rendering of one report."""
    return "".join(f"{name}: {value}\n" for name, value in _report_fields(report))


def report_tsv(report: EvalReport) -> str:
    """One-row tab-separated rendering (with header) of one report."""
    names, values = zip(*_report_fields(report))
    return "\t".join(names) + "\n" + "\t".join(values) + "\n"
