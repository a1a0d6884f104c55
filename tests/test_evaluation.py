import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.corpus import SenseKey
from cdwsd.disambiguator import Assignment, Method, NounOccurrence, Outcome
from cdwsd.evaluation import (
    EvalReport,
    Level,
    Population,
    compare,
    format_pct,
    merge_reports,
    report_block,
    report_tsv,
    score,
)

from helpers import gold_key, load_data_reference, load_data_taxonomy


@pytest.fixture
def clusters():
    return load_data_taxonomy("two_clusters.tif")


def full(lemma, sense, position=0, method=Method.DENSITY):
    return Assignment(NounOccurrence(position, lemma), Outcome.FULL, (sense,), method)


def none_(lemma, position=0):
    return Assignment(NounOccurrence(position, lemma), Outcome.NONE, (), Method.DENSITY)


def partial(lemma, senses, position=0):
    return Assignment(
        NounOccurrence(position, lemma), Outcome.PARTIAL, tuple(senses), Method.DENSITY
    )


CLUSTERS = load_data_reference("two_clusters.tif")


def key(sense, lemma):
    return gold_key(CLUSTERS, sense, lemma)


class TestScore:
    def test_all_correct(self, clusters):
        assignments = [full("trout", "a03"), full("guitar", "b03", 1)]
        gold = [key("a03", "trout"), key("b03", "guitar")]
        r = score(clusters, assignments, gold)
        assert (r.total, r.answered, r.correct) == (2, 2, 2)
        assert r.coverage == 1 and r.precision == 1 and r.recall == 1

    def test_hand_counted_example(self, clusters):
        # four nouns: three Full (two correct), one None
        assignments = [
            full("trout", "a03"),
            full("bass", "a02", 1),
            full("guitar", "b03", 2),
            none_("drum", 3),
        ]
        gold = [
            key("a03", "trout"),
            key("b02", "bass"),  # wrong: system said a02
            key("b03", "guitar"),
            key("b04", "drum"),
        ]
        r = score(clusters, assignments, gold)
        assert (r.total, r.answered, r.correct) == (4, 3, 2)
        assert r.coverage == Fraction(3, 4)
        assert r.precision == Fraction(2, 3)
        assert r.recall == Fraction(1, 2)

    def test_recall_identity_on_counts(self, clusters):
        r = EvalReport(Level.SENSE, Population.ALL, total=500, answered=398, correct=269)
        assert r.recall == r.precision * r.coverage

    def test_paper_identity_example(self):
        # answered 79.6%, precision 53.9% -> recall 42.8% at the counts level
        r = EvalReport(Level.FILE, Population.POLYSEMOUS, 1000, 796, 429)
        assert format_pct(r.coverage) == "79.6"
        assert format_pct(r.precision) == "53.9"
        assert format_pct(r.recall) == "42.9"
        assert r.recall == r.precision * r.coverage

    def test_file_level_counts_file_matches(self, clusters):
        # assigned b02 ("bass" artifact) vs gold a02: wrong sense, wrong file;
        # assigned a02 vs gold a03's file... build a file-match-only case:
        assignments = [full("bass", "a02")]
        gold = [key("b02", "bass")]
        sense_r = score(clusters, assignments, gold, Level.SENSE)
        file_r = score(clusters, assignments, gold, Level.FILE)
        assert sense_r.correct == 0 and file_r.correct == 0
        # trout assigned, gold trout: same file always
        assignments = [full("salmon", "a04")]
        gold = [key("a04", "salmon")]
        assert score(clusters, assignments, gold, Level.FILE).correct == 1

    def test_sense_match_implies_file_match(self, clusters):
        rng = random.Random(3)
        lemmas = sorted(clusters.lemma_index)
        assignments, gold = [], []
        for i in range(60):
            lemma = rng.choice(lemmas)
            senses = clusters.senses_of(lemma)
            true = rng.choice(senses)
            gold.append(key(true, lemma))
            if rng.random() < 0.2:
                assignments.append(none_(lemma, i))
            else:
                assignments.append(full(lemma, rng.choice(senses), i))
        sense_r = score(clusters, assignments, gold, Level.SENSE)
        file_r = score(clusters, assignments, gold, Level.FILE)
        assert sense_r.correct <= file_r.correct
        assert sense_r.answered == file_r.answered

    def test_polysemous_population_drops_monosemous(self, clusters):
        assignments = [full("trout", "a03"), full("bass", "a02", 1)]
        gold = [key("a03", "trout"), key("a02", "bass")]
        all_r = score(clusters, assignments, gold, population=Population.ALL)
        poly_r = score(clusters, assignments, gold, population=Population.POLYSEMOUS)
        assert all_r.total == 2
        assert poly_r.total == 1
        assert poly_r.correct == 1

    def test_partial_counts_as_unanswered(self, clusters):
        assignments = [partial("bass", ("a02", "b02"))]
        gold = [key("a02", "bass")]
        strict = score(clusters, assignments, gold)
        assert (strict.total, strict.answered, strict.correct) == (1, 0, 0)
        assert strict.precision is None

    def test_unresolvable_gold(self, clusters):
        # gold key that joins to nothing: lex_id 9 never appears
        bad = SenseKey("noun.animal", 9)
        answered = [full("bass", "a02")]
        r = score(clusters, answered, [bad])
        assert (r.total, r.answered, r.correct) == (1, 1, 0)
        assert r.gold_unresolvable == 1
        unanswered = [none_("bass")]
        r = score(clusters, unanswered, [bad])
        assert (r.total, r.answered) == (0, 0)
        assert r.gold_unresolvable == 1
        assert r.precision is None and r.coverage is None

    def test_missing_gold_treated_as_unresolvable(self, clusters):
        r = score(clusters, [none_("bass")], [None])
        assert r.total == 0 and r.gold_unresolvable == 1

    def test_category_answers_file_level_only(self, clusters):
        cat = Assignment(
            NounOccurrence(0, "bass"), Outcome.FULL, (), Method.YAROWSKY,
            category="noun.animal",
        )
        gold = [key("a02", "bass")]
        r = score(clusters, [cat], gold, Level.FILE)
        assert r.correct == 1
        with pytest.raises(ValueError, match="file level"):
            score(clusters, [cat], gold, Level.SENSE)

    def test_length_mismatch(self, clusters):
        with pytest.raises(ValueError, match="assignments"):
            score(clusters, [none_("bass")], [])

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(0, 400),
        data=st.data(),
    )
    def test_identity_holds_for_any_counts(self, total, data):
        answered = data.draw(st.integers(0, total))
        correct = data.draw(st.integers(0, answered))
        r = EvalReport(Level.SENSE, Population.ALL, total, answered, correct)
        if r.total and r.answered:
            assert r.recall == r.precision * r.coverage


class TestRenderers:
    def test_format_pct_half_up(self):
        assert format_pct(Fraction(1, 8)) == "12.5"
        assert format_pct(Fraction(25, 1000)) == "2.5"
        assert format_pct(Fraction(1, 3)) == "33.3"
        assert format_pct(Fraction(862, 1000)) == "86.2"
        # exact .05 boundary at the second decimal rounds up
        assert format_pct(Fraction(1, 2000)) == "0.1"
        assert format_pct(None) == "-"

    def test_compare_single_row(self):
        r = EvalReport(Level.FILE, Population.ALL, 1000, 862, 712, system="density")
        table = compare([r])
        assert table.splitlines() == [
            "system\tcoverage\tprecision\trecall",
            "density\t86.2\t82.6\t71.2",
        ]

    def test_compare_table_shape(self):
        rows = [
            EvalReport(Level.FILE, Population.ALL, 1000, 1000, 701, system="density"),
            EvalReport(Level.FILE, Population.ALL, 1000, 1000, 645, system="sussna"),
        ]
        table = compare(rows)
        lines = table.splitlines()
        assert len(lines) == 3
        assert lines[1] == "density\t100.0\t70.1\t70.1"
        assert lines[2] == "sussna\t100.0\t64.5\t64.5"

    def test_compare_empty(self):
        assert compare([]) == "system\tcoverage\tprecision\trecall\n"

    def test_compare_mixed_levels_rejected(self):
        rows = [
            EvalReport(Level.FILE, Population.ALL, 1, 1, 1),
            EvalReport(Level.SENSE, Population.ALL, 1, 1, 1),
        ]
        with pytest.raises(ValueError):
            compare(rows)

    def test_report_block_and_tsv(self):
        r = EvalReport(Level.SENSE, Population.ALL, 4, 3, 2, system="density")
        block = report_block(r)
        assert "total: 4" in block
        assert "coverage: 75.0" in block
        assert "precision: 66.7" in block
        tsv = report_tsv(r)
        assert tsv.splitlines()[1].startswith("density\tsense\tall\t4\t3\t2")

    def test_merge(self):
        a = EvalReport(Level.SENSE, Population.ALL, 4, 3, 2, gold_unresolvable=1)
        b = EvalReport(Level.SENSE, Population.ALL, 6, 5, 4)
        merged = merge_reports([a, b])
        assert (merged.total, merged.answered, merged.correct) == (10, 8, 6)
        assert merged.gold_unresolvable == 1

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(Level.SENSE, Population.ALL, 1, 2, 0)


def test_all_population_precision_at_least_polysemous(clusters=None):
    # monosemous answers are correct by construction, so the All population
    # can only raise precision relative to PolysemousOnly
    t = load_data_taxonomy("two_clusters.tif")
    rng = random.Random(13)
    lemmas = sorted(t.lemma_index)
    for _ in range(25):
        assignments, gold = [], []
        for i in range(rng.randint(2, 30)):
            lemma = rng.choice(lemmas)
            senses = t.senses_of(lemma)
            true = rng.choice(senses)
            gold.append(key(true, lemma))
            if len(senses) == 1:
                assignments.append(full(lemma, senses[0], i, Method.MONOSEMOUS))
            elif rng.random() < 0.3:
                assignments.append(none_(lemma, i))
            else:
                assignments.append(full(lemma, rng.choice(senses), i))
        all_r = score(t, assignments, gold, Level.SENSE, Population.ALL)
        poly_r = score(t, assignments, gold, Level.SENSE, Population.POLYSEMOUS)
        if all_r.precision is not None and poly_r.precision is not None:
            assert all_r.precision >= poly_r.precision


def test_compare_from_real_system_runs():
    # full-coverage variant of the density system vs the distance baseline,
    # both scored at file level over the toy corpus
    from cdwsd.baselines import sussna_baseline
    from cdwsd.corpus import extract_nouns, parse_semcor
    from cdwsd.density import DensityParams, NhypMode
    from cdwsd.disambiguator import apply_random_fallback, disambiguate_document
    from helpers import DATA

    t = load_data_taxonomy("two_clusters.tif")
    with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
        doc = extract_nouns(parse_semcor(fh), t)
    dense = apply_random_fallback(
        t,
        disambiguate_document(
            t, doc.occurrences, DensityParams(nhyp_mode=NhypMode.GLOBAL), window_size=3
        ),
        random.Random(0),
    )
    dist = sussna_baseline(doc.occurrences, t, seed=0)
    reports = [
        score(t, dense, doc.gold, Level.FILE, Population.ALL, system="density"),
        score(t, dist, doc.gold, Level.FILE, Population.ALL, system="sussna"),
    ]
    table = compare(reports).splitlines()
    assert table[0] == "system\tcoverage\tprecision\trecall"
    assert table[1].startswith("density\t100.0\t")
    assert table[2].startswith("sussna\t100.0\t")


def test_empty_report_renders_dashes():
    r = EvalReport(Level.SENSE, Population.ALL, 0, 0, 0)
    block = report_block(r)
    assert "coverage: -" in block and "precision: -" in block and "recall: -" in block
