"""Acceptance criteria, one test per criterion (P1-P11).

The conftest hook prints one PASS/FAIL/SKIP line per criterion in the
terminal summary.  P11 needs real full-scale data (taxonomy plus tagged
texts) and is gated on the WSD_DATA_DIR environment variable; see the
README for the expected layout.
"""

import io
import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.baselines import (
    analytic_random_expectation,
    mutual_constraint_assignment,
    random_baseline,
)
from cdwsd.cli import EXIT_OK, main
from cdwsd.corpus import SenseKey, extract_nouns, parse_plain, parse_semcor
from cdwsd.density import DensityParams, Lattice, NhypMode, conceptual_density, score_candidates
from cdwsd.disambiguator import (
    Assignment,
    Method,
    NounOccurrence,
    Outcome,
    apply_random_fallback,
    build_window,
    disambiguate_document,
    disambiguate_window,
)
from cdwsd.evaluation import Level, Population, format_pct, score
from cdwsd.taxonomy import (
    NHYP_TOLERANCE,
    SubhierarchyMetrics,
    geometric_power_sum,
    load_taxonomy,
)

from helpers import (
    DATA,
    DistanceCache,
    brute_score_all,
    build_taxonomy,
    gold_key,
    load_data_reference,
    load_data_taxonomy,
    random_case,
    random_taxonomy,
    random_window,
    reference_taxonomy,
)

LOCAL = DensityParams(nhyp_mode=NhypMode.LOCAL)
GLOBAL = DensityParams(nhyp_mode=NhypMode.GLOBAL)


def occurrences(*lemmas):
    return [NounOccurrence(i, lemma) for i, lemma in enumerate(lemmas)]


def _acceptance_corpus():
    """One hundred seeded taxonomies (<= 200 synsets) with window states."""
    cases = []
    for seed in range(100):
        rng = random.Random(1000 + seed)
        t, ref = random_case(rng, max_synsets=200, min_synsets=2, meronymy=False)
        cases.append((rng, t, ref))
    return cases


def test_p1_density_oracle_brute_force():
    start = time.monotonic()
    for rng, t, ref in _acceptance_corpus():
        window = random_window(rng, t)
        mode = rng.choice([NhypMode.LOCAL, NhypMode.GLOBAL])
        dedup = rng.random() < 0.5
        params = DensityParams(nhyp_mode=mode)
        lattice = Lattice(
            lemmas=tuple(lemma for lemma, _ in window),
            remaining=[set(senses) for _, senses in window],
            frozen=[False] * len(window),
        )
        got = {
            s.concept: (s.marks, s.cd)
            for s in score_candidates(t, lattice, params, dedup_by_lemma=dedup)
        }
        expected = brute_score_all(ref, window, params, dedup)
        marked = {c for c, (m, _) in expected.items() if m > 0}
        assert set(got) == marked
        for concept in marked:
            assert got[concept][0] == expected[concept][0]
            assert got[concept][1] == pytest.approx(expected[concept][1], abs=1e-12)
    assert time.monotonic() - start < 60.0


class TestP2FormulaIdentities:
    @settings(max_examples=120, deadline=None)
    @given(
        descendants=st.integers(1, 10**6),
        height=st.integers(0, 20),
        nhyp=st.one_of(st.just(0.0), st.floats(0.5, 40.0)),
        exponent=st.floats(0.05, 1.5),
    )
    def test_p2_zero_and_one_marks(self, descendants, height, nhyp, exponent):
        m = SubhierarchyMetrics("c", descendants, height, nhyp)
        for mode in (NhypMode.LOCAL, NhypMode.GLOBAL):
            params = DensityParams(smoothing_exponent=exponent, nhyp_mode=mode)
            assert conceptual_density(m, 0, params, global_nhyp=7.0) == 0.0
            assert (
                conceptual_density(m, 1, params, global_nhyp=7.0)
                == 1.0 / descendants
            )

    @settings(max_examples=120, deadline=None)
    @given(
        nhyp=st.one_of(st.just(0.0), st.floats(0.5, 40.0)),
        m=st.integers(0, 30),
        exponent=st.floats(0.05, 1.0),
    )
    def test_p2_nondecreasing_in_marks(self, nhyp, m, exponent):
        params = DensityParams(smoothing_exponent=exponent, nhyp_mode=NhypMode.LOCAL)
        mt = SubhierarchyMetrics("c", 5, 1 if nhyp else 0, nhyp)
        lo = conceptual_density(mt, m, params)
        hi = conceptual_density(mt, m + 1, params)
        assert hi >= lo
        if nhyp > 0:
            assert hi > lo

    @settings(max_examples=120, deadline=None)
    @given(b=st.integers(0, 8), m=st.integers(1, 14))
    def test_p2_exponent_one_geometric(self, b, m):
        params = DensityParams(smoothing_exponent=1.0, nhyp_mode=NhypMode.LOCAL)
        mt = SubhierarchyMetrics("c", 3, 1, float(b))
        assert conceptual_density(mt, m, params) * 3 == pytest.approx(
            sum(b**i for i in range(m)), rel=1e-12
        )


def test_p3_nhyp_solver_residual_and_fixtures():
    # every node of the random corpus meets the residual tolerance
    for _, t, _ in _acceptance_corpus():
        for concept in t:
            m = t.subhierarchy_metrics(concept)
            residual = abs(geometric_power_sum(m.local_nhyp, m.height) - m.descendants)
            assert residual < NHYP_TOLERANCE
    # exact fixture values
    clusters = load_data_taxonomy("two_clusters.tif")
    assert clusters.subhierarchy_metrics("a00").local_nhyp == pytest.approx(2.0, abs=1e-9)
    chain = build_taxonomy(
        "S\tc0\tnoun.act\tw0:0\nS\tc1\tnoun.act\tw1:0\n"
        "S\tc2\tnoun.act\tw2:0\nS\tc3\tnoun.act\tw3:0\n"
        "H\tc1\tc0\nH\tc2\tc1\nH\tc3\tc2\n"
    )
    assert chain.subhierarchy_metrics("c0").local_nhyp == pytest.approx(1.0, abs=1e-9)


def test_p4_worked_example():
    # hand computation in docs/worked_example.md
    t = load_data_taxonomy("two_clusters.tif")
    window = build_window(occurrences("trout", "bass", "salmon"), 1, 3)
    a, trace = disambiguate_window(t, window, LOCAL)
    assert [s.concept for s in trace.winners] == ["a01"]
    assert a.outcome is Outcome.FULL
    assert a.senses == ("a02",)
    assert a.winning_cd == pytest.approx(1.8830969993726603, abs=1e-9)
    a_global, _ = disambiguate_window(t, window, GLOBAL)
    assert a_global.senses == ("a02",)
    assert a_global.winning_cd == pytest.approx(1.3042844174694451, abs=1e-9)


def test_p5_evaluation_identities():
    t = load_data_taxonomy("two_clusters.tif")
    ref = load_data_reference("two_clusters.tif")
    rng = random.Random(77)
    lemmas = sorted(t.lemma_index)
    for _ in range(40):
        assignments, gold = [], []
        for i in range(rng.randint(1, 40)):
            lemma = rng.choice(lemmas)
            senses = t.senses_of(lemma)
            gold_sense = rng.choice(senses)
            gold.append(gold_key(ref, gold_sense, lemma))
            occ = NounOccurrence(i, lemma)
            if rng.random() < 0.2:
                assignments.append(Assignment(occ, Outcome.NONE, (), Method.DENSITY))
            else:
                assignments.append(
                    Assignment(occ, Outcome.FULL, (rng.choice(senses),), Method.DENSITY)
                )
        for population in Population:
            sense_r = score(t, assignments, gold, Level.SENSE, population)
            file_r = score(t, assignments, gold, Level.FILE, population)
            for r in (sense_r, file_r):
                if r.total and r.answered:
                    assert r.recall == r.precision * r.coverage
            assert sense_r.correct <= file_r.correct
            assert sense_r.answered == file_r.answered
    # monosemous-only population is always fully precise
    mono_nouns = occurrences("trout", "salmon", "guitar", "drum")
    mono_assignments = disambiguate_document(t, mono_nouns, GLOBAL, window_size=3)
    mono_gold = [
        SenseKey("noun.animal", 0),
        SenseKey("noun.animal", 0),
        SenseKey("noun.artifact", 0),
        SenseKey("noun.artifact", 0),
    ]
    for level in Level:
        r = score(t, mono_assignments, mono_gold, level)
        assert r.precision == 1 and r.coverage == 1


def _calibration_tif():
    # lemmas w1..w5 with polysemy equal to the suffix, spread over 3 files
    lines = []
    files = ["noun.act", "noun.group", "noun.state"]
    sid = 0
    for p in range(1, 6):
        for k in range(p):
            lines.append(f"S\tq{sid:03d}\t{files[k % 3]}\tw{p}:{k // 3}")
            sid += 1
    return "\n".join(lines) + "\n"


def test_p6_random_baseline_calibration():
    t = build_taxonomy(_calibration_tif())
    ref = reference_taxonomy(_calibration_tif())
    rng = random.Random(314)
    lemmas = sorted(t.lemma_index)
    nouns, gold = [], []
    for i in range(10000):
        lemma = rng.choice(lemmas)
        nouns.append(NounOccurrence(i, lemma))
        gold_sense = rng.choice(t.senses_of(lemma))
        gold.append(gold_key(ref, gold_sense, lemma))
    expectation = analytic_random_expectation(t, nouns, gold)
    picks = random_baseline(nouns, t, seed=2718)
    for level in Level:
        for population in Population:
            report = score(t, picks, gold, level, population)
            expected = expectation[(level, population)]
            assert report.precision is not None and expected is not None
            assert abs(float(report.precision) - expected) < 0.02


def test_p7_fallback_full_coverage():
    for seed in range(10):
        rng = random.Random(9000 + seed)
        t = random_taxonomy(rng, max_synsets=60, min_synsets=2)
        lemmas = sorted(t.lemma_index)
        nouns = occurrences(*[rng.choice(lemmas) for _ in range(rng.randint(1, 30))])
        assignments = apply_random_fallback(
            t, disambiguate_document(t, nouns, GLOBAL, window_size=5), random.Random(seed)
        )
        assert len(assignments) == len(nouns)
        assert all(a.outcome is Outcome.FULL for a in assignments)
    # and on the toy tagged corpus through the scorer: coverage is 100.0
    clusters = load_data_taxonomy("two_clusters.tif")
    with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
        doc = extract_nouns(parse_semcor(fh), clusters)
    assignments = apply_random_fallback(
        clusters,
        disambiguate_document(clusters, doc.occurrences, GLOBAL, window_size=1),
        random.Random(1),
    )
    report = score(clusters, assignments, doc.gold, Level.FILE, Population.ALL)
    assert format_pct(report.coverage) == "100.0"


def test_p8_sussna_mutual_constraint_oracle():
    checked = 0
    for seed in range(30):
        rng = random.Random(5000 + seed)
        t = random_taxonomy(rng, max_synsets=40, min_synsets=4, meronymy=True)
        pool = [w for w in sorted(t.lemma_index) if len(t.senses_of(w)) <= 4]
        if not pool:
            continue
        lemmas = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        got = mutual_constraint_assignment(t, lemmas, random.Random(seed))
        cache = DistanceCache(t)
        best, optima = math.inf, []
        for combo in itertools.product(*[t.senses_of(w) for w in lemmas]):
            cost = sum(
                cache.capped(a, b) for a, b in itertools.combinations(combo, 2)
            )
            if cost < best:
                best, optima = cost, [combo]
            elif cost == best:
                optima.append(combo)
        assert got == random.Random(seed).choice(optima)
        checked += 1
    assert checked >= 25


def test_p9_command_determinism(tmp_path):
    taxonomy = str(DATA / "two_clusters.tif")
    corpus = str(DATA / "toy_corpus.semcor")
    train = str(DATA / "toy_train.semcor")
    commands = [
        ["stats", "--taxonomy", taxonomy, "--input", corpus],
        ["disambiguate", "--taxonomy", taxonomy, "--input", corpus, "--window", "3"],
        ["disambiguate", "--taxonomy", taxonomy, "--input", corpus,
         "--window", "1", "--fallback", "random", "--seed", "11"],
        ["disambiguate", "--taxonomy", taxonomy, "--input", corpus,
         "--baseline", "sussna", "--seed", "11"],
        ["evaluate", "--taxonomy", taxonomy, "--input", corpus,
         "--window", "3", "--level", "file", "--population", "polysemous"],
        ["evaluate", "--taxonomy", taxonomy, "--input", corpus, "--baseline",
         "yarowsky", "--train", train, "--level", "file", "--window", "3"],
        ["sweep", "--taxonomy", taxonomy, "--input", corpus, "--windows", "1,3,5,30"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


def test_p10_parser_goldens():
    # Tagged sample tokens parse to the exact records
    with open(DATA / "sample_sentence.semcor", encoding="utf-8") as fh:
        doc = parse_semcor(fh)
    (sentence,) = doc.sentences
    first, last = sentence[0], sentence[-1]
    assert (first.wordform, first.lemma, first.pos) == ("jury", "jury", "NN")
    assert first.sense_key == SenseKey("noun.group", 0)
    assert (last.wordform, last.lemma) == ("prison_farms", "prison_farm")
    assert last.sense_key == SenseKey("noun.artifact", 0)
    # The sentence reduces to the expected lemma stream over the fixture
    t = load_data_taxonomy("sample_taxonomy.tif")
    lemmas = ["jury", "administration", "operation", "police_department", "prison_farm"]
    extracted = extract_nouns(doc, t)
    assert [o.lemma for o in extracted.occurrences] == lemmas
    # and so does the plain-format rendering of those lemmas
    plain = parse_plain(
        io.StringIO("jury administration operation Police_Department prison_farm\n")
    )
    assert [o.lemma for o in extract_nouns(plain, t).occurrences] == lemmas


DATA_DIR = os.environ.get("WSD_DATA_DIR", "")
_P11_REASON = (
    "full-data reproduction needs WSD_DATA_DIR with wordnet taxonomy (TIF) "
    "and tagged texts; see README"
)


@pytest.mark.skipif(
    not DATA_DIR or not (Path(DATA_DIR) / "wordnet.tif").exists(),
    reason=_P11_REASON,
)
def test_p11_full_data_reproduction():
    data = Path(DATA_DIR)
    texts = sorted(data.glob("br-*.semcor"))
    assert texts, "no br-*.semcor files under WSD_DATA_DIR"
    with open(data / "wordnet.tif", encoding="utf-8") as fh:
        t = load_taxonomy(fh)
    reports = []
    stats_rows = []
    from cdwsd.corpus import corpus_stats
    from cdwsd.evaluation import merge_reports

    for path in texts:
        with open(path, encoding="utf-8") as fh:
            doc = parse_semcor(fh)
        stats_rows.append((path.stem, corpus_stats(doc, t)))
        extracted = extract_nouns(doc, t)
        assignments = disambiguate_document(
            t, extracted.occurrences, GLOBAL, window_size=31
        )
        reports.append(
            score(t, assignments, extracted.gold, Level.FILE, Population.ALL)
        )
    merged = merge_reports(reports)
    expected = {"br-a01": (2079, 564, 464, 149)}
    for name, stats in stats_rows:
        if name in expected:
            got = (stats.words, stats.nouns, stats.nouns_in_taxonomy, stats.monosemous)
            assert got == expected[name]
    assert merged.precision is not None
    assert abs(float(merged.precision) * 100 - 71.2) <= 5.0
    assert abs(float(merged.coverage) * 100 - 86.2) <= 5.0
