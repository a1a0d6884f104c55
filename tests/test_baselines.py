"""Comparison systems against hand-worked oracles.

Salience oracle (worked by hand before implementation).  Training stream
fur dog paw hammer nail saw with categories A A A B B B (A=noun.animal,
B=noun.artifact), window 3.  Context pairs per target:

    fur(A): dog paw | dog(A): fur paw | paw(A): dog hammer
    hammer(B): paw nail | nail(B): hammer saw | saw(B): hammer nail

counts c(w,A): dog 2, paw 2, fur 1, hammer 1      c(A) = 6
counts c(w,B): paw 1, nail 2, hammer 2, saw 1     c(B) = 6
c(w): dog 2, paw 3, fur 1, hammer 3, nail 2, saw 1; total 12; vocab 6

With add-one smoothing P(w|cat) = (c+1)/12 and P(w) = c(w)/12:

    sal(dog, A) = (3/12) log2(1.5)     sal(dog, B) = -1/12
    sal(fur, A) = 1/6                  sal(fur, B) = 0
    sal(nail, A) = -1/12               sal(nail, B) = (3/12) log2(1.5)
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.baselines import (
    FrequencyTable,
    analytic_random_expectation,
    build_frequency,
    build_salience,
    most_frequent_baseline,
    mutual_constraint_assignment,
    random_baseline,
    sussna_baseline,
    yarowsky_baseline,
)
from cdwsd.corpus import SenseKey, extract_nouns, parse_semcor
from cdwsd.disambiguator import Method, NounOccurrence, Outcome
from cdwsd.evaluation import Level, Population
from cdwsd.taxonomy import TaxonomyError

from helpers import DATA, DistanceCache, build_taxonomy, load_data_taxonomy, random_taxonomy

SALIENCE_TIF = """\
S\tr0\tnoun.tops\tthing:0
S\ta1\tnoun.animal\tfur:0
S\ta2\tnoun.animal\tdog:0
S\ta3\tnoun.animal\tpaw:0
S\ta9\tnoun.animal\tmink:0
S\tb1\tnoun.artifact\thammer:0
S\tb2\tnoun.artifact\tnail:0
S\tb3\tnoun.artifact\tsaw:0
S\tb9\tnoun.artifact\tmink:0
H\ta1\tr0
H\ta2\tr0
H\ta3\tr0
H\ta9\tr0
H\tb1\tr0
H\tb2\tr0
H\tb3\tr0
H\tb9\tr0
"""

# unique-minimum distance fixture: flat cluster vs chain cluster
CHAIN_TIF = """\
S\tr\tnoun.tops\tthing:0
S\tga\tnoun.animal\tbeast:0
S\tga1\tnoun.animal\tw1:0
S\tga2\tnoun.animal\tw2:0
S\tga3\tnoun.animal\tw3:0
S\tgb\tnoun.artifact\tgear:0
S\tgb1\tnoun.artifact\tw1:0
S\tgb2\tnoun.artifact\tw2:0
S\tgb3\tnoun.artifact\tw3:0
H\tga\tr
H\tgb\tr
H\tga1\tga
H\tga2\tga
H\tga3\tga
H\tgb1\tgb
H\tgb2\tgb1
H\tgb3\tgb2
"""


def occurrences(*lemmas):
    return [NounOccurrence(i, lemma) for i, lemma in enumerate(lemmas)]


def train_extracted(t, lemma_cat_pairs):
    """Fake one training document from (lemma, category) pairs."""
    occs = occurrences(*[lemma for lemma, _ in lemma_cat_pairs])
    gold = tuple(SenseKey(cat, 0) for _, cat in lemma_cat_pairs)
    from cdwsd.corpus import ExtractedNouns

    return ExtractedNouns(tuple(occs), gold, 0, len(occs))


@pytest.fixture
def clusters():
    return load_data_taxonomy("two_clusters.tif")


class TestRandomBaseline:
    def test_monosemous_any_seed(self, clusters):
        for seed in (0, 1, 99):
            (a,) = random_baseline(occurrences("trout"), clusters, seed)
            assert a.senses == ("a03",)
            assert a.method is Method.RANDOM

    def test_deterministic(self, clusters):
        nouns = occurrences("bass", "bass", "trout", "bass")
        assert random_baseline(nouns, clusters, 7) == random_baseline(nouns, clusters, 7)

    def test_two_sense_lemma_balanced(self, clusters):
        # binomial bound: 10k draws of a 2-sense lemma stay within 50% +/- 2
        nouns = occurrences(*["bass"] * 10000)
        picks = random_baseline(nouns, clusters, seed=123)
        share = sum(a.senses == ("a02",) for a in picks) / len(picks)
        assert abs(share - 0.5) < 0.02


class TestAnalyticExpectation:
    def test_all_monosemous(self, clusters):
        nouns = occurrences("trout", "salmon")
        gold = [SenseKey("noun.animal", 0), SenseKey("noun.animal", 0)]
        exp = analytic_random_expectation(clusters, nouns, gold)
        assert exp[(Level.SENSE, Population.ALL)] == 1.0
        assert exp[(Level.FILE, Population.ALL)] == 1.0
        assert exp[(Level.SENSE, Population.POLYSEMOUS)] is None

    def test_uniform_four_sense(self):
        # lemma "w" with four senses in four files; gold in noun.act
        t = build_taxonomy(
            "S\tx1\tnoun.act\tw:0\nS\tx2\tnoun.group\tw:0\n"
            "S\tx3\tnoun.state\tw:0\nS\tx4\tnoun.animal\tw:0\n"
        )
        nouns = occurrences("w")
        gold = [SenseKey("noun.act", 0)]
        exp = analytic_random_expectation(t, nouns, gold)
        assert exp[(Level.SENSE, Population.ALL)] == 0.25
        assert exp[(Level.FILE, Population.ALL)] == 0.25

    def test_mixed_hand_computed(self):
        # m1: one sense; m2: two senses, both in noun.act (gold there, so the
        # file fraction is 2/2); m4: four senses, two sharing the gold file.
        t = build_taxonomy(
            "S\ty1\tnoun.act\tm1:0\n"
            "S\ty2\tnoun.act\tm2:0\nS\ty3\tnoun.act\tm2:1\n"
            "S\tz1\tnoun.act\tm4:2\nS\tz2\tnoun.act\tm4:3\n"
            "S\tz3\tnoun.group\tm4:0\nS\tz4\tnoun.state\tm4:0\n"
        )
        nouns = occurrences("m1", "m2", "m4")
        gold = [SenseKey("noun.act", 0), SenseKey("noun.act", 0), SenseKey("noun.act", 2)]
        exp = analytic_random_expectation(t, nouns, gold)
        # sense level: mean(1, 1/2, 1/4) = 7/12; polysemous: mean(1/2, 1/4) = 3/8
        assert exp[(Level.SENSE, Population.ALL)] == pytest.approx(7 / 12)
        assert exp[(Level.SENSE, Population.POLYSEMOUS)] == pytest.approx(3 / 8)
        # file level: mean(1, 1, 1/2) = 5/6; polysemous: mean(1, 1/2) = 3/4
        assert exp[(Level.FILE, Population.ALL)] == pytest.approx(5 / 6)
        assert exp[(Level.FILE, Population.POLYSEMOUS)] == pytest.approx(3 / 4)

    def test_missing_gold_rejected(self, clusters):
        with pytest.raises(ValueError, match="gold"):
            analytic_random_expectation(clusters, occurrences("bass"), [None])


class TestMostFrequent:
    def test_counts_from_training(self, clusters):
        with open(DATA / "toy_train.semcor", encoding="utf-8") as fh:
            train = [extract_nouns(parse_semcor(fh), clusters)]
        table = build_frequency(clusters, train)
        assert table.counts[("bass", "a02")] == 2
        assert table.counts[("bass", "b02")] == 1
        assert table.best_sense(clusters, "bass") == "a02"

    def test_lemma_without_counts_unanswered(self, clusters):
        table = FrequencyTable({("bass", "a02"): 3})
        a_bass, a_drum = most_frequent_baseline(
            occurrences("bass", "drum"), clusters, table
        )
        assert a_bass.outcome is Outcome.FULL and a_bass.senses == ("a02",)
        assert a_drum.outcome is Outcome.NONE

    def test_tie_breaks_ascending(self, clusters):
        table = FrequencyTable({("bass", "a02"): 4, ("bass", "b02"): 4})
        (a,) = most_frequent_baseline(occurrences("bass"), clusters, table)
        assert a.senses == ("a02",)

    def test_higher_count_wins(self, clusters):
        table = FrequencyTable({("bass", "a02"): 3, ("bass", "b02"): 5})
        (a,) = most_frequent_baseline(occurrences("bass"), clusters, table)
        assert a.senses == ("b02",)

    def test_coverage_equals_trained_fraction(self, clusters):
        table = FrequencyTable({("bass", "a02"): 1, ("trout", "a03"): 1})
        nouns = occurrences("bass", "trout", "drum", "guitar")
        answered = [a for a in most_frequent_baseline(nouns, clusters, table) if a.is_answered()]
        assert len(answered) == 2

    def test_empty_training_rejected(self, clusters):
        with pytest.raises(ValueError, match="training"):
            build_frequency(clusters, [train_extracted(clusters, [])])


class TestSalience:
    TRAIN = [
        ("fur", "noun.animal"),
        ("dog", "noun.animal"),
        ("paw", "noun.animal"),
        ("hammer", "noun.artifact"),
        ("nail", "noun.artifact"),
        ("saw", "noun.artifact"),
    ]

    @pytest.fixture
    def table(self):
        t = build_taxonomy(SALIENCE_TIF)
        return build_salience([train_extracted(t, self.TRAIN)], t, window_size=3)

    def test_hand_computed_values(self, table):
        assert table.salience[("dog", "noun.animal")] == pytest.approx(
            0.25 * math.log2(1.5), rel=1e-12
        )
        assert table.salience[("fur", "noun.animal")] == pytest.approx(1 / 6, rel=1e-12)
        assert table.salience[("paw", "noun.animal")] == pytest.approx(0.0, abs=1e-15)
        assert table.salience[("dog", "noun.artifact")] == pytest.approx(-1 / 12, rel=1e-12)
        assert table.salience[("nail", "noun.artifact")] == pytest.approx(
            0.25 * math.log2(1.5), rel=1e-12
        )
        assert table.salience[("saw", "noun.artifact")] == pytest.approx(1 / 6, rel=1e-12)

    def test_animal_context_wins(self, table):
        t = build_taxonomy(SALIENCE_TIF)
        nouns = occurrences("dog", "mink", "fur")
        assignments = yarowsky_baseline(t, nouns, table, window_size=3)
        mink = assignments[1]
        assert mink.category == "noun.animal"
        assert mink.outcome is Outcome.FULL
        assert mink.method is Method.YAROWSKY

    def test_symmetric_context_ties_to_ascending_name(self, table):
        # sal(dog,A)+sal(nail,A) == sal(dog,B)+sal(nail,B) by construction
        t = build_taxonomy(SALIENCE_TIF)
        nouns = occurrences("dog", "mink", "nail")
        assignments = yarowsky_baseline(t, nouns, table, window_size=3)
        assert assignments[1].category == "noun.animal"

    def test_always_answers(self, table):
        t = build_taxonomy(SALIENCE_TIF)
        nouns = occurrences("mink", "mink", "mink")
        assert all(
            a.outcome is Outcome.FULL
            for a in yarowsky_baseline(t, nouns, table, window_size=3)
        )

    def test_single_category_taxonomy(self):
        t = build_taxonomy(
            "S\tr\tnoun.act\ttop:0\nS\ts1\tnoun.act\tw:0\nS\ts2\tnoun.act\tw:1\n"
            "H\ts1\tr\nH\ts2\tr\n"
        )
        train = [train_extracted(t, [("w", "noun.act"), ("top", "noun.act")])]
        table = build_salience(train, t, window_size=3)
        (a, _) = yarowsky_baseline(t, occurrences("w", "top"), table, window_size=3)
        assert a.category == "noun.act"

    def test_empty_training_rejected(self):
        t = build_taxonomy(SALIENCE_TIF)
        with pytest.raises(ValueError, match="training"):
            build_salience([train_extracted(t, [])], t, window_size=3)


class TestConceptualDistance:
    """Sussna's conceptual distance, as ``Taxonomy.distances`` returns it."""

    def test_identity(self, clusters):
        assert clusters.distances("a02", {"a02"}) == {"a02": 0}

    def test_parent_child(self, clusters):
        assert clusters.distances("a01", {"a02"}) == {"a02": 1}
        assert clusters.distances("a02", {"a01"}) == {"a01": 1}

    def test_cross_cluster_path(self, clusters):
        # a02 - a01 - a00 - e00 - b00 - b01 - b02
        assert clusters.distances("a02", {"b02"}) == {"b02": 6}

    def test_disconnected_is_infinite(self):
        # no path, so the target is absent from the result
        t = build_taxonomy("S\tx\tnoun.act\ta:0\nS\ty\tnoun.act\tb:0\n")
        assert t.distances("x", {"y"}) == {}

    def test_meronym_edges_shorten_paths(self):
        text = CHAIN_TIF + "M\tga1\tgb3\n"
        from cdwsd.taxonomy import RelationMode

        t = build_taxonomy(text, RelationMode.HYPERNYMY_MERONYMY)
        assert t.distances("ga1", {"gb3"}) == {"gb3": 1}

    def test_unknown_synset_rejected(self, clusters):
        with pytest.raises(TaxonomyError, match="unknown synset"):
            clusters.distances("zzz", {"a02"})
        with pytest.raises(TaxonomyError, match="unknown synset"):
            clusters.distances("a02", {"zzz"})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_metric_properties(self, seed):
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_synsets=25, min_synsets=3, meronymy=True)
        ids = sorted(t.synsets)
        sample = [rng.choice(ids) for _ in range(6)]
        rows = {a: t.distances(a, set(sample)) for a in sample}
        for a, b in itertools.combinations(sample, 2):
            d_ab = rows[a].get(b, math.inf)
            assert d_ab == rows[b].get(a, math.inf)
            assert (d_ab == 0) == (a == b)
            for c in sample:
                d_ac = rows[a].get(c, math.inf)
                d_cb = rows[c].get(b, math.inf)
                if math.isfinite(d_ac) and math.isfinite(d_cb):
                    assert d_ab <= d_ac + d_cb


class TestSussna:
    def test_three_two_sense_nouns_brute_force(self):
        t = build_taxonomy(CHAIN_TIF)
        rng_impl = random.Random(0)
        got = mutual_constraint_assignment(t, ["w1", "w2", "w3"], rng_impl)
        # oracle: enumerate all 8 combinations with the same tie protocol
        cache = DistanceCache(t)
        pools = [t.senses_of(w) for w in ("w1", "w2", "w3")]
        best, optima = math.inf, []
        for combo in itertools.product(*pools):
            cost = sum(
                cache.capped(a, b) for a, b in itertools.combinations(combo, 2)
            )
            if cost < best:
                best, optima = cost, [combo]
            elif cost == best:
                optima.append(combo)
        expected = random.Random(0).choice(optima)
        assert got == expected
        # the chain cluster is strictly tighter: unique minimum, no tie
        assert optima == [("gb1", "gb2", "gb3")]
        assert got == ("gb1", "gb2", "gb3")

    def test_tie_drawn_from_seed(self, clusters):
        # two equally tight clusters: all-animal and all-artifact tie
        t = build_taxonomy(
            "S\tr\tnoun.tops\tthing:0\n"
            "S\tga\tnoun.animal\tbeast:0\nS\tgb\tnoun.artifact\tgear:0\n"
            "S\tga1\tnoun.animal\tw1:0\nS\tga2\tnoun.animal\tw2:0\n"
            "S\tgb1\tnoun.artifact\tw1:0\nS\tgb2\tnoun.artifact\tw2:0\n"
            "H\tga\tr\nH\tgb\tr\nH\tga1\tga\nH\tga2\tga\nH\tgb1\tgb\nH\tgb2\tgb\n"
        )
        seen = {
            mutual_constraint_assignment(t, ["w1", "w2"], random.Random(seed))
            for seed in range(20)
        }
        assert seen == {("ga1", "ga2"), ("gb1", "gb2")}

    def test_greedy_phase_follows_frozen_context(self):
        t = build_taxonomy(CHAIN_TIF)
        nouns = occurrences("w1", "w2", "w3", "w1")
        assignments = sussna_baseline(nouns, t, window_size=3, mutual_size=3, seed=0)
        assert [a.senses[0] for a in assignments[:3]] == ["gb1", "gb2", "gb3"]
        # context for the 4th noun is the previous W-1 = 2 frozen senses
        # (gb2, gb3); w1's gear sense gb1 sums to 1+2, beast sense ga1 to 5+6
        assert assignments[3].senses == ("gb1",)
        assert all(a.method is Method.SUSSNA for a in assignments)

    def test_full_coverage_and_determinism(self, clusters):
        nouns = occurrences("bass", "trout", "bass", "guitar", "bass")
        one = sussna_baseline(nouns, clusters, seed=5)
        two = sussna_baseline(nouns, clusters, seed=5)
        assert one == two
        assert all(a.outcome is Outcome.FULL for a in one)

    def test_disconnected_penalty_lets_connected_evidence_win(self):
        # w1 ambiguous between an isolated synset and one near w2's sense
        t = build_taxonomy(
            "S\tr\tnoun.tops\tthing:0\n"
            "S\tc1\tnoun.animal\tw1:0\nS\tiso\tnoun.state\tw1:0\n"
            "S\tc2\tnoun.animal\tw2:0\n"
            "H\tc1\tr\nH\tc2\tr\n"
        )
        assignments = sussna_baseline(occurrences("w1", "w2"), t, seed=0)
        assert assignments[0].senses == ("c1",)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_mutual_equals_product_enumeration(self, seed):
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_synsets=30, min_synsets=4, meronymy=True)
        lemmas = sorted(t.lemma_index)
        picked = [rng.choice(lemmas) for _ in range(rng.randint(1, 5))]
        picked = [w for w in picked if len(t.senses_of(w)) <= 4][:10]
        if not picked:
            return
        got = mutual_constraint_assignment(t, picked, random.Random(seed))
        cache = DistanceCache(t)
        best, optima = math.inf, []
        for combo in itertools.product(*[t.senses_of(w) for w in picked]):
            cost = sum(
                cache.capped(a, b) for a, b in itertools.combinations(combo, 2)
            )
            if cost < best:
                best, optima = cost, [combo]
            elif cost == best:
                optima.append(combo)
        assert got == random.Random(seed).choice(optima)

    def test_one_search_per_context_position_seen_by_a_polysemous_noun(
        self, monkeypatch
    ):
        t = build_taxonomy(CHAIN_TIF)
        searches = []
        distances = t.distances

        def recording(source, targets):
            searches.append((source, set(targets)))
            return distances(source, targets)

        monkeypatch.setattr(t, "distances", recording)
        nouns = occurrences("w1", "w2", "beast", "w3", "w1", "gear")
        chosen = [
            a.senses[0]
            for a in sussna_baseline(nouns, t, window_size=3, mutual_size=0)
        ]
        # position j is searched once, towards the polysemous nouns among
        # j+1 .. j+2; position 4 is seen only by the monosemous "gear"
        assert searches == [
            (chosen[0], {"ga2", "gb2"}),
            (chosen[1], {"ga3", "gb3"}),
            ("ga", {"ga3", "gb3", "ga1", "gb1"}),
            (chosen[3], {"ga1", "gb1"}),
        ]

    def test_mutual_phase_one_search_per_distinct_pool_sense(self, monkeypatch):
        t = build_taxonomy(CHAIN_TIF)
        searches = []
        distances = t.distances

        def recording(source, targets):
            searches.append((source, set(targets)))
            return distances(source, targets)

        monkeypatch.setattr(t, "distances", recording)
        for lemmas, expected, sources in [
            # "beast" pulls to ga; the last noun's own senses ga3, gb3 are
            # not searched from, as no later pool reads their rows
            (
                ["w1", "w2", "beast", "w1", "w3"],
                ("ga1", "ga2", "ga", "ga1", "ga3"),
                ["ga", "ga1", "ga2", "gb1", "gb2"],
            ),
            # the last noun's senses are also the first's, so they are searched
            (["w1", "w2", "w1"], ("gb1", "gb2", "gb1"), ["ga1", "ga2", "gb1", "gb2"]),
        ]:
            searches.clear()
            pool_senses = {s for w in lemmas for s in t.senses_of(w)}
            assert mutual_constraint_assignment(t, lemmas, random.Random(0)) == expected
            assert [source for source, _ in searches] == sources
            assert all(targets == pool_senses for _, targets in searches)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        meronymy=st.booleans(),
        window_size=st.sampled_from([1, 2, 3, 5, 41]),
        mutual_size=st.sampled_from([0, 1, 3, 10]),
        length=st.integers(0, 60),
    )
    def test_sequential_phase_equals_reference_loop(
        self, seed, meronymy, window_size, mutual_size, length
    ):
        # several roots, so disconnected pairs (and the len(t) cap) occur
        rng = random.Random(seed)
        t = random_taxonomy(rng, max_synsets=30, min_synsets=2, meronymy=meronymy)
        # a few lemmas drawn with replacement: repeats, and monosemous ones
        # wherever the taxonomy has them; <= 3 senses keeps the joint search small
        lemmas = sorted(w for w in t.lemma_index if len(t.senses_of(w)) <= 3)
        if not lemmas:
            return
        vocab = rng.sample(lemmas, min(len(lemmas), rng.randint(1, 6)))
        nouns = occurrences(*(rng.choice(vocab) for _ in range(length)))

        got = sussna_baseline(nouns, t, window_size, mutual_size, seed)

        ref_rng = random.Random(seed)
        k = min(mutual_size, len(nouns))
        chosen = (
            list(mutual_constraint_assignment(t, [o.lemma for o in nouns[:k]], ref_rng))
            if k
            else []
        )
        for i in range(k, len(nouns)):
            context = chosen[max(0, i - (window_size - 1)) : i]
            best, ties = math.inf, []
            for s in t.senses_of(nouns[i].lemma):
                cost = sum(t.distances(s, {c}).get(c, len(t)) for c in context)
                if cost < best:
                    best, ties = cost, [s]
                elif cost == best:
                    ties.append(s)
            chosen.append(ref_rng.choice(ties))
        assert [a.senses for a in got] == [(s,) for s in chosen]
