"""Density formula and candidate scoring.

Expected values were computed ahead of implementation with 40-digit
arithmetic:

    2 ** (2 ** 0.2)                      = 2.217137669877780378...
    (1 + 2 + 2**(2**0.2)) / 7            = 0.745305381411111482...
    fish cluster, local nhyp 3, m=3:
    (1 + 3 + 3**(2**0.2)) / 4            = 1.883096999372660294...
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.density import (
    ConfigError,
    DensityParams,
    Lattice,
    NhypMode,
    conceptual_density,
    score_candidates,
)
from cdwsd.taxonomy import SubhierarchyMetrics

from helpers import (
    brute_score_all,
    load_data_taxonomy,
    random_case,
    random_taxonomy,
    random_window,
)

LOCAL = DensityParams(nhyp_mode=NhypMode.LOCAL)
GLOBAL = DensityParams(nhyp_mode=NhypMode.GLOBAL)


def metrics(descendants, height, nhyp):
    return SubhierarchyMetrics("x", descendants, height, nhyp)


class TestFormula:
    def test_zero_marks_empty_sum(self):
        assert conceptual_density(metrics(4, 1, 3.0), 0, LOCAL) == 0.0

    def test_one_mark_is_inverse_descendants(self):
        assert conceptual_density(metrics(4, 1, 3.0), 1, LOCAL) == 0.25

    def test_precomputed_value(self):
        got = conceptual_density(metrics(7, 2, 2.0), 3, LOCAL)
        assert got == pytest.approx(0.7453053814111115, abs=1e-12)

    def test_global_mode_uses_supplied_value(self):
        got = conceptual_density(metrics(7, 2, 99.0), 3, GLOBAL, global_nhyp=2.0)
        assert got == pytest.approx(0.7453053814111115, abs=1e-12)

    def test_zero_nhyp_first_term_is_one(self):
        # leaf metrics: nhyp 0 but the i=0 term is still nhyp**0 == 1
        assert conceptual_density(metrics(1, 0, 0.0), 1, LOCAL) == 1.0
        assert conceptual_density(metrics(1, 0, 0.0), 3, LOCAL) == 1.0

    def test_negative_marks_rejected(self):
        with pytest.raises(ValueError):
            conceptual_density(metrics(1, 0, 0.0), -1, LOCAL)

    @settings(max_examples=100, deadline=None)
    @given(
        nhyp=st.one_of(st.just(0.0), st.floats(0.5, 50.0)),
        descendants=st.integers(1, 10**6),
        m=st.integers(0, 40),
    )
    def test_monotone_in_marks(self, nhyp, descendants, m):
        mt = metrics(descendants, 1 if nhyp else 0, nhyp)
        lo = conceptual_density(mt, m, LOCAL)
        hi = conceptual_density(mt, m + 1, LOCAL)
        assert hi >= lo
        if nhyp > 0:
            assert hi > lo

    @settings(max_examples=50, deadline=None)
    @given(b=st.integers(0, 9), m=st.integers(1, 12))
    def test_exponent_one_is_geometric_sum(self, b, m):
        params = DensityParams(smoothing_exponent=1.0, nhyp_mode=NhypMode.LOCAL)
        got = conceptual_density(metrics(1, 1, float(b)), m, params)
        assert got == pytest.approx(sum(b**i for i in range(m)), rel=1e-12)

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            DensityParams(smoothing_exponent=0.0)

    def test_exponent_must_be_finite(self):
        with pytest.raises(ConfigError, match="smoothing_exponent must be finite"):
            DensityParams(smoothing_exponent=math.inf)


class TestCollectMarks:
    """Mark counting, checked on one concept of ``score_candidates``."""

    @pytest.fixture
    def clusters(self):
        return load_data_taxonomy("two_clusters.tif")

    @staticmethod
    def scores(t, lemmas, dedup_by_lemma=True):
        lattice = Lattice.for_window(t, lemmas)
        return {
            s.concept: s
            for s in score_candidates(t, lattice, LOCAL, dedup_by_lemma)
        }

    def test_concept_covering_none(self, clusters):
        assert "b01" not in self.scores(clusters, ["trout"])

    def test_two_lemmas_one_sense_each(self, clusters):
        score = self.scores(clusters, ["trout", "salmon"])["a01"]
        assert score.marks == 2
        assert score.covered == {0: frozenset({"a03"}), 1: frozenset({"a04"})}

    def test_one_lemma_two_senses_under_concept(self, clusters):
        # both senses of "bass" sit under the top concept: two marks
        score = self.scores(clusters, ["bass"])["e00"]
        assert score.marks == 2
        assert score.covered == {0: frozenset({"a02", "b02"})}

    def test_repeated_lemma_deduplicated(self, clusters):
        score = self.scores(clusters, ["trout", "trout"])["a01"]
        assert score.marks == 1
        assert score.covered == {0: frozenset({"a03"}), 1: frozenset({"a03"})}

    def test_repeated_lemma_counted_with_switch_off(self, clusters):
        score = self.scores(clusters, ["trout", "trout"], dedup_by_lemma=False)["a01"]
        assert score.marks == 2


class TestScoreCandidates:
    @pytest.fixture
    def clusters(self):
        return load_data_taxonomy("two_clusters.tif")

    def test_monosemous_leaf_scores_one(self, clusters):
        lattice = Lattice.for_window(clusters, ["trout"])
        scores = score_candidates(clusters, lattice, LOCAL)
        assert scores[0].concept == "a03"
        assert scores[0].cd == 1.0

    def test_worked_example_ranking(self, clusters):
        lattice = Lattice.for_window(clusters, ["trout", "bass", "salmon"])
        scores = score_candidates(clusters, lattice, LOCAL)
        by_concept = {s.concept: s for s in scores}
        assert scores[0].concept == "a01"
        assert scores[0].cd == pytest.approx(1.8830969993726603, abs=1e-9)
        assert scores[0].marks == 3
        assert by_concept["a00"].cd == pytest.approx(0.7453053814111115, abs=1e-9)
        assert by_concept["e00"].marks == 4  # both senses of "bass" count
        assert by_concept["e00"].cd == pytest.approx(0.5059016245013731, abs=1e-9)
        assert by_concept["b01"].cd == pytest.approx(0.25, abs=1e-12)
        # leaves score 1.0 and tie-break by ascending id after descendants
        ones = [s.concept for s in scores if s.cd == 1.0]
        assert ones == ["a02", "a03", "a04", "b02"]

    def test_duplicate_occurrences_score_like_single(self, clusters):
        single = Lattice.for_window(clusters, ["trout", "bass"])
        doubled = Lattice.for_window(clusters, ["trout", "bass", "bass"])
        s1 = {s.concept: (s.cd, s.marks) for s in score_candidates(clusters, single, LOCAL)}
        s2 = {s.concept: (s.cd, s.marks) for s in score_candidates(clusters, doubled, LOCAL)}
        assert s1 == s2

    def test_covered_and_mark_floor(self, clusters):
        lattice = Lattice.for_window(clusters, ["trout", "bass", "salmon"])
        for s in score_candidates(clusters, lattice, LOCAL):
            lemmas_covered = {lattice.lemmas[i] for i in s.covered}
            assert s.marks >= len(lemmas_covered)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
        dedup=st.booleans(),
    )
    def test_matches_brute_force(self, seed, mode, dedup):
        rng = random.Random(seed)
        t, ref = random_case(rng, max_synsets=60, min_synsets=2)
        window = random_window(rng, t)
        params = DensityParams(nhyp_mode=mode)
        lattice = Lattice(
            lemmas=tuple(lemma for lemma, _ in window),
            remaining=[set(senses) for _, senses in window],
            frozen=[rng.random() < 0.3 for _ in window],
        )
        got = {
            s.concept: (s.marks, s.cd)
            for s in score_candidates(t, lattice, params, dedup_by_lemma=dedup)
        }
        expected = brute_score_all(ref, window, params, dedup)
        for concept, (m, cd) in expected.items():
            if m == 0:
                assert concept not in got
            else:
                assert got[concept][0] == m
                assert got[concept][1] == pytest.approx(cd, abs=1e-12)
        assert set(got) == {c for c, (m, _) in expected.items() if m > 0}


def test_exact_ties_order_by_id_and_near_ties_by_cd():
    # the two leaves tie exactly at 1/1 and order by ascending id; the root
    # lands within one ulp of 1.0 (bisected nhyp) and sorts after them --
    # an exact three-way tie would order the same way via the
    # fewer-descendants clause
    from helpers import build_taxonomy

    t = build_taxonomy(
        "S\tr\tnoun.act\ttop:0\n"
        "S\tx\tnoun.act\twa:0\nS\ty\tnoun.act\twb:0\n"
        "H\tx\tr\nH\ty\tr\n"
    )
    assert t.global_nhyp() == pytest.approx(2.0, abs=1e-9)
    lattice = Lattice.for_window(t, ["wa", "wb"])
    scores = score_candidates(t, lattice, DensityParams(nhyp_mode=NhypMode.GLOBAL))
    assert [s.concept for s in scores] == ["x", "y", "r"]
    assert scores[0].cd == scores[1].cd == 1.0
    assert scores[2].cd == pytest.approx(1.0, abs=1e-12)


def loop_rule(score, lattice):
    """The elimination loop's rule on a full score, derived from the lattice."""
    narrows = any(
        not lattice.frozen[i] and len(score.covered[i]) < len(lattice.remaining[i])
        for i in score.covered
    )
    assert score.resolvable == narrows
    return narrows and len({lattice.lemmas[i] for i in score.covered}) >= 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    dedup=st.booleans(),
)
def test_qualifying_is_full_list_filtered_by_loop_rule(seed, meronymy, mode, dedup):
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    window = random_window(rng, t, max_words=7)
    params = DensityParams(nhyp_mode=mode)
    lattice = Lattice(
        lemmas=tuple(lemma for lemma, _ in window),
        remaining=[set(senses) for _, senses in window],
        frozen=[rng.random() < 0.3 for _ in window],
    )
    full = score_candidates(t, lattice, params, dedup)
    fast = score_candidates(t, lattice, params, dedup, qualifying=True)
    assert fast == [s for s in full if loop_rule(s, lattice)][:1]
    # the qualifying call keeps its sort keys on the lattice across freezes,
    # so each later call rescores only what the freezes touched
    order = [i for i in range(len(window)) if not lattice.frozen[i]]
    rng.shuffle(order)
    for step in order:
        senses = sorted(lattice.remaining[step])
        lattice.freeze(step, rng.sample(senses, rng.randint(1, len(senses))))
        fresh = Lattice(lattice.lemmas, [set(r) for r in lattice.remaining], list(lattice.frozen))
        full = score_candidates(t, fresh, params, dedup)
        fast = score_candidates(t, lattice, params, dedup, qualifying=True)
        assert fast == [s for s in full if loop_rule(s, fresh)][:1]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    dedup=st.booleans(),
)
def test_freeze_keeps_scores_equal_to_a_fresh_lattice(seed, meronymy, mode, dedup):
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    window = random_window(rng, t, max_words=7)
    params = DensityParams(nhyp_mode=mode)
    lemmas = tuple(lemma for lemma, _ in window)
    frozen = [rng.random() < 0.3 for _ in window]
    # one lattice per scorer, so that each keeps its own scores across freezes
    lattices = {
        qualifying: Lattice(lemmas, [set(senses) for _, senses in window], list(frozen))
        for qualifying in (False, True)
    }
    order = [i for i in range(len(window)) if not frozen[i]]
    rng.shuffle(order)
    for step in [None] + order:
        if step is not None:
            senses = sorted(lattices[False].remaining[step])
            keep = rng.sample(senses, rng.randint(1, len(senses)))
            for lattice in lattices.values():
                lattice.freeze(step, keep)
        # several freezes may fall between two scores, as in the loop
        if step is not None and rng.random() < 0.3:
            continue
        state = lattices[False]
        fresh = Lattice(lemmas, [set(r) for r in state.remaining], list(state.frozen))
        for qualifying, lattice in lattices.items():
            assert lattice.remaining == state.remaining and lattice.frozen == state.frozen
            got = score_candidates(t, lattice, params, dedup, qualifying=qualifying)
            assert got == score_candidates(t, fresh, params, dedup, qualifying=qualifying)
            # a covered word always keeps some of its remaining senses
            assert all(
                senses and senses <= state.remaining[i]
                for score in got
                for i, senses in score.covered.items()
            )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    dedup=st.booleans(),
)
def test_queued_freezes_survive_an_early_return_and_a_key_switch(seed, meronymy, mode, dedup):
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    window = random_window(rng, t, max_words=7)
    params = DensityParams(nhyp_mode=mode)
    lemmas = tuple(lemma for lemma, _ in window)
    lattice = Lattice(lemmas, [set(senses) for _, senses in window], [False] * len(window))

    def fresh_call(qualifying):
        fresh = Lattice(lemmas, [set(r) for r in lattice.remaining], list(lattice.frozen))
        return score_candidates(t, fresh, params, dedup, qualifying=qualifying)

    assert score_candidates(t, lattice, params, dedup, qualifying=True) == fresh_call(True)
    # freeze every open word: the next qualifying call has nothing to select
    # and returns before the freezes are taken out of the coverage map
    opened = [i for i, senses in enumerate(lattice.remaining) if len(senses) >= 2]
    for i in opened:
        senses = sorted(lattice.remaining[i])
        lattice.freeze(i, rng.sample(senses, rng.randint(1, len(senses))))
    assert score_candidates(t, lattice, params, dedup, qualifying=True) == []
    assert len(lattice._pending) == len(opened)
    # the queued freezes reach a call with other arguments, then the old ones again
    for qualifying in (False, True):
        got = score_candidates(t, lattice, params, dedup, qualifying=qualifying)
        assert got == fresh_call(qualifying)


def test_freeze_narrows_each_word_once_to_a_subset():
    t = load_data_taxonomy("two_clusters.tif")
    lattice = Lattice.for_window(t, ["trout", "bass"])
    score_candidates(t, lattice, LOCAL)
    with pytest.raises(ValueError, match="non-empty subset"):
        lattice.freeze(1, [])
    with pytest.raises(ValueError, match="non-empty subset"):
        lattice.freeze(1, ["a03"])  # a trout sense, not a bass one
    lattice.freeze(1, ["a02"])
    assert lattice.remaining[1] == {"a02"} and lattice.frozen[1]
    with pytest.raises(ValueError, match="already frozen"):
        lattice.freeze(1, ["a02"])
