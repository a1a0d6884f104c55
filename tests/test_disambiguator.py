"""Window assembly and the per-window elimination loop.

The hand-derived 15-synset scenario (tests/data/two_clusters.tif,
derivation in docs/worked_example.md): window [trout, bass, salmon],
target bass.  The fish cluster concept a01 (4 descendants, height 1,
local nhyp 3) holds three marks and wins with

    local nhyp:  (1 + 3 + 3**(2**0.2)) / 4 = 1.883096999372660...
    global nhyp: (1 + 2 + 2**(2**0.2)) / 4 = 1.304284417469445...

leaving bass Full on its aquatic sense a02.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.density import DensityParams, Lattice, NhypMode, score_candidates
from cdwsd.disambiguator import (
    Assignment,
    Method,
    NounOccurrence,
    Outcome,
    Window,
    WindowTrace,
    _decide,
    apply_random_fallback,
    build_window,
    disambiguate_document,
    disambiguate_window,
    write_assignments,
)
from cdwsd.taxonomy import RelationMode, Taxonomy

from helpers import DATA, load_data_taxonomy, random_taxonomy

LOCAL = DensityParams(nhyp_mode=NhypMode.LOCAL)
GLOBAL = DensityParams(nhyp_mode=NhypMode.GLOBAL)


def occurrences(*lemmas):
    return [NounOccurrence(i, lemma) for i, lemma in enumerate(lemmas)]


@pytest.fixture
def clusters():
    return load_data_taxonomy("two_clusters.tif")


class TestBuildWindow:
    def test_single_noun(self):
        nouns = occurrences("trout")
        w = build_window(nouns, 0, 3)
        assert [o.lemma for o in w.members] == ["trout"]
        assert w.target == 0

    def test_left_edge_extends_right(self):
        nouns = occurrences(*[f"n{i}" for i in range(10)])
        w = build_window(nouns, 0, 5)
        assert [o.doc_position for o in w.members] == [0, 1, 2, 3, 4]
        assert w.members[w.target].doc_position == 0

    def test_right_edge_extends_left(self):
        nouns = occurrences(*[f"n{i}" for i in range(10)])
        w = build_window(nouns, 9, 5)
        assert [o.doc_position for o in w.members] == [5, 6, 7, 8, 9]
        assert w.members[w.target].doc_position == 9

    def test_centered(self):
        nouns = occurrences(*[f"n{i}" for i in range(11)])
        w = build_window(nouns, 5, 5)
        assert [o.doc_position for o in w.members] == [3, 4, 5, 6, 7]
        assert w.members[w.target].doc_position == 5

    def test_even_or_nonpositive_rejected(self):
        nouns = occurrences("trout")
        with pytest.raises(ValueError):
            build_window(nouns, 0, 4)
        with pytest.raises(ValueError):
            build_window(nouns, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_window([], 0, 3)

    def test_nearest_consecutive_block_exhaustive(self):
        # reference: of the blocks of min(size, n) consecutive nouns holding
        # the target, the one whose farthest member is nearest the target
        for n in range(1, 21):
            nouns = occurrences(*[f"n{i}" for i in range(n)])
            for size in range(1, 26, 2):
                m = min(size, n)
                for target in range(n):
                    lo = min(
                        range(max(0, target - m + 1), min(target, n - m) + 1),
                        key=lambda lo: max(target - lo, lo + m - 1 - target),
                    )
                    w = build_window(nouns, target, size)
                    assert w.members == tuple(nouns[lo : lo + m])
                    assert w.target == target - lo


class TestDisambiguateWindow:
    def test_monosemous_target_skips_loop(self, clusters):
        w = build_window(occurrences("trout", "bass", "salmon"), 0, 3)
        a, trace = disambiguate_window(clusters, w, LOCAL)
        assert a.outcome is Outcome.FULL
        assert a.method is Method.MONOSEMOUS
        assert a.senses == ("a03",)
        assert trace.winners == []

    def test_lone_polysemous_noun_unanswerable(self, clusters):
        w = build_window(occurrences("bass"), 0, 3)
        a, _ = disambiguate_window(clusters, w, LOCAL)
        assert a.outcome is Outcome.NONE
        assert a.senses == ()
        assert a.winning_cd is None

    def test_worked_example_local(self, clusters):
        w = build_window(occurrences("trout", "bass", "salmon"), 1, 3)
        a, trace = disambiguate_window(clusters, w, LOCAL)
        assert a.outcome is Outcome.FULL
        assert a.method is Method.DENSITY
        assert a.senses == ("a02",)
        assert a.winning_cd == pytest.approx(1.8830969993726603, abs=1e-9)
        assert [s.concept for s in trace.winners] == ["a01"]

    def test_worked_example_global(self, clusters):
        w = build_window(occurrences("trout", "bass", "salmon"), 1, 3)
        a, _ = disambiguate_window(clusters, w, GLOBAL)
        assert a.senses == ("a02",)
        assert a.winning_cd == pytest.approx(1.3042844174694451, abs=1e-9)

    def test_artifact_context_flips_the_choice(self, clusters):
        w = build_window(occurrences("guitar", "bass", "drum"), 1, 3)
        a, _ = disambiguate_window(clusters, w, LOCAL)
        assert a.senses == ("b02",)

    def test_full_outcome_cd_is_max_qualifying(self, clusters):
        # the recorded cd must equal the winner that froze the target
        w = build_window(occurrences("trout", "bass", "salmon"), 1, 3)
        a, trace = disambiguate_window(clusters, w, LOCAL)
        froze = next(s for s in trace.winners if s.covered.get(1))
        assert a.winning_cd == froze.cd


class TestDisambiguateDocument:
    def test_one_assignment_per_noun_in_order(self, clusters):
        nouns = occurrences("trout", "bass", "salmon", "guitar", "bass", "drum")
        assignments = disambiguate_document(clusters, nouns, LOCAL, window_size=3)
        assert [a.occurrence.doc_position for a in assignments] == list(range(6))
        assert assignments[1].senses == ("a02",)
        assert assignments[4].senses == ("b02",)

    def test_all_monosemous_ignores_window_and_seed(self, clusters):
        nouns = occurrences("trout", "salmon", "guitar")
        for w in (1, 3, 5):
            for seed in (0, 1):
                assignments = apply_random_fallback(
                    clusters,
                    disambiguate_document(clusters, nouns, LOCAL, window_size=w),
                    random.Random(seed),
                )
                assert [a.senses for a in assignments] == [("a03",), ("a04",), ("b03",)]
                assert all(a.method is Method.MONOSEMOUS for a in assignments)

    def test_fallback_gives_full_coverage(self, clusters):
        nouns = occurrences("bass")  # unanswerable without fallback
        plain = disambiguate_document(clusters, nouns, LOCAL, window_size=3)
        assert plain[0].outcome is Outcome.NONE
        covered = apply_random_fallback(
            clusters,
            disambiguate_document(clusters, nouns, LOCAL, window_size=3),
            random.Random(7),
        )
        assert covered[0].outcome is Outcome.FULL
        assert covered[0].method is Method.FALLBACK
        assert covered[0].senses[0] in {"a02", "b02"}

    def test_same_seed_same_output(self, clusters):
        nouns = occurrences("bass", "bass", "bass", "trout")
        runs = [
            apply_random_fallback(
                clusters,
                disambiguate_document(clusters, nouns, LOCAL, window_size=1),
                random.Random(42),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_window_locality(self):
        # an occurrence's assignment may depend only on nouns within W of it
        rng = random.Random(5)
        t = random_taxonomy(rng, max_synsets=40, min_synsets=20)
        lemmas = sorted(t.lemma_index)
        doc = [rng.choice(lemmas) for _ in range(12)]
        w = 3
        base = disambiguate_document(t, occurrences(*doc), GLOBAL, window_size=w)
        # perturb the tail far beyond the first noun's window
        tail = [rng.choice(lemmas) for _ in range(4)]
        changed = doc[: w + 2] + tail
        other = disambiguate_document(t, occurrences(*changed), GLOBAL, window_size=w)
        for k in range(2):  # windows of nouns 0..1 never see past index w+1
            assert base[k].outcome == other[k].outcome
            assert base[k].senses == other[k].senses

    def test_partial_sets_strictly_between(self, clusters):
        # with fallback off, a partial outcome has 1 < |set| < polysemy
        nouns = occurrences("bass", "trout")
        for a in disambiguate_document(clusters, nouns, LOCAL, window_size=3):
            if a.outcome is Outcome.PARTIAL:
                poly = len(clusters.senses_of(a.occurrence.lemma))
                assert 1 < len(a.senses) < poly

    def test_even_window_rejected(self, clusters):
        with pytest.raises(ValueError):
            disambiguate_document(clusters, occurrences("trout"), LOCAL, window_size=4)


class TestOutputFormat:
    def test_lines(self, clusters):
        nouns = occurrences("trout", "bass", "salmon")
        assignments = disambiguate_document(clusters, nouns, GLOBAL, window_size=3)
        buf = io.StringIO()
        write_assignments(clusters, assignments, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "position\tlemma\toutcome\tsense_keys\tmethod\tcd"
        assert lines[1] == "0\ttrout\tfull\tnoun.animal.0\tmonosemous\t-"
        assert lines[2] == "1\tbass\tfull\tnoun.animal.0\tdensity\t1.304284"
        assert lines[3] == "2\tsalmon\tfull\tnoun.animal.0\tmonosemous\t-"

    def test_none_outcome_line(self, clusters):
        assignments = disambiguate_document(
            clusters, occurrences("bass"), LOCAL, window_size=3
        )
        buf = io.StringIO()
        write_assignments(clusters, assignments, buf)
        assert buf.getvalue().splitlines()[1] == "0\tbass\tnone\t-\tdensity\t-"

    def test_partial_keys_comma_separated(self, clusters):
        a = Assignment(
            occurrence=NounOccurrence(0, "bass"),
            outcome=Outcome.PARTIAL,
            senses=("a02", "b02"),
            method=Method.DENSITY,
            winning_cd=0.5,
        )
        buf = io.StringIO()
        write_assignments(clusters, [a], buf)
        assert (
            buf.getvalue().splitlines()[1]
            == "0\tbass\tpartial\tnoun.animal.0,noun.artifact.0\tdensity\t0.500000"
        )


def test_loop_terminates_within_total_senses(clusters=None):
    t = load_data_taxonomy("two_clusters.tif")
    rng = random.Random(11)
    lemmas = sorted(t.lemma_index)
    for _ in range(50):
        doc = [rng.choice(lemmas) for _ in range(rng.randint(1, 7))]
        target = rng.randrange(len(doc))
        w = build_window(occurrences(*doc), target, 7)
        total_senses = sum(len(t.senses_of(o.lemma)) for o in w.members)
        _, trace = disambiguate_window(t, w, GLOBAL)
        assert len(trace.winners) <= total_senses


class TestPartialOutcome:
    # lemma "w" has three senses: two in the beast cluster, one in gear;
    # a beast-side context narrows it to the two beast senses only
    TIF = (
        "S\tr\tnoun.tops\ttop:0\n"
        "S\tqa\tnoun.animal\tbeast:0\n"
        "S\tqa1\tnoun.animal\tw:0\n"
        "S\tqa2\tnoun.animal\tw:1\n"
        "S\tqa3\tnoun.animal\tpet:0\n"
        "S\tqb\tnoun.artifact\tgear:0\n"
        "S\tqb1\tnoun.artifact\tw:0\n"
        "H\tqa\tr\nH\tqb\tr\nH\tqa1\tqa\nH\tqa2\tqa\nH\tqa3\tqa\nH\tqb1\tqb\n"
    )

    def test_partial_outcome_and_cd(self):
        from helpers import build_taxonomy

        t = build_taxonomy(self.TIF)
        w = build_window(occurrences("w", "pet"), 0, 3)
        a, trace = disambiguate_window(t, w, LOCAL)
        assert a.outcome is Outcome.PARTIAL
        assert a.senses == ("qa1", "qa2")
        assert [s.concept for s in trace.winners] == ["qa"]
        # beast subhierarchy: 4 nodes, height 1, nhyp 3, three marks
        assert a.winning_cd == pytest.approx(1.8830969993726603, abs=1e-9)

    def test_fallback_draws_from_partial_set(self):
        from helpers import build_taxonomy

        t = build_taxonomy(self.TIF)
        nouns = occurrences("w", "pet")
        for seed in range(8):
            assignments = apply_random_fallback(
                t, disambiguate_document(t, nouns, LOCAL, window_size=3), random.Random(seed)
            )
            assert assignments[0].method is Method.FALLBACK
            assert assignments[0].senses[0] in {"qa1", "qa2"}  # never qb1


def test_assigned_senses_belong_to_lemma():
    rng = random.Random(21)
    t = random_taxonomy(rng, max_synsets=50, min_synsets=10)
    lemmas = sorted(t.lemma_index)
    doc = occurrences(*[rng.choice(lemmas) for _ in range(25)])
    plain = disambiguate_document(t, doc, GLOBAL, 5)
    for assignments in (plain, apply_random_fallback(t, plain, random.Random(2))):
        for a in assignments:
            allowed = set(t.senses_of(a.occurrence.lemma))
            assert set(a.senses) <= allowed
            if a.outcome is Outcome.FULL:
                assert len(a.senses) == 1
            elif a.outcome is Outcome.PARTIAL:
                assert 1 < len(a.senses) < len(allowed)
            else:
                assert a.senses == ()


@pytest.mark.parametrize("mode", [NhypMode.LOCAL, NhypMode.GLOBAL])
def test_window_walks_each_sense_ancestors_at_most_twice(mode, monkeypatch):
    # car_parts has meronym cycles, so ancestor sets span most of the
    # taxonomy; re-walking them every iteration is what this bound forbids
    t = load_data_taxonomy("car_parts.tif", RelationMode.HYPERNYMY_MERONYMY)
    words = (DATA / "car_parts.txt").read_text(encoding="utf-8").split()
    nouns = occurrences(*words)
    calls = []
    ancestors_of = Taxonomy.ancestors_of

    def counted(self, sense):
        calls.append(sense)
        return ancestors_of(self, sense)

    monkeypatch.setattr(Taxonomy, "ancestors_of", counted)
    looped = 0
    for size in (5, 9, len(nouns)):
        for target in range(len(nouns)):
            window = build_window(nouns, target, size)
            calls.clear()
            _, trace = disambiguate_window(t, window, DensityParams(nhyp_mode=mode))
            senses = sum(len(t.senses_of(o.lemma)) for o in window.members)
            assert len(calls) <= 2 * senses
            looped += len(trace.winners) >= 3
    assert looped  # some windows run three or more iterations


def reference_window(t, window, params):
    """The elimination loop over the full scorer and an explicit loop rule."""
    occ = window.members[window.target]
    all_senses = t.senses_of(occ.lemma)
    if len(all_senses) == 1:
        return Assignment(occ, Outcome.FULL, all_senses, Method.MONOSEMOUS), WindowTrace([])
    lemmas = tuple(o.lemma for o in window.members)
    remaining = [set(t.senses_of(lemma)) for lemma in lemmas]
    frozen = [False] * len(lemmas)
    winners, frozen_cd = [], [None] * len(lemmas)
    while True:
        # a fresh lattice per iteration: the oracle shares no incremental state
        lattice = Lattice(lemmas, [set(r) for r in remaining], list(frozen))
        winner = next(
            (
                s
                for s in score_candidates(t, lattice, params)
                if len({lemmas[i] for i in s.covered}) >= 2
                and any(
                    not frozen[i] and len(s.covered[i]) < len(remaining[i])
                    for i in s.covered
                )
            ),
            None,
        )
        if winner is None:
            break
        assert len(winners) < len(window.members)  # each winner freezes a word
        winners.append(winner)
        for idx in winner.covered:
            if not frozen[idx]:
                remaining[idx] = set(winner.covered[idx])
                frozen[idx] = True
                frozen_cd[idx] = winner.cd
    left = tuple(sorted(remaining[window.target]))
    winning_cd = frozen_cd[window.target]
    if len(left) == 1:
        outcome = Outcome.FULL
    elif len(left) < len(all_senses):
        outcome = Outcome.PARTIAL
    else:
        outcome, left, winning_cd = Outcome.NONE, (), None
    return Assignment(occ, outcome, left, Method.DENSITY, winning_cd), WindowTrace(winners)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    size=st.sampled_from([1, 3, 5, 7, 9]),
)
def test_window_matches_reference_loop(seed, meronymy, mode, size):
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    params = DensityParams(nhyp_mode=mode)
    lemmas = sorted(t.lemma_index)
    nouns = occurrences(*[rng.choice(lemmas) for _ in range(rng.randint(1, 12))])
    for target in range(len(nouns)):
        window = build_window(nouns, target, size)
        assert disambiguate_window(t, window, params) == reference_window(t, window, params)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    size=st.sampled_from([1, 3, 5, 7, 9]),
)
def test_document_matches_one_window_per_target(seed, meronymy, mode, size):
    # near a document's ends consecutive targets share a window's members
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    params = DensityParams(nhyp_mode=mode)
    lemmas = sorted(t.lemma_index)
    nouns = occurrences(*[rng.choice(lemmas) for _ in range(rng.randint(1, 20))])
    assert disambiguate_document(t, nouns, params, size) == [
        disambiguate_window(t, build_window(nouns, i, size), params)[0]
        for i in range(len(nouns))
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    meronymy=st.booleans(),
    mode=st.sampled_from([NhypMode.LOCAL, NhypMode.GLOBAL]),
    size=st.sampled_from([1, 3, 5, 7, 9]),
)
def test_any_member_decided_from_one_loop_run(seed, meronymy, mode, size):
    # the loop reads only the members, so one run's trace decides them all
    rng = random.Random(seed)
    t = random_taxonomy(rng, max_synsets=40, min_synsets=2, meronymy=meronymy)
    params = DensityParams(nhyp_mode=mode)
    lemmas = sorted(t.lemma_index)
    members = tuple(occurrences(*[rng.choice(lemmas) for _ in range(size)]))
    polysemous = [i for i, occ in enumerate(members) if len(t.senses_of(occ.lemma)) > 1]
    for i in polysemous:
        _, trace = disambiguate_window(t, Window(i, members), params)
        for j in range(size):
            assert _decide(t, Window(j, members), trace) == (
                disambiguate_window(t, Window(j, members), params)[0]
            )
