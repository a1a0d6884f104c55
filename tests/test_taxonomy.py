import io
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdwsd.baselines import (
    SalienceTable,
    mutual_constraint_assignment,
    random_baseline,
    sussna_baseline,
    yarowsky_baseline,
)
from cdwsd.density import DensityParams, Lattice
from cdwsd.disambiguator import (
    NounOccurrence,
    Window,
    disambiguate_document,
    disambiguate_window,
)
from cdwsd.taxonomy import (
    NHYP_TOLERANCE,
    RelationMode,
    TaxonomyError,
    geometric_power_sum,
    load_taxonomy,
    solve_nhyp,
)

from helpers import (
    brute_children,
    brute_condensation,
    brute_height,
    brute_reachable,
    build_taxonomy,
    chain_cases_tif,
    distance_edge_cases_tif,
    load_data_taxonomy,
    meronym_clique_tif,
    random_case,
    random_taxonomy,
    random_tif,
    reference_taxonomy,
)

CHAIN = """\
S\ta\tnoun.act\ttop:0
S\tb\tnoun.act\tmiddle:0
S\tc\tnoun.act\tbottom:0
H\tb\ta
H\tc\tb
"""

DIAMOND = """\
S\tg\tnoun.act\tgrand:0
S\tp1\tnoun.act\tparent:0
S\tp2\tnoun.act\tparent:1
S\tk\tnoun.act\tkid:0
H\tp1\tg
H\tp2\tg
H\tk\tp1
H\tk\tp2
"""

# every library entry point that takes lemmas, called on the nouns "bass"
# and the unknown "xyzzy"
UNKNOWN_LEMMA_CALLS = {
    "Taxonomy.known_senses": lambda t, nouns: [t.known_senses(o.lemma) for o in nouns],
    "random_baseline": lambda t, nouns: random_baseline(nouns, t),
    "yarowsky_baseline": lambda t, nouns: yarowsky_baseline(t, nouns, SalienceTable()),
    "mutual_constraint_assignment": lambda t, nouns: mutual_constraint_assignment(
        t, [o.lemma for o in nouns], random.Random(0)),
    "sussna_baseline": lambda t, nouns: sussna_baseline(nouns, t),
    "Lattice.for_window": lambda t, nouns: Lattice.for_window(t, [o.lemma for o in nouns]),
    "disambiguate_window": lambda t, nouns: disambiguate_window(
        t, Window(target=1, members=tuple(nouns)), DensityParams()),
    "disambiguate_document": lambda t, nouns: disambiguate_document(
        t, nouns, DensityParams(), window_size=3),
}


class TestLoading:
    def test_single_synset(self):
        t = build_taxonomy("S\tx\tnoun.act\tthing:0\n")
        assert t.ancestors_of("x") == {"x"}
        assert t.subhierarchy_metrics("x").descendants == 1

    def test_three_node_chain(self):
        t = build_taxonomy(CHAIN)
        assert t.ancestors_of("c") == {"a", "b", "c"}
        assert t.children_of("a") == ("b",)

    def test_comments_and_blank_lines_skipped(self):
        t = build_taxonomy("# header\n\nS\tx\tnoun.act\tthing:0\n  # indented\n")
        assert len(t) == 1

    def test_forward_reference_resolves(self):
        t = build_taxonomy("H\tc\tp\nS\tc\tnoun.act\ta:0\nS\tp\tnoun.act\tb:0\n")
        assert t.children_of("p") == ("c",)

    @pytest.mark.parametrize(
        "text, lineno, unknown",
        [
            pytest.param("S\tx\tnoun.act\tthing:0\nH\tx\tnowhere\n", 2, "nowhere", id="unknown-parent"),
            pytest.param("S\ta\tnoun.act\ta:0\nH\ta\tq\nH\tz\tq\n", 2, "q", id="first-edge-in-file-order"),
            pytest.param("S\ta\tnoun.act\ta:0\nH\tp\tq\nH\ta\tp\n", 2, "p", id="child-named-first"),
            pytest.param("H\tx\ty\nS\tx\tnoun.act\tx:0\nM\tx\tw\n", 1, "y", id="forward-reference-resolves"),
            pytest.param(
                "S\ta\tnoun.act\ta:0\nS\tb\tnoun.act\ta:0\nH\ta\tzz\n", 3, "zz", id="before-sense-keys"
            ),
        ],
    )
    def test_dangling_edge(self, text, lineno, unknown):
        for mode in RelationMode:
            with pytest.raises(
                TaxonomyError, match=f"^line {lineno}: edge references unknown synset '{unknown}'$"
            ):
                build_taxonomy(text, mode)

    def test_hypernym_cycle(self):
        bad = "S\tx\tnoun.act\ta:0\nS\ty\tnoun.act\tb:0\nH\tx\ty\nH\ty\tx\n"
        with pytest.raises(TaxonomyError, match="cycle"):
            build_taxonomy(bad)

    def test_duplicate_synset_id(self):
        bad = "S\tx\tnoun.act\ta:0\nS\tx\tnoun.act\tb:0\n"
        with pytest.raises(TaxonomyError, match="line 2.*duplicate synset"):
            build_taxonomy(bad)

    def test_duplicate_sense_key(self):
        two = "S\tx\tnoun.act\ta:0\nS\ty\tnoun.act\ta:0\n"
        named = "duplicate sense key a%noun.act.0 in 'x' and 'y'"
        cases = [
            (two, named),
            ("S\tx\tnoun.act\tb:0,a:0,a:0\n", "duplicate sense key a%noun.act.0 in 'x' and 'x'"),
            # a later malformed line and a dangling edge win; a cycle loses
            (two + "S\tbroken\n", "line 3: S record needs 4 fields, got 2"),
            (two + "H\tx\tzz\n", "line 3: edge references unknown synset 'zz'"),
            (two + "H\tx\ty\nH\ty\tx\n", named),
        ]
        for text, error in cases:
            for mode in RelationMode:
                with pytest.raises(TaxonomyError) as info:
                    build_taxonomy(text, mode)
                assert str(info.value) == error

    def test_repeated_edge_loads_once(self):
        for mode in RelationMode:
            t = build_taxonomy(CHAIN + "H\tb\ta\nH\tc\tb\n", mode)
            assert t.children_of("a") == ("b",) and t.children_of("b") == ("c",)
            assert t.ancestors_of("c") == {"a", "b", "c"}
            assert t.distances("c", {"a"}) == {"a": 2}
            assert [t.subhierarchy_metrics(c).height for c in "abc"] == [2, 1, 0]

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(TaxonomyError, match="line 2"):
            build_taxonomy("S\tx\tnoun.act\tthing:0\nS\tbroken\n")

    def test_empty_lexfile_carries_line_number(self):
        with pytest.raises(TaxonomyError, match="^line 1: synset 'x' has empty lexfile$"):
            build_taxonomy("S\tx\t\tthing:0\n")

    def test_empty_lemma_field_carries_line_number(self):
        with pytest.raises(TaxonomyError, match="^line 1: bad lemma entry ''$"):
            build_taxonomy("S\tx\tnoun.act\t\n")

    def test_bad_lex_id(self):
        with pytest.raises(TaxonomyError, match="lex_id"):
            build_taxonomy("S\tx\tnoun.act\tthing:zero\n")

    def test_non_decimal_lex_id(self):
        # "²" is a digit to str.isdigit but not an integer to int()
        with pytest.raises(TaxonomyError, match="line 1: lex_id"):
            build_taxonomy("S\tx\tnoun.act\tthing:²\n")

    def test_unknown_record_type(self):
        with pytest.raises(TaxonomyError, match="unknown record type"):
            build_taxonomy("Z\tx\ty\n")

    def test_bytes_stream(self):
        t = load_taxonomy(io.BytesIO(b"S\tx\tnoun.act\tthing:0\n"))
        assert len(t) == 1


class TestSenses:
    def test_absent_lemma(self):
        t = build_taxonomy(CHAIN)
        assert t.senses_of("nothing") == ()

    def test_ascending_order(self):
        text = "S\ts2\tnoun.act\tword:1\nS\ts1\tnoun.act\tword:0\n"
        t = build_taxonomy(text)
        assert t.senses_of("word") == ("s1", "s2")

    def test_multiword_and_case(self):
        t = load_data_taxonomy("two_clusters.tif")
        assert t.senses_of("bass") == ("a02", "b02")
        sample = load_data_taxonomy("sample_taxonomy.tif")
        assert sample.senses_of("Police_Department") == ("g02",)
        assert sample.senses_of("prison_farm") == ("f01",)

    def test_sense_key_roundtrip(self):
        t = load_data_taxonomy("two_clusters.tif")
        assert t.resolve_sense_key("bass", "noun.animal", 0) == "a02"
        assert t.resolve_sense_key("bass", "noun.group", 0) is None
        assert t.sense_key_of("bass", "a02") == "noun.animal.0"

    def test_same_lex_id_in_two_lexfiles(self):
        text = "S\tx\tnoun.act\tbass:0\nS\ty\tnoun.animal\tbass:0,perch:2\n"
        for mode in RelationMode:
            t = build_taxonomy(text, mode)
            assert t.resolve_sense_key("bass", "noun.act", 0) == "x"
            assert t.resolve_sense_key("bass", "noun.animal", 0) == "y"
            assert t.resolve_sense_key("BASS", "noun.animal", 0) == "y"
            assert t.resolve_sense_key("bass", "noun.act", 1) is None
            assert t.resolve_sense_key("bass", "noun.group", 0) is None
            assert t.resolve_sense_key("perch", "noun.animal", 0) is None
            assert t.resolve_sense_key("perch", "noun.animal", 2) == "y"
            assert t.resolve_sense_key("trout", "noun.animal", 0) is None
            assert t.sense_key_of("bass", "x") == "noun.act.0"
            assert t.sense_key_of("Bass", "y") == "noun.animal.0"
            assert t.sense_key_of("perch", "x") is None

    def test_lemma_listed_twice_in_one_synset(self):
        for mode in RelationMode:
            t = build_taxonomy("S\tx\tnoun.animal\tBass:3,bass:1\n", mode)
            assert t.sense_key_of("bass", "x") == "noun.animal.1"
            assert t.resolve_sense_key("bass", "noun.animal", 3) == "x"
            assert t.resolve_sense_key("Bass", "noun.animal", 1) == "x"
            assert t.resolve_sense_key("bass", "noun.animal", 2) is None
            assert t.lemma_index == {"bass": ("x",)}

    def test_lemma_holding_a_colon(self):
        for mode in RelationMode:
            t = build_taxonomy("S\tx\tnoun.act\ta:b:2\n", mode)
            assert t.senses_of("A:B") == ("x",)
            assert t.resolve_sense_key("a:b", "noun.act", 2) == "x"
            assert t.resolve_sense_key("a", "noun.act", 2) is None
            assert t.sense_key_of("a:b", "x") == "noun.act.2"

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param(
                "S\tz\tnoun.animal\ta:0\nS\tx\tnoun.act\ta:0\nS\ty\tnoun.act\ta:0\n",
                "duplicate sense key a%noun.act.0 in 'x' and 'y'",
                id="first-holder",
            ),
            pytest.param(
                "S\tx\tnoun.act\ta:0\nS\ty\tnoun.act\ta:0\nS\tw\tnoun.act\ta:0\n",
                "duplicate sense key a%noun.act.0 in 'x' and 'y'",
                id="first-of-three-holders",
            ),
            pytest.param(
                "S\tx\tnoun.act\ta:0,b:0\nS\ty\tnoun.act\tb:0,a:0\n",
                "duplicate sense key b%noun.act.0 in 'x' and 'y'",
                id="first-repeat",
            ),
            pytest.param(
                "S\tx\tnoun.act\tc:0,b:0\nS\ty\tnoun.act\tb:1,c:0,b:0\n",
                "duplicate sense key c%noun.act.0 in 'x' and 'y'",
                id="first-repeat-in-file-order",
            ),
            pytest.param(
                "S\tx\tnoun.act\tA:0\nS\ty\tnoun.act\ta:0\n",
                "duplicate sense key a%noun.act.0 in 'x' and 'y'",
                id="case-folded",
            ),
        ],
    )
    def test_duplicate_sense_key_precedence(self, text, error):
        for mode in RelationMode:
            with pytest.raises(TaxonomyError) as info:
                build_taxonomy(text, mode)
            assert str(info.value) == error

    @pytest.mark.parametrize("entry_point", list(UNKNOWN_LEMMA_CALLS), ids=str)
    def test_unknown_lemma_is_rejected_by_every_entry_point(self, entry_point):
        t = load_data_taxonomy("two_clusters.tif")
        nouns = [NounOccurrence(0, "bass"), NounOccurrence(1, "xyzzy")]
        with pytest.raises(ValueError) as info:
            UNKNOWN_LEMMA_CALLS[entry_point](t, nouns)
        assert str(info.value) == "lemma 'xyzzy' is not in the taxonomy"


class TestMetrics:
    def test_leaf_convention(self):
        t = build_taxonomy(CHAIN)
        m = t.subhierarchy_metrics("c")
        assert (m.descendants, m.height, m.local_nhyp) == (1, 0, 0.0)

    def test_binary_tree_of_seven(self):
        t = load_data_taxonomy("two_clusters.tif")
        m = t.subhierarchy_metrics("a00")
        assert (m.descendants, m.height) == (7, 2)
        assert m.local_nhyp == pytest.approx(2.0, abs=1e-9)

    def test_chain_of_four(self):
        text = CHAIN + "S\td\tnoun.act\tdeep:0\nH\td\tc\n"
        t = build_taxonomy(text)
        m = t.subhierarchy_metrics("a")
        assert (m.descendants, m.height) == (4, 3)
        assert m.local_nhyp == pytest.approx(1.0, abs=1e-9)

    def test_unknown_concept(self):
        t = build_taxonomy(CHAIN)
        with pytest.raises(TaxonomyError, match="unknown synset"):
            t.subhierarchy_metrics("zzz")

    def test_global_nhyp_single(self):
        assert build_taxonomy("S\tx\tnoun.act\tthing:0\n").global_nhyp() == 0.0

    def test_global_nhyp_binary_tree(self):
        text = "\n".join(
            f"S\tn{i}\tnoun.act\tw{i}:0" for i in range(7)
        ) + "\n" + "\n".join(
            f"H\tn{i}\tn{(i - 1) // 2}" for i in range(1, 7)
        ) + "\n"
        t = build_taxonomy(text)
        assert t.global_nhyp() == pytest.approx(2.0, abs=1e-9)

    def test_global_nhyp_two_roots_closed_form(self):
        # Heights 2 and 1, ten synsets: 1 + x + x^2 = 10, x = (-1+sqrt(37))/2.
        lines = [f"S\tr{i}\tnoun.act\tw{i}:0" for i in range(10)]
        lines += ["H\tr1\tr0", "H\tr2\tr1"]  # root r0, height 2
        lines += ["H\tr4\tr3"]  # root r3, height 1
        t = build_taxonomy("\n".join(lines) + "\n")
        expected = (-1 + 37**0.5) / 2
        assert t.global_nhyp() == pytest.approx(expected, abs=1e-9)
        assert t.global_nhyp() == pytest.approx(2.541381265149110, abs=1e-9)


class TestAncestors:
    def test_root_is_own_ancestor(self):
        t = build_taxonomy(CHAIN)
        assert t.ancestors_of("a") == {"a"}

    def test_chain_leaf(self):
        t = build_taxonomy(CHAIN)
        assert t.ancestors_of("c") == {"a", "b", "c"}

    def test_diamond_no_duplicates(self):
        t = build_taxonomy(DIAMOND)
        assert t.ancestors_of("k") == {"k", "p1", "p2", "g"}

    def test_unknown_sense(self):
        t = build_taxonomy(CHAIN)
        with pytest.raises(TaxonomyError):
            t.ancestors_of("zzz")


class TestCyclicMeronymy:
    # whole->part edge pointing back up the hypernym chain makes a cycle
    CYCLE = CHAIN + "M\tc\ta\n"

    def test_descendants_terminate(self):
        t = build_taxonomy(self.CYCLE, RelationMode.HYPERNYMY_MERONYMY)
        assert t.descendant_set("a") == {"a", "b", "c"}
        assert t.descendant_set("c") == {"a", "b", "c"}

    def test_height_is_longest_simple_path(self):
        t = build_taxonomy(self.CYCLE, RelationMode.HYPERNYMY_MERONYMY)
        # {a, b, c} is one component of three, so 2 edges: as long as the
        # longest simple path c -> a -> b
        assert t.subhierarchy_metrics("c").height == 2
        assert t.subhierarchy_metrics("a").height == 2

    def test_ancestors_terminate(self):
        t = build_taxonomy(self.CYCLE, RelationMode.HYPERNYMY_MERONYMY)
        assert t.ancestors_of("a") == {"a", "b", "c"}

    def test_hypernym_subgraph_still_validated(self):
        # the cycle check must ignore meronym edges
        t = build_taxonomy(self.CYCLE, RelationMode.HYPERNYMY)
        assert t.descendant_set("a") == {"a", "b", "c"}


def random_edges_tif(rng, hypernyms_any_direction):
    """At most ten synsets; meronym edges in any direction, so they may close
    cycles.  Hypernym edges point to a lower id unless any direction is
    allowed.  Returns the text and the hypernym edges as (child, parent)."""
    n = rng.randint(1, 10)
    lines = [f"S\tn{i}\tnoun.act\tw{i}:0" for i in range(n)]
    hyper = set()
    for child in range(n):
        for _ in range(rng.choice([0, 1, 1, 2])):
            if hypernyms_any_direction:
                hyper.add((child, rng.randrange(n)))
            elif child:
                hyper.add((child, rng.randrange(child)))
    lines += [f"H\tn{c}\tn{p}" for c, p in sorted(hyper)]
    for _ in range(rng.randint(0, n)):
        lines.append(f"M\tn{rng.randrange(n)}\tn{rng.randrange(n)}")
    return "\n".join(lines) + "\n", hyper


def longest_simple_path(down, node, on_path=frozenset()):
    on_path = on_path | {node}
    return max(
        (1 + longest_simple_path(down, c, on_path) for c in down[node] if c not in on_path),
        default=0,
    )


def assert_metrics_match_oracles(t, ref):
    """Heights equal the condensation oracle.  They are never below the
    longest simple path, and equal it for a concept that reaches no cycle."""
    down = brute_children(ref)
    component, heights = brute_condensation(ref)
    on_cycle = {c for c in ref if len(component[c]) > 1 or c in down[c]}
    for concept in ref:
        m = t.subhierarchy_metrics(concept)
        assert m.height == heights[concept]
        simple = longest_simple_path(down, concept)
        assert m.height >= simple
        if not on_cycle & brute_reachable(ref, concept):
            assert m.height == simple
        assert m.descendants == len(brute_reachable(ref, concept))
    roots = [sid for sid, rec in ref.records.items() if not rec.hypernyms]
    big_h = max((heights[r] for r in roots), default=0)
    assert t.global_nhyp() == solve_nhyp(len(t), big_h)


class TestCycles:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_heights_match_condensation_oracle(self, seed):
        text, _ = random_edges_tif(random.Random(seed), hypernyms_any_direction=False)
        for mode in RelationMode:
            ref = reference_taxonomy(text, mode)
            assert_metrics_match_oracles(build_taxonomy(text, mode), ref)
            # a fresh taxonomy queried in the other order: no query may leak
            # into a later one
            t = build_taxonomy(text, mode)
            _, heights = brute_condensation(ref)
            for concept in sorted(t, reverse=True):
                assert t.subhierarchy_metrics(concept).height == heights[concept]

    # b is a hyponym of a, and a is part of b: an H and an M edge close
    # a 2-cycle between the same pair
    TWO_CYCLE = CHAIN + "M\tb\ta\n"

    def test_meronym_two_cycle_counts_its_size(self):
        t = build_taxonomy(self.TWO_CYCLE, RelationMode.HYPERNYMY_MERONYMY)
        # {a, b} spans one edge above b -> c
        assert [t.subhierarchy_metrics(c).height for c in "abc"] == [2, 2, 0]
        assert t.global_nhyp() == solve_nhyp(3, 2)
        t = build_taxonomy(self.TWO_CYCLE)
        assert [t.subhierarchy_metrics(c).height for c in "abc"] == [2, 1, 0]

    def test_meronym_self_loop_keeps_height(self):
        for mode in RelationMode:
            looped = build_taxonomy(CHAIN + "M\tb\tb\n", mode)
            plain = build_taxonomy(CHAIN, mode)
            for concept in "abc":
                assert looped.subhierarchy_metrics(concept) == plain.subhierarchy_metrics(concept)

    def test_ladder_below_a_cycle_is_searched_in_bounded_time(self):
        # root R on a meronym cycle R <-> c, above 24 levels of two nodes,
        # each a hyponym of both nodes above it: 2**24 simple paths from R
        levels = 24
        lines = ["S\tR\tnoun.act\tr:0", "S\tc\tnoun.act\tc:0", "M\tR\tc", "M\tc\tR"]
        above = ["R"]
        for level in range(1, levels + 1):
            nodes = [f"l{level}{side}" for side in "ab"]
            for node in nodes:
                lines.append(f"S\t{node}\tnoun.act\t{node}:0")
                lines += [f"H\t{node}\t{parent}" for parent in above]
            above = nodes
        start = time.perf_counter()
        t = build_taxonomy("\n".join(lines) + "\n", RelationMode.HYPERNYMY_MERONYMY)
        # {R, c} spans one edge above the 24 levels
        assert t.subhierarchy_metrics("R").height == levels + 1
        assert t.subhierarchy_metrics("c").height == levels + 1
        assert t.global_nhyp() == solve_nhyp(len(t), levels + 1)
        assert time.perf_counter() - start < 2.0

    def test_meronym_clique_in_bounded_time(self):
        # about 10**8 simple paths from the root; the 12 parts form one
        # component, which spans 11 edges below the root's one
        text = meronym_clique_tif(12)
        start = time.perf_counter()
        t = build_taxonomy(text, RelationMode.HYPERNYMY_MERONYMY)
        assert t.subhierarchy_metrics("root").height == 12
        assert t.subhierarchy_metrics("p05").height == 11
        assert t.global_nhyp() == solve_nhyp(13, 12)
        assert time.perf_counter() - start < 2.0
        assert build_taxonomy(text).global_nhyp() == solve_nhyp(13, 1)  # no cycle

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9), mode=st.sampled_from(list(RelationMode)))
    def test_hypernym_cycle_rejected_iff_one_exists(self, seed, mode):
        text, hyper = random_edges_tif(random.Random(seed), hypernyms_any_direction=True)
        parents: dict[int, set[int]] = {}
        for c, p in hyper:
            parents.setdefault(c, set()).add(p)

        def on_hypernym_cycle(node):
            seen, frontier = set(), list(parents.get(node, ()))
            while frontier:
                nxt = frontier.pop()
                if nxt == node:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.extend(parents.get(nxt, ()))
            return False

        on_cycle = sorted(f"n{i}" for i in {c for c, _ in hyper} if on_hypernym_cycle(i))
        if on_cycle:
            with pytest.raises(TaxonomyError, match=f"^hypernym cycle through '{on_cycle[0]}'$"):
                build_taxonomy(text, mode)
        else:
            assert_metrics_match_oracles(build_taxonomy(text, mode), reference_taxonomy(text, mode))


def brute_bfs(adjacency, start):
    """Edge count of the shortest path from ``start`` to each node it reaches."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for neigh in adjacency[node]:
                if neigh not in dist:
                    dist[neigh] = dist[node] + 1
                    nxt.append(neigh)
        frontier = nxt
    return dist


def assert_strings(values):
    assert all(type(v) is str for v in values)


class TestGraphQueries:
    """Traversal queries against a brute BFS over the reference loader's records."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), source=st.sampled_from(["tif", "tif+mero", "edges"]))
    def test_queries_match_brute_bfs(self, seed, source):
        rng = random.Random(seed)
        if source == "edges":
            text, _ = random_edges_tif(rng, hypernyms_any_direction=False)
        else:
            text = random_tif(rng, max_synsets=40, meronymy=source == "tif+mero")
        for mode in RelationMode:
            t = build_taxonomy(text, mode)
            down = brute_children(reference_taxonomy(text, mode))
            up = {sid: set() for sid in down}
            for node, kids in down.items():
                for kid in kids:
                    up[kid].add(node)
            either = {sid: down[sid] | up[sid] for sid in down}
            ids = list(t)
            for s in ids:
                kids = t.children_of(s)
                assert type(kids) is tuple and kids == tuple(sorted(down[s]))
                assert_strings(kids)
                for query, adjacency in ((t.descendant_set, down), (t.ancestors_of, up)):
                    reached = query(s)
                    assert type(reached) is frozenset and reached == set(brute_bfs(adjacency, s))
                    assert_strings(reached)
                dist = brute_bfs(either, s)
                targets = set(rng.sample(ids, rng.randint(0, len(ids))))
                for wanted in (targets, targets | {s}, set(), {s}):
                    found = t.distances(s, wanted)
                    assert found == {x: dist[x] for x in wanted if x in dist}
                    assert_strings(found)

    def test_disconnected_targets_absent(self):
        t = build_taxonomy(CHAIN + "S\tz\tnoun.act\tloner:0\n")
        assert t.distances("c", {"a", "z"}) == {"a": 2}
        assert t.distances("z", {"a", "b", "c"}) == {}


def hanging_trees_tif(rng):
    """One to three components, each a small core of cycles with trees
    hanging off it, and up to two isolated synsets.

    A component starts from a skeleton of up to six synsets, each but the
    first a hyponym of an earlier one, plus up to three more such edges,
    which close cycles.  Trees then grow from it one synset at a time, each
    new synset a hyponym or a hypernym of one synset already there; some
    grow as long chains.  A new synset has one edge, so under ``hyper`` the
    trees close no cycle.  Meronym edges then add 2-cycles over hypernym
    edges, self-loops and links between any two synsets, so under
    ``hyper+mero`` a tree may join the core or two components merge.

    Returns the text and the trees grown from each skeleton synset, as
    lists of ids; queries draw their sources and targets from them.
    """
    ids, hyper, trees = [], [], {}
    tree_of = {}  # grown synset -> its tree

    def new():
        ids.append(f"n{len(ids):03d}")
        return ids[-1]

    for _ in range(rng.randint(1, 3)):
        skeleton = [new()]
        for _ in range(rng.randint(0, 5)):
            hyper.append((new(), rng.choice(skeleton)))
            skeleton.append(hyper[-1][0])
        for _ in range(rng.randint(0, 3) if len(skeleton) > 1 else 0):
            hyper.append(tuple(sorted(rng.sample(skeleton, 2), reverse=True)))
        for root in skeleton:
            trees[root] = []
        grown = list(skeleton)
        for _ in range(rng.randint(0, 6)):
            at = rng.choice(grown)
            for _ in range(rng.choice([1, 1, 2, 3, 10])):
                node = new()
                hyper.append((node, at) if rng.random() < 0.8 else (at, node))
                if at in trees:
                    trees[at].append([])
                    tree_of[node] = trees[at][-1]
                else:
                    tree_of[node] = tree_of[at]
                tree_of[node].append(node)
                grown.append(node)
                at = node
    for _ in range(rng.randint(0, 2)):
        new()
    mero = rng.sample(hyper, min(len(hyper), rng.randint(0, 2)))  # the child is the whole
    mero += [(node, node) for node in rng.sample(ids, min(len(ids), rng.randint(0, 2)))]
    mero += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2)) if len(ids) > 1]
    lines = [f"S\t{sid}\tnoun.act\t{sid}:0" for sid in ids]
    lines += [f"H\t{child}\t{parent}" for child, parent in hyper]
    lines += [f"M\t{whole}\t{part}" for whole, part in mero]
    return "\n".join(lines) + "\n", trees


def branch_chains_tif(rng):
    """One to three components of branch nodes joined by chains, and bare
    cycles, with doubled edges and trees hanging off chain nodes.

    A component has one to four branch nodes and up to six chains, each
    between two of them drawn with replacement (so some are parallel and
    some are loops back to one node), of length 1 to 7.  A bare cycle is a
    component of its own, 1 to 7 synsets round.  Every hypernym edge has
    the later synset as the hyponym, so hypernymy stays acyclic.  Meronym
    edges then double some hypernym edges (the hyponym is also the whole:
    under ``hyper+mero`` a pair joined twice, and a cycle of length one is
    a self-loop) and link up to two random pairs.  Trees of one to three
    synsets hang off random chain nodes.

    Returns the text and the chains, each a list of ids from end to end;
    queries draw sources and targets from them.
    """
    ids, hyper, mero, chains = [], [], [], []

    def new():
        ids.append(f"n{len(ids):03d}")
        return ids[-1]

    def join(a, b):
        hyper.append((max(a, b), min(a, b)))

    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:  # a bare cycle
            ring = [new() for _ in range(rng.randint(1, 7))]
            if len(ring) == 1:
                mero.append((ring[0], ring[0]))
            elif len(ring) == 2:
                join(*ring)
                mero.append((ring[1], ring[0]))
            else:
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    join(a, b)
            chains.append(ring + ring[:1])
            continue
        branches = [new() for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 6)):
            a, b = rng.choice(branches), rng.choice(branches)
            chain = [a] + [new() for _ in range(rng.randint(1, 7) - 1)] + [b]
            for x, y in zip(chain, chain[1:]):
                if x != y:
                    join(x, y)
                else:
                    mero.append((x, x))
            chains.append(chain)
    for child, parent in rng.sample(hyper, min(len(hyper), rng.randint(0, 3))):
        mero.append((child, parent))
    for _ in range(rng.randint(0, 2)):
        mero.append(tuple(rng.sample(ids, 2)) if len(ids) > 1 else (ids[0], ids[0]))
    for _ in range(rng.randint(0, 4)):
        at = rng.choice(rng.choice(chains))
        for _ in range(rng.randint(1, 3)):
            node = new()
            hyper.append((node, at) if rng.random() < 0.8 else (at, node))
            at = node
    lines = [f"S\t{sid}\tnoun.act\t{sid}:0" for sid in ids]
    lines += [f"H\t{child}\t{parent}" for child, parent in hyper]
    lines += [f"M\t{whole}\t{part}" for whole, part in mero]
    return "\n".join(lines) + "\n", chains


def brute_either(ref):
    down = brute_children(ref)
    either = {sid: set(kids) for sid, kids in down.items()}
    for node, kids in down.items():
        for kid in kids:
            either[kid].add(node)
    return either


def anchors(t):
    """Each synset's anchor: itself in the core, else the core synset its
    hanging tree meets (read from the private peel)."""
    t.distances(next(iter(t)), set())
    anchor = t._core[1]
    return {sid: t._ids[anchor[t._num[sid]]] for sid in t}


class TestCoreAndFringe:
    """``distances`` over the 2-core and the trees that hang off it."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    @example(seed=3160)  # a single-synset taxonomy
    def test_hanging_trees_match_brute_bfs(self, seed):
        rng = random.Random(seed)
        text, trees = hanging_trees_tif(rng)
        for mode in RelationMode:
            t = build_taxonomy(text, mode)
            either = brute_either(reference_taxonomy(text, mode))
            ids = list(t)
            for root, grown in trees.items():
                for tree in grown:
                    siblings = [node for other in grown if other is not tree for node in other]
                    s = rng.choice(tree)
                    dist = brute_bfs(either, s)
                    for wanted in (
                        set(rng.sample(tree, rng.randint(1, len(tree)))),  # same tree
                        set(siblings),  # sibling trees of one skeleton synset
                        set(rng.sample(ids, rng.randint(0, len(ids)))),  # anywhere
                        {root, s},
                    ):
                        assert t.distances(s, wanted) == {x: dist[x] for x in wanted if x in dist}
            for s in ids:
                dist = brute_bfs(either, s)
                assert t.distances(s, set(ids)) == dist

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_branch_chains_match_brute_bfs(self, seed):
        rng = random.Random(seed)
        text, chains = branch_chains_tif(rng)
        for mode in RelationMode:
            t = build_taxonomy(text, mode)
            either = brute_either(reference_taxonomy(text, mode))
            ids = list(t)
            for s in ids:
                dist = brute_bfs(either, s)
                assert t.distances(s, set(ids)) == dist
                for target in rng.sample(ids, min(len(ids), 3)):
                    assert t.distances(s, {target}) == {x: dist[x] for x in {target} & dist.keys()}
            for chain in chains:  # both ends on one chain: along it, or round
                s, target = rng.choice(chain), rng.choice(chain)
                dist = brute_bfs(either, s)
                assert t.distances(s, {target}) == {target: dist[target]}

    @pytest.fixture(params=list(RelationMode), ids=lambda mode: mode.value)
    def cases(self, request):
        return build_taxonomy(distance_edge_cases_tif(), request.param)

    def test_edge_cases_match_brute_bfs(self, cases):
        either = brute_either(reference_taxonomy(distance_edge_cases_tif(), cases.relation_mode))
        for s in cases:
            dist = brute_bfs(either, s)
            assert cases.distances(s, set(cases)) == dist
            for target in cases:
                assert cases.distances(s, {target}) == {x: dist[x] for x in {target} & dist.keys()}

    @pytest.mark.parametrize("mode", list(RelationMode), ids=lambda mode: mode.value)
    def test_chain_cases_match_brute_bfs(self, mode):
        t = build_taxonomy(chain_cases_tif(), mode)
        either = brute_either(reference_taxonomy(chain_cases_tif(), mode))
        for s in t:
            dist = brute_bfs(either, s)
            assert t.distances(s, set(t)) == dist
            for target in t:
                assert t.distances(s, {target}) == {x: dist[x] for x in {target} & dist.keys()}
        # along the chain from q2 to q3, not round through a or b
        assert t.distances("g2", {"h1", "h2", "q4", "w1"}) == {"h1": 4, "h2": 4, "q4": 4, "w1": 6}

    def test_meronym_two_cycle(self):
        # m2 is a hyponym of m1 and its whole: two edges to one neighbour
        t = build_taxonomy(distance_edge_cases_tif(), RelationMode.HYPERNYMY_MERONYMY)
        assert anchors(t)["m2"] == "m2" and anchors(t)["m3"] == "m1"
        assert t.distances("m2", {"m1", "m3", "c1", "c2", "r"}) == {
            "m1": 1, "m3": 2, "c1": 2, "c2": 2, "r": 3,
        }
        hyper = build_taxonomy(distance_edge_cases_tif())
        assert anchors(hyper)["m2"] == "m1"
        assert hyper.distances("m2", {"m3", "c1", "k01"}) == {"m3": 2, "c1": 2, "k01": 4}

    def test_self_loop(self):
        t = build_taxonomy(distance_edge_cases_tif(), RelationMode.HYPERNYMY_MERONYMY)
        assert anchors(t)["s"] == "s" and anchors(t)["s1"] == "s"
        assert t.distances("s1", {"s", "c2", "r", "m2"}) == {"s": 1, "c2": 2, "r": 3, "m2": 4}
        assert anchors(build_taxonomy(distance_edge_cases_tif()))["s1"] == "c2"

    def test_isolated_synset_is_its_own_anchor(self, cases):
        assert anchors(cases)["z"] == "z"
        assert cases.distances("z", set(cases)) == {"z": 0}
        assert cases.distances("r", {"z", "c1"}) == {"c1": 1}

    def test_all_tree_component(self):
        t = build_taxonomy(distance_edge_cases_tif())
        tree = {"u0", "u1", "u2", "u3"}
        assert len({anchors(t)[node] for node in tree}) == 1
        assert t.distances("u3", tree | {"r", "v3"}) == {"u0": 2, "u1": 1, "u2": 3, "u3": 0}
        assert t.distances("v3", tree) == {}
        # under hyper+mero v3 is the whole of u3, and the tree hangs off v2
        mero = build_taxonomy(distance_edge_cases_tif(), RelationMode.HYPERNYMY_MERONYMY)
        assert {anchors(mero)[node] for node in tree | {"v3"}} == {"v2"}
        assert mero.distances("u2", {"v0", "v1", "u3"}) == {"v0": 6, "v1": 6, "u3": 3}

    def test_long_chain_off_a_cycle(self, cases):
        assert anchors(cases)["k12"] == "x"
        assert cases.distances("k12", {"k03", "x", "r", "t22", "m3"}) == {
            "k03": 9, "x": 12, "r": 14, "t22": 16, "m3": 15,
        }
        # sibling trees of c1 meet at their anchor
        assert cases.distances("t11", {"t12", "t22", "c1"}) == {"t12": 2, "t22": 5, "c1": 2}

    def test_first_calls_from_many_threads_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        text = distance_edge_cases_tif()
        mode = RelationMode.HYPERNYMY_MERONYMY
        reference = build_taxonomy(text, mode)
        everyone = set(reference)
        sources = sorted(everyone) * 4
        expected = [reference.distances(s, everyone) for s in sources]
        t = build_taxonomy(text, mode)  # every thread may be the one to peel
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                found = list(pool.map(lambda s: t.distances(s, everyone), sources, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert found == expected

    def test_source_among_its_own_targets(self, cases):
        either = brute_either(reference_taxonomy(distance_edge_cases_tif(), cases.relation_mode))
        for s in ("r", "k12", "m2", "s1", "u0", "z"):
            dist = brute_bfs(either, s)
            assert cases.distances(s, {s, "c2"}) == {x: dist[x] for x in {s, "c2"} & dist.keys()}
            assert cases.distances(s, {s}) == {s: 0}


class TestIdOrder:
    """Ids whose string order is neither file order nor numeric order."""

    FILE_ORDER = ["b9", "é1", "b10", "Z3", "a1"]
    ASCENDING = ("Z3", "a1", "b10", "b9", "é1")
    FLAT = "".join(f"S\t{sid}\tnoun.act\tword:{i}\n" for i, sid in enumerate(FILE_ORDER))

    def test_queries_ascending(self):
        assert tuple(sorted(self.FILE_ORDER)) == self.ASCENDING
        flat = build_taxonomy(self.FLAT)
        assert tuple(flat) == self.ASCENDING
        assert flat.senses_of("word") == self.ASCENDING
        text = self.FLAT + "S\tp\tnoun.act\tparent:0\n"
        text += "".join(f"H\t{sid}\tp\n" for sid in self.FILE_ORDER)
        for mode in RelationMode:
            t = build_taxonomy(text, mode)
            assert t.ancestors_of("p") == {"p"}
            assert t.children_of("p") == self.ASCENDING

    # a0 is the lowest node that reaches a hypernym cycle, but it lies on
    # none: it sits between the b1 <-> b2 and c1 <-> c2 cycles.
    BETWEEN_CYCLES = "".join(
        f"S\t{sid}\tnoun.act\tword:{i}\n" for i, sid in enumerate(["a0", "b1", "b2", "c1", "c2"])
    ) + "H\tb1\tb2\nH\tb2\tb1\nH\tb1\ta0\nH\ta0\tc1\nH\tc1\tc2\nH\tc2\tc1\n"

    @pytest.mark.parametrize(
        "cycle, lowest",
        [
            pytest.param(FLAT + "H\tb9\té1\nH\té1\tb10\nH\tb10\tb9\n", "b10", id="three-cycle"),
            pytest.param(BETWEEN_CYCLES, "b1", id="between-cycles"),
            pytest.param(CHAIN + "H\tb\tb\n", "b", id="self-loop"),
        ],
    )
    def test_cycle_names_lowest_id(self, cycle, lowest):
        for mode in RelationMode:
            with pytest.raises(TaxonomyError, match=f"^hypernym cycle through '{lowest}'$"):
                build_taxonomy(cycle, mode)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), meronymy=st.booleans())
    def test_descendants_match_brute_force(self, seed, meronymy):
        t, ref = random_case(random.Random(seed), max_synsets=60, meronymy=meronymy)
        for concept in t:
            assert t.subhierarchy_metrics(concept).descendants == len(
                brute_reachable(ref, concept)
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_heights_match_brute_force(self, seed):
        t, ref = random_case(random.Random(seed), max_synsets=50, meronymy=True)
        for concept in t:
            assert t.subhierarchy_metrics(concept).height == brute_height(ref, concept)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_nhyp_bounds_and_residual(self, seed):
        t = random_taxonomy(random.Random(seed), max_synsets=80)
        for concept in t:
            m = t.subhierarchy_metrics(concept)
            residual = abs(geometric_power_sum(m.local_nhyp, m.height) - m.descendants)
            assert residual < NHYP_TOLERANCE
            if m.height >= 1:
                assert 1.0 - 1e-9 <= m.local_nhyp <= m.descendants - 1 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_ancestors_descendants_duality(self, seed):
        t, ref = random_case(random.Random(seed), max_synsets=40, meronymy=True)
        for sense in t:
            ancestors = t.ancestors_of(sense)
            assert sense in ancestors
            for a in ancestors:
                assert sense in brute_reachable(ref, a)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_meronymy_never_shrinks_descendants(self, seed):
        text = random_tif(random.Random(seed), max_synsets=60, meronymy=True)
        hyper = build_taxonomy(text, RelationMode.HYPERNYMY)
        both = build_taxonomy(text, RelationMode.HYPERNYMY_MERONYMY)
        for concept in hyper:
            assert (
                both.subhierarchy_metrics(concept).descendants
                >= hyper.subhierarchy_metrics(concept).descendants
            )

    def test_repeated_queries_identical(self):
        t = load_data_taxonomy("two_clusters.tif")
        first = [
            (t.subhierarchy_metrics(c), t.ancestors_of(c), t.global_nhyp())
            for c in list(t)
        ]
        second = [
            (t.subhierarchy_metrics(c), t.ancestors_of(c), t.global_nhyp())
            for c in list(t)
        ]
        assert first == second


def test_solve_nhyp_star():
    # root plus nine leaves: 1 + x = 10
    assert solve_nhyp(10, 1) == pytest.approx(9.0, abs=1e-9)


class TestStructuralInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_lemma_index_inverts_lemma_fields(self, seed):
        t, ref = random_case(random.Random(seed), max_synsets=50)
        rebuilt: dict[str, set[str]] = {}
        for sid, rec in ref.records.items():
            for lemma, _ in rec.lemmas:
                rebuilt.setdefault(lemma, set()).add(sid)
        assert {k: set(v) for k, v in t.lemma_index.items()} == rebuilt
        for lemma, ids in t.lemma_index.items():
            assert list(ids) == sorted(ids)

    def test_concurrent_metric_queries_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        t = load_data_taxonomy("two_clusters.tif")
        concepts = list(t) * 8
        everyone = set(t)

        def work(c):
            return (c, t.subhierarchy_metrics(c), t.global_nhyp(), t.distances(c, everyone))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, concepts))
        for c, metrics, gnh, dist in results:
            assert metrics == t.subhierarchy_metrics(c)
            assert gnh == t.global_nhyp()
            assert dist == t.distances(c, everyone)
