"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's indexes and memoized
traversals: a reference loader reads the TIF text record by record, the
oracles rebuild adjacency from its records, and reachability, height and
nhyp are recomputed from scratch, so agreement with the optimized code is
meaningful.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cdwsd.corpus import SenseKey
from cdwsd.density import DensityParams, NhypMode
from cdwsd.taxonomy import (
    RelationMode,
    Taxonomy,
    TaxonomyError,
    load_taxonomy,
    read_lines,
)

DATA = Path(__file__).parent / "data"

LEXFILES = ["noun.animal", "noun.artifact", "noun.group", "noun.act", "noun.state"]


def build_taxonomy(text: str, mode: RelationMode = RelationMode.HYPERNYMY) -> Taxonomy:
    return load_taxonomy(io.StringIO(text), mode)


def load_data_taxonomy(name: str, mode: RelationMode = RelationMode.HYPERNYMY) -> Taxonomy:
    with open(DATA / name, "r", encoding="utf-8") as fh:
        return load_taxonomy(fh, mode)


def load_data_reference(name: str, mode: RelationMode = RelationMode.HYPERNYMY) -> Reference:
    return reference_taxonomy((DATA / name).read_text(encoding="utf-8"), mode)


def random_tif(
    rng: random.Random,
    max_synsets: int = 200,
    meronymy: bool = False,
    min_synsets: int = 1,
) -> str:
    """Random TIF text: acyclic hypernym DAG, forward-only meronym edges.

    Forward-only meronyms keep the combined downward graph acyclic, which
    the recursive ``brute_height`` oracle relies on; cyclic graphs get
    their own tests.
    """
    n = rng.randint(min_synsets, max_synsets)
    lines = []
    lemma_pool = max(2, n // 2)
    used_keys: set[tuple[str, str, int]] = set()
    for i in range(n):
        lexfile = rng.choice(LEXFILES)
        entries = []
        for _ in range(rng.choice([1, 1, 1, 2])):
            lemma = f"lemma{rng.randrange(lemma_pool)}"
            lex_id = 0
            while (lemma, lexfile, lex_id) in used_keys:
                lex_id += 1
            used_keys.add((lemma, lexfile, lex_id))
            entries.append(f"{lemma}:{lex_id}")
        lines.append(f"S\ts{i:03d}\t{lexfile}\t{','.join(entries)}")
    for i in range(1, n):
        for _ in range(rng.choice([0, 1, 1, 1, 2])):
            parent = rng.randrange(i)
            lines.append(f"H\ts{i:03d}\ts{parent:03d}")
    if meronymy and n > 1:
        for _ in range(rng.randint(0, max(1, n // 5))):
            whole = rng.randrange(n - 1)
            part = rng.randrange(whole + 1, n)
            lines.append(f"M\ts{whole:03d}\ts{part:03d}")
    return "\n".join(lines) + "\n"


def meronym_clique_tif(size: int) -> str:
    """``size`` synsets under one root, each part of every other; all of
    them share the lemma ``part``, with lex_ids 0..size-1."""
    lines = ["S\troot\tnoun.act\troot:0"]
    for i in range(size):
        lines += [f"S\tp{i:02d}\tnoun.act\tpart:{i}", f"H\tp{i:02d}\troot"]
        lines += [f"M\tp{i:02d}\tp{j:02d}" for j in range(size) if j != i]
    return "\n".join(lines) + "\n"


def distance_edge_cases_tif() -> str:
    """One TIF holding each shape the distance search must get right.

    * a 4-cycle ``r``-``c1``-``x``-``c2`` with the chain ``k01``..``k12``
      hanging below ``x``, and two sibling trees (``t1``, ``t2``)
      hanging below ``c1``;
    * a meronym 2-cycle: ``m2`` is a hyponym of ``m1`` and also its whole,
      so under ``hyper+mero`` they are joined by two edges; ``m1`` lies on
      the cycle ``r``-``c1``-``m1``-``c2`` and ``m3`` hangs below it;
    * a self-loop ``M s s``, with ``s1`` hanging below ``s``;
    * a second component around the triangle ``v0``-``v1``-``v2``;
    * a tree under ``u0``, which under ``hyper+mero`` hangs off that
      triangle (``v3`` is the whole of ``u3``) and under ``hyper`` is a
      component of its own;
    * the isolated synset ``z``.

    The lemmas ``alpha``, ``beta``, ``gamma`` and ``delta`` each name
    senses in several of these places (lex_ids in the order listed);
    ``apex``, ``hub`` and ``tail`` are monosemous, on ``r``, ``c1`` and
    ``k12``.  Every other synset's lemma is its id.
    """
    chain_ids = [f"k{i:02d}" for i in range(1, 13)]
    edges = [("c1", "r"), ("c2", "r"), ("x", "c1"), ("x", "c2")]
    edges += zip(chain_ids, ["x"] + chain_ids)
    edges += [("t1", "c1"), ("t11", "t1"), ("t12", "t1"),
              ("t2", "c1"), ("t21", "t2"), ("t22", "t21")]
    edges += [("m1", "c1"), ("m1", "c2"), ("m2", "m1"), ("m3", "m1"), ("s", "c2"), ("s1", "s")]
    edges += [("v1", "v0"), ("v2", "v0"), ("v2", "v1"), ("v3", "v2")]
    edges += [("u1", "u0"), ("u2", "u0"), ("u3", "u1")]
    senses = {
        "alpha": ["k03", "t11", "u1", "z", "v1"],
        "beta": ["k10", "t21", "m2", "s1", "u3"],
        "gamma": ["c2", "t12", "u2", "k06", "m3"],
        "delta": ["m1", "x", "u0", "s", "v2"],
        "apex": ["r"],
        "hub": ["c1"],
        "tail": ["k12"],
    }
    lemmas: dict[str, list[str]] = {}
    for lemma, ids in senses.items():
        for lex_id, sid in enumerate(ids):
            lemmas.setdefault(sid, []).append(f"{lemma}:{lex_id}")
    ids = sorted({sid for edge in edges for sid in edge} | {"z"})
    lines = [f"S\t{sid}\tnoun.act\t{','.join(lemmas.get(sid, [f'{sid}:0']))}" for sid in ids]
    lines += [f"H\t{child}\t{parent}" for child, parent in edges]
    lines += ["M\tm2\tm1", "M\ts\ts", "M\tv3\tu3"]
    return "\n".join(lines) + "\n"


def chain_cases_tif() -> str:
    """One TIF holding each shape a search over contracted core chains must
    get right.  Core degree counts only core edges, so ``a`` and ``b`` are
    the only nodes of degree other than two under ``hyper``.

    * three parallel chains between ``a`` and ``b``: the edge ``b``-``a``,
      ``a``-``p1``-``b`` and ``a``-``q1``-``q2``-``q3``-``q4``-``b``;
    * the loop chain ``a``-``l1``-``l2``-``l3``-``a``;
    * a bare 6-cycle ``o0``-``o1``-``o2``-``o3``-``o4``-``o5``, a
      component of its own, with the leaf ``o6`` below ``o2``;
    * trees hanging off the inner nodes ``q2`` (``g1``, ``g2``) and ``q3``
      (``h1``, and its second hypernym ``h2``): from one to the other the
      path along the chain is shorter than through ``a`` or ``b``;
    * the leaf ``w1`` below ``b``.

    Under ``hyper+mero`` three meronym edges double a hypernym edge (the
    hyponym is also the whole): ``p1`` and ``a`` are then joined twice, the
    leaf ``y1`` becomes a loop chain of length two on ``b``, and the pair
    ``d0``, ``d1``, a tree of its own under ``hyper``, becomes a bare
    2-cycle.

    ``alpha``, ``beta``, ``gamma`` and ``delta`` each name senses in
    several of these places (lex_ids in the order listed); ``root``,
    ``leaf`` and ``hook`` are monosemous, on ``a``, ``o6`` and ``q3``.
    Every other synset's lemma is its id.
    """
    edges = [("b", "a"), ("p1", "a"), ("b", "p1")]
    edges += [("q1", "a"), ("q2", "q1"), ("q3", "q2"), ("q4", "q3"), ("b", "q4")]
    edges += [("l1", "a"), ("l2", "l1"), ("l3", "l2"), ("l3", "a")]
    edges += [("o1", "o0"), ("o2", "o1"), ("o3", "o2"), ("o5", "o0"), ("o4", "o5"), ("o3", "o4")]
    edges += [("o6", "o2"), ("g1", "q2"), ("g2", "g1"), ("h1", "q3"), ("q3", "h2")]
    edges += [("w1", "b"), ("y1", "b"), ("d1", "d0")]
    senses = {
        "alpha": ["g2", "h1", "o4", "l2", "d1"],
        "beta": ["q2", "w1", "o1", "p1", "y1"],
        "gamma": ["h2", "l3", "o5", "q4"],
        "delta": ["g1", "o0", "b", "d0"],
        "root": ["a"],
        "leaf": ["o6"],
        "hook": ["q3"],
    }
    lemmas: dict[str, list[str]] = {}
    for lemma, ids in senses.items():
        for lex_id, sid in enumerate(ids):
            lemmas.setdefault(sid, []).append(f"{lemma}:{lex_id}")
    ids = sorted({sid for edge in edges for sid in edge})
    lines = [f"S\t{sid}\tnoun.act\t{','.join(lemmas.get(sid, [f'{sid}:0']))}" for sid in ids]
    lines += [f"H\t{child}\t{parent}" for child, parent in edges]
    lines += ["M\tp1\ta", "M\ty1\tb", "M\td1\td0"]
    return "\n".join(lines) + "\n"


def random_taxonomy(
    rng: random.Random,
    max_synsets: int = 200,
    meronymy: bool = False,
    min_synsets: int = 1,
) -> Taxonomy:
    mode = RelationMode.HYPERNYMY_MERONYMY if meronymy else RelationMode.HYPERNYMY
    return build_taxonomy(random_tif(rng, max_synsets, meronymy, min_synsets), mode)


def random_case(
    rng: random.Random,
    max_synsets: int = 200,
    meronymy: bool = False,
    min_synsets: int = 1,
) -> tuple[Taxonomy, Reference]:
    """``random_taxonomy`` and the reference loader's reading of its text."""
    mode = RelationMode.HYPERNYMY_MERONYMY if meronymy else RelationMode.HYPERNYMY
    text = random_tif(rng, max_synsets, meronymy, min_synsets)
    return build_taxonomy(text, mode), reference_taxonomy(text, mode)


@dataclass(frozen=True)
class Record:
    """One S record and the edges that start at it, as the TIF text has them."""

    lexfile: str
    lemmas: tuple[tuple[str, int], ...]
    hypernyms: tuple[str, ...]  # sorted, each once
    meronyms: tuple[str, ...]  # the parts, sorted, each once


@dataclass(frozen=True)
class Reference:
    """A TIF as the reference loader reads it: its records by id, in file
    order, and the relation mode the oracles follow."""

    records: dict[str, Record]
    relation_mode: RelationMode

    def __iter__(self):
        return iter(sorted(self.records))

    def __len__(self) -> int:
        return len(self.records)


def reference_taxonomy(text: str, mode: RelationMode = RelationMode.HYPERNYMY) -> Reference:
    return reference_load_taxonomy(io.StringIO(text), mode)


def reference_lemmas(field: str, lineno: int) -> tuple[tuple[str, int], ...]:
    lemmas = []
    for chunk in field.split(","):
        cut = chunk.rfind(":")
        if cut < 1:
            raise TaxonomyError(f"bad lemma entry {chunk!r}", lineno)
        if not chunk[cut + 1 :].isdecimal():
            raise TaxonomyError(f"lex_id must be a non-negative integer in {chunk!r}", lineno)
        lemmas.append((chunk[:cut].lower(), int(chunk[cut + 1 :])))
    return tuple(lemmas)


def reference_load_taxonomy(stream, relation_mode=RelationMode.HYPERNYMY) -> Reference:
    """A plain record-by-record TIF loader: each line is classified, split
    and checked in turn, then the checks that span records run in the
    library's order: dangling edges, duplicate sense keys, hypernym cycles.

    The reference for the differential parser test: ``load_taxonomy`` must
    raise the same error on every input, or answer every query as these
    records say.
    """
    records: dict[str, tuple[str, tuple[tuple[str, int], ...]]] = {}
    edges: dict[str, dict[str, set[str]]] = {"H": {}, "M": {}}
    first_edge: dict[str, int] = {}
    for lineno, line in read_lines(stream):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "S":
            if len(fields) != 4:
                raise TaxonomyError(f"S record needs 4 fields, got {len(fields)}", lineno)
            _, sid, lexfile, lemma_field = fields
            if sid in records:
                raise TaxonomyError(f"duplicate synset id {sid!r}", lineno)
            lemmas = reference_lemmas(lemma_field, lineno)
            if not lexfile:
                raise TaxonomyError(f"synset {sid!r} has empty lexfile", lineno)
            records[sid] = (lexfile, lemmas)
        elif kind in edges:
            if len(fields) != 3:
                raise TaxonomyError(f"{kind} record needs 3 fields, got {len(fields)}", lineno)
            _, a, b = fields
            edges[kind].setdefault(a, set()).add(b)
            first_edge.setdefault(a, lineno)
            first_edge.setdefault(b, lineno)
        else:
            raise TaxonomyError(f"unknown record type {kind!r}", lineno)
    for sid, lineno in first_edge.items():
        if sid not in records:
            raise TaxonomyError(f"edge references unknown synset {sid!r}", lineno)
    holder: dict[tuple[str, str, int], str] = {}
    for sid, (lexfile, lemmas) in records.items():
        for lemma, lex_id in lemmas:
            key = (lemma, lexfile, lex_id)
            if key in holder:
                raise TaxonomyError(
                    f"duplicate sense key {lemma}%{lexfile}.{lex_id} in {holder[key]!r} and {sid!r}"
                )
            holder[key] = sid
    hypernyms = edges["H"]
    for sid in sorted(records):
        if sid in brute_bfs_reach(hypernyms, hypernyms.get(sid, ())):
            raise TaxonomyError(f"hypernym cycle through {sid!r}")
    return Reference(
        {
            sid: Record(lexfile, lemmas, *(tuple(sorted(edges[k].get(sid, ()))) for k in "HM"))
            for sid, (lexfile, lemmas) in records.items()
        },
        relation_mode,
    )


def gold_key(ref: Reference, sense: str, lemma: str) -> SenseKey:
    """The gold key naming ``sense`` for ``lemma``: its first lex_id for it."""
    rec = ref.records[sense]
    return SenseKey(rec.lexfile, next(lid for name, lid in rec.lemmas if name == lemma))


def brute_bfs_reach(adjacency: dict[str, set[str]], starts) -> set[str]:
    """Every node reachable from ``starts`` along ``adjacency``, starts included."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def assert_matches_reference(t: Taxonomy, ref: Reference) -> None:
    """Every query of ``t`` answers as the reference's records say, and its
    numbered adjacency and heights equal those rebuilt from them."""
    ids = list(ref)
    assert list(t) == ids and len(t) == len(ids)
    assert t.relation_mode is ref.relation_mode
    down = brute_children(ref)
    lemma_index: dict[str, set[str]] = {}
    for sid, rec in ref.records.items():
        assert t.lexfile_of(sid) == rec.lexfile
        assert t.children_of(sid) == tuple(sorted(down[sid]))
        for lemma, lex_id in rec.lemmas:
            lemma_index.setdefault(lemma, set()).add(sid)
            assert t.resolve_sense_key(lemma, rec.lexfile, lex_id) == sid
            lowest = min(lid for name, lid in rec.lemmas if name == lemma)
            assert t.sense_key_of(lemma, sid) == f"{rec.lexfile}.{lowest}"
    assert t.lemma_index == {lemma: tuple(sorted(sids)) for lemma, sids in lemma_index.items()}
    for lemma, senses in t.lemma_index.items():
        assert t.senses_of(lemma) == senses
    number = {sid: i for i, sid in enumerate(ids)}
    up = {sid: {p for p, kids in down.items() if sid in kids} for sid in ids}
    assert t._down == [tuple(sorted(number[k] for k in down[sid])) for sid in ids]
    assert t._up == [tuple(sorted(number[p] for p in up[sid])) for sid in ids]
    _, heights = brute_condensation(ref)
    assert t._heights == [heights[sid] for sid in ids]


# -- brute-force oracles -----------------------------------------------------


def brute_children(ref: Reference) -> dict[str, set[str]]:
    down: dict[str, set[str]] = {sid: set() for sid in ref.records}
    for sid, rec in ref.records.items():
        for parent in rec.hypernyms:
            down[parent].add(sid)
        if ref.relation_mode is RelationMode.HYPERNYMY_MERONYMY:
            down[sid].update(rec.meronyms)
    return down


def brute_reachable(ref: Reference, concept: str) -> set[str]:
    return brute_bfs_reach(brute_children(ref), (concept,))


def brute_height(ref: Reference, concept: str) -> int:
    return brute_heights(brute_children(ref))(concept)


def brute_heights(down: dict[str, set[str]]) -> Callable[[str], int]:
    """Longest downward path from a node of ``down``, by recursion memoized
    across calls; ``down`` must be acyclic."""
    memo: dict[str, int] = {}

    def depth(node: str) -> int:
        if node not in memo:
            memo[node] = max((depth(c) + 1 for c in down[node]), default=0)
        return memo[node]

    return depth


def brute_condensation(ref: Reference) -> tuple[dict[str, frozenset[str]], dict[str, int]]:
    """Each concept's component and height over the condensation, by brute force.

    Two concepts share a component when each reaches the other.  A component
    of k concepts spans k - 1 edges above the longest path that leaves it,
    found by memoized recursion over the components.
    """
    down = brute_children(ref)
    reach = {c: brute_bfs_reach(down, (c,)) for c in ref.records}
    component = {c: frozenset(d for d in reach[c] if c in reach[d]) for c in ref.records}
    memo: dict[frozenset[str], int] = {}

    def height(comp: frozenset[str]) -> int:
        if comp not in memo:
            memo[comp] = len(comp) - 1 + max(
                (1 + height(component[kid]) for node in comp for kid in down[node]
                 if kid not in comp),
                default=0,
            )
        return memo[comp]

    return component, {c: height(component[c]) for c in ref.records}


class DistanceCache:
    """Capped distances for the brute-force oracles.

    ``capped(a, b)`` is the shortest-path length between two synsets, or the
    taxonomy size for a disconnected pair, memoized per unordered pair.
    """

    def __init__(self, t: Taxonomy):
        self.t = t
        self._pairs: dict[tuple[str, str], int] = {}

    def capped(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        d = self._pairs.get(key)
        if d is None:
            d = self._pairs[key] = self.t.distances(a, {b}).get(b, len(self.t))
        return d


def brute_nhyp(descendants: int, height: int) -> float:
    """Independent root solve: halve the interval until it collapses."""
    if height == 0:
        return 0.0

    def f(x: float) -> float:
        return sum(x**i for i in range(height + 1)) - descendants

    lo, hi = 0.0, float(descendants)
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid


def brute_cd(nhyp: float, m: int, descendants: int, exponent: float = 0.20) -> float:
    total = 0.0
    for i in range(m):
        total += 1.0 if i == 0 else nhyp ** (i**exponent)
    return total / descendants


def brute_score_all(
    ref: Reference,
    window: list[tuple[str, set[str]]],
    params: DensityParams,
    dedup: bool = True,
) -> dict[str, tuple[int, float]]:
    """(marks, cd) for EVERY synset, by downward reachability + membership.

    Synsets holding no marks map to (0, 0.0).
    """
    down = brute_children(ref)
    height_of = brute_heights(down)
    global_nhyp = 0.0
    if params.nhyp_mode is NhypMode.GLOBAL:
        roots = [sid for sid, rec in ref.records.items() if not rec.hypernyms]
        big_h = max((height_of(r) for r in roots), default=0)
        global_nhyp = brute_nhyp(len(ref), big_h)
    scores: dict[str, tuple[int, float]] = {}
    for concept in ref.records:
        reach = brute_bfs_reach(down, (concept,))
        pairs = set()
        for idx, (lemma, senses) in enumerate(window):
            key = lemma if dedup else idx
            for s in senses:
                if s in reach:
                    pairs.add((key, s))
        m = len(pairs)
        if m == 0:
            scores[concept] = (0, 0.0)
            continue
        descendants = len(reach)
        height = height_of(concept)
        nhyp = (
            brute_nhyp(descendants, height)
            if params.nhyp_mode is NhypMode.LOCAL
            else global_nhyp
        )
        scores[concept] = (m, brute_cd(nhyp, m, descendants, params.smoothing_exponent))
    return scores


def random_window(
    rng: random.Random, t: Taxonomy, max_words: int = 5
) -> list[tuple[str, set[str]]]:
    """Random window sense sets: lemmas may repeat, subsets are non-empty."""
    lemmas = sorted(t.lemma_index)
    window = []
    for _ in range(rng.randint(1, max_words)):
        lemma = rng.choice(lemmas)
        senses = list(t.senses_of(lemma))
        k = rng.randint(1, len(senses))
        window.append((lemma, set(rng.sample(senses, k))))
    return window
