"""Noun taxonomy: loading, validation, and subhierarchy metrics.

``load_taxonomy`` indexes a TIF stream with no object per synset and keeps
each fact once.  Its parse keeps flat columns: by id, each S record's
lexfile, one string per name, and its entries as one flat (lemma, lex_id,
...) tuple; the lemma index; and each edge line.  The Taxonomy constructor
numbers the ids once, in ascending order, so integer order is string
order, and builds every index from the columns.  It checks the invariants
that span records in order: every edge names a defined synset, no sense
key names two synsets (there is no sense-key index: only a lemma entered
more than once can repeat a key, so only those are checked), and hypernym
edges form no cycle.  The taxonomy is a DAG of synsets connected
by hypernym (is-a) edges and, optionally, meronym (whole-part) edges.
Hypernym edges must be acyclic; once meronym edges are folded in as
additional parent->child links the combined graph may contain cycles, so
every traversal here uses a visited set.  Height is the longest downward
path through the condensation of the downward graph, where a strongly
connected component of k synsets spans k - 1 edges; it is the plain
longest path wherever no cycle can be reached.  One pass per load peels
the downward graph of the relation mode from its leaves and gives every
peeled concept its height.  Over the concepts left unpeeled, which can
reach a cycle, one linear component pass rejects a hypernym cycle and a
second gives them their heights.  Every traversal runs over the int
adjacency; the public API takes and returns string ids.  The distance
search follows edges in either direction.  That graph is nearly a tree, so
its first call peels the trees that hang off the graph's 2-core (Seidman
1983), and contracts the core's chains of degree-2 nodes into weighted
edges between branch nodes.  Later calls search only that branch graph,
with a bucket queue (Dial 1969); the core-fringe split is that of Akiba,
Sommer and Kawarabayashi 2012, with trees as the fringe.  A loaded
Taxonomy is immutable; metric queries, the peel and the branch graph are
built on first use with single-assignment semantics, and are safe to share
across threads.

Input format (TIF, "taxonomy interchange format"): line-oriented UTF-8,
tab-separated, ``#`` starts a comment line.

    S<TAB>id<TAB>lexfile<TAB>lemma:lex_id[,lemma:lex_id...]
    H<TAB>child_id<TAB>parent_id      hypernym edge (parent is the hypernym)
    M<TAB>whole_id<TAB>part_id        meronym edge, whole -> part

Records may appear in any order; edges may forward-reference synsets that
appear later in the stream but must resolve by end of input.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import IO, AbstractSet, Iterable, Iterator, Mapping, Sequence


class RelationMode(enum.Enum):
    """Which edge sets participate in downward/upward traversals."""

    HYPERNYMY = "hyper"
    HYPERNYMY_MERONYMY = "hyper+mero"

    @property
    def includes_meronymy(self) -> bool:
        return self is RelationMode.HYPERNYMY_MERONYMY


class TaxonomyError(ValueError):
    """Malformed TIF input or a violated taxonomy invariant."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class SubhierarchyMetrics:
    """Size, height and mean branching of the subhierarchy rooted at a concept.

    ``descendants`` counts distinct synsets reachable downward, including the
    concept itself.  ``height`` is the longest downward path in edges, through
    the condensation where a cycle can be reached (see the module docstring).
    ``local_nhyp`` is the non-negative root of sum(x**i for i in 0..height)
    == descendants, i.e. the branching factor a uniform tree of this height
    and size would have; by convention it is 0 for leaves.
    """

    concept: str
    descendants: int
    height: int
    local_nhyp: float


#: Residual tolerance the nhyp root solve must meet.
NHYP_TOLERANCE = 1e-9


def geometric_power_sum(x: float, h: int) -> float:
    """sum(x**i for i in 0..h), summed termwise (robust near x == 1)."""
    total = 1.0
    term = 1.0
    for _ in range(h):
        term *= x
        total += term
    return total


def solve_nhyp(descendants: int, height: int) -> float:
    """Root of sum(x**i for i in 0..height) == descendants, by bisection.

    The sum is strictly increasing in x >= 0, equals 1 at x=0 and exceeds
    descendants at x=descendants, so a unique non-negative root exists for
    height >= 1.  Leaves (height 0) return 0 by convention.  Bisection runs
    to float convergence (at most 200 iterations), which leaves a residual
    far below NHYP_TOLERANCE at the scales a noun taxonomy reaches.
    """
    if height == 0:
        return 0.0
    lo, hi = 0.0, float(descendants)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if geometric_power_sum(mid, height) < descendants:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grouped(keys: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """Each head's tails, indexed by head, from ``keys`` ``head * n + tail``
    in ascending order; a head with no key gets ()."""
    groups: list[tuple[int, ...]] = [()] * n
    for head, run in itertools.groupby(keys, n.__rfloordiv__):  # key // n
        groups[head] = tuple(map(n.__rmod__, run))  # key % n
    return groups


def _reach(starts: Iterable[int], adjacency: Sequence[Sequence[int]]) -> set[int]:
    """Every node reachable from ``starts`` along ``adjacency``, starts included."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _components(nodes: Iterable[int], adjacency: Mapping[int, Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of ``adjacency`` over ``nodes``, sinks first.

    Tarjan's algorithm, iterative; every edge must end at one of ``nodes``.
    A component comes after every other component it has an edge to.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}  # the nodes on ``stack`` only
    stack: list[int] = []
    components: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in index:
                    work.append((nxt, iter(adjacency[nxt])))
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    break
                if nxt in low:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    for member in component:
                        del low[member]
                    components.append(component)
    return components


#: ``_core_and_fringe``'s result: link, anchor, depth and core adjacency,
#: each indexed by node number.
_CoreAndFringe = tuple[list[int], list[int], list[int], list[tuple[int, ...]]]


def _core_and_fringe(down: Sequence[Sequence[int]], up: Sequence[Sequence[int]]) -> _CoreAndFringe:
    """The 2-core of the either-direction multigraph and the trees hanging off it.

    Nodes of degree at most one are peeled until none is left (Seidman
    1983); degree counts edges with multiplicity, so a node joined to one
    neighbour by two edges (a hypernym and a meronym edge between one
    pair) or carrying a self-loop keeps degree two and stays in the core.
    A peeled node links to its one neighbour left when it was peeled, which
    is nearer the core; its anchor is the core node its links end at, and
    its hang depth the number of links to there.  A component with no
    cycle peels away whole; its last node links to itself and anchors it.
    Core nodes are their own anchors at depth 0, and only they have
    adjacency, to their core neighbours.
    """
    degree = [len(kids) + len(parents) for kids, parents in zip(down, up)]
    link = list(range(len(degree)))
    removed = bytearray(len(degree))
    order = [node for node, count in enumerate(degree) if count <= 1]
    for node in order:
        removed[node] = 1
        for neigh in down[node] + up[node]:  # at most one is left
            if not removed[neigh]:
                link[node] = neigh
                degree[neigh] -= 1
                if degree[neigh] == 1:
                    order.append(neigh)
    anchor = list(link)
    depth = [0] * len(degree)
    for node in reversed(order):  # nearer the core first
        nearer = link[node]
        if nearer != node:
            anchor[node] = anchor[nearer]
            depth[node] = depth[nearer] + 1
    adjacency: list[tuple[int, ...]] = [()] * len(degree)
    for node, gone in enumerate(removed):
        if not gone:
            adjacency[node] = tuple(n for n in down[node] + up[node] if not removed[n])
    return link, anchor, depth, adjacency


#: ``_branch_graph``'s result: each inner node's (chain, offset), each
#: chain's (first end, last end, length), each node's (branch neighbour,
#: length) pairs indexed by node number, and the longest chain's length.
_BranchGraph = tuple[dict[int, tuple[int, int]], list[tuple[int, int, int]],
                     list[tuple[tuple[int, int], ...]], int]


def _branch_graph(adjacency: Sequence[Sequence[int]]) -> _BranchGraph:
    """The 2-core with its chains of degree-2 nodes contracted to weighted edges.

    ``adjacency`` is the core's, with multiplicity.  Branch nodes are the
    core nodes of degree other than two, plus the lowest node of each cycle
    that has none (a bare cycle).  A chain runs between two branch nodes,
    possibly the same one, through inner nodes of degree two; each inner
    node records its chain and its offset from the chain's first end.  A
    walk leaves an inner node by the edge it did not come in on, so a node
    joined twice to one neighbour walks back to it.  Two branch nodes are
    joined by the length of the shortest chain between them; a chain from a
    node back to itself adds no edge.  Inner nodes have no edges.
    """
    place: dict[int, tuple[int, int]] = {}
    chains: list[tuple[int, int, int]] = []
    shortest: dict[int, dict[int, int]] = {}  # branch node -> neighbour -> length
    branch = bytearray(len(adjacency))

    def walk(node: int) -> None:
        branch[node] = 1
        for first in adjacency[node]:
            if first in place:
                continue  # walked from its other end, or the other way round
            prev, end, inner = node, first, []
            while not branch[end]:
                inner.append(end)
                pair = adjacency[end]
                prev, end = end, pair[1] if pair[0] == prev else pair[0]
            length = len(inner) + 1
            if inner:
                for offset, member in enumerate(inner, 1):
                    place[member] = (len(chains), offset)
                chains.append((node, end, length))
            if end != node:
                for a, b in ((node, end), (end, node)):
                    near = shortest.setdefault(a, {})
                    if length < near.get(b, length + 1):
                        near[b] = length

    core = [node for node, near in enumerate(adjacency) if near]
    starts = [node for node in core if len(adjacency[node]) != 2]
    for node in starts:
        branch[node] = 1
    for node in starts:
        walk(node)
    # Every degree-2 node of a component with a branch node now has its
    # chain; each one left lies on a bare cycle.
    for node in core:
        if not branch[node] and node not in place:
            walk(node)
    edges: list[tuple[tuple[int, int], ...]] = [()] * len(adjacency)
    for node, near in shortest.items():
        edges[node] = tuple(near.items())
    return place, chains, edges, max((length for *_, length in chains), default=1)


class Taxonomy:
    """Immutable noun taxonomy with memoized metric queries.

    Built by ``load_taxonomy`` from the numbered lines of a TIF stream.
    """

    def __init__(self, lines: Iterable[tuple[int, str]], relation_mode: RelationMode):
        self.relation_mode = relation_mode
        records, index, repeats, edges = _parse_tif(lines)
        # Node numbers follow ascending id order, so integer order is string
        # order: sorted adjacency, tie-breaks and the lowest id on a cycle
        # come out in string order.
        ids = self._ids = sorted(records)
        n = len(ids)
        num = self._num = dict(zip(ids, range(n)))

        # Each edge as one int, lower node * n + upper node, where the lower
        # node is the hyponym or the part; the sets drop repeated edges.
        try:
            hyper_keys = {num[child] * n + num[parent] for _, child, parent in edges["H"]}
            mero_keys = {num[part] * n + num[whole] for _, whole, part in edges["M"]}
        except KeyError:
            # The first edge in file order with an undefined end, the child
            # (or whole) checked before the parent (or part).
            lineno, sid = next(
                (lineno, sid) for lineno, *ends in sorted(edges["H"] + edges["M"])
                for sid in ends if sid not in num
            )
            raise TaxonomyError(f"edge references unknown synset {sid!r}", lineno) from None
        # The edge lines are the largest part of the parse; loading peaks
        # while the adjacency is built, so free them first.
        del edges

        # A key can repeat only under a lemma entered more than once.  Its first
        # entry is its first in its synset's lemma tuple; the parse gave the
        # pairs of the rest.  Then the lemma's synsets are sorted, each once.
        for lemma, pairs in repeats.items():
            sids = index[lemma]
            lexfile, lemmas = records[sids[0]]
            keys = {(lexfile, lemmas[lemmas.index(lemma) + 1]), *zip(pairs[::2], pairs[1::2])}
            if len(keys) < len(sids):
                raise _first_repeated_key(records)
            index[lemma] = tuple(sorted(set(sids)))
        del repeats
        self.lemma_index = index
        self._lexfiles = [records[sid][0] for sid in ids]
        self._lemmas = [records[sid][1] for sid in ids]
        del records

        # Downward (parent -> child) and upward adjacency under the mode,
        # indexed by node number, each tuple sorted.
        ordered = sorted(hyper_keys | mero_keys if relation_mode.includes_meronymy else hyper_keys)
        self._up = _grouped(ordered, n)
        self._down = _grouped(sorted([key % n * n + key // n for key in ordered]), n)
        del ordered, mero_keys
        # Link, anchor and depth of the trees hanging off the 2-core, then
        # the core's branch graph; built by the first ``distances`` call
        # (see ``_core_and_fringe`` and ``_branch_graph``).
        self._core: tuple | None = None

        # Peel sinks (Kahn's algorithm, from the leaves): a node is removed
        # once all its children are, and its height is final then.  The loop
        # also visits the parents it appends.  A node never removed can reach
        # a downward cycle; its height so far is the longest path through a
        # peeled child.
        heights = self._heights = [0] * n
        left = list(map(len, self._down))
        peeled = [node for node, count in enumerate(left) if not count]
        for node in peeled:
            height = heights[node] + 1
            for parent in self._up[node]:
                if heights[parent] < height:
                    heights[parent] = height
                left[parent] -= 1
                if not left[parent]:
                    peeled.append(parent)

        # A hypernym cycle is a downward cycle, so its nodes are unpeeled.
        # Taken in order of their lowest node, the first cyclic component of
        # the hypernym edges among them holds the lowest id on a cycle.
        unpeeled = [node for node, count in enumerate(left) if count]
        hyper_up: dict[int, list[int]] = {node: [] for node in unpeeled}
        for key in hyper_keys if unpeeled else ():
            lower, upper = divmod(key, n)
            if left[lower] and left[upper]:
                hyper_up[lower].append(upper)
        for scc in sorted(map(sorted, _components(unpeeled, hyper_up))):
            if len(scc) > 1 or scc[0] in hyper_up[scc[0]]:
                raise TaxonomyError(f"hypernym cycle through {ids[scc[0]]!r}")

        # Heights over the condensation, sinks first: a component of k nodes
        # adds k - 1 to the longest path that leaves it, through a peeled
        # child or along an edge to a component already done.
        down = {node: [kid for kid in self._down[node] if left[kid]] for node in unpeeled}
        for scc in _components(unpeeled, down):
            inside = set(scc)
            height = len(scc) - 1 + max(
                [heights[node] for node in scc]
                + [heights[kid] + 1 for node in scc for kid in down[node] if kid not in inside]
            )
            for node in scc:
                heights[node] = height

        # Memo caches; written at most once per key (identical values if racy).
        self._metrics: dict[str, SubhierarchyMetrics] = {}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._global_nhyp: float | None = None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        """Synset ids, ascending."""
        return iter(self._ids)

    def _node(self, concept: str) -> int:
        try:
            return self._num[concept]
        except KeyError:
            raise TaxonomyError(f"unknown synset id {concept!r}") from None

    def _names(self, nodes: Iterable[int]) -> frozenset[str]:
        return frozenset(map(self._ids.__getitem__, nodes))

    def senses_of(self, lemma: str) -> tuple[str, ...]:
        """Synset ids carrying ``lemma`` (case-insensitive), ascending; () if none."""
        return self.lemma_index.get(lemma.lower(), ())

    def known_senses(self, lemma: str) -> tuple[str, ...]:
        """``senses_of(lemma)``; ValueError if the taxonomy has no sense of it."""
        senses = self.senses_of(lemma)
        if not senses:
            raise ValueError(f"lemma {lemma!r} is not in the taxonomy")
        return senses

    def resolve_sense_key(self, lemma: str, lexfile: str, lex_id: int) -> str | None:
        """Synset id joined through (lemma, lexfile, lex_id), or None; the load
        rejects a repeated key, so at most one synset matches."""
        lemma = lemma.lower()
        for sid in self.lemma_index.get(lemma, ()):
            node = self._num[sid]
            if self._lexfiles[node] == lexfile and lex_id in _lex_ids(self._lemmas[node], lemma):
                return sid
        return None

    def lexfile_of(self, concept: str) -> str:
        """The lexicographer file of ``concept``."""
        return self._lexfiles[self._node(concept)]

    def sense_key_of(self, lemma: str, concept: str) -> str | None:
        """Render the ``lexfile.lex_id`` key that names ``concept`` for ``lemma``."""
        node = self._node(concept)
        lex_ids = _lex_ids(self._lemmas[node], lemma.lower())
        if not lex_ids:
            return None
        return f"{self._lexfiles[node]}.{min(lex_ids)}"

    def children_of(self, concept: str) -> tuple[str, ...]:
        return tuple(map(self._ids.__getitem__, self._down[self._node(concept)]))

    def ancestors_of(self, sense: str) -> frozenset[str]:
        """All synsets reachable upward from ``sense``, including itself.

        Upward means hypernym edges, plus part->whole once meronymy is in
        the relation mode.  Cycle-safe.
        """
        cached = self._ancestors.get(sense)
        if cached is not None:
            return cached
        result = self._ancestors[sense] = self._names(_reach((self._node(sense),), self._up))
        return result

    def descendant_set(self, concept: str) -> frozenset[str]:
        """Distinct synsets reachable downward from ``concept``, including it."""
        return self._names(_reach((self._node(concept),), self._down))

    def distances(self, source: str, targets: AbstractSet[str]) -> dict[str, int]:
        """Shortest-path lengths from ``source`` to each of ``targets``.

        Edges count 1 and are followed in either direction, under the
        relation mode; targets in another component are absent from the
        result.  The first call peels the trees that hang off the graph's
        2-core (see ``_core_and_fringe``) and contracts the core's chains
        (see ``_branch_graph``).  A target with the source's anchor is at
        their tree distance.  Every other target is at the source's hang
        depth, plus the core distance between the two anchors, plus its own
        hang depth.  This is exact because a hanging tree meets the rest of
        the graph only at its anchor, so no shortest path leaves the core
        and comes back.  Core distances come from one bucket-queue shortest
        path search (Dial 1969) over the branch graph, entered at the
        source anchor or at the ends of its chain.  A target anchor on a
        chain is reached from either end of it, or along it when the source
        anchor lies on the same chain.  The search stops once every target
        anchor is settled.
        """
        start = self._node(source)
        wanted = {self._node(target) for target in targets}
        core = self._core
        if core is None:
            link, anchor, depth, adjacency = _core_and_fringe(self._down, self._up)
            core = self._core = (link, anchor, depth, *_branch_graph(adjacency))
        link, anchor, depth, place, chains, edges, longest = core
        ids = self._ids
        home = anchor[start]
        found: dict[str, int] = {}
        away: dict[int, list[int]] = {}  # anchor -> the targets hanging off it
        for node in wanted:
            if anchor[node] != home:
                away.setdefault(anchor[node], []).append(node)
                continue
            # Lift the deeper end to the other's depth, then both to where
            # they meet; the anchor itself is the highest meeting point.
            a, b = start, node
            while depth[a] > depth[b]:
                a = link[a]
            while depth[b] > depth[a]:
                b = link[b]
            while a != b:
                a, b = link[a], link[b]
            found[ids[node]] = depth[start] + depth[node] - 2 * depth[a]
        if not away:
            return found
        # A ring of buckets (Dial 1969): ring[d % len(ring)] holds the nodes
        # reached at core distance d.  No step is longer than the longest
        # chain, so the ring never wraps onto a bucket still in use.
        ring: list[list[int]] = [[] for _ in range(longest + 1)]
        settled = bytearray(len(ids))
        marked = bytearray(len(ids))  # target anchors, and chain ends they hang off
        hooks: dict[int, list[tuple[int, int]]] = {}
        on_chain = place.get(home)
        if on_chain is None:
            ring[0].append(home)
        else:
            chain, offset = on_chain
            first, last, length = chains[chain]
            ring[offset].append(first)
            ring[length - offset].append(last)
        for node in away:
            marked[node] = 1
            at = place.get(node)
            if at is not None:
                first, last, length = chains[at[0]]
                hooks.setdefault(first, []).append((node, at[1]))
                hooks.setdefault(last, []).append((node, length - at[1]))
                marked[first] = marked[last] = 1
                if on_chain is not None and at[0] == chain:
                    ring[abs(at[1] - offset)].append(node)
        left = len(away)
        size = len(ring)
        core_d, idle = -1, 0
        while idle < size:  # a whole turn of empty buckets: nothing is left
            core_d += 1
            slot = core_d % size
            reached = ring[slot]
            if not reached:
                idle += 1
                continue
            idle = 0
            ring[slot] = []
            for node in reached:
                if settled[node]:
                    continue
                settled[node] = 1
                if marked[node]:
                    hanging = away.get(node)
                    if hanging is not None:
                        for target in hanging:
                            found[ids[target]] = depth[start] + core_d + depth[target]
                        left -= 1
                        if not left:
                            return found
                    for nxt, length in hooks.get(node, ()):
                        ring[(slot + length) % size].append(nxt)
                for nxt, length in edges[node]:
                    if not settled[nxt]:
                        ring[(slot + length) % size].append(nxt)
        return found

    def subhierarchy_metrics(self, concept: str) -> SubhierarchyMetrics:
        """Descendant count, height and local nhyp for ``concept`` (memoized)."""
        cached = self._metrics.get(concept)
        if cached is not None:
            return cached
        node = self._node(concept)
        descendants = len(_reach((node,), self._down))
        height = self._heights[node]
        metrics = self._metrics[concept] = SubhierarchyMetrics(
            concept=concept, descendants=descendants, height=height,
            local_nhyp=solve_nhyp(descendants, height),
        )
        return metrics

    def global_nhyp(self) -> float:
        """One nhyp estimated from the whole hierarchy.

        Solves sum(x**i for i in 0..H) == N where N is the synset count and
        H the height of the hierarchy, the maximum height over the roots.
        That is the maximum over all synsets: hypernym edges form no cycle,
        so every synset lies under a hypernym root, and a concept's height
        is at least that of everything under it.
        """
        if self._global_nhyp is None:
            if not self._ids:
                raise TaxonomyError("empty taxonomy")
            self._global_nhyp = solve_nhyp(len(self._ids), max(self._heights))
        return self._global_nhyp


# -- TIF parsing -----------------------------------------------------------


def _lex_ids(lemmas: tuple, lemma: str) -> list[int]:
    """The lex_ids a flat (lemma, lex_id, lemma, lex_id, ...) tuple gives ``lemma``."""
    return [lemmas[i + 1] for i in range(0, len(lemmas), 2) if lemmas[i] == lemma]


def _first_repeated_key(records: Mapping[str, tuple[str, tuple]]) -> TaxonomyError:
    """The error naming the first repeated sense key in file order, and its first holder."""
    holders: dict[tuple, str] = {}
    for sid, (lexfile, lemmas) in records.items():
        for key in zip(lemmas[::2], itertools.repeat(lexfile), lemmas[1::2]):
            if key in holders:
                return TaxonomyError("duplicate sense key {}%{}.{} in {!r} and {!r}".format(
                    *key, holders[key], sid))
            holders[key] = sid
    raise AssertionError("no sense key repeats")


def read_lines(stream: IO) -> Iterator[tuple[int, str]]:
    """(line number, text without its line ending) for each line of ``stream``.

    Bytes are decoded as UTF-8.  A byte-order mark opening line 1 is
    dropped, whether the stream yields bytes or text.
    """
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")
        yield lineno, raw.rstrip("\n").rstrip("\r")


def _parse_tif(lines: Iterable[tuple[int, str]]) -> tuple[dict, dict, dict, dict]:
    """By id in file order, each S record's lexfile (one string per name) and flat
    (lemma, lex_id, ...) tuple, lemmas lower-cased; each lemma's synsets, once per
    entry; the (lexfile, lex_id, ...) pairs of each lemma's entries after its first;
    and each H and M line's number and two ids.  Raises for a malformed line or a repeated id."""
    records: dict[str, tuple[str, tuple]] = {}
    index: dict[str, tuple[str, ...]] = {}
    repeats: dict[str, tuple] = {}
    lexfiles: dict[str, str] = {}
    edges: dict[str, list[tuple[int, str, str]]] = {"H": [], "M": []}
    for lineno, line in lines:
        # The two well-formed shapes first; neither can be blank or a
        # comment, so every other line is checked for those before it fails.
        fields = line.split("\t")
        kind = fields[0]
        if kind == "S" and len(fields) == 4:
            _, sid, lexfile, lemma_field = fields
            if sid in records:
                raise TaxonomyError(f"duplicate synset id {sid!r}", lineno)
            lexfile = lexfiles.setdefault(lexfile, lexfile)
            lemmas: list = []
            one = (sid,)
            for chunk in lemma_field.split(","):
                lemma, sep, lex = chunk.rpartition(":")
                if not sep or not lemma:
                    raise TaxonomyError(f"bad lemma entry {chunk!r}", lineno)
                if not lex.isdecimal():
                    raise TaxonomyError(
                        f"lex_id must be a non-negative integer in {chunk!r}", lineno)
                lemma, lex_id = lemma.lower(), int(lex)
                lemmas += (lemma, lex_id)
                if lemma in index:
                    repeats[lemma] = repeats.get(lemma, ()) + (lexfile, lex_id)
                index[lemma] = index.get(lemma, ()) + one
            if not lexfile:
                raise TaxonomyError(f"synset {sid!r} has empty lexfile", lineno)
            records[sid] = (lexfile, tuple(lemmas))
        elif kind in edges and len(fields) == 3:
            edges[kind].append((lineno, fields[1], fields[2]))
        elif not line.strip() or line.lstrip().startswith("#"):
            continue
        elif kind == "S":
            raise TaxonomyError(f"S record needs 4 fields, got {len(fields)}", lineno)
        elif kind in edges:
            raise TaxonomyError(f"{kind} record needs 3 fields, got {len(fields)}", lineno)
        else:
            raise TaxonomyError(f"unknown record type {kind!r}", lineno)
    return records, index, repeats, edges


def load_taxonomy(stream: IO, relation_mode: RelationMode = RelationMode.HYPERNYMY) -> Taxonomy:
    """Parse a TIF stream (bytes or text) into a validated Taxonomy.

    Raises TaxonomyError for a malformed record or a duplicate synset id,
    naming its line; for a dangling edge reference, naming the first edge
    in file order that holds one; and, with no line, for duplicate
    (lemma, lexfile, lex_id) sense keys and hypernym cycles.
    """
    return Taxonomy(read_lines(stream), relation_mode)
