"""Seeded generator for a WordNet-shaped taxonomy (TIF) and tagged texts.

Everything the benchmark feeds the program comes from here, so no data is
downloaded.  The shape follows the WordNet 1.4 noun hierarchy loosely:

* one root plus 24 top concepts, one lexicographer file each (25 files);
  every later synset attaches to a uniformly drawn earlier one (a random
  recursive tree), so ancestor sets hold about a dozen synsets;
* first-parent depth is capped at ``MAX_DEPTH``; 2% of synsets get a
  second hypernym;
* every synset has its own monosemous lemma, and a pool of polysemous
  lemmas takes its senses from random synsets anywhere in the tree;
* 1% of synsets are the whole of a meronym edge, and some of those edges
  point back at an ancestor, closing a cycle with hypernymy as real
  WordNet does (only the ``hyper+mero`` relation mode sees them).

Texts draw half of their noun tokens from monosemous lemmas and half from
polysemous ones, with an exact quota per polysemy level, so every text of
a given length carries the same sense-count mix and runs differ mainly in
where the senses sit in the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

LEXFILES = (
    "noun.Tops", "noun.act", "noun.animal", "noun.artifact", "noun.attribute",
    "noun.body", "noun.cognition", "noun.communication", "noun.event",
    "noun.feeling", "noun.food", "noun.group", "noun.location", "noun.motive",
    "noun.object", "noun.person", "noun.phenomenon", "noun.plant",
    "noun.possession", "noun.process", "noun.quantity", "noun.relation",
    "noun.shape", "noun.state", "noun.substance",
)
MAX_DEPTH = 22
SECOND_HYPERNYM_SHARE = 0.02
MERONYM_SHARE = 0.01
#: Share of meronym edges whose part is an ancestor of the whole.
CYCLIC_MERONYM_SHARE = 0.05

#: Share of polysemous noun tokens per sense count (sums to 1).  With half
#: the tokens monosemous, a token averages about 3.6 senses.
POLYSEMY_MIX = (
    (2, 0.20), (3, 0.16), (4, 0.14), (5, 0.11), (6, 0.09), (7, 0.07),
    (8, 0.06), (9, 0.04), (10, 0.04), (12, 0.03), (15, 0.02), (20, 0.02),
    (30, 0.02),
)
MONOSEMOUS_SHARE = 0.5
OOV_SHARE = 0.02
FILLERS = (("the", "DT"), ("of", "IN"), ("was", "VBD"), ("new", "JJ"),
           ("said", "VBD"), ("and", "CC"), ("in", "IN"), ("a", "DT"))


@dataclass
class Taxonomy:
    """Generated synsets, indexed 0..n-1; parents always have smaller ids."""

    lexfile: list[int]
    parents: list[tuple[int, ...]]
    depth: list[int]
    meronyms: list[tuple[int, int]]  # (whole, part)
    lemmas: list[list[str]]  # per synset
    poly_pool: dict[int, list[str]]  # sense count -> lemmas
    senses: dict[str, list[int]]  # lemma -> synsets


def _sid(i: int) -> str:
    return f"n{i:06d}"


def _quota(total: int, shares) -> list[tuple[object, int]]:
    """Split ``total`` by ``shares`` with largest remainders (exact sum)."""
    raw = [(key, share * total) for key, share in shares]
    counts = [(key, int(x)) for key, x in raw]
    short = total - sum(c for _, c in counts)
    order = sorted(range(len(raw)), key=lambda i: -(raw[i][1] - counts[i][1]))
    for i in order[:short]:
        counts[i] = (counts[i][0], counts[i][1] + 1)
    return counts


def generate_taxonomy(seed: int, n_synsets: int) -> Taxonomy:
    rng = random.Random(seed)
    n_top = len(LEXFILES) - 1
    if n_synsets < 4 * (n_top + 1):
        raise ValueError(f"need at least {4 * (n_top + 1)} synsets")
    lexfile = [0] + list(range(1, n_top + 1))
    parents: list[tuple[int, ...]] = [()] + [(0,)] * n_top
    depth = [0] + [1] * n_top
    first = [-1] + [0] * n_top
    for i in range(n_top + 1, n_synsets):
        p = rng.randrange(1, i)
        while depth[p] >= MAX_DEPTH:
            p = first[p]
        first.append(p)
        parents.append((p,))
        depth.append(depth[p] + 1)
        lexfile.append(lexfile[p])
    for i in range(n_top + 1, n_synsets):
        if rng.random() < SECOND_HYPERNYM_SHARE:
            q = rng.randrange(1, i)
            if q != first[i]:
                parents[i] = (first[i], q)

    meronyms = []
    for _ in range(int(MERONYM_SHARE * n_synsets)):
        if rng.random() < CYCLIC_MERONYM_SHARE:
            whole = rng.randrange(n_top + 1, n_synsets)
            chain = []
            node = first[whole]
            while node > 0:
                chain.append(node)
                node = first[node]
            part = rng.choice(chain)  # an ancestor: closes a cycle
        else:
            whole, part = sorted(rng.sample(range(1, n_synsets), 2))
        meronyms.append((whole, part))

    lemmas = [[f"w{i:06d}"] for i in range(n_synsets)]
    senses: dict[str, list[int]] = {f"w{i:06d}": [i] for i in range(n_synsets)}
    poly_pool: dict[int, list[str]] = {}
    per_level = max(8, n_synsets // 200)
    for k, _ in POLYSEMY_MIX:
        names = []
        for j in range(per_level):
            name = f"p{k:02d}x{j:04d}"
            chosen = sorted(rng.sample(range(1, n_synsets), k))
            for s in chosen:
                lemmas[s].append(name)
            senses[name] = chosen
            names.append(name)
        poly_pool[k] = names
    return Taxonomy(lexfile, parents, depth, meronyms, lemmas, poly_pool, senses)


def write_tif(tax: Taxonomy, path: Path) -> None:
    lines = []
    for i, names in enumerate(tax.lemmas):
        lexfile = tax.lexfile[i]
        entries = ",".join(f"{name}:{_lex_id(tax, name, i)}" for name in names)
        lines.append(f"S\t{_sid(i)}\t{LEXFILES[lexfile]}\t{entries}")
    for i, ps in enumerate(tax.parents):
        for p in ps:
            lines.append(f"H\t{_sid(i)}\t{_sid(p)}")
    for whole, part in tax.meronyms:
        lines.append(f"M\t{_sid(whole)}\t{_sid(part)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _lex_id(tax: Taxonomy, lemma: str, synset: int) -> int:
    """Rank of ``synset`` among the lemma's senses in the same lexfile."""
    lexfile = tax.lexfile[synset]
    same = [s for s in tax.senses[lemma] if tax.lexfile[s] == lexfile]
    return same.index(synset)


def cyclic_nodes(tax: Taxonomy) -> int:
    """Synsets on a hypernym+meronym cycle (iterative Tarjan).

    Computed here rather than by the program, so that a change to the
    program cannot change the recorded shape of its own inputs.
    """
    n = len(tax.parents)
    down: list[list[int]] = [[] for _ in range(n)]
    for child, ps in enumerate(tax.parents):
        for p in ps:
            down[p].append(child)
    for whole, part in tax.meronyms:
        down[whole].append(part)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    cyclic = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            node, k = work[-1]
            if k == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            if k < len(down[node]):
                work[-1] = (node, k + 1)
                nxt = down[node][k]
                if index[nxt] < 0:
                    work.append((nxt, 0))
                elif on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                size = 0
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    size += 1
                    if member == node:
                        break
                if size > 1:
                    cyclic += size
    return cyclic


def generate_text(tax: Taxonomy, rng: random.Random, n_nouns: int) -> tuple[str, dict]:
    """One tagged text with ``n_nouns`` in-taxonomy noun tokens.

    Returns the text and its counts: nouns, total senses over those noun
    tokens, and monosemous tokens.
    """
    n_mono = round(MONOSEMOUS_SHARE * n_nouns)
    levels = [1] * n_mono
    for k, count in _quota(n_nouns - n_mono, POLYSEMY_MIX):
        levels.extend([k] * count)
    rng.shuffle(levels)
    n_synsets = len(tax.parents)
    tokens = []
    for k in levels:
        if k == 1:
            lemma = f"w{rng.randrange(1, n_synsets):06d}"
        else:
            lemma = rng.choice(tax.poly_pool[k])
        sense = rng.choice(tax.senses[lemma])
        key = f"{LEXFILES[tax.lexfile[sense]]}.{_lex_id(tax, lemma, sense)}"
        if rng.random() < 0.2:
            tokens.append(
                f"<wd>{lemma}s</wd><mwd>{lemma}</mwd><msn>[{key}]</msn><tag>NNS</tag>")
        else:
            tokens.append(f"<wd>{lemma}</wd><sn>[{key}]</sn><tag>NN</tag>")
        for _ in range(rng.randrange(3)):
            word, tag = rng.choice(FILLERS)
            tokens.append(f"<wd>{word}</wd><tag>{tag}</tag>")
        if rng.random() < OOV_SHARE:
            tokens.append(f"<wd>zz{rng.randrange(10**6)}</wd><tag>NN</tag>")
    lines = []
    for start in range(0, len(tokens), 12):
        lines.append("<s>")
        lines.extend(tokens[start : start + 12])
        lines.append("</s>")
    counts = {"nouns": n_nouns, "senses": sum(levels), "monosemous": n_mono}
    return "\n".join(lines) + "\n", counts


def generate(seed: int, n_synsets: int, texts: list[int], name: str, out: Path) -> dict:
    """Write ``taxonomy.tif`` and ``text<i>.semcor`` under ``out``.

    ``texts`` lists the noun count of each text.  The taxonomy depends on
    ``seed`` only; the texts also on ``name``, so workloads sharing a seed
    share the taxonomy but not the text.  Returns the realised shape.
    """
    tax = generate_taxonomy(seed, n_synsets)
    out.mkdir(parents=True, exist_ok=True)
    write_tif(tax, out / "taxonomy.tif")
    rng = random.Random(f"{seed}:{name}")
    paths, nouns, senses, mono = [], 0, 0, 0
    for i, n in enumerate(texts):
        text, counts = generate_text(tax, rng, n)
        path = out / f"text{i}.semcor"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        nouns += counts["nouns"]
        senses += counts["senses"]
        mono += counts["monosemous"]
    return {
        "taxonomy": out / "taxonomy.tif",
        "texts": paths,
        "shape": {
            "synsets": n_synsets,
            "max_depth": max(tax.depth),
            "meronym_edges": len(tax.meronyms),
            "cyclic_meronym_nodes": cyclic_nodes(tax),
            "nouns": nouns,
            "mean_senses_per_token": senses / nouns,
            "monosemous_share": mono / nouns,
        },
    }

