"""Readers for sense-tagged and plain noun input, plus corpus statistics.

The tagged format is the sense-concordance subset below, one element per
token line inside sentence markers:

    <s>
    <wd>jury</wd><sn>[noun.group.0]</sn><tag>NN</tag>
    <wd>prison_farms</wd><mwd>prison_farm</mwd><msn>[noun.artifact.0]</msn><tag>NN</tag>
    </s>

``wd`` is the surface form, ``mwd`` the lemma when it differs beyond case
(multiwords, inflection), ``sn``/``msn`` the gold sense key, ``tag`` the
POS tag closing the token.  Sense keys are ``[lexfile.lex_id]`` where the
final dot-separated field is the integer lex_id and the rest the
lexicographer file.

Plain input is whitespace-separated words, one sentence per line.  It is
read into the same ``Document``: every word becomes an ``NN`` token whose
lemma is the word in lower case, with no sense key, so ``extract_nouns``
turns either format into the disambiguation input stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO

from .disambiguator import NounOccurrence
from .taxonomy import Taxonomy, read_lines


class CorpusError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class SenseKey:
    """Gold annotation: lexicographer file plus disambiguating integer."""

    lexfile: str
    lex_id: int

    def __str__(self) -> str:
        return f"{self.lexfile}.{self.lex_id}"


@dataclass(frozen=True)
class SemcorToken:
    wordform: str
    lemma: str
    pos: str
    sense_key: SenseKey | None = None
    has_mwd: bool = False

    def is_noun(self) -> bool:
        return self.pos.startswith("NN")


@dataclass(frozen=True)
class Document:
    sentences: tuple[tuple[SemcorToken, ...], ...]


@dataclass(frozen=True)
class CorpusStats:
    words: int
    nouns: int
    nouns_in_taxonomy: int
    monosemous: int

    def monosemous_pct(self) -> int:
        """Integer percent of in-taxonomy nouns that are monosemous, half-up."""
        if not self.nouns_in_taxonomy:
            return 0
        q, r = divmod(100 * self.monosemous, self.nouns_in_taxonomy)
        return q + (1 if 2 * r >= self.nouns_in_taxonomy else 0)


_ELEMENT = re.compile(r"<(/?)(s|wd|mwd|sn|msn|tag)>")
_SENSE_KEY = re.compile(r"\[(.+)\.(\d+)\]")


def _parse_sense_key(text: str, lineno: int) -> SenseKey:
    m = _SENSE_KEY.fullmatch(text)
    if not m or not m.group(1):
        raise CorpusError(f"sense key {text!r} does not match [lexfile.lex_id]", lineno)
    return SenseKey(lexfile=m.group(1), lex_id=int(m.group(2)))


def parse_semcor(stream: IO) -> Document:
    """Parse the tagged subset into a Document.

    Raises CorpusError with a line number for malformed nesting: elements
    outside a sentence, token elements before any <wd>, unterminated
    elements, sense keys that do not match ``[lexfile.lex_id]``, or stray
    text between elements.
    """
    sentences: list[tuple[SemcorToken, ...]] = []
    in_sentence = False
    tokens: list[SemcorToken] = []
    # Current token parts: wordform, mwd lemma, sense key; only <tag> ends it.
    cur: dict | None = None

    for lineno, line in read_lines(stream):
        pos = 0
        while pos < len(line):
            m = _ELEMENT.search(line, pos)
            if m is None:
                if line[pos:].strip():
                    raise CorpusError(f"stray text {line[pos:].strip()!r}", lineno)
                break
            if line[pos : m.start()].strip():
                raise CorpusError(f"stray text {line[pos:m.start()].strip()!r}", lineno)
            closing, name = m.group(1), m.group(2)
            if name == "s":
                if closing:
                    if not in_sentence:
                        raise CorpusError("</s> outside a sentence", lineno)
                    if cur is not None:
                        raise CorpusError(f"token {cur['wd']!r} has no <tag>", lineno)
                    sentences.append(tuple(tokens))
                    tokens = []
                    in_sentence = False
                else:
                    if in_sentence:
                        raise CorpusError("<s> nested inside a sentence", lineno)
                    in_sentence = True
                pos = m.end()
                continue
            if closing:
                raise CorpusError(f"unexpected closing tag </{name}>", lineno)
            close = line.find(f"</{name}>", m.end())
            if close < 0:
                raise CorpusError(f"unterminated <{name}>", lineno)
            content = line[m.end() : close]
            pos = close + len(name) + 3
            if not in_sentence:
                raise CorpusError(f"<{name}> outside a sentence", lineno)
            if name == "wd":
                if cur is not None:
                    raise CorpusError(f"token {cur['wd']!r} has no <tag>", lineno)
                cur = {"wd": content, "mwd": None, "key": None}
                continue
            if cur is None:
                raise CorpusError(f"<{name}> before any <wd>", lineno)
            if name == "mwd":
                cur["mwd"] = content
            elif name in ("sn", "msn"):
                cur["key"] = _parse_sense_key(content, lineno)
            elif name == "tag":
                lemma = cur["mwd"] if cur["mwd"] is not None else cur["wd"]
                tokens.append(
                    SemcorToken(
                        wordform=cur["wd"],
                        lemma=lemma.lower(),
                        pos=content,
                        sense_key=cur["key"],
                        has_mwd=cur["mwd"] is not None,
                    )
                )
                cur = None
    if in_sentence:
        raise CorpusError("end of input inside a sentence", lineno)
    return Document(tuple(sentences))


def serialize_semcor(doc: Document) -> str:
    """Re-emit a Document in the tagged format, one token per line."""
    lines = []
    for sentence in doc.sentences:
        lines.append("<s>")
        for tok in sentence:
            parts = [f"<wd>{tok.wordform}</wd>"]
            if tok.has_mwd:
                parts.append(f"<mwd>{tok.lemma}</mwd>")
            if tok.sense_key is not None:
                tag = "msn" if tok.has_mwd else "sn"
                parts.append(f"<{tag}>[{tok.sense_key}]</{tag}>")
            parts.append(f"<tag>{tok.pos}</tag>")
            lines.append("".join(parts))
        lines.append("</s>")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ExtractedNouns:
    """The disambiguation input stream drawn from one document.

    ``words`` counts every token of the source; the nouns in it are the
    kept occurrences plus the ``out_of_vocabulary`` ones.
    """

    occurrences: tuple[NounOccurrence, ...]
    gold: tuple[SenseKey | None, ...]
    out_of_vocabulary: int
    words: int

    def stats(self, t: Taxonomy) -> CorpusStats:
        """Corpus statistics of the source, polysemy looked up in ``t``."""
        monosemous = sum(len(t.senses_of(o.lemma)) == 1 for o in self.occurrences)
        return CorpusStats(
            self.words,
            len(self.occurrences) + self.out_of_vocabulary,
            len(self.occurrences),
            monosemous,
        )


def extract_nouns(doc: Document, t: Taxonomy) -> ExtractedNouns:
    """Keep NN-tagged tokens whose lemma the taxonomy knows.

    Positions are indices within the kept stream (windows slide over it).
    Gold keys ride along untouched; out-of-vocabulary nouns are counted but
    produce no occurrence.
    """
    occurrences: list[NounOccurrence] = []
    gold: list[SenseKey | None] = []
    oov = words = 0
    for sentence in doc.sentences:
        words += len(sentence)
        for tok in sentence:
            if not tok.is_noun():
                continue
            if not t.senses_of(tok.lemma):
                oov += 1
                continue
            occurrences.append(NounOccurrence(len(occurrences), tok.lemma))
            gold.append(tok.sense_key)
    return ExtractedNouns(tuple(occurrences), tuple(gold), oov, words)


def corpus_stats(doc: Document, t: Taxonomy) -> CorpusStats:
    return extract_nouns(doc, t).stats(t)


def parse_plain(stream: IO) -> Document:
    """Whitespace-separated words, one sentence per line; blank lines skipped.

    Every word is an ``NN`` token, lemma in lower case, with no sense key.
    """
    sentences = []
    for _, line in read_lines(stream):
        words = line.split()
        if words:
            sentences.append(
                tuple(SemcorToken(wordform=w, lemma=w.lower(), pos="NN") for w in words)
            )
    return Document(tuple(sentences))
