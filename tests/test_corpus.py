import io

import pytest

from cdwsd.corpus import (
    CorpusError,
    SemcorToken,
    SenseKey,
    corpus_stats,
    extract_nouns,
    parse_plain,
    parse_semcor,
    serialize_semcor,
)

from helpers import DATA, load_data_taxonomy


def parse_text(text):
    return parse_semcor(io.StringIO(text))


class TestParseSemcor:
    def test_simple_token_golden(self):
        doc = parse_text("<s>\n<wd>jury</wd><sn>[noun.group.0]</sn><tag>NN</tag>\n</s>\n")
        (sentence,) = doc.sentences
        assert sentence == (
            SemcorToken(
                wordform="jury",
                lemma="jury",
                pos="NN",
                sense_key=SenseKey("noun.group", 0),
                has_mwd=False,
            ),
        )

    def test_multiword_token_golden(self):
        doc = parse_text(
            "<s>\n<wd>prison_farms</wd><mwd>prison_farm</mwd>"
            "<msn>[noun.artifact.0]</msn><tag>NN</tag>\n</s>\n"
        )
        (tok,) = doc.sentences[0]
        assert tok.wordform == "prison_farms"
        assert tok.lemma == "prison_farm"
        assert tok.sense_key == SenseKey("noun.artifact", 0)
        assert tok.pos == "NN"
        assert tok.has_mwd

    def test_token_without_sense(self):
        doc = parse_text("<s>\n<wd>praised</wd><tag>VBD</tag>\n</s>\n")
        (tok,) = doc.sentences[0]
        assert tok.sense_key is None
        assert not tok.is_noun()

    def test_wordform_case_preserved_lemma_lowered(self):
        doc = parse_text("<s>\n<wd>Police_Department</wd><tag>NN</tag>\n</s>\n")
        (tok,) = doc.sentences[0]
        assert tok.wordform == "Police_Department"
        assert tok.lemma == "police_department"

    def test_multiline_key_lexfile_split(self):
        doc = parse_text("<s>\n<wd>x</wd><sn>[noun.animal.12]</sn><tag>NN</tag>\n</s>\n")
        assert doc.sentences[0][0].sense_key == SenseKey("noun.animal", 12)

    def test_empty_input(self):
        doc = parse_text("")
        assert doc.sentences == ()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("<wd>x</wd><tag>NN</tag>\n", "outside a sentence"),
            ("<s>\n<s>\n", "nested"),
            ("<s>\n<wd>x</wd>\n</s>\n", "no <tag>"),
            ("</s>\n", "outside"),
            ("<s>\n<sn>[noun.act.0]</sn>\n", "before any <wd>"),
            ("<s>\n<wd>x</wd><sn>[bad]</sn><tag>NN</tag>\n</s>\n", "sense key"),
            ("<s>\n<wd>x</wd><sn>[noun.act.x]</sn><tag>NN</tag>\n</s>\n", "sense key"),
            ("<s>\nstray words\n</s>\n", "stray text"),
            ("<s>\n<wd>x</wd><tag>NN</tag>\n", "end of input"),
            ("<s>\n<wd>x</wd junk\n", "unterminated"),
            ("<s>\n<wd>x</wd>\n<wd>y</wd><tag>NN</tag>\n</s>\n", "^line 3: token 'x' has no <tag>$"),
            ("<s>\n<wd>x</wd><wd>y\n", "^line 2: unterminated <wd>$"),
        ],
    )
    def test_malformed(self, text, match):
        with pytest.raises(CorpusError, match=match):
            parse_text(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(CorpusError, match="line 3"):
            parse_text("<s>\n<wd>ok</wd><tag>NN</tag>\n<sn>[noun.act.0]</sn>\n</s>\n")


class TestRoundTrip:
    def test_golden_file_roundtrip(self):
        text = (DATA / "sample_sentence.semcor").read_text(encoding="utf-8")
        assert serialize_semcor(parse_text(text)) == text

    def test_toy_corpus_roundtrip(self):
        text = (DATA / "toy_corpus.semcor").read_text(encoding="utf-8")
        assert serialize_semcor(parse_text(text)) == text


class TestExtractNouns:
    def test_sample_sentence_yields_input_words(self):
        t = load_data_taxonomy("sample_taxonomy.tif")
        with open(DATA / "sample_sentence.semcor", encoding="utf-8") as fh:
            doc = parse_semcor(fh)
        extracted = extract_nouns(doc, t)
        assert [o.lemma for o in extracted.occurrences] == [
            "jury",
            "administration",
            "operation",
            "police_department",
            "prison_farm",
        ]
        assert [o.doc_position for o in extracted.occurrences] == [0, 1, 2, 3, 4]
        assert extracted.gold == (
            SenseKey("noun.group", 0),
            SenseKey("noun.act", 0),
            SenseKey("noun.state", 0),
            SenseKey("noun.group", 0),
            SenseKey("noun.artifact", 0),
        )
        assert extracted.out_of_vocabulary == 0

    def test_no_nouns(self):
        t = load_data_taxonomy("sample_taxonomy.tif")
        doc = parse_text("<s>\n<wd>praised</wd><tag>VBD</tag>\n</s>\n")
        extracted = extract_nouns(doc, t)
        assert extracted.occurrences == ()

    def test_out_of_vocabulary_counted(self):
        t = load_data_taxonomy("two_clusters.tif")
        with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
            doc = parse_semcor(fh)
        extracted = extract_nouns(doc, t)
        assert extracted.out_of_vocabulary == 1  # xylophone
        assert len(extracted.occurrences) == 6
        # subsequence of the noun token stream, re-indexed
        assert [o.lemma for o in extracted.occurrences] == [
            "trout", "bass", "salmon", "guitar", "bass", "drum",
        ]
        nouns_by_sentence = [
            [tok.lemma for tok in sentence if tok.is_noun()] for sentence in doc.sentences
        ]
        assert nouns_by_sentence == [
            ["trout", "bass", "salmon"], ["guitar", "bass", "xylophone", "drum"],
        ]

    def test_gold_keys_resolve_uniquely(self):
        t = load_data_taxonomy("two_clusters.tif")
        with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
            extracted = extract_nouns(parse_semcor(fh), t)
        for occ, key in zip(extracted.occurrences, extracted.gold):
            assert t.resolve_sense_key(occ.lemma, key.lexfile, key.lex_id) is not None


class TestCorpusStats:
    def test_empty_document(self):
        t = load_data_taxonomy("two_clusters.tif")
        stats = corpus_stats(parse_text(""), t)
        assert (stats.words, stats.nouns, stats.nouns_in_taxonomy, stats.monosemous) == (
            0, 0, 0, 0,
        )
        assert stats.monosemous_pct() == 0

    def test_toy_corpus_hand_count(self):
        # 8 tokens; 7 nouns (praised is VBD); xylophone not in the taxonomy;
        # of the 6 in-taxonomy nouns the two bass occurrences are polysemous.
        t = load_data_taxonomy("two_clusters.tif")
        with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
            stats = corpus_stats(parse_semcor(fh), t)
        assert stats.words == 8
        assert stats.nouns == 7
        assert stats.nouns_in_taxonomy == 6
        assert stats.monosemous == 4
        assert stats.monosemous_pct() == 67  # 4/6 rounded half-up


class TestParsePlain:
    def test_one_line(self):
        doc = parse_plain(io.StringIO("jury administration operation\n"))
        assert doc.sentences == (
            tuple(
                SemcorToken(wordform=w, lemma=w, pos="NN")
                for w in ("jury", "administration", "operation")
            ),
        )

    def test_blank_lines_ignored(self):
        doc = parse_plain(io.StringIO("a b\n\n\nc\n"))
        assert [[tok.lemma for tok in s] for s in doc.sentences] == [["a", "b"], ["c"]]

    def test_input_words_line(self):
        line = "jury administration operation Police_Department prison_farm\n"
        (sentence,) = parse_plain(io.StringIO(line)).sentences
        assert len(sentence) == 5
        assert (sentence[3].wordform, sentence[3].lemma) == (
            "Police_Department", "police_department",
        )

    def test_extract_nouns_drops_unknown_words(self):
        t = load_data_taxonomy("two_clusters.tif")
        extracted = extract_nouns(parse_plain(io.StringIO("trout mystery bass\n")), t)
        assert extracted.out_of_vocabulary == 1
        assert [o.lemma for o in extracted.occurrences] == ["trout", "bass"]
        assert [o.doc_position for o in extracted.occurrences] == [0, 1]


class TestLayoutFlexibility:
    def test_whole_sentence_on_one_line(self):
        doc = parse_text("<s><wd>a</wd><tag>NN</tag><wd>b</wd><tag>NN</tag></s>\n")
        assert [tok.wordform for tok in doc.sentences[0]] == ["a", "b"]

    def test_token_elements_split_across_lines(self):
        doc = parse_text("<s>\n<wd>b</wd>\n<sn>[noun.act.0]</sn>\n<tag>NN</tag>\n</s>\n")
        (tok,) = doc.sentences[0]
        assert tok.sense_key == SenseKey("noun.act", 0)
        assert tok.pos == "NN"
