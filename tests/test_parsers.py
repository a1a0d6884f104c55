"""Contracts shared by the three input parsers.

A leading UTF-8 byte-order mark changes nothing, whether the parser is
handed bytes or a text stream, and malformed input of any shape raises
only the documented parse errors.  The TIF parser raises the same error
as a plain record-by-record reference loader, or builds a taxonomy that
answers every query as the reference's records say.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.corpus import CorpusError, parse_plain, parse_semcor
from cdwsd.taxonomy import RelationMode, TaxonomyError, load_taxonomy

from helpers import DATA, assert_matches_reference, reference_load_taxonomy

BOM = "\ufeff"


def streams(text, bom):
    """The same input as bytes and as a UTF-8 text stream."""
    data = ((BOM if bom else "") + text).encode("utf-8")
    return [io.BytesIO(data), io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]


def taxonomy_view(t):
    return [(sid, t.lexfile_of(sid), t.children_of(sid)) for sid in t], t.lemma_index


@pytest.mark.parametrize(
    "parse, source",
    [
        (lambda fh: taxonomy_view(load_taxonomy(fh)), "two_clusters.tif"),
        (parse_semcor, "toy_corpus.semcor"),
        (parse_plain, None),
    ],
    ids=["taxonomy", "semcor", "plain"],
)
def test_byte_order_mark_is_ignored(parse, source):
    if source is None:
        text = "jury administration\n\noperation jury\n"
    else:
        text = (DATA / source).read_text(encoding="utf-8")
    expected = parse(io.StringIO(text))
    for bom in (False, True):
        for stream in streams(text, bom):
            assert parse(stream) == expected


def test_byte_order_mark_only_opens_the_input():
    # a mark after line 1 is data, not encoding
    with pytest.raises(TaxonomyError, match="line 2: unknown record type"):
        load_taxonomy(io.StringIO("S\tx\tnoun.act\ta:0\n" + BOM + "S\ty\tnoun.act\tb:0\n"))


def lines_of(line):
    """Inputs of up to eight lines drawn from ``line``, as text or bytes,
    plus arbitrary bytes."""
    text = st.lists(line, max_size=8).map("".join)
    return st.one_of(
        text.map(lambda s: ("text", s)),
        text.map(lambda s: ("bytes", s.encode("utf-8", "surrogatepass"))),
        st.binary(max_size=60).map(lambda b: ("bytes", b)),
    )


def joined(pieces):
    return st.lists(
        st.one_of(st.sampled_from(pieces), st.text(max_size=2)), max_size=6
    ).map("".join)


ENDINGS = st.sampled_from(["\n", "\r\n", "\r", ""])
IDS = st.sampled_from(["x", "y", "z", ""])
FREE_TIF_LINE = st.tuples(
    st.sampled_from(["S", "H", "M", "#", "Z", "", " ", BOM + "S"]),
    st.lists(joined(["x", "noun.act", "a:0", "a:²", ":0", "a:", ",", BOM]), max_size=4),
).map(lambda t: "\t".join([t[0], *t[1]]))
S_LINE = st.tuples(
    IDS,
    st.sampled_from(["noun.act", "noun.group", ""]),
    st.lists(
        st.sampled_from(["a:0", "b:1", "a:²", "a:٣", "a:00", ":0", "a:", "a:-1", "A:0"]),
        min_size=1, max_size=3,
    ).map(",".join),
).map(lambda t: "S\t" + "\t".join(t))
EDGE_LINE = st.tuples(st.sampled_from("HM"), IDS, IDS).map("\t".join)
TIF_LINE = st.tuples(st.one_of(S_LINE, EDGE_LINE, FREE_TIF_LINE), ENDINGS).map("".join)
SEMCOR_LINE = st.tuples(
    joined(
        ["<s>", "</s>", "<wd>", "</wd>", "<mwd>", "</mwd>", "<sn>", "</sn>",
         "<msn>", "</msn>", "<tag>", "</tag>", "[noun.act.0]", "[x.²]",
         "[x.٣]", "[.1]", "NN", "jury", "<", ">", " ", BOM],
    ),
    ENDINGS,
).map("".join)


def as_stream(kind, payload):
    return io.StringIO(payload) if kind == "text" else io.BytesIO(payload)


PARSE_ERRORS = (TaxonomyError, CorpusError, UnicodeDecodeError)


def load_outcome(load, stream, mode):
    """The error ``load`` raises, as (type, message), or what it loaded."""
    try:
        return load(stream, mode)
    except PARSE_ERRORS as exc:
        return type(exc), str(exc)


def assert_loads_like_reference(make_stream, mode):
    expected = load_outcome(reference_load_taxonomy, make_stream(), mode)
    got = load_outcome(load_taxonomy, make_stream(), mode)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_matches_reference(got, expected)
    return got


@settings(max_examples=300, deadline=None)
@given(case=lines_of(TIF_LINE), mode=st.sampled_from(list(RelationMode)))
def test_taxonomy_parser_matches_reference_loader(case, mode):
    assert_loads_like_reference(lambda: as_stream(*case), mode)


@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param(" \t \t\nS\tx\tnoun.act\ta:0\n", None, id="blank-with-tabs"),
        pytest.param("#\tS\tx\nS\tx\tnoun.act\ta:0\n", None, id="comment-with-fields"),
        pytest.param("S\tx\n", "line 1: S record needs 4 fields, got 2", id="short-S"),
        pytest.param("H\ta\n", "line 1: H record needs 3 fields, got 2", id="short-H"),
    ],
)
def test_taxonomy_record_dispatch(text, error):
    for mode in RelationMode:
        outcome = assert_loads_like_reference(lambda: io.StringIO(text), mode)
        if error is None:
            assert list(outcome) == ["x"]
        else:
            assert outcome == (TaxonomyError, error)


def test_taxonomy_crlf_loads_like_lf():
    text = (DATA / "two_clusters.tif").read_text(encoding="utf-8")
    crlf = text.replace("\n", "\r\n").encode("utf-8")
    for mode in RelationMode:
        expected = reference_load_taxonomy(io.StringIO(text), mode)
        for stream in (io.StringIO(text), io.BytesIO(crlf)):
            assert_matches_reference(load_taxonomy(stream, mode), expected)


@settings(max_examples=300, deadline=None)
@given(case=lines_of(SEMCOR_LINE))
def test_corpus_parsers_raise_only_parse_errors(case):
    for parse in (parse_semcor, parse_plain):
        try:
            parse(as_stream(*case))
        except PARSE_ERRORS:
            pass
