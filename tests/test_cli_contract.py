"""The README's exit contract for the whole command line, on random inputs.

Small random taxonomies (some with a cyclic meronym region), random
semcor and plain texts over their lemmas, and random flag sets.
Every run must return 0, 1 or 2 without raising, with the stderr prefix
that its code promises, and a rerun must be byte-identical.  A flag that
is invalid on its own must exit 2 with its own message, whatever the files
hold: the flags are checked before any file is opened.  Ids never print
and tie-breaks follow id order, so renaming every synset id by an
order-preserving map must leave each system's output byte-identical.
"""

import contextlib
import gc
import io
import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cdwsd.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, main

from helpers import random_tif

OOV = ["zebu", "quokka"]


def region_lines(rng: random.Random, size: int) -> list[str]:
    """``size`` new synsets under ``s000`` whose meronym edges close cycles.

    The region is a ring plus random chords, so every cycle lies inside it.
    """
    ids = [f"r{i}" for i in range(size)]
    lines = [
        f"S\t{sid}\tnoun.state\tlemma{rng.randrange(6)}:{90 + i}" for i, sid in enumerate(ids)
    ]
    lines += [f"H\t{sid}\ts000" for sid in ids]
    edges = {(ids[i], ids[(i + 1) % size]) for i in range(size)}
    edges |= {(a, b) for a in ids for b in ids if a != b and rng.random() < 0.2}
    return lines + [f"M\t{a}\t{b}" for a, b in sorted(edges)]


def taxonomy_text(rng: random.Random, meronymy: bool, region: int) -> str:
    text = random_tif(rng, max_synsets=20, meronymy=meronymy, min_synsets=2)
    if region >= 2:
        text += "\n".join(region_lines(rng, region)) + "\n"
    return text


def senses_in(tif: str) -> list[tuple[str, str]]:
    """(lemma, gold key) for every sense the TIF text declares."""
    out = []
    for line in tif.splitlines():
        fields = line.split("\t")
        if fields[0] == "S":
            for entry in fields[3].split(","):
                lemma, lex_id = entry.split(":")
                out.append((lemma, f"{fields[2]}.{lex_id}"))
    return out


def semcor_text(rng: random.Random, senses, nouns: int) -> str:
    """Sentences of tagged, untagged, mistagged, unknown and non-noun tokens."""
    lines = ["<s>"]
    for _ in range(nouns):
        lemma, key = rng.choice(senses)
        kind = rng.random()
        if kind < 0.6:
            lines.append(f"<wd>{lemma}</wd><sn>[{key}]</sn><tag>NN</tag>")
        elif kind < 0.75:
            lines.append(f"<wd>{lemma}</wd><tag>NN</tag>")
        elif kind < 0.85:
            lines.append(f"<wd>{lemma}</wd><sn>[noun.act.77]</sn><tag>NN</tag>")
        elif kind < 0.95:
            lines.append(f"<wd>{rng.choice(OOV)}</wd><sn>[noun.act.0]</sn><tag>NN</tag>")
        else:
            lines.append("<wd>ran</wd><tag>VBD</tag>")
        if rng.random() < 0.2:
            lines += ["</s>", "<s>"]
    return "\n".join(lines + ["</s>"]) + "\n"


def plain_text(rng: random.Random, senses, nouns: int) -> str:
    words = [
        rng.choice(senses)[0] if rng.random() < 0.85 else rng.choice(OOV) for _ in range(nouns)
    ]
    return " ".join(words) + "\n"


@st.composite
def files(draw):
    """Taxonomy, input and training files, some of them broken or missing."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tif = taxonomy_text(rng, draw(st.booleans()), draw(st.sampled_from([0, 0, 2, 3, 5, 8, 12, 20])))
    senses = senses_in(tif)
    tax_kind = draw(st.sampled_from(["good"] * 9 + ["cycle", "dangling", "missing"]))
    if tax_kind == "cycle":
        tif += "H\ts000\ts001\nH\ts001\ts000\n"
    elif tax_kind == "dangling":
        tif += "H\ts000\tnowhere\n"
    input_kind = draw(st.sampled_from(["semcor"] * 6 + ["plain"] * 2 + ["broken", "missing"]))
    if input_kind == "plain":
        text = plain_text(rng, senses, draw(st.integers(0, 12)))
    elif input_kind == "broken":
        text = "<s>\n<wd>x</wd>\n"
    else:
        text = semcor_text(rng, senses, draw(st.integers(0, 12)))
    train_kind = draw(st.sampled_from(["tagged"] * 4 + ["untagged", "missing"]))
    train = semcor_text(rng, senses, draw(st.integers(1, 12)))
    if train_kind == "untagged":
        train = "<s>\n<wd>zebu</wd><tag>NN</tag>\n</s>\n"
    return {
        "taxonomy": (tif, tax_kind != "missing"),
        "input": (text, input_kind != "missing"),
        "train": (train, train_kind != "missing"),
    }


WINDOWS = st.one_of(
    st.lists(st.integers(-1, 45), min_size=1, max_size=3).map(lambda ws: ",".join(map(str, ws))),
    st.sampled_from(["", ",", "3,,5", " 7 ", "five", "3,x", "1.5"]),
)
EXPONENTS = st.sampled_from(["0", "nan", "inf", "1e308", "-1", "0.2", "1"])


@st.composite
def flag_sets(draw):
    command = draw(st.sampled_from(["stats", "disambiguate", "evaluate", "sweep"]))
    flags = {}
    if draw(st.booleans()):
        flags["format"] = draw(st.sampled_from(["semcor", "semcor", "plain"]))
    if draw(st.booleans()):
        flags["relations"] = draw(st.sampled_from(["hyper", "hyper+mero"]))
    if command == "stats":
        return command, flags
    if command == "sweep":
        flags["windows"] = draw(WINDOWS)
    elif draw(st.booleans()):
        flags["window"] = str(draw(st.integers(-1, 45)))
    optional = {
        "nhyp": st.sampled_from(["local", "global"]),
        "exponent": EXPONENTS,
        "fallback": st.sampled_from(["none", "random"]),
        "seed": st.integers(0, 5).map(str),
        "baseline": st.sampled_from(["random", "mfs", "yarowsky", "sussna"]),
    }
    if command != "disambiguate":
        optional["level"] = st.sampled_from(["sense", "file", "file"])
        optional["population"] = st.sampled_from(["all", "polysemous"])
    for flag, values in optional.items():
        if draw(st.booleans()):
            flags[flag] = draw(values)
    if draw(st.sampled_from([True, True, False])):
        flags["train"] = "TRAIN"  # replaced by the training file's path
    return command, flags


def flag_error(command: str, flags: dict) -> str | None:
    """The message of the first check the flags alone fail, else None."""
    baseline = flags.get("baseline")
    scoring = command in ("evaluate", "sweep")
    if scoring and flags.get("format") == "plain":
        return f"{command} needs gold tags: --format semcor"
    if command == "sweep":
        try:
            windows = [int(w) for w in flags["windows"].split(",") if w.strip()]
        except ValueError:
            return f"bad --windows list {flags['windows']!r}"
        if not windows:
            return "--windows must list at least one size"
    else:
        windows = [int(flags.get("window", 30))]
    if min(windows) < 1:
        return "--window must be >= 1"
    if baseline in ("mfs", "yarowsky") and "train" not in flags:
        return f"--baseline {baseline} requires --train"
    if scoring and baseline == "yarowsky" and flags.get("level") != "file":
        return "--baseline yarowsky answers at file level only"
    if baseline is None and not float(flags.get("exponent", 0.2)) > 0:
        return "smoothing_exponent must be > 0"
    if baseline is None and math.isinf(float(flags.get("exponent", 0.2))):
        return "smoothing_exponent must be finite"
    return None


def run_once(argv, out_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = out_path.read_bytes() if out_path.exists() else None
    if written is not None:
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=400, deadline=None)
@given(files=files(), flags=flag_sets(), use_out=st.booleans())
def test_exit_contract(files, flags, use_out):
    command, flags = flags
    enabled = gc.isenabled()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, (text, exists) in files.items():
            paths[name] = tmp / f"{name}.txt"
            if exists:
                paths[name].write_text(text, encoding="utf-8")
        argv = [command, "--taxonomy", str(paths["taxonomy"]), "--input", str(paths["input"])]
        argv += [
            f"--{flag}={paths['train'] if flag == 'train' else value}"
            for flag, value in flags.items()
        ]
        out_path = tmp / "out.tsv"
        if use_out:
            argv.append(f"--out={out_path}")

        first = run_once(argv, out_path)
        assert run_once(argv, out_path) == first
    code, stdout, stderr, written = first
    assert gc.isenabled() is enabled
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CONFIG)
    if code == EXIT_OK:
        assert stderr == ""
        assert (written is not None) is use_out
        assert (stdout == "") is use_out
    elif code == EXIT_PARSE:
        assert stderr.startswith("cdwsd: parse error:")
    else:
        assert stderr.startswith("cdwsd: configuration error:")
    expected = flag_error(command, flags)
    if expected is not None:
        assert (code, stderr) == (EXIT_CONFIG, f"cdwsd: configuration error: {expected}\n")
        assert stdout == "" and written is None



def renamed(tif: str, rng: random.Random) -> str:
    """``tif`` with every synset id replaced through an order-preserving map."""
    rows = [line.split("\t") for line in tif.splitlines()]
    ids = sorted(fields[1] for fields in rows if fields[0] == "S")
    names: set[str] = set()
    while len(names) < len(ids):
        names.add("".join(rng.choice("Zaz09é") for _ in range(rng.randint(1, 5))))
    new = dict(zip(ids, sorted(names)))
    for fields in rows:
        ends = 2 if fields[0] == "S" else 3
        fields[1:ends] = [new[sid] for sid in fields[1:ends]]
    return "".join("\t".join(fields) + "\n" for fields in rows)


RENAME_FLAGS = [
    ["--nhyp", "global"],
    ["--nhyp", "local"],
    ["--baseline", "sussna"],
    ["--fallback", "random", "--seed", "3"],
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    region=st.sampled_from([0, 0, 3, 8]),
    window=st.integers(1, 13),
    nouns=st.integers(1, 12),
)
def test_order_preserving_rename_keeps_output(seed, region, window, nouns):
    rng = random.Random(seed)
    tif = taxonomy_text(rng, True, region)
    text = plain_text(rng, senses_in(tif), nouns)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "input.txt").write_text(text, encoding="utf-8")
        (tmp / "ids.tif").write_text(tif, encoding="utf-8")
        (tmp / "renamed.tif").write_text(renamed(tif, rng), encoding="utf-8")
        for relations in ("hyper", "hyper+mero"):
            for flags in RENAME_FLAGS:
                first, second = (
                    run_once(
                        ["disambiguate", "--taxonomy", str(tmp / name), "--input",
                         str(tmp / "input.txt"), "--format", "plain", "--relations",
                         relations, "--window", str(window), *flags],
                        tmp / "out.tsv",
                    )
                    for name in ("ids.tif", "renamed.tif")
                )
                assert first[0] == EXIT_OK and first[2] == ""
                assert second == first
