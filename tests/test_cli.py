import gc
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cdwsd import cli
from cdwsd.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, main

from helpers import DATA, chain_cases_tif, distance_edge_cases_tif, meronym_clique_tif


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def base_args(command, tmp_path=None, **extra):
    argv = [
        command,
        "--taxonomy", str(DATA / "two_clusters.tif"),
        "--input", str(DATA / "toy_corpus.semcor"),
    ]
    for flag, value in extra.items():
        argv.append(f"--{flag.replace('_', '-')}")
        if value is not None:
            argv.extend(str(value).split())
    return argv


class TestStats:
    def test_toy_corpus_row(self):
        code, out = run(base_args("stats"))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "text\twords\tnouns\tnouns_in_lexicon\tmonosemous"
        assert lines[1] == "toy_corpus\t8\t7\t6\t4 (67%)"
        assert len(lines) == 2

    def test_empty_file_zero_row(self, tmp_path):
        empty = tmp_path / "empty.semcor"
        empty.write_text("")
        code, out = run(
            [
                "stats",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(empty),
            ]
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "empty\t0\t0\t0\t0 (0%)"

    def test_multiple_inputs_total_row(self):
        code, out = run(
            [
                "stats",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(DATA / "toy_corpus.semcor"), str(DATA / "toy_train.semcor"),
            ]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[-1] == "total\t16\t15\t14\t9 (64%)"

    def test_plain_format_rows_and_total(self, tmp_path):
        plain = tmp_path / "w.txt"
        plain.write_text("trout mystery bass\nsalmon\n")
        # a blank line, upper-case words and CRLF line ends
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(b"Bass TROUT\r\n\r\ncrab mystery Guitar\r\n")
        code, out = run(
            [
                "stats",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(plain), str(plain), str(crlf),
                "--format", "plain",
            ]
        )
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "w\t4\t4\t3\t2 (67%)",
            "w\t4\t4\t3\t2 (67%)",
            "crlf\t5\t5\t4\t3 (75%)",
            "total\t13\t13\t10\t7 (70%)",
        ]

    def test_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.semcor"
        bad.write_text("<s>\n<wd>x</wd>\n")
        code, _ = run(
            ["stats", "--taxonomy", str(DATA / "two_clusters.tif"), "--input", str(bad)]
        )
        assert code == EXIT_PARSE


class TestCollector:
    """The command line switches the collector off only while it loads."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        code, _ = run(base_args("disambiguate", window=5))
        assert code == EXIT_OK
        assert gc.isenabled() is enabled
        cycle = tmp_path / "cycle.tif"
        cycle.write_text("S\ta\tnoun.act\ta:0\nS\tb\tnoun.act\tb:0\nH\ta\tb\nH\tb\ta\n")
        code, _ = run(["stats", "--taxonomy", str(cycle), "--input", str(DATA / "toy_corpus.semcor")])
        assert code == EXIT_PARSE
        assert gc.isenabled() is enabled
        code, _ = run(base_args("disambiguate", window=0))
        assert code == EXIT_CONFIG
        assert gc.isenabled() is enabled

    def test_outputs_do_not_depend_on_it(self, tmp_path):
        outputs = []
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            out = tmp_path / f"out-{enabled}.tsv"
            _, stdout = run(base_args("disambiguate", window=5))
            code, _ = run(base_args("disambiguate", window=5, out=out))
            assert code == EXIT_OK
            outputs.append((stdout.encode("utf-8"), out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == outputs[0][1]


class TestDisambiguate:
    def test_plain_input_words(self, tmp_path):
        plain = tmp_path / "words.txt"
        plain.write_text("jury administration operation Police_Department prison_farm\n")
        code, out = run(
            [
                "disambiguate",
                "--taxonomy", str(DATA / "sample_taxonomy.tif"),
                "--input", str(plain),
                "--format", "plain",
                "--window", "5",
            ]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 6  # header + five assignments
        assert lines[1].split("\t")[1] == "jury"
        assert lines[5].split("\t")[1] == "prison_farm"

    def test_semcor_input(self):
        code, out = run(base_args("disambiguate") + ["--window", "3"])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["trout", "bass", "salmon", "guitar", "bass", "drum"]
        by_lemma = {(r[0], r[1]): r for r in rows}
        assert by_lemma[("1", "bass")][3] == "noun.animal.0"
        assert by_lemma[("4", "bass")][3] == "noun.artifact.0"

    def test_fallback_removes_none_and_partial(self):
        code, out = run(
            base_args("disambiguate")
            + ["--window", "1", "--fallback", "random", "--seed", "3"]
        )
        assert code == EXIT_OK
        outcomes = {line.split("\t")[2] for line in out.splitlines()[1:]}
        assert outcomes == {"full"}

    def test_out_file_written(self, tmp_path):
        target = tmp_path / "assignments.tsv"
        code, out = run(base_args("disambiguate") + ["--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("position\tlemma")

    def test_even_window_widened_not_rejected(self):
        code, _ = run(base_args("disambiguate") + ["--window", "30"])
        assert code == EXIT_OK

    def test_missing_taxonomy_is_config_error(self):
        code, _ = run(
            ["disambiguate", "--taxonomy", "/nonexistent.tif", "--input", "/also-missing"]
        )
        assert code == EXIT_CONFIG

    def test_undecodable_input_is_parse_error(self, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("S\tx\tnoun.act\tcaf\u00e9:0\n".encode("latin-1"))
        code, _ = run(
            ["disambiguate", "--taxonomy", str(bad),
             "--input", str(DATA / "toy_corpus.semcor")]
        )
        assert code == EXIT_PARSE
        code, _ = run(
            ["disambiguate", "--taxonomy", str(DATA / "two_clusters.tif"),
             "--input", str(bad)]
        )
        assert code == EXIT_PARSE

    def test_directory_path_is_config_error(self, tmp_path):
        code, _ = run(
            ["disambiguate", "--taxonomy", str(tmp_path),
             "--input", str(DATA / "toy_corpus.semcor")]
        )
        assert code == EXIT_CONFIG
        code, _ = run(
            ["disambiguate", "--taxonomy", str(DATA / "two_clusters.tif"),
             "--input", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_non_decimal_lex_id_is_parse_error(self, tmp_path, capsys):
        tif = tmp_path / "superscript.tif"
        tif.write_text("S\tx\tnoun.act\tthing:²\n", encoding="utf-8")
        code, _ = run(
            ["disambiguate", "--taxonomy", str(tif),
             "--input", str(DATA / "toy_corpus.semcor")]
        )
        assert code == EXIT_PARSE
        assert "line 1: lex_id must be a non-negative integer" in capsys.readouterr().err

    def test_meronym_clique_runs_and_reruns(self, tmp_path, capsys):
        tif = tmp_path / "clique.tif"
        tif.write_text(meronym_clique_tif(12))
        words = tmp_path / "words.txt"
        words.write_text("part part\n")
        argv = ["disambiguate", "--taxonomy", str(tif), "--input", str(words),
                "--format", "plain", "--relations", "hyper+mero"]
        expected = (
            EXIT_OK,
            "position\tlemma\toutcome\tsense_keys\tmethod\tcd\n"
            "0\tpart\tnone\t-\tdensity\t-\n"
            "1\tpart\tnone\t-\tdensity\t-\n",
        )
        assert run(argv) == expected
        assert run(argv) == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("exponent", ["0", "nan"])
    def test_bad_exponent_is_config_error(self, exponent, capsys):
        code, _ = run(base_args("disambiguate") + ["--exponent", exponent])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "cdwsd: configuration error: smoothing_exponent must be > 0\n"
        )

    def test_infinite_exponent_is_config_error(self, capsys):
        code, _ = run(base_args("disambiguate") + ["--exponent", "inf"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "cdwsd: configuration error: smoothing_exponent must be finite\n"
        )

    @pytest.mark.parametrize("baseline", ["mfs", "yarowsky"])
    def test_untagged_training_is_config_error(self, tmp_path, capsys, baseline):
        untagged = tmp_path / "untagged.semcor"
        untagged.write_text("<s>\n<wd>trout</wd><tag>NN</tag>\n</s>\n")
        code, _ = run(
            base_args("disambiguate") + ["--baseline", baseline, "--train", str(untagged)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "cdwsd: configuration error: training corpus has no gold-tagged nouns\n"
        )

    def test_library_value_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("library bug")

        monkeypatch.setattr(cli, "disambiguate_document", broken)
        with pytest.raises(ValueError, match="library bug"):
            main(base_args("disambiguate"))

    def test_baseline_random(self):
        code, out = run(
            base_args("disambiguate") + ["--baseline", "random", "--seed", "1"]
        )
        assert code == EXIT_OK
        methods = {line.split("\t")[4] for line in out.splitlines()[1:]}
        assert methods == {"random"}

    def test_baseline_mfs_requires_train(self):
        code, _ = run(base_args("disambiguate") + ["--baseline", "mfs"])
        assert code == EXIT_CONFIG

    def test_missing_train_is_config_error(self, tmp_path):
        code, _ = run(
            base_args("disambiguate")
            + ["--baseline", "mfs", "--train", str(tmp_path / "missing.semcor")]
        )
        assert code == EXIT_CONFIG

    def test_undecodable_train_is_parse_error(self, tmp_path):
        bad = tmp_path / "latin1.semcor"
        bad.write_bytes("<s>\n<wd>caf\u00e9</wd><tag>NN</tag>\n</s>\n".encode("latin-1"))
        code, _ = run(
            base_args("disambiguate") + ["--baseline", "mfs", "--train", str(bad)]
        )
        assert code == EXIT_PARSE

    def test_baseline_mfs(self):
        code, out = run(
            base_args("disambiguate")
            + ["--baseline", "mfs", "--train", str(DATA / "toy_train.semcor")]
        )
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        bass_rows = [r for r in rows if r[1] == "bass"]
        assert all(r[3] == "noun.animal.0" for r in bass_rows)  # 2-1 in training
        drum_rows = [r for r in rows if r[1] == "drum"]
        assert drum_rows[0][2] == "none"  # no training counts


class TestByteOrderMark:
    """A UTF-8 byte-order mark on any input changes nothing."""

    @staticmethod
    def with_bom(tmp_path, source):
        copy = tmp_path / source.name
        copy.write_text("\ufeff" + source.read_text(encoding="utf-8"), encoding="utf-8")
        return str(copy)

    def test_taxonomy(self, tmp_path):
        argv = base_args("disambiguate") + ["--window", "3"]
        expected = run(argv)
        argv[argv.index("--taxonomy") + 1] = self.with_bom(tmp_path, DATA / "two_clusters.tif")
        assert run(argv) == expected

    def test_semcor_input_and_train(self, tmp_path):
        corpus = self.with_bom(tmp_path, DATA / "toy_corpus.semcor")
        train = self.with_bom(tmp_path, DATA / "toy_train.semcor")
        for extra in (
            ["stats"],
            ["disambiguate", "--window", "3"],
            ["disambiguate", "--baseline", "mfs", "--train", str(DATA / "toy_train.semcor")],
        ):
            argv = base_args(extra[0]) + extra[1:]
            expected = run(argv)
            assert expected[0] == EXIT_OK
            argv[argv.index("--input") + 1] = corpus
            if "--train" in argv:
                argv[argv.index("--train") + 1] = train
            assert run(argv) == expected

    def test_plain_input_keeps_first_noun(self, tmp_path):
        plain = tmp_path / "words.txt"
        plain.write_text("\ufeffjury administration operation\n", encoding="utf-8")
        for command in ("stats", "disambiguate"):
            code, out = run(
                [
                    command,
                    "--taxonomy", str(DATA / "sample_taxonomy.tif"),
                    "--input", str(plain),
                    "--format", "plain",
                ]
            )
            assert code == EXIT_OK
            if command == "stats":
                assert out.splitlines()[1].startswith("words\t3\t3\t3\t")
            else:
                rows = [line.split("\t") for line in out.splitlines()[1:]]
                assert [(r[0], r[1]) for r in rows] == [
                    ("0", "jury"), ("1", "administration"), ("2", "operation")
                ]


class TestEvaluate:
    def test_density_self_corpus(self):
        code, out = run(base_args("evaluate") + ["--window", "3"])
        assert code == EXIT_OK
        assert "level: sense" in out
        assert "population: all" in out
        assert "total: 6" in out
        # toy corpus windows resolve both bass occurrences correctly
        assert "correct: 6" in out
        assert "coverage: 100.0" in out

    def test_plain_format_rejected(self, tmp_path):
        plain = tmp_path / "words.txt"
        plain.write_text("trout bass\n")
        code, _ = run(
            [
                "evaluate",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(plain),
                "--format", "plain",
            ]
        )
        assert code == EXIT_CONFIG

    def test_yarowsky_needs_file_level(self):
        argv = base_args("evaluate") + [
            "--baseline", "yarowsky", "--train", str(DATA / "toy_train.semcor"),
        ]
        code, _ = run(argv + ["--level", "sense"])
        assert code == EXIT_CONFIG
        code, out = run(argv + ["--level", "file", "--window", "3"])
        assert code == EXIT_OK
        assert "coverage: 100.0" in out

    def test_population_flag(self):
        code, out = run(
            base_args("evaluate") + ["--window", "3", "--population", "polysemous"]
        )
        assert code == EXIT_OK
        assert "total: 2" in out  # only the two bass occurrences

    def test_baseline_sussna(self):
        code, out = run(
            base_args("evaluate") + ["--baseline", "sussna", "--level", "file"]
        )
        assert code == EXIT_OK
        assert "coverage: 100.0" in out


class TestSweep:
    def test_emits_one_row_per_window(self):
        code, out = run(base_args("sweep") + ["--windows", "5,10,15,20,25,30"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "window\tcoverage\tprecision\trecall"
        assert len(lines) == 7
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "5", "10", "15", "20", "25", "30",
        ]

    def test_perfect_corpus_rows(self):
        code, out = run(base_args("sweep") + ["--windows", "3"])
        assert code == EXIT_OK
        assert out.splitlines()[1] == "3\t100.0\t100.0\t100.0"

    def test_bad_windows_list(self):
        code, _ = run(base_args("sweep") + ["--windows", "five"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "system",
        [
            [],
            ["--fallback", "random", "--seed", "3"],
            ["--baseline", "random", "--seed", "3"],
            ["--baseline", "mfs", "--train", str(DATA / "toy_train.semcor")],
            ["--baseline", "yarowsky", "--train", str(DATA / "toy_train.semcor"), "--level", "file"],
            ["--baseline", "sussna"],
        ],
        ids=["density", "density-fallback", "random", "mfs", "yarowsky", "sussna"],
    )
    def test_rows_equal_one_window_evaluate(self, system):
        inputs = [str(DATA / "toy_corpus.semcor"), str(DATA / "toy_train.semcor")]
        common = ["--taxonomy", str(DATA / "two_clusters.tif"), "--input", *inputs, *system]
        code, out = run(["sweep", *common, "--windows", "1,3,5"])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "3", "5"]
        for window, *figures in rows:
            code, out = run(["evaluate", *common, "--window", window])
            assert code == EXIT_OK
            block = dict(line.split(": ") for line in out.split("\n\n")[0].splitlines())
            assert figures == [block["coverage"], block["precision"], block["recall"]]

    @pytest.mark.parametrize("baseline", ["mfs", "yarowsky"])
    def test_training_text_read_once_per_run(self, baseline, monkeypatch):
        parsed = []
        parse = cli.parse_semcor

        def counting(fh):
            parsed.append(Path(fh.name).stem)
            return parse(fh)

        monkeypatch.setattr(cli, "parse_semcor", counting)
        code, _ = run(
            base_args("sweep")
            + ["--windows", "3,5,7", "--level", "file", "--baseline", baseline]
            + ["--train", str(DATA / "toy_train.semcor")]
        )
        assert code == EXIT_OK
        assert parsed == ["toy_corpus", "toy_train"]


class TestFlagPrecedence:
    """Flags are checked before any file is opened, so a flag error wins."""

    CYCLE = "S\ta\tnoun.act\ta:0\nS\tb\tnoun.act\tb:0\nH\ta\tb\nH\tb\ta\n"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("disambiguate", [], None),
            ("disambiguate", ["--exponent", "0"], "smoothing_exponent must be > 0"),
            ("disambiguate", ["--window", "0"], "--window must be >= 1"),
            ("disambiguate", ["--baseline", "mfs"], "--baseline mfs requires --train"),
            ("evaluate", ["--window", "0"], "--window must be >= 1"),
            ("sweep", ["--windows", "3,0"], "--window must be >= 1"),
        ],
    )
    def test_flag_error_wins_over_cyclic_taxonomy(self, tmp_path, capsys, command, flags, message):
        cycle = tmp_path / "cycle.tif"
        cycle.write_text(self.CYCLE)
        argv = [command, "--taxonomy", str(cycle), "--input", str(DATA / "toy_corpus.semcor")]
        code, out = run(argv + flags)
        assert out == ""
        if message is None:  # the file alone is a parse error
            assert code == EXIT_PARSE
            assert capsys.readouterr().err == "cdwsd: parse error: hypernym cycle through 'a'\n"
        else:
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"cdwsd: configuration error: {message}\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            base_args("stats"),
            base_args("disambiguate") + ["--window", "3"],
            base_args("disambiguate") + ["--window", "1", "--fallback", "random", "--seed", "9"],
            base_args("disambiguate") + ["--baseline", "random", "--seed", "4"],
            base_args("evaluate") + ["--window", "3", "--level", "file"],
            base_args("sweep") + ["--windows", "1,3,5"],
        ],
    )
    def test_reruns_byte_identical(self, argv, tmp_path):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert main(argv + ["--out", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_cli_matches_library(self):
        # the command adds no behaviour on top of the library pipeline
        from cdwsd.corpus import extract_nouns, parse_semcor
        from cdwsd.density import DensityParams, NhypMode
        from cdwsd.disambiguator import disambiguate_document
        from cdwsd.evaluation import Level, Population, report_block, report_tsv, score
        from helpers import load_data_taxonomy

        code, out = run(base_args("evaluate") + ["--window", "3"])
        assert code == EXIT_OK
        t = load_data_taxonomy("two_clusters.tif")
        with open(DATA / "toy_corpus.semcor", encoding="utf-8") as fh:
            doc = extract_nouns(parse_semcor(fh), t)
        assignments = disambiguate_document(
            t, doc.occurrences, DensityParams(nhyp_mode=NhypMode.GLOBAL), window_size=3
        )
        report = score(
            t, assignments, doc.gold, Level.SENSE, Population.ALL, system="density"
        )
        assert out == report_block(report) + "\n" + report_tsv(report)


class TestRelations:
    def test_meronymy_mode_accepted(self):
        code, out = run(
            base_args("evaluate") + ["--relations", "hyper+mero", "--window", "3"]
        )
        assert code == EXIT_OK
        assert "total: 6" in out


class TestMultiDocument:
    def test_disambiguate_separates_documents(self):
        code, out = run(
            [
                "disambiguate",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(DATA / "toy_corpus.semcor"), str(DATA / "toy_train.semcor"),
                "--window", "3",
            ]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# document: toy_corpus"
        assert "# document: toy_train" in lines
        # positions restart per document
        starts = [i for i, line in enumerate(lines) if line.startswith("# document")]
        first_data = lines[starts[1] + 2]  # separator, header, first row
        assert first_data.split("\t")[0] == "0"

    def test_random_fallback_shares_one_generator(self):
        import random

        from cdwsd.corpus import extract_nouns, parse_semcor
        from cdwsd.density import DensityParams
        from cdwsd.disambiguator import (
            apply_random_fallback,
            disambiguate_document,
            write_assignments,
        )
        from helpers import load_data_taxonomy

        names = ["toy_corpus", "toy_train"]
        code, out = run(
            [
                "disambiguate",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", *(str(DATA / f"{n}.semcor") for n in names),
                "--window", "1", "--fallback", "random", "--seed", "5",
            ]
        )
        assert code == EXIT_OK
        t = load_data_taxonomy("two_clusters.tif")
        rng = random.Random(5)
        expected = io.StringIO()
        for name in names:
            with open(DATA / f"{name}.semcor", encoding="utf-8") as fh:
                doc = extract_nouns(parse_semcor(fh), t)
            assignments = disambiguate_document(
                t, doc.occurrences, DensityParams(), window_size=1
            )
            expected.write(f"# document: {name}\n")
            write_assignments(t, apply_random_fallback(t, assignments, rng), expected)
        assert out == expected.getvalue()

    def test_evaluate_merges_counts(self):
        code, out = run(
            [
                "evaluate",
                "--taxonomy", str(DATA / "two_clusters.tif"),
                "--input", str(DATA / "toy_corpus.semcor"), str(DATA / "toy_train.semcor"),
                "--window", "3",
            ]
        )
        assert code == EXIT_OK
        assert "total: 14" in out  # 6 + 8 in-vocabulary nouns


def test_untagged_semcor_input_is_config_error(tmp_path):
    untagged = tmp_path / "untagged.semcor"
    untagged.write_text("<s>\n<wd>trout</wd><tag>NN</tag>\n</s>\n")
    code, _ = run(
        [
            "evaluate",
            "--taxonomy", str(DATA / "two_clusters.tif"),
            "--input", str(untagged),
        ]
    )
    assert code == EXIT_CONFIG
    code, _ = run(
        [
            "sweep",
            "--taxonomy", str(DATA / "two_clusters.tif"),
            "--input", str(untagged),
            "--windows", "3",
        ]
    )
    assert code == EXIT_CONFIG


def test_toy_corpus_density_golden():
    """Density under the defaults (``hyper``, global nhyp) on the toy corpus."""
    expected = (DATA / "toy_corpus.density.tsv").read_text(encoding="utf-8")
    assert run(base_args("disambiguate", window=5)) == (EXIT_OK, expected)


class TestCyclicMeronymyFixture:
    """Goldens on a taxonomy whose meronym edges close cycles with hypernymy."""

    COMMON = [
        "--taxonomy", str(DATA / "car_parts.tif"),
        "--input", str(DATA / "car_parts.txt"),
        "--format", "plain",
    ]

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["stats"], "car_parts.stats.tsv"),
            (
                ["disambiguate", "--relations", "hyper+mero", "--nhyp", "local", "--window", "5"],
                "car_parts.density.tsv",
            ),
            (
                ["disambiguate", "--relations", "hyper+mero", "--baseline", "sussna", "--window", "41"],
                "car_parts.sussna.tsv",
            ),
            # the polysemous edge targets pilot, hand and wheel share one window
            (
                ["disambiguate", "--relations", "hyper", "--window", "5"],
                "car_parts.density.hyper.tsv",
            ),
        ],
    )
    def test_golden_output(self, argv, golden):
        code, out = run(argv[:1] + self.COMMON + argv[1:])
        assert code == EXIT_OK
        assert out == (DATA / golden).read_text(encoding="utf-8")


class TestDistanceEdgeCasesFixture:
    """Sussna goldens on ``distance_edge_cases_tif``: chains and trees hanging
    off cycles, a meronym 2-cycle, a self-loop and several components."""

    @pytest.mark.parametrize("relations", ["hyper", "hyper+mero"])
    def test_golden_output(self, tmp_path, relations):
        tif = tmp_path / "cases.tif"
        tif.write_text(distance_edge_cases_tif(), encoding="utf-8")
        argv = ["disambiguate", "--taxonomy", str(tif),
                "--input", str(DATA / "distance_cases.txt"), "--format", "plain",
                "--relations", relations, "--baseline", "sussna", "--window", "41"]
        golden = f"distance_cases.sussna.{relations.removeprefix('hyper+')}.tsv"
        expected = (DATA / golden).read_text(encoding="utf-8")
        assert run(argv) == (EXIT_OK, expected)


class TestChainCasesFixture:
    """Sussna goldens on ``chain_cases_tif``: parallel chains, a loop chain,
    a bare cycle and trees hanging off the inner nodes of a chain."""

    @pytest.mark.parametrize("relations", ["hyper", "hyper+mero"])
    def test_golden_output(self, tmp_path, relations):
        tif = tmp_path / "chains.tif"
        tif.write_text(chain_cases_tif(), encoding="utf-8")
        argv = ["disambiguate", "--taxonomy", str(tif),
                "--input", str(DATA / "chain_cases.txt"), "--format", "plain",
                "--relations", relations, "--baseline", "sussna", "--window", "3"]
        golden = f"chain_cases.sussna.{relations.removeprefix('hyper+')}.tsv"
        expected = (DATA / golden).read_text(encoding="utf-8")
        assert run(argv) == (EXIT_OK, expected)
