"""Batch command line: stats, disambiguate, evaluate, sweep.

``disambiguate``, ``evaluate`` and ``sweep`` share one run path; ``evaluate``
is a ``sweep`` over its one window that renders the report in full.  Every
check that the flags alone decide is made before any file is opened.

Exit codes: 0 on success with outputs fully written, 1 on input parse
failures, 2 on configuration problems.  All randomness flows through
--seed, so any command rerun with the same configuration and seed writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import io
import random
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Iterator, Sequence

from . import baselines as bl
from .corpus import (
    CorpusError,
    CorpusStats,
    ExtractedNouns,
    extract_nouns,
    parse_plain,
    parse_semcor,
)
from .density import ConfigError, DensityParams, NhypMode
from .disambiguator import (
    apply_random_fallback,
    disambiguate_document,
    write_assignments,
)
from .evaluation import (
    EvalReport,
    Level,
    Population,
    merge_reports,
    rate_table,
    report_block,
    report_tsv,
    score,
)
from .taxonomy import RelationMode, Taxonomy, TaxonomyError, load_taxonomy

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2

STATS_HEADER = "text\twords\tnouns\tnouns_in_lexicon\tmonosemous"


def _add_common(parser: argparse.ArgumentParser, system_flags: bool) -> None:
    parser.add_argument("--taxonomy", required=True, help="taxonomy file (TIF)")
    parser.add_argument("--input", required=True, nargs="+", help="input document(s)")
    parser.add_argument("--format", choices=["semcor", "plain"], default="semcor")
    parser.add_argument(
        "--relations",
        choices=[m.value for m in RelationMode],
        default=RelationMode.HYPERNYMY.value,
        help="edge sets used by traversals (default: hyper)",
    )
    parser.add_argument("--out", help="output file (default: stdout)")
    if system_flags:
        parser.add_argument(
            "--window",
            type=int,
            default=30,
            help="context size in nouns; even values are widened by one so "
            "the target sits in the middle (default: 30)",
        )
        parser.add_argument(
            "--nhyp", choices=[m.value for m in NhypMode], default=NhypMode.GLOBAL.value
        )
        parser.add_argument("--exponent", type=float, default=0.20)
        parser.add_argument("--fallback", choices=["none", "random"], default="none")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--baseline",
            choices=["random", "mfs", "yarowsky", "sussna"],
            help="run a comparison system instead of density disambiguation",
        )
        parser.add_argument(
            "--train",
            nargs="+",
            help="gold-tagged training document(s) for --baseline mfs/yarowsky",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdwsd",
        description="Noun sense disambiguation by conceptual density, "
        "with baselines and evaluation against gold-tagged text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics table")
    _add_common(p, system_flags=False)

    p = sub.add_parser("disambiguate", help="write one assignment line per noun")
    _add_common(p, system_flags=True)

    evaluate = sub.add_parser("evaluate", help="score a system against the gold tags")
    _add_common(evaluate, system_flags=True)
    sweep = sub.add_parser("sweep", help="evaluate across a list of window sizes")
    _add_common(sweep, system_flags=True)
    for p in (evaluate, sweep):
        p.add_argument("--level", choices=[m.value for m in Level], default="sense")
        p.add_argument(
            "--population", choices=[m.value for m in Population], default="all"
        )
    sweep.add_argument(
        "--windows",
        required=True,
        help="comma-separated window sizes, e.g. 5,10,15,20,25,30",
    )
    return parser


def _odd(window: int) -> int:
    if window < 1:
        raise ConfigError("--window must be >= 1")
    return window if window % 2 == 1 else window + 1


def _load_taxonomy(args) -> Taxonomy:
    """Load ``--taxonomy`` with the garbage collector off, then freeze the heap.

    A load allocates hundreds of thousands of containers that live as long
    as the run, so every collection it triggers scans them and frees
    nothing.  Freezing the loaded heap, before the collector is switched
    back on, keeps the collections made later in the run from scanning it.
    The command line owns its process, so it sets the collector here; the
    library never does.  The caller's collector state is restored whether
    or not the load succeeds.
    """
    mode = RelationMode(args.relations)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(args.taxonomy, "r", encoding="utf-8") as fh:
            t = load_taxonomy(fh, mode)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return t


def _read_documents(
    paths: Sequence[str], fmt: str, t: Taxonomy
) -> list[tuple[str, ExtractedNouns]]:
    """(file stem, extracted noun stream) per file in ``fmt``, in the given order."""
    parse = parse_semcor if fmt == "semcor" else parse_plain
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append((Path(path).stem, extract_nouns(parse(fh), t)))
    return docs


def _require_gold(docs) -> None:
    total = sum(len(doc.occurrences) for _, doc in docs)
    tagged = sum(sum(k is not None for k in doc.gold) for _, doc in docs)
    if total and not tagged:
        raise ConfigError("input carries no gold sense tags")


def _run(args) -> tuple[Taxonomy, list[tuple[str, ExtractedNouns]], Iterator]:
    """The one run path of ``disambiguate``, ``evaluate`` and ``sweep``.

    1. Every check that the flags alone decide, before any file is opened.
    2. Load the taxonomy, read the inputs and, when scoring, check them
       for gold tags.
    3. Read the training text (always in the tagged format) and build the
       frequency table, once per command.
    4. Return the taxonomy, the documents and an iterator that yields, for
       each window as given, one assignment list per document.  Only the
       salience table depends on the window; the random fallback draws
       from one seeded generator per window, across the documents in order.
    """
    scoring = args.command != "disambiguate"
    if scoring and args.format != "semcor":
        raise ConfigError(f"{args.command} needs gold tags: --format semcor")
    if args.command == "sweep":
        try:
            windows = [int(w) for w in args.windows.split(",") if w.strip()]
        except ValueError:
            raise ConfigError(f"bad --windows list {args.windows!r}") from None
        if not windows:
            raise ConfigError("--windows must list at least one size")
    else:
        windows = [args.window]
    sizes = [_odd(w) for w in windows]
    if args.baseline in ("mfs", "yarowsky") and not args.train:
        raise ConfigError(f"--baseline {args.baseline} requires --train")
    if scoring and args.baseline == "yarowsky" and args.level != "file":
        raise ConfigError("--baseline yarowsky answers at file level only")
    if args.baseline is None:
        params = DensityParams(
            smoothing_exponent=args.exponent,
            nhyp_mode=NhypMode(args.nhyp),
        )

    t = _load_taxonomy(args)
    docs = _read_documents(args.input, args.format, t)
    if scoring:
        _require_gold(docs)
    if args.baseline in ("mfs", "yarowsky"):
        train = [doc for _, doc in _read_documents(args.train, "semcor", t)]
    if args.baseline == "mfs":
        freq = bl.build_frequency(t, train)

    def per_window():
        for window, size in zip(windows, sizes):
            rng = random.Random(args.seed)
            if args.baseline == "yarowsky":
                table = bl.build_salience(train, t, window_size=size)
            per_doc = []
            for _, doc in docs:
                nouns = doc.occurrences
                if args.baseline is None:
                    assignments = disambiguate_document(t, nouns, params, window_size=size)
                    if args.fallback == "random":
                        assignments = apply_random_fallback(t, assignments, rng)
                elif args.baseline == "random":
                    assignments = bl.random_baseline(nouns, t, seed=args.seed)
                elif args.baseline == "mfs":
                    assignments = bl.most_frequent_baseline(nouns, t, freq=freq)
                elif args.baseline == "yarowsky":
                    assignments = bl.yarowsky_baseline(t, nouns, table=table, window_size=size)
                else:
                    assignments = bl.sussna_baseline(nouns, t, window_size=size, seed=args.seed)
                per_doc.append(assignments)
            yield window, per_doc

    return t, docs, per_window()


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def cmd_stats(args) -> int:
    t = _load_taxonomy(args)
    per_text = [
        (name, doc.stats(t)) for name, doc in _read_documents(args.input, args.format, t)
    ]
    if len(per_text) > 1:
        columns = zip(*(astuple(stats) for _, stats in per_text))
        per_text.append(("total", CorpusStats(*map(sum, columns))))
    rows = [
        f"{name}\t{stats.words}\t{stats.nouns}\t{stats.nouns_in_taxonomy}"
        f"\t{stats.monosemous} ({stats.monosemous_pct()}%)"
        for name, stats in per_text
    ]
    _emit(args, STATS_HEADER + "\n" + "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_disambiguate(args) -> int:
    t, docs, runs = _run(args)
    [(_, per_doc)] = runs
    buf = io.StringIO()
    for (name, _), assignments in zip(docs, per_doc):
        if len(docs) > 1:
            buf.write(f"# document: {name}\n")
        write_assignments(t, assignments, buf)
    _emit(args, buf.getvalue())
    return EXIT_OK


def _reports(args) -> Iterator[tuple[int, EvalReport]]:
    """(window as given, merged report over the documents) per window."""
    t, docs, runs = _run(args)
    level = Level(args.level)
    population = Population(args.population)
    system = args.baseline or "density"
    for window, per_doc in runs:
        yield window, merge_reports([
            score(t, assignments, doc.gold, level, population, system=system)
            for (_, doc), assignments in zip(docs, per_doc)
        ])


def cmd_evaluate(args) -> int:
    [(_, report)] = _reports(args)
    _emit(args, report_block(report) + "\n" + report_tsv(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    _emit(args, rate_table("window", _reports(args)))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stats": cmd_stats,
        "disambiguate": cmd_disambiguate,
        "evaluate": cmd_evaluate,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (TaxonomyError, CorpusError, UnicodeDecodeError) as exc:
        print(f"cdwsd: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, OSError) as exc:
        print(f"cdwsd: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:  # console script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
