"""One ``cdwsd`` command-line run in a fresh process, timed from outside.

Usage: ``python3 perfbench/child.py REQUEST.json``.  The request names the
source tree, the CLI arguments, whether to trace, and where to write the
result.  Nothing in ``src/`` is changed: the tracer replaces public names
in the modules where their callers look them up, records one span per
call (name, start, end, parent span) in memory, and writes the spans out
after the run.  Untraced runs wrap only the two set-up calls,
``cli.load_taxonomy`` and ``cli._read_documents``, and ``cli.score``, whose
observer records every assignment the run scores.  Their digest, taken
after the run, lets the output check cover each noun's decision, not only
the summary the command prints.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.loop_windows: list[int] = []  # span indices of non-monosemous windows
        self.metric_concepts: list[str] = []
        self.missing: list[str] = []
        self.answers: list[str] = []  # every assignment handed to scoring
        self._open: list[int] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call."""
        inner = getattr(owner, attr, None)
        if inner is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, open_ = self.spans, self._open

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if observe is not None:
                observe(self, index, args, result)
            return result

        setattr(owner, attr, traced)

    def count_metric_calls(self, owner) -> None:
        """Count ``subhierarchy_metrics`` calls; too many for one span each."""
        inner = owner.subhierarchy_metrics
        record = self.metric_concepts.append

        @functools.wraps(inner)
        def counted(t, concept):
            record(concept)
            return inner(t, concept)

        owner.subhierarchy_metrics = counted

    def reached(self) -> list[str]:
        """Names of the hooks that recorded at least one call."""
        names = {s[0] for s in self.spans}
        if self.metric_concepts:
            names.add("taxonomy.metrics")
        return sorted(names)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)


def _on_load(tracer, index, args, t):
    tracer.add("taxonomy.synsets", len(t))


def _on_parse(tracer, index, args, doc):
    tracer.add("corpus.tokens", sum(len(s) for s in doc.sentences))


def _on_extract(tracer, index, args, extracted):
    tracer.add("corpus.nouns", len(extracted.occurrences))


def _on_score_candidates(tracer, index, args, scores):
    tracer.add("density.candidates_scored", len(scores))


def _on_window(tracer, index, args, result):
    assignment, trace = result
    tracer.add("density.winners", len(trace.winners))
    if assignment.method.value == "monosemous":
        tracer.add("disambiguator.monosemous", 1)
    else:
        tracer.loop_windows.append(index)


def _on_score(tracer, index, args, report):
    assignments = args[1]
    tracer.add("evaluation.scored", len(assignments))
    for a in assignments:
        occ = a.occurrence
        tracer.answers.append(
            f"{occ.doc_position}\t{occ.lemma}\t{a.outcome.value}\t{','.join(a.senses)}"
            f"\t{a.method.value}\t{a.winning_cd!r}\t{a.category}\n"
        )


def install(tracer: Tracer, traced: bool) -> None:
    import cdwsd.baselines
    import cdwsd.cli
    import cdwsd.disambiguator
    import cdwsd.taxonomy

    cli = cdwsd.cli
    tracer.wrap(cli, "load_taxonomy", "taxonomy.load", _on_load)
    tracer.wrap(cli, "_read_documents", "cli.read_documents")
    tracer.wrap(cli, "score", "evaluation.score", _on_score)
    if not traced:
        return
    tracer.wrap(cdwsd.taxonomy.Taxonomy, "global_nhyp", "taxonomy.global_nhyp")
    tracer.count_metric_calls(cdwsd.taxonomy.Taxonomy)
    tracer.wrap(cli, "parse_semcor", "corpus.parse", _on_parse)
    tracer.wrap(cli, "extract_nouns", "corpus.extract", _on_extract)
    tracer.wrap(cdwsd.disambiguator, "score_candidates", "density.score", _on_score_candidates)
    tracer.wrap(cdwsd.disambiguator, "disambiguate_window", "disambiguator.window", _on_window)
    tracer.wrap(cli, "apply_random_fallback", "disambiguator.fallback")
    tracer.wrap(cdwsd.baselines, "sussna_baseline", "baselines.sussna")
    tracer.wrap(cdwsd.baselines, "mutual_constraint_assignment", "baselines.mutual")


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1000 * values[0]
    return 1000 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for start_end in spans:
        parent = start_end[3]
        if parent >= 0:
            child_time[parent] += start_end[2] - start_end[1]

    def self_time(name: str) -> float:
        return sum(
            s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name
        )

    c = tracer.counts
    windows = sum(1 for s in spans if s[0] == "disambiguator.window")
    loop_windows = len(tracer.loop_windows)
    iterations = sum(1 for s in spans if s[0] == "density.score")
    candidates = c.get("density.candidates_scored", 0)
    winners = c.get("density.winners", 0)
    metric_calls = len(tracer.metric_concepts)
    loop_ms = [spans[i][2] - spans[i][1] for i in tracer.loop_windows]
    return {
        "taxonomy.load_s": tracer.total("taxonomy.load"),
        "taxonomy.synsets": c.get("taxonomy.synsets", 0),
        "taxonomy.global_nhyp_s": tracer.total("taxonomy.global_nhyp"),
        "taxonomy.metric_calls": metric_calls,
        "taxonomy.metric_memo_hit_ratio": (
            1 - len(set(tracer.metric_concepts)) / metric_calls if metric_calls else 0.0
        ),
        "corpus.parse_s": tracer.total("corpus.parse"),
        "corpus.extract_s": tracer.total("corpus.extract"),
        "corpus.tokens": c.get("corpus.tokens", 0),
        "corpus.nouns": c.get("corpus.nouns", 0),
        "density.score_s": tracer.total("density.score"),
        "density.iterations": iterations,
        "density.iterations_per_window": iterations / loop_windows if loop_windows else 0.0,
        "density.candidates_scored": candidates,
        "density.winners": winners,
        "density.winner_ratio": winners / candidates if candidates else 0.0,
        "disambiguator.windows": windows,
        "disambiguator.monosemous": c.get("disambiguator.monosemous", 0),
        "disambiguator.window_s": tracer.total("disambiguator.window"),
        "disambiguator.window_self_s": self_time("disambiguator.window"),
        "disambiguator.window_ms_p50": _percentile_ms(loop_ms, 50),
        "disambiguator.window_ms_p95": _percentile_ms(loop_ms, 95),
        "disambiguator.fallback_s": tracer.total("disambiguator.fallback"),
        "evaluation.score_s": tracer.total("evaluation.score"),
        "evaluation.scored": c.get("evaluation.scored", 0),
        "baselines.sussna_s": tracer.total("baselines.sussna"),
        "baselines.mutual_s": tracer.total("baselines.mutual"),
        "cli.self_s": self_time("cli.main"),
    }


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, request["src"])
    import cdwsd.cli

    tracer = Tracer()
    install(tracer, request["trace"])
    tracer.wrap(cdwsd.cli, "main", "cli.main")
    code = cdwsd.cli.main(request["argv"])
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "end_monotonic": end,
        "setup_s": tracer.total("taxonomy.load") + tracer.total("cli.read_documents"),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "missing_hooks": tracer.missing,
        "reached": tracer.reached(),
    }
    # Imported only now: OpenSSL would add about 4 MB to the peak RSS above.
    import hashlib

    result["answers_digest"] = hashlib.sha256("".join(tracer.answers).encode()).hexdigest()
    if request["trace"]:
        result["layers"] = layer_metrics(tracer)
        names = sorted({s[0] for s in tracer.spans})
        code_of = {n: i for i, n in enumerate(names)}
        Path(request["spans"]).write_text(
            json.dumps({
                "names": names,
                "spans": [[code_of[s[0]], s[1], s[2], s[3]] for s in tracer.spans],
            }),
            encoding="utf-8",
        )
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
