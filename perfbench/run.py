"""cdwsd benchmark: generated WordNet-scale inputs, whole CLI runs, traced layers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload evaluate-w31 --seed 1 --seconds 35 --trace 0

The run generates its inputs from the seed, then invokes the command line
(``cdwsd.cli.main``) in a fresh single-threaded process again and again,
one at a time (a closed loop with one client), for about ``--seconds``.
Every output is hashed and compared with the digest recorded in
``reference.json`` for that workload and input set.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it holds the details: the
machine, the realised input shape, sample counts and every raw value.

With ``--trace 1`` untraced and traced runs alternate, so the tracing
overhead and the byte-identity of traced output are measured in one go.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent

#: Whole run, set-up included, must end well inside the three-minute limit.
HARD_LIMIT_S = 170
#: Fewest timed invocations per run (per kind when tracing), even when
#: they overrun ``--seconds``.  Past that, no invocation starts that would
#: be expected to end after ``--seconds``.
MIN_SAMPLES = 3
WORK_DIR = ".perfbench_work"
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    texts: tuple[int, ...]  # noun count per text at full scale
    tiny_texts: tuple[int, ...]
    layers: tuple[str, ...]  # hooks a traced invocation must reach


#: Hooks every invocation must reach: ``setup_s`` and the output digest
#: are taken from them.
SETUP_HOOKS = ("taxonomy.load", "cli.read_documents", "evaluation.score")
#: Hooks every traced invocation must reach as well.
TRACED_HOOKS = ("cli.main", "corpus.parse", "corpus.extract")
DENSITY_HOOKS = ("taxonomy.global_nhyp", "taxonomy.metrics",
                 "disambiguator.window", "density.score")

WORKLOADS = {
    "evaluate-w31": Workload(
        argv=("evaluate", "--window", "30"),
        texts=(120,),
        tiny_texts=(16,),
        layers=DENSITY_HOOKS,
    ),
    "sweep-short": Workload(
        argv=("sweep", "--windows", "2,4,6", "--fallback", "random",
              "--level", "file", "--population", "polysemous"),
        texts=(120, 120, 120, 120),
        tiny_texts=(10, 10, 10, 10),
        layers=DENSITY_HOOKS + ("disambiguator.fallback",),
    ),
    # More than 41 nouns, so that the context window slides.
    "sussna-w41": Workload(
        argv=("evaluate", "--baseline", "sussna", "--relations", "hyper+mero",
              "--window", "41", "--level", "file"),
        texts=(45,),
        tiny_texts=(45,),
        layers=("baselines.sussna", "baselines.mutual"),
    ),
}

#: Synset count per scale.  ``tiny`` is for the smoke test only.
SCALES = {"full": 60000, "tiny": 400}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def windows_per_run(argv: tuple[str, ...]) -> int:
    """Window sizes one invocation runs: decisions are nouns x windows."""
    if "--windows" in argv:
        return len(argv[argv.index("--windows") + 1].split(","))
    return 1


def hook_gaps(workload: str, r: dict) -> list[str]:
    """Hooks of a completed invocation that were missing or never reached.

    Without this check a renamed or bypassed function would leave its
    layer's metrics at 0 and the run would still count as correct.
    """
    expected = set(SETUP_HOOKS)
    if r["traced"]:
        expected |= set(TRACED_HOOKS) | set(WORKLOADS[workload].layers)
    return r["missing_hooks"] + sorted(expected - set(r["reached"]))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def prepare(workload: str, seed: int, scale: str, out: Path) -> dict:
    wl = WORKLOADS[workload]
    texts = wl.texts if scale == "full" else wl.tiny_texts
    return gen.generate(seed, SCALES[scale], list(texts), workload, out)


def command(workload: str, data: dict) -> list[str]:
    return list(WORKLOADS[workload].argv) + [
        "--taxonomy", str(data["taxonomy"]), "--input", *map(str, data["texts"])]


def invoke(root: Path, run_dir: Path, argv: list[str], traced: bool, tag: str,
           deadline: float) -> dict:
    """One CLI run in a fresh interpreter; returns its measurements.

    ``completed`` is false when the process timed out or exited non-zero;
    otherwise the record carries the child's measurements, ``wall_s`` and
    the SHA-256 of the output.
    """
    out = run_dir / f"out-{tag}.txt"
    request = {
        "src": str(root / "src"),
        "argv": argv + ["--out", str(out)],
        "trace": traced,
        "result": str(run_dir / f"result-{tag}.json"),
        "spans": str(run_dir / "spans.json"),
    }
    request_path = run_dir / f"request-{tag}.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    start = time.monotonic()
    timeout = max(1.0, deadline - start)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(request_path)],
        cwd=run_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"completed": False, "why": f"timeout after {timeout:.0f} s",
                "traced": traced, "elapsed_s": time.monotonic() - start}
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        return {"completed": False, "why": f"exit {proc.returncode}: {tail}",
                "traced": traced, "elapsed_s": time.monotonic() - start}
    result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
    result["elapsed_s"] = time.monotonic() - start
    result["wall_s"] = result.pop("end_monotonic") - start
    result["digest"] = hashlib.sha256(
        out.read_bytes() + result.pop("answers_digest").encode()).hexdigest()
    result["traced"] = traced
    result["completed"] = True
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        root: Path, reference: str) -> tuple[dict, dict]:
    """Measure one workload on input set ``seed``; returns (result line, details).

    Metrics come from the invocations that completed.  An invocation fails
    if it did not complete, if its output differs from ``reference``, or if
    the outputs of the run's invocations differ from each other.
    """
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run_dir = Path(tmp)
        data = prepare(workload, seed, scale, run_dir / "data")
        argv = command(workload, data)
        runs: list[dict] = []
        start = time.monotonic()
        while time.monotonic() < hard_deadline:
            if len(runs) >= MIN_SAMPLES * (1 + trace):
                typical = statistics.median([r["elapsed_s"] for r in runs])
                if time.monotonic() - start + typical > seconds:
                    break
            traced = trace and len(runs) % 2 == 1
            r = invoke(root, run_dir, argv, traced, str(len(runs)), hard_deadline)
            runs.append(r)
            if not r["completed"] and r["why"].startswith("timeout"):
                break
        if (run_dir / "spans.json").exists():
            (run_dir / "spans.json").replace(work / f"spans-{workload}-{seed}.json")

    done = [r for r in runs if r["completed"]]
    consistent = len({r["digest"] for r in done}) <= 1
    for r in done:
        gaps = hook_gaps(workload, r)
        r["correct"] = consistent and r["digest"] == reference and not gaps
        if gaps:
            r["why"] = f"hooks missing or never reached: {gaps}"
        elif not r["correct"]:
            r["why"] = ("output differs from the reference digest" if consistent
                        else "outputs differ between invocations")
    failed = sum(1 for r in runs if not r.get("correct"))
    plain = [r for r in done if not r["traced"]]
    traced_runs = [r for r in done if r["traced"]]
    decisions = data["shape"]["nouns"] * windows_per_run(WORKLOADS[workload].argv)
    # Invocations alternate untraced, traced: each adjacent pair ran in the
    # same phase of the machine, so their ratio is steadier than a ratio of
    # medians.
    pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)
             if runs[i]["completed"] and runs[i + 1]["completed"]]

    values: dict[str, float] = {}
    if trace and pairs:
        for name in traced_runs[0]["layers"]:
            values[name] = statistics.median([r["layers"][name] for r in traced_runs])
        values["trace.overhead_frac"] = statistics.median(
            [t["wall_s"] / p["wall_s"] - 1 for p, t in pairs])
        values["failed_frac"] = failed / len(runs)
    elif not trace and plain:
        values = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "setup_s": statistics.median([r["setup_s"] for r in plain]),
            "nouns_per_s": statistics.median(
                [decisions / (r["wall_s"] - r["setup_s"]) for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    samples = {name: len(traced_runs if trace else plain) for name in values}
    if trace and values:
        samples["trace.overhead_frac"] = len(pairs)
        samples["failed_frac"] = len(runs)
    details = {
        "workload": workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[workload],
        "input_set": seed,
        "scale": scale,
        "machine": machine(),
        "shape": data["shape"],
        "decisions": decisions,
        "samples": samples,
        "failed_frac": failed / len(runs),
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }
    return line, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cdwsd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cdwsd" / "cli.py").is_file():
        print("perfbench: run from the root of a cdwsd checkout (no src/cdwsd here)",
              file=sys.stderr)
        return 2
    digests = load_reference()[args.scale][args.workload]
    seed = args.seed % len(digests)  # input sets with a recorded reference
    line, details = run(args.workload, seed, args.seconds, bool(args.trace),
                        args.scale, root, digests[seed])
    details["seed"] = args.seed
    if not line["metrics"]:
        print(json.dumps(details), file=sys.stderr)
        print("perfbench: no run of the program succeeded", file=sys.stderr)
        return 1
    results = root / WORK_DIR / f"results-{args.workload}-{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({"result": line, "details": details}, indent=1),
                       encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
