"""Record the reference output digest of every workload and input set.

Run from the root of a source checkout:

    python3 perfbench/reference.py [SCALE ...]

For each scale named (default: all) and each workload, every input set of
the pool is generated and run once through the command line; the SHA-256
of the output is written to ``perfbench/reference.json``.  ``run.py`` fails any run whose output
differs, so a change may re-record only when it means to alter the
program's output, and must say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run

#: Input sets per scale; the benchmark uses set ``seed % pool``.
POOL = {"full": 16, "tiny": 4}


def main() -> int:
    root = Path.cwd()
    work = root / run.WORK_DIR
    work.mkdir(exist_ok=True)
    table = run.load_reference() if run.REFERENCE.exists() else {}
    for scale in sys.argv[1:] or POOL:
        pool = POOL[scale]
        table[scale] = {}
        for name in run.WORKLOADS:
            digests = []
            for seed in range(pool):
                with tempfile.TemporaryDirectory(dir=work) as tmp:
                    run_dir = Path(tmp)
                    data = run.prepare(name, seed, scale, run_dir / "data")
                    r = run.invoke(root, run_dir, run.command(name, data), False,
                                   "ref", time.monotonic() + run.HARD_LIMIT_S)
                if not r["completed"]:
                    print(f"{scale} {name} set {seed}: {r['why']}", file=sys.stderr)
                    return 1
                digests.append(r["digest"])
                print(f"{scale} {name} set {seed}: {r['wall_s']:.2f} s", flush=True)
            table[scale][name] = digests
    run.REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
