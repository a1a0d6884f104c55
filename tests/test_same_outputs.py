"""``tools/same_outputs.py`` on the fixtures: a tree matches itself, and a
tree whose output differs is flagged."""

import shutil
import subprocess
import sys
from pathlib import Path

from helpers import DATA

ROOT = Path(__file__).parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"

TOY = f"--taxonomy {DATA / 'two_clusters.tif'} --input {DATA / 'toy_corpus.semcor'}"
PARTS = f"--taxonomy {DATA / 'car_parts.tif'} --input {DATA / 'car_parts.txt'} --format plain"
COMMANDS = [
    "# density, an evaluation, a seeded sweep and a configuration error",
    f"disambiguate {TOY} --window 5",
    "",
    f"disambiguate {PARTS} --relations hyper --window 5",
    f"evaluate {TOY} --window 3 --nhyp local",
    f"sweep {TOY} --windows 1,3 --fallback random --seed 7",
    f"stats --taxonomy {DATA / 'two_clusters.tif'} --input {DATA / 'missing.semcor'}",
]


def same_outputs(tmp_path, old, new):
    commands = tmp_path / "commands.txt"
    commands.write_text("\n".join(COMMANDS) + "\n", encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), str(commands)],
        capture_output=True, text=True, check=False,
    )


def test_tree_matches_itself(tmp_path):
    proc = same_outputs(tmp_path, ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "5 commands, 0 mismatches\n"


def test_changed_output_is_flagged(tmp_path):
    fake = tmp_path / "fake"
    shutil.copytree(ROOT / "src", fake / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = fake / "src" / "cdwsd" / "disambiguator.py"
    source = module.read_text(encoding="utf-8")
    assert 'f"{a.winning_cd:.6f}"' in source
    module.write_text(source.replace('f"{a.winning_cd:.6f}"', 'f"{a.winning_cd:.5f}"'),
                      encoding="utf-8")
    proc = same_outputs(tmp_path, ROOT, fake)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # only the two lines that print cds differ, and only on stdout
    assert lines[-1] == "5 commands, 2 mismatches"
    flagged = [line for line in lines if not line.startswith("  ")][:-1]
    assert [line.split()[0] for line in flagged] == ["disambiguate", "disambiguate"]
    assert all(line.startswith("  stdout line ") for line in lines if line.startswith("  "))
