"""The README's Library example runs as printed, on the test fixtures."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_evaluate_counts(monkeypatch):
    code = library_example()
    for name, fixture in [
        ("wn.tif", "tests/data/two_clusters.tif"),
        ("br-a01.semcor", "tests/data/toy_corpus.semcor"),
    ]:
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', f'"{fixture}"')
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    # total, answered and correct of `cdwsd evaluate --window 30` on the same files
    assert out.getvalue() == "6 6 5\n"
