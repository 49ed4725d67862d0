"""The README's Quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first ``python`` code block under the README's Quick start heading."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Quick start\n(?:(?!^## ).)*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Quick start'"
    return match.group(1)


def test_readme_quick_start_runs(capsys):
    namespace: dict = {"__name__": "__quick_start__"}
    exec(compile(_quick_start(), f"{README}:Quick start", "exec"), namespace)
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header == ["method", "scope", "n_panels", "crps", "mase", "wins", "losses", "ties"]
    trace = namespace["trace"]
    assert trace.quantiles.shape == (len(trace), len(trace.levels))
