import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
# the outputs the README's quick start states in its comments
QUICK_START_OUTPUTS = ("(4, (1, 2, 4, 4), True, 'C4')", "isomorphic theorem-1-3")


def _readme_quick_start() -> str:
    """The code of the README's "Library quick start" block."""
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("script", [*DEMOS, README], ids=lambda p: p.name)
def test_demo_runs_clean(script):
    args = [sys.executable, str(script)]
    expected = ()
    if script == README:
        code = _readme_quick_start()
        args, expected = [sys.executable, "-c", code], QUICK_START_OUTPUTS
        assert all(f"# {out}" in code for out in expected)
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for out in expected:
        assert out in proc.stdout
