"""The helpers of tools/kernels.py: its rows are reports, but what they time
and how a failure shows are checked here."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def kernels(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import kernels
    return kernels


def test_best_of_7_makes_the_inputs_anew_before_each_run(kernels, capsys):
    made, seen = [], []

    def inputs():
        made.append(object())
        return [(made[-1],)]

    kernels.best_of_7("label", seen.append, inputs)
    assert len(made) == 7 and seen == made
    out = capsys.readouterr().out
    assert out.startswith("label: best of 7, ") and out.endswith(" ms  \n")


def test_a_failing_child_fails_its_report(kernels):
    # the child looks the body up in the script by name, finds none and exits 1
    @kernels.three_fresh_interpreters
    def not_in_the_script():
        pass

    with pytest.raises(subprocess.CalledProcessError):
        not_in_the_script()


def test_the_line_tracer_finds_a_line_that_never_runs(kernels, tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text("def sign(x):\n    if x < 0:\n        return -1\n    return 1\n")
    spec = importlib.util.spec_from_file_location("toy", toy)
    module, hits, previous = importlib.util.module_from_spec(spec), set(), sys.gettrace()
    sys.settrace(kernels.line_tracer(str(tmp_path), hits))
    try:
        spec.loader.exec_module(module)
        assert module.sign(1) == 1
    finally:
        sys.settrace(previous)
    assert {file for file, _ in hits} == {str(toy)}
    assert kernels.executable_lines(toy) - {line for _, line in hits} == {3}
