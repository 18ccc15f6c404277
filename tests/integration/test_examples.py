"""Smoke tests: the shipped example scripts must actually run.

Each example is executed in a subprocess with a reduced workload (where the
script accepts parameters) so the whole module stays under a minute.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "Best tiles" in out

    def test_custom_kernel_codemold(self):
        out = _run("custom_kernel_codemold.py")
        assert "Instantiated mold line" in out

    def test_blocked_solvers_small(self):
        out = _run("blocked_solvers.py", "32")
        assert "Cholesky decomposition" in out
        assert "max|err|" in out

    def test_reproduce_paper_experiment_reduced(self):
        out = _run("reproduce_paper_experiment.py", "lu", "large", "12")
        assert "Minimum runtimes" in out
        assert "Paper reported" in out

    def test_tune_3mm_reduced(self):
        out = _run("tune_3mm_swing.py", "15")
        assert "228,614,400" in out
        assert "true optimum" in out
