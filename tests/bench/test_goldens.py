"""Golden determinism for the model-based tuners (RF, GBT, GP, TPE) and the
three model-free AutoTVM strategies (Random, GridSearch, GA).

The committed files under ``goldens/`` are seed-0 quick-preset trajectories
(canonical JSON via :func:`repro.bench.conformance.trajectory_json`), plus
seed-0 ytopt and ytopt-gp trajectories at search depth (``DEEP``: 100 evals
on the large lu and 3mm spaces). A live run must reproduce them
byte-for-byte — any drift in the forest or boosted tree growers, the GP
fit, the TPE density split, the AutoTVM strategies' draw order or wave
accounting, the evaluator pricing, or the JSON canonicalization fails here
first, with a diffable artifact. The 3mm space (6 parameters) draws
per-node feature subsets in the ytopt forest; gemm (3 parameters) does not,
so both grower paths are pinned. The quick runs reach the model phase for
only two asks; the ``DEEP`` runs pin the candidate pool's de-duplication
against ~90 told configurations, a pool larger than the space (lu/large has
400 configurations for a 1000-row pool), and 3mm's mixed-cardinality draw.

Regenerate intentionally with::

    PYTHONPATH=src python - <<'PY'
    from dataclasses import replace
    from pathlib import Path
    from repro.bench.conformance import QUICK, run_pair, trajectory_json
    for kernel in ("gemm", "3mm"):
        for tuner in ("ytopt", "AutoTVM-XGB", "ytopt-gp", "ytopt-tpe",
                      "AutoTVM-Random", "AutoTVM-GridSearch", "AutoTVM-GA"):
            run = run_pair(kernel, tuner, QUICK)
            Path(f"tests/bench/goldens/{kernel}-{tuner}-seed0.json").write_text(
                trajectory_json(run) + "\n")
    for kernel in ("lu", "3mm"):
        for tuner in ("ytopt", "ytopt-gp"):
            run = run_pair(kernel, tuner, replace(QUICK, size="large", max_evals=100))
            Path(f"tests/bench/goldens/{kernel}-large-{tuner}-seed0.json").write_text(
                trajectory_json(run) + "\n")
    PY
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.conformance import QUICK, run_pair, trajectory_json

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_PAIRS = [
    ("gemm", "ytopt"),
    ("gemm", "AutoTVM-XGB"),
    ("3mm", "ytopt"),
    ("3mm", "AutoTVM-XGB"),
    ("gemm", "ytopt-gp"),
    ("gemm", "ytopt-tpe"),
    ("3mm", "ytopt-gp"),
    ("3mm", "ytopt-tpe"),
    ("gemm", "AutoTVM-Random"),
    ("gemm", "AutoTVM-GridSearch"),
    ("gemm", "AutoTVM-GA"),
    ("3mm", "AutoTVM-Random"),
    ("3mm", "AutoTVM-GridSearch"),
    ("3mm", "AutoTVM-GA"),
]
DEEP = replace(QUICK, size="large", max_evals=100)
DEEP_PAIRS = [("lu", "ytopt"), ("lu", "ytopt-gp"), ("3mm", "ytopt"), ("3mm", "ytopt-gp")]
GOLDEN_CASES = [
    pytest.param(kernel, tuner, QUICK, id=f"{kernel}-{tuner}")
    for kernel, tuner in GOLDEN_PAIRS
] + [
    pytest.param(kernel, tuner, DEEP, id=f"{kernel}-large-{tuner}")
    for kernel, tuner in DEEP_PAIRS
]


def _golden_path(kernel: str, tuner: str, preset) -> Path:
    size = "" if preset == QUICK else f"-{preset.size}"
    return GOLDEN_DIR / f"{kernel}{size}-{tuner}-seed0.json"


@pytest.mark.parametrize("kernel,tuner,preset", GOLDEN_CASES)
def test_seed0_trajectory_matches_golden_bytes(kernel, tuner, preset):
    golden_path = _golden_path(kernel, tuner, preset)
    golden = golden_path.read_text()
    live = trajectory_json(run_pair(kernel, tuner, preset)) + "\n"
    assert live == golden, (
        f"{kernel}/{tuner} seed-0 trajectory drifted from {golden_path.name}; "
        f"if the change is intentional, regenerate the golden (see module "
        f"docstring)"
    )


@pytest.mark.parametrize("kernel,tuner,preset", GOLDEN_CASES)
def test_golden_files_are_canonical_and_on_budget(kernel, tuner, preset):
    golden_path = _golden_path(kernel, tuner, preset)
    payload = json.loads(golden_path.read_text())
    assert payload["kernel"] == kernel
    assert payload["tuner"] == tuner
    assert payload["size"] == preset.size
    assert payload["n_evals"] == preset.max_evals
    assert len(payload["trajectory"]) == preset.max_evals
    # Canonical form: sorted keys, no whitespace (byte-comparable forever).
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert golden_path.read_text() == canonical + "\n"
