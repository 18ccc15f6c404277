"""Simulated measurement backend for the Argonne *Swing* GPU cluster.

The paper measures kernels on Swing nodes (8× NVIDIA A100 per node). This
environment has no GPU, so — per the reproduction's substitution rule — this
package provides a calibrated analytical A100 performance model:

* :mod:`repro.swing.spec` — hardware constants of the A100/Swing node;
* :mod:`repro.swing.profile` — kernel profiles (matmul-like stages with the
  tunable tile parameters bound to their axes);
* :mod:`repro.swing.model` — the roofline-style timing model: per-stage compute
  vs. memory time, tile-dependent efficiency, wave quantization, launch
  overhead, and deterministic per-configuration noise;
* :mod:`repro.swing.evaluator` — an :class:`~repro.runtime.measure.Evaluator`
  that prices configurations with the model and advances a virtual clock, so
  tuners observe both kernel runtimes and "autotuning process time" exactly as
  they would on the real cluster.

Calibration: the model's global optimum over each experiment's parameter space
is scaled to the paper's reported best runtime (DESIGN.md, "Substitutions"), so
reproduction targets concern *who finds what, how fast* — not absolute silicon
speed.
"""

from repro.swing.spec import A100Spec, SwingNodeSpec, A100_SPEC, SWING_NODE
from repro.swing.profile import GemmStageProfile, KernelProfile
from repro.swing.model import SwingPerformanceModel
from repro.swing.evaluator import SwingEvaluator
from repro.swing.features import (
    StageFeatures,
    extract_stage_features,
    price_schedule,
    ScheduleSwingEvaluator,
)

__all__ = [
    "A100Spec",
    "SwingNodeSpec",
    "A100_SPEC",
    "SWING_NODE",
    "GemmStageProfile",
    "KernelProfile",
    "SwingPerformanceModel",
    "SwingEvaluator",
    "StageFeatures",
    "extract_stage_features",
    "price_schedule",
    "ScheduleSwingEvaluator",
]
