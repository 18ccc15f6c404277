"""Experiment drivers regenerating every table and figure of the paper.

:mod:`repro.experiments.runner` runs one (kernel, size) experiment with all
five tuners under the simulated Swing backend; :mod:`repro.experiments.figures`
formats the results as the paper's figures report them (per-evaluation process
trajectories, minimum-runtime comparisons); :mod:`repro.experiments.ablations`
adds the design-choice studies DESIGN.md calls out.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "runner": ("ALL_TUNERS", "TunerRun", "ExperimentResult", "run_tuner",
                   "run_experiment"),
        "figures": ("EXPERIMENT_FIGURES", "min_runtime_table",
                    "process_summary_table", "trajectory_csv",
                    "ascii_trajectory", "format_tensor_size"),
        "stats": ("MultiSeedStudy", "area_under_best_curve",
                  "run_multi_seed_study", "summarize_studies"),
    },
)
