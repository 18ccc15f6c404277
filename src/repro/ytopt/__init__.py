"""ytopt reimplementation: ML-based autotuning via Bayesian optimization.

Mirrors the ytopt architecture the paper describes (§2.2): a ConfigSpace-defined
parameter space, a *code mold* parameterization of the kernel source, an
ask/tell Bayesian optimizer with a dynamically refitted Random-Forest surrogate
and a Lower-Confidence-Bound acquisition function, and the AMBS search loop that
drives evaluations until the budget is exhausted, recording every result in a
performance database.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "problem": ("TuningProblem",),
        "surrogate": (
            "RandomForestSurrogate",
            "GBTSurrogate",
            "DummySurrogate",
            "GaussianProcessSurrogate",
        ),
        "acquisition": ("LowerConfidenceBound", "ExpectedImprovement"),
        "optimizer": ("Optimizer", "RefitSchedule"),
        "tpe": ("TPEOptimizer",),
        "database": ("PerformanceDatabase", "EvaluationRecord"),
        "search": ("AMBS", "SearchResult"),
        "warmstart": ("WarmStart",),
        "codemold": ("CodeMold", "Plopper"),
    },
)
