"""Runtime: build lowered functions into runnable modules, NDArray, targets.

The analogue of TVM's ``tvm.build`` + runtime: :func:`build` lowers a schedule,
runs the pass pipeline, and wraps the result in a :class:`Module` whose executor is
chosen by the :class:`Target` (generated NumPy code for ``llvm``-style CPU targets,
the reference interpreter for ``interp``).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "ndarray": ("NDArray", "array", "empty", "zeros"),
        "target": ("Target",),
        "module": ("Module", "build", "build_from_primfunc"),
        "measure": ("MeasureResult", "LocalEvaluator", "Evaluator", "evaluate_batch"),
        "build_cache": ("BuildCache",),
        "fidelity": (
            "AdaptiveRepeatPolicy",
            "FidelityDecision",
            "MultiFidelityEvaluator",
            "probe_statistics",
        ),
    },
)
