"""Build pipeline and runnable modules (the analogue of ``tvm.build``)."""

from __future__ import annotations

import os
import time
from collections.abc import Sequence

import numpy as np

from repro.common.errors import ExecutionError, ReproError
from repro.te.schedule import Schedule
from repro.te.tensor import Tensor
from repro.tir.codegen_c import build_callable_native
from repro.tir.codegen_py import CodegenUnsupported, build_callable
from repro.tir.codegen_tensor import build_callable_tensor
from repro.tir.interp import TIRInterpreter
from repro.tir.lower import lower
from repro.tir.stmt import PrimFunc
from repro.tir.transform import simplify_func
from repro.runtime.ndarray import NDArray
from repro.runtime.target import Target

#: Backend tiers, fastest first. Each entry names a tier and how to build it.
BACKEND_TIERS = ("native", "tensor", "codegen", "interp")

#: The tier the ladder starts from when nothing pins one. ``native`` sits
#: *above* this as tier 0 — opt in per build (``backend="native"``) or per
#: process (``REPRO_BACKEND=native``), since it needs a host C toolchain.
DEFAULT_TIER = "tensor"


def default_backend() -> str:
    """The preferred backend tier (``REPRO_BACKEND`` env var overrides).

    ``tensor`` (the default) tries the tensorized NumPy backend first, then
    the vectorized-python codegen, then the interpreter; ``native`` starts one
    rung higher at the compiled-C tier (requires a C toolchain on the host —
    missing/broken toolchains fall back to ``tensor`` with one warning);
    ``codegen`` skips the tensor tier; ``interp`` forces the reference
    interpreter.
    """
    backend = os.environ.get("REPRO_BACKEND", DEFAULT_TIER).strip().lower()
    if backend not in BACKEND_TIERS:
        raise ReproError(
            f"REPRO_BACKEND={backend!r} is not one of {BACKEND_TIERS}"
        )
    return backend


def starting_tier(target: "str | Target", backend: str | None = None) -> str:
    """The tier the build ladder starts from for ``target`` and the
    ``backend`` pin (None: :func:`default_backend`)."""
    tgt = Target(target) if not isinstance(target, Target) else target
    requested = backend if backend is not None else default_backend()
    if requested not in BACKEND_TIERS:
        raise ReproError(f"backend {requested!r} is not one of {BACKEND_TIERS}")
    return "interp" if tgt.kind == "interp" else requested


class Module:
    """A compiled function plus its lowered PrimFunc.

    Call it with NDArrays or NumPy arrays (mutated in place for outputs), or use
    :meth:`time_evaluator` for TVM-style repeated timing.
    """

    def __init__(self, func: PrimFunc, entry, target: Target, backend: str) -> None:
        self.func = func
        self._entry = entry
        self.target = target
        self.backend = backend  # "native", "tensor", "codegen", or "interp"

    @property
    def name(self) -> str:
        return self.func.name

    def __call__(self, *args: "NDArray | np.ndarray") -> None:
        arrays = [a.view() if isinstance(a, NDArray) else np.asarray(a) for a in args]
        if len(arrays) != len(self.func.params):
            raise ExecutionError(
                f"{self.name} expects {len(self.func.params)} arguments, got {len(arrays)}"
            )
        for buf, arr in zip(self.func.params, arrays):
            if tuple(arr.shape) != buf.shape:
                raise ExecutionError(
                    f"{self.name}: argument {buf.name} expected shape {buf.shape}, "
                    f"got {tuple(arr.shape)}"
                )
            if arr.dtype != np.dtype(buf.dtype):
                raise ExecutionError(
                    f"{self.name}: argument {buf.name} expected dtype {buf.dtype}, "
                    f"got {arr.dtype.name}"
                )
        self._entry(*arrays)

    def time_evaluator(self, number: int = 1, repeat: int = 1):
        """Return a callable measuring mean execution time over runs.

        Mirrors TVM's ``Module.time_evaluator``: the result object has ``.mean``
        and ``.results`` (one mean per repeat).
        """
        if number < 1 or repeat < 1:
            raise ReproError("time_evaluator requires number >= 1 and repeat >= 1")

        def _timer(*args: "NDArray | np.ndarray") -> "TimingResult":
            results = []
            for _ in range(repeat):
                start = time.perf_counter()
                for _ in range(number):
                    self(*args)
                results.append((time.perf_counter() - start) / number)
            return TimingResult(results)

        return _timer

    def __repr__(self) -> str:
        return f"Module({self.name}, target={self.target.kind}, backend={self.backend})"


class TimingResult:
    """Per-repeat mean runtimes from a time evaluator."""

    def __init__(self, results: Sequence[float]) -> None:
        self.results = list(results)

    @property
    def mean(self) -> float:
        return float(np.mean(self.results))

    @property
    def min(self) -> float:
        return float(np.min(self.results))

    def __repr__(self) -> str:
        return f"TimingResult(mean={self.mean:.6g}, n={len(self.results)})"


def build(
    sched: Schedule,
    args: Sequence[Tensor],
    target: "str | Target" = "llvm",
    name: str = "main",
    backend: str | None = None,
) -> Module:
    """Lower a schedule and produce a runnable :class:`Module`.

    For the ``llvm`` target the backend ladder is walked fastest-tier first:
    native compiled C (tier 0, opt-in), then the tensorized NumPy backend
    (whole loop nests as array ops), then the vectorized-python codegen, then
    the reference interpreter — falling back per PrimFunc on
    :class:`CodegenUnsupported`. ``backend`` pins the starting tier
    (``"native"``/``"tensor"``/``"codegen"``/``"interp"``; lower tiers still
    apply as fallback), defaulting to :func:`default_backend`. The ``swing``
    target cannot be built into an executable module (there is no GPU here) — use
    :class:`repro.swing.SwingEvaluator` for simulated measurement.
    """
    tgt = Target(target)
    if tgt.is_simulated:
        raise ReproError(
            "target 'swing' is measurement-simulated only; build with 'llvm' or "
            "evaluate through repro.swing.SwingEvaluator"
        )
    func = simplify_func(lower(sched, args, name=name))
    return build_from_primfunc(func, tgt, backend=backend)


def build_from_primfunc(
    func: PrimFunc,
    target: "str | Target" = "llvm",
    backend: str | None = None,
) -> Module:
    """Wrap an already-lowered PrimFunc in a runnable :class:`Module`.

    Skips the lower/simplify pipeline: the function is built exactly as
    lowered, on the requested tier with the usual per-function fallback.
    """
    tgt = Target(target) if not isinstance(target, Target) else target
    if tgt.is_simulated:
        raise ReproError(
            "target 'swing' is measurement-simulated only; build with 'llvm' or "
            "evaluate through repro.swing.SwingEvaluator"
        )
    requested = starting_tier(tgt, backend)
    ladder = BACKEND_TIERS[BACKEND_TIERS.index(requested):]
    entry = None
    selected = "interp"
    reason = ""
    for tier in ladder:
        try:
            if tier == "native":
                entry = build_callable_native(func)
            elif tier == "tensor":
                entry = build_callable_tensor(func)
            elif tier == "codegen":
                entry = build_callable(func)
            else:
                entry = TIRInterpreter(func)
            selected = tier
            break
        except CodegenUnsupported as exc:
            reason = str(exc)
    _emit_backend_selected(func.name, requested, selected, reason)
    return Module(func, entry, tgt, backend=selected)


def _emit_backend_selected(
    name: str, requested: str, selected: str, reason: str
) -> None:
    from repro.telemetry import BackendSelected, get_telemetry

    tel = get_telemetry()
    if tel.enabled:
        tel.emit(
            BackendSelected(
                func=name,
                requested=requested,
                selected=selected,
                reason=reason if selected != requested else "",
            )
        )
