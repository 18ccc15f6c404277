"""Unit tests for the native C emitter and its graceful-degradation story.

Emitter tests pin down C fragment semantics construct-by-construct —
floor-division on negatives, ternary min/max/select, bool casts, heap
allocation scoping, the freestanding preamble's per-symbol ``extern``
prototypes — both at the source level (what text is emitted) and, when a
toolchain exists, end-to-end through the lean compile + ctypes execution:
every library symbol the emitter can reference is called once and compared
with NumPy.

Degradation tests prove a broken toolchain is never fatal: the first failed
build emits exactly one ``RuntimeWarning`` and one ``NativeDisabled``
telemetry event, every build (including the first) lands on the tensor tier,
and no later build warns again. A compiler that rejects one translation unit
but builds the probe unit fails only that build's trial.
"""

from __future__ import annotations

import os
import stat
import warnings

import numpy as np
import pytest

import repro.te as te
from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.core.framework import AutotuneConfig, BayesianAutotuner
from repro.runtime import build
from repro.runtime.measure import LocalEvaluator
from repro.te.expr import (
    Call,
    Cast,
    Div,
    FloatImm,
    FloorDiv,
    FloorMod,
    IntImm,
    Max,
    Min,
    Select,
    Var,
)
from repro.telemetry import RecordingSink, Telemetry, telemetry_session
from repro.tir.codegen_py import CodegenUnsupported
from repro.tir.codegen_c import (
    _CALL_F32,
    _CALL_F64,
    NativeToolchainError,
    SYMBOL_PREFIX,
    build_callable_native,
    codegen_c,
    find_toolchain,
    native_disabled,
    reset_native_runtime,
    source_key,
)
from repro.tir.stmt import (
    Allocate,
    Buffer,
    BufferLoad,
    BufferStore,
    For,
    PrimFunc,
    SeqStmt,
)
from tests.conftest import make_matmul

try:
    find_toolchain()
    HAS_TOOLCHAIN = True
except NativeToolchainError:  # pragma: no cover - CI images ship gcc
    HAS_TOOLCHAIN = False

needs_cc = pytest.mark.skipif(not HAS_TOOLCHAIN, reason="no C toolchain")


def _expr_func(out_dtype: str, value_of) -> PrimFunc:
    """out[i] = value_of(i) over an 8-element buffer (an expression harness)."""
    out = Buffer("out", (8,), out_dtype)
    i = Var("i", "int32")
    body = For(
        i,
        IntImm(0),
        IntImm(8),
        "serial",
        BufferStore(out, value_of(i), (i,)),
    )
    return PrimFunc("expr_case", [out], body)


def _run_native(func: PrimFunc, *arrays: np.ndarray) -> None:
    entry = build_callable_native(func)
    entry(*arrays)


def _externs(source: str) -> list[str]:
    return [line for line in source.splitlines() if line.startswith("extern ")]


_NUMPY_CALL = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
    "floor": np.floor, "ceil": np.ceil,
}
#: Call arguments are ``i * 0.75 + offset`` for i in 0..7: negative and
#: fractional where the function allows it, positive for sqrt and log.
_CALL_OFFSET = {"sqrt": 0.3, "log": 0.3}
_CALL_CASES = [
    (dtype, op, fn)
    for dtype, table in (("float32", _CALL_F32), ("float64", _CALL_F64))
    for op, fn in sorted(table.items())
]


class TestEmitterSource:
    def test_symbol_prefix_and_abi(self, matmul):
        A, B, C = matmul
        s = te.create_schedule(C.op)
        from repro.tir import lower, simplify_func

        source = codegen_c(simplify_func(lower(s, [A, B, C])))
        assert f"void {SYMBOL_PREFIX}main(" in source
        # Flat packed-function ABI: each buffer is a (data, shape) pair.
        assert "float* A, const int64_t* A_shape" in source
        assert "(void)A_shape;" in source

    def test_floor_ops_use_helpers(self):
        func = _expr_func(
            "int32",
            lambda i: FloorDiv(i, IntImm(3)) + FloorMod(i, IntImm(3)),
        )
        source = codegen_c(func)
        assert "repro_floordiv(" in source
        assert "repro_floormod(" in source

    def test_min_max_select_are_ternary(self):
        func = _expr_func(
            "int32",
            lambda i: Select(
                i < IntImm(4), Min(i, IntImm(2)), Max(i, IntImm(6))
            ),
        )
        source = codegen_c(func)
        assert source.count("?") >= 3  # select + min + max

    def test_bool_cast_normalizes(self):
        func = _expr_func("bool", lambda i: Cast(i, "bool"))
        assert "(uint8_t)((" in codegen_c(func)

    def test_allocate_pairs_calloc_free(self):
        scratch = Buffer("scratch", (4, 4), "float64")
        out = Buffer("out", (4, 4), "float64")
        i, j = Var("i"), Var("j")
        inner = SeqStmt(
            [
                BufferStore(scratch, FloatImm(2.0, "float64"), (i, j)),
                BufferStore(out, BufferLoad(scratch, (i, j)), (i, j)),
            ]
        )
        nest = For(
            i, IntImm(0), IntImm(4), "serial",
            For(j, IntImm(0), IntImm(4), "serial", inner),
        )
        func = PrimFunc("alloc_case", [out], Allocate(scratch, nest))
        source = codegen_c(func)
        assert "calloc((size_t)16, sizeof(double))" in source
        assert "free(scratch);" in source
        assert _externs(source) == [
            "extern void* calloc(size_t, size_t);",
            "extern void free(void*);",
        ]

    def test_source_is_freestanding(self, matmul):
        A, B, C = matmul
        from repro.tir import lower, simplify_func

        source = codegen_c(simplify_func(lower(te.create_schedule(C.op), [A, B, C])))
        assert "#include" not in source
        assert "typedef __INT64_TYPE__ int64_t;" in source
        assert "typedef __SIZE_TYPE__ size_t;" in source

    def test_no_allocate_no_call_declares_no_externs(self):
        source = codegen_c(_expr_func("int32", lambda i: i * IntImm(2)))
        assert _externs(source) == []

    def test_only_referenced_symbols_are_declared(self):
        func = _expr_func(
            "float32", lambda i: Call("exp", (Cast(i, "float32"),), "float32")
        )
        assert _externs(codegen_c(func)) == ["extern float expf(float);"]

    def test_special_float_literals_are_builtins(self):
        for value, text in (
            (float("nan"), '__builtin_nanf("")'),
            (float("inf"), "__builtin_inff()"),
            (float("-inf"), "(-__builtin_inff())"),
        ):
            source = codegen_c(_expr_func("float64", lambda i: FloatImm(value, "float64")))
            assert text in source
            assert _externs(source) == []

    def test_int_operand_true_division_casts(self):
        # te.Div promotes int/int to float32; the emitted C must cast the
        # integer operands so the division doesn't truncate.
        func = _expr_func("float32", lambda i: Div(i, IntImm(2)))
        assert "(float)(" in codegen_c(func)

    def test_integer_true_division_unsupported(self):
        # An un-promoted integer Div (impossible through te today, but the
        # emitter guards its own fragment) is rejected, not mis-emitted.
        func = _expr_func("int32", lambda i: Div(i, IntImm(2)))
        visit = []

        def _force_int(e):
            if isinstance(e, Div):
                e.dtype = "int32"
                visit.append(e)
            for c in e.children():
                _force_int(c)

        _force_int(func.body.body.value)
        assert visit
        with pytest.raises(CodegenUnsupported, match="true division"):
            codegen_c(func, optimize=False)

    def test_float_floormod_unsupported(self):
        func = _expr_func(
            "float32",
            lambda i: FloorMod(Cast(i, "float32"), FloatImm(2.0)),
        )
        with pytest.raises(CodegenUnsupported, match="floormod"):
            codegen_c(func)

    def test_unmapped_call_unsupported(self):
        # sqrt over an integer dtype has no C mapping (only llabs does).
        func = _expr_func("int32", lambda i: Call("sqrt", (i,), "int32"))
        with pytest.raises(CodegenUnsupported, match="sqrt"):
            codegen_c(func)

    def test_reserved_identifiers_renamed(self):
        out = Buffer("double", (8,), "float32")
        i = Var("for", "int32")
        body = For(
            i, IntImm(0), IntImm(8), "serial",
            BufferStore(out, Cast(i, "float32"), (i,)),
        )
        source = codegen_c(PrimFunc("kw_case", [out], body))
        assert "float* double," not in source
        assert "int64_t for =" not in source

    def test_source_key_is_content_hash(self):
        assert source_key("int x;") == source_key("int x;")
        assert source_key("int x;") != source_key("int y;")
        assert len(source_key("")) == 64


@needs_cc
class TestEmitterExecution:
    def test_floordiv_floormod_negative_operands(self):
        func = _expr_func(
            "int32", lambda i: FloorDiv(i - IntImm(4), IntImm(3))
        )
        out = np.zeros(8, dtype=np.int32)
        _run_native(func, out)
        expected = np.array([(i - 4) // 3 for i in range(8)], dtype=np.int32)
        np.testing.assert_array_equal(out, expected)

        func = _expr_func(
            "int32", lambda i: FloorMod(i - IntImm(4), IntImm(3))
        )
        out = np.zeros(8, dtype=np.int32)
        _run_native(func, out)
        expected = np.array([(i - 4) % 3 for i in range(8)], dtype=np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_select_min_max(self):
        func = _expr_func(
            "int32",
            lambda i: Select(
                i < IntImm(4), Min(i, IntImm(2)), Max(i, IntImm(6))
            ),
        )
        out = np.zeros(8, dtype=np.int32)
        _run_native(func, out)
        expected = np.array(
            [min(i, 2) if i < 4 else max(i, 6) for i in range(8)],
            dtype=np.int32,
        )
        np.testing.assert_array_equal(out, expected)

    def test_float_math_calls(self):
        func = _expr_func(
            "float64",
            lambda i: Call(
                "sqrt",
                (Cast(i, "float64") + FloatImm(1.0, "float64"),),
                "float64",
            ),
        )
        out = np.zeros(8, dtype=np.float64)
        _run_native(func, out)
        np.testing.assert_allclose(out, np.sqrt(np.arange(8) + 1.0))

    def test_allocate_roundtrip(self):
        scratch = Buffer("scratch", (8,), "float64")
        out = Buffer("out", (8,), "float64")
        i = Var("i")
        body = Allocate(
            scratch,
            SeqStmt(
                [
                    For(
                        i, IntImm(0), IntImm(8), "serial",
                        BufferStore(
                            scratch, Cast(i, "float64") * FloatImm(3.0, "float64"), (i,)
                        ),
                    ),
                    For(
                        i, IntImm(0), IntImm(8), "serial",
                        BufferStore(out, BufferLoad(scratch, (i,)), (i,)),
                    ),
                ]
            ),
        )
        func = PrimFunc("alloc_rt", [out], body)
        out_arr = np.zeros(8, dtype=np.float64)
        _run_native(func, out_arr)
        np.testing.assert_allclose(out_arr, np.arange(8) * 3.0)

    @pytest.mark.parametrize("dtype,op,fn", _CALL_CASES)
    def test_math_call_matches_numpy(self, dtype, op, fn):
        offset = _CALL_OFFSET.get(op, -2.6)
        func = _expr_func(
            dtype,
            lambda i: Call(
                op,
                (Cast(i, dtype) * FloatImm(0.75, dtype) + FloatImm(offset, dtype),),
                dtype,
            ),
        )
        entry = build_callable_native(func)
        ctype = "float" if dtype == "float32" else "double"
        assert _externs(entry.__source__) == [f"extern {ctype} {fn}({ctype});"]
        out = np.zeros(8, dtype=dtype)
        entry(out)
        scalar = np.dtype(dtype).type
        x = np.arange(8, dtype=dtype) * scalar(0.75) + scalar(offset)
        rtol = 1e-6 if dtype == "float32" else 1e-14
        np.testing.assert_allclose(out, _NUMPY_CALL[op](x), rtol=rtol)

    def test_integer_abs_is_llabs(self):
        func = _expr_func("int64", lambda i: Call("abs", (i - IntImm(4),), "int64"))
        entry = build_callable_native(func)
        assert _externs(entry.__source__) == ["extern long long llabs(long long);"]
        out = np.zeros(8, dtype=np.int64)
        entry(out)
        np.testing.assert_array_equal(out, np.abs(np.arange(8) - 4))

    @pytest.mark.parametrize("dtype,fn", [("float32", "floorf"), ("float64", "floor")])
    def test_float_floordiv(self, dtype, fn):
        func = _expr_func(
            dtype,
            lambda i: FloorDiv(Cast(i, dtype) - FloatImm(3.5, dtype), FloatImm(2.0, dtype)),
        )
        entry = build_callable_native(func)
        assert f" {fn}(" in _externs(entry.__source__)[0]
        out = np.zeros(8, dtype=dtype)
        entry(out)
        np.testing.assert_array_equal(out, np.floor((np.arange(8, dtype=dtype) - 3.5) / 2.0))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_special_float_literals(self, dtype, value):
        out = np.zeros(8, dtype=dtype)
        _run_native(_expr_func(dtype, lambda i: FloatImm(value, dtype)), out)
        np.testing.assert_array_equal(out, np.full(8, value, dtype=dtype))

    def test_non_contiguous_input_rejected(self):
        from repro.common.errors import ExecutionError
        from repro.tir import lower, simplify_func

        A, B, C = make_matmul()
        s = te.create_schedule(C.op)
        entry = build_callable_native(simplify_func(lower(s, [A, B, C])))
        a = np.ones((12, 16), dtype=np.float32)[:, ::2]
        b = np.ones((8, 10), dtype=np.float32)
        c = np.zeros((12, 10), dtype=np.float32)
        with pytest.raises(ExecutionError, match="C-contiguous"):
            entry(a, b, c)


@pytest.fixture
def clean_native_state():
    """Isolate the process-global disable flag and probe/entry caches."""
    reset_native_runtime()
    try:
        yield
    finally:
        reset_native_runtime()


def _build_matmul(backend: str = "native"):
    A, B, C = make_matmul()
    s = te.create_schedule(C.op)
    return build(s, [A, B, C], backend=backend)


class TestGracefulDegradation:
    def test_missing_compiler_falls_back_once(self, clean_native_state, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        sink = RecordingSink()
        with telemetry_session(Telemetry([sink])):
            with pytest.warns(RuntimeWarning, match="native backend disabled"):
                mod = _build_matmul("native")
            assert mod.backend == "tensor"
            assert native_disabled() is not None
            assert sink.kinds().count("native_disabled") == 1
            # Later builds fall back silently: no second warning, no event.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                mod2 = _build_matmul("native")
            assert mod2.backend == "tensor"
            assert not [w for w in caught if w.category is RuntimeWarning]
            assert sink.kinds().count("native_disabled") == 1
            # The ladder telemetry records the fallback reason.
            selected = [e for e in sink.events if e.kind == "backend_selected"]
            assert selected and all(e.selected == "tensor" for e in selected)
            assert "disabled" in selected[-1].reason

    def test_compile_failure_falls_back_once(
        self, clean_native_state, monkeypatch, tmp_path
    ):
        # A fake cc that probes fine but rejects every translation unit.
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = "--version" ]; then echo fakecc 1.0; exit 0; fi\n'
            "echo boom >&2\nexit 1\n"
        )
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("REPRO_CC", str(fake))
        sink = RecordingSink()
        with telemetry_session(Telemetry([sink])):
            with pytest.warns(RuntimeWarning, match="native backend disabled"):
                mod = _build_matmul("native")
            assert mod.backend == "tensor"
            assert "boom" in native_disabled()
            events = [e for e in sink.events if e.kind == "native_disabled"]
            assert len(events) == 1
            assert events[0].compiler == str(fake)

    def test_output_still_correct_after_fallback(
        self, clean_native_state, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        with pytest.warns(RuntimeWarning):
            mod = _build_matmul("native")
        rng = np.random.default_rng(7)
        a = rng.random((12, 8)).astype("float32")
        b = rng.random((8, 10)).astype("float32")
        c = np.zeros((12, 10), dtype="float32")
        mod(a, b, c)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-6)

    @needs_cc
    def test_reset_reenables_the_tier(self, clean_native_state, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        with pytest.warns(RuntimeWarning):
            assert _build_matmul("native").backend == "tensor"
        monkeypatch.delenv("REPRO_CC")
        reset_native_runtime()
        assert native_disabled() is None
        assert _build_matmul("native").backend == "native"

    def test_disabled_tier_raises_codegen_unsupported(
        self, clean_native_state, monkeypatch
    ):
        from repro.tir import lower, simplify_func

        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
        A, B, C = make_matmul()
        s = te.create_schedule(C.op)
        func = simplify_func(lower(s, [A, B, C]))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CodegenUnsupported, match="disabled"):
                build_callable_native(func)
        # Once disabled: same exception, no emit/probe work repeated.
        with pytest.raises(CodegenUnsupported, match="disabled"):
            build_callable_native(func)


#: The fault-injection compiler rejects any translation unit containing this.
FAULT_MARKER = "FAULT_MARKER"
BAD_P0 = 4


def _marker_builder(params):
    """out[i] = A[i] + P0; the P0 == BAD_P0 output buffer carries the marker
    in its name, so only that configuration's C source contains it."""
    p0 = params["P0"]
    a = te.placeholder((16,), name="A", dtype="float64")
    out = te.compute(
        (16,),
        lambda i: a[i] + float(p0),
        name=FAULT_MARKER if p0 == BAD_P0 else "B",
    )
    return te.create_schedule(out.op), [a, out]


@needs_cc
class TestPerSourceFaults:
    @pytest.fixture
    def marker_cc(self, clean_native_state, monkeypatch, tmp_path):
        """A REPRO_CC that runs the real compiler unless the .c file
        contains FAULT_MARKER."""
        real = find_toolchain().path
        fake = tmp_path / "markercc"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  case "$arg" in *.c)\n'
            f'    if grep -q {FAULT_MARKER} "$arg"; then echo injected fault >&2; exit 1; fi;;\n'
            "  esac\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("REPRO_CC", str(fake))
        reset_native_runtime()
        return fake

    def test_bad_source_fails_one_trial_only(self, marker_cc):
        space = ConfigurationSpace(seed=0)
        space.add_hyperparameter(OrdinalHyperparameter("P0", (1, 2, 3, 4, 5, 6)))
        sink = RecordingSink()
        with telemetry_session(Telemetry([sink])), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            BayesianAutotuner(
                space,
                LocalEvaluator(_marker_builder, backend="native"),
                config=AutotuneConfig(max_evals=6, seed=0, n_initial_points=3),
            ).run()
        trials = [e for e in sink.events if e.kind == "trial_measured"]
        assert sorted(e.config["P0"] for e in trials) == [1, 2, 3, 4, 5, 6]
        failed = [e for e in trials if not e.ok]
        assert [e.config for e in failed] == [{"P0": BAD_P0}]
        assert failed[0].error.startswith("compile error:")
        assert "injected fault" in failed[0].error
        assert all(e.backend == "native" for e in trials if e.ok)
        assert native_disabled() is None
        assert "native_disabled" not in sink.kinds()

    def test_precompile_reports_the_bad_source(self, marker_cc):
        evaluator = LocalEvaluator(_marker_builder, backend="native")
        assert evaluator.precompile({"P0": BAD_P0}) is False
        assert evaluator.precompile({"P0": 1}) is True
        assert native_disabled() is None

    def test_bad_source_is_not_built_on_another_tier(self, marker_cc):
        from repro.tir.codegen_c import NativeCompileError

        with pytest.raises(NativeCompileError, match="injected fault"):
            build(*_marker_builder({"P0": BAD_P0}), backend="native")
        assert native_disabled() is None
