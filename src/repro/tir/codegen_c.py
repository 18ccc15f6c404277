"""Native C codegen: tier 0 of the execution-backend ladder.

The tensorized NumPy backend (:mod:`repro.tir.codegen_tensor`) is 75–550×
faster than the interpreter but still pays NumPy dispatch per array op. This
backend emits C99 from the same LICM+CSE-normalized TIR
(:func:`repro.tir.transform.optimize_for_codegen`), compiles it once per
content hash with whatever C toolchain the host provides, and loads the
shared object via ``ctypes`` — one native call per kernel execution, no
per-op dispatch.

Each build is one lean compiler run (:data:`CC_FLAGS`). The translation unit
is freestanding: no ``#include`` lines, the fixed-width integer types are
typedefs of the compiler's predefined ``__INT64_TYPE__``-style macros, and
only the library symbols the body calls (``calloc``/``free`` for scratch
buffers, the libm functions of ``te.Call``) get an ``extern`` prototype. The
``.so`` is linked with ``-nostdlib``: no crt files and no libc or libm, so
those symbols bind at ``dlopen`` from the host process, whose global scope
always holds libc and libm. ``-Werror=implicit-function-declaration`` makes
an undeclared symbol a compile error rather than a call returning ``int``.

ABI — flat packed-function style (microTVM's generated ``default_lib*.c``):
every buffer parameter becomes a ``(data pointer, shape pointer)`` pair::

    void repro_main(double* A, const int64_t* A_shape,
                    double* B, const int64_t* B_shape, ...)

Shapes are compile-time constants in this TIR, so the shape pointers exist
for ABI uniformity (a runtime could validate against them) rather than for
codegen; emitted code indexes buffers flat with static strides.

Compiled artifacts are cached two ways: a process-wide
:class:`~repro.runtime.build_cache.BuildCache` maps *(source content hash,
toolchain version, compile flags)* → loaded entry point (with the usual
hit/miss telemetry), and the shared objects themselves live in a
content-addressed scratch directory so a cache-evicted entry recompiles from
disk for free. Keying by toolchain version and flags means a compiler
upgrade or a new recipe invalidates cleanly instead of reusing a stale
``.so``. The toolchain half — probe, recipe, keys, compile step and
artifact directory — lives in :mod:`repro.common.toolchain`, which the
compiled tree grower shares; this module re-exports those names and calls
:func:`compile_source` through its own globals.

Failure is never fatal. A missing toolchain (``REPRO_CC=/nonexistent``)
emits one :class:`~repro.telemetry.events.NativeDisabled` event + one
``RuntimeWarning`` and permanently disables the tier for the process; every
subsequent build falls back to the tensor tier through the ordinary
:class:`CodegenUnsupported` ladder walk. When one translation unit fails to
compile or load, a fixed probe unit is built once per toolchain to tell the
two causes apart: if the probe fails too the toolchain is at fault and the
tier is disabled the same way; if it builds, only this build fails, with
:class:`NativeCompileError` (an ``ExecutionError``, so the ladder does not
quietly move that one configuration to another tier).
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.toolchain import (  # noqa: F401 - re-exported names
    CC_FLAGS,
    NativeCompileError,
    NativeToolchainError,
    Toolchain,
    compile_source,
    find_toolchain,
    native_key,
    reset as _reset_toolchain,
    source_key,
)
from repro.te.expr import (
    Add,
    And,
    Call,
    Cast,
    Div,
    EQ,
    Expr,
    FloatImm,
    FloorDiv,
    FloorMod,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Max,
    Min,
    Mul,
    NE,
    Not,
    Or,
    Select,
    Sub,
    Var,
)
from repro.tir.codegen_py import CodegenUnsupported
from repro.tir.stmt import (
    Allocate,
    BufferLoad,
    BufferStore,
    Buffer,
    Evaluate,
    For,
    IfThenElse,
    LetStmt,
    PrimFunc,
    SeqStmt,
    Stmt,
)

#: C type for each TIR dtype (NumPy bool_ is one byte, hence uint8_t).
_CTYPE = {
    "float32": "float",
    "float64": "double",
    "int8": "int8_t",
    "int16": "int16_t",
    "int32": "int64_t",  # int scalars are widened: index math must not wrap
    "int64": "int64_t",
    "bool": "uint8_t",
}

_INFIX = {
    Add: "+",
    Sub: "-",
    Mul: "*",
    EQ: "==",
    NE: "!=",
    LT: "<",
    LE: "<=",
    GT: ">",
    GE: ">=",
}

#: ``te.Call`` op → C function per float width; integer ``abs`` maps to llabs.
_CALL_F32 = {
    "sqrt": "sqrtf", "exp": "expf", "log": "logf", "abs": "fabsf",
    "floor": "floorf", "ceil": "ceilf",
}
_CALL_F64 = {
    "sqrt": "sqrt", "exp": "exp", "log": "log", "abs": "fabs",
    "floor": "floor", "ceil": "ceil",
}

#: The fixed-width types the emitted code uses, from the compiler's own
#: predefined macros (gcc and clang both define them) instead of <stdint.h>.
_TYPEDEFS = """\
typedef __INT64_TYPE__ int64_t;
typedef __INT32_TYPE__ int32_t;
typedef __INT16_TYPE__ int16_t;
typedef __INT8_TYPE__ int8_t;
typedef __UINT8_TYPE__ uint8_t;
typedef __SIZE_TYPE__ size_t;
"""

#: Prototype of every library symbol the emitter can call; a translation
#: unit declares only the ones its body references.
_EXTERNS = {
    "calloc": "void* calloc(size_t, size_t);",
    "free": "void free(void*);",
    "llabs": "long long llabs(long long);",
    **{fn: f"float {fn}(float);" for fn in _CALL_F32.values()},
    **{fn: f"double {fn}(double);" for fn in _CALL_F64.values()},
}

_RESERVED = {
    # C keywords and the identifiers the preamble introduces.
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "int8_t", "int16_t", "int32_t",
    "int64_t", "uint8_t", "size_t", "main", "repro_floordiv", "repro_floormod",
    *_EXTERNS,
}

_HELPERS = """
static inline int64_t repro_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

static inline int64_t repro_floormod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
"""

#: Prefix of every emitted symbol (keeps ``name="main"`` kernels legal C).
SYMBOL_PREFIX = "repro_"


def _strides(shape: tuple[int, ...]) -> list[int]:
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * shape[i + 1]
    return out


def _ctype(dtype: str) -> str:
    try:
        return _CTYPE[dtype]
    except KeyError:
        raise CodegenUnsupported(f"dtype {dtype!r} has no C mapping") from None


def _buffer_ctype(dtype: str) -> str:
    # Buffers keep their exact element width (int32 arrays stay int32_t);
    # only *scalar* arithmetic is widened to int64_t.
    if dtype == "int32":
        return "int32_t"
    return _ctype(dtype)


class _CCodegen:
    """Emit one C translation unit for a PrimFunc."""

    def __init__(self, func: PrimFunc) -> None:
        self.func = func
        self.lines: list[str] = []
        self.indent = 1
        self.names: dict[object, str] = {}
        self.used: set[str] = set(_RESERVED)
        self.externs: set[str] = set()

    # -- naming --------------------------------------------------------

    def _name_for(self, key: object, base: str) -> str:
        if key in self.names:
            return self.names[key]
        candidate = base.replace(".", "_").replace("-", "_")
        if not candidate.isidentifier():
            candidate = "v_" + "".join(
                c if c.isalnum() else "_" for c in candidate
            )
        name = candidate
        i = 1
        while name in self.used:
            name = f"{candidate}_{i}"
            i += 1
        self.used.add(name)
        self.names[key] = name
        return name

    def var(self, v: Var) -> str:
        return self._name_for(id(v), v.name)

    def buf(self, name: str) -> str:
        return self._name_for(("buf", name), name)

    # -- emission ------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def generate(self) -> str:
        params = ", ".join(
            f"{_buffer_ctype(b.dtype)}* {self.buf(b.name)}, "
            f"const int64_t* {self.buf(b.name)}_shape"
            for b in self.func.params
        )
        head = f"void {SYMBOL_PREFIX}{self.func.name}({params}) {{"
        for b in self.func.params:
            # Shapes are static; the pointers exist for ABI uniformity.
            self.emit(f"(void){self.buf(b.name)}_shape;")
        self.stmt(self.func.body)
        externs = "".join(f"extern {_EXTERNS[fn]}\n" for fn in sorted(self.externs))
        body = "\n".join(self.lines)
        return f"{_TYPEDEFS}{externs}{_HELPERS}\n{head}\n{body}\n}}\n"

    def call(self, fn: str, arg: str) -> str:
        """A call of library function ``fn``, declared in the preamble."""
        self.externs.add(fn)
        return f"{fn}({arg})"

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, For):
            self._for(s)
        elif isinstance(s, BufferStore):
            self.emit(
                f"{self._element(s.buffer, s.indices)} = {self.expr(s.value)};"
            )
        elif isinstance(s, SeqStmt):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, IfThenElse):
            self.emit(f"if ({self.expr(s.condition)}) {{")
            self.indent += 1
            self.stmt(s.then_case)
            self.indent -= 1
            if s.else_case is not None:
                self.emit("} else {")
                self.indent += 1
                self.stmt(s.else_case)
                self.indent -= 1
            self.emit("}")
        elif isinstance(s, LetStmt):
            ct = _ctype(getattr(s.value, "dtype", "int64"))
            self.emit(f"const {ct} {self.var(s.var)} = {self.expr(s.value)};")
            self.stmt(s.body)
        elif isinstance(s, Evaluate):
            self.emit(f"(void)({self.expr(s.value)});")
        elif isinstance(s, Allocate):
            name = self.buf(s.buffer.name)
            ct = _buffer_ctype(s.buffer.dtype)
            total = 1
            for dim in s.buffer.shape:
                total *= dim
            # calloc matches the np.zeros the other tiers allocate with.
            self.externs.update(("calloc", "free"))
            self.emit(
                f"{ct}* {name} = ({ct}*)calloc((size_t){total}, sizeof({ct}));"
            )
            self.stmt(s.body)
            self.emit(f"free({name});")
        else:
            raise CodegenUnsupported(f"statement {type(s).__name__}")

    def _for(self, s: For) -> None:
        v = self.var(s.loop_var)
        lo = self.expr(s.min)
        n = self.expr(s.extent)
        # All kinds run serially: parallel/vectorized are scheduling hints the
        # C compiler's -O2 auto-vectorizer is free to honor on its own.
        self.emit(
            f"for (int64_t {v} = {lo}; {v} < {lo} + {n}; ++{v}) {{"
        )
        self.indent += 1
        self.stmt(s.body)
        self.indent -= 1
        self.emit("}")

    def _element(self, buffer: Buffer, indices: tuple[Expr, ...]) -> str:
        st = _strides(buffer.shape)
        terms = []
        for i, idx in enumerate(indices):
            src = self.expr(idx)
            terms.append(src if st[i] == 1 else f"({src}) * {st[i]}")
        return f"{self.buf(buffer.name)}[{' + '.join(terms)}]"

    # -- expressions ----------------------------------------------------

    def expr(self, e: Expr) -> str:
        t = type(e)
        if t is Var:
            return self.var(e)
        if t is IntImm:
            return f"(int64_t){e.value}" if abs(e.value) > 2**31 - 1 else repr(e.value)
        if t is FloatImm:
            return self._float_literal(e)
        op = _INFIX.get(t)
        if op is not None:
            return f"({self.expr(e.a)} {op} {self.expr(e.b)})"
        if t is Div:
            if e.dtype in ("float32", "float64"):
                # te.Div promotes int/int to float32, so the C operands may
                # still be integer-typed: cast both to keep true-division
                # semantics (bare ``i / 2`` would truncate).
                ct = _CTYPE[e.dtype]
                return (
                    f"(({ct})({self.expr(e.a)}) / ({ct})({self.expr(e.b)}))"
                )
            raise CodegenUnsupported("integer true division")
        if t is FloorDiv:
            if e.dtype in ("float32", "float64"):
                fn = "floorf" if e.dtype == "float32" else "floor"
                return self.call(fn, f"{self.expr(e.a)} / {self.expr(e.b)}")
            return f"repro_floordiv({self.expr(e.a)}, {self.expr(e.b)})"
        if t is FloorMod:
            if e.dtype in ("float32", "float64"):
                raise CodegenUnsupported("floating-point floormod")
            return f"repro_floormod({self.expr(e.a)}, {self.expr(e.b)})"
        if t in (Min, Max):
            a, b = self.expr(e.a), self.expr(e.b)
            cmp = "<" if t is Min else ">"
            return f"(({a}) {cmp} ({b}) ? ({a}) : ({b}))"
        if t is And:
            return f"({self.expr(e.a)} && {self.expr(e.b)})"
        if t is Or:
            return f"({self.expr(e.a)} || {self.expr(e.b)})"
        if t is Not:
            return f"(!{self.expr(e.a)})"
        if t is BufferLoad:
            return self._element(e.buffer, e.indices)
        if t is Cast:
            if e.dtype == "bool":
                return f"(uint8_t)(({self.expr(e.value)}) != 0)"
            return f"({_ctype(e.dtype)})({self.expr(e.value)})"
        if t is Select:
            return (
                f"(({self.expr(e.condition)}) ? ({self.expr(e.true_value)}) "
                f": ({self.expr(e.false_value)}))"
            )
        if t is Call:
            table = _CALL_F32 if e.dtype == "float32" else _CALL_F64
            if e.dtype not in ("float32", "float64"):
                table = {"abs": "llabs"}
            fn = table.get(e.op)
            if fn is None or len(e.args) != 1:
                raise CodegenUnsupported(f"call {e.op!r} ({e.dtype})")
            return self.call(fn, self.expr(e.args[0]))
        raise CodegenUnsupported(f"expression {type(e).__name__}")

    def _float_literal(self, e: FloatImm) -> str:
        v = e.value
        # What glibc's NAN and INFINITY expand to: float-typed builtins.
        if v != v:
            return '__builtin_nanf("")'
        if v == float("inf"):
            return "__builtin_inff()"
        if v == float("-inf"):
            return "(-__builtin_inff())"
        text = repr(float(v))
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        return f"{text}f" if e.dtype == "float32" else text


def codegen_c(func: PrimFunc, optimize: bool = True) -> str:
    """Emit a C99 translation unit for a PrimFunc.

    ``optimize`` applies the same LICM+CSE normalization the other executable
    backends run (:func:`repro.tir.transform.optimize_for_codegen`) so the C
    the compiler sees has loop-invariant scalars and repeated subexpressions
    already bound to ``const`` locals. Raises :class:`CodegenUnsupported` for
    constructs outside the C fragment (callers fall down the ladder).
    """
    if optimize:
        from repro.tir.transform import optimize_for_codegen

        func = optimize_for_codegen(func)
    return _CCodegen(func).generate()


def _make_cache():
    from repro.runtime.build_cache import BuildCache

    return BuildCache(max_entries=256)


_cache = None
_cache_lock = threading.Lock()
_disabled_reason: str | None = None
#: Probe verdict per toolchain fingerprint: None when the probe unit built,
#: else why it did not (see :func:`_toolchain_fault`).
_probe_lock = threading.Lock()
_probe_verdicts: dict[str, str | None] = {}


def native_cache():
    """The process-wide BuildCache of loaded native entry points."""
    global _cache
    with _cache_lock:
        if _cache is None:
            _cache = _make_cache()
        return _cache


def native_disabled() -> str | None:
    """The reason the native tier is off for this process, or None."""
    return _disabled_reason


def _disable(reason: str, compiler: str) -> None:
    """Turn the tier off for the rest of the process — exactly one warning
    event however many builds race past this point afterwards."""
    global _disabled_reason
    with _cache_lock:
        if _disabled_reason is not None:
            return
        _disabled_reason = reason
    warnings.warn(
        f"native backend disabled for this process: {reason}; "
        "falling back to the tensor tier",
        RuntimeWarning,
        stacklevel=3,
    )
    from repro.telemetry import NativeDisabled, get_telemetry

    tel = get_telemetry()
    if tel.enabled:
        tel.emit(NativeDisabled(compiler=compiler, reason=reason))


def reset_native_runtime() -> None:
    """Testing hook: forget the disabled flag, probe caches, entry cache and
    artifact directory."""
    global _disabled_reason, _cache
    _reset_toolchain()
    with _probe_lock:
        _probe_verdicts.clear()
    with _cache_lock:
        _disabled_reason = None
        _cache = None


class _NativeEntry:
    """ctypes wrapper over one compiled kernel (the Module entry point)."""

    def __init__(self, func: PrimFunc, so_path: str, source: str, key: str) -> None:
        import ctypes

        self._lib = ctypes.CDLL(so_path)
        self._cfunc = getattr(self._lib, f"{SYMBOL_PREFIX}{func.name}")
        self._cfunc.restype = None
        self._cfunc.argtypes = [ctypes.c_void_p] * (2 * len(func.params))
        self._params = list(func.params)
        # Static shapes: materialize each buffer's shape array once.
        self._shape_args = [
            (ctypes.c_int64 * len(b.shape))(*b.shape) for b in func.params
        ]
        self.__source__ = source
        self.__so_path__ = so_path
        self.__native_key__ = key

    def __call__(self, *arrays: np.ndarray) -> None:
        import ctypes

        argv = []
        for arr, buf, shape_arg in zip(arrays, self._params, self._shape_args):
            if not arr.flags["C_CONTIGUOUS"]:
                raise ExecutionError(
                    f"native backend requires C-contiguous arrays; "
                    f"argument {buf.name} is not"
                )
            argv.append(ctypes.c_void_p(arr.ctypes.data))
            argv.append(ctypes.cast(shape_arg, ctypes.c_void_p))
        self._cfunc(*argv)


def _probe_func() -> PrimFunc:
    """``out[i] = sqrt(i + 1)`` through a heap scratch buffer: one Allocate
    and one libm call, the symbols the lean link binds at load time."""
    scratch = Buffer("scratch", (4,), "float64")
    out = Buffer("out", (4,), "float64")
    i = Var("i")
    fill = BufferStore(scratch, Cast(i, "float64") + FloatImm(1.0, "float64"), (i,))
    root = BufferStore(out, Call("sqrt", (BufferLoad(scratch, (i,)),), "float64"), (i,))
    loops = [For(i, IntImm(0), IntImm(4), "serial", store) for store in (fill, root)]
    return PrimFunc("probe", [out], Allocate(scratch, SeqStmt(loops)))


def _run_probe(toolchain: Toolchain) -> str | None:
    func = _probe_func()
    source = codegen_c(func, optimize=False)
    out = np.zeros(4)
    try:
        so_path = compile_source(source, toolchain)
        _NativeEntry(func, so_path, source, native_key(source, toolchain))(out)
    except (NativeCompileError, OSError) as exc:
        return f"probe translation unit failed: {exc}"
    if not np.allclose(out, np.sqrt(np.arange(1.0, 5.0))):
        return f"probe translation unit computed {out.tolist()}"
    return None


def _toolchain_fault(toolchain: Toolchain) -> str | None:
    """Why ``toolchain`` cannot build and run a fixed probe unit, or None.

    Asked only after a build failed, and answered once per toolchain: a
    failing probe makes the failure a toolchain fault; a passing one pins it
    on that build's own translation unit.
    """
    with _probe_lock:
        if toolchain.fingerprint not in _probe_verdicts:
            _probe_verdicts[toolchain.fingerprint] = _run_probe(toolchain)
        return _probe_verdicts[toolchain.fingerprint]


def build_callable_native(func: PrimFunc):
    """Emit, compile, and load a PrimFunc as native code.

    Returns a callable over NumPy arrays carrying ``__source__`` (the C
    text), ``__so_path__``, and ``__native_key__``. Raises
    :class:`CodegenUnsupported` when the construct is outside the C fragment
    *or* the tier is disabled (missing/broken toolchain) — either way the
    build ladder falls to the tensor tier. Raises :class:`NativeCompileError`
    when this translation unit fails to compile or load on a toolchain that
    builds the probe unit.
    """
    if _disabled_reason is not None:
        raise CodegenUnsupported(f"native tier disabled: {_disabled_reason}")
    source = codegen_c(func)
    try:
        toolchain = find_toolchain()
    except NativeToolchainError as exc:
        _disable(str(exc), compiler=os.environ.get("REPRO_CC", "") or "auto")
        raise CodegenUnsupported(f"native tier disabled: {exc}") from exc
    key = native_key(source, toolchain)
    cache = native_cache()
    entry = cache.get(key)
    if entry is not None:
        return entry
    try:
        so_path = compile_source(source, toolchain)
        entry = _NativeEntry(func, so_path, source, key)
    except (NativeCompileError, OSError) as exc:
        if _toolchain_fault(toolchain) is not None:
            _disable(str(exc), compiler=toolchain.path)
            raise CodegenUnsupported(f"native tier disabled: {exc}") from exc
        if isinstance(exc, NativeCompileError):
            raise
        raise NativeCompileError(f"native build failed: {exc}") from exc
    cache.put(key, entry)
    return entry
