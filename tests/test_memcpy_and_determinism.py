"""Tests for memcpy/memset handling and compilation determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir import (
    ArrayType,
    F64,
    FunctionType,
    I64,
    IRBuilder,
    MemCpyInst,
    Module,
    VOID,
    function_hash,
    module_hash,
    ptr,
    verify_module,
)
from repro.oraql import BenchmarkConfig, SourceFile
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence
from repro.passes import CompilationContext, PassManager, build_pipeline, parse_pipeline
from repro.vm import Machine

from helpers import run_main


def run_passes(module, spec):
    ctx = CompilationContext(module, verify_each=True)
    PassManager(ctx).run(parse_pipeline(spec))
    verify_module(module)
    return ctx


class TestMemCpySemantics:
    def _module_with_copy(self):
        m = Module("mc")
        fn = m.add_function(FunctionType(F64, []), "main")
        b = IRBuilder(fn.add_block("e"))
        src = b.alloca(ArrayType(F64, 4), name="src")
        dst = b.alloca(ArrayType(F64, 4), name="dst")
        for i in range(4):
            b.store(b.f64(i + 0.5), b.gep(src, [0, i]))
        b.memcpy(b.gep(dst, [0, 0]), b.gep(src, [0, 0]), 32)
        v = b.load(b.gep(dst, [0, 3]))
        b.ret(v)
        return m, fn

    def test_interpreter_memcpy(self):
        m, _ = self._module_with_copy()
        mach = Machine(m)
        mach.start("main")
        mach.run_to_completion()
        assert mach.state == "done"
        assert mach.retval == 3.5

    def test_memset_zeroes(self):
        m = Module("ms")
        fn = m.add_function(FunctionType(F64, []), "main")
        b = IRBuilder(fn.add_block("e"))
        buf = b.alloca(ArrayType(F64, 4), name="buf")
        b.store(b.f64(9.0), b.gep(buf, [0, 2]))
        b.memset(b.gep(buf, [0, 0]), 0, 32)
        b.ret(b.load(b.gep(buf, [0, 2])))
        mach = Machine(m)
        mach.start("main")
        mach.run_to_completion()
        assert mach.retval == 0.0

    def test_memcpy_chain_forwarding(self):
        """memcpy a->b; memcpy b->c  =>  the second reads from a."""
        m = Module("fw")
        fn = m.add_function(
            FunctionType(VOID, [ptr(F64), ptr(F64), ptr(F64)]), "f",
            ["a", "b", "c"])
        b = IRBuilder(fn.add_block("e"))
        c1 = b.memcpy(fn.args[1], fn.args[0], 16)
        c2 = b.memcpy(fn.args[2], fn.args[1], 16)
        b.ret()
        ctx = run_passes(m, "memcpyopt")
        assert ctx.stats.get("MemCpy Optimization", "# memcpys forwarded") == 1
        assert c2.src is fn.args[0]

    def test_self_copy_deleted(self):
        m = Module("sc")
        fn = m.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.memcpy(fn.args[0], fn.args[0], 16)
        b.ret()
        ctx = run_passes(m, "memcpyopt")
        assert not any(isinstance(i, MemCpyInst) for i in fn.instructions())

    def test_intervening_clobber_blocks_forwarding(self):
        m = Module("cl")
        fn = m.add_function(
            FunctionType(VOID, [ptr(F64), ptr(F64), ptr(F64), ptr(F64)]),
            "f", ["a", "b", "c", "w"])
        b = IRBuilder(fn.add_block("e"))
        b.memcpy(fn.args[1], fn.args[0], 16)
        b.store(b.f64(1.0), fn.args[3])   # w may alias a or b
        c2 = b.memcpy(fn.args[2], fn.args[1], 16)
        b.ret()
        run_passes(m, "memcpyopt")
        assert c2.src is fn.args[1]       # unchanged


DET_SRC = """
void kernel(double* out, double* a, double* b, int n) {
  for (int i = 0; i < n; i++) {
    double t = a[i] * 0.5;
    if (t > b[i]) { out[i] = t - b[i]; }
    else { out[i] = b[i] - t; }
  }
}
int main() {
  double a[24]; double b[24]; double o[24];
  for (int i = 0; i < 24; i++) { a[i] = i; b[i] = 24.0 - i; o[i] = 0.0; }
  kernel(o, a, b, 24);
  double s = 0.0;
  for (int i = 0; i < 24; i++) { s = s + o[i]; }
  printf("%.4f\\n", s);
  return 0;
}
"""


class TestDeterminism:
    def _hash_once(self, level):
        m = compile_source(DET_SRC, "d.c")
        ctx = CompilationContext(m)
        PassManager(ctx).run(build_pipeline(level))
        return module_hash(m)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_same_input_same_module_hash(self, level):
        assert self._hash_once(level) == self._hash_once(level)

    def test_printed_module_is_reproducible(self):
        from repro.ir import print_module
        m1 = compile_source(DET_SRC, "d.c")
        m2 = compile_source(DET_SRC, "d.c")
        for m in (m1, m2):
            ctx = CompilationContext(m)
            PassManager(ctx).run(build_pipeline(3))
        assert print_module(m1) == print_module(m2)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 3))
    def test_random_sized_programs_deterministic(self, n, extra):
        src = DET_SRC.replace("24", str(n + 12))
        h = {self._hash_once(3) for _ in range(2)}
        m1 = compile_source(src, "d.c")
        m2 = compile_source(src, "d.c")
        for m in (m1, m2):
            ctx = CompilationContext(m)
            PassManager(ctx).run(build_pipeline(3))
        assert module_hash(m1) == module_hash(m2)

    def test_fn_hashes_match_bodies(self):
        # the executable hash is composed from the per-function body
        # hashes, so each entry must be the hash of the optimized body
        cfg = BenchmarkConfig(name="d", sources=[SourceFile("d.c", DET_SRC)])
        prog = Compiler().compile(cfg, DecisionSequence(),
                                  oraql_enabled=True)
        assert list(prog.fn_hashes) == list(prog.module.functions)
        for name, fn in prog.module.functions.items():
            assert prog.fn_hashes[name] == function_hash(fn)


class TestInlinerDifferential:
    """The inliner must preserve observable behaviour on the corpus."""

    @pytest.mark.parametrize("src_key", ["calls", "loops", "restrict"])
    def test_inline_pipeline_matches(self, src_key):
        sources = {
            "calls": """
            double f(double x) { return x * 2.0 + 1.0; }
            double g(double x) { return f(x) + f(x + 1.0); }
            int main() { printf("%.1f\\n", g(3.0)); return 0; }
            """,
            "loops": """
            double total(double* a, int n) {
              double s = 0.0;
              for (int i = 0; i < n; i++) { s = s + a[i]; }
              return s;
            }
            int main() {
              double v[9];
              for (int i = 0; i < 9; i++) { v[i] = i * 1.5; }
              printf("%.1f\\n", total(v, 9) + total(v + 3, 3));
              return 0;
            }
            """,
            "restrict": """
            void axpy(double* restrict y, double* restrict x, int n) {
              for (int i = 0; i < n; i++) { y[i] = y[i] + 2.0 * x[i]; }
            }
            int main() {
              double x[8]; double y[8];
              for (int i = 0; i < 8; i++) { x[i] = i; y[i] = 1.0; }
              axpy(y, x, 8);
              printf("%.1f\\n", y[7]);
              return 0;
            }
            """,
        }
        src = sources[src_key]
        m0 = compile_source(src)
        base = run_main(m0).output()
        m1 = compile_source(src)
        ctx = run_passes(
            m1, "simplifycfg,inline,mem2reg,instcombine,simplifycfg,"
                "early-cse,licm,gvn,dse,loop-vectorize,instcombine,dce,"
                "simplifycfg,dce")
        assert run_main(m1).output() == base
