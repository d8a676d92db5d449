"""Tests for the VM: memory, arithmetic semantics, printf, runtime
shims (OpenMP/CUDA/MPI), traps, and accounting."""

import gc
import math
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.frontend import compile_source
from repro.ir import F32, F64, FunctionType, I64, IRBuilder, Module, ptr
from repro.vm import (
    DEFAULT_COSTS,
    CostModel,
    DeadlockError,
    Machine,
    Memory,
    MemoryTrap,
    MPIWorld,
    StepLimitExceeded,
    UnknownCostError,
    VMError,
    occupancy_factor,
)
from repro.vm.reference import ReferenceMachine
from repro.vm.semantics import unsigned, wrap_int

from helpers import run_main


class TestMemory:
    def test_scalar_roundtrip(self):
        mem = Memory()
        a = mem.allocate(8)
        mem.store(a, F64, 3.25)
        assert mem.load(a, F64) == 3.25
        mem.store(a, I64, -17)
        assert mem.load(a, I64) == -17

    def test_f32_rounding(self):
        mem = Memory()
        a = mem.allocate(4)
        mem.store(a, F32, 0.1)
        v = mem.load(a, F32)
        assert v != 0.1 and abs(v - 0.1) < 1e-7

    def test_char_and_strings(self):
        mem = Memory()
        a = mem.allocate(32)
        mem.write_cstring(a, "hello")
        assert mem.read_cstring(a) == "hello"

    def test_vector_roundtrip(self):
        from repro.ir import VectorType
        mem = Memory()
        a = mem.allocate(32)
        vt = VectorType(F64, 4)
        mem.store(a, vt, (1.0, 2.0, 3.0, 4.0))
        assert mem.load(a, vt) == (1.0, 2.0, 3.0, 4.0)

    def test_out_of_bounds_traps(self):
        mem = Memory()
        with pytest.raises(MemoryTrap):
            mem.load(0, I64)          # null
        with pytest.raises(MemoryTrap):
            mem.load(mem.brk + 4096, I64)

    def test_copy_and_fill(self):
        mem = Memory()
        a = mem.allocate(16)
        b = mem.allocate(16)
        mem.store(a, I64, 42)
        mem.copy(b, a, 8)
        assert mem.load(b, I64) == 42
        mem.fill(a, 0, 16)
        assert mem.load(a, I64) == 0


class TestArithmetic:
    @given(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
    def test_add_wraps_like_i64(self, a, b):
        r = Machine._scalar_binop("add", a, b, I64)
        assert -(2**63) <= r < 2**63
        assert (r - (a + b)) % (2**64) == 0

    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    def test_sdiv_truncates_toward_zero(self, a, b):
        if b == 0:
            return
        r = Machine._scalar_binop("sdiv", a, b, I64)
        assert r == int(a / b)

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_srem_sign_follows_dividend(self, a, b):
        if b == 0:
            return
        r = Machine._scalar_binop("srem", a, b, I64)
        q = Machine._scalar_binop("sdiv", a, b, I64)
        assert q * b + r == a

    def test_division_by_zero_traps(self):
        from repro.vm import UndefinedBehavior
        with pytest.raises(UndefinedBehavior):
            Machine._scalar_binop("sdiv", 1, 0, I64)

    def test_fdiv_by_zero_is_inf(self):
        assert Machine._scalar_binop("fdiv", 1.0, 0.0, F64) == math.inf
        assert Machine._scalar_binop("fdiv", -1.0, 0.0, F64) == -math.inf

    @given(st.integers(-2**63, 2**63 - 1), st.integers(0, 63))
    def test_shifts(self, a, s):
        shl = Machine._scalar_binop("shl", a, s, I64)
        assert wrap_int(a << s, 64) == shl
        lshr = Machine._scalar_binop("lshr", a, s, I64)
        assert lshr == wrap_int(unsigned(a, 64) >> s, 64)


class TestPrintf:
    def run_src(self, body):
        return run_main(compile_source(
            "int main() { %s return 0; }" % body)).output()

    def test_formats(self):
        out = self.run_src(
            r'printf("%d %5d %.3f %e %g %s %c %%\n", 42, 7, 3.14159, '
            r'1234.5, 0.5, "str", 88);')
        assert out == "42     7 3.142 1.234500e+03 0.5 str X %\n"

    def test_negative_and_unsigned(self):
        out = self.run_src(r'printf("%d %x\n", 0 - 5, 255);')
        assert out.startswith("-5 ff")


class TestOpenMP:
    SRC = """
    int main() {
      double a[100];
      #pragma omp parallel for
      for (int i = 0; i < 100; i++) { a[i] = i * 2.0; }
      double s = 0.0;
      for (int i = 0; i < 100; i++) { s = s + a[i]; }
      printf("%.1f\\n", s);
      return 0;
    }
    """

    def test_deterministic_across_thread_counts(self):
        outs = set()
        for t in (1, 2, 4, 7):
            m = run_main(compile_source(self.SRC), num_threads=t)
            outs.add(m.output())
        assert outs == {"9900.0\n"}

    def test_zero_trip_region(self):
        src = self.SRC.replace("i < 100", "i < 0").replace(
            'printf("%.1f\\n", s);', 'printf("ok\\n");')
        src = src.replace("s = s + a[i];", "s = 0.0;")
        m = run_main(compile_source(src))
        assert "ok" in m.output()


class TestCUDA:
    def test_kernel_grid_covers_range(self):
        src = """
        __global__ void fill(double* a, int n) {
          int t = cuda_thread_id();
          int total = cuda_num_threads();
          for (int i = t; i < n; i += total) { a[i] = i + 0.5; }
        }
        int main() {
          double* a = (double*)malloc(40 * sizeof(double));
          launch(fill, 2, 8, a, 40);
          printf("%.1f %.1f\\n", a[0], a[39]);
          return 0;
        }
        """
        m = run_main(compile_source(src))
        assert m.output() == "0.5 39.5\n"
        assert m.kernel_launches.get("fill") == 1
        assert m.kernel_cycles.get("fill", 0) > 0

    def test_occupancy_factor_monotone(self):
        vals = [occupancy_factor(r) for r in (8, 32, 48, 80, 120, 160, 240)]
        assert vals == sorted(vals)
        assert vals[0] == 1.0 and vals[-1] > 1.3


class TestMPI:
    SRC = """
    int main() {
      int rank = mpi_comm_rank();
      int size = mpi_comm_size();
      double v = 1.0 + rank;
      double s = mpi_allreduce_sum_f64(v);
      double m = mpi_allreduce_max_f64(v);
      mpi_barrier();
      if (rank == 0) {
        printf("sum=%.1f max=%.1f ranks=%d\\n", s, m, size);
      }
      return 0;
    }
    """

    def test_allreduce(self):
        mod = compile_source(self.SRC)
        machines = [Machine(mod) for _ in range(4)]
        for m in machines:
            m.start("main")
        MPIWorld(machines).run()
        assert all(m.state == "done" for m in machines)
        out = "".join(m.output() for m in machines)
        assert out == "sum=10.0 max=4.0 ranks=4\n"

    def test_single_rank_collectives_are_local(self):
        m = run_main(compile_source(self.SRC), nranks=1)
        assert m.output() == "sum=1.0 max=1.0 ranks=1\n"

    def test_mismatched_collectives_deadlock(self):
        src = """
        int main() {
          if (mpi_comm_rank() == 0) { mpi_barrier(); }
          else { double x = mpi_allreduce_sum_f64(1.0); }
          return 0;
        }
        """
        mod = compile_source(src)
        machines = [Machine(mod) for _ in range(2)]
        for m in machines:
            m.start("main")
        with pytest.raises(DeadlockError):
            MPIWorld(machines).run()


class TestFailureModes:
    def test_step_limit(self):
        src = "int main() { while (1 < 2) { } return 0; }"
        m = Machine(compile_source(src), max_steps=10_000)
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"
        assert isinstance(m.error, StepLimitExceeded)

    def test_wild_pointer_traps(self):
        src = """
        int main() {
          double* p = (double*)0;
          p[0] = 1.0;
          return 0;
        }
        """
        m = Machine(compile_source(src))
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"

    def test_abort_traps(self):
        src = 'int main() { abort(); return 0; }'
        m = Machine(compile_source(src))
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"

    def test_instruction_and_cycle_accounting(self):
        src = """
        int main() {
          double s = 0.0;
          for (int i = 0; i < 10; i++) { s = s + i; }
          printf("%.0f\\n", s);
          return 0;
        }
        """
        m = run_main(compile_source(src))
        assert m.instructions > 50
        assert m.cycles > m.instructions * 0.5


# -- engine edge cases --------------------------------------------------------
#
# The VM golden pins whole-program behaviour; these pin the corners it
# cannot reach.  Each runs on the decoded Machine and on the reference
# engine, which must agree exactly.

ENGINES = pytest.mark.parametrize("engine", [Machine, ReferenceMachine],
                                  ids=["decoded", "reference"])


def _function(params=(I64,), ret=I64, name="f"):
    mod = Module("edge")
    fn = mod.add_function(FunctionType(ret, list(params)), name,
                          [f"a{i}" for i in range(len(params))])
    return mod, fn


def _run(engine, mod, args=(), name="f", **kw):
    m = engine(mod, **kw)
    m.start(name, args)
    m.run_to_completion()
    return m


class TestEngineEdges:
    @ENGINES
    def test_phi_swap_across_back_edge_is_a_parallel_copy(self, engine):
        mod, fn = _function(params=())
        entry, loop, out = (fn.add_block(n) for n in ("entry", "loop", "out"))
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        x = b.phi(I64, "x")
        y = b.phi(I64, "y")
        i = b.phi(I64, "i")
        x.add_incoming(b.i64(1), entry)
        y.add_incoming(b.i64(2), entry)
        x.add_incoming(y, loop)          # x, y = y, x on every back edge
        y.add_incoming(x, loop)
        i.add_incoming(b.i64(0), entry)
        i1 = b.add(i, b.i64(1))
        i.add_incoming(i1, loop)
        b.cond_br(b.icmp("slt", i1, b.i64(3)), loop, out)
        b.position_at_end(out)
        b.ret(b.add(b.mul(x, b.i64(10)), y))
        m = _run(engine, mod)
        # three trips: (1,2) -> (2,1) -> (1,2); a sequential copy would
        # have collapsed x and y to one value after the first back edge
        assert m.state == "done" and m.retval == 12
        # phis are not counted on a jump: 1 br + 3 x (add, icmp, br)
        # + mul, add, ret
        assert m.instructions == 1 + 3 * 3 + 3

    @ENGINES
    def test_missing_phi_incoming_traps_only_on_that_edge(self, engine):
        mod, fn = _function()
        entry, left, right, join = (fn.add_block(n) for n in
                                    ("entry", "left", "right", "join"))
        b = IRBuilder(entry)
        b.cond_br(b.icmp("eq", fn.args[0], b.i64(0)), left, right)
        for blk in (left, right):
            b.position_at_end(blk)
            b.br(join)
        b.position_at_end(join)
        p = b.phi(I64, "p")
        p.add_incoming(b.i64(7), left)   # nothing for %right
        b.ret(p)
        ok = _run(engine, mod, (0,))
        assert ok.state == "done" and ok.retval == 7
        bad = _run(engine, mod, (1,))
        assert bad.state == "trapped"
        assert type(bad.error) is VMError
        assert str(bad.error) == "phi %p has no incoming for right"
        # the failing branch was counted before it trapped
        assert bad.instructions == 3

    @ENGINES
    def test_step_limit_trap_reports_max_steps_plus_one(self, engine):
        src = "int main() { while (1 < 2) { } return 0; }"
        m = _run(engine, compile_source(src), name="main", max_steps=1234)
        assert isinstance(m.error, StepLimitExceeded)
        assert m.instructions == 1234 + 1

    @ENGINES
    def test_clock_cycles_reads_the_cycles_so_far(self, engine):
        mod, fn = _function(params=())
        b = IRBuilder(fn.add_block("entry"))
        x = b.add(b.i64(1), b.i64(2))                # 1 cycle
        y = b.mul(x, x)                              # 3 cycles
        c = b.call("clock_cycles", [], I64)          # 5 + 10 (intrinsic)
        b.ret(b.add(c, y))                           # 1 + 1
        m = _run(engine, mod)
        costs = DEFAULT_COSTS
        before_ret = costs["add"] + costs["mul"] + costs["call"] + 10.0
        assert m.retval == int(before_ret) + 9
        assert m.cycles == before_ret + costs["add"] + costs["ret"]

    @ENGINES
    def test_unpriced_opcode_is_priced_only_when_it_runs(self, engine):
        mod, fn = _function()
        entry, hot, cold, out = (fn.add_block(n) for n in
                                 ("entry", "hot", "cold", "out"))
        b = IRBuilder(entry)
        b.cond_br(b.icmp("ne", fn.args[0], b.i64(0)), hot, out)
        b.position_at_end(hot)
        i = b.phi(I64, "i")
        i.add_incoming(b.i64(0), entry)
        v = b.binop("xor", i, b.i64(5))
        nxt = b.add(i, b.i64(1))
        i.add_incoming(nxt, hot)
        b.cond_br(b.icmp("slt", nxt, b.i64(3)), hot, cold)
        b.position_at_end(cold)
        b.ret(v)
        b.position_at_end(out)
        b.ret(b.i64(0))
        no_xor = {k: c for k, c in DEFAULT_COSTS.items() if k != "xor"}

        strict = CostModel(costs=dict(no_xor), strict=True)
        m = _run(engine, mod, (0,), cost_model=strict)
        assert m.state == "done" and strict.unknown_opcodes == {}
        with pytest.raises(UnknownCostError, match="xor"):
            _run(engine, mod, (1,), cost_model=strict)

        lenient = CostModel(costs=dict(no_xor))
        m = _run(engine, mod, (1,), cost_model=lenient)
        assert m.state == "done" and m.retval == 2 ^ 5
        assert lenient.unknown_opcodes == {"xor": 3}
        full = _run(engine, mod, (1,))
        # the unpriced xor is charged the 1-cycle default, like the table
        assert m.cycles == full.cycles and DEFAULT_COSTS["xor"] == 1.0

    @ENGINES
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_vector_access_straddling_brk_traps_at_first_bad_lane(
            self, engine, kind):
        from repro.ir import VectorType
        vty = VectorType(F64, 4)
        mod, fn = _function(params=(ptr(F64),), ret=F64)
        b = IRBuilder(fn.add_block("entry"))
        vp = b.cast("bitcast", fn.args[0], ptr(vty))
        if kind == "load":
            v = b.load(vp)
        else:
            v = b.splat(b.f64(2.5), 4)
            b.store(v, vp)
        b.ret(b.extractelement(v, 0))
        m = engine(mod)
        m.memory.allocate(64)
        end = m.memory.brk
        m.start("f", (end - 16,))
        m.run_to_completion()
        assert isinstance(m.error, MemoryTrap)
        # lanes 0 and 1 are in bounds; lane 2 is the first one outside
        assert str(m.error) == f"access [{end:#x},+8) outside memory"
        if kind == "store":
            assert m.memory.load(end - 16, F64) == 2.5
            assert m.memory.load(end - 8, F64) == 2.5

    @ENGINES
    def test_mpi_collective_blocks_and_resumes_through_deliver(self, engine):
        src = """
        int main() {
          double s = mpi_allreduce_sum_f64(1.5);
          printf("%.1f\\n", s);
          return 0;
        }
        """
        m = engine(compile_source(src), nranks=2)
        m.start("main")
        m.run()
        assert m.state == "blocked"
        assert (m.blocked.tag, m.blocked.payload) == ("allreduce_sum", 1.5)
        counted = m.instructions
        m.deliver(4.0)
        assert m.state == "ready" and m.blocked is None
        m.run()
        assert m.state == "done"
        assert m.output() == "4.0\n"
        assert m.instructions > counted

    @pytest.mark.parametrize("src", [
        """
        double sq(double x) { return x * x; }
        int main() {
          double a[16];
          for (int i = 0; i < 16; i++) { a[i] = sq(i); }
          printf("%.1f\\n", a[15]);
          return 0;
        }
        """,
        """
        int main() {
          double* p = (double*)0;
          p[0] = 1.0;
          return 0;
        }
        """,
    ], ids=["done", "trapped"])
    def test_finished_machine_is_freed_by_refcounting(self, src):
        module = compile_source(src)
        gc.collect()
        gc.disable()
        try:
            m = Machine(module)
            m.start("main")
            m.run_to_completion()
            assert m.state in ("done", "trapped")
            machine, memory = weakref.ref(m), weakref.ref(m.memory)
            del m
            assert machine() is None, "Machine kept alive by a cycle"
            assert memory() is None, "memory image kept alive"
        finally:
            gc.enable()
