"""The IR interpreter: an explicit-stack machine over decoded functions.

Running the *optimized* IR is what makes ORAQL's verification real in
this reproduction: a wrong optimistic no-alias answer lets a pass forward
a stale value or delete a live store, and the executed program then
prints a different checksum (or traps / loops), failing verification.

The machine keeps its own frame stack (no host recursion for calls) so
that:
* instruction counts and cycle costs are exact,
* multiple ranks can be interleaved by the MPI scheduler,
* runaway miscompiles hit a step budget instead of hanging the driver.

Each function is lowered once per Machine, on its first call, into
slot-indexed ``(cost, op)`` lists (:mod:`repro.vm.decode`); the run loop
then only indexes lists and calls closures.  The accounting is the IR's,
instruction by instruction: count, add ``_gpu_factor * cost`` to the
cycles, run the effect, then check the step and wall-clock budgets.
:mod:`repro.vm.reference` keeps the tree-walking engine this replaced as
the referee the fuzz oracle and the tests compare against.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..ir.function import Function
from ..ir.module import Module
from ..ir.types import ArrayType, StructType, Type
from ..ir.values import (
    Constant,
    ConstantData,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
)
from .cost_model import CostModel
from .decode import (
    ALLOCAS,
    DecodedFunction,
    Invoke,
    MemCopy,
    MemFill,
    Return,
    RuntimeCall,
    Unpriced,
    decode_function,
)
from .errors import (
    DeadlockError,
    StepLimitExceeded,
    VMError,
    WallClockExceeded,
)
from .memory import Memory
from .semantics import cast_scalar, fcmp, icmp, scalar_binop

#: ``Frame.ret_slot`` of a frame whose return value goes to
#: ``Machine.retval`` (the entry frame and synchronous calls)
RETVAL = -1


class Blocked:
    """Sentinel returned by blocking runtime calls (MPI collectives)."""

    __slots__ = ("tag", "payload")

    def __init__(self, tag: str, payload):
        self.tag = tag
        self.payload = payload


class Frame:
    """One activation: its register file and where execution resumes."""

    __slots__ = ("code", "regs", "ops", "index", "ret_slot", "pending")

    def __init__(self, code: DecodedFunction, regs: list, ret_slot):
        self.code = code
        self.regs = regs
        #: the op list executing and the index of the next op in it;
        #: written back only when the run loop hands control away
        self.ops = code.entry
        self.index = 0
        #: caller's slot for the return value (None: void call,
        #: ``RETVAL``: store in ``Machine.retval``)
        self.ret_slot = ret_slot
        #: slot awaiting a blocked runtime call's result (``deliver``)
        self.pending: Optional[int] = None


class Machine:
    """One executing process image (one MPI rank, or the whole program)."""

    def __init__(self, module: Module, runtime=None,
                 max_steps: int = 80_000_000,
                 cost_model: Optional[CostModel] = None,
                 kernel_info: Optional[Dict[str, object]] = None,
                 rank: int = 0, nranks: int = 1, num_threads: int = 4,
                 argv: Optional[List[str]] = None,
                 wall_clock: Optional[float] = None):
        from .runtime import Runtime  # local import to avoid cycle

        self.module = module
        self.memory = Memory()
        self.runtime = runtime or Runtime()
        self.cost = cost_model or CostModel()
        self.kernel_info = kernel_info or {}
        self.max_steps = max_steps
        #: optional per-run wall-clock budget in seconds; armed at
        #: :meth:`run` and polled every ``WALL_CLOCK_POLL`` instructions
        self.wall_clock = wall_clock
        self._deadline: Optional[float] = None
        self.rank = rank
        self.nranks = nranks
        self.num_threads = num_threads
        self.argv = argv or []

        self.frames: List[Frame] = []
        self.stdout: List[str] = []
        self.state = "ready"  # ready | blocked | done | trapped
        self.retval = None
        self.error: Optional[BaseException] = None
        self.blocked: Optional[Blocked] = None
        self.instructions = 0
        self.cycles = 0.0
        self.kernel_cycles: Dict[str, float] = {}
        self.kernel_launches: Dict[str, int] = {}
        self._gpu_factor = 1.0  # >1 while executing inside a GPU kernel
        #: functions lowered so far, decoded on first call
        self._decoded: Dict[Function, DecodedFunction] = {}

        self.globals: Dict[GlobalVariable, int] = {}
        self._init_globals()

    # -- images ------------------------------------------------------------
    def _init_globals(self) -> None:
        for gv in self.module.globals.values():
            size = gv.value_type.size()
            addr = self.memory.allocate(size, gv.value_type.align())
            self.globals[gv] = addr
            init = gv.initializer
            if init is None:
                continue
            self._write_initializer(addr, gv.value_type, init)

    def _write_initializer(self, addr: int, ty: Type, init: Constant) -> None:
        if isinstance(init, ConstantInt):
            self.memory.store(addr, ty, init.value)
        elif isinstance(init, ConstantFloat):
            self.memory.store(addr, ty, init.value)
        elif isinstance(init, ConstantData):
            if isinstance(ty, ArrayType):
                step = ty.element.size()
                for i, v in enumerate(init.values):
                    self.memory.store(addr + i * step, ty.element, v)
            elif isinstance(ty, StructType):
                for i, v in enumerate(init.values):
                    self.memory.store(addr + ty.field_offset(i), ty.fields[i], v)
            else:
                raise VMError(f"bad ConstantData target {ty}")
        elif isinstance(init, ConstantNull):
            self.memory.store(addr, ty, 0)

    # -- frames --------------------------------------------------------------
    def _push(self, fn: Function, args, ret_slot) -> None:
        code = self._decoded.get(fn)
        if code is None:
            code = self._decoded[fn] = decode_function(
                fn, self.globals, self.memory, self.cost.costs)
        regs = code.template[:]
        regs[ALLOCAS] = []
        n = min(len(args), code.nargs)
        regs[1:n + 1] = args[:n]
        self.frames.append(Frame(code, regs, ret_slot))

    def _pop(self, val) -> None:
        frame = self.frames.pop()
        for addr in frame.regs[ALLOCAS]:
            self.memory.release(addr)
        if not self.frames:
            self.state = "done"
            self.retval = val
        elif frame.ret_slot == RETVAL:
            # nested synchronous call: record return for call_synchronously
            self.retval = val
        elif frame.ret_slot is not None:
            self.frames[-1].regs[frame.ret_slot] = val

    # -- control ------------------------------------------------------------
    def start(self, fn_name: str = "main", args: Tuple = ()) -> None:
        self._push(self.module.get_function(fn_name), args, RETVAL)
        self.state = "ready"

    #: poll cadence for the (optional) wall-clock deadline; coarse so the
    #: hot loop stays branch-cheap when no deadline is configured
    WALL_CLOCK_POLL = 4096

    def run(self) -> "Machine":
        """Run until done, blocked, or trapped."""
        if self.wall_clock is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.wall_clock
        try:
            if self.state == "ready":
                self._execute(0)
        except VMError as e:
            self.state = "trapped"
            # the traceback would tie this Machine into a reference cycle
            self.error = e.with_traceback(None)
        return self

    def run_to_completion(self) -> "Machine":
        self.run()
        if self.state == "blocked":
            self.state = "trapped"
            self.error = DeadlockError(
                f"rank {self.rank} blocked on {self.blocked.tag} with no peers")
        return self

    def deliver(self, result) -> None:
        """Resolve a blocking call with ``result`` and resume."""
        assert self.state == "blocked"
        frame = self.frames[-1]
        if frame.pending is not None:
            frame.regs[frame.pending] = result
            frame.pending = None
        self.blocked = None
        self.state = "ready"

    # -- nested synchronous execution (omp chunks, cuda threads) ----------
    def call_synchronously(self, fn: Function, args: Tuple):
        """Run ``fn`` to completion inside a runtime handler.

        Blocking calls are not allowed inside such nested regions (our
        workloads never block inside parallel regions).
        """
        depth = len(self.frames)
        self._push(fn, args, RETVAL)
        if self.state != "ready":
            raise DeadlockError("blocking call inside a parallel region")
        self._execute(depth)
        return self.retval

    # -- the run loop ----------------------------------------------------------
    def _next_check(self, n: int) -> int:
        """The first instruction count after ``n`` at which a budget
        check can fire."""
        stop = self.max_steps + 1
        if self._deadline is None:
            return stop
        poll = self.WALL_CLOCK_POLL
        return min(stop, (n // poll + 1) * poll)

    def _limit(self, n: int) -> int:
        """Apply the budget checks due after instruction ``n``; return
        the next instruction count at which one is due."""
        if n > self.max_steps:
            raise StepLimitExceeded(f"exceeded {self.max_steps} instructions")
        if self._deadline is not None \
                and n % self.WALL_CLOCK_POLL == 0 \
                and time.monotonic() > self._deadline:
            raise WallClockExceeded(
                f"exceeded {self.wall_clock:.3f}s wall clock")
        return self._next_check(n)

    def _execute(self, depth: int) -> None:
        """Run the top frame until the stack is back to ``depth`` frames
        or the machine blocks.

        The counters live in locals while ops run.  They are written
        back to ``self`` before a :class:`~repro.vm.decode.Site` hands
        control to :meth:`_control`, and reloaded after it, because
        runtime handlers read and advance them."""
        frames = self.frames
        frame = frames[-1]
        blocks = frame.code.blocks
        ops = frame.ops
        i = frame.index
        regs = frame.regs
        n = self.instructions
        cycles = self.cycles
        gf = self._gpu_factor
        check_at = self._next_check(n)
        try:
            while True:
                cost, op = ops[i]
                i += 1
                n += 1
                cycles += gf * cost
                r = op(regs)
                if r is not None:
                    if r.__class__ is int:
                        ops = blocks[r]
                        i = 0
                    else:
                        frame.ops = ops
                        frame.index = i
                        self.instructions = n
                        self.cycles = cycles
                        try:
                            self._control(r, frame, regs)
                        finally:
                            n = self.instructions
                            cycles = self.cycles
                        check_at = self._limit(n)
                        if len(frames) <= depth:
                            return
                        if self.state != "ready":
                            if depth:
                                raise DeadlockError(
                                    "blocking call inside a parallel region")
                            return
                        frame = frames[-1]
                        blocks = frame.code.blocks
                        ops = frame.ops
                        i = frame.index
                        regs = frame.regs
                        gf = self._gpu_factor
                        continue
                if n >= check_at:
                    check_at = self._limit(n)
        finally:
            self.instructions = n
            self.cycles = cycles

    def _control(self, site, frame: Frame, regs: list) -> None:
        """Run an op that needs the machine (counters already synced)."""
        cls = site.__class__
        if cls is Invoke:
            self._push(site.callee, [regs[k] for k in site.args], site.dst)
        elif cls is Return:
            self._pop(None if site.src is None else regs[site.src])
        elif cls is RuntimeCall:
            result = self.runtime.call(
                self, site.name, tuple(regs[k] for k in site.args),
                site.inst)
            if isinstance(result, Blocked):
                self.state = "blocked"
                self.blocked = result
                frame.pending = site.dst
            elif site.dst is not None:
                regs[site.dst] = result
        elif cls is MemCopy:
            dst, src, size = regs[site.dst], regs[site.src], regs[site.size]
            self.cycles += self._gpu_factor * size / 8.0
            self.memory.copy(dst, src, size)
        elif cls is MemFill:
            dst, byte, size = regs[site.dst], regs[site.byte], regs[site.size]
            self.cycles += self._gpu_factor * size / 8.0
            self.memory.fill(dst, byte, size)
        elif cls is Unpriced:
            self.cycles += self._gpu_factor * self.cost.of(site.opcode)
            r = site.op(regs)
            if r.__class__ is int:
                frame.ops = frame.code.blocks[r]
                frame.index = 0
            elif r is not None:
                self._control(r, frame, regs)
        else:  # pragma: no cover - decode emits only the sites above
            raise VMError(f"unknown site {site!r}")

    # -- value semantics (shared with constant folding) -------------------
    _scalar_binop = staticmethod(scalar_binop)
    _icmp = staticmethod(icmp)
    _fcmp = staticmethod(fcmp)
    _cast_scalar = staticmethod(cast_scalar)

    # -- output ------------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout.append(text)

    def output(self) -> str:
        return "".join(self.stdout)
