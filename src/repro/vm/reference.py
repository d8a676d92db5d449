"""The reference engine: the tree-walking interpreter.

:class:`ReferenceMachine` executes IR objects directly, one ``step()``
per instruction: dispatch on the instruction class, evaluate operands
with :meth:`value_of`, keep each frame's values in a dict keyed by IR
value, price the opcode with :meth:`CostModel.of`, and evaluate the
target's phis on every jump.  It was the production engine before
:mod:`repro.vm.decode`; it stays as the independent implementation that
the decoded :class:`~repro.vm.interpreter.Machine` is checked against.
The fuzz oracle runs every o0/o3/optimistic program on both engines and
reports any difference in stdout, state, error kind, instruction count
or cycles as an ``engine-mismatch`` finding; the tests use it the same
way.  Nothing in the probing, importance or service paths runs it.

It shares the Machine's images, runtime, accounting attributes and
scalar semantics, and overrides only the execution methods.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    InsertElementInst,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.types import ArrayType, StructType, Type, VectorType
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .errors import (
    DeadlockError,
    StepLimitExceeded,
    UndefinedBehavior,
    VMError,
    WallClockExceeded,
)
from .interpreter import Blocked, Machine


class Frame:
    __slots__ = ("fn", "block", "index", "env", "allocas", "call_inst")

    def __init__(self, fn: Function, call_inst: Optional[CallInst]):
        self.fn = fn
        self.block = fn.entry
        self.index = 0
        self.env: Dict[Value, object] = {}
        self.allocas: List[int] = []
        self.call_inst = call_inst


class ReferenceMachine(Machine):
    """A :class:`Machine` that executes by walking the IR."""

    # -- operand evaluation ---------------------------------------------------
    def value_of(self, frame: Frame, v: Value):
        if isinstance(v, Constant):
            if isinstance(v, ConstantInt):
                return v.value
            if isinstance(v, ConstantFloat):
                return v.value
            if isinstance(v, (ConstantNull, UndefValue)):
                return 0
            raise VMError(f"cannot evaluate constant {v!r}")
        if isinstance(v, GlobalVariable):
            return self.globals[v]
        if isinstance(v, Function):
            return v
        try:
            return frame.env[v]
        except KeyError:
            raise VMError(
                f"use of unevaluated value {v.short()} in @{frame.fn.name}"
            ) from None

    # -- control ------------------------------------------------------------
    def start(self, fn_name: str = "main", args: Tuple = ()) -> None:
        fn = self.module.get_function(fn_name)
        frame = Frame(fn, None)
        for a, val in zip(fn.args, args):
            frame.env[a] = val
        self.frames.append(frame)
        self.state = "ready"

    def run(self) -> "Machine":
        """Run until done, blocked, or trapped."""
        if self.wall_clock is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.wall_clock
        try:
            while self.state == "ready":
                self.step()
                if self.instructions > self.max_steps:
                    raise StepLimitExceeded(
                        f"exceeded {self.max_steps} instructions")
                if self._deadline is not None \
                        and self.instructions % self.WALL_CLOCK_POLL == 0 \
                        and time.monotonic() > self._deadline:
                    raise WallClockExceeded(
                        f"exceeded {self.wall_clock:.3f}s wall clock")
        except VMError as e:
            self.state = "trapped"
            self.error = e
        return self

    def deliver(self, result) -> None:
        """Resolve a blocking call with ``result`` and resume."""
        assert self.state == "blocked"
        frame = self.frames[-1]
        inst = frame.block.instructions[frame.index]
        if not inst.type.is_void:
            frame.env[inst] = result
        frame.index += 1
        self.blocked = None
        self.state = "ready"

    # -- nested synchronous execution (omp chunks, cuda threads) ----------
    def call_synchronously(self, fn: Function, args: Tuple):
        """Run ``fn`` to completion inside a runtime handler.

        Blocking calls are not allowed inside such nested regions (our
        workloads never block inside parallel regions).
        """
        depth = len(self.frames)
        frame = Frame(fn, None)
        for a, val in zip(fn.args, args):
            frame.env[a] = val
        self.frames.append(frame)
        while len(self.frames) > depth:
            if self.state != "ready":
                raise DeadlockError("blocking call inside a parallel region")
            self.step()
            if self.instructions > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} instructions")
            if self._deadline is not None \
                    and self.instructions % self.WALL_CLOCK_POLL == 0 \
                    and time.monotonic() > self._deadline:
                raise WallClockExceeded(
                    f"exceeded {self.wall_clock:.3f}s wall clock")
        return self.retval

    # -- the step function ----------------------------------------------------
    def step(self) -> None:
        frame = self.frames[-1]
        inst = frame.block.instructions[frame.index]
        self.instructions += 1
        cls = inst.__class__

        if cls is BinaryInst:
            self.cycles += self._gpu_factor * self.cost.of(inst.op)
            a = self.value_of(frame, inst.operands[0])
            b = self.value_of(frame, inst.operands[1])
            frame.env[inst] = self._binop(inst, a, b)
            frame.index += 1
            return
        self.cycles += self._gpu_factor * self.cost.of(inst.opcode)

        if cls is LoadInst:
            addr = self.value_of(frame, inst.pointer)
            frame.env[inst] = self.memory.load(addr, inst.type)
            frame.index += 1
        elif cls is StoreInst:
            addr = self.value_of(frame, inst.pointer)
            val = self.value_of(frame, inst.value)
            self.memory.store(addr, inst.value.type, val)
            frame.index += 1
        elif cls is GEPInst:
            frame.env[inst] = self._gep(frame, inst)
            frame.index += 1
        elif cls is ICmpInst:
            a = self.value_of(frame, inst.operands[0])
            b = self.value_of(frame, inst.operands[1])
            if isinstance(inst.operands[0].type, VectorType):
                bits = inst.operands[0].type.element.bits
                frame.env[inst] = tuple(
                    self._icmp(inst.pred, x, y, bits) for x, y in zip(a, b))
            else:
                bits = getattr(inst.operands[0].type, "bits", 64)
                frame.env[inst] = self._icmp(inst.pred, a, b, bits)
            frame.index += 1
        elif cls is FCmpInst:
            a = self.value_of(frame, inst.operands[0])
            b = self.value_of(frame, inst.operands[1])
            if isinstance(inst.operands[0].type, VectorType):
                frame.env[inst] = tuple(
                    self._fcmp(inst.pred, x, y) for x, y in zip(a, b))
            else:
                frame.env[inst] = self._fcmp(inst.pred, a, b)
            frame.index += 1
        elif cls is BranchInst:
            if inst.is_conditional:
                cond = self.value_of(frame, inst.condition)
                target = inst.targets[0] if cond else inst.targets[1]
            else:
                target = inst.targets[0]
            self._jump(frame, target)
        elif cls is PhiInst:  # handled by _jump; stray phi = already valued
            frame.index += 1
        elif cls is ReturnInst:
            val = (self.value_of(frame, inst.value)
                   if inst.value is not None else None)
            self._pop_frame(val)
        elif cls is CallInst:
            self._call(frame, inst)
        elif cls is AllocaInst:
            addr = self.memory.allocate(inst.size_bytes(),
                                        inst.allocated_type.align())
            frame.allocas.append(addr)
            frame.env[inst] = addr
            frame.index += 1
        elif cls is CastInst:
            frame.env[inst] = self._cast(frame, inst)
            frame.index += 1
        elif cls is SelectInst:
            c = self.value_of(frame, inst.operands[0])
            frame.env[inst] = self.value_of(
                frame, inst.operands[1] if c else inst.operands[2])
            frame.index += 1
        elif cls is MemCpyInst:
            dst = self.value_of(frame, inst.dst)
            src = self.value_of(frame, inst.src)
            size = self.value_of(frame, inst.size)
            self.cycles += self._gpu_factor * size / 8.0
            self.memory.copy(dst, src, size)
            frame.index += 1
        elif cls is MemSetInst:
            dst = self.value_of(frame, inst.dst)
            byte = self.value_of(frame, inst.byte)
            size = self.value_of(frame, inst.size)
            self.cycles += self._gpu_factor * size / 8.0
            self.memory.fill(dst, byte, size)
            frame.index += 1
        elif cls is ShuffleSplatInst:
            s = self.value_of(frame, inst.operands[0])
            frame.env[inst] = (s,) * inst.lanes
            frame.index += 1
        elif cls is ExtractElementInst:
            v = self.value_of(frame, inst.operands[0])
            i = self.value_of(frame, inst.operands[1])
            frame.env[inst] = v[i]
            frame.index += 1
        elif cls is InsertElementInst:
            v = list(self.value_of(frame, inst.operands[0]))
            e = self.value_of(frame, inst.operands[1])
            i = self.value_of(frame, inst.operands[2])
            v[i] = e
            frame.env[inst] = tuple(v)
            frame.index += 1
        elif cls is UnreachableInst:
            raise UndefinedBehavior("executed unreachable")
        else:
            raise VMError(f"cannot interpret {inst.opcode}")

    # -- helpers ---------------------------------------------------------
    def _jump(self, frame: Frame, target: BasicBlock) -> None:
        source = frame.block
        # evaluate phis in parallel against the pre-jump environment
        phis = target.phis()
        if phis:
            values = []
            for phi in phis:
                v = phi.incoming_for_block(source)
                if v is None:
                    raise VMError(
                        f"phi {phi.short()} has no incoming for {source.name}")
                values.append(self.value_of(frame, v))
            for phi, val in zip(phis, values):
                frame.env[phi] = val
        frame.block = target
        frame.index = len(phis)

    def _pop_frame(self, val) -> None:
        frame = self.frames.pop()
        for addr in frame.allocas:
            self.memory.release(addr)
        if not self.frames:
            self.state = "done"
            self.retval = val
            return
        caller = self.frames[-1]
        call_inst = frame.call_inst
        if call_inst is not None:
            if not call_inst.type.is_void:
                caller.env[call_inst] = val
            caller.index += 1
        else:
            # nested synchronous call: record return for call_synchronously
            self.retval = val

    def _call(self, frame: Frame, inst: CallInst) -> None:
        callee = inst.callee
        args = tuple(self.value_of(frame, a) for a in inst.operands)
        if isinstance(callee, Function) and not callee.is_declaration:
            new = Frame(callee, inst)
            for a, val in zip(callee.args, args):
                new.env[a] = val
            self.frames.append(new)
            return
        name = callee if isinstance(callee, str) else callee.name
        result = self.runtime.call(self, name, args, inst)
        if isinstance(result, Blocked):
            self.state = "blocked"
            self.blocked = result
            return
        if not inst.type.is_void:
            frame.env[inst] = result
        frame.index += 1

    def _binop(self, inst: BinaryInst, a, b):
        op = inst.op
        ty = inst.type
        if isinstance(ty, VectorType):
            ety = ty.element
            return tuple(self._scalar_binop(op, x, y, ety)
                         for x, y in zip(a, b))
        return self._scalar_binop(op, a, b, ty)

    def _gep(self, frame: Frame, inst: GEPInst) -> int:
        addr = self.value_of(frame, inst.pointer)
        ty: Type = inst.pointer.type.pointee
        for i, idx in enumerate(inst.indices):
            iv = self.value_of(frame, idx)
            if i == 0:
                addr += iv * ty.size()
            elif isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
                addr += iv * ty.size()
            elif isinstance(ty, StructType):
                addr += ty.field_offset(iv)
                ty = ty.fields[iv]
            else:
                raise VMError(f"gep into {ty}")
        return addr

    def _cast(self, frame: Frame, inst: CastInst):
        v = self.value_of(frame, inst.value)
        op = inst.op
        to = inst.type
        if isinstance(to, VectorType) and isinstance(v, tuple):
            ety = to.element
            return tuple(self._cast_scalar(op, lane, ety,
                                           inst.value.type.element)
                         for lane in v)
        return self._cast_scalar(op, v, to, inst.value.type)
