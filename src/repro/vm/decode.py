"""Lowering of IR functions into the decoded engine's op lists.

:class:`~repro.vm.interpreter.Machine` does not walk IR objects while it
runs.  The first call of a function lowers it, once per Machine, into a
:class:`DecodedFunction`:

* every argument, non-void instruction and distinct constant operand
  gets an integer slot in a per-frame register list.  Constants, global
  addresses and callee functions are written into the function's
  register *template*, which each new frame copies, so every operand is
  a plain ``regs[k]`` read;
* each basic block becomes a list of ``(cost, op)`` pairs, the cost read
  from the Machine's :class:`~repro.vm.cost_model.CostModel` table and
  the op a closure over slot numbers: GEP strides and struct field
  offsets are folded to integers, scalar loads and stores are
  specialised by type with an inline bounds test that calls
  :meth:`Memory.check` to trap, and integer arithmetic wraps inline;
* a branch's op performs the target's phi moves for that CFG edge as one
  parallel copy and returns the target block's index.  The target's
  leading phis are not in its op list, so a jump does not count them.

An op returns ``None`` to fall through, an ``int`` to jump, or a
:class:`Site` when its effect needs the Machine itself (calls, returns,
runtime calls, ``memcpy``/``memset`` with their size-dependent second
cycle charge, and opcodes missing from the cost table, which are priced
through :meth:`CostModel.of` each time they execute).  The Machine
handles sites in :meth:`~repro.vm.interpreter.Machine._control`.

Decoded code holds no reference to the Machine, and jumps are block
indices rather than references to other blocks' lists, so decoded
functions form no reference cycles: a finished Machine, with its memory
image, is freed by reference counting alone.

The IR verifier runs on every compiled module and guarantees that each
executed use is dominated by its definition, so the decoded engine does
not track unassigned registers; the reference engine
(:mod:`repro.vm.reference`) still reports such a use as a ``VMError``.
"""

from __future__ import annotations

import math
import operator
import struct
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
    Instruction,
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
from ..ir.types import (
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    VectorType,
    VoidType,
)
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .errors import UndefinedBehavior, VMError
from .memory import _BASE, Memory
from .semantics import cast_scalar, fcmp, icmp, scalar_binop

#: register slot holding the frame's list of alloca addresses
ALLOCAS = 0


class DecodedFunction:
    """One lowered function: its register template and op lists."""

    __slots__ = ("fn", "template", "nargs", "blocks", "entry")

    def __init__(self, fn: Function, template: list, blocks: List[list],
                 entry: list):
        self.fn = fn
        #: initial register file; arguments occupy slots 1..nargs
        self.template = template
        self.nargs = len(fn.args)
        #: per basic block (``fn.blocks`` order): ``(cost, op)`` pairs,
        #: leading phis excluded
        self.blocks = blocks
        #: ops run on entry (the entry block, any leading phis included)
        self.entry = entry


class Site:
    """An op whose effect needs the Machine; calling it returns itself."""

    __slots__ = ()

    def __call__(self, regs):
        return self


class Invoke(Site):
    """Call of a defined function: push a frame."""

    __slots__ = ("callee", "args", "dst")

    def __init__(self, callee: Function, args: Tuple[int, ...],
                 dst: Optional[int]):
        self.callee = callee
        self.args = args
        self.dst = dst


class RuntimeCall(Site):
    """Call of a runtime function (libc, math, OpenMP, CUDA, MPI)."""

    __slots__ = ("name", "args", "dst", "inst")

    def __init__(self, name: str, args: Tuple[int, ...],
                 dst: Optional[int], inst: CallInst):
        self.name = name
        self.args = args
        self.dst = dst
        self.inst = inst


class Return(Site):
    __slots__ = ("src",)

    def __init__(self, src: Optional[int]):
        self.src = src


class MemCopy(Site):
    __slots__ = ("dst", "src", "size")

    def __init__(self, dst: int, src: int, size: int):
        self.dst = dst
        self.src = src
        self.size = size


class MemFill(Site):
    __slots__ = ("dst", "byte", "size")

    def __init__(self, dst: int, byte: int, size: int):
        self.dst = dst
        self.byte = byte
        self.size = size


class Unpriced(Site):
    """An op whose opcode has no cost-table entry: the Machine prices it
    with :meth:`CostModel.of` on every execution, then runs ``op``."""

    __slots__ = ("opcode", "op")

    def __init__(self, opcode: str, op):
        self.opcode = opcode
        self.op = op


class _Unrunnable(Exception):
    """An operand the engine cannot evaluate; the op raises ``VMError``
    with this message when (and only if) it executes."""


def decode_function(fn: Function, globals_map: Dict[GlobalVariable, int],
                    memory: Memory, costs: Dict[str, float]
                    ) -> DecodedFunction:
    """Lower ``fn`` for a Machine with these globals, memory and cost
    table."""
    return _Lowering(fn, globals_map, memory, costs).function()


# -- op builders ---------------------------------------------------------

def _raiser(exc: type, *args):
    def op(regs):
        raise exc(*args)
    return op


def _nop(regs):
    return None


def _jump_to(index: int):
    def op(regs):
        return index
    return op


def _parallel_copy(moves: List[Tuple[int, int]]):
    """One function performing ``regs[dst] = regs[src]`` for every move,
    all sources read before any destination is written."""
    moves = [(d, s) for d, s in moves if d != s]
    if not moves:
        return None
    if len(moves) == 1:
        (d, s), = moves

        def move(regs):
            regs[d] = regs[s]
        return move
    dsts = tuple(d for d, _ in moves)
    srcs = tuple(s for _, s in moves)
    if not set(dsts) & set(srcs):
        def move(regs):
            for d, s in moves:
                regs[d] = regs[s]
        return move
    get = operator.itemgetter(*srcs)

    def move(regs):
        for d, v in zip(dsts, get(regs)):
            regs[d] = v
    return move


def _wrapping(bits: int):
    """``(half, mask)`` for ``((v + half) & mask) - half``, which equals
    :func:`~repro.vm.semantics.wrap_int` for every ``bits > 1``."""
    return 1 << (bits - 1), (1 << bits) - 1


def _int_binop(op: str, a: int, b: int, d: int, bits: int):
    h, m = _wrapping(bits)
    if op == "add":
        def f(regs):
            regs[d] = ((regs[a] + regs[b] + h) & m) - h
    elif op == "sub":
        def f(regs):
            regs[d] = ((regs[a] - regs[b] + h) & m) - h
    elif op == "mul":
        def f(regs):
            regs[d] = ((regs[a] * regs[b] + h) & m) - h
    elif op == "and":
        def f(regs):
            regs[d] = ((regs[a] & regs[b]) + h & m) - h
    elif op == "or":
        def f(regs):
            regs[d] = ((regs[a] | regs[b]) + h & m) - h
    elif op == "xor":
        def f(regs):
            regs[d] = ((regs[a] ^ regs[b]) + h & m) - h
    elif op == "shl":
        def f(regs):
            regs[d] = ((regs[a] << (regs[b] % bits)) + h & m) - h
    elif op == "ashr":
        def f(regs):
            regs[d] = ((regs[a] >> (regs[b] % bits)) + h & m) - h
    elif op == "lshr":
        def f(regs):
            regs[d] = (((regs[a] & m) >> (regs[b] % bits)) + h & m) - h
    else:
        return None
    return f


def _float_binop(op: str, a: int, b: int, d: int):
    if op == "fadd":
        def f(regs):
            regs[d] = regs[a] + regs[b]
    elif op == "fsub":
        def f(regs):
            regs[d] = regs[a] - regs[b]
    elif op == "fmul":
        def f(regs):
            regs[d] = regs[a] * regs[b]
    elif op == "fdiv":
        inf, nan = math.inf, math.nan

        def f(regs):
            x = regs[a]
            y = regs[b]
            if y == 0.0:
                regs[d] = inf if x > 0 else (-inf if x < 0 else nan)
            else:
                regs[d] = x / y
    else:
        return None
    return f


#: comparison per icmp predicate (``u*`` compare masked operands)
_ICMP = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
}
#: comparison per fcmp predicate (all ordered: false on NaN)
_FCMP = {
    "oeq": operator.eq, "one": operator.ne,
    "olt": operator.lt, "ole": operator.le,
    "ogt": operator.gt, "oge": operator.ge,
}

_INT_LOAD = {8: "<b", 16: "<h", 32: "<i", 64: "<q"}
_INT_STORE = {8: "<B", 16: "<H", 32: "<I", 64: "<Q"}


class _Lowering:
    """Lowers one function; see the module docstring."""

    def __init__(self, fn: Function, globals_map, memory: Memory,
                 costs: Dict[str, float]):
        self.fn = fn
        self.globals = globals_map
        self.memory = memory
        self.costs = costs
        self.template: list = [None]          # slot 0: ALLOCAS
        self.slots: Dict[Value, int] = {}
        for a in fn.args:
            self._slot(a)
        for bb in fn.blocks:
            for inst in bb.instructions:
                if not isinstance(inst.type, VoidType):
                    self._slot(inst)
        self.block_index = {bb: i for i, bb in enumerate(fn.blocks)}
        self.phis = {bb: bb.phis() for bb in fn.blocks}
        #: type -> byte size; struct layouts are recomputed on every
        #: ``size()`` call, and GEPs ask for the same few types
        self.sizes: Dict[int, int] = {}

    def size(self, ty: Type) -> int:
        size = self.sizes.get(id(ty))
        if size is None:
            size = self.sizes[id(ty)] = ty.size()
        return size

    def _slot(self, v: Value, initial=None) -> int:
        slot = self.slots[v] = len(self.template)
        self.template.append(initial)
        return slot

    def function(self) -> DecodedFunction:
        blocks = []
        for bb in self.fn.blocks:
            lead = len(self.phis[bb])
            blocks.append([self.lower(inst)
                           for inst in bb.instructions[lead:]])
        phis = self.phis[self.fn.entry]
        entry = blocks[0]
        if phis:
            entry = [self.lower(phi) for phi in phis] + entry
        return DecodedFunction(self.fn, self.template, blocks, entry)

    # -- operands -----------------------------------------------------
    def operand(self, v: Value) -> int:
        slot = self.slots.get(v)
        if slot is not None:
            return slot
        if isinstance(v, Constant):
            if isinstance(v, (ConstantInt, ConstantFloat)):
                value = v.value
            elif isinstance(v, (ConstantNull, UndefValue)):
                value = 0
            else:
                raise _Unrunnable(f"cannot evaluate constant {v!r}")
        elif isinstance(v, GlobalVariable):
            value = self.globals[v]
        elif isinstance(v, Function):
            value = v
        else:
            raise _Unrunnable(
                f"use of unevaluated value {v.short()} in @{self.fn.name}")
        return self._slot(v, value)

    # -- instructions -------------------------------------------------
    def lower(self, inst: Instruction) -> Tuple[float, object]:
        cls = inst.__class__
        key = inst.op if cls is BinaryInst else inst.opcode
        builder = _BUILDERS.get(cls)
        try:
            op = (builder(self, inst) if builder is not None else
                  _raiser(VMError, f"cannot interpret {inst.opcode}"))
        except _Unrunnable as e:
            op = _raiser(VMError, str(e))
        except Exception as e:
            # malformed IR fails when the instruction runs, not when
            # its function is first called
            op = _raiser(type(e), *e.args)
        cost = self.costs.get(key)
        if cost is None:
            return 0.0, Unpriced(key, op)
        return cost, op

    def _binary(self, inst: BinaryInst):
        a = self.operand(inst.operands[0])
        b = self.operand(inst.operands[1])
        d = self.slots[inst]
        op, ty = inst.op, inst.type
        if isinstance(ty, VectorType):
            ety = ty.element

            def f(regs):
                regs[d] = tuple(scalar_binop(op, x, y, ety)
                                for x, y in zip(regs[a], regs[b]))
            return f
        bits = ty.bits if isinstance(ty, IntType) else 64
        fast = (_float_binop(op, a, b, d) if op.startswith("f") else
                _int_binop(op, a, b, d, bits) if bits > 1 else None)
        if fast is not None:
            return fast

        def f(regs):
            regs[d] = scalar_binop(op, regs[a], regs[b], ty)
        return f

    def _icmp(self, inst: ICmpInst):
        a = self.operand(inst.operands[0])
        b = self.operand(inst.operands[1])
        d = self.slots[inst]
        pred, ty = inst.pred, inst.operands[0].type
        if isinstance(ty, VectorType):
            bits = ty.element.bits

            def f(regs):
                regs[d] = tuple(icmp(pred, x, y, bits)
                                for x, y in zip(regs[a], regs[b]))
            return f
        bits = getattr(ty, "bits", 64)
        cmp = _ICMP.get(pred)
        if cmp is None:
            def f(regs):
                regs[d] = icmp(pred, regs[a], regs[b], bits)
        elif pred.startswith("u"):
            m = (1 << bits) - 1

            def f(regs):
                regs[d] = 1 if cmp(regs[a] & m, regs[b] & m) else 0
        else:
            def f(regs):
                regs[d] = 1 if cmp(regs[a], regs[b]) else 0
        return f

    def _fcmp(self, inst: FCmpInst):
        a = self.operand(inst.operands[0])
        b = self.operand(inst.operands[1])
        d = self.slots[inst]
        pred = inst.pred
        if isinstance(inst.operands[0].type, VectorType):
            def f(regs):
                regs[d] = tuple(fcmp(pred, x, y)
                                for x, y in zip(regs[a], regs[b]))
            return f
        cmp = _FCMP.get(pred)
        if cmp is None:
            def f(regs):
                regs[d] = fcmp(pred, regs[a], regs[b])
            return f
        isnan = math.isnan

        def f(regs):
            x = regs[a]
            y = regs[b]
            regs[d] = 0 if isnan(x) or isnan(y) else (1 if cmp(x, y) else 0)
        return f

    def _edge(self, source: BasicBlock, target: BasicBlock):
        """``(target index, phi moves or None)`` for one CFG edge."""
        moves = []
        for phi in self.phis[target]:
            v = phi.incoming_for_block(source)
            if v is None:
                raise _Unrunnable(
                    f"phi {phi.short()} has no incoming for {source.name}")
            moves.append((self.slots[phi], self.operand(v)))
        return self.block_index[target], _parallel_copy(moves)

    def _branch_edge(self, source: BasicBlock, target: BasicBlock):
        try:
            return self._edge(source, target)
        except _Unrunnable as e:
            return None, _raiser(VMError, str(e))

    def _branch(self, inst: BranchInst):
        source = inst.parent
        if not inst.is_conditional:
            ti, tm = self._branch_edge(source, inst.targets[0])
            if tm is None:
                return _jump_to(ti)

            def f(regs):
                tm(regs)
                return ti
            return f
        c = self.operand(inst.condition)
        ti, tm = self._branch_edge(source, inst.targets[0])
        fi, fm = self._branch_edge(source, inst.targets[1])
        if tm is None and fm is None:
            def f(regs):
                return ti if regs[c] else fi
            return f
        tm = tm or _nop
        fm = fm or _nop

        def f(regs):
            if regs[c]:
                tm(regs)
                return ti
            fm(regs)
            return fi
        return f

    def _load(self, inst: LoadInst):
        p = self.operand(inst.pointer)
        d = self.slots[inst]
        ty = inst.type
        memory = self.memory
        fmt = None
        if isinstance(ty, IntType):
            fmt = _INT_LOAD.get(self.size(ty) * 8)
        elif isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
        elif isinstance(ty, PointerType):
            fmt = "<Q"
        if fmt is None:
            load = memory.load

            def f(regs):
                regs[d] = load(regs[p], ty)
            return f
        size = self.size(ty)
        unpack = struct.Struct(fmt).unpack_from
        data = memory.data
        check = memory.check
        if isinstance(ty, IntType) and ty.bits == 1:
            def f(regs):
                addr = regs[p]
                if addr < _BASE or addr + 1 > memory.brk:
                    check(addr, 1)
                regs[d] = unpack(data, addr)[0] & 1
            return f

        def f(regs):
            addr = regs[p]
            if addr < _BASE or addr + size > memory.brk:
                check(addr, size)
            regs[d] = unpack(data, addr)[0]
        return f

    def _store(self, inst: StoreInst):
        p = self.operand(inst.pointer)
        s = self.operand(inst.value)
        ty = inst.value.type
        memory = self.memory
        data = memory.data
        check = memory.check
        if isinstance(ty, (IntType, PointerType)):
            size = self.size(ty) if isinstance(ty, IntType) else 8
            fmt = _INT_STORE.get(size * 8)
            if fmt is not None:
                pack = struct.Struct(fmt).pack_into
                m = (1 << (size * 8)) - 1

                def f(regs):
                    v = int(regs[s]) & m
                    addr = regs[p]
                    if addr < _BASE or addr + size > memory.brk:
                        check(addr, size)
                    pack(data, addr, v)
                return f
        elif isinstance(ty, FloatType) and ty.bits == 64:
            pack = struct.Struct("<d").pack_into

            def f(regs):
                v = float(regs[s])
                addr = regs[p]
                if addr < _BASE or addr + 8 > memory.brk:
                    check(addr, 8)
                pack(data, addr, v)
            return f
        elif isinstance(ty, FloatType):
            # packing rounds to f32 and can overflow, before the check
            pack32 = struct.Struct("<f").pack

            def f(regs):
                payload = pack32(float(regs[s]))
                addr = regs[p]
                if addr < _BASE or addr + 4 > memory.brk:
                    check(addr, 4)
                data[addr:addr + 4] = payload
            return f
        store = memory.store

        def f(regs):
            store(regs[p], ty, regs[s])
        return f

    def _gep(self, inst: GEPInst):
        p = self.operand(inst.pointer)
        d = self.slots[inst]
        ty: Type = inst.pointer.type.pointee
        offset = 0
        scaled: List[Tuple[int, int]] = []   # (slot, stride)
        for i, idx in enumerate(inst.indices):
            if i == 0:
                stride = self.size(ty)
            elif isinstance(ty, StructType):
                # GEPInst admits only constant struct indices
                offset += ty.field_offset(idx.value)
                ty = ty.fields[idx.value]
                continue
            else:                            # array or vector element
                ty = ty.element
                stride = self.size(ty)
            if isinstance(idx, ConstantInt):
                offset += idx.value * stride
            else:
                scaled.append((self.operand(idx), stride))
        if not scaled:
            def f(regs):
                regs[d] = regs[p] + offset
        elif len(scaled) == 1:
            (k, sk), = scaled

            def f(regs):
                regs[d] = regs[p] + regs[k] * sk + offset
        elif len(scaled) == 2:
            (k, sk), (j, sj) = scaled

            def f(regs):
                regs[d] = regs[p] + regs[k] * sk + regs[j] * sj + offset
        else:
            def f(regs):
                addr = regs[p] + offset
                for k, sk in scaled:
                    addr += regs[k] * sk
                regs[d] = addr
        return f

    def _cast(self, inst: CastInst):
        s = self.operand(inst.value)
        d = self.slots[inst]
        op, to, from_ty = inst.op, inst.type, inst.value.type
        if isinstance(to, VectorType):
            ety, fety = to.element, from_ty.element

            def f(regs):
                v = regs[s]
                if isinstance(v, tuple):
                    regs[d] = tuple(cast_scalar(op, lane, ety, fety)
                                    for lane in v)
                else:
                    regs[d] = cast_scalar(op, v, to, from_ty)
            return f
        if op in ("bitcast", "inttoptr", "ptrtoint", "sext"):
            def f(regs):
                regs[d] = regs[s]
        elif op in ("sitofp", "fpext"):
            def f(regs):
                regs[d] = float(regs[s])
        elif op == "trunc" and to.bits > 1:
            h, m = _wrapping(to.bits)

            def f(regs):
                regs[d] = ((regs[s] + h) & m) - h
        elif op == "zext":
            m = (1 << from_ty.bits) - 1

            def f(regs):
                regs[d] = regs[s] & m
        else:
            def f(regs):
                regs[d] = cast_scalar(op, regs[s], to, from_ty)
        return f

    def _select(self, inst: SelectInst):
        c, t, e = (self.operand(v) for v in inst.operands[:3])
        d = self.slots[inst]

        def f(regs):
            regs[d] = regs[t] if regs[c] else regs[e]
        return f

    def _alloca(self, inst: AllocaInst):
        d = self.slots[inst]
        size = inst.size_bytes()
        align = inst.allocated_type.align()
        allocate = self.memory.allocate

        def f(regs):
            addr = allocate(size, align)
            regs[ALLOCAS].append(addr)
            regs[d] = addr
        return f

    def _call(self, inst: CallInst):
        args = tuple(self.operand(a) for a in inst.operands)
        dst = None if inst.type.is_void else self.slots[inst]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            return Invoke(callee, args, dst)
        name = callee if isinstance(callee, str) else callee.name
        return RuntimeCall(name, args, dst, inst)

    def _return(self, inst: ReturnInst):
        return Return(None if inst.value is None
                      else self.operand(inst.value))

    def _memcpy(self, inst: MemCpyInst):
        return MemCopy(self.operand(inst.dst), self.operand(inst.src),
                       self.operand(inst.size))

    def _memset(self, inst: MemSetInst):
        return MemFill(self.operand(inst.dst), self.operand(inst.byte),
                       self.operand(inst.size))

    def _splat(self, inst: ShuffleSplatInst):
        s = self.operand(inst.operands[0])
        d = self.slots[inst]
        lanes = inst.lanes

        def f(regs):
            regs[d] = (regs[s],) * lanes
        return f

    def _extract(self, inst: ExtractElementInst):
        v = self.operand(inst.operands[0])
        i = self.operand(inst.operands[1])
        d = self.slots[inst]

        def f(regs):
            regs[d] = regs[v][regs[i]]
        return f

    def _insert(self, inst: InsertElementInst):
        v, e, i = (self.operand(x) for x in inst.operands[:3])
        d = self.slots[inst]

        def f(regs):
            lanes = list(regs[v])
            lanes[regs[i]] = regs[e]
            regs[d] = tuple(lanes)
        return f

    def _phi(self, inst: PhiInst):
        # phis no jump assigns (the entry block's leading phis) execute
        # as no-ops
        return _nop

    def _unreachable(self, inst: UnreachableInst):
        return _raiser(UndefinedBehavior, "executed unreachable")


_BUILDERS = {
    BinaryInst: _Lowering._binary,
    ICmpInst: _Lowering._icmp,
    FCmpInst: _Lowering._fcmp,
    BranchInst: _Lowering._branch,
    LoadInst: _Lowering._load,
    StoreInst: _Lowering._store,
    GEPInst: _Lowering._gep,
    CastInst: _Lowering._cast,
    SelectInst: _Lowering._select,
    AllocaInst: _Lowering._alloca,
    CallInst: _Lowering._call,
    ReturnInst: _Lowering._return,
    MemCpyInst: _Lowering._memcpy,
    MemSetInst: _Lowering._memset,
    ShuffleSplatInst: _Lowering._splat,
    ExtractElementInst: _Lowering._extract,
    InsertElementInst: _Lowering._insert,
    PhiInst: _Lowering._phi,
    UnreachableInst: _Lowering._unreachable,
}
