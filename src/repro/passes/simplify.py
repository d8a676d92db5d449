"""InstCombine-lite, dead-code elimination, and CFG simplification.

These AA-independent cleanups keep the IR canonical between the
AA-consuming passes, the way instcombine/simplifycfg interleave in
LLVM's O2/O3 pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.cfg import reachable_blocks
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CastInst,
    ICmpInst,
    Instruction,
    PhiInst,
    SelectInst,
)
from ..ir.values import ConstantFloat, ConstantInt, UndefValue, Value
from ..ir.types import I1, FloatType, IntType
from ..vm.semantics import icmp, scalar_binop, unsigned, wrap_int
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


def _fold_binop(op: str, a: ConstantInt, b: ConstantInt,
                ty: IntType) -> Optional[ConstantInt]:
    try:
        v = scalar_binop(op, a.value, b.value, ty)
    except Exception:
        return None
    return ConstantInt(ty, v)


class InstCombine(Pass):
    """Local algebraic simplifications and constant folding."""

    name = "instcombine"
    display_name = "Combine redundant instructions"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        for bb in fn.blocks:
            for inst in list(bb.instructions):
                new = self._simplify(inst)
                if new is not None:
                    inst.replace_all_uses_with(new)
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name, "# insts combined")
                    changed = True
        # folds values in place, never terminators: branch folding is
        # SimplifyCFG's job, so the block graph survives
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    @staticmethod
    def _simplify(inst: Instruction) -> Optional[Value]:
        if isinstance(inst, BinaryInst):
            a, b = inst.lhs, inst.rhs
            ca = isinstance(a, ConstantInt)
            cb = isinstance(b, ConstantInt)
            if isinstance(inst.type, IntType):
                if ca and cb:
                    return _fold_binop(inst.op, a, b, inst.type)
                if cb and b.value == 0 and inst.op in ("add", "sub", "or",
                                                       "xor", "shl", "ashr",
                                                       "lshr"):
                    return a
                if ca and a.value == 0 and inst.op == "add":
                    return b
                if cb and b.value == 1 and inst.op in ("mul", "sdiv", "udiv"):
                    return a
                if ca and a.value == 1 and inst.op == "mul":
                    return b
                if cb and b.value == 0 and inst.op in ("mul", "and"):
                    return ConstantInt(inst.type, 0)
                if ca and a.value == 0 and inst.op in ("mul", "and"):
                    return ConstantInt(inst.type, 0)
            if isinstance(inst.type, FloatType):
                fa = isinstance(a, ConstantFloat)
                fb = isinstance(b, ConstantFloat)
                if fb and b.value == 0.0 and inst.op in ("fadd", "fsub"):
                    return a
                if fb and b.value == 1.0 and inst.op in ("fmul", "fdiv"):
                    return a
                if fa and a.value == 0.0 and inst.op == "fadd":
                    return b
                if fa and a.value == 1.0 and inst.op == "fmul":
                    return b
        elif isinstance(inst, ICmpInst):
            a, b = inst.operands
            # (zext i1 x) != 0  -->  x   (the frontend's condition detour)
            if inst.pred == "ne" and isinstance(b, ConstantInt) \
                    and b.value == 0 and isinstance(a, CastInst) \
                    and a.op == "zext" and a.value.type == IntType(1):
                return a.value
            if inst.pred == "eq" and isinstance(b, ConstantInt) \
                    and b.value == 1 and isinstance(a, CastInst) \
                    and a.op == "zext" and a.value.type == IntType(1):
                return a.value
            if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
                return ConstantInt(I1, icmp(inst.pred, a.value, b.value,
                                            a.type.bits))
        elif isinstance(inst, SelectInst):
            c = inst.operands[0]
            if isinstance(c, ConstantInt):
                return inst.operands[1] if c.value else inst.operands[2]
            if inst.operands[1] is inst.operands[2]:
                return inst.operands[1]
        elif isinstance(inst, PhiInst):
            distinct = {v for v in inst.operands if v is not inst
                        and not isinstance(v, UndefValue)}
            if len(distinct) == 1:
                only = distinct.pop()
                # A value from a dominating block is safe to substitute.
                if not isinstance(only, Instruction):
                    return only
        elif isinstance(inst, CastInst):
            v = inst.value
            if inst.op == "bitcast" and v.type == inst.type:
                return v
            if isinstance(v, ConstantInt):
                if inst.op in ("sext", "zext", "trunc"):
                    if inst.op == "zext":
                        return ConstantInt(inst.type, unsigned(v.value, v.type.bits))
                    if inst.op == "sext":
                        return ConstantInt(inst.type, v.value)
                    return ConstantInt(inst.type, wrap_int(v.value, inst.type.bits))
                if inst.op == "sitofp":
                    return ConstantFloat(inst.type, float(v.value))
        return None


class DeadCodeElim(Pass):
    """Remove side-effect-free instructions with no uses."""

    name = "dce"
    display_name = "Dead Code Elimination"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        again = True
        while again:
            again = False
            for bb in fn.blocks:
                for inst in reversed(list(bb.instructions)):
                    if inst.users or inst.is_terminator:
                        continue
                    if inst.has_side_effects() or inst.may_write_memory():
                        continue
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name, "# insts removed")
                    changed = again = True
            if self._erase_dead_phi_cycles(fn, ctx):
                changed = again = True
        # never erases terminators, so the block graph survives
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    @staticmethod
    def _erase_dead_phi_cycles(fn: Function, ctx: CompilationContext) -> bool:
        """Remove phis whose only (transitive) users are other phis in
        the same dead cycle — mem2reg leaves them behind for variables
        redefined every iteration of a loop."""
        phis = [i for bb in fn.blocks for i in bb.phis()]
        if not phis:
            return False
        phi_set = set(phis)
        live: set = set()
        work = [p for p in phis
                if any(u not in phi_set for u in p.users)]
        live.update(work)
        while work:
            p = work.pop()
            for op in p.operands:
                if op in phi_set and op not in live:
                    live.add(op)
                    work.append(op)
        dead = [p for p in phis if p not in live]
        for p in dead:
            p.replace_all_uses_with(UndefValue(p.type))
        for p in dead:
            p.erase_from_parent()
            ctx.stats.add("Dead Code Elimination", "# insts removed")
        return bool(dead)


class SimplifyCFG(Pass):
    """Fold constant branches, remove unreachable blocks, merge chains."""

    name = "simplifycfg"
    display_name = "Simplify the CFG"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        changed |= self._fold_constant_branches(fn, ctx)
        changed |= self._remove_unreachable(fn, ctx)
        changed |= self._merge_chains(fn, ctx)
        return PreservedAnalyses.from_changed(changed)

    def _fold_constant_branches(self, fn: Function,
                                ctx: CompilationContext) -> bool:
        changed = False
        for bb in fn.blocks:
            term = bb.terminator
            if isinstance(term, BranchInst) and term.is_conditional \
                    and isinstance(term.condition, ConstantInt):
                taken = term.targets[0] if term.condition.value else term.targets[1]
                dead = term.targets[1] if term.condition.value else term.targets[0]
                if dead is not taken:
                    for phi in dead.phis():
                        phi.remove_incoming(bb)
                term.erase_from_parent()
                nb = BranchInst([taken])
                bb.append(nb)
                ctx.stats.add(self.display_name, "# branches folded")
                changed = True
        return changed

    def _remove_unreachable(self, fn: Function, ctx: CompilationContext) -> bool:
        reach = reachable_blocks(fn)
        dead = [bb for bb in fn.blocks if bb not in reach]
        if not dead:
            return False
        for bb in dead:
            for succ in bb.successors:
                if succ in reach:
                    for phi in succ.phis():
                        phi.remove_incoming(bb)
        for bb in dead:
            for inst in list(bb.instructions):
                # break def-use links into surviving code
                if inst.users:
                    inst.replace_all_uses_with(UndefValue(inst.type))
                inst.erase_from_parent()
            bb.erase_from_parent()
        ctx.stats.add(self.display_name, "# unreachable blocks removed",
                      len(dead))
        return True

    def _merge_chains(self, fn: Function, ctx: CompilationContext) -> bool:
        """Merge B into A when A's only successor is B and B's only
        predecessor is A."""
        changed = False
        again = True
        while again:
            again = False
            preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
            for bb in fn.blocks:
                for s in bb.successors:
                    preds[s].append(bb)
            for a in fn.blocks:
                succs = a.successors
                if len(succs) != 1:
                    continue
                bsucc = succs[0]
                if bsucc is a or bsucc is fn.entry or len(preds[bsucc]) != 1:
                    continue
                if bsucc.phis():
                    for phi in list(bsucc.phis()):
                        inc = phi.incoming_for_block(a)
                        if inc is None:
                            break
                        phi.replace_all_uses_with(inc)
                        phi.erase_from_parent()
                    if bsucc.phis():
                        continue
                a.terminator.erase_from_parent()
                for inst in list(bsucc.instructions):
                    bsucc.instructions.remove(inst)
                    inst.parent = a
                    a.instructions.append(inst)
                # successors of bsucc now flow from a: fix their phis
                for s in a.successors:
                    for phi in s.phis():
                        for i, blk in enumerate(phi.incoming_blocks):
                            if blk is bsucc:
                                phi.incoming_blocks[i] = a
                fn.blocks.remove(bsucc)
                bsucc.parent = None
                ctx.stats.add(self.display_name, "# blocks merged")
                changed = again = True
                break
        return changed
