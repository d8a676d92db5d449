"""Function inlining.

Small callees are cloned into their callers, the way LLVM's always/
early inliner runs before the scalar optimizations.  Two AA-relevant
consequences, both exercised by the test suite:

* inlining is what turns ``restrict``/``noalias`` *arguments* into
  scoped-alias metadata on the inlined accesses (clang does the same):
  the callee's noalias guarantees keep disambiguating after its
  argument SSA values are substituted away;
* inlined bodies expose callers' identified objects to BasicAA, so
  queries that were residual (arg vs. arg) become resolvable
  (alloca vs. alloca) — shrinking ORAQL's search space.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.aliasing import underlying_object
from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    Instruction,
    PhiInst,
    ReturnInst,
)
from ..ir.metadata import AliasScope, ScopedAliasMD
from ..ir.values import Argument, Value
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass

#: callee instruction budget; LLVM's threshold analog
INLINE_THRESHOLD = 40


def _inlinable(callee: Function, caller: Function) -> bool:
    if callee.is_declaration or callee is caller:
        return False
    if "noinline" in callee.attrs or "kernel" in callee.attrs:
        return False
    if callee.target != caller.target:
        return False
    if callee.num_instructions() > INLINE_THRESHOLD:
        return False
    # no recursion (direct or via the site we are inlining)
    for inst in callee.instructions():
        if isinstance(inst, CallInst) and inst.callee is callee:
            return False
    return True


class Inliner(Pass):
    name = "inline"
    display_name = "Function Integration/Inlining"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        budget = 16  # sites per function per run
        again = True
        while again and budget > 0:
            again = False
            for bb in list(fn.blocks):
                site = next(
                    (i for i in bb.instructions
                     if isinstance(i, CallInst)
                     and isinstance(i.callee, Function)
                     and _inlinable(i.callee, fn)), None)
                if site is not None:
                    self._inline_site(fn, bb, site, ctx)
                    ctx.stats.add(self.display_name, "# functions inlined")
                    budget -= 1
                    changed = again = True
                    break
        if changed:
            # cloned instructions add users to globals: the inter-
            # procedural (module-grained) AA caches must not survive
            # even under fine invalidation
            ctx.am.invalidate_interprocedural()
        return PreservedAnalyses.from_changed(changed)

    # -- the transplant ----------------------------------------------------
    def _inline_site(self, caller: Function, bb: BasicBlock,
                     site: CallInst, ctx: CompilationContext) -> None:
        callee: Function = site.callee

        # split the call block: bb = [... call ...] -> head + cont
        idx = bb.instructions.index(site)
        cont = caller.add_block(caller.unique_name(f"{callee.name}.exit"),
                                after=bb)
        tail = bb.instructions[idx + 1:]
        del bb.instructions[idx + 1:]
        for inst in tail:
            inst.parent = cont
            cont.instructions.append(inst)
        # successors' phis now flow from cont
        for succ in cont.successors:
            for phi in succ.phis():
                for i, blk in enumerate(phi.incoming_blocks):
                    if blk is bb:
                        phi.incoming_blocks[i] = cont

        # noalias arguments become fresh alias scopes (clang's inlining
        # behaviour): accesses derived from them get the scope, all other
        # inlined accesses get it in their noalias list
        scopes: Dict[Argument, AliasScope] = {
            a: AliasScope(f"{callee.name}.{a.name}", caller.name)
            for a in callee.args if a.is_noalias
        }

        # clone blocks and instructions
        vmap: Dict[Value, Value] = {}
        for arg, actual in zip(callee.args, site.operands):
            vmap[arg] = actual
        block_map: Dict[BasicBlock, BasicBlock] = {}
        for cb in callee.blocks:
            nb = caller.add_block(
                caller.unique_name(f"{callee.name}.{cb.name}"), after=bb)
            block_map[cb] = nb
        # keep original callee block order after bb
        ordered = [block_map[cb] for cb in callee.blocks]
        for nb in ordered:
            caller.blocks.remove(nb)
        pos = caller.blocks.index(bb) + 1
        caller.blocks[pos:pos] = ordered

        returns: List[tuple] = []  # (new block, return value or None)
        for cb in callee.blocks:
            nb = block_map[cb]
            for inst in cb.instructions:
                if isinstance(inst, ReturnInst):
                    returns.append(
                        (nb, vmap.get(inst.value, inst.value)
                         if inst.value is not None else None))
                    continue
                clone = inst.clone()
                # remap operands
                for i, op in enumerate(list(clone.operands)):
                    if op in vmap:
                        clone.set_operand(i, vmap[op])
                if isinstance(clone, BranchInst):
                    clone.targets = [block_map[t] for t in inst.targets]
                if isinstance(clone, PhiInst):
                    clone.incoming_blocks = [
                        block_map[b] for b in inst.incoming_blocks]
                self._apply_scopes(clone, scopes, vmap)
                nb.append(clone)
                vmap[inst] = clone

        # second pass: phi/operand references to callee values defined
        # later than their use order (back edges)
        for cb in callee.blocks:
            for inst in cb.instructions:
                clone = vmap.get(inst)
                if clone is None:
                    continue
                for i, op in enumerate(list(clone.operands)):
                    if op in vmap and vmap[op] is not clone.operands[i]:
                        clone.set_operand(i, vmap[op])

        # connect: bb -> entry clone; every return -> cont
        b = IRBuilder(bb)
        b.br(block_map[callee.entry])
        if site.type.is_void or not returns:
            for nb, _ in returns:
                IRBuilder(nb).br(cont)
        elif len(returns) == 1:
            nb, rv = returns[0]
            IRBuilder(nb).br(cont)
            site.replace_all_uses_with(rv)
        else:
            phi = PhiInst(site.type, caller.unique_name("inl.ret"))
            phi.parent = cont
            cont.instructions.insert(0, phi)
            for nb, rv in returns:
                IRBuilder(nb).br(cont)
                phi.add_incoming(rv, nb)
            site.replace_all_uses_with(phi)
        site.erase_from_parent()

        # allocas of the inlined body migrate to the caller's entry
        for cb in callee.blocks:
            for inst in cb.instructions:
                clone = vmap.get(inst)
                if isinstance(clone, AllocaInst) and clone.parent is not None:
                    blk = clone.parent
                    blk.instructions.remove(clone)
                    clone.parent = None
                    caller.entry.insert_at_front(clone)

    @staticmethod
    def _apply_scopes(clone: Instruction,
                      scopes: Dict[Argument, AliasScope],
                      vmap: Dict[Value, Value]) -> None:
        """Attach the callee's noalias-argument scopes to the clone."""
        if not scopes or not (clone.may_read_memory()
                              or clone.may_write_memory()):
            return

        ptr = getattr(clone, "pointer", None)
        based_on = None
        if ptr is not None:
            base = underlying_object(ptr)
            for arg in scopes:
                if base is arg or vmap.get(arg) is base:
                    based_on = arg
                    break
        own = (scopes[based_on],) if based_on is not None else ()
        others = tuple(s for a, s in scopes.items() if a is not based_on)
        md = ScopedAliasMD(own, others)
        clone.scoped = md if clone.scoped is None \
            else clone.scoped.merged_with(md)
