"""VM golden: the observable outcome of every Fig. 4 row and every fuzz
corpus reproducer, pinned to the last float bit.

Each row is compiled all-optimistic and all-pessimistic (the same
compiles as ``test_compile_golden.py``) and each corpus reproducer at O0
and O3.  Every program then runs three ways: with the config's default
budget, with ``fuel=20_000`` (a ``StepLimitExceeded`` trap part-way
through), and under a strict cost model.  Each run records its
:meth:`~repro.oraql.verify.RunResult.signature`: stdout digest, state,
error kind, instruction count, ``repr(cycles)`` and the per-kernel cycle
reprs.  The GPU rows accumulate fractional occupancy-scaled cycles, so a
change to the order of float additions shows here.

This is the referee for changes to the VM's execution engine.
Regenerate with ``pytest tests/test_vm_golden.py --update-goldens`` only
when program behaviour or the cost model legitimately changed.
"""

import dataclasses

from repro.fuzz.corpus import find_repo_corpus, load_corpus
from repro.fuzz.oracle import base_config
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence
from repro.vm import CostModel, UnknownCostError
from repro.workloads import get_config, row_names

FUEL = 20_000


def _programs():
    compiler = Compiler()
    for row in row_names():
        config = get_config(row)
        opt = compiler.compile(config, DecisionSequence(),
                               oraql_enabled=True)
        yield f"{row} optimistic", opt
        bits = [0] * (opt.oraql.unique_queries + 4)
        yield f"{row} pessimistic", compiler.compile(
            config, DecisionSequence(bits), oraql_enabled=True)
    for entry in load_corpus(find_repo_corpus()):
        cfg = base_config(entry.seed, entry.source)
        for level in (0, 3):
            yield f"{entry.name} O{level}", compiler.compile(
                dataclasses.replace(cfg, opt_level=level))


def _signature(run) -> str:
    try:
        return run().signature()
    except UnknownCostError as e:
        return f"raised UnknownCostError: {e}"


def render_vm_golden() -> str:
    lines = []
    for label, prog in _programs():
        lines.append(f"{label} default {_signature(prog.run)}")
        lines.append(f"{label} fuel={FUEL} "
                     f"{_signature(lambda: prog.run(fuel=FUEL))}")
        strict = _signature(
            lambda: prog.run(cost_model=CostModel(strict=True)))
        lines.append(f"{label} strict {strict}")
    return "\n".join(lines)


def test_vm_runs_golden(golden):
    assert len(row_names()) == 16
    golden("vm_runs.txt", render_vm_golden())
