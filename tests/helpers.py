"""IR-building and execution helpers shared by the test suite."""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.ir import (
    F64,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    VOID,
    ptr,
    verify_module,
)
from repro.passes import CompilationContext, PassManager, build_pipeline
from repro.vm import Machine
from repro.vm.reference import ReferenceMachine


def run_main(module, entry="main", max_steps=10_000_000, **kw):
    """Execute a module's entry point; assert clean completion."""
    m = Machine(module, max_steps=max_steps, **kw)
    m.start(entry)
    m.run_to_completion()
    assert m.state == "done", f"{m.state}: {m.error}"
    return m


class LoadCostsMore(ReferenceMachine):
    """A deliberately perturbed VM engine: loads cost one cycle more.
    The engine referee must report it as an ``engine-mismatch``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cost.costs["load"] += 1.0


def compile_and_run(source, opt_level=3, entry="main", filename="t.c",
                    verify_each=False, **kw):
    """MiniC -> IR -> pipeline -> run; returns (machine, ctx)."""
    module = compile_source(source, filename)
    verify_module(module)
    ctx = CompilationContext(module, verify_each=verify_each)
    PassManager(ctx).run(build_pipeline(opt_level))
    verify_module(module)
    return run_main(module, entry, **kw), ctx


def differential(source, entry="main", levels=(0, 1, 2, 3), **kw):
    """Assert identical stdout across optimization levels."""
    outputs = []
    for lvl in levels:
        module = compile_source(source, "t.c")
        ctx = CompilationContext(module)
        PassManager(ctx).run(build_pipeline(lvl))
        verify_module(module)
        m = run_main(module, entry, **kw)
        outputs.append(m.output())
    for lvl, out in zip(levels[1:], outputs[1:]):
        assert out == outputs[0], (
            f"O{lvl} output differs from O{levels[0]}:\n"
            f"{outputs[0]!r}\nvs\n{out!r}")
    return outputs[0]


def probe_logging_driver(config, strategy="chunked", **kwargs):
    """A :class:`~repro.oraql.driver.ProbingDriver` that records every
    probe it tests (the bit string handed to ``_test``), in order.

    The probe log is the strategy-parity currency: the goldens under
    ``tests/goldens/strategy_probes_*.txt`` were captured from the
    pre-refactor in-driver strategies, and the ported strategy objects
    must reproduce them probe for probe."""
    from repro.oraql.driver import ProbingDriver

    class _LoggingDriver(ProbingDriver):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.probe_log = []

        def _test(self, sequence):
            self.probe_log.append(
                "".join(str(b) for b in sequence.bits) or "(empty)")
            return super()._test(sequence)

    return _LoggingDriver(config, strategy=strategy, **kwargs)


def render_probe_log(title, driver, report):
    """One golden section: every probe in order plus the totals."""
    lines = [f"== {title} =="]
    lines += [f"probe {p}" for p in driver.probe_log]
    pess = ", ".join(str(i) for i in report.pessimistic_indices)
    lines.append(f"pessimistic: {pess or '(none)'}")
    lines.append(f"tests: run={report.tests_run} "
                 f"cached={report.tests_cached} "
                 f"deduced={report.tests_deduced} "
                 f"compiles={report.compiles}")
    return "\n".join(lines)


def fuzz_probe_config(seed):
    """A probing config for a seeded hazard-mode fuzz program, with the
    O0 interpretation as the reference output (the oracle's setup)."""
    import dataclasses

    from repro.fuzz.generator import GeneratorOptions, generate_program
    from repro.fuzz.oracle import base_config
    from repro.oraql.compiler import Compiler

    program = generate_program(seed, GeneratorOptions(hazard=True))
    cfg = base_config(seed, program.source, 3)
    ref = Compiler().compile(
        dataclasses.replace(cfg, opt_level=0)).run()
    assert ref.ok, f"fuzz seed {seed} reference run failed"
    return dataclasses.replace(cfg, reference_outputs=[ref.stdout])


#: the (title, config factory) parity cases shared by the golden
#: capture and the parity tests — workloads with non-trivial bisection
#: plus a hazard-mode fuzz program
def parity_cases():
    import repro.workloads  # noqa: F401 — registers all variants
    from repro.workloads.base import get_config

    return [
        ("LULESH-seq", lambda: get_config("LULESH-seq")),
        ("MiniFE-openmp", lambda: get_config("MiniFE-openmp")),
        ("TestSNAP-openmp", lambda: get_config("TestSNAP-openmp")),
        ("fuzz-42", lambda: fuzz_probe_config(42)),
    ]


@pytest.fixture
def module():
    return Module("test")


@pytest.fixture
def simple_fn(module):
    """A function double f(double* a, double* b, i64 n) with an entry
    block and a builder positioned in it."""
    fn = module.add_function(
        FunctionType(F64, [ptr(F64), ptr(F64), I64]), "f", ["a", "b", "n"])
    bb = fn.add_block("entry")
    b = IRBuilder(bb)
    return fn, b
