"""Regression tests for counter bleed across repeated-driver runs.

Before the fix, a :class:`TestExecutor` reused across configurations
carried ``retries_used``/``nondet_reruns`` (and the nondeterminism
probe latch) from one session into the next report, and a
``Statistics`` registry merged into itself doubled every counter.
"""

from repro.analysis.aliasing import AAResults
from repro.faults.injector import FaultInjector, FaultSpec
from repro.frontend import compile_source
from repro.oraql.driver import ProbingDriver
from repro.oraql.executor import TestExecutor
from repro.passes import CompilationContext
from repro.passes.statistics import Statistics

from test_oraql_driver import HAZARD_SRC, SAFE_SRC, cfg_of


class TestExecutorSessionIsolation:
    def test_retries_do_not_bleed_into_next_report(self):
        injector = FaultInjector([FaultSpec("compiler-error", at=0)])
        executor = TestExecutor(injector=injector)

        first = ProbingDriver(cfg_of(HAZARD_SRC, "first"),
                              executor=executor).run()
        assert first.retries >= 1, "the planted fault must be retried"

        # same executor, second config: a clean session must report
        # zero fault handling, not the first session's counters
        second = ProbingDriver(cfg_of(SAFE_SRC, "second"),
                               executor=executor).run()
        assert second.retries == 0
        assert second.nondet_reruns == 0

    def test_mismatch_probe_latch_resets_per_session(self):
        executor = TestExecutor()
        ProbingDriver(cfg_of(HAZARD_SRC, "first"), executor=executor).run()
        # the hazard session probes at least one mismatching candidate
        assert executor._probed_mismatch
        executor.begin_session()
        assert not executor._probed_mismatch

    def test_repeated_sessions_give_identical_reports(self):
        executor = TestExecutor()
        reports = [ProbingDriver(cfg_of(HAZARD_SRC, "same"),
                                 executor=executor).run()
                   for _ in range(2)]
        a, b = reports
        assert a.pessimistic_indices == b.pessimistic_indices
        assert a.retries == b.retries == 0
        assert a.nondet_reruns == b.nondet_reruns
        assert a.final_program.exe_hash == b.final_program.exe_hash


class TestStatisticsMerge:
    def test_self_merge_is_a_noop(self):
        stats = Statistics()
        stats.add("LICM", "# loads hoisted", 3)
        stats.merge(stats)
        assert stats.get("LICM", "# loads hoisted") == 3

    def test_merge_adds_distinct_registries(self):
        a = Statistics()
        a.add("LICM", "# loads hoisted", 3)
        b = Statistics()
        b.add("LICM", "# loads hoisted", 2)
        b.add("DSE", "# stores deleted", 1)
        a.merge(b)
        assert a.get("LICM", "# loads hoisted") == 5
        assert a.get("DSE", "# stores deleted") == 1

    def test_report_rows_stable_after_self_merge(self):
        stats = Statistics()
        stats.add("GVN", "# loads eliminated", 7)
        before = stats.report()
        for _ in range(3):
            stats.merge(stats)
        assert stats.report() == before


class TestMergeHelpers:
    """The per-TU (non-LTO) compile folds each translation unit's
    bookkeeping into one reporting context through these merges."""

    def test_aaresults_merge_folds_counters(self):
        a = AAResults([])
        b = AAResults([])
        a.no_alias_count, a.must_alias_count, a.total_queries = 3, 1, 10
        b.no_alias_count, b.must_alias_count, b.total_queries = 2, 2, 7
        a.no_alias_by_pass["GVN"] = 3
        b.no_alias_by_pass["GVN"] = 1
        b.no_alias_by_pass["DSE"] = 1
        b.queries_by_issuer["LICM"] = 4
        a.merge(b)
        assert (a.no_alias_count, a.must_alias_count,
                a.total_queries) == (5, 3, 17)
        assert a.no_alias_by_pass["GVN"] == 4
        assert a.no_alias_by_pass["DSE"] == 1
        assert a.queries_by_issuer["LICM"] == 4

    def test_aaresults_merge_self_is_noop(self):
        a = AAResults([])
        a.no_alias_count = 3
        a.merge(a)
        assert a.no_alias_count == 3

    def test_context_merge_folds_everything(self):
        m1 = compile_source("int main() { return 0; }", "a.c")
        m2 = compile_source("int main() { return 0; }", "b.c")
        c1, c2 = CompilationContext(m1), CompilationContext(m2)
        c1.pass_executions, c2.pass_executions = 4, 6
        c2.aa.no_alias_count = 5
        c2.debug_log.append("from-tu-2")
        c1.merge(c2)
        assert c1.pass_executions == 10
        assert c1.aa.no_alias_count == 5
        assert "from-tu-2" in c1.debug_log
        # merging a context into itself must not double anything
        c1.merge(c1)
        assert c1.pass_executions == 10
