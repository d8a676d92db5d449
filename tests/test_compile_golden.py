"""Compile golden: every Fig. 4 row compiled all-optimistic and
all-pessimistic, with the executable hash and every query counter the
reports are built from pinned byte-for-byte.

This is the referee for changes to the compile hot path (the AA chain's
counters, the ORAQL pass's tallies, the pass manager's execution count):
a refactor there must leave every number below unchanged.  Regenerate
with ``pytest tests/test_compile_golden.py --update-goldens`` only when
the compiled output itself legitimately changed, and review the diff.
"""

import json

from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence
from repro.workloads import get_config, row_names


def _record(prog) -> dict:
    aa = prog.ctx.aa
    return {
        "exe_hash": prog.exe_hash,
        "no_alias_count": aa.no_alias_count,
        "must_alias_count": aa.must_alias_count,
        "total_queries": aa.total_queries,
        "no_alias_by_pass": dict(sorted(aa.no_alias_by_pass.items())),
        "queries_by_issuer": dict(sorted(aa.queries_by_issuer.items())),
        "oraql_statistics": prog.oraql.statistics(),
        "unique_by_pass": dict(sorted(prog.oraql.unique_by_pass.items())),
        "pass_executions": prog.pass_executions,
    }


def render_compile_golden() -> str:
    lines = []
    for row in row_names():
        config = get_config(row)
        compiler = Compiler()
        opt = compiler.compile(config, DecisionSequence(),
                               oraql_enabled=True)
        bits = [0] * (opt.oraql.unique_queries + 4)
        pess = compiler.compile(config, DecisionSequence(bits),
                                oraql_enabled=True)
        for label, prog in (("optimistic", opt), ("pessimistic", pess)):
            lines.append(f"{row} {label} "
                         f"{json.dumps(_record(prog), sort_keys=True)}")
    return "\n".join(lines)


def test_compile_counters_golden(golden):
    assert len(row_names()) == 16
    golden("compile_counters.txt", render_compile_golden())
