"""Referee for the per-Compiler parse memo.

A probing session recompiles the same sources under different decision
bits, so :class:`~repro.oraql.compiler.Compiler` parses each ``(source
text, filename)`` once and lowers every compile from the cached AST.
That is only sound while IR generation never mutates the AST and while
nothing of one compile leaks into the next through the shared tree;
these checks pin both, and that the memo is scoped to one Compiler.
"""

import hashlib

import pytest

import repro.frontend.codegen as codegen
from repro.frontend import compile_source, parse
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence
from repro.workloads import get_config, row_names

from test_compile_golden import _record
from test_oraql_bugfixes import two_tu_config


def _digest(tu) -> str:
    return hashlib.sha256(repr(tu).encode()).hexdigest()


def _no_parse(*args, **kwargs):
    raise AssertionError("memo hit expected, but the source was parsed")


def test_lowering_leaves_every_ast_unchanged(monkeypatch):
    monkeypatch.setattr(codegen, "parse", _no_parse)
    seen = 0
    for row in row_names():
        for src in get_config(row).sources:
            tu = parse(src.text, src.name, unit_name=src.name)
            before = _digest(tu)
            compile_source(src.text, src.name,
                           units={(src.text, src.name): tu})
            assert _digest(tu) == before, (row, src.name)
            seen += 1
    assert seen >= len(row_names())


@pytest.mark.parametrize("row", row_names())
def test_shared_compiler_matches_fresh_compiler(row):
    config = get_config(row)
    shared = Compiler()
    first = shared.compile(config, DecisionSequence(), oraql_enabled=True)
    bits = [0] * (first.oraql.unique_queries + 4)
    shared.compile(config, DecisionSequence(bits), oraql_enabled=True)
    third = shared.compile(config, DecisionSequence(), oraql_enabled=True)
    fresh = Compiler().compile(config, DecisionSequence(),
                               oraql_enabled=True)
    assert third.exe_hash == fresh.exe_hash
    assert _record(third) == _record(fresh)


def test_memo_parses_once_per_source_per_compiler(monkeypatch):
    calls = []

    def counting_parse(source, filename="<minic>", unit_name="unit"):
        calls.append((source, filename))
        return parse(source, filename, unit_name=unit_name)

    monkeypatch.setattr(codegen, "parse", counting_parse)
    config = two_tu_config(False)
    keys = {(s.text, s.name) for s in config.sources}
    assert len(keys) == 2

    compiler = Compiler()
    for _ in range(3):
        compiler.compile(config)
    compiler.compile(two_tu_config(True))
    assert sorted(calls) == sorted(keys)

    # the same text under another filename is another translation unit
    renamed = two_tu_config(False)
    renamed.sources[1].name = "lib2.c"
    compiler.compile(renamed)
    assert len(calls) == 3

    # the memo belongs to one Compiler: a second one parses again
    Compiler().compile(config)
    assert len(calls) == 5
