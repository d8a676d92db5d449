"""§V narrative — executed instructions and modelled run times.

Regenerates the per-benchmark instruction/cycle deltas the paper
reports in prose and asserts their qualitative shape: instruction
counts never grow under (almost-)perfect alias information, LULESH run
time stays flat, MiniGMG's ompif variant gains the most of its family,
and GridMini's device kernel gets *slower*.
"""

import pytest

from repro.experiments.runtimes import PAPER_NOTES, RuntimeRow, render_runtimes
from repro.workloads.base import row_names

from conftest import save_result


@pytest.fixture(scope="module")
def runtime_rows(probed_reports):
    rows = []
    for name in row_names():
        rep = probed_reports[name]
        r0 = rep.baseline_program.run()
        r1 = rep.final_program.run()
        rows.append(RuntimeRow(
            name, r0.instructions, r1.instructions, r0.cycles, r1.cycles,
            sum(r0.kernel_cycles.values()), sum(r1.kernel_cycles.values()),
            PAPER_NOTES.get(name, "")))
    return rows


def _row(rows, name):
    return next(r for r in rows if r.config == name)


def test_runtime_table(benchmark, runtime_rows, once):
    table = once(benchmark, render_runtimes, runtime_rows)
    save_result("text_runtimes", table)
    print("\n" + table)
    # inline shape checks (run under --benchmark-only)
    for r in runtime_rows:
        assert r.insts_oraql <= r.insts_orig * 1.01, r.config
    grid = _row(runtime_rows, "GridMini-offload")
    assert grid.kernel_cycles_oraql > grid.kernel_cycles_orig * 1.01
    ompif = _row(runtime_rows, "MiniGMG-ompif")
    assert ompif.cycles_oraql < ompif.cycles_orig * 0.98


def test_instructions_never_grow(runtime_rows):
    """Optimistic AA only removes work from the executed path."""
    for r in runtime_rows:
        assert r.insts_oraql <= r.insts_orig * 1.01, (
            r.config, r.insts_orig, r.insts_oraql)


def test_testsnap_seq_instructions_drop(runtime_rows):
    r = _row(runtime_rows, "TestSNAP-seq")
    assert r.insts_oraql < r.insts_orig  # paper: -1.2%


def _gain(rows, name):
    r = _row(rows, name)
    return 1.0 - r.cycles_oraql / r.cycles_orig


def test_minigmg_ompif_speeds_up(runtime_rows):
    """Paper §V-G: ompif ~8% faster."""
    gain = _gain(runtime_rows, "MiniGMG-ompif")
    assert gain > 0.02, f"ompif gained only {gain:.1%}"


@pytest.mark.xfail(strict=True, reason=(
    "measured ompif gain 0.1227 < sse gain 0.1857: EXPERIMENTS.md §V row "
    "'MiniGMG: ompif -8%, omptask -1%, sse flat' is marked '~' (the cost "
    "model rewards vectorization in every variant)"))
def test_minigmg_ompif_speeds_up_most(runtime_rows):
    """Paper §V-G: ompif gains the most; sse/omptask ~flat."""
    gain = _gain(runtime_rows, "MiniGMG-ompif")
    sse_gain = _gain(runtime_rows, "MiniGMG-sse")
    assert gain > sse_gain - 0.01, (gain, sse_gain)


def test_gridmini_kernel_slows_down(runtime_rows):
    """Paper §V-C: ~7% slowdown on the device kernel — optimistic info
    raises register pressure past an occupancy cliff."""
    r = _row(runtime_rows, "GridMini-offload")
    assert r.kernel_cycles_orig > 0
    assert r.kernel_cycles_oraql > r.kernel_cycles_orig * 1.01, (
        r.kernel_cycles_orig, r.kernel_cycles_oraql)


def _not_flat(ratio: str):
    return pytest.mark.xfail(strict=True, reason=(
        f"measured cycle ratio ORAQL/original {ratio}, outside [0.80, "
        f"1.05]: EXPERIMENTS.md §V row 'LULESH: 18.66->18.51 s etc., "
        f"~flat' is marked '~' (the model has no memory-latency floor)"))


@pytest.mark.parametrize("name", [
    pytest.param("LULESH-seq", marks=_not_flat("0.7238")),
    "LULESH-openmp",
    pytest.param("LULESH-mpi", marks=_not_flat("0.7121")),
])
def test_lulesh_runtime_flat(runtime_rows, name):
    """Paper §V-E: 18.66s vs 18.51s etc. — barely affected."""
    r = _row(runtime_rows, name)
    ratio = r.cycles_oraql / r.cycles_orig
    assert 0.80 <= ratio <= 1.05, (name, ratio)
