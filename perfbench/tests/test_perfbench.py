"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import stats  # noqa: E402
from speed import REFERENCE_MS, Monitor  # noqa: E402
from sessions import (Outcome, Session, ok_share, pass_wall,  # noqa: E402
                      run_session, tally)
from tracer import (Span, Tracer, covered, layer_self_times,  # noqa: E402
                    self_times)


def span(i, layer, start, end, parent=None):
    return Span(i, f"{layer}.x", layer, start, end, parent, "s")


# -- self time -------------------------------------------------------------

def test_covered_merges_overlapping_and_clips_to_interval():
    assert covered((0, 10), [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7)
    assert covered((0, 10), []) == 0
    assert covered((5, 6), [(0, 1), (7, 9)]) == 0


def test_self_time_of_nested_and_repeated_spans():
    spans = [
        span(1, "root", 0, 10),
        span(2, "driver", 1, 6, parent=1),
        span(3, "vm", 2, 3, parent=2),
        span(4, "vm", 3.5, 5, parent=2),        # repeated vm span
        span(5, "passes", 7, 9, parent=1),
        span(6, "ir", 7.5, 8, parent=5),         # grandchild
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 2)
    assert own[2] == pytest.approx(5 - 1 - 1.5)
    assert own[5] == pytest.approx(2 - 0.5)
    layers = layer_self_times(spans)
    assert layers["vm"] == pytest.approx(2.5)
    assert layers["ir"] == pytest.approx(0.5)
    # self times partition the root's wall-clock
    assert sum(layers.values()) == pytest.approx(10)


def test_overlapping_children_are_not_subtracted_twice():
    # two concurrent client jobs under one measurement span
    spans = [span(1, "root", 0, 10), span(2, "service", 1, 6, parent=1),
             span(3, "service", 2, 7, parent=1)]
    assert self_times(spans)[1] == pytest.approx(10 - 6)


def test_tracer_links_nested_spans_to_their_parent():
    t = Tracer()
    t.session = "probe:x"
    with t.span("a", "driver") as a:
        with t.span("b", "vm"):
            pass
        with t.span("c", "vm"):
            pass
    by_name = {s.name: s for s in t.spans}
    assert by_name["a"].parent is None
    assert by_name["b"].parent == a and by_name["c"].parent == a
    assert {s.session for s in t.spans} == {"probe:x"}


# -- the tail percentile -----------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(40, 0, -1))                # 1..40, unsorted
    value, label = stats.tail(values)
    assert value == 30                             # 31..40 lie beyond it
    assert sum(v > value for v in values) == 10
    assert label == "p75 of 40 samples (10 beyond it)"


def test_tail_with_eleven_samples_is_the_minimum():
    value, label = stats.tail([float(v) for v in range(11)])
    assert value == 0.0
    assert "11 samples" in label


def test_tail_with_too_few_samples_is_the_max_and_says_so():
    value, label = stats.tail([3.0, 1.0, 2.0])
    assert value == 3.0
    assert label.startswith("max of 3 samples")
    with pytest.raises(ValueError):
        stats.tail([])


# -- failure counting ----------------------------------------------------------

GOLDEN = {"probe:A": {"pessimistic": [1], "cycles": 10.0},
          "probe:B": {"pessimistic": [], "cycles": 5.0},
          "importance:C": {"raised": "IndexError"}}


def test_tally_counts_a_raised_session_as_failed_but_not_incorrect():
    outcomes = [Outcome("probe:A", 1.0, observed={"pessimistic": [1],
                                                  "cycles": 10.0}),
                Outcome("importance:C", 1.0, error="IndexError: boom")]
    assert tally(outcomes, GOLDEN) == (2, 1, True)


def test_tally_counts_a_golden_mismatch_as_failed_and_incorrect():
    outcomes = [Outcome("probe:A", 1.0, observed={"pessimistic": [1],
                                                  "cycles": 10.0}),
                Outcome("probe:B", 1.0, observed={"pessimistic": [],
                                                  "cycles": 6.0})]
    assert tally(outcomes, GOLDEN) == (2, 1, False)
    assert "cycles" in outcomes[1].mismatch


def test_tally_flags_a_session_without_golden():
    outcomes = [Outcome("probe:Z", 1.0, observed={"cycles": 1.0})]
    assert tally(outcomes, GOLDEN) == (1, 1, False)


def test_completing_where_the_golden_recorded_a_raise_passes():
    outcomes = [Outcome("importance:C", 1.0, observed={"cycles": 1.0})]
    assert tally(outcomes, GOLDEN) == (1, 0, True)


def test_ok_share_counts_distinct_sessions_not_repetitions():
    outcomes = [Outcome("probe:A", 1.0, observed={"pessimistic": [1],
                                                  "cycles": 10.0})
                for _ in range(5)]
    outcomes.append(Outcome("importance:C", 1.0, error="IndexError: boom"))
    tally(outcomes, GOLDEN)
    assert ok_share(outcomes) == 0.5
    # one bad repetition fails its session
    outcomes[0].mismatch = "golden mismatch in cycles"
    assert ok_share(outcomes) == 0.0


# -- timing and exact counts ---------------------------------------------------

def test_pass_wall_sums_each_sessions_median_completed_repetition():
    outcomes = [Outcome("probe:A", 3.0, rescaled_s=1.5),
                Outcome("probe:A", 2.0, rescaled_s=1.0),
                Outcome("probe:A", 2.5, rescaled_s=1.1),
                Outcome("probe:B", 0.7, rescaled_s=0.4),
                Outcome("probe:B", 0.5, error="KeyError: x"),
                Outcome("importance:C", 0.1, error="IndexError: boom")]
    assert pass_wall(outcomes) == pytest.approx(1.1 + 0.4)
    assert pass_wall(outcomes, rescaled=False) == pytest.approx(2.5 + 0.7)


def test_rescale_divides_by_the_interval_calibration():
    m = Monitor()
    m.samples = [(0.0, 2.0), (1.0, 5.0), (2.0, 5.0), (3.0, 40.0),
                 (4.0, 5.0)]
    # the 40 ms sample is an outlier (> 3x the median) and left out
    assert m.sample_ms(0.5, 4.5) == pytest.approx(5.0)
    assert m.rescale(0.5, 4.5) == pytest.approx(4.0 * REFERENCE_MS / 5.0)
    # an interval without a sample uses the nearest one
    assert m.sample_ms(0.2, 0.3) == pytest.approx(5.0)


def exact_outcome(key, probes, cycles=10.0):
    return Outcome(key, 1.0, observed={"cycles": cycles, "pessimistic": [1]},
                   exact={"driver.probes": probes})


def test_session_exact_keeps_one_record_per_session():
    per = run.session_exact([exact_outcome("probe:A", 4),
                             exact_outcome("probe:A", 4),
                             exact_outcome("probe:B", 1, cycles=5.0),
                             Outcome("importance:C", 1.0, error="E: x")])
    assert per == {"probe:A": {"driver.probes": 4, "cycles": 10.0,
                               "pessimistic": 1},
                   "probe:B": {"driver.probes": 1, "cycles": 5.0,
                               "pessimistic": 1}}
    totals = run.exact_totals(per)
    assert totals["driver.probes"] == 5
    assert totals["final_cycles"] == 15.0
    assert totals["importance.recovered_pct"] == 100.0


def test_session_exact_reports_drift_between_repetitions():
    with pytest.raises(run.DriftError):
        run.session_exact([exact_outcome("probe:A", 4),
                           exact_outcome("probe:A", 5)])


def test_run_session_turns_an_exception_into_a_failed_outcome(tmp_path):
    outcome, report = run_session(Session("no-such-row"),
                                  str(tmp_path / "cache"),
                                  str(tmp_path / "journal"))
    assert report is None
    assert outcome.error_class == "KeyError"
    assert outcome.failed and outcome.latency_s >= 0
