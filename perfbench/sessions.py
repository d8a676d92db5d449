"""Sessions, their outcomes, and the frozen-golden correctness check.

A session is one call of a public entry point on one workload row:
``ProbingDriver.run`` ("probe") or ``ImportanceDriver.run``
("importance"), in this process, with the program's default options.
A service job is the same probing session run by ``repro.service``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "goldens")


def default_strategy() -> str:
    """The probing driver's default strategy, read from its signature so
    a later change of the default is measured by the same workloads."""
    from repro.oraql.driver import ProbingDriver
    return inspect.signature(ProbingDriver).parameters["strategy"].default


@dataclass
class Session:
    row: str
    kind: str = "probe"
    #: run once per run, before the timed repetitions, and left out of
    #: the timing (see ``perfbench/README.md``, "The known defect")
    once: bool = False

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.row}"


@dataclass
class Outcome:
    """What one session or job produced, as the golden check sees it."""

    key: str
    latency_s: float
    #: ``"<ErrorClass>: message"`` when the session raised
    error: Optional[str] = None
    #: observations compared against the golden (see
    #: :func:`observe_program`)
    observed: Dict[str, object] = field(default_factory=dict)
    #: exact counts that must repeat between runs of the same code
    exact: Dict[str, float] = field(default_factory=dict)
    #: set by :func:`check` when ``observed`` disagrees with the golden
    mismatch: Optional[str] = None
    #: ``latency_s`` rescaled to the reference host speed (see
    #: :mod:`speed`)
    rescaled_s: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch is not None

    @property
    def error_class(self) -> Optional[str]:
        return None if self.error is None else self.error.split(":", 1)[0]


def run_session(session: Session, cache_dir: str,
                journal_dir: str) -> "tuple[Outcome, object]":
    """Run one in-process session against the given verdict-cache and
    journal directories.  Returns the outcome (latency filled in) and
    the report, or ``None`` when the session raised."""
    from repro.oraql.cache import VerdictCache
    from repro.oraql.driver import ProbingDriver
    from repro.oraql.importance import ImportanceDriver
    from repro.oraql.journal import SessionJournal
    from repro.workloads import get_config

    t0 = time.perf_counter()
    report = None
    error = None
    try:
        cfg = get_config(session.row)
        cache = VerdictCache(cache_dir)
        if session.kind == "importance":
            report = ImportanceDriver(cfg, verdict_cache=cache,
                                      journal_dir=journal_dir).run()
        else:
            journal = SessionJournal.for_config(journal_dir, cfg,
                                                default_strategy())
            report = ProbingDriver(cfg, verdict_cache=cache,
                                   journal=journal).run()
    except Exception as e:
        # a raised session is a counted failure, never a benchmark error
        error = f"{type(e).__name__}: {e}"
        where = " <- ".join(f"{os.path.basename(f.filename)}:{f.lineno}"
                            for f in traceback.extract_tb(e.__traceback__)
                            [:-3:-1])
        print(f"[perfbench] {session.key} raised {error} at {where}",
              file=sys.stderr)
    return Outcome(session.key, time.perf_counter() - t0, error), report


def observe_program(row: str, program, pessimistic) -> Dict[str, object]:
    """Run a final executable once and return the golden observations:
    the pessimistic indices, the hash of its stdout normalised by the
    row's output filters, instruction and cycle counts, trap class."""
    from repro.oraql.verify import VerificationScript
    from repro.workloads import get_config

    run = program.run()
    cfg = get_config(row)
    normalised = VerificationScript([run.stdout],
                                    cfg.output_filters).references[0]
    return {
        "pessimistic": sorted(pessimistic),
        "stdout_sha256": hashlib.sha256(normalised.encode()).hexdigest(),
        "instructions": run.instructions,
        "cycles": run.cycles,
        "trap": run.error_kind,
    }


def observe_report(outcome: Outcome, session: Session, report,
                   observed: Optional[Dict[str, object]] = None) -> None:
    """Fill ``outcome.observed``/``outcome.exact`` from a finished
    in-process session's report.  ``observed`` reuses the observations
    of an earlier repetition with the same final executable instead of
    running it again; the exact counts always come from this report."""
    probing = report.probing if session.kind == "importance" else report
    if observed is None:
        observed = observe_program(session.row, probing.final_program,
                                   probing.pessimistic_indices)
        if session.kind == "importance":
            observed["important"] = sorted(q.index
                                           for q in report.important)
            observed["recovered_pct"] = report.recovered_percent
    outcome.observed = dict(observed)
    outcome.exact["driver.probes"] = probe_count(probing)
    if session.kind == "importance":
        outcome.exact["importance.total_savings"] = report.total_savings
        outcome.exact["importance.recovered_savings"] = \
            report.recovered_savings


def probe_count(report) -> int:
    """Probes a session answered: tests run, cached or deduced.  Works on
    a ``ProbingReport`` and on its serialized dict."""
    get = (report.get if isinstance(report, dict)
           else lambda k: getattr(report, k))
    return get("tests_run") + get("tests_cached") + get("tests_deduced")


# -- goldens --------------------------------------------------------------

def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_goldens(workload: str) -> Dict[str, dict]:
    with open(golden_path(workload)) as f:
        return json.load(f)


def golden_record(outcome: Outcome) -> dict:
    """What regenerate mode stores for one session: its observations,
    or the class of the error it raised."""
    if outcome.error is not None:
        return {"raised": outcome.error_class}
    return dict(outcome.observed)


def write_goldens(workload: str, outcomes: List[Outcome]) -> None:
    records = {o.key: golden_record(o) for o in outcomes}
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w") as f:
        json.dump(dict(sorted(records.items())), f, indent=1)
        f.write("\n")


def check(outcome: Outcome, goldens: Dict[str, dict]) -> None:
    """Compare one outcome against its golden; a disagreement is stored
    in ``outcome.mismatch``.  A raised session is already a failure and
    is not compared.  A session that completes where the golden
    recorded a raise has nothing to be compared with: it passes, with a
    note to regenerate the goldens."""
    if outcome.error is not None:
        return
    golden = goldens.get(outcome.key)
    if golden is None:
        outcome.mismatch = "no golden recorded for this session"
        return
    if "raised" in golden:
        print(f"[perfbench] {outcome.key} completed but its golden "
              f"recorded {golden['raised']}; regenerate the goldens",
              file=sys.stderr)
        return
    diffs = [k for k in sorted(set(golden) | set(outcome.observed))
             if golden.get(k) != outcome.observed.get(k)]
    if diffs:
        outcome.mismatch = "golden mismatch in " + ", ".join(
            f"{k} (want {golden.get(k)!r}, got {outcome.observed.get(k)!r})"
            for k in diffs)


def tally(outcomes: List[Outcome],
          goldens: Dict[str, dict]) -> Tuple[int, int, bool]:
    """Check every outcome against the goldens and count: sessions
    attempted, sessions failed (raised or mismatched), and whether every
    output that was produced was correct."""
    for o in outcomes:
        check(o, goldens)
    failed = sum(o.failed for o in outcomes)
    return len(outcomes), failed, not any(o.mismatch for o in outcomes)


def ok_share(outcomes: List[Outcome]) -> float:
    """Share of the distinct sessions whose every repetition completed
    and matched its golden (call after :func:`tally`).  Counted per
    session, so it does not depend on how many repetitions fitted into
    the run."""
    keys = {o.key for o in outcomes}
    failed = {o.key for o in outcomes if o.failed}
    return (len(keys) - len(failed)) / len(keys)


def pass_wall(outcomes: List[Outcome], rescaled: bool = True) -> float:
    """Wall-clock of one pass: the sum, over the distinct sessions, of
    the median of each session's completed repetitions, rescaled to the
    reference host speed or as measured.  A session that never
    completed adds nothing."""
    reps: Dict[str, List[float]] = {}
    for o in outcomes:
        if o.error is None:
            reps.setdefault(o.key, []).append(
                o.rescaled_s if rescaled else o.latency_s)
    return sum(statistics.median(v) for v in reps.values())
