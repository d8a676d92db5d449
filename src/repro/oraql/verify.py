"""The ORAQL verification script (paper §IV-C).

Compares a run's stdout against one or more reference outputs after
applying regex filters that mask legitimately-noisy parts (reported run
times, trailing digits of checksums that vary across configurations).
A trapped, deadlocked, or non-terminating run always fails.

This module also owns the probing runtime's **triage taxonomy**: every
test execution is classified into one of :data:`TRIAGE_CLASSES` so the
driver can distinguish a miscompile that prints garbage from one that
traps, loops forever, or deadlocks — and so infrastructure failures
(compiler exceptions, lost workers) are never confused with verdicts.
"""

from __future__ import annotations

import difflib
import hashlib
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: triage classes, ordered roughly by "how wrong the run went"
TRIAGE_OK = "ok"
TRIAGE_WRONG_OUTPUT = "wrong-output"
TRIAGE_TRAPPED = "trapped"
TRIAGE_STEP_LIMIT = "step-limit"
TRIAGE_DEADLOCK = "deadlock"
TRIAGE_COMPILER_ERROR = "compiler-error"
TRIAGE_WORKER_LOST = "worker-lost"

TRIAGE_CLASSES = (
    TRIAGE_OK,
    TRIAGE_WRONG_OUTPUT,
    TRIAGE_TRAPPED,
    TRIAGE_STEP_LIMIT,
    TRIAGE_DEADLOCK,
    TRIAGE_COMPILER_ERROR,
    TRIAGE_WORKER_LOST,
)

#: VM error class name -> triage class (anything unlisted is a trap)
_ERROR_KIND_TRIAGE = {
    "StepLimitExceeded": TRIAGE_STEP_LIMIT,
    "WallClockExceeded": TRIAGE_STEP_LIMIT,
    "DeadlockError": TRIAGE_DEADLOCK,
}


@dataclass
class RunResult:
    """Outcome of executing a compiled program."""

    stdout: str
    state: str                      # "done" | "trapped" | "blocked"
    error: Optional[str] = None
    instructions: int = 0
    cycles: float = 0.0
    kernel_cycles: dict = field(default_factory=dict)
    #: class name of the VM error that ended the run (``MemoryTrap``,
    #: ``StepLimitExceeded``, ``DeadlockError``, ...), ``None`` for a
    #: clean completion — the raw material for :func:`triage_run`
    error_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.state == "done"

    def signature(self) -> str:
        """Everything a run observably produced, as one line: the stdout
        digest, end state, error kind, instruction count, exact cycle
        total and per-kernel cycles (``repr`` keeps every float bit).
        Two executions of one program agree iff their signatures do."""
        digest = hashlib.sha256(self.stdout.encode()).hexdigest()
        kernels = ",".join(f"{k}={v!r}"
                           for k, v in sorted(self.kernel_cycles.items()))
        return (f"stdout={digest} state={self.state} "
                f"error={self.error_kind} insts={self.instructions} "
                f"cycles={self.cycles!r} kernels=[{kernels}]")


def triage_run(result: RunResult) -> str:
    """Classify a run *without* an output verdict: ``ok`` means only
    "ran to completion" here; use :meth:`VerificationScript.triage` for
    the full ok/wrong-output distinction."""
    if result.ok:
        return TRIAGE_OK
    kind = result.error_kind
    if kind in _ERROR_KIND_TRIAGE:
        return _ERROR_KIND_TRIAGE[kind]
    if kind is None and result.state == "blocked":
        return TRIAGE_DEADLOCK
    return TRIAGE_TRAPPED


class VerificationScript:
    """Multi-reference, regex-filtered output verification."""

    def __init__(self, references: Sequence[str],
                 filters: Sequence[Tuple[str, str]] = ()):
        if not references:
            raise ValueError("verification needs at least one reference")
        self.filters = [(re.compile(p), r) for p, r in filters]
        self.references = [self.normalize(r) for r in references]

    def normalize(self, text: str) -> str:
        for pattern, repl in self.filters:
            text = pattern.sub(repl, text)
        return text

    def check_output(self, output: str) -> bool:
        n = self.normalize(output)
        return any(n == ref for ref in self.references)

    def check(self, result: RunResult) -> bool:
        """The full verdict: the run must complete and its (filtered)
        output must match a reference."""
        if not result.ok:
            return False
        return self.check_output(result.stdout)

    def triage(self, result: RunResult) -> str:
        """Classify the run into one of :data:`TRIAGE_CLASSES`: a
        completed run is ``ok`` or ``wrong-output`` depending on the
        verdict, a failed run keeps its VM failure class."""
        cls = triage_run(result)
        if cls == TRIAGE_OK and not self.check_output(result.stdout):
            return TRIAGE_WRONG_OUTPUT
        return cls

    def closest_reference(self, normalized: str) -> str:
        """The reference most similar to the (already normalized)
        output — the one a multi-reference mismatch report should be
        explained against."""
        if len(self.references) == 1:
            return self.references[0]
        return max(self.references,
                   key=lambda ref: difflib.SequenceMatcher(
                       None, normalized, ref).ratio())

    def explain(self, result: RunResult) -> str:
        if not result.ok:
            return (f"run failed [{triage_run(result)}]: "
                    f"{result.state} ({result.error})")
        n = self.normalize(result.stdout)
        best = self.closest_reference(n)
        for i, (x, y) in enumerate(zip(n, best)):
            if x != y:
                lo = max(0, i - 40)
                return (f"output mismatch at byte {i}: "
                        f"...{n[lo:i + 40]!r} != ...{best[lo:i + 40]!r}")
        if len(n) != len(best):
            return f"output length mismatch: {len(n)} vs {len(best)}"
        return "ok"
