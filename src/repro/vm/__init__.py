"""repro.vm — deterministic execution of (optimized) IR.

Provides the byte-addressable memory model, the interpreter with
instruction/cycle accounting, runtime shims for libc/OpenMP/CUDA, and
the multi-rank MPI scheduler.

:class:`Machine` runs *decoded* code: each function is lowered once per
Machine, on its first call, into per-block lists of ``(cost, op)`` pairs
over integer register slots (:mod:`repro.vm.decode`).
:class:`repro.vm.reference.ReferenceMachine` is the tree-walking engine
it replaced, kept as a referee: the fuzz oracle and the tests run
programs on both and require identical stdout, state, instruction count
and cycles.  Scalar semantics shared by both engines and by constant
folding live in :mod:`repro.vm.semantics`.
"""

from .cost_model import (
    CostModel,
    DEFAULT_COSTS,
    UnknownCostError,
    occupancy_factor,
)
from .errors import (
    DeadlockError,
    MemoryTrap,
    StepLimitExceeded,
    UndefinedBehavior,
    VMError,
    WallClockExceeded,
)
from .interpreter import Blocked, Frame, Machine
from .memory import Memory
from .runtime import MPIWorld, Runtime

__all__ = [name for name in dir() if not name.startswith("_")]
