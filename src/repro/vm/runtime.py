"""Runtime shims: libc-ish I/O, math, OpenMP, CUDA, and MPI.

The parallel programming models are *simulated deterministically*:

* **OpenMP** — ``omp_parallel_for(fn, ctx, lb, ub)`` splits the
  iteration space into ``num_threads`` contiguous chunks and runs them
  sequentially in the shared address space.  The indirection (outlined
  function + context struct) is exactly what inflates alias-query counts
  in the paper's OpenMP configurations.
* **CUDA/Kokkos** — ``cuda_launch(kernel, grid, block, args...)`` runs
  the kernel for every (block, thread) pair; per-kernel cycle totals are
  scaled by an occupancy factor derived from the kernel's register count
  (codegen metadata), which is how optimistic information can *slow
  down* GPU code (§V-C).
* **MPI** — ranks are separate Machines interleaved by
  :class:`MPIWorld`; collectives block until all ranks arrive.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Tuple

from ..ir.function import Function
from .cost_model import occupancy_factor
from .errors import DeadlockError, UndefinedBehavior, VMError


class Runtime:
    """Dispatch table for intrinsic / declared-function calls."""

    def __init__(self):
        self.handlers: Dict[str, Callable] = {}
        self._install_defaults()

    def register(self, name: str, fn: Callable) -> None:
        self.handlers[name] = fn

    def call(self, machine, name: str, args: Tuple, inst):
        handler = self.handlers.get(name)
        if handler is None:
            raise VMError(f"call to unknown runtime function '{name}'")
        machine.cycles += machine.cost.of_intrinsic(name)
        return handler(machine, args)

    # -- default handlers ---------------------------------------------------
    def _install_defaults(self) -> None:
        h = self.handlers
        # pure math
        h["sqrt"] = lambda m, a: math.sqrt(a[0]) if a[0] >= 0 else math.nan
        h["fabs"] = lambda m, a: abs(a[0])
        h["exp"] = lambda m, a: _safe(math.exp, a[0])
        h["log"] = lambda m, a: math.log(a[0]) if a[0] > 0 else -math.inf
        h["pow"] = lambda m, a: _safe(math.pow, a[0], a[1])
        h["sin"] = lambda m, a: math.sin(a[0])
        h["cos"] = lambda m, a: math.cos(a[0])
        h["floor"] = lambda m, a: math.floor(a[0])
        h["ceil"] = lambda m, a: math.ceil(a[0])
        h["fmin"] = lambda m, a: min(a[0], a[1])
        h["fmax"] = lambda m, a: max(a[0], a[1])
        h["llvm.vector.reduce.fadd"] = lambda m, a: math.fsum(a[0])
        h["llvm.vector.reduce.add"] = lambda m, a: sum(a[0])
        # libc
        h["printf"] = _printf
        h["malloc"] = lambda m, a: m.memory.allocate(a[0])
        h["free"] = lambda m, a: m.memory.free(a[0])
        h["clock_cycles"] = lambda m, a: int(m.cycles)
        h["wtime"] = lambda m, a: m.cycles / 2.5e9  # "2.5 GHz Skylake"
        h["abort"] = _abort
        h["exit"] = _abort
        # omp
        h["omp_parallel_for"] = _omp_parallel_for
        h["omp_get_max_threads"] = lambda m, a: m.num_threads
        h["omp_get_num_threads"] = lambda m, a: m.num_threads
        # cuda
        h["cuda_launch"] = _cuda_launch
        h["cuda_thread_id"] = _cuda_thread_id
        h["cuda_num_threads"] = _cuda_num_threads
        h["cuda_device_synchronize"] = lambda m, a: None
        # mpi
        h["mpi_comm_rank"] = lambda m, a: m.rank
        h["mpi_comm_size"] = lambda m, a: m.nranks
        h["mpi_barrier"] = lambda m, a: (
            None if m.nranks == 1 else _blocked("barrier", None))
        h["mpi_allreduce_sum_f64"] = lambda m, a: (
            a[0] if m.nranks == 1 else _blocked("allreduce_sum", a[0]))
        h["mpi_allreduce_max_f64"] = lambda m, a: (
            a[0] if m.nranks == 1 else _blocked("allreduce_max", a[0]))
        h["mpi_allreduce_min_f64"] = lambda m, a: (
            a[0] if m.nranks == 1 else _blocked("allreduce_min", a[0]))


def _safe(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.inf


def _abort(machine, args):
    raise UndefinedBehavior(f"program aborted (exit {args[0] if args else 1})")


def _blocked(tag: str, payload):
    from .interpreter import Blocked
    return Blocked(tag, payload)


# -- printf ---------------------------------------------------------------

_FMT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(?:hh|h|ll|l|z)?[diufFeEgGxXsc%]")


def _printf(machine, args):
    fmt = machine.memory.read_cstring(args[0])
    out = []
    ai = 1
    pos = 0
    for m in _FMT_RE.finditer(fmt):
        out.append(fmt[pos:m.start()])
        pos = m.end()
        spec = m.group(0)
        conv = spec[-1]
        if conv == "%":
            out.append("%")
            continue
        if ai >= len(args):
            raise UndefinedBehavior(f"printf: missing argument for {spec}")
        val = args[ai]
        ai += 1
        pyspec = spec.replace("ll", "").replace("hh", "").replace(
            "h", "").replace("z", "")
        # map C conversions onto Python %-formatting
        if conv in "di":
            pyspec = pyspec[:-1] + "d"
            out.append(pyspec % int(val))
        elif conv == "u":
            pyspec = pyspec[:-1] + "d"
            out.append(pyspec % (int(val) & ((1 << 64) - 1)))
        elif conv in "fFeEgG":
            out.append(pyspec % float(val))
        elif conv in "xX":
            out.append(pyspec % (int(val) & ((1 << 64) - 1)))
        elif conv == "s":
            out.append(machine.memory.read_cstring(val))
        elif conv == "c":
            out.append(chr(int(val) & 0xFF))
    out.append(fmt[pos:])
    text = "".join(out)
    machine.write_stdout(text)
    return len(text)


# -- OpenMP ---------------------------------------------------------------

def _omp_parallel_for(machine, args):
    """args = (outlined Function, ctx_ptr, lb, ub); static scheduling."""
    outlined, ctx, lb, ub = args
    if not isinstance(outlined, Function):
        raise VMError("omp_parallel_for: first arg must be a function")
    n = ub - lb
    if n <= 0:
        return None
    t = max(1, machine.num_threads)
    chunk = -(-n // t)
    for tid in range(t):
        clb = lb + tid * chunk
        cub = min(ub, clb + chunk)
        if clb >= cub:
            break
        machine.call_synchronously(outlined, (tid, ctx, clb, cub))
    return None


# -- CUDA -------------------------------------------------------------------

def _cuda_launch(machine, args):
    """args = (kernel Function, grid, block, kernel args...)."""
    kernel, grid, block = args[0], args[1], args[2]
    kargs = tuple(args[3:])
    if not isinstance(kernel, Function):
        raise VMError("cuda_launch: first arg must be a kernel function")
    info = machine.kernel_info.get(kernel.name)
    regs = getattr(info, "registers", 32) if info is not None else 32
    factor = occupancy_factor(regs)
    saved = machine._gpu_factor
    start_cycles = machine.cycles
    machine._gpu_factor = factor
    try:
        total = grid * block
        for tid in range(total):
            machine._cuda_tid = tid
            machine._cuda_total = total
            machine.call_synchronously(kernel, kargs)
    finally:
        machine._gpu_factor = saved
    spent = machine.cycles - start_cycles
    machine.kernel_cycles[kernel.name] = (
        machine.kernel_cycles.get(kernel.name, 0.0) + spent)
    machine.kernel_launches[kernel.name] = (
        machine.kernel_launches.get(kernel.name, 0) + 1)
    return None


def _cuda_thread_id(machine, args):
    return getattr(machine, "_cuda_tid", 0)


def _cuda_num_threads(machine, args):
    return getattr(machine, "_cuda_total", 1)


# -- MPI ----------------------------------------------------------------------

class MPIWorld:
    """Round-robin scheduler over per-rank Machines with collectives."""

    REDUCE_OPS = {
        "allreduce_sum": lambda xs: math.fsum(xs),
        "allreduce_max": max,
        "allreduce_min": min,
    }

    def __init__(self, machines: List):
        self.machines = machines
        for i, m in enumerate(machines):
            m.rank = i
            m.nranks = len(machines)

    def run(self) -> List:
        live = list(self.machines)
        while True:
            progressed = False
            for m in live:
                if m.state == "ready":
                    m.run()
                    progressed = True
            live = [m for m in self.machines if m.state in ("ready", "blocked")]
            if not live:
                break
            blocked = [m for m in self.machines if m.state == "blocked"]
            if len(blocked) == len(
                    [m for m in self.machines if m.state != "trapped"]
            ) and blocked:
                tags = {m.blocked.tag for m in blocked}
                if len(tags) == 1 and len(blocked) == len(self.machines):
                    tag = tags.pop()
                    if tag == "barrier":
                        for m in blocked:
                            m.deliver(None)
                    else:
                        op = self.REDUCE_OPS[tag]
                        result = op([m.blocked.payload for m in blocked])
                        for m in blocked:
                            m.deliver(result)
                    progressed = True
                else:
                    raise DeadlockError(
                        f"ranks blocked on mismatched collectives: {tags}")
            if not progressed and live:
                raise DeadlockError("no rank can make progress")
        return self.machines
