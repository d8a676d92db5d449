"""The ``service`` workload: a ``repro.service`` server started with
``--jobs 2`` and fresh state, driven by two closed-loop tenants over
``ServiceClient``.

Each tenant has one connection and submits its next job only after the
previous job's ``result`` arrived.  Both tenants cycle through all
seven rows, each in its own seed-shuffled order.  Set-up starts the
server and runs one warm-up job per row, so every measured job finds
its verdicts in the service's cache and no job's latency depends on
which tenant happened to run a row first.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from sessions import Outcome, observe_program, probe_count

#: the seven fully-optimistic short rows (0.3-2 s per job)
SERVICE_ROWS = ["GridMini-offload", "MiniGMG-ompif", "MiniGMG-omptask",
                "MiniGMG-sse", "Quicksilver-openmp", "TestSNAP-seq",
                "TestSNAP-kokkos-cuda"]
TENANTS = 2
SERVER_JOBS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Job:
    tenant: int
    row: str
    id: str
    submitted: float
    accepted: float
    finished: float
    result: dict


def _process_tree(pid: int) -> List[int]:
    """``pid`` and its live children (the server's pool workers)."""
    out = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                out.extend(int(c) for c in f.read().split())
    except OSError:
        pass
    return out


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServiceLoad:
    """One server plus its two tenants.  ``spans_dir`` starts the server
    through ``serve.py`` so its pool workers record layer spans."""

    def __init__(self, root: str, workdir: str, seed: int,
                 spans_dir: Optional[str] = None):
        self.root = root
        self.workdir = workdir
        self.spans_dir = spans_dir
        # relative to the checkout root, which is the server's working
        # directory too: unix socket paths are limited to ~100 bytes
        self.socket = os.path.relpath(os.path.join(workdir, "s.sock"))
        rng = random.Random(seed)
        self.orders = []
        for _ in range(TENANTS):
            rows = list(SERVICE_ROWS)
            rng.shuffle(rows)
            self.orders.append(rows)
        self.proc: Optional[subprocess.Popen] = None
        self.jobs: List[Job] = []
        self.t_start = self.t_end = 0.0
        self.peak_rss_mb = 0.0

    # -- server lifecycle --------------------------------------------------
    def start(self) -> None:
        args = ["--socket", self.socket, "--jobs", str(SERVER_JOBS),
                "--state-dir", os.path.join(self.workdir, "state")]
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "repro.service"] + args
        else:
            cmd = [sys.executable,
                   os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "serve.py"),
                   "--spans-dir", self.spans_dir, "--"] + args
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(self.root, "src"))
        os.makedirs(self.workdir, exist_ok=True)
        self.proc = subprocess.Popen(cmd, env=env,
                                     stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"service exited with {self.proc.returncode} on start")
            if time.monotonic() > deadline:
                raise RuntimeError("service did not start")
            time.sleep(0.01)

    async def _shutdown(self) -> None:
        from repro.service import ServiceClient
        async with ServiceClient(socket_path=self.socket) as c:
            await c.shutdown()

    def stop(self) -> None:
        """Record peak memory, shut the server down and wait until it and
        every pool worker it started have ended."""
        if self.proc is None:
            return
        tree = _process_tree(self.proc.pid)
        self.peak_rss_mb = sum(_peak_rss_mb(p) for p in tree)
        try:
            if self.proc.poll() is None:
                asyncio.run(self._shutdown())
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.proc = None

    # -- load --------------------------------------------------------------
    async def _tenant(self, index: int, rows: List[str],
                      deadline: Optional[float], jobs: List[Job]) -> None:
        from repro.service import ServiceClient, ServiceError
        async with ServiceClient(socket_path=self.socket,
                                 tenant=f"tenant-{index}") as client:
            first_round = True
            while True:
                for row in rows:
                    # after the first round, no job starts past the deadline
                    if (not first_round and
                            time.perf_counter() >= deadline):
                        return
                    t0 = time.perf_counter()
                    job_id = await client.submit(workload=row)
                    t1 = time.perf_counter()
                    try:
                        result = await client.wait(job_id)
                    except ServiceError as e:
                        result = {"status": "failed", "error": str(e)}
                    jobs.append(Job(index, row, job_id, t0, t1,
                                    time.perf_counter(), result))
                if deadline is None:
                    return
                first_round = False

    async def _load(self, deadline: Optional[float],
                    orders: List[List[str]]) -> List[Job]:
        jobs: List[Job] = []
        await asyncio.gather(*(self._tenant(i, rows, deadline, jobs)
                               for i, rows in enumerate(orders)))
        return jobs

    def warm_up(self) -> None:
        """One job per row, split over the two tenants, so the measured
        jobs all hit the verdict cache."""
        halves = [self.orders[0][i::TENANTS] for i in range(TENANTS)]
        warm = asyncio.run(self._load(None, halves))
        bad = [j for j in warm if j.result.get("status") != "done"]
        if bad:
            raise RuntimeError(f"warm-up job {bad[0].row} failed: "
                               f"{bad[0].result.get('error')}")

    def measure(self, seconds: float) -> None:
        """Closed loop: each tenant runs one whole round over its rows,
        and then submits jobs in the same order until ``seconds`` have
        passed."""
        deadline = time.perf_counter() + seconds
        self.t_start = time.perf_counter()
        self.jobs = asyncio.run(self._load(deadline, self.orders))
        self.t_end = time.perf_counter()

    # -- results -----------------------------------------------------------
    def outcomes(self, monitor) -> List[Outcome]:
        """One outcome per measured job, observed through one final
        program per distinct row (compiled here from the job's final
        decision sequence and checked to be the same executable).
        Latencies are rescaled by ``monitor`` (see :mod:`speed`)."""
        from repro.oraql.compiler import Compiler
        from repro.oraql.sequence import DecisionSequence
        from repro.workloads import get_config

        observed: Dict[str, dict] = {}
        out = []
        for job in self.jobs:
            o = Outcome(f"probe:{job.row}", job.finished - job.submitted,
                        rescaled_s=monitor.rescale(job.submitted,
                                                   job.finished))
            if job.result.get("status") != "done":
                o.error = f"JobFailed: {job.result.get('error')}"
                out.append(o)
                continue
            report = job.result["report"]
            if job.row not in observed:
                program = Compiler().compile(
                    get_config(job.row),
                    sequence=DecisionSequence(report["final_sequence"]),
                    oraql_enabled=True)
                obs = observe_program(job.row, program, [])
                obs["exe_hash"] = program.exe_hash
                observed[job.row] = obs
            obs = dict(observed[job.row])
            if obs.pop("exe_hash") != report["final_exe_hash"]:
                o.mismatch = ("final executable differs from the one "
                              "recompiled from its decision sequence")
            obs["pessimistic"] = sorted(report["pessimistic_indices"])
            o.observed = obs
            o.exact["driver.probes"] = probe_count(report)
            out.append(o)
        return out
