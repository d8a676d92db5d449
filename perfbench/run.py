"""The repository benchmark: probing, importance and service sessions of
``repro`` measured end to end, checked against frozen goldens.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --regenerate-goldens

Run it from the root of a checkout; it imports the program from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separately traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, metrics and the prediction
table are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from sessions import (Outcome, Session, load_goldens,  # noqa: E402
                      observe_report, ok_share, pass_wall, run_session,
                      tally, write_goldens)
from service_load import SERVICE_ROWS  # noqa: E402
from speed import Monitor, pin_to_one_cpu  # noqa: E402
import stats  # noqa: E402

#: in-process workloads: sessions run one after another in this process.
#: The timed sessions take 1-5 s each, so every one of them repeats
#: several times in a run (see "Timing" in ``perfbench/README.md``).
IN_PROCESS = {
    "probe-cold": [Session("MiniFE-openmp"), Session("GridMini-offload")],
    "probe-warm": [Session("TestSNAP-openmp")],
    "importance": [Session("MiniGMG-omptask", "importance"),
                   Session("MiniFE-openmp", "importance", once=True)],
}
#: probe-warm's sessions read a verdict cache that set-up filled
WARM = {"probe-warm"}
WORKLOADS = sorted(IN_PROCESS) + ["service"]

#: set-up repetitions whose median is reported (imports and building
#: the workload, each in a fresh interpreter)
SETUP_REPEATS = 5
#: exit status for the benchmark's own errors (exact-count drift)
EXIT_DRIFT = 3

#: metric names and units, as BENCHMARK.json declares them
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def time_setup(root: str, rows: List[str], monitor: Monitor) -> float:
    """Seconds a fresh interpreter takes to import the program and build
    the workload's configs, at the reference host speed."""
    code = ("import sys, repro.oraql.driver, repro.oraql.importance, "
            "repro.service.client\n"
            "from repro.workloads import get_config\n"
            "[get_config(r) for r in sys.argv[1:]]")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code] + rows, env=env,
                   check=True)
    return monitor.rescale(t0, time.perf_counter())


def source_digest(root: str) -> str:
    """Identity of the code under test (program and benchmark)."""
    h = hashlib.sha256(sys.version.encode())
    for top in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py") or name.endswith(".json"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


# -- in-process workloads ---------------------------------------------------

class InProcess:
    """Sessions run one after another in this process, in seed order:
    the ``once`` sessions first, then passes over the timed ones."""

    def __init__(self, name: str, workdir: str, seed: int,
                 monitor: Monitor):
        self.name = name
        self.workdir = workdir
        self.monitor = monitor
        sessions = list(IN_PROCESS[name])
        random.Random(seed).shuffle(sessions)
        self.once = [s for s in sessions if s.once]
        self.timed = [s for s in sessions if not s.once]
        self.warm_caches: Dict[str, str] = {}
        self._passes = 0
        #: (session, final exe hash) -> its first outcome, so each
        #: distinct final program is run for the golden check once
        self._observed: Dict[Tuple[str, str], Outcome] = {}

    def set_up(self) -> None:
        """probe-warm: fill each row's verdict cache with a cold session
        of the same code."""
        if self.name not in WARM:
            return
        for s in self.timed:
            cache = os.path.join(self.workdir, "warm", s.row)
            outcome, _ = run_session(s, cache, cache + ".journal")
            if outcome.error is not None:
                raise RuntimeError(f"warm-cache fill failed: {outcome.error}")
            self.warm_caches[s.row] = cache

    def run_pass(self, sessions: List[Session],
                 tracer=None) -> List[Outcome]:
        """One pass over ``sessions``; returns the outcomes, golden
        observations filled in."""
        self._passes += 1
        pass_dir = os.path.join(self.workdir, f"pass-{self._passes}")
        results = []
        with (tracer.span("bench.pass", "root") if tracer is not None
              else nullcontext()):
            for s in sessions:
                if tracer is not None:
                    tracer.session = s.key
                cache = self.warm_caches.get(
                    s.row, os.path.join(pass_dir, s.row + ".cache"))
                t0 = time.perf_counter()
                outcome, report = run_session(
                    s, cache, os.path.join(pass_dir, s.row + ".journal"))
                outcome.rescaled_s = self.monitor.rescale(
                    t0, time.perf_counter())
                results.append((s, outcome, report))
        shutil.rmtree(pass_dir, ignore_errors=True)
        outcomes = []
        for s, outcome, report in results:
            if report is not None:
                self._observe(s, outcome, report)
            outcomes.append(outcome)
        return outcomes

    def _observe(self, s: Session, outcome: Outcome, report) -> None:
        probing = report.probing if s.kind == "importance" else report
        key = (s.key, probing.final_exe_hash)
        seen = self._observed.get(key)
        observe_report(outcome, s, report,
                       None if seen is None else seen.observed)
        self._observed.setdefault(key, outcome)


def session_exact(outcomes: List[Outcome]) -> Dict[str, Dict[str, float]]:
    """The exact counts of each distinct session that completed.  Every
    repetition of a session (every job of a service row) must repeat
    them; a difference is the benchmark's own error."""
    first: Dict[str, Dict[str, float]] = {}
    for o in outcomes:
        if o.error is not None:
            continue
        rec = dict(o.exact)
        rec["cycles"] = o.observed.get("cycles", 0)
        rec["pessimistic"] = len(o.observed.get("pessimistic", ()))
        ref = first.setdefault(o.key, rec)
        if rec != ref:
            raise DriftError(f"between repetitions of {o.key}: "
                             f"{rec} != {ref}")
    return dict(sorted(first.items()))


def exact_totals(per_session: Dict[str, Dict[str, float]]
                 ) -> Dict[str, float]:
    """The exact counts summed over the distinct sessions."""
    recs = list(per_session.values())
    # fsum: float sums that do not depend on the seed's session order
    total = math.fsum(r.get("importance.total_savings", 0.0) for r in recs)
    recovered = math.fsum(r.get("importance.recovered_savings", 0.0)
                          for r in recs)
    return {
        "driver.probes": sum(r["driver.probes"] for r in recs),
        "final_cycles": math.fsum(r["cycles"] for r in recs),
        "driver.pessimistic_queries": sum(r["pessimistic"] for r in recs),
        # the program's convention: no optimism win means 100% recovered
        "importance.recovered_pct": (100.0 * recovered / total
                                     if total > 0 else 100.0),
    }


def loop(seconds: float, step) -> Tuple[List, float]:
    """Call ``step()`` at least once, and again while ``seconds`` have
    not passed.  Returns everything the calls returned, flattened, and
    the seconds they took."""
    out: List = []
    t0 = time.perf_counter()
    while True:
        out.extend(step())
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return out, elapsed


def latency_metrics(outcomes: List[Outcome],
                    seconds: float) -> Dict[str, float]:
    """Median and tail latency of the timed sessions or jobs, and how
    many completed per second."""
    latencies = [o.latency_s for o in outcomes]
    p_tail, tail_label = stats.tail(latencies)
    log(f"job_latency_s.tail is the {tail_label}")
    return {"job_latency_s.p50": statistics.median(latencies),
            "job_latency_s.tail": p_tail,
            "jobs_per_s": sum(not o.failed for o in outcomes) / seconds}


# -- tracing ----------------------------------------------------------------

def layer_metrics(spans, counts: Dict[str, float], wall: float,
                  passes: float) -> Dict[str, float]:
    """Per-layer metrics from one traced measurement, per pass."""
    from tracer import layer_self_times, name_self_times
    layer = layer_self_times(spans)
    name = name_self_times(spans)
    c = counts
    probes = c["driver.tests_run"] + c["driver.reused"]
    codegen = c["codegen.hits"] + c["codegen.misses"]
    per = 1.0 / passes
    return {
        "vm.runs": c["vm.runs"] * per,
        "vm.self_s": layer.get("vm", 0.0) * per,
        "vm.instructions": c["vm.instructions"] * per,
        "vm.instr_per_s": ratio(c["vm.instructions"], layer.get("vm", 0.0)),
        "frontend.calls": c["frontend.calls"] * per,
        "frontend.self_s": layer.get("frontend", 0.0) * per,
        "passes.calls": c["passes.calls"] * per,
        "passes.self_s": layer.get("passes", 0.0) * per,
        "passes.executions": c["passes.executions"] * per,
        "ir.verify_self_s": name.get("ir.verify", 0.0) * per,
        "ir.hash_self_s": name.get("ir.hash", 0.0) * per,
        "compiler.compiles": c["compiler.compiles"] * per,
        "compiler.self_s": layer.get("compiler", 0.0) * per,
        "codegen.self_s": layer.get("codegen", 0.0) * per,
        "codegen.cache_hit_ratio": ratio(c["codegen.hits"], codegen),
        "driver.probes": probes * per,
        "driver.tests_run": c["driver.tests_run"] * per,
        "driver.reuse_ratio": ratio(c["driver.reused"], probes),
        "driver.self_s": layer.get("driver", 0.0) * per,
        "executor.retries": c["executor.retries"] * per,
        "executor.nondet_reruns": c["executor.nondet_reruns"] * per,
        "cache.gets": c["cache.gets"] * per,
        "cache.hit_ratio": ratio(c["cache.hits"], c["cache.gets"]),
        "cache.io_s": layer.get("cache", 0.0) * per,
        "journal.appends": c["journal.appends"] * per,
        "journal.io_s": layer.get("journal", 0.0) * per,
        "importance.measurements": c["importance.measurements"] * per,
        "importance.measure_reuse_ratio": ratio(
            c["importance.measure_reused"], c["importance.measurements"]),
        "importance.self_s": layer.get("importance", 0.0) * per,
        "trace.unattributed_share": ratio(layer.get("root", 0.0), wall),
    }


def print_shares(spans) -> None:
    """Each layer's share of the traced self time, busiest first (the
    service's two workers overlap, so shares are of work, not wall)."""
    from tracer import layer_self_times
    layers = layer_self_times(spans)
    total = sum(layers.values())
    log("layer shares of traced time: " + ", ".join(
        f"{k} {100 * v / total:.1f}%"
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))


# -- the workloads ------------------------------------------------------------

def measure_in_process(args, workdir: str, monitor: Monitor,
                       result: dict) -> List[Outcome]:
    from collections import Counter
    from tracer import Tracer, install

    wl = InProcess(args.workload, workdir, args.seed, monitor)
    t0 = time.perf_counter()
    wl.set_up()
    result["setup_once_s"] = monitor.rescale(t0, time.perf_counter())
    outcomes = wl.run_pass(wl.once)
    budget = args.seconds / 2 if args.trace else args.seconds
    timed, result["measure_s"] = loop(budget,
                                      lambda: wl.run_pass(wl.timed))
    result["timed"] = timed
    outcomes += timed
    if args.trace:
        tracer = Tracer()
        installed = install(tracer)
        passes_before = wl._passes
        try:
            traced, traced_s = loop(budget,
                                    lambda: wl.run_pass(wl.timed, tracer))
        finally:
            installed.remove()
        outcomes += traced
        layers = layer_metrics(tracer.spans, Counter(tracer.counts),
                               traced_s, wl._passes - passes_before)
        layers["trace.overhead_pct"] = 100.0 * (
            pass_wall(traced) / pass_wall(timed) - 1.0)
        layers["service.accept_s.p50"] = 0.0
        layers["service.cache_hits"] = 0.0
        result["layers"] = layers
        result["traced_exact"] = {
            "vm.instructions": layers["vm.instructions"],
            "passes.executions": layers["passes.executions"]}
        print_shares(tracer.spans)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return outcomes


def measure_service(args, root: str, workdir: str, monitor: Monitor,
                    result: dict) -> List[Outcome]:
    from service_load import ServiceLoad

    def one(spans_dir: Optional[str], seconds: float, tag: str):
        load = ServiceLoad(root, os.path.join(workdir, tag), args.seed,
                           spans_dir=spans_dir)
        t0 = time.perf_counter()
        try:
            load.start()
            load.warm_up()
            setup = monitor.rescale(t0, time.perf_counter())
            load.measure(seconds)
        finally:
            load.stop()
        return load, setup

    budget = args.seconds / 2 if args.trace else args.seconds
    load, result["setup_once_s"] = one(None, budget, "svc")
    result["measure_s"] = load.t_end - load.t_start
    result["peak_rss_mb"] = load.peak_rss_mb
    outcomes = load.outcomes(monitor)
    result["timed"] = list(outcomes)
    if args.trace:
        spans_dir = os.path.join(workdir, "spans")
        traced, _ = one(spans_dir, budget, "svc-traced")
        traced_outcomes = traced.outcomes(monitor)
        outcomes += traced_outcomes
        result["layers"] = service_layers(traced, spans_dir)
        result["layers"]["trace.overhead_pct"] = 100.0 * (
            pass_wall(traced_outcomes) / pass_wall(result["timed"]) - 1.0)
    return outcomes


def service_layers(load, spans_dir: str) -> Dict[str, float]:
    """Merge the client's job spans with the workers' spans (linked by
    job id) and compute the per-layer metrics per seven jobs."""
    from collections import Counter
    from tracer import Span, Tracer

    tracer = Tracer()
    measured = {j.id for j in load.jobs}
    root = tracer.add_span("bench.measure", "root", load.t_start,
                           load.t_end)
    job_span = {}
    for j in load.jobs:
        tracer.session = j.id
        job_span[j.id] = tracer.add_span("service.job", "service",
                                         j.submitted, j.finished, root)
        tracer.add_span("service.submit", "service", j.submitted,
                        j.accepted, job_span[j.id])
    spans = list(tracer.spans)
    counts: Counter = Counter()
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as f:
            for line in f:
                rec = json.loads(line)
                if rec["job"] not in measured:
                    continue
                counts.update(rec["counts"])
                # worker span ids are unique per worker file; a worker's
                # top span hangs under the client's span of that job
                for s in rec["spans"]:
                    parent = ((name, s["parent"]) if s["parent"] is not None
                              else job_span[rec["job"]])
                    spans.append(Span((name, s["id"]), s["name"], s["layer"],
                                      s["start"], s["end"], parent,
                                      s["session"]))
    rounds = len(load.jobs) / len(SERVICE_ROWS)
    wall = load.t_end - load.t_start
    layers = layer_metrics(spans, counts, wall, rounds)
    layers["service.accept_s.p50"] = statistics.median(
        [j.accepted - j.submitted for j in load.jobs])
    layers["service.cache_hits"] = sum(
        j.result.get("report", {}).get("cache_hits", 0)
        for j in load.jobs) / rounds
    print_shares(spans)
    return layers


class DriftError(RuntimeError):
    """Exact counts differed between passes or runs of the same code."""


def check_drift(root: str, workload: str, trace: bool,
                per_session: Dict[str, Dict[str, float]],
                traced: Optional[Dict[str, float]]) -> None:
    """Exact counts must agree with the record the first run of the same
    code left in the checkout (agreement between the repetitions of
    this run is checked by :func:`session_exact`)."""
    record = {"sessions": per_session, "traced": traced}
    path = os.path.join(root, ".perfbench", "exact",
                        f"{workload}-trace{int(trace)}-"
                        f"{source_digest(root)}.json")
    if os.path.exists(path):
        with open(path) as f:
            want = json.load(f)
        # compare in the form the record was stored in
        got = json.loads(json.dumps(record))
        if got != want:
            raise DriftError(f"against an earlier run: {got} != {want}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(record, f)
        os.replace(path + ".tmp", path)


# -- main ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regenerate-goldens", action="store_true",
                   help="write perfbench/goldens/<workload>.json from one "
                        "short run instead of checking against it")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        log("no src/repro here: run from the root of a repro checkout")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.regenerate_goldens:
        args.seconds, args.trace = 0.0, 0

    rows = ([s.row for s in IN_PROCESS[args.workload]]
            if args.workload in IN_PROCESS else SERVICE_ROWS)
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    result: dict = {}
    if args.workload in IN_PROCESS:
        # the service's pool needs every vCPU; its client stays unpinned
        pin_to_one_cpu()
    try:
        with Monitor() as monitor:
            setups = [time_setup(root, rows, monitor)
                      for _ in range(SETUP_REPEATS)]
            if args.workload == "service":
                outcomes = measure_service(args, root, workdir, monitor,
                                           result)
            else:
                outcomes = measure_in_process(args, workdir, monitor,
                                              result)
        if args.regenerate_goldens:
            first = {}
            for o in outcomes:
                first.setdefault(o.key, o)
            write_goldens(args.workload, list(first.values()))
            log(f"wrote goldens for {len(first)} sessions")
            return 0
        per_session = session_exact(outcomes)
        check_drift(root, args.workload, bool(args.trace), per_session,
                    result.get("traced_exact"))
    except DriftError as e:
        log(f"benchmark error: exact counts drifted {e}")
        return EXIT_DRIFT
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct = tally(outcomes,
                                       load_goldens(args.workload))
    for o in outcomes:
        if o.failed:
            log(f"FAILED {o.key}: {o.error or o.mismatch}")

    exact = exact_totals(per_session)
    if args.trace:
        layers = dict(result["layers"])
        for k in ("driver.pessimistic_queries", "importance.recovered_pct"):
            layers[k] = exact[k]
        # untraced timings as measured, unbounded: see "Timing" in the
        # README
        layers.update(latency_metrics(result["timed"], result["measure_s"]))
        layers["raw.wall_s"] = pass_wall(result["timed"], rescaled=False)
        layers["host.calibration_ms"] = statistics.median(
            m for _, m in monitor.samples)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        values = {
            "wall_ref_s": pass_wall(result["timed"]),
            "setup_s": statistics.median(setups) + result["setup_once_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": ok_share(outcomes),
            "final_cycles": exact["final_cycles"],
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    for k, m in metrics.items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
