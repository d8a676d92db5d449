"""Campaign runner: seed fan-out, time budget, self-test, reporting.

A campaign runs the differential oracle over a seed range.  Like the
PR-1 parallel probing engine, seeds fan out to a
:class:`~concurrent.futures.ProcessPoolExecutor` (each worker opens the
shared persistent :class:`~repro.oraql.cache.VerdictCache` when
``cache_dir`` is given, so bisections triggered by optimistic
divergences reuse verdicts across workers and campaigns), and like the
PR-1 driver the time budget degrades gracefully: when ``time_budget``
runs out, pending seeds are cancelled and the report is flagged
``budget_exhausted`` instead of losing the finished work.

Self-test mode (``--self-test``) is the harness testing *itself*: every
seed is generated in hazard mode, which injects a call from a template
family whose may-alias queries are **known dangerous** — the empty
(all-optimistic) decision sequence forces exactly those queries to
``no-alias``.  The oracle must flag the divergence, the probing
driver's bisection must pin it to a non-empty pessimistic set, and the
reducer must shrink the program to at most
:data:`SELF_TEST_SIZE_LIMIT` structural AST nodes.  Any miss is
reported as a finding, the same as a genuine miscompile.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional

from ..frontend.ast_nodes import TranslationUnit
from ..oraql.cache import VerdictCache
from ..oraql.compiler import Compiler
from ..oraql.sequence import DecisionSequence
from ..vm.reference import ReferenceMachine
from .corpus import CorpusEntry, entry_name, write_entry
from .generator import GeneratorOptions, generate_program
from .oracle import DifferentialOracle, base_config
from .reduce import reduce_program
from .render import ast_size, render_unit

#: the self-test's bar: a caught injection must shrink to this many
#: structural AST nodes or fewer
SELF_TEST_SIZE_LIMIT = 20

#: salt decorrelating the hazard coin-flip from the generator's stream
_HAZARD_SALT = 0x9E3779B9


@dataclass
class CampaignOptions:
    seeds: int = 200
    seed_start: int = 0
    jobs: int = 1
    #: wall-clock budget in seconds; None = run every seed
    time_budget: Optional[float] = None
    #: hazard-mode probability for ordinary campaigns
    hazard_rate: float = 0.25
    #: every seed hazard-mode + assert catch & shrink
    self_test: bool = False
    opt_level: int = 3
    #: reduce findings (and, in self-test, every caught injection)
    reduce: bool = True
    max_reduce_trials: int = 600
    #: probing-driver test budget per bisection
    max_tests: int = 2_000
    cache_dir: Optional[str] = None
    corpus_dir: Optional[str] = None
    #: cap on corpus entries written per campaign
    max_corpus_entries: int = 8
    #: probing strategies for the bisection referee (first = primary,
    #: rest cross-checked per divergent case); None = chunked only
    strategies: Optional[List[str]] = None


@dataclass
class SeedResult:
    seed: int
    hazard: bool
    hazard_calls: List[str] = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    #: finding dicts (kind/config_key/detail), empty = clean
    findings: List[dict] = field(default_factory=list)
    optimism_divergent: bool = False
    optimism_caught: bool = False
    pessimistic_indices: List[int] = field(default_factory=list)
    original_size: int = 0
    reduced_size: int = 0
    reduction_trials: int = 0
    compiles: int = 0
    cache_hits: int = 0
    elapsed: float = 0.0
    corpus_entry: Optional[CorpusEntry] = None

    @property
    def clean(self) -> bool:
        return not self.findings


@dataclass
class CampaignReport:
    options: CampaignOptions
    results: List[SeedResult] = field(default_factory=list)
    budget_exhausted: bool = False
    elapsed: float = 0.0
    #: corpus file paths actually written by this campaign
    corpus_written: List[str] = field(default_factory=list)

    # -- aggregates ------------------------------------------------------
    @property
    def seeds_run(self) -> int:
        return len(self.results)

    @property
    def findings(self) -> List[SeedResult]:
        return [r for r in self.results if not r.clean]

    @property
    def unexplained_divergences(self) -> int:
        return sum(len(r.findings) for r in self.results)

    @property
    def optimism_divergent(self) -> List[SeedResult]:
        return [r for r in self.results if r.optimism_divergent]

    @property
    def ok(self) -> bool:
        return self.unexplained_divergences == 0

    def render(self) -> str:
        o = self.options
        caught = [r for r in self.optimism_divergent if r.optimism_caught]
        out = [f"== fuzz campaign: {self.seeds_run}/{o.seeds} seeds "
               f"(start {o.seed_start}, jobs {o.jobs}, "
               f"O{o.opt_level}) in {self.elapsed:.1f}s =="]
        if self.budget_exhausted:
            out.append(f"TIME BUDGET EXHAUSTED after {o.time_budget:.0f}s — "
                       f"partial campaign")
        compiles = sum(r.compiles for r in self.results)
        hits = sum(r.cache_hits for r in self.results)
        out.append(f"compiles           : {compiles}"
                   + (f", {hits} verdict-cache hits" if hits else ""))
        out.append(f"optimistic diverged: {len(self.optimism_divergent)} "
                   f"seeds, {len(caught)} caught by bisection")
        if o.self_test:
            shrunk = [r for r in caught
                      if 0 < r.reduced_size <= SELF_TEST_SIZE_LIMIT]
            out.append(f"self-test          : {len(self.optimism_divergent)} "
                       f"injections, {len(caught)} caught, "
                       f"{len(shrunk)} shrunk to "
                       f"<= {SELF_TEST_SIZE_LIMIT} nodes")
            if caught:
                worst = max(r.reduced_size for r in caught)
                out.append(f"largest reproducer : {worst} nodes")
        out.append(f"unexplained        : {self.unexplained_divergences} "
                   f"divergences")
        for r in self.findings:
            for f in r.findings:
                out.append(f"  seed {r.seed}: [{f['kind']}] "
                           f"{f['config_key']}: {f['detail']}")
        if self.corpus_written:
            out.append(f"corpus             : {len(self.corpus_written)} "
                       f"minimized reproducers written")
        return "\n".join(out)


# -- reduction predicates (module level so they pickle) ----------------------

def _optimism_diverges(unit: TranslationUnit, opt_level: int) -> bool:
    """True iff the all-optimistic build observably diverges from O0."""
    import dataclasses as _dc
    source = render_unit(unit)
    compiler = Compiler()
    cfg = base_config(0, source, opt_level)
    ref = compiler.compile(_dc.replace(cfg, opt_level=0)).run()
    if not ref.ok:
        return False
    opt = compiler.compile(cfg, sequence=DecisionSequence(),
                           oraql_enabled=True).run()
    return (not opt.ok) or opt.stdout != ref.stdout


def _config_diverges(unit: TranslationUnit, opt_level: int,
                     config_key: str) -> bool:
    """True iff the named matrix config still disagrees with O0."""
    import dataclasses as _dc
    source = render_unit(unit)
    compiler = Compiler()
    cfg = base_config(0, source, opt_level)
    ref = compiler.compile(_dc.replace(cfg, opt_level=0)).run()
    if not ref.ok:
        return config_key == "o0"  # reference-failure reproducer
    if config_key == "o0":
        return False
    if config_key == "o2":
        run = compiler.compile(_dc.replace(cfg, opt_level=2)).run()
    elif config_key == "o3":
        run = compiler.compile(cfg).run()
    elif config_key == "o3-coarse":
        fine = compiler.compile(cfg)
        coarse = compiler.compile(cfg, invalidation="coarse")
        if fine.exe_hash != coarse.exe_hash:
            return True
        run = coarse.run()
    elif config_key == "override":
        run = compiler.compile(cfg, suppress_chain=True).run()
    elif config_key == "pessimistic":
        probe = compiler.compile(cfg, sequence=DecisionSequence(),
                                 oraql_enabled=True)
        n = probe.oraql.unique_queries + 8
        run = compiler.compile(cfg, sequence=DecisionSequence([0] * n),
                               oraql_enabled=True).run()
    else:
        return False
    return (not run.ok) or run.stdout != ref.stdout


def _engines_disagree(unit: TranslationUnit, opt_level: int,
                      config_key: str) -> bool:
    """True iff the decoded and reference VM engines still disagree on
    the named config (``o0``, ``o3`` or ``optimistic``)."""
    import dataclasses as _dc
    cfg = base_config(0, render_unit(unit), opt_level)
    kw = {}
    if config_key == "o0":
        cfg = _dc.replace(cfg, opt_level=0)
    elif config_key == "optimistic":
        kw = dict(sequence=DecisionSequence(), oraql_enabled=True)
    prog = Compiler().compile(cfg, **kw)
    return prog.run().signature() != \
        prog.execute(ReferenceMachine, cfg.max_steps).signature()


def _is_hazard_seed(seed: int, opts: CampaignOptions) -> bool:
    if opts.self_test:
        return True
    return random.Random(seed ^ _HAZARD_SALT).random() < opts.hazard_rate


# -- one seed (worker-side entry point) --------------------------------------

def run_seed(seed: int, opts: CampaignOptions) -> SeedResult:
    t0 = time.monotonic()
    hazard = _is_hazard_seed(seed, opts)
    program = generate_program(seed, GeneratorOptions(hazard=hazard))
    result = SeedResult(seed=seed, hazard=hazard,
                        hazard_calls=program.hazard_calls,
                        original_size=program.size)
    cache = VerdictCache(opts.cache_dir) if opts.cache_dir else None
    oracle = DifferentialOracle(verdict_cache=cache,
                                opt_level=opts.opt_level,
                                max_tests=opts.max_tests,
                                strategies=opts.strategies or ["chunked"])
    check = oracle.check(seed, program.source)
    result.outcomes = dict(check.outcomes)
    result.findings = [asdict(f) for f in check.findings]
    result.optimism_divergent = check.optimism_divergent
    result.optimism_caught = (check.optimism_divergent
                              and bool(check.pessimistic_indices))
    result.pessimistic_indices = list(check.pessimistic_indices)
    result.compiles = check.compiles
    result.cache_hits = check.cache_hits

    # what (if anything) to reduce for this seed
    predicate: Optional[Callable[[TranslationUnit], bool]] = None
    kind = config_key = detail = None
    if check.findings:
        f = check.findings[0]
        kind, config_key, detail = f.kind, f.config_key, f.detail
        if f.kind == "unsound-optimism-uncaught":
            predicate = lambda u: _optimism_diverges(u, opts.opt_level)  # noqa: E731
        elif f.kind == "engine-mismatch":
            predicate = lambda u: _engines_disagree(  # noqa: E731
                u, opts.opt_level, f.config_key)
        else:
            predicate = lambda u: _config_diverges(  # noqa: E731
                u, opts.opt_level, f.config_key)
    elif opts.self_test and result.optimism_caught:
        kind, config_key = "optimism-hazard", "optimistic"
        detail = f"pessimistic indices {result.pessimistic_indices}"
        predicate = lambda u: _optimism_diverges(u, opts.opt_level)  # noqa: E731

    if predicate is not None and opts.reduce:
        red = reduce_program(program.unit, predicate,
                             max_trials=opts.max_reduce_trials)
        result.reduced_size = red.final_size
        result.reduction_trials = red.trials
        if opts.self_test and kind == "optimism-hazard" \
                and red.final_size > SELF_TEST_SIZE_LIMIT:
            result.findings.append({
                "kind": "self-test-reduction",
                "config_key": "optimistic",
                "detail": f"reducer stalled at {red.final_size} nodes "
                          f"(> {SELF_TEST_SIZE_LIMIT}) after "
                          f"{red.trials} trials"})
        result.corpus_entry = CorpusEntry(
            name=entry_name(kind, seed), seed=seed, kind=kind,
            config_key=config_key, detail=detail or "",
            hazard_calls=program.hazard_calls,
            original_size=ast_size(program.unit),
            reduced_size=red.final_size,
            reduction_trials=red.trials,
            source=red.source)
    result.elapsed = time.monotonic() - t0
    return result


def _campaign_worker(seed: int, opts: CampaignOptions) -> SeedResult:
    return run_seed(seed, opts)


# -- the campaign ------------------------------------------------------------

def run_campaign(opts: CampaignOptions,
                 progress: Optional[Callable[[SeedResult], None]] = None
                 ) -> CampaignReport:
    t0 = time.monotonic()
    report = CampaignReport(options=opts)
    seeds = list(range(opts.seed_start, opts.seed_start + opts.seeds))
    deadline = (t0 + opts.time_budget) if opts.time_budget else None

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    if opts.jobs <= 1:
        for seed in seeds:
            if out_of_time():
                report.budget_exhausted = True
                break
            r = run_seed(seed, opts)
            report.results.append(r)
            if progress:
                progress(r)
    else:
        jobs = min(opts.jobs, len(seeds), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            pending = {executor.submit(_campaign_worker, s, opts)
                       for s in seeds}
            try:
                while pending:
                    timeout = None if deadline is None \
                        else max(0.0, deadline - time.monotonic())
                    done, pending = wait(pending, timeout=timeout,
                                         return_when=FIRST_COMPLETED)
                    for fut in done:
                        r = fut.result()
                        report.results.append(r)
                        if progress:
                            progress(r)
                    if out_of_time() and pending:
                        report.budget_exhausted = True
                        for fut in pending:
                            fut.cancel()
                        break
            finally:
                for fut in pending:
                    fut.cancel()
        report.results.sort(key=lambda r: r.seed)

    # the parent process writes the corpus (workers only carry entries
    # back), so concurrent campaigns never interleave partial files
    if opts.corpus_dir:
        for r in report.results:
            if r.corpus_entry is None or (r.clean and not opts.self_test):
                continue
            if len(report.corpus_written) >= opts.max_corpus_entries:
                break
            report.corpus_written.append(
                write_entry(r.corpus_entry, opts.corpus_dir))
    report.elapsed = time.monotonic() - t0
    return report
