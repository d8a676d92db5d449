"""Tests for the campaign runner and the ``python -m repro.fuzz`` CLI."""

import os

import pytest

from repro.fuzz.campaign import (
    CampaignOptions,
    CampaignReport,
    SELF_TEST_SIZE_LIMIT,
    _engines_disagree,
    _is_hazard_seed,
    run_campaign,
    run_seed,
)
from repro.fuzz.cli import build_parser, main
from repro.fuzz.corpus import load_corpus

from helpers import LoadCostsMore


class TestHazardCoin:
    def test_self_test_forces_hazard(self):
        opts = CampaignOptions(self_test=True, hazard_rate=0.0)
        assert all(_is_hazard_seed(s, opts) for s in range(50))

    def test_rate_zero_and_one(self):
        zero = CampaignOptions(hazard_rate=0.0)
        one = CampaignOptions(hazard_rate=1.0)
        assert not any(_is_hazard_seed(s, zero) for s in range(50))
        assert all(_is_hazard_seed(s, one) for s in range(50))

    def test_coin_is_deterministic_per_seed(self):
        opts = CampaignOptions(hazard_rate=0.5)
        flips = [_is_hazard_seed(s, opts) for s in range(100)]
        assert flips == [_is_hazard_seed(s, opts) for s in range(100)]
        assert any(flips) and not all(flips)


class TestRunSeed:
    def test_clean_seed(self):
        r = run_seed(1000, CampaignOptions(hazard_rate=0.0, reduce=False))
        assert r.seed == 1000 and not r.hazard
        assert r.clean
        assert r.compiles >= 7
        assert r.outcomes["pessimistic"] == "match"

    def test_self_test_seed_is_caught_and_reduced(self):
        r = run_seed(2, CampaignOptions(self_test=True))
        assert r.hazard and r.hazard_calls
        assert r.optimism_divergent and r.optimism_caught
        assert r.clean
        assert 0 < r.reduced_size <= SELF_TEST_SIZE_LIMIT
        assert r.corpus_entry is not None
        assert r.corpus_entry.kind == "optimism-hazard"

    def test_strategies_all_cross_checks_each_divergence(self):
        """--strategies all: every registered strategy re-bisects a
        divergent case; the chunked-skeleton ones must agree with the
        primary and none may produce a strategy-mismatch finding."""
        from repro.oraql.strategies import strategy_names
        r = run_seed(2, CampaignOptions(self_test=True, reduce=False,
                                        strategies=strategy_names()))
        assert r.optimism_divergent and r.optimism_caught
        assert r.clean, r.findings
        for name in strategy_names()[1:]:
            assert r.outcomes[f"strategy-{name}"] in ("match", "valid")
        # the chunked-skeleton strategies agree exactly
        assert r.outcomes["strategy-mcts"] == "match"
        assert r.outcomes["strategy-provenance-prior"] == "match"


class TestEngineMismatchReduction:
    """An engine-mismatch reproducer shrinks while the two VM engines
    still disagree on its config."""

    SOURCE = """\
double a[4];
int main() {
  for (int i = 0; i < 4; i = i + 1) { a[i] = i * 1.5; }
  printf("%f\\n", a[3]);
  return 0;
}
"""

    def _unit(self):
        from repro.frontend import parse
        return parse(self.SOURCE, filename="t.c")

    @pytest.mark.parametrize("key", ["o0", "o3", "optimistic"])
    def test_predicate_tracks_engine_agreement(self, key, monkeypatch):
        import repro.fuzz.campaign as campaign

        assert not _engines_disagree(self._unit(), 3, key)
        monkeypatch.setattr(campaign, "ReferenceMachine", LoadCostsMore)
        assert _engines_disagree(self._unit(), 3, key)


class TestRunCampaign:
    def test_sequential_campaign_with_corpus(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        opts = CampaignOptions(seeds=2, self_test=True, corpus_dir=corpus,
                               max_corpus_entries=1)
        seen = []
        report = run_campaign(opts, progress=seen.append)
        assert report.seeds_run == 2 == len(seen)
        assert report.ok
        # the cap limits what lands on disk, and render() reports the
        # written count, not the candidate count
        assert len(report.corpus_written) == 1
        assert len(load_corpus(corpus)) == 1
        assert "corpus             : 1 minimized reproducers" \
            in report.render()

    def test_time_budget_degrades_gracefully(self):
        opts = CampaignOptions(seeds=50, time_budget=1e-9, hazard_rate=0.0)
        report = run_campaign(opts)
        assert report.budget_exhausted
        assert report.seeds_run < 50
        assert "TIME BUDGET EXHAUSTED" in report.render()

    def test_empty_report_renders(self):
        report = CampaignReport(options=CampaignOptions(seeds=0))
        assert report.ok
        assert "0/0 seeds" in report.render()


class TestCli:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.seeds == 200 and args.jobs == 1
        assert not args.self_test

    @pytest.mark.parametrize("argv", [
        ["--seeds", "0"],
        ["--jobs", "0"],
        ["--hazard-rate", "1.5"],
    ])
    def test_rejects_bad_values(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_end_to_end_exit_zero(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        rc = main(["--seeds", "1", "--self-test", "--quiet",
                   "--corpus-dir", corpus,
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: 1/1 seeds" in out
        assert os.path.isdir(corpus)
