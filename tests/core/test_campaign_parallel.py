"""Parallel campaign sweeps are byte-identical to serial ones.

``Campaign.run(configs, workers=N)`` fans configurations out to worker
processes, but per-config seed derivation means each run is independent
of scheduling: results, traces, and ordering must be exactly what the
serial path produces.
"""

import pytest

from repro.core.fabric import ResultStore
from repro.core.orchestrator import Campaign


class _Ticker:
    """Self-rescheduling callback as a callable class, not a closure,
    so the Campaign body passes the SC1xx determinism precheck."""

    def __init__(self, env, dist, events):
        self.env = env
        self.dist = dist
        self.events = events
        self.fired = 0
        self.acc = 0.0

    def __call__(self):
        self.fired += 1
        self.acc += self.dist.dst_uniform(0.0, 1.0)
        if self.fired < self.events:
            self.env.scheduler.schedule(
                self.dist.dst_exponential(10.0), self)


def sweep_body(env, config):
    """Module-level (hence picklable) campaign body: a seeded timer chain."""
    dist = env.dist("sweep", config["profile"])
    ticker = _Ticker(env, dist, config["events"])
    env.scheduler.schedule(0.0, ticker)
    final = env.run_until_quiet()
    env.trace.record("sweep.done", fired=ticker.fired)
    return {"fired": ticker.fired, "acc": round(ticker.acc, 9),
            "final": round(final, 9)}


def _sweep_configs(count=6, events=200):
    return [{"profile": f"vendor{i}", "events": events} for i in range(count)]


class TestParallelCampaign:
    def test_workers_match_serial_exactly(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs()
        serial = campaign.run(configs)
        parallel = campaign.run(configs, workers=4)
        assert [r.config for r in parallel] == [r.config for r in serial]
        assert [r.result for r in parallel] == [r.result for r in serial]
        assert ([list(r.trace) for r in parallel]
                == [list(r.trace) for r in serial])

    def test_order_follows_input_not_completion(self):
        campaign = Campaign(sweep_body, seed=7)
        # uneven workloads: later configs finish first if order leaked
        configs = [{"profile": "slow", "events": 500},
                   {"profile": "fast", "events": 10},
                   {"profile": "faster", "events": 5}]
        results = campaign.run(configs, workers=3)
        assert [r.config["profile"] for r in results] == [
            "slow", "fast", "faster"]

    def test_workers_one_is_serial_path(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=50)
        assert ([r.result for r in campaign.run(configs, workers=1)]
                == [r.result for r in campaign.run(configs)])

    def test_single_config_skips_pool(self):
        campaign = Campaign(sweep_body, seed=7)
        results = campaign.run(_sweep_configs(count=1), workers=4)
        assert len(results) == 1
        assert results[0].result["fired"] == 200

    def test_unpicklable_body_rejected_with_clear_error(self):
        campaign = Campaign(lambda env, config: None, seed=7)
        with pytest.raises(TypeError, match="picklable"):
            campaign.run(_sweep_configs(count=2), workers=2)

    def test_unpicklable_body_still_runs_serially(self):
        campaign = Campaign(lambda env, config: config["events"], seed=7)
        results = campaign.run(_sweep_configs(count=2, events=5))
        assert [r.result for r in results] == [5, 5]


def failing_body(env, config):
    raise RuntimeError(f"boom in {config['profile']}")


class TestParallelErrors:
    def test_worker_exception_propagates(self):
        campaign = Campaign(failing_body, seed=7)
        with pytest.raises(RuntimeError, match="boom in vendor0"):
            campaign.run(_sweep_configs(count=2, events=1), workers=2)


class TestChunkedDispatch:
    def test_many_configs_few_workers_ordered(self):
        # more configs than workers forces multi-config chunks; input
        # order and per-config results must be untouched
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=13, events=20)
        serial = campaign.run(configs)
        parallel = campaign.run(configs, workers=2)
        assert [r.result for r in parallel] == [r.result for r in serial]
        assert [r.config["profile"] for r in parallel] == [
            f"vendor{i}" for i in range(13)]

    def test_chunk_failure_names_global_index(self):
        campaign = Campaign(picky_body, seed=7)
        configs = _sweep_configs(count=8, events=1)
        with pytest.raises(RuntimeError, match="boom in vendor5") as info:
            campaign.run(configs, workers=2)
        notes = getattr(info.value, "__notes__", [])
        assert any("campaign config [5]" in note for note in notes)


class TestAutoWorkers:
    def test_auto_small_sweep_is_serial(self):
        campaign = Campaign(sweep_body, seed=7)
        results = campaign.run(_sweep_configs(count=2, events=10),
                               workers="auto")
        assert [r.result["fired"] for r in results] == [10, 10]

    def test_auto_matches_serial_results(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=6, events=30)
        assert ([r.result for r in campaign.run(configs, workers="auto")]
                == [r.result for r in campaign.run(configs)])

    def test_bad_workers_value_rejected(self):
        campaign = Campaign(sweep_body, seed=7)
        with pytest.raises(ValueError, match="auto"):
            campaign.run(_sweep_configs(count=2), workers="turbo")


class TestRunCache:
    """The local result cache: a ResultStore passed as ``cache=``."""

    def test_second_sweep_hits_cache(self, tmp_path):
        cache = ResultStore(tmp_path / "cache")
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=25)
        first = campaign.run(configs, cache=cache)
        assert cache.hits == 0 and cache.misses == 3
        second = campaign.run(configs, cache=cache)
        assert cache.hits == 3
        assert [r.result for r in second] == [r.result for r in first]
        assert ([list(r.trace) for r in second]
                == [list(r.trace) for r in first])

    def test_seed_change_misses(self, tmp_path):
        cache = ResultStore(tmp_path / "cache")
        configs = _sweep_configs(count=2, events=10)
        Campaign(sweep_body, seed=7).run(configs, cache=cache)
        Campaign(sweep_body, seed=8).run(configs, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 4

    def test_config_change_misses(self, tmp_path):
        cache = ResultStore(tmp_path / "cache")
        campaign = Campaign(sweep_body, seed=7)
        campaign.run(_sweep_configs(count=1, events=10), cache=cache)
        campaign.run(_sweep_configs(count=1, events=11), cache=cache)
        assert cache.hits == 0

    def test_body_identity_in_key(self, tmp_path):
        cache = ResultStore(tmp_path / "cache")
        configs = _sweep_configs(count=1, events=10)
        Campaign(sweep_body, seed=7).run(configs, cache=cache)
        # a different body with the same config/seed must not hit
        Campaign(other_body, seed=7).run(configs, cache=cache)
        assert cache.hits == 0

    def test_cached_parallel_mixed_with_fresh(self, tmp_path):
        # half the sweep cached, half fresh, fresh half parallel:
        # results must still come back complete and in input order
        cache = ResultStore(tmp_path / "cache")
        campaign = Campaign(sweep_body, seed=7)
        campaign.run(_sweep_configs(count=3, events=15), cache=cache)
        results = campaign.run(_sweep_configs(count=6, events=15),
                               workers=2, cache=cache)
        assert cache.hits == 3
        assert [r.config["profile"] for r in results] == [
            f"vendor{i}" for i in range(6)]
        uncached = campaign.run(_sweep_configs(count=6, events=15))
        assert [r.result for r in results] == [r.result for r in uncached]


def picky_body(env, config):
    if config["profile"] == "vendor5":
        raise RuntimeError("boom in vendor5")
    return config["profile"]


def other_body(env, config):
    return {"different": True}
