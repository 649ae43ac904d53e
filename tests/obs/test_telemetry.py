"""Campaign telemetry and the scorecard."""

from repro.core.orchestrator import Campaign, RunResult
from repro.netsim.trace import TraceRecorder
from repro.obs.telemetry import RunTelemetry, render_scorecard

from tests.core.test_campaign_parallel import _sweep_configs, sweep_body


class TestRunTelemetry:
    def test_campaign_attaches_telemetry_by_default(self):
        results = Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=2, events=50))
        for result in results:
            telemetry = result.telemetry
            assert telemetry is not None
            assert telemetry.wall_s > 0
            assert telemetry.events >= 50
            assert telemetry.virtual_s > 0
            assert telemetry.trace_entries >= 1

    def test_telemetry_false_restores_bare_results(self):
        results = Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=2, events=10), telemetry=False)
        assert all(r.telemetry is None for r in results)

    def test_parallel_workers_ship_telemetry_back(self):
        results = Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=3, events=50), workers=2)
        assert all(r.telemetry is not None for r in results)

    def test_telemetry_does_not_perturb_results(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=50)
        bare = campaign.run(configs, telemetry=False)
        timed = campaign.run(configs)
        assert [r.result for r in bare] == [r.result for r in timed]
        assert ([list(r.trace) for r in bare]
                == [list(r.trace) for r in timed])

    def test_derived_rates(self):
        telemetry = RunTelemetry(wall_s=2.0, events=100, virtual_s=500.0,
                                 trace_entries=7)
        assert telemetry.events_per_s == 50.0
        assert telemetry.virtual_per_wall == 250.0
        assert telemetry.as_dict()["events_per_s"] == 50.0

    def test_zero_wall_does_not_divide(self):
        telemetry = RunTelemetry(wall_s=0.0, events=5, virtual_s=1.0,
                                 trace_entries=0)
        assert telemetry.events_per_s == 0.0
        assert telemetry.virtual_per_wall == 0.0

    def test_negative_wall_guards_like_zero(self):
        # a clock that steps backwards (ntp, frozen perf counters on
        # some VMs) must degrade to 0.0, never a negative rate
        telemetry = RunTelemetry(wall_s=-0.5, events=5, virtual_s=1.0,
                                 trace_entries=0)
        assert telemetry.events_per_s == 0.0
        assert telemetry.virtual_per_wall == 0.0

    def test_as_dict_at_zero_duration_is_serializable(self):
        import json
        payload = RunTelemetry(wall_s=0.0, events=0, virtual_s=0.0,
                               trace_entries=0).as_dict()
        assert payload["events_per_s"] == 0.0
        json.dumps(payload)

    def test_from_dict_roundtrip(self):
        telemetry = RunTelemetry(wall_s=2.0, events=100, virtual_s=500.0,
                                 trace_entries=7)
        clone = RunTelemetry.from_dict(telemetry.as_dict())
        assert clone == telemetry
        assert clone.events_per_s == telemetry.events_per_s

    def test_from_dict_zero_duration_roundtrip(self):
        telemetry = RunTelemetry(wall_s=0.0, events=5, virtual_s=1.0,
                                 trace_entries=0)
        clone = RunTelemetry.from_dict(telemetry.as_dict())
        assert clone.events_per_s == 0.0
        assert clone.virtual_per_wall == 0.0


class TestScorecard:
    def test_one_row_per_config_plus_totals(self):
        results = Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=3, events=20))
        card = render_scorecard(results)
        for config in _sweep_configs(count=3, events=20):
            assert config["profile"] in card
        assert "3 config(s)" in card

    def test_results_without_telemetry_show_dashes(self):
        result = RunResult(config={"profile": "x"}, result=None,
                           trace=TraceRecorder())
        card = render_scorecard([result])
        assert "-" in card.splitlines()[2]
        assert "0 config(s)" in card

    def test_scorecard_flag_prints(self, capsys):
        results = Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=2, events=10))
        print(render_scorecard(results))
        out = capsys.readouterr().out
        assert "virt/wall" in out
        assert "2 config(s)" in out


class TestWorkerErrorNaming:
    def test_failed_config_is_named_in_notes(self):
        import pytest

        from tests.core.test_campaign_parallel import failing_body
        campaign = Campaign(failing_body, seed=7)
        with pytest.raises(RuntimeError, match="boom in vendor0") as info:
            campaign.run(_sweep_configs(count=2, events=1), workers=2)
        notes = getattr(info.value, "__notes__", [])
        assert any("campaign config [0]" in note for note in notes)
        assert any("vendor0" in note for note in notes)
