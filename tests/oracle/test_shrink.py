"""Shrinker properties: subsequence, verdict preservation, determinism."""

import pytest

from repro.core.checkpoint import CheckpointPool
from repro.oracle.fuzz import run_fuzz
from repro.oracle.shrink import (ReproArtifact, artifact_name, ddmin,
                                 make_artifact, replay_artifact,
                                 shrink_case, shrink_finding)


def is_subsequence(shorter, longer):
    it = iter(longer)
    return all(item in it for item in shorter)


# ----------------------------------------------------------------------
# ddmin on plain lists
# ----------------------------------------------------------------------

def test_ddmin_finds_a_minimal_subsequence():
    items = list(range(1, 9))
    result = ddmin(items, lambda cand: {3, 6} <= set(cand))
    assert result == [3, 6]


def test_ddmin_preserves_order():
    items = ["a", "b", "c", "d", "e"]
    result = ddmin(items, lambda cand: "d" in cand and "b" in cand)
    assert result == ["b", "d"]
    assert is_subsequence(result, items)


def test_ddmin_on_singleton_returns_it():
    assert ddmin([1], lambda cand: True) == [1]


def test_ddmin_never_calls_test_with_empty_input():
    calls = []

    def test(cand):
        calls.append(list(cand))
        return 5 in cand

    assert ddmin(list(range(10)), test) == [5]
    assert all(calls), "ddmin probed an empty candidate"


# ----------------------------------------------------------------------
# shrinking real findings (deterministic: seed 0 reaches violations)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def finding():
    report = run_fuzz("gmp", seed=0, budget=24)
    assert report.findings
    return report.findings[0]


def test_shrink_probes_fork_one_pooled_prefix(finding):
    pool = CheckpointPool()
    _shrunk, stats = shrink_case(finding.case, finding.codes[0],
                                 campaign_seed=0, pool=pool)
    assert stats.runs > 1
    assert (pool.stats()["misses"], pool.stats()["hits"]) \
        == (1, stats.runs - 1)


def test_shrink_forks_the_prefix_the_sweep_captured():
    # the sharing ``repro fuzz --save-repro`` relies on: one pool for
    # the checkpointed sweep and every finding's shrinker
    pool = CheckpointPool(max_items=8)
    report = run_fuzz("gmp", seed=0, budget=8, checkpoint_depth=8.0,
                      pool=pool)
    assert report.findings
    before = pool.stats()
    _artifact, stats = shrink_finding(report.findings[0], campaign_seed=0,
                                      pool=pool)
    after = pool.stats()
    assert after["items"] == before["items"]
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == stats.runs


def test_shrunk_script_is_a_violating_subsequence(finding):
    shrunk, stats = shrink_case(finding.case, finding.codes[0],
                                campaign_seed=0)
    assert is_subsequence(list(shrunk.script.clauses),
                          list(finding.case.script.clauses))
    assert stats.clauses_after <= stats.clauses_before
    assert stats.runs >= 1
    # the shrunk case still reports the target code
    artifact = make_artifact(shrunk, finding.codes[0], campaign_seed=0)
    assert finding.codes[0] in artifact.codes


def test_shrink_rejects_a_non_reproducing_code(finding):
    with pytest.raises(ValueError, match="does not reproduce"):
        shrink_case(finding.case, "TCP-STATE", campaign_seed=0)


def test_artifact_replays_identically_across_two_runs(finding):
    artifact, _stats = shrink_finding(finding, campaign_seed=0)
    first = replay_artifact(artifact)
    second = replay_artifact(artifact)
    assert first.ok, first.mismatches
    assert second.ok, second.mismatches
    assert first.observed_codes == second.observed_codes


def test_artifact_round_trips_through_json(tmp_path, finding):
    artifact, _stats = shrink_finding(finding, campaign_seed=0)
    path = artifact.save(tmp_path / artifact_name(artifact))
    loaded = ReproArtifact.load(path)
    assert loaded.to_dict() == artifact.to_dict()
    assert replay_artifact(path).ok


def test_artifact_version_is_checked(tmp_path, finding):
    artifact, _stats = shrink_finding(finding, campaign_seed=0)
    data = artifact.to_dict()
    data["version"] = 999
    with pytest.raises(ValueError, match="version"):
        ReproArtifact.from_dict(data)


def test_replay_detects_a_tampered_verdict(finding):
    artifact, _stats = shrink_finding(finding, campaign_seed=0)
    tampered = ReproArtifact(
        case=artifact.case, code=artifact.code,
        campaign_seed=artifact.campaign_seed, codes=artifact.codes,
        violation_count=artifact.violation_count + 1,
        fingerprints=artifact.fingerprints)
    result = replay_artifact(tampered)
    assert not result.ok
    assert any("violation count" in m for m in result.mismatches)


def test_artifact_names_are_content_addressed(finding):
    artifact, _stats = shrink_finding(finding, campaign_seed=0)
    name = artifact_name(artifact)
    assert name == artifact_name(artifact)  # rerun-stable
    assert name.startswith("gmp_")
    assert name.endswith(".json")
    assert artifact.code.lower() in name
