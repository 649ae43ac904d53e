"""ResultStore: multi-writer atomicity and probe-based resume."""

import pickle

import pytest

from repro.core.fabric import ResultStore, SweepSpec
from repro.core.orchestrator import Campaign, _execute
from tests.fabric.rig import (DEFAULT_SEED, campaign_ends, chaos_body,
                              failing_body, make_configs, make_spec,
                              merged_stable_keys, serial_stable_keys)


def _result(item=0):
    return _execute(chaos_body, 1, {"item": item, "ticks": 2})


def test_put_has_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = make_spec(3)
    keys = spec.store_keys(store)
    assert not store.has(keys[0])
    result = _result(0)
    assert store.put(keys[0], result)
    assert store.has(keys[0])
    loaded = store.get(keys[0])
    assert loaded.config == result.config
    assert loaded.result == result.result


def test_missing_returns_todo_indices_in_order(tmp_path):
    store = ResultStore(tmp_path / "store")
    keys = make_spec(4).store_keys(store)
    store.put(keys[1], _result(1))
    store.put(keys[3], _result(3))
    assert store.missing(keys) == [0, 2]
    store.put(keys[0], _result(0))
    store.put(keys[2], _result(2))
    assert store.missing(keys) == []


def test_unreadable_entry_counts_as_missing(tmp_path):
    # one done predicate: has/missing agree with get on a corrupt row
    store = ResultStore(tmp_path / "store")
    keys = make_spec(2).store_keys(store)
    store.put(keys[0], _result(0))
    store.put(keys[1], _result(1))
    store._path(keys[1]).write_bytes(b"not a pickle")
    assert store.get(keys[1]) is None
    assert not store.has(keys[1])
    assert store.missing(keys) == [1]
    assert store.put(keys[1], _result(1))
    assert store.missing(keys) == []


def test_concurrent_writers_never_leave_temp_debris(tmp_path):
    # two store objects simulate two worker processes racing on one key
    a = ResultStore(tmp_path / "store")
    b = ResultStore(tmp_path / "store")
    key = make_spec(1).store_keys(a)[0]
    assert a.put(key, _result(0))
    assert b.put(key, _result(0))
    assert a.has(key) and b.has(key)
    leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
    assert leftovers == []


def test_unpicklable_result_refused_not_crashed(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = make_spec(1).store_keys(store)[0]

    class Hostile:
        def __reduce__(self):
            raise pickle.PicklingError("no")

    result = _result(0)
    result.result = Hostile()
    assert store.put(key, result) is False
    assert not store.has(key)


def test_store_interoperates_with_plain_runcache(tmp_path):
    # a serial Campaign.run(cache=store) warms the same directory a
    # fabric sweep resumes from: keys must agree
    store = ResultStore(tmp_path / "store")
    spec = make_spec(2)
    fabric_keys = spec.store_keys(store)
    assert ResultStore.keys(spec.body, spec.seed, spec.configs,
                            telemetry=spec.telemetry,
                            oracle=spec.oracle) == fabric_keys
    Campaign(spec.body, seed=spec.seed, lint="off").run(
        spec.configs, cache=store)
    assert store.missing(fabric_keys) == []


def test_failed_local_sweep_keeps_rows_for_a_sockets_resume(
        tmp_path, monkeypatch):
    # rows are stored as they complete: a local fabric_dir sweep that
    # dies at index 3 of 6 leaves 3 rows, and the sockets resume that
    # follows executes exactly the 3 that remain
    fabric_dir = tmp_path / "fabric"
    configs = make_configs(6)
    campaign = Campaign(failing_body, seed=DEFAULT_SEED, lint="off")
    monkeypatch.setenv("RIG_FAIL_ITEM", "3")
    with pytest.raises(RuntimeError, match="planted failure"):
        campaign.run(configs, fabric_dir=fabric_dir)
    store = ResultStore(fabric_dir / "store")
    keys = store.keys(failing_body, DEFAULT_SEED, configs, telemetry=True)
    assert store.missing(keys) == [3, 4, 5]
    monkeypatch.delenv("RIG_FAIL_ITEM")
    results = campaign.run(configs, workers=2, backend="sockets",
                           fabric_dir=fabric_dir)
    assert [r.result["item"] for r in results] == list(range(6))
    end = campaign_ends(fabric_dir)[-1]
    assert (end["status"], end["executed"], end["cached"]) == ("ok", 3, 3)


def test_corrupt_row_is_rerun_on_sockets_resume(tmp_path):
    # an unreadable row is missing on the sockets backend too: the
    # resume re-executes and overwrites it instead of raising
    fabric_dir = tmp_path / "fabric"
    campaign = Campaign(chaos_body, seed=DEFAULT_SEED, lint="off")
    campaign.run(make_configs(4), workers=2, backend="sockets",
                 fabric_dir=fabric_dir)
    victim = sorted((fabric_dir / "store").rglob("*.pkl"))[0]
    victim.write_bytes(b"not a pickle")
    results = campaign.run(make_configs(4), workers=2, backend="sockets",
                           fabric_dir=fabric_dir)
    assert [r.result["item"] for r in results] == list(range(4))
    end = campaign_ends(fabric_dir)[-1]
    assert (end["status"], end["executed"], end["cached"]) == ("ok", 1, 3)
    rewritten = pickle.loads(victim.read_bytes())
    assert rewritten.result == results[rewritten.config["item"]].result
    assert merged_stable_keys(fabric_dir) == \
        serial_stable_keys(4, tmp_path)


def test_spec_digest_stable_across_save_load_cycles(tmp_path):
    spec = make_spec(3)
    path = tmp_path / "spec.pkl"
    spec.save(path)
    first = SweepSpec.load(path)
    second = SweepSpec.load(path)
    assert spec.digest() == first.digest() == second.digest()
    # and across a re-save of a loaded spec (pickle memo layouts differ;
    # the digest must not care)
    first.save(tmp_path / "respec.pkl")
    assert SweepSpec.load(tmp_path / "respec.pkl").digest() == spec.digest()


def test_spec_digest_distinguishes_content(tmp_path):
    base = make_spec(3)
    assert make_spec(4).digest() != base.digest()
    assert make_spec(3, seed=2).digest() != base.digest()
