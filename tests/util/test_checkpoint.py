"""CheckpointStore: versioning, fingerprints, atomic persistence.

The versioning satellite of the fault-tolerance PR: a mismatched
fingerprint or schema version must raise a *typed* error that names the
offending fingerprint — resuming block CG against the wrong operator
would silently converge to a wrong answer, so silence is never an
option.
"""

import os

import numpy as np
import pytest

from repro.util.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointFingerprintError,
    CheckpointNotFoundError,
    CheckpointSchemaError,
    CheckpointStore,
    Snapshot,
    state_fingerprint,
)


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return CheckpointStore()
    return CheckpointStore(root=str(tmp_path / "ckpt"))


def test_save_load_roundtrip_bitwise(store, rng):
    arrays = {
        "X": rng.standard_normal((4, 3)),
        "iteration": np.array(7, dtype=np.int64),
    }
    store.save("cg", arrays, fingerprint="f" * 16)
    snap = store.load("cg", expect_fingerprint="f" * 16)
    assert snap.step == 0
    assert snap.fingerprint == "f" * 16
    assert snap.schema_version == SCHEMA_VERSION
    assert np.array_equal(snap.arrays["X"], arrays["X"])
    assert int(np.asarray(snap.arrays["iteration"]).reshape(-1)[0]) == 7


def test_saved_arrays_are_copies(store):
    live = np.zeros(4)
    store.save("k", {"a": live}, fingerprint="fp")
    live[:] = 99.0  # the solver keeps mutating its buffers
    assert np.array_equal(store.load("k").arrays["a"], np.zeros(4))
    # ...and loads hand out copies too.
    first = store.load("k").arrays["a"]
    first[:] = -1.0
    assert np.array_equal(store.load("k").arrays["a"], np.zeros(4))


def test_steps_append_and_the_latest_loads(store):
    store.save("k", {"a": np.ones(1)}, fingerprint="fp")
    store.save("k", {"a": np.ones(1) * 2}, fingerprint="fp")
    store.save("k", {"a": np.ones(1) * 9}, fingerprint="fp", step=9)
    assert store.steps("k") == (0, 1, 9)
    assert store.latest_step("k") == 9
    assert store.load("k").arrays["a"][0] == 9.0


def test_fingerprint_mismatch_raises_typed_error(store):
    store.save("cg", {"a": np.ones(2)}, fingerprint="aaaa")
    with pytest.raises(CheckpointFingerprintError) as exc_info:
        store.load("cg", expect_fingerprint="bbbb")
    err = exc_info.value
    # The offending fingerprint is carried, not just prose.
    assert err.expected == "bbbb"
    assert err.found == "aaaa"
    assert err.key == "cg"
    assert "aaaa" in str(err) and "bbbb" in str(err)
    assert isinstance(err, CheckpointError)


def test_schema_mismatch_raises_typed_error(store):
    store.save("cg", {"a": np.ones(2)}, fingerprint="aaaa")
    # Forge a future-schema snapshot the way an old build would find one.
    snap = store._mem["cg"][0]
    forged = Snapshot(
        key=snap.key,
        step=snap.step,
        fingerprint=snap.fingerprint,
        schema_version=SCHEMA_VERSION + 1,
        arrays=snap.arrays,
    )
    store._mem["cg"][0] = forged
    if store.root is not None:
        store._write_file(forged)
    with pytest.raises(CheckpointSchemaError) as exc_info:
        store.load("cg")
    err = exc_info.value
    assert err.found_version == SCHEMA_VERSION + 1
    assert err.expected_version == SCHEMA_VERSION
    assert err.fingerprint == "aaaa"
    # Schema is checked before the fingerprint: even a caller that
    # expected the right fingerprint must not get arrays back.
    with pytest.raises(CheckpointSchemaError):
        store.load("cg", expect_fingerprint="aaaa")


def test_missing_key(store):
    with pytest.raises(CheckpointNotFoundError):
        store.load("nothing-here")


def test_contains_steps_and_keys(store):
    assert "k" not in store and store.keys() == ()
    store.save("k", {"a": np.ones(1)}, fingerprint="fp")
    store.save("k", {"a": np.ones(1)}, fingerprint="fp")
    assert "k" in store
    assert store.steps("k") == (0, 1)
    assert store.keys() == ("k",)


def test_invalid_keys_and_inputs(store):
    with pytest.raises(CheckpointError):
        store.save("../escape", {"a": np.ones(1)}, fingerprint="fp")
    with pytest.raises(CheckpointError):
        store.save("k", {"a": np.ones(1)}, fingerprint="")
    with pytest.raises(CheckpointError):
        store.save("k", {"__checkpoint_meta__": np.ones(1)}, fingerprint="fp")
    with pytest.raises(CheckpointError):
        store.save("k", {"a": np.ones(1)}, fingerprint="fp", step=-1)


def test_disk_store_survives_process_restart(tmp_path, rng):
    root = str(tmp_path / "ckpt")
    a = rng.standard_normal((3, 5))
    CheckpointStore(root=root).save(
        "solver", {"a": a}, fingerprint="fp16"
    )
    # A fresh store (fresh process after eviction) reads the same bits.
    reborn = CheckpointStore(root=root)
    snap = reborn.load("solver", expect_fingerprint="fp16")
    assert np.array_equal(snap.arrays["a"], a)
    assert reborn.keys() == ("solver",)


def test_disk_write_is_atomic(tmp_path):
    root = str(tmp_path / "ckpt")
    store = CheckpointStore(root=root)
    store.save("k", {"a": np.ones(4)}, fingerprint="fp")
    keydir = os.path.join(root, "k")
    # No .tmp residue: the write-then-rename either lands or vanishes.
    assert sorted(os.listdir(keydir)) == ["step-00000000.npz"]


def test_state_fingerprint_stability(rng):
    a = rng.standard_normal((4, 4))
    fp = state_fingerprint(a, "ddddd", 0.1)
    assert fp == state_fingerprint(a.copy(), "ddddd", 0.1)
    assert fp != state_fingerprint(a + 1e-16, "ddddd", 0.1) or np.array_equal(
        a, a + 1e-16
    )
    assert fp != state_fingerprint(a, "ddddd", 0.2)
    assert len(fp) == 16
