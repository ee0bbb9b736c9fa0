"""Versioned, fingerprint-keyed snapshots of solver state.

The ROADMAP's production setting — thousands of GPUs, 24-hour SLURM
walls — makes rank loss and wall-time eviction the common case, and the
iterative consumers (block CG, randomized posterior eig) otherwise lose
everything on one failure.
This module is the serialization half of the fault-tolerance story:

* :class:`CheckpointStore` — a store of :class:`Snapshot` objects keyed
  by ``(key, step)``.  In-memory by default, directory-backed (atomic
  ``.npz`` files) when given a ``root`` path, so a restarted process can
  resume from what an evicted one saved.
* Every snapshot carries a **schema version** and an **operator
  fingerprint** (e.g. :func:`repro.serve.cache.operator_fingerprint` of
  the Toeplitz kernel, or :func:`state_fingerprint` of whatever the
  caller's state derives from).  Loading validates both *before*
  returning any arrays: a mismatch raises a typed error naming the
  offending fingerprint — resuming block CG against a different operator
  would silently converge to a wrong answer, so silence is never an
  option.
* Arrays are copied on save and on load.  Resume paths rely on the
  snapshot being the exact bits of the solver state at the boundary;
  aliasing a live buffer that the solver keeps mutating would break the
  bitwise-resume guarantee.

Snapshot steps are monotonically increasing per key (``save`` without an
explicit ``step`` appends); ``load`` returns the latest step by default,
which is what a wall-time-evicted job wants on restart.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.util.validation import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointNotFoundError",
    "CheckpointFingerprintError",
    "CheckpointSchemaError",
    "Snapshot",
    "CheckpointStore",
    "state_fingerprint",
]

#: Current snapshot schema version.  Bump when the on-disk layout of
#: snapshots changes incompatibly; loads of other versions raise
#: :class:`CheckpointSchemaError` rather than guessing.
SCHEMA_VERSION = 1

_KEY_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_META_ENTRY = "__checkpoint_meta__"


class CheckpointError(ReproError):
    """Base class for checkpoint store errors."""


class CheckpointNotFoundError(CheckpointError):
    """No snapshot exists for the requested key/step."""


class CheckpointFingerprintError(CheckpointError):
    """Snapshot fingerprint does not match the operator being resumed.

    Carries both sides so callers (and test asserts) can see exactly
    which fingerprint was offending: ``expected`` is what the caller's
    live operator hashes to, ``found`` is what the snapshot was saved
    under.
    """

    def __init__(self, key: str, expected: str, found: str) -> None:
        self.key = key
        self.expected = expected
        self.found = found
        super().__init__(
            f"checkpoint {key!r} was saved for operator fingerprint "
            f"{found!r} but the caller is resuming fingerprint "
            f"{expected!r}; refusing to resume against a different operator"
        )


class CheckpointSchemaError(CheckpointError):
    """Snapshot schema version does not match :data:`SCHEMA_VERSION`."""

    def __init__(self, key: str, found_version: int, fingerprint: str) -> None:
        self.key = key
        self.found_version = int(found_version)
        self.expected_version = SCHEMA_VERSION
        self.fingerprint = fingerprint
        super().__init__(
            f"checkpoint {key!r} (fingerprint {fingerprint!r}) has schema "
            f"version {found_version}, this build reads version "
            f"{SCHEMA_VERSION}; refusing to resume"
        )

    @classmethod
    def incomplete(cls, key: str, missing: str) -> "CheckpointSchemaError":
        """A state of this build's schema version that lacks ``missing``
        — a layout no current writer produces.  Resuming it would mean
        guessing the missing fields, so it is refused like a version
        mismatch."""
        err = cls.__new__(cls)
        err.key, err.fingerprint = key, ""
        err.found_version = err.expected_version = SCHEMA_VERSION
        CheckpointError.__init__(
            err, f"checkpoint {key!r} lacks {missing}; refusing to resume"
        )
        return err


def state_fingerprint(*parts) -> str:
    """Stable 16-hex digest of arbitrary state parts.

    Accepts arrays (hashed by shape + bytes), strings, and anything with
    a stable ``repr``.  The checkpoint-side counterpart of
    :func:`repro.serve.cache.operator_fingerprint` for state that is not
    a Toeplitz kernel (e.g. a posterior eig's operator and sketch size).
    """
    import hashlib

    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(repr((a.shape, str(a.dtype))).encode())
            h.update(a.tobytes())
        elif isinstance(part, (bytes, bytearray)):
            h.update(bytes(part))
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Snapshot:
    """One saved solver state: arrays plus identifying metadata."""

    key: str
    step: int
    fingerprint: str
    schema_version: int
    meta: Dict[str, object] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise CheckpointError(
            f"checkpoint key must match {_KEY_RE.pattern!r}, got {key!r}"
        )
    return key


class CheckpointStore:
    """Store of versioned, fingerprint-keyed solver snapshots.

    Parameters
    ----------
    root:
        Directory to persist snapshots under (created on first save).
        ``None`` keeps everything in memory — same semantics, no disk;
        the chaos tests use this mode, the SLURM-restart story uses a
        path on the parallel filesystem.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = None if root is None else str(root)
        # key -> {step -> Snapshot}; for directory stores this is a
        # write-through cache of what save() produced this process.
        self._mem: Dict[str, Dict[int, Snapshot]] = {}

    # -- save -----------------------------------------------------------------
    def save(
        self,
        key: str,
        arrays: Dict[str, np.ndarray],
        *,
        fingerprint: str,
        step: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> Snapshot:
        """Persist one snapshot; returns the stored :class:`Snapshot`.

        ``step=None`` appends after the latest existing step (starting
        at 0).  Arrays are copied — the caller's live buffers may keep
        mutating.  ``meta`` must be JSON-serializable.
        """
        _check_key(key)
        if not isinstance(fingerprint, str) or not fingerprint:
            raise CheckpointError(
                f"fingerprint must be a non-empty string, got {fingerprint!r}"
            )
        if step is None:
            latest = self.latest_step(key)
            step = 0 if latest is None else latest + 1
        step = int(step)
        if step < 0:
            raise CheckpointError(f"step must be >= 0, got {step}")
        copied = {}
        for name, arr in arrays.items():
            if name == _META_ENTRY:
                raise CheckpointError(f"array name {name!r} is reserved")
            # np.array(copy=True), not ascontiguousarray: the latter
            # aliases an already-contiguous input, and the caller's live
            # buffer keeps mutating after this save returns.
            copied[str(name)] = np.array(arr, order="C", copy=True)
        snap = Snapshot(
            key=key,
            step=step,
            fingerprint=fingerprint,
            schema_version=SCHEMA_VERSION,
            meta=dict(meta or {}),
            arrays=copied,
        )
        if self.root is not None:
            self._write_file(snap)
        self._mem.setdefault(key, {})[step] = snap
        return snap

    def _path(self, key: str, step: int) -> str:
        return os.path.join(self.root, key, f"step-{step:08d}.npz")

    def _write_file(self, snap: Snapshot) -> None:
        header = json.dumps(
            {
                "schema_version": snap.schema_version,
                "fingerprint": snap.fingerprint,
                "key": snap.key,
                "step": snap.step,
                "meta": snap.meta,
            }
        )
        payload = dict(snap.arrays)
        payload[_META_ENTRY] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
        path = self._path(snap.key, snap.step)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Write-then-rename: a job killed mid-save must never leave a
        # truncated snapshot where load() would find it.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- load -----------------------------------------------------------------
    def load(
        self,
        key: str,
        *,
        expect_fingerprint: Optional[str] = None,
    ) -> Snapshot:
        """Return the latest snapshot, validating schema version and
        fingerprint.  Raises
        :class:`CheckpointSchemaError` on a schema-version mismatch and
        :class:`CheckpointFingerprintError` when ``expect_fingerprint``
        is given and differs from the stored one — both *before* any
        state reaches the caller, so a resume can never silently run
        against the wrong operator or layout.
        """
        _check_key(key)
        step = self.latest_step(key)
        if step is None:
            raise CheckpointNotFoundError(f"no snapshots for key {key!r}")
        snap = self._mem.get(key, {}).get(step)
        if snap is None and self.root is not None:
            snap = self._read_file(key, step)
        if snap is None:
            raise CheckpointNotFoundError(
                f"no snapshot for key {key!r} at step {step}"
            )
        if snap.schema_version != SCHEMA_VERSION:
            raise CheckpointSchemaError(key, snap.schema_version, snap.fingerprint)
        if expect_fingerprint is not None and snap.fingerprint != expect_fingerprint:
            raise CheckpointFingerprintError(key, expect_fingerprint, snap.fingerprint)
        # Hand out copies: resume mutates these arrays in place and must
        # not corrupt the stored snapshot for a later retry.
        return Snapshot(
            key=snap.key,
            step=snap.step,
            fingerprint=snap.fingerprint,
            schema_version=snap.schema_version,
            meta=dict(snap.meta),
            arrays={name: arr.copy() for name, arr in snap.arrays.items()},
        )

    def _read_file(self, key: str, step: int) -> Optional[Snapshot]:
        path = self._path(key, step)
        if not os.path.exists(path):
            return None
        with np.load(path, allow_pickle=False) as data:
            raw = {name: data[name] for name in data.files}
        header_arr = raw.pop(_META_ENTRY, None)
        if header_arr is None:
            raise CheckpointError(f"snapshot file {path} has no metadata entry")
        header = json.loads(bytes(header_arr.tobytes()).decode("utf-8"))
        return Snapshot(
            key=key,
            step=step,
            fingerprint=str(header.get("fingerprint", "")),
            schema_version=int(header.get("schema_version", -1)),
            meta=dict(header.get("meta", {})),
            arrays=raw,
        )

    # -- enumeration / deletion ----------------------------------------------
    def steps(self, key: str) -> Tuple[int, ...]:
        """All stored steps for ``key``, ascending (empty when none)."""
        _check_key(key)
        found = set(self._mem.get(key, {}))
        if self.root is not None:
            keydir = os.path.join(self.root, key)
            if os.path.isdir(keydir):
                for name in os.listdir(keydir):
                    m = re.fullmatch(r"step-(\d{8})\.npz", name)
                    if m:
                        found.add(int(m.group(1)))
        return tuple(sorted(found))

    def latest_step(self, key: str) -> Optional[int]:
        """Highest stored step for ``key``, or None when absent."""
        steps = self.steps(key)
        return steps[-1] if steps else None

    def keys(self) -> Tuple[str, ...]:
        """All keys with at least one snapshot, sorted."""
        found = {k for k, steps in self._mem.items() if steps}
        if self.root is not None and os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if os.path.isdir(os.path.join(self.root, name)) and _KEY_RE.fullmatch(
                    name
                ):
                    if self.steps(name):
                        found.add(name)
        return tuple(sorted(found))

    def __contains__(self, key: str) -> bool:
        return bool(self.steps(key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.root or "memory"
        return f"CheckpointStore({where!r}, keys={len(self.keys())})"
