"""Shared utilities: precision/dtype handling, timing, validation, tables.

These utilities are deliberately free of any dependency on the simulated
GPU or communication substrates so that every other subpackage can import
them without cycles.
"""

from repro.util.dtypes import (
    Precision,
    complex_dtype,
    real_dtype,
    machine_eps,
    lowest,
    fill_low_mantissa,
)
from repro.util.timing import SimClock, Timeline, Stream, Event, TimingReport
from repro.util.validation import (
    check_positive_int,
    check_array,
    ReproError,
)
from repro.util.tables import render_table
from repro.util.checkpoint import (
    CheckpointError,
    CheckpointFingerprintError,
    CheckpointNotFoundError,
    CheckpointSchemaError,
    CheckpointStore,
    Snapshot,
    state_fingerprint,
)

__all__ = [
    "Precision",
    "complex_dtype",
    "real_dtype",
    "machine_eps",
    "lowest",
    "fill_low_mantissa",
    "SimClock",
    "Timeline",
    "Stream",
    "Event",
    "TimingReport",
    "check_positive_int",
    "check_array",
    "ReproError",
    "render_table",
    "CheckpointError",
    "CheckpointFingerprintError",
    "CheckpointNotFoundError",
    "CheckpointSchemaError",
    "CheckpointStore",
    "Snapshot",
    "state_fingerprint",
]
