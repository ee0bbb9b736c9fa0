"""Per-backend engine bench: simulated + real wall-clock per backend.

Runs the same :class:`FFTMatvec` workload (one matvec and one ``k = 8``
blocked matmat) on every *available* backend — numpy always, torch
when its probe passes — and emits ``BENCH_backend.json`` with, per
backend:

* ``simulated_matvec_s`` / ``simulated_matmat_s`` — the modeled device
  time from the simulated clock.  Backend choice must not move these:
  kernels charge time from problem sizes, never array contents, so the
  bench asserts every backend's simulated columns match numpy's exactly.
* ``wall_matvec_s`` / ``wall_matmat_s`` — real host wall-clock
  (``time.perf_counter`` around the apply), which *does* vary by
  backend: that is the number a torch run is trying to improve.
* ``rel_err_*`` — parity against the numpy reference results.

It reads the artifact back and asserts its schema, that the numpy row
leads, and, when torch imports, that a torch row follows.
``REPRO_BENCH_TINY=1`` shrinks the problem; the assertions are the same.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.backend import available_backends, resolve_backend
from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 4, 24) if TINY else (128, 12, 256)
K = 8
REPS = 2 if TINY else 5

ARTIFACT = Path(__file__).parent / "BENCH_backend.json"


def _build(backend_name: str) -> FFTMatvec:
    rng = np.random.default_rng(42)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    return FFTMatvec(
        matrix,
        device=SimulatedDevice(MI300X),
        backend=resolve_backend(backend_name),
    )


def _torch_imports() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _bench_backend(name: str, m: np.ndarray, M: np.ndarray) -> dict:
    engine = _build(name)
    be = engine.backend

    # Warmup (also the parity measurement) outside the timed loop.
    d_vec = be.from_device(engine.matvec(m))
    sim_matvec = engine.last_timing.total
    d_blk = be.from_device(engine.matmat(M))
    sim_matmat = engine.last_timing.total

    t0 = time.perf_counter()
    for _ in range(REPS):
        engine.matvec(m)
    be.synchronize()
    wall_matvec = (time.perf_counter() - t0) / REPS

    t0 = time.perf_counter()
    for _ in range(REPS):
        engine.matmat(M)
    be.synchronize()
    wall_matmat = (time.perf_counter() - t0) / REPS

    return {
        "backend": name,
        "is_device": bool(be.is_device),
        "simulated_matvec_s": sim_matvec,
        "simulated_matmat_s": sim_matmat,
        "wall_matvec_s": wall_matvec,
        "wall_matmat_s": wall_matmat,
        "_d_vec": d_vec,
        "_d_blk": d_blk,
    }


class TestBackendBench:
    def test_backends_with_artifact(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((NT, NM))
        M = rng.standard_normal((NT, NM, K))

        probes = available_backends()
        rows = [_bench_backend("numpy", m, M)]
        for name, (ok, _reason) in probes.items():
            if name != "numpy" and ok:
                rows.append(_bench_backend(name, m, M))

        ref_vec, ref_blk = rows[0]["_d_vec"], rows[0]["_d_blk"]
        for row in rows:
            row["rel_err_matvec"] = _rel_err(row.pop("_d_vec"), ref_vec)
            row["rel_err_matmat"] = _rel_err(row.pop("_d_blk"), ref_blk)

        for row in rows:
            print(
                f"\n{row['backend']:>6}: simulated matvec "
                f"{row['simulated_matvec_s'] * 1e3:.3f} ms / wall "
                f"{row['wall_matvec_s'] * 1e3:.3f} ms; matmat simulated "
                f"{row['simulated_matmat_s'] * 1e3:.3f} ms / wall "
                f"{row['wall_matmat_s'] * 1e3:.3f} ms "
                f"(rel err {row['rel_err_matmat']:.2e})"
            )

        ARTIFACT.write_text(json.dumps({
            "bench": "backend",
            "tiny": TINY,
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K},
            "reps": REPS,
            "probes": {n: {"available": ok, "reason": r}
                       for n, (ok, r) in probes.items()},
            "backends": rows,
        }, indent=2) + "\n")

        data = json.loads(ARTIFACT.read_text())
        names = [r["backend"] for r in data["backends"]]
        assert names[0] == "numpy", names
        assert data["probes"]["numpy"]["available"], data["probes"]
        assert set(data["probes"]) == {"torch", "numpy"}, data["probes"]
        if _torch_imports():
            assert names[0] == "numpy" and "torch" in names, names
        ref_row = data["backends"][0]
        sim_ref = (ref_row["simulated_matvec_s"], ref_row["simulated_matmat_s"])
        for row in data["backends"]:
            # Simulated time is backend-invariant; parity is tolerance-
            # tiered (double everywhere -> a few ulps across FFT libs).
            assert row["simulated_matvec_s"] == sim_ref[0]
            assert row["simulated_matmat_s"] == sim_ref[1]
            assert row["rel_err_matvec"] < 1e-10
            assert row["rel_err_matmat"] < 1e-10
            assert row["wall_matvec_s"] > 0 and row["wall_matmat_s"] > 0
