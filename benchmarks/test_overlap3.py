"""Three-stream fused schedule bench: host/device/network concurrent.

The ISSUE-8 tentpole acceptance: fusing the host stream (per-vector
source generation + result saving) into the grid chunk schedule must

* leave the numerics **bitwise-identical** to the host-free engine —
  the host stream only moves charged time,
* charge a wall **strictly below** the two-stream schedule plus the
  serial host total (a host-less engine's wall plus ``k *
  host.per_vector``) at every scale, while a serial (``overlap=False``)
  host apply charges exactly the serial device wall plus that host
  total (to the order of the additions),
* beat the two-stream + serial-host model at all of 64–4096 GPUs in
  the at-scale model, strictly at 4096.

Emits ``BENCH_overlap3.json`` and asserts these facts on what it wrote,
at full size and at tiny sizes (``REPRO_BENCH_TINY=1``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI300X
from repro.perf.scaling import blocked_matvec_time_at_scale, paper_config_for
from repro.util.timing import HostModel

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (48, 64, 384)
PR, PC, K, MBK = 2, 2, 16, 4

HOST = HostModel(gen_time=50e-6, save_time=100e-6)
SCALE_PS = (64, 256, 1024, 4096)
SCALE_ROWS = {64: 1, 256: 2, 1024: 8, 4096: 16}

ARTIFACT = Path(__file__).parent / "BENCH_overlap3.json"


def make_engine(**kw):
    kw.setdefault("max_block_k", MBK)
    rng = np.random.default_rng(1234)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(matrix, grid, spec=MI300X, **kw)
    block = rng.standard_normal((NT, NM, K))
    return eng, grid, block


class TestOverlap3Bench:
    def test_engine_fused_schedule_with_artifact(self):
        base, grid0, block = make_engine()
        t0 = grid0.clock.now
        out_base = base.matmat(block)
        wall2 = grid0.clock.now - t0

        host_total = K * HOST.per_vector
        wall_two = wall2 + host_total  # the two-stream + serial-host baseline

        fused, grid3, _ = make_engine(host=HOST)
        t0 = grid3.clock.now
        out_fused = fused.matmat(block)
        wall3 = grid3.clock.now - t0

        # Serial applies: each chunk is gen -> bcast -> compute -> reduce
        # -> save, so the host seconds add to the serial device wall.
        walls_serial = {}
        for host in (None, HOST):
            eng, grid, _ = make_engine(host=host)
            t0 = grid.clock.now
            out_serial = eng.matmat(block, overlap=False)
            walls_serial[host] = grid.clock.now - t0

        # Bitwise numerics; exact serial charge; strict fused win.
        assert np.array_equal(out_serial, out_base)
        assert np.array_equal(out_fused, out_base)
        assert walls_serial[HOST] == pytest.approx(
            walls_serial[None] + host_total, rel=1e-12
        )
        assert wall3 < wall_two
        assert wall3 >= wall2

        # At-scale model: fused three-stream vs two-stream + serial host.
        scale_rows = []
        for p in SCALE_PS:
            cfg = paper_config_for(p)
            t = blocked_matvec_time_at_scale(
                p, SCALE_ROWS[p], cfg, k=K, max_block_k=MBK, host=HOST
            )
            assert t["overlapped3"] <= t["two_stream_host"], p
            scale_rows.append({
                "p": p,
                "config": str(cfg),
                "two_stream_host_s": t["two_stream_host"],
                "overlapped3_s": t["overlapped3"],
                "hidden_host_s": t["hidden_host"],
                "speedup": t["two_stream_host"] / t["overlapped3"],
            })
        assert scale_rows[-1]["overlapped3_s"] < scale_rows[-1]["two_stream_host_s"]

        hidden = wall_two - wall3
        print(f"\ngrid {PR}x{PC}, k={K}, host {HOST.per_vector * 1e6:.0f} us/vec:")
        print(
            f"  engine: two-stream+host {wall_two * 1e3:.3f} ms -> fused "
            f"{wall3 * 1e3:.3f} ms ({wall_two / wall3:.3f}x, "
            f"{hidden * 1e6:.1f} us hidden)"
        )
        for row in scale_rows:
            print(
                f"  model p={row['p']:>4} ({row['config']}): "
                f"{row['two_stream_host_s'] * 1e3:.3f} ms -> "
                f"{row['overlapped3_s'] * 1e3:.3f} ms ({row['speedup']:.3f}x)"
            )

        ARTIFACT.write_text(json.dumps({
            "bench": "overlap3",
            "grid": f"{PR}x{PC}",
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K, "max_block_k": MBK},
            "host": {"gen_time_s": HOST.gen_time, "save_time_s": HOST.save_time},
            "engine_two_stream_s": wall2,
            "engine_two_stream_host_s": wall_two,
            "engine_overlap3_s": wall3,
            "engine_hidden_host_s": hidden,
            "engine_speedup": wall_two / wall3,
            "serial_host_charge_exact": True,
            "bitwise_identical": True,
            "at_scale": scale_rows,
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["bitwise_identical"], data
        assert data["serial_host_charge_exact"], data
        assert data["engine_speedup"] > 1.0, data
        assert all(row["speedup"] >= 1.0 for row in data["at_scale"]), data
        assert data["at_scale"][-1]["speedup"] > 1.0, data

    def test_fused_pairwise_keeps_bitwise_guarantee(self):
        # The two tentpole halves compose: pairwise + fused host is
        # bitwise the single-device pairwise result.
        from repro.core.matvec import FFTMatvec

        eng, _, block = make_engine(reduction="pairwise", host=HOST)
        rng = np.random.default_rng(1234)
        matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
        ref = FFTMatvec(matrix, reduction="pairwise").matmat(block)
        assert np.array_equal(eng.matmat(block), ref)

    def test_host_charge_invariant_to_chunking(self):
        # The host stream charges per vector: total host seconds must
        # not depend on max_block_k.
        for mbk in (2, 8):
            eng, _, block = make_engine(host=HOST, max_block_k=mbk)
            eng.matmat(block)
            assert eng.last_timing.phases["host"] == pytest.approx(
                K * HOST.per_vector, abs=1e-15
            )
