"""Custom 3-D permutation kernel (the cuTENSOR replacement).

Paper Section 3.1: cuTENSOR v2's complex-double permutation has no
hipTensor counterpart, so FFTMatvec replaces it with a custom GPU kernel
— "a modification of the one developed in [Jodra et al. 2015] to avoid
overflowing the maximum number of grid blocks that can be launched in
the y and z dimensions".  It runs once in the setup phase (reordering
the Toeplitz kernel blocks into the frequency-major layout the batched
SBGEMV wants) and is not performance-critical.

This module reproduces both halves of that story:

* :func:`permute3d` — the numeric permutation (vectorized NumPy) with a
  launch-geometry model;
* :func:`tiled_launch_geometry` — the paper's fix: fold the large
  extents into grid.x tiles so y/z stay bounded.

Tests verify that the textbook Jodra-style launch, which maps tensor
extents directly onto grid (x, y, z), really is rejected by the device
at paper scale while the tiled geometry passes, which is precisely why
the custom kernel exists.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.gpu.bandwidth import stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util.validation import ReproError, check_array

__all__ = [
    "permute3d",
    "tiled_launch_geometry",
    "PERMUTE_KERNEL_NAME",
]

PERMUTE_KERNEL_NAME = "fftmatvec_permute_kernel"

_TILE = 256  # elements per gridblock along the folded dimension


def _check_perm(perm: Sequence[int]) -> Tuple[int, int, int]:
    p = tuple(int(i) for i in perm)
    if sorted(p) != [0, 1, 2]:
        raise ReproError(f"perm must be a permutation of (0,1,2), got {perm}")
    return p  # type: ignore[return-value]


def tiled_launch_geometry(shape: Sequence[int], spec: GPUSpec) -> Dim3:
    """The paper's modified launch: fold oversized extents into grid.x.

    grid.y and grid.z are clamped to the device limits and the residual
    factor is multiplied into grid.x (each block recovers its logical
    coordinates from the flattened index).
    """
    a, b, c = (int(s) for s in shape)
    max_y, max_z = spec.max_grid[1], spec.max_grid[2]
    y = min(max(1, b), max_y)
    z = min(max(1, a), max_z)
    fold = math.ceil(b / y) * math.ceil(a / z)
    x = max(1, math.ceil(c / _TILE)) * fold
    return Dim3(x=x, y=y, z=z)


def permute3d(
    tensor: np.ndarray,
    perm: Sequence[int],
    device: Optional[SimulatedDevice] = None,
    phase: str = "setup",
) -> np.ndarray:
    """Permute a rank-3 tensor's axes with the custom kernel.

    Numerically a contiguous transpose; on a simulated device it charges
    one tiled-geometry kernel launch (validated against the device's
    grid limits — the naive geometry would be rejected at scale).
    """
    t = check_array(tensor, "tensor", ndim=3)
    p = _check_perm(perm)
    out = np.ascontiguousarray(np.transpose(t, p))
    if device is not None:
        geometry = tiled_launch_geometry(t.shape, device.spec)
        traffic = float(t.nbytes + out.nbytes)
        kernel = KernelLaunch(
            name=PERMUTE_KERNEL_NAME,
            grid=geometry,
            block=Dim3(x=256),
            bytes_read=float(t.nbytes),
            bytes_written=float(out.nbytes),
            # permutations are strided on one side: ~0.7 of streaming
            efficiency_hint=stream_efficiency(traffic, device.spec) * 0.7,
        )
        device.launch(kernel, phase=phase)
    return out
