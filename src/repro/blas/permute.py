"""Custom 3-D permutation kernel (the cuTENSOR replacement).

Paper Section 3.1: cuTENSOR v2's complex-double permutation has no
hipTensor counterpart, so FFTMatvec replaces it with a custom GPU kernel
— "a modification of the one developed in [Jodra et al. 2015] to avoid
overflowing the maximum number of grid blocks that can be launched in
the y and z dimensions".  It runs once in the setup phase (reordering
the Toeplitz kernel blocks into the frequency-major layout the batched
SBGEMV wants).  The spectrum build runs it panel by panel of columns
(:meth:`~repro.core.toeplitz.BlockTriangularToeplitz.spectrum`), and a
simulated device books the two whole-shape launches once.

This module reproduces both halves of that story:

* :func:`permute3d` — the numeric permutation (vectorized NumPy), and
  :func:`permute_launch` — the launch a device books for it;
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
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util.validation import ReproError, check_array

__all__ = [
    "permute3d",
    "permute_launch",
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


def permute_launch(shape: Sequence[int], itemsize: int, spec: GPUSpec) -> KernelLaunch:
    """The custom kernel's launch permuting a rank-3 tensor of ``shape``
    (``itemsize`` bytes per element) on ``spec``: one tiled-geometry
    launch, validated against the device's grid limits when booked (the
    naive geometry would be rejected at scale)."""
    nbytes = float(math.prod(int(s) for s in shape) * int(itemsize))
    return KernelLaunch(
        name=PERMUTE_KERNEL_NAME,
        grid=tiled_launch_geometry(shape, spec),
        block=Dim3(x=256),
        bytes_read=nbytes,
        bytes_written=nbytes,
        # permutations are strided on one side: ~0.7 of streaming
        efficiency_hint=stream_efficiency(2.0 * nbytes, spec) * 0.7,
    )


def permute3d(
    tensor: np.ndarray, perm: Sequence[int], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Permute a rank-3 tensor's axes: numerically a transpose, written
    contiguous, or into ``out`` (the permuted shape, any strides) when
    given.  What the launch costs on a device is :func:`permute_launch`."""
    t = check_array(tensor, "tensor", ndim=3)
    view = np.transpose(t, _check_perm(perm))
    if out is None:
        return np.ascontiguousarray(view)
    check_array(out, "out", shape=view.shape)
    np.copyto(out, view)
    return out
