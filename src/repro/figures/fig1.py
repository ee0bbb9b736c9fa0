"""Figure 1: (conjugate) transpose SBGEMV, rocBLAS vs optimized kernel.

Reproduces the rocblas-bench comparison on MI300X: batch 100, transpose
for real datatypes and conjugate transpose for complex, over the paper's
matrix shapes.  Prints % of peak bandwidth for both builds next to the
paper's bar annotations.

Kept by ``benchmarks/test_fig1_sbgemv.py``: paper Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.blas.bench import RocblasBench, make_fig1_yaml
from repro.blas.types import BlasDatatype
from repro.gpu.specs import GPUSpec, MI300X
from repro.util.tables import render_table

__all__ = ["figure1", "FIG1_SIZES", "FIG1_DATATYPES", "Fig1Row"]

# The shapes each datatype is benchmarked at in the paper's figure.
FIG1_SIZES: Dict[str, List[Tuple[int, int]]] = {
    "s": [(128, 4096), (256, 256), (256, 8192), (512, 512), (1024, 1024), (2048, 2048)],
    "d": [(128, 4096), (256, 256), (256, 8192), (512, 512)],
    "c": [(128, 4096), (256, 256), (256, 8192), (512, 512)],
    "z": [(128, 4096), (256, 256), (256, 8192)],
}
FIG1_DATATYPES = ("s", "d", "c", "z")

# Bar annotations from the paper (fraction of peak): (rocBLAS, optimized).
PAPER_FIG1: Dict[Tuple[str, int, int], Tuple[float, float]] = {
    ("s", 128, 4096): (0.150, 0.835),
    ("s", 256, 256): (0.217, 0.586),
    ("s", 256, 8192): (0.248, 0.727),
    ("s", 512, 512): (0.448, 0.767),
    ("s", 1024, 1024): (0.584, 0.647),
    ("s", 2048, 2048): (0.633, 0.678),
    ("d", 128, 4096): (0.255, 0.732),
    ("d", 256, 256): (0.417, 0.627),
    ("d", 256, 8192): (0.425, 0.708),
    ("d", 512, 512): (0.764, 0.764),
    ("c", 128, 4096): (0.250, 0.711),
    ("c", 256, 256): (0.407, 0.576),
    ("c", 256, 8192): (0.404, 0.703),
    ("c", 512, 512): (0.758, 0.762),
    ("z", 128, 4096): (0.420, 0.727),
    ("z", 256, 256): (0.662, 0.712),
    ("z", 256, 8192): (0.619, 0.695),
}


@dataclass(frozen=True)
class Fig1Row:
    """One (datatype, shape) comparison."""

    datatype: str
    m: int
    n: int
    rocblas_pct: float
    optimized_pct: float
    rocblas_gbs: float
    optimized_gbs: float
    paper_rocblas_pct: Optional[float]
    paper_optimized_pct: Optional[float]

    @property
    def speedup(self) -> float:
        return self.optimized_gbs / self.rocblas_gbs


def figure1(spec: GPUSpec = MI300X) -> Tuple[List[Fig1Row], str]:
    """Run both builds through rocblas-bench; returns (rows, table text)."""
    rows: List[Fig1Row] = []
    for dt in FIG1_DATATYPES:
        yaml_text = make_fig1_yaml(FIG1_SIZES[dt], [dt])
        base = RocblasBench(spec, build="rocblas").run_yaml(yaml_text)
        opt = RocblasBench(spec, build="optimized").run_yaml(yaml_text)
        for old, new in zip(base, opt):
            key = (dt, old.problem.m, old.problem.n)
            paper = PAPER_FIG1.get(key)
            rows.append(
                Fig1Row(
                    datatype=dt,
                    m=old.problem.m,
                    n=old.problem.n,
                    rocblas_pct=old.pct_of_peak,
                    optimized_pct=new.pct_of_peak,
                    rocblas_gbs=old.gbytes_per_s,
                    optimized_gbs=new.gbytes_per_s,
                    paper_rocblas_pct=paper[0] if paper else None,
                    paper_optimized_pct=paper[1] if paper else None,
                )
            )

    table_rows = []
    for r in rows:
        table_rows.append(
            [
                BlasDatatype.parse(r.datatype).function_name.split("_")[1][0],
                f"{r.m}x{r.n}",
                f"{r.rocblas_pct * 100:.1f}%",
                f"{r.paper_rocblas_pct * 100:.1f}%" if r.paper_rocblas_pct else "-",
                f"{r.optimized_pct * 100:.1f}%",
                f"{r.paper_optimized_pct * 100:.1f}%" if r.paper_optimized_pct else "-",
                f"{r.speedup:.2f}x",
            ]
        )
    text = render_table(
        [
            "dtype",
            "size",
            "rocBLAS (model)",
            "rocBLAS (paper)",
            "optimized (model)",
            "optimized (paper)",
            "speedup",
        ],
        table_rows,
        title=f"Figure 1: (conjugate) transpose SBGEMV % of peak on {spec.name}, batch 100",
    )
    return rows, text
