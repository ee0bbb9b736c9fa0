"""rocblas-bench work-alike.

The paper's Figure 1 is produced by running ``rocblas-bench`` with a YAML
file of problem configurations on two rocBLAS builds (with and without
the optimized kernel) and comparing the reported ``rocblas-GB/s``.  This
module reproduces that workflow:

* :func:`parse_bench_yaml` — a parser for the flow-mapping YAML subset
  rocblas-bench configs use (``- {M: 128, N: 4096, transA: T, ...}``),
  so the artifact's actual config format round-trips (no PyYAML offline).
* :func:`make_fig1_yaml` — Figure 1's SBGEMV sweep in that format.
* :class:`RocblasBench` — runs each configuration against a chosen kernel
  ("build"), timing on the simulated device over ``iters`` repetitions
  after ``cold_iters`` warmups, and reports GB/s and % of peak.
* :meth:`RocblasBench.comparison_table` — Figure 1's side-by-side table
  of the two builds.

The dispatcher's SBGEMV transition points come from the same kernel
models (:mod:`repro.blas.dispatch`), as the paper's Sec. 4.1.1 sets them
from this benchmark.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Union

from repro.blas.gemv_kernels import OptimizedSBGEMV, RocblasSBGEMV, SBGEMVKernel
from repro.blas.types import BlasDatatype, GemvProblem, Operation
from repro.gpu.specs import GPUSpec, MI300X
from repro.util.tables import render_table
from repro.util.validation import ReproError

__all__ = [
    "parse_bench_yaml",
    "BenchResult",
    "RocblasBench",
]

_FUNC_RE = re.compile(r"rocblas_([sdcz])gemv_strided_batched")


def _parse_scalar(token: str) -> Union[int, float, str]:
    t = token.strip()
    if re.fullmatch(r"[+-]?\d+", t):
        return int(t)
    if re.fullmatch(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?", t) and (
        "." in t or "e" in t.lower()
    ):
        return float(t)
    return t.strip("'\"")


def parse_bench_yaml(text: str) -> List[Dict[str, Union[int, float, str]]]:
    """Parse a rocblas-bench YAML config (list of flow mappings).

    Supports the subset the artifact uses: a sequence of ``- { k: v, ... }``
    entries, possibly spanning multiple lines, with ``#`` comments.
    """
    # Strip comments, join continuation lines of each flow mapping.
    body = "\n".join(
        line.split("#", 1)[0].rstrip() for line in text.splitlines()
    )
    entries: List[Dict[str, Union[int, float, str]]] = []
    # Find each "- { ... }" block (braces never nest in this format).
    for m in re.finditer(r"-\s*\{([^}]*)\}", body, flags=re.DOTALL):
        inner = m.group(1).replace("\n", " ")
        entry: Dict[str, Union[int, float, str]] = {}
        for pair in inner.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if ":" not in pair:
                raise ReproError(f"malformed yaml pair {pair!r}")
            key, val = pair.split(":", 1)
            entry[key.strip()] = _parse_scalar(val)
        if entry:
            entries.append(entry)
    return entries


def problem_from_config(cfg: Dict) -> GemvProblem:
    """Build a GemvProblem from one rocblas-bench config entry."""
    func = str(cfg.get("rocblas_function", ""))
    m = _FUNC_RE.fullmatch(func)
    if not m:
        raise ReproError(f"unsupported rocblas_function {func!r}")
    datatype = BlasDatatype.parse(m.group(1))
    op = Operation.parse(cfg.get("transA", "N"))
    if op is Operation.C and not datatype.is_complex:
        op = Operation.T
    return GemvProblem(
        m=int(cfg["M"]),
        n=int(cfg["N"]),
        batch=int(cfg.get("batch_count", 1)),
        datatype=datatype,
        operation=op,
    )


def make_fig1_yaml(sizes, datatypes) -> str:
    """Generate a Figure-1-style rocblas-bench YAML config.

    Follows the AE appendix conventions: ``M = lda = stride_y``,
    ``N = stride_x``, ``stride_a = M*N``, ``transA`` is ``T`` for real
    datatypes and ``H`` for complex.
    """
    lines = []
    for dt in datatypes:
        dt = BlasDatatype.parse(dt)
        trans = "H" if dt.is_complex else "T"
        for (m, n) in sizes:
            lines.append(
                "- {"
                + f"M: {m}, N: {n}, alpha: 1.0, batch_count: 100, beta: 0.0, "
                + f"cold_iters: 2, incx: 1, incy: 1, iters: 10, lda: {m}, "
                + f"rocblas_function: {dt.function_name}, "
                + f"stride_a: {m * n}, stride_x: {n}, stride_y: {m}, "
                + f"transA: {trans}"
                + "}"
            )
    return "\n".join(lines) + "\n"


@dataclass
class BenchResult:
    """One rocblas-bench output row."""

    problem: GemvProblem
    kernel: str
    seconds: float
    gbytes_per_s: float
    pct_of_peak: float

    def _size(self) -> str:
        return f"{self.problem.m}x{self.problem.n}"

    def row(self) -> List[str]:
        """Cells of this result as one bench-output table row."""
        return [
            self._size(),
            self.problem.datatype.value,
            self.problem.operation.value,
            self.kernel,
            f"{self.gbytes_per_s:.1f}",
            f"{self.pct_of_peak * 100:.1f}%",
        ]


class RocblasBench:
    """Benchmark driver over the simulated kernels.

    ``build`` selects which rocBLAS version to mimic: ``"rocblas"`` (the
    June-2025 tree without the kernel) or ``"optimized"`` (commit dd7ea70
    with the optimized transpose SBGEMV).
    """

    def __init__(self, spec: GPUSpec = MI300X, build: str = "optimized") -> None:
        if build not in ("rocblas", "optimized"):
            raise ReproError(f"build must be 'rocblas' or 'optimized', got {build!r}")
        self.spec = spec
        self.build = build

    def _kernel_for(self, problem: GemvProblem) -> SBGEMVKernel:
        if self.build == "optimized" and problem.operation.is_transposed:
            return OptimizedSBGEMV()
        return RocblasSBGEMV()

    def run_problem(self, problem: GemvProblem, iters: int = 10) -> BenchResult:
        """Model-run one configuration; returns the averaged result."""
        kernel = self._kernel_for(problem)
        # The model is deterministic; iters kept for interface fidelity.
        t = kernel.modeled_time(problem, self.spec)
        bw = problem.total_bytes / t
        return BenchResult(
            problem=problem,
            kernel=kernel.name,
            seconds=t,
            gbytes_per_s=bw / 1e9,
            pct_of_peak=bw / self.spec.peak_bandwidth,
        )

    def run_yaml(self, text: str) -> List[BenchResult]:
        """Run every configuration in a YAML config string."""
        return [
            self.run_problem(problem_from_config(cfg), iters=int(cfg.get("iters", 10)))
            for cfg in parse_bench_yaml(text)
        ]

    @staticmethod
    def comparison_table(
        baseline: List[BenchResult], optimized: List[BenchResult]
    ) -> str:
        """Figure-1-style side-by-side table of two builds."""
        if len(baseline) != len(optimized):
            raise ReproError("result lists must have equal length")
        rows = []
        for old, new in zip(baseline, optimized):
            if old.problem != new.problem:
                raise ReproError("mismatched problems between builds")
            rows.append(
                [
                    old._size(),
                    old.problem.datatype.value,
                    old.problem.operation.value,
                    f"{old.gbytes_per_s:.1f}",
                    f"{old.pct_of_peak * 100:.1f}%",
                    f"{new.gbytes_per_s:.1f}",
                    f"{new.pct_of_peak * 100:.1f}%",
                    f"{new.gbytes_per_s / old.gbytes_per_s:.2f}x",
                ]
            )
        return render_table(
            ["size", "dtype", "op", "rocBLAS GB/s", "% peak", "optimized GB/s", "% peak", "speedup"],
            rows,
            title="(Conjugate) Transpose SBGEMV Performance Comparison",
        )
