"""Mixed-precision iterative refinement for the MAP system.

The paper's introduction frames its contribution within the classical
mixed-precision playbook: "iterative refinement in solving linear
systems [Carson-Higham]" — compute cheap inner solves in low precision,
recover accuracy with high-precision residuals, accepting more (cheaper)
iterations.  This module applies that playbook to the Hessian system
``H m = b`` of the Bayesian MAP problem:

* outer loop: residual ``r = b - H m`` with **double-precision** matvecs;
* inner solve: CG on ``H dm = r`` to loose tolerance with **mixed-
  precision** matvecs (e.g. ``dssdd``, the Pareto optimum);
* update ``m += dm`` in double.

Convergence to double-precision accuracy follows as long as the mixed
matvec is accurate enough for the inner solves to contract — exactly the
error-tolerance reasoning of the paper's Pareto framework.

Kept by ``ROADMAP.md``: no importer; ROADMAP item 3(a) decides (timed by
``benchmarks/test_outer_loop.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.core.precision import PrecisionConfig
from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.cg import conjugate_gradient
from repro.util.validation import ReproError

__all__ = ["RefinementResult", "solve_map_with_refinement"]


@dataclass
class RefinementResult:
    """Outcome of the iterative-refinement MAP solve."""

    m_map: np.ndarray
    converged: bool
    outer_iterations: int
    inner_iterations_total: int
    residual_norms: List[float] = field(default_factory=list)
    inner_config: str = ""

    @property
    def final_relative_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def solve_map_with_refinement(
    problem: LinearBayesianProblem,
    d: np.ndarray,
    inner_config: Union[str, PrecisionConfig] = "dssdd",
    tol: float = 1e-10,
    inner_tol: float = 1e-2,
    max_outer: int = 40,
    max_inner: int = 200,
) -> RefinementResult:
    """Solve the MAP normal equations by mixed-precision refinement.

    Parameters
    ----------
    inner_config:
        Precision configuration of the inner CG's matvecs (the cheap
        work); residuals always use ``ddddd``.
    tol:
        Relative residual target in the double-precision norm.
    inner_tol:
        Inner CG relative tolerance per correction solve (loose — the
        outer loop supplies the accuracy).
    """
    if not (0 < inner_tol < 1):
        raise ReproError(f"inner_tol must be in (0,1), got {inner_tol}")
    inner_cfg = PrecisionConfig.parse(inner_config)

    b = problem.rhs(d, config="ddddd")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return RefinementResult(
            m_map=np.zeros_like(b),
            converged=True,
            outer_iterations=0,
            inner_iterations_total=0,
            residual_norms=[0.0],
            inner_config=str(inner_cfg),
        )

    m = np.zeros_like(b)
    norms: List[float] = []
    inner_total = 0
    prev = np.inf
    for outer in range(1, max_outer + 1):
        # High-precision residual (the refinement step's accuracy source).
        r = b - problem.hessian_action(m, config="ddddd")
        rel = float(np.linalg.norm(r)) / bnorm
        norms.append(rel)
        if rel <= tol:
            return RefinementResult(
                m_map=m,
                converged=True,
                outer_iterations=outer - 1,
                inner_iterations_total=inner_total,
                residual_norms=norms,
                inner_config=str(inner_cfg),
            )
        if rel >= prev * 0.999:
            # stagnation: the inner precision cannot contract further
            break
        prev = rel

        inner = conjugate_gradient(
            lambda v: problem.hessian_action(v, config=inner_cfg),
            r,
            tol=inner_tol,
            maxiter=max_inner,
        )
        inner_total += inner.iterations
        m = m + inner.x

    return RefinementResult(
        m_map=m,
        converged=norms[-1] <= tol,
        outer_iterations=len(norms) - 1,
        inner_iterations_total=inner_total,
        residual_norms=norms,
        inner_config=str(inner_cfg),
    )
