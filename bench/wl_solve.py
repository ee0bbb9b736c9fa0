"""Workload ``solve_small``: time to a solution of stated accuracy.

Conjugate gradient on the regularized Gauss-Newton Hessian
``F* F / s^2 + ridge I`` of a (64, 24, 96) operator — the serving
layer's ``SolveOptions`` defaults — with a fresh right-hand side per
solve, then the same solver through the blocked path (block-CG, k = 8).
Every solve is a few hundred k = 1 applies of well under a millisecond:
the GEMV path, arena/dispatch bookkeeping and CG's own vector ops
dominate, FFT/GEMM bandwidth does little.  The opposite corner from
``apply_large``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.core.operator import ForwardOperator, GaussNewtonHessian, IdentityOperator
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.inverse.cg import block_conjugate_gradient, conjugate_gradient

import harness
from harness import Result, median, ms, repeated_setup, us
from proxies import CALL_SPAN, TimedEngine, timed
from spans import SpanRecorder
from wl_apply import DECAY, checkout_round_us, replay_layers

SHAPE = (64, 24, 96)
SMOKE_SHAPE = (16, 6, 12)
BLOCK_K = 8
# repro.serve.service.SolveOptions defaults.
NOISE_STD, RIDGE, TOL, MAXITER = 1.0, 1e-8, 1e-8, 200
# One round of the timed window: this many CG solves, then one block-CG
# solve (about a 60/40 split of the wall).  Interleaving spreads both
# kinds over the whole window, so slow drift of the host hits both alike.
CG_PER_ROUND = 6


def make_hessian(engine):
    forward = ForwardOperator(engine)
    reg = RIDGE * IdentityOperator(forward.in_shape)
    return GaussNewtonHessian(forward, noise_std=NOISE_STD, reg=reg)


class SolveLoop:
    """CG and block-CG solves on fresh right-hand sides.  Every solution
    is checked as soon as its clock stops (and then dropped, so memory
    does not grow with the number of solves a fast host fits in)."""

    def __init__(self, engine, rng, shape, k, ref) -> None:
        self.engine, self.rng, self.shape, self.k = engine, rng, shape, k
        self.ref = ref  # one host-reference sample before every timed solve
        self.hess = make_hessian(engine)
        # The traced run swaps these four for span-recording wrappers.
        self.solver, self.block_solver = conjugate_gradient, block_conjugate_gradient
        self.operator, self.block_operator = self.hess.apply, self.hess.apply_block
        self.cg_s, self.block_s = [], []
        self.cg_iters, self.block_iters = [], []
        self.worst_residual, self.all_converged = 0.0, True

    def cg(self) -> None:
        nt, nd, _ = self.shape
        rhs = self.engine.rmatvec(self.rng.standard_normal((nt, nd))) / NOISE_STD**2
        self.ref.sample()
        t0 = time.perf_counter()
        res = self.solver(self.operator, rhs, tol=TOL, maxiter=MAXITER)
        self.cg_s.append(time.perf_counter() - t0)
        self.cg_iters.append(res.iterations)
        self.check(self.hess.apply(res.x) - rhs, rhs, (-1, 1), res.converged)

    def block(self) -> None:
        nt, nd, _ = self.shape
        data = self.rng.standard_normal((nt, nd, self.k))
        rhs = self.engine.rmatmat(data) / NOISE_STD**2
        self.ref.sample()
        t0 = time.perf_counter()
        res = self.block_solver(self.block_operator, rhs, tol=TOL, maxiter=MAXITER)
        self.block_s.append(time.perf_counter() - t0)
        self.block_iters.append(res.iterations)
        self.check(
            self.hess.apply_block(res.X) - rhs, rhs, (-1, self.k), bool(np.all(res.converged))
        )

    def check(self, r, rhs, cols, converged: bool) -> None:
        """Fold one solve's normal-equations residual (per column, relative
        to its right-hand side) and convergence flag into the gates."""
        rel = np.linalg.norm(r.reshape(cols), axis=0) / np.linalg.norm(rhs.reshape(cols), axis=0)
        self.worst_residual = max(self.worst_residual, float(rel.max()))
        self.all_converged = self.all_converged and converged

    def round(self) -> None:
        for _ in range(CG_PER_ROUND):
            self.cg()
        self.block()

    def round_rates(self):
        """Systems solved per second of solver time, round by round."""
        rounds = len(self.block_s)
        return [
            (CG_PER_ROUND + self.k)
            / (sum(self.cg_s[i * CG_PER_ROUND:(i + 1) * CG_PER_ROUND]) + self.block_s[i])
            for i in range(rounds)
        ]

    def gate(self, result: Result) -> float:
        """Every solve converged, and its normal-equations residual is
        within 50 x tol.  Returns the worst relative residual."""
        result.gates.check("all_solves_converged", self.all_converged)
        result.gates.check(
            "normal_eq_residual", self.worst_residual <= 50.0 * TOL, self.worst_residual
        )
        return self.worst_residual


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    shape = SMOKE_SHAPE if smoke else SHAPE
    nt, nd, nm = shape
    k = BLOCK_K
    result = Result(name, trace)
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal(shape) * np.exp(-DECAY * np.arange(nt))[:, None, None]
    m1, d1 = rng.standard_normal((nt, nm)), rng.standard_normal((nt, nd))
    mk, dk = rng.standard_normal((nt, nm, k)), rng.standard_normal((nt, nd, k))
    rec = SpanRecorder()

    def build():
        # Blocks in hand -> engine and Hessian built, first F and F* back
        # on both the vector and the blocked path the solvers will use.
        matrix = BlockTriangularToeplitz(blocks)
        engine = (
            TimedEngine(matrix, workspace=True, recorder=rec)
            if trace
            else FFTMatvec(matrix, workspace=True)
        )
        make_hessian(engine)
        engine.matvec(m1), engine.rmatvec(d1), engine.matmat(mk), engine.rmatmat(dk)
        return engine

    ref = harness.HostReference()
    engine, setup_s, setup_cold_s = repeated_setup(build, ref, warm=1 if trace else 15)
    loop = SolveLoop(engine, rng, shape, k, ref)
    loop.cg(), loop.block()  # warm-up: one untimed solve of each kind
    loop.cg_s.clear(), loop.block_s.clear(), rec.spans.clear()
    allocs_before = engine.workspace.alloc_count

    if not trace:
        mark = len(ref.samples)
        harness.timed_loop(seconds, loop.round)
        rss = harness.peak_rss_mb()
        result.attempted = len(loop.cg_s) + len(loop.block_s)
        harness.put_end_to_end(
            result, setup_s, loop.cg_s, loop.block_s, loop.round_rates(), ref.factor(mark)
        )
        result.put("peak_rss_mb", rss)
        loop.gate(result)
        return result

    # -- traced run --------------------------------------------------------------
    # Untraced reference first: a plain engine, nothing wrapped.
    plain = SolveLoop(FFTMatvec(engine.matrix, workspace=True), rng, shape, k, ref)
    plain.cg()
    plain.cg_s.clear()
    mark = len(ref.samples)
    harness.timed_loop(seconds * 0.2, plain.cg)
    factor = ref.factor(mark)
    result.put("bench.op_ms_p90", ms(harness.percentile(plain.cg_s, 90.0)) / factor)
    result.put("bench.host_factor", factor)

    loop.operator = timed(rec, "core.operator.hessian_apply", loop.hess.apply)
    loop.block_operator = timed(rec, "core.operator.hessian_apply_block", loop.hess.apply_block)
    loop.solver = timed(rec, "inverse.cg.solve", conjugate_gradient)
    loop.block_solver = timed(rec, "inverse.cg.block_solve", block_conjugate_gradient)
    harness.timed_loop(seconds * 0.35, loop.cg)
    harness.timed_loop(seconds * 0.2, loop.block)
    result.attempted = len(loop.cg_s) + len(loop.block_s)
    n_cg = len(loop.cg_s)

    solve_s = median(loop.cg_s)
    # Engine applies inside timed CG solves only (the RHS apply sits outside).
    inside = sum(
        1 for s in rec.spans
        if s[0].startswith(CALL_SPAN + "@") and s[3] >= 0
        and rec.spans[s[3]][0] == "core.operator.hessian_apply"
    )
    self_s = rec.self_p50("inverse.cg.solve")
    # The k = 1 apply as CG issues it (mean of the F and F* medians).
    small_apply_s = 0.5 * (rec.p50(CALL_SPAN + "@F") + rec.p50(CALL_SPAN + "@F*"))
    result.put("core.matvec.small_apply_us", us(small_apply_s))
    result.put("inverse.cg.iters_per_solve", float(np.mean(loop.cg_iters)))
    result.put("inverse.cg.applies_per_solve", inside / n_cg)
    result.put("inverse.cg.iter_us", us(solve_s / np.mean(loop.cg_iters)))
    result.put("inverse.cg.self_ms", ms(self_s))
    result.put("inverse.cg.self_share", self_s / rec.p50("inverse.cg.solve"))
    result.put("inverse.cg.block_iters", float(np.mean(loop.block_iters)))
    result.put("inverse.cg.rel_residual", loop.gate(result))
    result.put("core.operator.hessian_apply_us", us(rec.p50("core.operator.hessian_apply")))
    result.put("core.operator.self_us", us(rec.self_p50("core.operator.hessian_apply")))
    result.put("bench.trace_overhead_frac", solve_s / median(plain.cg_s) - 1.0)
    result.put("bench.setup_cold_s", setup_cold_s)
    result.put("util.workspace.steady_allocs", engine.workspace.alloc_count - allocs_before)
    result.put("util.workspace.arena_mb", engine.workspace.nbytes / 1e6)
    result.put(
        "util.workspace.checkout_us",
        checkout_round_us(engine.workspace, "pad", (nm, 2 * nt), np.float64),
    )

    # Phase replay of the k = 1 apply the solver spends its time in, on a
    # plain engine (the timed one would nest its own spans inside).
    v_out, w_out = np.empty((nt, nd)), np.empty((nt, nm))
    small = plain.engine
    noops, applies = small.cast_noop_count, small.matvec_count
    replay_layers(result, rec, small, "ddddd", m1, d1, v_out, w_out, seconds * 0.2)
    result.put(
        "util.workspace.cast_noops",
        (small.cast_noop_count - noops) / (small.matvec_count - applies),
    )
    ref = engine.matrix.matvec_reference(m1)
    result.put("core.matvec.rel_err", float(np.linalg.norm(v_out - ref) / np.linalg.norm(ref)))
    rec.write_chrome_trace(harness.OUT_DIR / f"trace_{name}.json")
    return result
