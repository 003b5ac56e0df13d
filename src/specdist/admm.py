"""The ADMM of both geometries: `admm_maximize` over a commutator-norm ball, given the plane's
or the torus's (apply, adjoint, solve), and `rescaled_gap`, its lower bound on the distance."""

from __future__ import annotations

import numpy as np

from .lipschitz import clip_spectral, nuclear_norm, op_norm
from .report import OptimizeResult

STALL_ITERS = 50  # admm_maximize stops after this many iterations (5 checks) without a gain
RELAX = 1.7  # ADMM over-relaxation factor
# admm_maximize stops once the best value is within GAP_TOL, relative, of its weak-duality
# bound: 1e-4 is ten times finer than the 1e-3 at which perfbench accepts an optimizer
# value, and f12 reaches it after 680 iterations where the stall rule alone takes 68,680
GAP_TOL = 1e-4
# iterations between two checks: a check takes the iterate's norm (an SVD) and the bound
# (a solve, two stencils and an SVD), a little more than one iteration's work, and
# checking every 10th iteration ends a run at most 9 iterations after the gap has closed
GAP_EVERY = 10
# residual balancing doubles rho when the primal residual exceeds BALANCE_MU times the
# dual one and halves it in the opposite case: on 28 plane pairs (orders 6-32, theta 0.1
# to 10) 2 took 7,950 iterations, 3 took 10,550 and 5 took 18,230 (fixed rho 1: 33,560)
BALANCE_MU = 2.0


def admm_maximize(c, apply, adjoint, solve, radius, rho, max_iter, balance=0):
    """Maximize Re<c, x> subject to op_norm(apply(x)) <= radius.

    ADMM with over-relaxation RELAX: the splitting variable, a complex matrix, is
    projected onto the spectral ball by singular-value clipping; solve inverts the
    Gram of apply and returns a new array, kept without a copy.  One check runs every
    GAP_EVERY iterations and at iteration max_iter: it rescales the iterate x onto the
    ball by its norm `op_norm(apply(x))` and keeps it if its value beats the best one.
    Then the check takes two exits, in this order, and reports converged at either:

    - The stall rule: STALL_ITERS / GAP_EVERY checks in a row fail to beat the best value.
    - The duality gap: the best value is at least (1 - GAP_TOL) radius ||Y'||_*, with
      ||.||_* the sum of the singular values (`nuclear_norm`) and Y' = Y +
      apply(solve(c - adjoint(Y))) the scaled multiplier Y = rho u corrected to a
      dual certificate.  Proof: solve inverts the Gram on hermitian elements (on the
      torus, on the real parameters), so Herm(adjoint(apply(solve(r)))) = Herm(r), and
      Herm(adjoint(Y')) = Herm(c).  Every x the problem admits is hermitian (real), so
      Re<c, x> = Re<adjoint(Y'), x> = Re<Y', apply(x)> <= ||Y'||_* ||apply(x)|| <=
      radius ||Y'||_* by von Neumann's trace inequality.  The best value is a feasible
      value, so it is within GAP_TOL of the optimum of this problem when the exit is
      taken.  That bounds the truncated problem only, not the distance, so the bound
      is not reported.

    rho is the initial penalty.  With balance > 0 it changes by residual balancing (Boyd
    et al. 2011, section 3.4.1) at most balance times: at a check, after the clip, with
    r = ||apply(x) - z|| and s = rho ||adjoint(z - z_prev)|| (Frobenius norms), rho
    doubles when r > BALANCE_MU s and halves when s > BALANCE_MU r, and the scaled
    multiplier u = Y / rho and c / rho are rescaled with it.  ADMM whose penalty changes
    finitely often converges (He, Yang and Wang 2000).  solve inverts the Gram of apply,
    which does not depend on rho, so nothing is refactored.  The gap exit's proof does
    not read rho: its certificate is Y' = rho (u + apply(solve(c / rho - adjoint(u))))
    for the current u and rho, and each candidate is rescaled by its own norm.
    balance = 0 keeps rho fixed.

    Every iteration but the last clips; a run that reaches max_iter without an exit ends
    after its check.  Returns (best x, iterations run, converged).  Deterministic: starts
    from zero, and the balancing reads only the iterates.
    """
    best_x = np.zeros_like(c)
    z = u = np.zeros_like(apply(best_x))
    c_rho = c / rho
    best_val, stall, it = 0.0, 0, 0
    for it in range(1, max_iter + 1):
        x = solve(c_rho + adjoint(z - u))
        dx = apply(x)
        check = it % GAP_EVERY == 0 or it == max_iter
        if check:
            sig = op_norm(dx)
            scaled = float(np.vdot(c, x).real) * (radius / sig) if sig > 0.0 else 0.0
            if scaled > best_val:
                best_val, best_x, stall = scaled, x, 0
            else:
                stall += GAP_EVERY
            if stall >= STALL_ITERS:
                return best_x, it, True
            w = apply(solve(c_rho - adjoint(u)))  # Y' / rho, by linearity, in one array
            w += u
            dual = rho * radius * nuclear_norm(w)
            del w  # not held through the clip, which peaks the memory of an iteration
            if best_val >= dual * (1.0 - GAP_TOL):
                return best_x, it, True
        if it == max_iter:  # the cap: no iteration reads a further clip
            break
        v = RELAX * dx + (1.0 - RELAX) * z + u
        z_prev, z = z, clip_spectral(v, radius)
        u = v - z
        if check and balance > 0:
            r = np.linalg.norm(dx - z)
            s = rho * np.linalg.norm(adjoint(z - z_prev))
            step = 2.0 if r > BALANCE_MU * s else 0.5 if s > BALANCE_MU * r else 1.0
            if step != 1.0:
                rho *= step
                c_rho = c / rho
                u /= step
                balance -= 1
        del z_prev  # not held through the next clip
    return best_x, it, False


def rescaled_gap(s1, s2, a, norm, iterations: int, converged: bool,
                 order: int) -> OptimizeResult:
    """The gap |s1(c) - s2(c)| of c = a/norm(a), with residual |norm(c) - 1|.

    The distance is the supremum of that gap over self-adjoint c of commutator norm at
    most 1, and the rescale puts any self-adjoint a on that sphere, up to the rounding
    the residual measures.  So the value is feasible, a lower bound, wherever the
    iteration that produced a stopped, converged or not; a zero a gives value and
    residual 0.  iterations, converged and order pass through to the result.
    """
    n = norm(a)
    if n == 0.0:
        return OptimizeResult(0.0, iterations, converged, 0.0, order)
    cert = (1.0 / n) * a
    value = abs(s1.expect(cert) - s2.expect(cert))
    residual = abs(norm(cert) - 1.0)
    return OptimizeResult(float(value), iterations, converged, float(residual), order)
