"""Operator norms of left multiplication and membership in the Lipschitz ball.

Because the matrix basis is orthogonal with uniform norm, left multiplication
by a finitely supported element acts on coefficients as plain matrix
multiplication, so its operator norm is exactly the largest singular value of
the coefficient matrix.  The Dirac commutator norm is then sqrt(2) times the
larger of the two derivative operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MoyalElement
from .calculus import dz, dzbar
from .errors import ParameterError, PreconditionError

#: entrywise bound satisfied by every derivative coefficient of a ball member
ENTRY_BOUND = 1.0 / np.sqrt(2.0)


def op_norm(coeffs) -> float:
    """Largest singular value of a coefficient matrix, computed exactly.

    A weighted partial permutation (at most one nonzero entry in every row and
    every column) has a diagonal Gram matrix with entries |entry|^2, so its norm
    is its largest entry modulus; every other matrix, screened out cheaply by
    its nonzero count when dense, gets a full singular-value decomposition.
    """
    m = np.asarray(coeffs, dtype=complex)
    if m.size == 0:
        return 0.0
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    nz = m != 0
    if nz.sum() <= min(m.shape) and all(nz.sum(axis).max() <= 1 for axis in (0, 1)):
        return float(np.abs(m).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def commutator_norm(a: MoyalElement) -> float:
    """Operator norm of the Dirac commutator: sqrt(2) * max of the derivative norms."""
    return float(np.sqrt(2.0) * max(op_norm(dz(a).coeffs), op_norm(dzbar(a).coeffs)))


@dataclass(frozen=True)
class BallReport:
    """Membership report for the unit Lipschitz ball."""

    commutator_norm: float
    slack: float
    member: bool
    violations: tuple  # (m, n, |entry|) wherever a derivative entry exceeds the bound

    def to_dict(self) -> dict:
        return {
            "commutator_norm": self.commutator_norm,
            "member": self.member,
            "violations": [[int(m), int(n), float(v)] for (m, n, v) in self.violations],
        }


def ball_report(a: MoyalElement, tol: float = 1e-9) -> BallReport:
    """Check membership of the unit Lipschitz ball and list entrywise violations.

    Every derivative coefficient of a member has modulus at most 1/sqrt(2), so
    each listed violation certifies non-membership on its own.
    """
    if not 0 <= tol < np.inf:
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tol}")
    al = dz(a).coeffs
    be = dzbar(a).coeffs
    cn = float(np.sqrt(2.0) * max(op_norm(al), op_norm(be)))
    violations = []
    for mat in (al, be):
        rows, cols = np.nonzero(np.abs(mat) > ENTRY_BOUND + tol)
        violations.extend((int(r), int(c), float(abs(mat[r, c]))) for r, c in zip(rows, cols))
    return BallReport(
        commutator_norm=cn,
        slack=1.0 - cn,
        member=bool(cn <= 1.0 + tol),
        violations=tuple(violations),
    )


def radial_in_ball(a: MoyalElement, tol: float = 1e-9) -> bool:
    """Ball membership for radial elements via the entrywise criterion.

    For radial input the derivative matrices are sub/super-diagonal, so the
    entrywise bound 1/sqrt(2) is equivalent to membership.
    """
    if not a.is_radial:
        raise PreconditionError("entrywise ball criterion requires a radial element")
    worst = max(float(np.max(np.abs(dz(a).coeffs))), float(np.max(np.abs(dzbar(a).coeffs))))
    return bool(np.sqrt(2.0) * worst <= 1.0 + tol)
