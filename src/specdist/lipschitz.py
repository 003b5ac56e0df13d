"""Operator norms of left multiplication and membership in the Lipschitz ball.

Because the matrix basis is orthogonal with uniform norm, left multiplication
by a finitely supported element acts on coefficients as plain matrix
multiplication, so its operator norm is exactly the largest singular value of
the coefficient matrix.  The Dirac commutator norm is then sqrt(2) times the
larger of the two derivative operator norms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import MoyalElement
from .calculus import dz, dzbar
from .errors import ParameterError, PreconditionError

#: entrywise bound satisfied by every derivative coefficient of a ball member
ENTRY_BOUND = 1.0 / np.sqrt(2.0)
LAYOUT_CACHE_SIZE = 8  #: patterns whose layout `split_blocks` keeps; an optimizer run meets 2-6


def _nonzero_pattern(m: np.ndarray) -> np.ndarray:
    """m != 0, several times faster on complex rows through their float view: an entry's
    two booleans read as one uint16 are nonzero exactly when it is (-0.0, NaN too)."""
    float_view = m.dtype == complex and m.strides[-1] == m.itemsize
    return (m.view(float) != 0).view(np.uint16) != 0 if float_view else m != 0


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _block_layout(shape: tuple, packed: bytes) -> tuple:
    """`split_blocks`' read-only (rows, cols, real) per group for a pattern packed by
    np.packbits; real marks the entries of the padded blocks that are not padding."""
    n_rows, n_cols = shape
    nz = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n_rows * n_cols)
    r, c = np.divmod(np.flatnonzero(nz), n_cols)
    root = np.arange(n_rows + n_cols)  # row nodes, then column nodes
    while np.any(hook := root[r] != root[c + n_rows]):
        a, b = root[r][hook], root[c + n_rows][hook]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, up := root[root]):
            root = up
    comp = (np.cumsum(root == np.arange(root.size)) - 1)[root]  # roots numbered in order
    sides = []  # rows, then columns: (component, position in the component, size)
    for cs in (comp[:n_rows], comp[n_rows:]):
        size = np.bincount(cs, minlength=comp.max() + 1)
        order = np.argsort(cs, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size) - (np.cumsum(size) - size)[cs[order]]
        sides.append((cs, pos, size))
    (_, _, n_r), (_, _, n_c) = sides
    # a node with no nonzero is a component with no column or no row: it gets no key
    key = np.where((n_r > 0) & (n_c > 0), np.frexp(n_r - 1)[1] * 64 + np.frexp(n_c - 1)[1], -1)
    out = []
    for k in np.flatnonzero(np.bincount(key[key >= 0])):  # not np.unique, which imports numpy.ma
        members = key == k
        slot = np.cumsum(members) - 1  # a member component's place in the group
        index = []
        for cs, pos, size in sides:
            ix = np.full((members.sum(), size[members].max()), -1)
            keep = np.flatnonzero(members[cs])
            ix[slot[cs[keep]], pos[keep]] = keep
            index.append(ix)
        ri, ci = index
        layout = (ri, ci, (ri >= 0)[:, :, None] & (ci >= 0)[:, None, :])
        for part in layout:
            part.flags.writeable = False
        out.append(layout)
    return tuple(out)


def split_blocks(m: np.ndarray):
    """Split m along the connected components of its nonzero pattern, the bipartite
    graph that joins row i to column j wherever m[i, j] != 0.

    Returns None when the nonzero count proves there is one component: two components
    with r and r' rows and c and c' columns hold at most rc + r'c' <= 1 + (rows - 1)
    (cols - 1) nonzeros.  Otherwise returns a list of (rows, cols, stack): the row and
    column indices of k components, shape (k, p) and (k, q), padded with -1, and their
    blocks, shape (k, p, q), padded with zeros.  Components are grouped by ceil(log2)
    of their row and of their column count, so padding at most doubles a side.  Rows
    and columns without a nonzero belong to no block.  A pattern is labelled once and
    its read-only layout cached (LAYOUT_CACHE_SIZE patterns); each pass hooks every tree
    root to the least root it shares an edge with, then jumps every node to its root.
    No pass runs when no row or column holds two nonzeros (every component is one
    entry), or when the count bound proves that the nonzero rows and columns form one
    component.
    """
    n_rows, n_cols = m.shape
    nz = _nonzero_pattern(m)
    count = np.count_nonzero(nz)
    if count > 1 + (n_rows - 1) * (n_cols - 1):
        return None
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    if count == rows.size == cols.size:  # no row or column holds two nonzeros
        r, c = np.nonzero(nz)
        return [(r[:, None], c[:, None], m[r, c][:, None, None])] if count else []
    if count > 1 + (rows.size - 1) * (cols.size - 1):  # the same bound, on the nonzero lines
        return [(rows[None], cols[None], m[np.ix_(rows, cols)][None])]
    return [(ri, ci, np.where(real, m[ri[:, :, None], ci[:, None, :]], 0))
            for ri, ci, real in _block_layout(m.shape, np.packbits(nz).tobytes())]


def _block_singular_values(m: np.ndarray):
    """Yield the singular values of m block by block along `split_blocks`, one array per
    group: a 1x1 block's is its entry's modulus, larger blocks take one batched SVD per
    group, and a matrix the nonzero count proves to be one block, such as every dense
    one, takes one SVD.  Padding adds only zeros; together the arrays hold every
    singular value of m."""
    blocks = split_blocks(m)
    if blocks is None:
        yield np.linalg.svd(m, compute_uv=False)
        return
    for _, _, b in blocks:
        yield (np.abs(b[:, 0, 0]) if b.shape[1:] == (1, 1)
               else np.linalg.svd(b, compute_uv=False))


def op_norm(coeffs) -> float:
    """Largest singular value of a coefficient matrix, computed exactly.

    The norm is the largest of the norms of the blocks of `split_blocks`, so a weighted
    partial permutation gets its largest entry modulus with no SVD.
    """
    m = np.asarray(coeffs, dtype=complex)
    if m.size == 0:
        return 0.0
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return max((float(s.max()) for s in _block_singular_values(m)), default=0.0)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of the singular values of a 2-d array, the dual norm of `op_norm`, block by
    block along `split_blocks`."""
    return float(sum(s.sum() for s in _block_singular_values(m)))


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
