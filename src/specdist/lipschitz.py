"""Operator norms of left multiplication and membership in the Lipschitz ball.

Because the matrix basis is orthogonal with uniform norm, left multiplication
by a finitely supported element acts on coefficients as plain matrix
multiplication, so its operator norm is exactly the largest singular value of
the coefficient matrix.  The Dirac commutator norm is then sqrt(2) times the
larger of the two derivative operator norms.

`op_norm` and `commutator_norm` also take a stack (shape (..., r, c)) and return one
norm per slice, bit for bit that slice's own: a stack is a block-diagonal matrix whose
blocks never cross two slices.  The ball reports take one element.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .algebra import MoyalElement, _per_slice, check_theta
from .calculus import dz, dzbar
from .errors import ParameterError

#: derivative budget of the unit commutator ball; it bounds every derivative coefficient too
ENTRY_BOUND = 1.0 / np.sqrt(2.0)
LAYOUT_CACHE_SIZE = 8  #: patterns whose layout `_blocks` keeps; `vv` meets 4, a basis pair 4-10


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _block_layout(shape: tuple, packed: bytes) -> tuple:
    """`_blocks`' read-only (owner, index) per group for a stack pattern of shape (k, r, c)
    packed by np.packbits.  The stack is one bipartite graph, row node j r + i and column
    node k r + j c + l for each nonzero (j, i, l), so no component crosses two slices.
    Each labelling pass hooks every tree root to the least root it shares an edge with,
    then jumps every node to its root."""
    k, n_rows, n_cols = shape
    nz = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=k * n_rows * n_cols)
    r, c = np.divmod(np.flatnonzero(nz), n_cols)  # stack row j r + i, slice column l
    if not r.size:
        return ()
    c += k * n_rows + r // n_rows * n_cols  # its column node
    root = np.arange(k * (n_rows + n_cols))  # row nodes, then column nodes
    while np.any(hook := root[r] != root[c]):
        a, b = root[r][hook], root[c][hook]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, up := root[root]):
            root = up
    comp = (np.cumsum(root == np.arange(root.size)) - 1)[root]  # roots numbered in order
    lines = []  # rows, then columns: (nodes by component, each component's first, count)
    for cs in (comp[:k * n_rows], comp[k * n_rows:]):
        size = np.bincount(cs, minlength=root.size)
        lines.append((np.argsort(cs, kind="stable"), np.cumsum(size) - size, size))
    (rows, row_at, p), (cols, col_at, q) = lines
    # a node with no nonzero is a component with no column or no row: it is in no group
    comps = np.flatnonzero(p * q)
    comps = comps[np.lexsort((comps, p[comps] > q[comps], np.maximum(p, q)[comps],
                              np.minimum(p, q)[comps]))]  # by shape, a tall one after
    p, q, row_at, col_at = p[comps], q[comps], row_at[comps], col_at[comps]
    ends = np.cumsum(p * q)  # each p x q block's entries, row-major, one after another
    at = np.repeat(np.arange(comps.size), p * q)
    row, col = np.divmod(np.arange(ends[-1]) - (ends - p * q)[at], q[at])  # in its block
    flat = rows[row_at[at] + row] * n_cols + cols[col_at[at] + col] % n_cols
    owner = rows[row_at] // n_rows
    ends = [0, *ends.tolist()]
    cuts = [0, *(np.flatnonzero(np.diff(p) | np.diff(q)) + 1).tolist(), comps.size]
    groups = {}  # (p, q) with p <= q: its p x q components, then its q x p ones transposed
    for s, e in zip(cuts, cuts[1:]):  # a run of components of one shape
        block = flat[ends[s]:ends[e]].reshape(e - s, p[s], q[s])
        groups.setdefault((min(p[s], q[s]), max(p[s], q[s])), []).append(
            (owner[s:e], block.swapaxes(1, 2) if p[s] > q[s] else block))
    out = tuple(tuple(np.concatenate(part) for part in zip(*g)) for g in groups.values())
    for part in (x for g in out for x in g):
        part.flags.writeable = False
    return out


def _blocks(m: np.ndarray):
    """Split a stack m (k, rows, cols) along the connected components of its nonzero
    pattern, the bipartite graph joining row i to column l of slice j where m[j, i, l] != 0:
    one block-diagonal matrix whose blocks never cross two slices.

    Yields (owner, index, blocks) per group: blocks (g, p, q), block i of slice owner[i].
    A slice whose nonzero count proves one block (two components of r x c and r' x c' hold
    at most rc + r'c' <= 1 + (rows - 1)(cols - 1) nonzeros) comes whole, in one group with
    index None; the rest of the stack comes as `_block_layout`'s groups, gathered from the
    stack's flat entries at index, with p <= q: a tall block comes as B^T, through the
    transposed index.  Lines with no nonzero are in no block, and no group is empty.
    """
    k, n_rows, n_cols = m.shape
    nz = m != 0
    # slice by slice: numpy counts fast only without an axis; one matrix needs no iteration
    count = [np.count_nonzero(x) for x in nz] if k > 1 else [np.count_nonzero(nz)]
    whole = [j for j, n in enumerate(count) if n > 1 + (n_rows - 1) * (n_cols - 1)]
    if whole:
        yield whole, None, m if len(whole) == k else m[whole]
        if len(whole) == k:
            return
        nz[whole] = False
    entries = m.reshape(-1)
    for owner, index in _block_layout(m.shape, np.packbits(nz).tobytes()):
        yield owner, index, entries[index]


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Singular values of each block of a (g, p, q) stack: a 1x1 block's entry modulus, or
    one batched SVD."""
    if blocks.shape[1:] == (1, 1):
        return np.abs(blocks[:, 0])
    return np.linalg.svd(blocks, compute_uv=False)


def op_norm(coeffs):
    """Largest singular value of a coefficient matrix, computed exactly: a float for a
    matrix, one per slice for a stack (..., r, c), bit for bit that slice's own.

    It is the largest norm of the blocks of `_blocks`, each block's taken to its slice
    owner[i], so a weighted partial permutation takes its largest entry modulus and no
    SVD.  A zero-padded matrix keeps its norm bit for bit unless one of the two takes the
    whole-matrix SVD over a zero line that the other leaves out (a matrix with a zero
    line, or padding of rows alone or columns alone).  Zero slices have norm 0; fewer
    than two axes are refused.
    """
    m = np.asarray(coeffs)
    if m.ndim < 2:
        raise ParameterError(f"op_norm takes a matrix or a stack of matrices, got shape {m.shape}")
    top = np.zeros(m.shape[:-2])
    if m.size:
        flat = top.reshape(-1)  # a view: one norm per slice of the stack below
        for owner, _, blocks in _blocks(m.reshape((-1,) + m.shape[-2:])):
            np.maximum.at(flat, owner, _singular_values(blocks)[:, 0])  # LAPACK's largest first
    return _per_slice(top)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of the singular values of a 2-d array, the dual norm of `op_norm`, block by
    block along `_blocks`."""
    return float(sum(_singular_values(blocks).sum() for _, _, blocks in _blocks(m[None])))


def _clip_stack(stack: np.ndarray, radius: float):
    """Clip a matrix, or each matrix of a (k, p, q) stack, to largest singular value <= radius.

    Returns (top, clipped): the largest singular value(s), and the clipped matrix or
    stack, None when no singular value exceeds radius.  1x1 matrices are scaled
    directly.  Falls back to eigendecompositions of the Gram matrices when the LAPACK
    divide-and-conquer SVD fails to converge (a known sporadic failure).
    """
    if stack.shape[-2:] == (1, 1):
        top = np.abs(stack[..., 0, 0])
        scale = radius / np.maximum(top, radius)
        return top, (None if top.max() <= radius else stack * scale[..., None, None])
    try:
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        return s[..., 0], (None if s[..., 0].max() <= radius
                           else (u * np.minimum(s, radius)[..., None, :]) @ vt)
    except np.linalg.LinAlgError:
        lam, v = np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
        sig = np.sqrt(np.maximum(lam, 0.0))
        factor = np.where(sig > radius, radius / np.where(sig > 0, sig, 1.0), 1.0)
        return sig[..., -1], (None if sig[..., -1].max() <= radius
                              else stack @ (v * factor[..., None, :]) @ v.conj().swapaxes(-1, -2))


def clip_spectral(mat: np.ndarray, radius: float) -> np.ndarray:
    """Nearest matrix (in Frobenius norm) with largest singular value <= radius.

    Returns mat itself, not a rounded reconstruction, when no singular value exceeds
    radius.  The clip acts block by block on `_blocks`: blocks within the radius keep
    their entries, the others are clipped and scattered back through their index.
    """
    groups = list(_blocks(mat[None]))
    if groups and groups[0][1] is None:  # one block, the whole matrix
        clipped = _clip_stack(mat, radius)[1]
        return mat if clipped is None else clipped
    clips = [_clip_stack(blocks, radius) for _, _, blocks in groups]
    if all(clipped is None for _, clipped in clips):
        return mat
    out = np.zeros(mat.size, dtype=mat.dtype)  # every nonzero lies in a block
    for (_, index, blocks), (top, clipped) in zip(groups, clips):
        out[index] = (blocks if clipped is None
                      else np.where((top > radius)[:, None, None], clipped, blocks))
    return out.reshape(mat.shape)


def _hermitian(c: np.ndarray):
    """Whether c equals its conjugate transpose, per slice along a stack's leading axes."""
    return (c == c.conj().swapaxes(-1, -2)).all(axis=(-2, -1))


def _derivatives(a: MoyalElement) -> tuple:
    """The coefficients of dz(a) and dzbar(a), or of dz(a) alone for a hermitian a: then
    dzbar(a) = dz(a)^H bit for bit, since `dz_stencil`'s weights are real and conjugation
    commutes with rounding, so it has dz(a)'s singular values and transposed entries."""
    al = dz(a).coeffs
    return (al,) if _hermitian(a.coeffs) else (al, dzbar(a).coeffs)


def commutator_norm(a: MoyalElement):
    """Operator norm of the Dirac commutator: sqrt(2) * max of the derivative norms, one per
    slice of a stack.  A hermitian slice takes dz's alone (see `_derivatives`)."""
    top = op_norm(dz(a).coeffs)
    other = ~_hermitian(a.coeffs)
    if np.count_nonzero(other):
        top = np.where(other, np.maximum(top, op_norm(dzbar(a).coeffs)), top)
    return _per_slice(np.sqrt(2.0) * top)


class BallReport(namedtuple("BallReport", "commutator_norm member violations")):
    """Membership report for the unit Lipschitz ball."""

    # violations: (m, n, |entry|) wherever a derivative entry exceeds the bound
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "commutator_norm": self.commutator_norm,
            "member": self.member,
            "violations": [[int(m), int(n), float(v)] for (m, n, v) in self.violations],
        }


def _check_tol(tol: float) -> None:
    if not 0 <= tol < np.inf:
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tol}")


def _check_finite(value: float, theta: float) -> None:
    if not np.isfinite(value):  # coefficients times sqrt(m/theta), or their norm, overflow
        raise ParameterError(f"the commutator norm overflows the float range at theta {theta}")


def _report(top: float, tol: float, violations: list, theta: float) -> BallReport:
    """The report of commutator norm sqrt(2) * top."""
    cn = float(np.sqrt(2.0) * top)
    _check_finite(cn, theta)
    return BallReport(commutator_norm=cn, member=bool(cn <= 1.0 + tol),
                      violations=tuple(violations))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned of
def ball_report(a: MoyalElement, tol: float = 1e-9) -> BallReport:
    """Check membership of the unit Lipschitz ball and list entrywise violations.

    Every derivative coefficient of a member has modulus at most 1/sqrt(2), so
    each listed violation certifies non-membership on its own.  A hermitian a takes
    one SVD, and dzbar's violations are the transposes of dz's.  A stack is refused.
    """
    if a.coeffs.ndim != 2:
        raise ParameterError(f"ball_report takes one element, got coefficients of shape "
                             f"{a.coeffs.shape}")
    _check_tol(tol)
    mats = _derivatives(a)
    violations = []
    for mat in mats:
        mod = np.abs(mat)
        _check_finite(mod.max(initial=0.0), a.theta)  # before the SVDs, which it would fail
        rows, cols = np.nonzero(mod > ENTRY_BOUND + tol)
        violations.extend((int(r), int(c), float(abs(mat[r, c]))) for r, c in zip(rows, cols))
    del mod  # not held through the SVDs
    if len(mats) == 1:  # in dzbar's row-major order, as its own scan would list them
        violations += sorted((c, r, v) for r, c, v in violations)
    return _report(max(op_norm(m) for m in mats), tol, violations, a.theta)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned of
def radial_ball_report(theta: float, diag, tol: float = 1e-9) -> BallReport:
    """`ball_report(radial(theta, diag), tol)`, bit for bit, in O(n): dz of a radial element
    is the band dz[m, m-1] = s[m] d[m] - s[m] d[m-1] (m = 1..n, s[m] = sqrt(m/theta), d[n] = 0),
    computed in `dz_stencil`'s order, dzbar is its transpose, and a band's norm is its
    largest modulus, `op_norm`'s 1x1 rule."""
    d = np.asarray(diag, dtype=complex)
    check_theta(theta)
    _check_tol(tol)
    n = d.size
    s = np.sqrt(np.arange(n + 1) / theta)
    band = np.zeros(n, dtype=complex)  # band[m - 1] = dz[m, m - 1]
    np.multiply(d[1:], s[1:n], out=band[:n - 1])
    band -= s[1:] * d
    mod = np.abs(band)
    over = [(int(m), int(m) - 1, float(abs(band[m - 1])))  # dz's violations; dzbar's follow
            for m in np.flatnonzero(mod > ENTRY_BOUND + tol) + 1]
    return _report(float(mod.max(initial=0.0)), tol, over + [(c, r, v) for r, c, v in over],
                   theta)
