"""Linear-algebra kernels used throughout the package.

Symmetric eigendecompositions, Hurwitz tests (of one matrix or a stack of blocks
in one call) and Lyapunov solvers.  Only ``sorted_schur`` chooses between a real
``eigh`` (exactly symmetric input: T real diagonal) and a complex Schur form.

Every norm reads a ``ModalSystem``: a drift blockdiag(T_i) of K upper
triangular b x b blocks (b = 1 for a real diagonal form, b = n for a network
of nonsymmetric agents), with the input and the output in those coordinates.
Its ``unstable`` mask is the one decision on which modes a norm drops, and the
one deflation (``stable_unstable_split``) masks those states in place, so
every route sees the shapes of the form.  The response (``triangular_response``)
and the Gramian (``solve_block_sylvester``) are each one path over the stack: a
back substitution over the rows of all blocks, and an entrywise recurrence over
block pairs.  No N n-state matrix is formed: the Gramian is an arrow whose
block-diagonal head is eliminated before a pivoted Cholesky factorization cuts
its rank.  Every function is pure: none
mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import NotHurwitz, NotSymmetric, UnstablePoles

# Eigenvalues with real part >= -STABILITY_MARGIN count as closed right half
# plane: the margin classifies agent modes (poles of A - lam B), since the
# consensus eigenvalue of a Laplacian is stored as exactly 0.
STABILITY_MARGIN = 1e-9
RANK_TOL = 1e-10
SYMMETRY_RTOL = 1e-10
KERNEL_TOL = 1e-8
SCHUR_CHUNK = 64  # frequencies per vectorized back substitution in triangular_response


def _square(mat, name="matrix") -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class SymmetricEig:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` is ascending and column ``i`` of ``eigenvectors`` pairs
    with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sorted_schur(a) -> tuple:
    """``(T, Z, n_u)``: a = Z T Z^H with the n_u eigenvalues Re >= -STABILITY_MARGIN first
    on the diagonal of T, for one matrix or, blockwise, a stack (k, n, n).  The one choice
    of factorization: exactly symmetric input takes a real ``eigh`` in descending order (T
    real diagonal, Z orthogonal), other input a complex Schur form of each block."""
    a = np.asarray(a, dtype=float)
    if np.array_equal(a, np.swapaxes(a, -1, -2)):
        w, v = np.linalg.eigh(a)
        w, z = w[..., ::-1], v[..., ::-1]
        t = np.where(np.eye(a.shape[-1], dtype=bool), w[..., None], 0.0)
        return t, z, (w >= -STABILITY_MARGIN).sum(axis=-1)
    if a.ndim == 3:
        return tuple(np.array(part) for part in zip(*map(sorted_schur, a)))
    return sla.schur(a, output="complex", sort=lambda ev: ev.real >= -STABILITY_MARGIN)


@dataclass(frozen=True)
class ModalSystem:
    """A strictly proper realization in the coordinates of its drift's Schur form.

    The drift is blockdiag(t) for a stack ``t`` (K, b, b) of upper triangular blocks, a
    real diagonal form as (K b, 1, 1), one state per block.  ``unstable`` marks the
    states whose pole has Re >= -STABILITY_MARGIN, each block's first, so they span an
    invariant subspace: the modes every norm drops, and the kernel and positive poles
    of the DC route.  The output is [diag(d); 0] on the first len(d) <= p states
    (whole blocks) plus C on the others: a diagonal block that a network realization
    gets when its output is rotated into the eigenbasis of its coupling.  ``c_scale`` is
    1 + max|C| of the output before any such rotation, the scale of the kernel test."""

    t: np.ndarray
    B: np.ndarray
    C: np.ndarray
    unstable: np.ndarray
    c_scale: float
    d: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_states(self) -> int:
        return self.B.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def observation(self, states) -> float:
        """The largest |entry| of the output's columns at the ``states`` (a boolean mask)."""
        n1 = self.d.size
        return max(
            np.abs(self.d[states[:n1]]).max(initial=0.0),
            np.abs(self.C[:, states[n1:]]).max(initial=0.0),
        )

    @cached_property
    def poles(self) -> np.ndarray | None:
        """The diagonal of the drift when it is held as one-state blocks, else None."""
        return self.t[:, 0, 0] if self.t.shape[1] == 1 else None


def sym_eig(mat) -> SymmetricEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises NotSymmetric if the asymmetry exceeds SYMMETRY_RTOL relative to
    the largest entry.  The input is symmetrized before factorization so the
    reconstruction U diag(w) U^T matches it to working precision.
    """
    m = _square(mat)
    scale = 1.0 + np.abs(m).max(initial=0.0)
    asym = np.abs(m - m.T).max(initial=0.0)
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}")
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return SymmetricEig(eigenvalues=w, eigenvectors=u)


def is_hurwitz(mat) -> bool:
    """True iff every eigenvalue has real part < -STABILITY_MARGIN.  ``mat`` is one
    square matrix or a stack (k, n, n), decided by one batched ``eigvals``: LAPACK
    factors each block alone, so every decision is that of the block by itself.  An
    empty matrix or stack is Hurwitz."""
    m = np.asarray(mat, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square or a stack of square matrices, got {m.shape}")
    if m.size == 0:
        return True
    return bool(np.linalg.eigvals(m).real.max() < -STABILITY_MARGIN)


# only tests call this; it stays while perfbench/tracing.py's linalg.lyapunov group names it
def solve_lyapunov(a, q) -> np.ndarray:
    """Solve A^T X + X A + Q = 0 for Hurwitz A and symmetric PSD Q.

    Raises NotHurwitz if A has an eigenvalue with real part >= -STABILITY_MARGIN.
    """
    a = _square(a, "A")
    q = _square(q, "Q")
    if not is_hurwitz(a):
        raise NotHurwitz("A has an eigenvalue in the closed right half plane")
    x = sla.solve_continuous_lyapunov(a.T, -q)
    return 0.5 * (x + x.T)


def _psd_quadratic_trace(x, b, scale) -> float:
    """tr(B^H X B) for Hermitian PSD X, evaluated as ||L^H P^T B||_F^2 from a pivoted
    Cholesky factorization P^T X P = L L^H (LAPACK ``?pstrf`` on the lower triangle).

    Mathematically identical to the direct trace, but the factorization stops at the
    first pivot at or below RANK_TOL * scale and its trailing Schur complement counts
    as exactly zero.  Solver noise in X then cannot leak into the trace through
    near-null directions, which matters when the exact value is zero.
    ``?pstrf`` never compares its first pivot with the tolerance, so an X whose whole
    diagonal is at or below it gives 0.0 without a factorization, as do the zero and the
    empty matrix.
    """
    top = np.diagonal(x).real.max(initial=0.0)
    tol = RANK_TOL * scale
    if top <= tol:
        return 0.0
    pstrf = sla.lapack.get_lapack_funcs("pstrf", (x,))
    factor, piv, rank, info = pstrf(x, tol=tol, lower=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to the pivoted Cholesky factorization")
    proj = np.tril(factor[:, :rank]).conj().T @ b[piv - 1]
    return float(np.vdot(proj, proj).real)


def require_unobserved(sys: ModalSystem, states) -> None:
    """Raise UnstablePoles when the output observes one of the modal ``states`` (a boolean
    mask): a column of the output above KERNEL_TOL * ``sys.c_scale``."""
    violation = sys.observation(states)
    if violation > KERNEL_TOL * sys.c_scale:
        raise UnstablePoles(
            f"output observes a closed-right-half-plane mode "
            f"(|C v| = {violation:.3e} > {KERNEL_TOL:.1e} * {sys.c_scale:.3e})"
        )


def stable_unstable_split(sys: ModalSystem) -> tuple:
    """``(T_s, B_s, C_s, d_s)``: ``sys`` with every closed-right-half-plane state
    masked, of the same shapes and with the same response (``triangular_response``).  A
    masked state gets its pole moved to -1 and a zero output column, in d and in C.  It
    comes first in its block, so it drives no other state; unobserved, it then changes
    neither the response nor the Gramian, whose rows for it are exactly zero.  With no
    such state the modal triple itself is returned.  Raises UnstablePoles if the output
    observes one of them."""
    require_unobserved(sys, sys.unstable)
    if not sys.unstable.any():
        return sys.t, sys.B, sys.C, sys.d
    n1, w = sys.d.size, sys.t.shape[1]
    t_s, c_s, d_s = sys.t.copy(), sys.C.copy(), sys.d.copy()
    blocks, rows = np.nonzero(sys.unstable.reshape(-1, w))
    t_s[blocks, rows, rows] = -1.0
    c_s[:, sys.unstable[n1:]], d_s[sys.unstable[:n1]] = 0.0, 0.0
    return t_s, sys.B, c_s, d_s


def apply_output(c, d, x) -> np.ndarray:
    """[diag(d); 0] x[:len(d)] + c x[len(d):], the output of a deflated triple applied to
    the columns of x; a real c acts alike on the real and imaginary parts of a complex x."""
    n1 = d.size
    rest = np.ascontiguousarray(x[n1:])
    if np.isrealobj(c) and np.iscomplexobj(rest):
        y = (c @ rest.view(float)).view(complex)
    else:
        y = c @ rest
    y[:n1] += d[:, None] * x[:n1]
    return y


def triangular_response(t, b, c, d, s) -> np.ndarray:
    """C (sI - T)^{-1} B, shape (len(s), p, m), of a deflated triple (drift blockdiag(t),
    output [diag(d); 0] on the first len(d) states and c on the rest) for a 1-D array s:
    a back substitution over the b rows of all blocks and SCHUR_CHUNK frequencies at once,
    then one output product.  With b = 1 it is d * B_1 / (s - p_1) + c (B_2 / (s - p_2))."""
    s = np.asarray(s, dtype=complex)
    (n, m), p, (k, w) = b.shape, c.shape[0], t.shape[:2]
    out = np.empty((s.size, p, m), dtype=complex)
    for j in range(0, s.size, SCHUR_CHUNK):
        shift = s[j : j + SCHUR_CHUNK]
        x = np.empty((k, w, shift.size, m), dtype=complex)  # [block, row, frequency, input]
        for i in range(w - 1, -1, -1):
            acc = b[i::w, None]
            if i < w - 1:
                rest = t[:, i, None, i + 1 :] @ x[:, i + 1 :].reshape(k, w - i - 1, -1)
                acc = acc + rest.reshape(k, shift.size, m)
            np.divide(acc, (shift - t[:, i, i, None])[:, :, None], out=x[:, i])
        y = apply_output(c, d, x.reshape(n, -1))
        out[j : j + SCHUR_CHUNK] = y.reshape(p, -1, m).transpose(1, 0, 2)
    return out


def solve_block_sylvester(t1, t2, g) -> tuple:
    """``(X, max|T1^H X + X T2 + G|)`` with T1^H X + X T2 + G = 0, for stacks of upper
    triangular b x b blocks T1, T2 and of blocks G broadcast over their leading axes: the
    recurrence X_rc (conj(T1_rr) + T2_cc) = -G_rc - sum_{q<r} conj(T1_qr) X_qc -
    sum_{q<c} X_rq T2_qc, one step per entry for all blocks (one division when b = 1).
    The residual is the equation evaluated afresh with the X found."""
    w, t1h = g.shape[-1] if g.size else 0, np.conj(t1)  # no steps for an empty stack
    sums = np.diagonal(t1h, 0, -2, -1)[..., :, None] + np.diagonal(t2, 0, -2, -1)[..., None, :]
    x = np.empty(sums.shape, np.result_type(sums, g))  # g has the leading axes of T1, T2
    for r in range(w):
        row = g[..., r, :] + (t1h[..., :r, r, None] * x[..., :r, :]).sum(axis=-2)
        for c in range(w):
            acc = row[..., c] + (x[..., r, :c] * t2[..., :c, c]).sum(axis=-1)
            x[..., r, c] = -acc / sums[..., r, c]
    residual = np.einsum("...qr,...qc->...rc", t1h, x) + np.einsum("...rq,...qc->...rc", x, t2) + g
    return x, float(np.abs(residual).max(initial=0.0))


def solve_lyapunov_with_kernel(sys: ModalSystem):
    """``((D, F, R), h2sq, residual)``: the observability Gramian X_s = [[blockdiag(D),
    F], [F^H, R]] of ``stable_unstable_split``'s triple, T_s^H X_s + X_s T_s + C_s^H C_s
    = 0, whose head D (b x b blocks) belongs to the diagonal output block d.  It is the
    PSD solution of A^T X + X A + C^T C = 0 that vanishes on the closed right half plane,
    in modal coordinates.  D, F and R are ``solve_block_sylvester`` over the head's
    blocks and the block pairs.  h2sq = tr(B_s^H X_s B_s) = tr(Y^H D Y) +
    tr(B_2^H S B_2) with Y = B_1 + D^+ F B_2 and S = R - F^H D^+ F, whose rank
    ``_psd_quadratic_trace`` cuts against RANK_TOL * max diag R.  D^+ F inverts the
    head's blocks at once, with a unit pivot on each state with d = 0 (at lam = 0, or
    masked), whose rows of D and F are zero.  Raises UnstablePoles."""
    t_s, b_s, c_s, d = stable_unstable_split(sys)
    w, n1 = t_s.shape[1], d.size
    t1, t2, n2 = t_s[: n1 // w], t_s[n1 // w :], b_s.shape[0] - n1

    def solve(ta, g):  # over the block pairs of ta and t2; g and X are (len(ta) w, n2)
        pairs = g.reshape(len(ta), w, len(t2), w).swapaxes(1, 2)
        x, res = solve_block_sylvester(ta[:, None], t2, pairs)
        return x.swapaxes(1, 2).reshape(g.shape), res

    head, res_head = solve_block_sylvester(t1, t1, np.eye(w) * np.abs(d.reshape(-1, 1, w)) ** 2)
    f, res_cross = solve(t1, d.conj()[:, None] * c_s[:n1])
    r, res_tail = solve(t2, c_s.conj().T @ c_s)
    b1, b2 = b_s[:n1], b_s[n1:]
    unit = np.eye(w) * (d == 0).reshape(-1, 1, w)  # on the states whose rows of D and F are 0
    # the small blocks' inverses and one product: a batched solve is several times slower
    g = (np.linalg.inv(head + unit) @ f.reshape(len(t1), w, n2)).reshape(n1, n2)  # D^+ F
    y = (b1 + g @ b2).reshape(len(t1), w, b_s.shape[1])
    t_head = np.vdot(y, head @ y).real
    s = r - f.conj().T @ g if n1 else r
    tail = _psd_quadratic_trace(s, b2, np.diagonal(r).real.max(initial=0.0))
    return (head, f, r), t_head + tail, float(max(res_head, res_cross, res_tail))
