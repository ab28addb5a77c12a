"""Linear-algebra kernels used throughout the package.

Symmetric eigendecompositions, an eigenvalue-based pseudoinverse, Hurwitz
tests (of one matrix, or of a whole stack of blocks in one call) and
Lyapunov solvers.  A realization is factored once: its sorted Schur form
(``StateSpace.schur``) feeds the one stable/unstable deflation
(``stable_unstable_split``), which both the kernel-conditioned Lyapunov
solve and the one frequency-response primitive (``triangular_response``)
use, so modes in the closed right half plane are tolerated as long as the
output matrix does not observe them.  Only ``sorted_schur`` chooses between a
real ``eigh`` (exactly symmetric input: T real diagonal) and a complex Schur
form.  A network realization brings its form, from the Laplacian eigenbasis and
one stacked ``sorted_schur`` of its n x n blocks (``netsys.kron_schur``); a bare
``StateSpace`` takes one of its whole drift.  When T is exactly diagonal
(symmetric agents, single integrators included) the Lyapunov solve and the
response are closed forms; otherwise they are a triangular Sylvester solve and
a back substitution.  The Gramian never leaves Schur coordinates: the squared H2
norm is a trace over the deflated input matrix, whose numerical rank a pivoted
Cholesky factorization cuts, so no N n-state Gramian is formed or factored.
Every function is pure: none mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import IllConditioned, NotHurwitz, NotSymmetric, UnstablePoles

# Eigenvalues with real part >= -STABILITY_MARGIN count as closed right half
# plane; Laplacian zero modes arrive with O(1e-14) numerical noise.
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
class StateSpace:
    """A strictly proper LTI realization (A, B, C) with y = C x, dx/dt = A x + B u.

    ``form``, when given, is the realization's sorted Schur form ``(T, Z, n_u)``
    (see ``schur``), built by its assembler from the structure of A."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    form: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = _square(self.A, "A")
        b = np.asarray(self.B, dtype=float)
        c = np.asarray(self.C, dtype=float)
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError(f"B must have {a.shape[0]} rows, got shape {b.shape}")
        if c.ndim != 2 or c.shape[1] != a.shape[0]:
            raise ValueError(f"C must have {a.shape[0]} columns, got shape {c.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @cached_property
    def schur(self) -> tuple:
        """``(T, Z, n_u)``: A = Z T Z^H with Z unitary, T upper triangular and the n_u
        eigenvalues Re >= -STABILITY_MARGIN first on the diagonal of T.  The ``form``
        given at construction, else one ``sorted_schur`` of A on first use."""
        return self.form if self.form is not None else sorted_schur(self.A)


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


def pinv(mat) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Built as U diag(w)^+ U^T: eigenvalues with |w| <= RANK_TOL * max|w| are
    treated as zero and left uninverted.  The zero matrix maps to itself.
    """
    eig = sym_eig(mat)
    return (eig.eigenvectors * pinv_eigenvalues(eig.eigenvalues)) @ eig.eigenvectors.T


def pinv_eigenvalues(w) -> np.ndarray:
    """w^+: 1 / w where |w| > RANK_TOL * max|w|, exactly zero elsewhere (the rank cut
    of ``pinv``)."""
    keep = np.abs(w) > RANK_TOL * np.abs(w).max(initial=0.0)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return inv


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


def _psd_quadratic_trace(x, b) -> float:
    """tr(B^H X B) for Hermitian PSD X, evaluated as ||L^H P^T B||_F^2 from a pivoted
    Cholesky factorization P^T X P = L L^H (LAPACK ``?pstrf`` on the lower triangle).

    Mathematically identical to the direct trace, but the factorization stops at the
    first pivot at or below RANK_TOL * max diag X and its trailing Schur complement
    counts as exactly zero.  Solver noise in X then cannot leak into the trace through
    near-null directions, which matters when the exact value is zero.  The zero and the
    empty matrix give 0.0.
    """
    top = np.diagonal(x).real.max(initial=0.0)
    if top <= 0.0:
        return 0.0
    pstrf = sla.lapack.get_lapack_funcs("pstrf", (x,))
    factor, piv, rank, info = pstrf(x, tol=RANK_TOL * top, lower=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to the pivoted Cholesky factorization")
    proj = np.tril(factor[:, :rank]).conj().T @ b[piv - 1]
    return float(np.vdot(proj, proj).real)


def require_unobserved(c, v_u) -> None:
    """Raise UnstablePoles when C observes the closed-right-half-plane invariant subspace:
    |C v| above KERNEL_TOL * (1 + max|C|) on its orthonormal basis v_u."""
    c_scale = 1.0 + np.abs(c).max(initial=0.0)
    violation = np.abs(c @ v_u).max(initial=0.0)
    if violation > KERNEL_TOL * c_scale:
        raise UnstablePoles(
            f"output observes a closed-right-half-plane mode "
            f"(|C v| = {violation:.3e} > {KERNEL_TOL:.1e} * {c_scale:.3e})"
        )


def stable_unstable_split(sys: StateSpace) -> tuple:
    """``(T_s, Z_s^H B, C Z_s)`` with T_s upper triangular: the stable part of the Schur
    form ``sys.schur``, whose trailing columns Z_s satisfy Z_s^H A = T_s Z_s^H.  Raises
    UnstablePoles unless C observes none of the closed-right-half-plane modes
    (``require_unobserved`` on the leading Schur vectors); then
    C (sI - A)^{-1} B = C Z_s (sI - T_s)^{-1} Z_s^H B."""
    t, z, n_u = sys.schur
    require_unobserved(sys.C, z[:, :n_u])
    return t[n_u:, n_u:], z[:, n_u:].conj().T @ sys.B, sys.C @ z[:, n_u:]


def diagonal_poles(t) -> np.ndarray | None:
    """The diagonal of an upper triangular T when every entry off it is exactly zero,
    else None."""
    poles = np.diagonal(t)
    return poles if np.count_nonzero(t) == np.count_nonzero(poles) else None


def triangular_response(t, b, c, s) -> np.ndarray:
    """C (sI - T)^{-1} B, shape (len(s), p, m), for upper triangular T and a 1-D array s,
    vectorized across SCHUR_CHUNK frequencies at a time.  A diagonal T (poles p) takes
    the closed form C (B / (s - p)), O(n m p) per frequency and one matrix product per
    chunk; otherwise back substitution over the rows of T, O(n^2 m)."""
    s = np.asarray(s, dtype=complex)
    (n, m), p = b.shape, c.shape[0]
    poles = diagonal_poles(t)
    out = np.empty((s.size, p, m), dtype=complex)
    for k in range(0, s.size, SCHUR_CHUNK):
        shift = s[k : k + SCHUR_CHUNK, None]
        if poles is not None:
            # (n, chunk, m): one column block per frequency, so C multiplies all at once;
            # a real C acts alike on the interleaved real and imaginary parts
            x = (b[:, None, :] / (shift.T - poles[:, None])[:, :, None]).reshape(n, -1)
            y = (c @ x.view(float)).view(complex) if np.isrealobj(c) else c @ x
            out[k : k + SCHUR_CHUNK] = y.reshape(p, -1, m).transpose(1, 0, 2)
            continue
        x = np.empty((shift.shape[0], n, m), dtype=complex)
        for i in range(n - 1, -1, -1):
            x[:, i] = (b[i] + t[i, i + 1 :] @ x[:, i + 1 :]) / (shift - t[i, i])
        out[k : k + SCHUR_CHUNK] = c @ x
    return out


def solve_lyapunov_with_kernel(sys: StateSpace):
    """Observability Gramian of (A, B, C) allowing unobservable marginal modes, kept in
    the deflated coordinates of ``stable_unstable_split``.

    Returns ``(X_s, h2sq, residual)``.  X_s solves T_s^H X_s + X_s T_s + C_s^H C_s = 0;
    the PSD solution of A^T X + X A + C^T C = 0 that vanishes on the
    closed-right-half-plane invariant subspace is X = Z_s X_s Z_s^H, which is never
    formed.  ``h2sq = tr(B_s^H X_s B_s)`` with B_s = Z_s^H B is the squared H2 norm
    (``_psd_quadratic_trace``, which cuts the numerical rank of X_s), and ``residual``
    the largest entry of |T_s^H X_s + X_s T_s + C_s^H C_s|, the equation solved.  A
    diagonal T_s (poles p) gives X_s = -C_s^H C_s / (conj(p_k) + p_l) entrywise and an
    O(n^2) residual; otherwise one triangular Sylvester solve (``ztrsyl``).  Raises
    UnstablePoles when C observes a marginal mode, IllConditioned when the Sylvester
    solve reports a problem.
    """
    t_s, b_s, c_s = stable_unstable_split(sys)
    gram = c_s.conj().T @ c_s
    poles = diagonal_poles(t_s)
    if poles is not None:
        sums = poles.conj()[:, None] + poles
        x_s = -gram / sums
        residual = sums * x_s + gram
    else:
        x_s, scale, info = sla.lapack.ztrsyl(t_s, t_s, -gram, trana="C")
        if info:
            raise IllConditioned(f"triangular Lyapunov solve failed (ztrsyl info={info})")
        x_s = x_s / scale
        residual = t_s.conj().T @ x_s + x_s @ t_s + gram
    return x_s, _psd_quadratic_trace(x_s, b_s), float(np.abs(residual).max(initial=0.0))
