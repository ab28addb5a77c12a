"""Linear-algebra kernels used throughout the package.

Symmetric eigendecompositions, an eigenvalue-based pseudoinverse, Hurwitz
tests (of one matrix, or of a whole stack of blocks in one call) and
Lyapunov solvers.  Only ``sorted_schur`` chooses between a real ``eigh``
(exactly symmetric input: T real diagonal) and a complex Schur form.

Every norm reads a realization in modal coordinates, a ``ModalSystem``: the
drift blockdiag(T_i) of its sorted Schur blocks, the input and the output in
those coordinates, and the states in the closed right half plane marked.  A
network realization is built so, one n x n block per eigenvalue of its
coupling (``netsys``), and its output, rotated into the coupling's
eigenbasis, has a diagonal block d on the full system's states; a bare
``StateSpace`` is one block, the Schur form of its whole drift
(``StateSpace.modal``).  The one stable/unstable deflation
(``stable_unstable_split``) drops the unobserved closed-right-half-plane
states and gives the deflated triple (T_s, B_s, C_s, d_s), which both the
kernel-conditioned Lyapunov solve and the one frequency-response primitive
(``triangular_response``) take.  When T_s is diagonal (symmetric agents,
single integrators included) both are closed forms, the diagonal output
block makes the Gramian an arrow whose head is eliminated before the rank
cut, and no N n-state matrix is formed; otherwise (d_s written into C_s)
they are a triangular Sylvester solve and a back substitution.  The Gramian
never leaves modal coordinates: the squared H2 norm is a trace over the
deflated input matrix, whose numerical rank a pivoted Cholesky
factorization cuts.  Every function is pure: none mutates its arguments.
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
class ModalSystem:
    """A strictly proper realization in the coordinates of its drift's Schur form.

    The drift is blockdiag(t) for a stack ``t`` (K, n, n) of upper triangular blocks;
    ``unstable`` marks the states whose pole has Re >= -STABILITY_MARGIN, each block's
    first, so they span an invariant subspace.  The output is [diag(d); 0] on the first
    len(d) <= p states plus C on the others: a diagonal block that a network realization
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

    @property
    def modal(self) -> ModalSystem:
        return self

    def observation(self, states) -> float:
        """The largest |entry| of the output's columns at the ``states`` (a boolean mask)."""
        n1 = self.d.size
        return max(
            np.abs(self.d[states[:n1]]).max(initial=0.0),
            np.abs(self.C[:, states[n1:]]).max(initial=0.0),
        )

    @cached_property
    def poles(self) -> np.ndarray | None:
        """The diagonal of the drift when every block is exactly diagonal, else None."""
        diag = np.diagonal(self.t, axis1=1, axis2=2)
        return diag.ravel() if np.count_nonzero(self.t) == np.count_nonzero(diag) else None


@dataclass(frozen=True)
class StateSpace:
    """A strictly proper LTI realization (A, B, C) with y = C x, dx/dt = A x + B u, given
    densely (a bare realization; network realizations are ``ModalSystem``)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

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
        eigenvalues Re >= -STABILITY_MARGIN first on the diagonal of T, from one
        ``sorted_schur`` of A on first use."""
        return sorted_schur(self.A)

    @cached_property
    def modal(self) -> ModalSystem:
        """The realization in the coordinates of ``schur``: (T, Z^H B, C Z) as one block."""
        t, z, n_u = self.schur
        return ModalSystem(
            t[None],
            z.conj().T @ self.B,
            self.C @ z,
            np.arange(self.n_states) < n_u,
            1.0 + np.abs(self.C).max(initial=0.0),
        )


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


def _psd_quadratic_trace(x, b, scale=None) -> float:
    """tr(B^H X B) for Hermitian PSD X, evaluated as ||L^H P^T B||_F^2 from a pivoted
    Cholesky factorization P^T X P = L L^H (LAPACK ``?pstrf`` on the lower triangle).

    Mathematically identical to the direct trace, but the factorization stops at the
    first pivot at or below RANK_TOL * scale (default: max diag X) and its trailing
    Schur complement counts as exactly zero.  Solver noise in X then cannot leak into
    the trace through near-null directions, which matters when the exact value is zero.
    ``?pstrf`` never compares its first pivot with the tolerance, so an X whose whole
    diagonal is at or below it gives 0.0 without a factorization, as do the zero and the
    empty matrix.
    """
    top = np.diagonal(x).real.max(initial=0.0)
    tol = RANK_TOL * (top if scale is None else scale)
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


def stable_unstable_split(sys) -> tuple:
    """``(T_s, B_s, C_s, d_s)``: the stable part of the modal form ``sys.modal`` (of a
    ``ModalSystem`` or a ``StateSpace``), on which C (sI - A)^{-1} B is the response of
    the deflated triple (see ``triangular_response``).  T_s is the 1-D array of poles
    when the drift is diagonal, else upper triangular, and then d_s is empty: the
    diagonal output block is written into C_s.  A deflated state of the diagonal block
    takes its output row below the kept ones, an orthogonal change of output
    coordinates.  Raises UnstablePoles unless the output observes none of the
    closed-right-half-plane modes (``require_unobserved``)."""
    m = sys.modal
    require_unobserved(m, m.unstable)
    keep = ~m.unstable
    n1 = m.d.size
    first = keep[:n1]
    c_s = m.C[:, keep[n1:]]
    if not first.all():
        c_s = c_s[np.r_[np.flatnonzero(first), np.flatnonzero(~first), n1 : m.n_outputs]]
    d_s = m.d[first]
    if m.poles is None and keep.any():
        c_s = np.hstack([np.eye(m.n_outputs, d_s.size) * d_s, c_s])
        return sla.block_diag(*m.t)[np.ix_(keep, keep)], m.B[keep], c_s, d_s[:0]
    return (np.zeros(0) if m.poles is None else m.poles[keep]), m.B[keep], c_s, d_s


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
    """C (sI - T)^{-1} B, shape (len(s), p, m), of a deflated triple with output
    [diag(d); 0] on the first len(d) states and c on the rest, for a 1-D array s,
    vectorized across SCHUR_CHUNK frequencies at a time.  A diagonal T (t the 1-D array
    of its poles p) takes the closed form d * B_1 / (s - p_1) + c (B_2 / (s - p_2)),
    O(n m p) per frequency and one matrix product per chunk; an upper triangular T
    (with an empty d) back substitution over its rows, O(n^2 m)."""
    s = np.asarray(s, dtype=complex)
    (n, m), p = b.shape, c.shape[0]
    out = np.empty((s.size, p, m), dtype=complex)
    for k in range(0, s.size, SCHUR_CHUNK):
        shift = s[k : k + SCHUR_CHUNK, None]
        if t.ndim == 1:
            # (n, chunk, m): one column block per frequency, so C multiplies all at once
            x = b[:, None, :] / (shift.T - t[:, None])[:, :, None]
            y = apply_output(c, d, x.reshape(n, -1))
            out[k : k + SCHUR_CHUNK] = y.reshape(p, -1, m).transpose(1, 0, 2)
            continue
        x = np.empty((shift.shape[0], n, m), dtype=complex)
        for i in range(n - 1, -1, -1):
            x[:, i] = (b[i] + t[i, i + 1 :] @ x[:, i + 1 :]) / (shift - t[i, i])
        out[k : k + SCHUR_CHUNK] = c @ x
    return out


def solve_lyapunov_with_kernel(sys):
    """Observability Gramian of a realization allowing unobservable marginal modes, kept
    in the deflated coordinates of ``stable_unstable_split``.

    Returns ``((D, F, R), h2sq, residual)``: the Gramian X_s = [[diag(D), F], [F^H, R]]
    solving T_s^H X_s + X_s T_s + C_s^H C_s = 0, an arrow whose diagonal head belongs
    to the diagonal output block d (D and F are empty without one).  The PSD solution
    of A^T X + X A + C^T C = 0 that vanishes on the closed-right-half-plane invariant
    subspace is X_s in the coordinates of the modal form, and is never formed.
    ``residual`` is the largest entry of |T_s^H X_s + X_s T_s + C_s^H C_s| over the
    three blocks.  A diagonal T_s (poles p) gives each block entrywise,
    X = -(C_s^H C_s) / (conj(p_k) + p_l); otherwise R comes from one triangular
    Sylvester solve (``ztrsyl``).

    ``h2sq = tr(B_s^H X_s B_s)`` is the squared H2 norm.  The head is eliminated first:
    with Y = B_1 + D^+ F B_2, h2sq = sum D |Y|^2 + tr(B_2^H S B_2) for the Schur
    complement S = R - F^H D^+ F, whose numerical rank ``_psd_quadratic_trace`` cuts
    against RANK_TOL * max diag R.  Raises UnstablePoles when C observes a marginal
    mode, IllConditioned when the Sylvester solve reports a problem.
    """
    t_s, b_s, c_s, d = stable_unstable_split(sys)
    n1 = d.size
    gram = c_s.conj().T @ c_s
    if t_s.ndim == 1:
        p1, p2 = t_s[:n1], t_s[n1:]
        sums = p2.conj()[:, None] + p2
        r = -gram / sums
        residual = sums * r + gram
    else:
        p1, p2 = np.zeros(0), np.diagonal(t_s)
        r, scale, info = sla.lapack.ztrsyl(t_s, t_s, -gram, trana="C")
        if info:
            raise IllConditioned(f"triangular Lyapunov solve failed (ztrsyl info={info})")
        r = r / scale
        residual = t_s.conj().T @ r + r @ t_s + gram
    head_sums, norm_sq = 2.0 * p1.real, np.abs(d) ** 2
    head = -norm_sq / head_sums
    cross = d.conj()[:, None] * c_s[:n1]
    cross_sums = p1.conj()[:, None] + p2
    f = -cross / cross_sums
    residual = max(
        np.abs(residual).max(initial=0.0),
        np.abs(head_sums * head + norm_sq).max(initial=0.0),
        np.abs(cross_sums * f + cross).max(initial=0.0),
    )
    b1, b2 = b_s[:n1], b_s[n1:]
    g = np.divide(f, head[:, None], out=np.zeros_like(f), where=head[:, None] > 0.0)  # D^+ F
    y = b1 + g @ b2
    t1 = float(head @ (np.abs(y) ** 2).sum(axis=1))
    s = r - f.conj().T @ g if n1 else r
    tail = _psd_quadratic_trace(s, b2, np.diagonal(r).real.max(initial=0.0))
    return (head, f, r), t1 + tail, float(residual)
