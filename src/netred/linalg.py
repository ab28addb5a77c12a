"""Dense linear-algebra kernels used throughout the package.

Symmetric eigendecompositions, an eigenvalue-based pseudoinverse, Hurwitz
tests, and Lyapunov solvers, including the variant that tolerates modes in
the closed right half plane as long as the output matrix does not observe
them.  Everything operates on small dense matrices (state dimension up to
a couple of hundred) and is pure: no function mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import KernelConditionViolated, NotHurwitz, NotSymmetric

# Eigenvalues with real part >= -STABILITY_MARGIN count as closed right half
# plane; Laplacian zero modes arrive with O(1e-14) numerical noise.
STABILITY_MARGIN = 1e-9
RANK_TOL = 1e-10
SYMMETRY_RTOL = 1e-10
KERNEL_TOL = 1e-8


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


@dataclass(frozen=True)
class StateSpace:
    """A strictly proper LTI realization (A, B, C) with y = C x, dx/dt = A x + B u."""

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

    def response(self, s: complex) -> np.ndarray:
        """Transfer matrix C (sI - A)^{-1} B at a single complex frequency."""
        shifted = s * np.eye(self.n_states) - self.A
        return self.C @ np.linalg.solve(shifted, self.B.astype(complex))


def sym_eig(mat, rtol: float = SYMMETRY_RTOL) -> SymmetricEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises NotSymmetric if the asymmetry exceeds ``rtol`` relative to the
    largest entry.  The input is symmetrized before factorization so the
    reconstruction U diag(w) U^T matches it to working precision.
    """
    m = _square(mat)
    scale = 1.0 + np.abs(m).max(initial=0.0)
    asym = np.abs(m - m.T).max(initial=0.0)
    if asym > rtol * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {rtol:.1e} * {scale:.3e}")
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return SymmetricEig(eigenvalues=w, eigenvectors=u)


def pinv(mat, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Built as U diag(w)^+ U^T: eigenvalues with |w| <= rank_tol * max|w| are
    treated as zero and left uninverted.  The zero matrix maps to itself.
    """
    eig = sym_eig(mat)
    w, u = eig.eigenvalues, eig.eigenvectors
    cutoff = rank_tol * np.abs(w).max(initial=0.0)
    inv = np.zeros_like(w)
    keep = np.abs(w) > cutoff
    inv[keep] = 1.0 / w[keep]
    return (u * inv) @ u.T


def is_hurwitz(mat, margin: float = STABILITY_MARGIN) -> bool:
    """True iff every eigenvalue has real part < -margin."""
    m = _square(mat)
    if m.shape[0] == 0:
        return True
    return bool(np.linalg.eigvals(m).real.max() < -margin)


def solve_lyapunov(a, q, margin: float = STABILITY_MARGIN) -> np.ndarray:
    """Solve A^T X + X A + Q = 0 for Hurwitz A and symmetric PSD Q.

    Raises NotHurwitz if A has an eigenvalue with real part >= -margin.
    """
    a = _square(a, "A")
    q = _square(q, "Q")
    if not is_hurwitz(a, margin):
        raise NotHurwitz("A has an eigenvalue in the closed right half plane")
    x = sla.solve_continuous_lyapunov(a.T, -q)
    return 0.5 * (x + x.T)


def stable_unstable_split(a, margin: float = STABILITY_MARGIN):
    """Split the state space into stable and closed-right-half-plane invariant subspaces.

    Returns ``(v_stable, a_stable, v_unstable)`` where the columns of
    ``v_stable`` / ``v_unstable`` are orthonormal bases of the invariant
    subspaces for eigenvalues with Re < -margin / Re >= -margin, and
    ``a_stable`` is the (quasi-triangular) restriction of ``a`` to the
    stable subspace, i.e. a @ v_stable = v_stable @ a_stable.

    Computed with two ordered real Schur decompositions, which handles
    defective eigenvalues without forming generalized eigenvectors.
    """
    a = _square(a)
    n = a.shape[0]
    t_s, z_s, n_s = sla.schur(a, output="real", sort=lambda re, im: re < -margin)
    if n_s == n:
        return z_s, t_s, np.zeros((n, 0))
    if n_s == 0:
        t_u, z_u, n_u = sla.schur(a, output="real", sort=lambda re, im: re >= -margin)
        return np.zeros((n, 0)), np.zeros((0, 0)), z_u[:, :n_u]
    t_u, z_u, n_u = sla.schur(a, output="real", sort=lambda re, im: re >= -margin)
    if n_s + n_u != n:
        raise ArithmeticError(
            f"inconsistent stable/unstable split ({n_s} + {n_u} != {n}); "
            "an eigenvalue sits too close to the margin"
        )
    return z_s[:, :n_s], t_s[:n_s, :n_s], z_u[:, :n_u]


def _psd_quadratic_trace(x, b, rank_tol: float = RANK_TOL) -> float:
    """tr(B^T X B) for symmetric PSD X, evaluated as sum_i lam_i ||v_i^T B||^2.

    Mathematically identical to the direct trace, but eigenvalues of X below
    rank_tol * lam_max are treated as exact zeros (the same rank decision as
    in ``pinv``).  Solver noise in X then cannot leak into the trace through
    near-null modes, which matters when the exact value is zero.
    """
    w, u = np.linalg.eigh(x)
    cutoff = rank_tol * w.max(initial=0.0)
    keep = w > cutoff
    proj = u[:, keep].T @ b
    return float(w[keep] @ (proj**2).sum(axis=1))


def kernel_checked_split(
    a, c, margin=STABILITY_MARGIN, kernel_tol=KERNEL_TOL, error=KernelConditionViolated
):
    """``stable_unstable_split(a)``, raising ``error`` when C observes the
    closed-right-half-plane part: |C v| above kernel_tol * (1 + max|C|) on its basis v."""
    v_s, a_s, v_u = stable_unstable_split(a, margin)
    c_scale = 1.0 + np.abs(c).max(initial=0.0)
    violation = np.abs(c @ v_u).max(initial=0.0)
    if violation > kernel_tol * c_scale:
        raise error(
            f"output observes a closed-right-half-plane mode "
            f"(|C v| = {violation:.3e} > {kernel_tol:.1e} * {c_scale:.3e})"
        )
    return v_s, a_s, v_u


def solve_lyapunov_with_kernel(
    a,
    b,
    c,
    margin: float = STABILITY_MARGIN,
    kernel_tol: float = KERNEL_TOL,
):
    """Lyapunov solve A^T X + X A + C^T C = 0 allowing unobservable marginal modes.

    Requires that the invariant subspace for eigenvalues with
    Re >= -margin lies in ker C (checked numerically on an orthonormal
    basis).  Returns ``(X, h2sq)`` where X is the unique PSD solution that
    vanishes on that subspace and ``h2sq = tr(B^T X B)`` is the squared H2
    norm of the realization (A, B, C).

    Construction: split into stable/marginal blocks, solve the Lyapunov
    equation on the stable block only, and embed with zero blocks.

    Raises KernelConditionViolated when C observes a marginal mode.
    """
    a = _square(a, "A")
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    v_s, a_s, v_u = kernel_checked_split(a, c, margin, kernel_tol)
    n = a.shape[0]
    if v_u.shape[1] == 0:
        q = c.T @ c
        x = sla.solve_continuous_lyapunov(a.T, -q)
        x = 0.5 * (x + x.T)
        return x, _psd_quadratic_trace(x, b)
    n_s = v_s.shape[1]
    if n_s == 0:
        return np.zeros((n, n)), 0.0
    c_s = c @ v_s
    x_s = sla.solve_continuous_lyapunov(a_s.T, -(c_s.T @ c_s))
    x_s = 0.5 * (x_s + x_s.T)
    t_inv = np.linalg.inv(np.hstack([v_s, v_u]))
    x = t_inv[:n_s, :].T @ x_s @ t_inv[:n_s, :]
    x = 0.5 * (x + x.T)
    return x, _psd_quadratic_trace(x, b)
