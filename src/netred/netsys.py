"""Assembly of the full, reduced and error realizations, and the synchronization test.

A network couples N identical agents (A, B, E) through a graph Laplacian L,
with external input entering at leader nodes selected by M:

    dx/dt = (I (x) A - L (x) B) x + (M (x) E) u,      y = (L (x) I) x

The reduced network is the Petrov-Galerkin projection of this realization
with V = P (x) I and W = P (P^T P)^{-1} (x) I for a partition's
characteristic matrix P, taken in the coordinates (P^T P)^{1/2} x where its
coupling is the symmetric quotient l_bar.  The error realization is the
parallel difference of the two: its transfer function is S - S_hat.

No realization is formed in these coordinates.  Each coupling, L and l_bar,
is factored once, from its eigenbasis U diag(lams) U^T and one stacked
``sorted_schur`` of the n x n blocks A - lam_i B = V_i T_i V_i^H
(``network_modes``), and every realization is a ``linalg.ModalSystem`` in
the modal states blockdiag(V_i^H) (U^T (x) I) x: drift blockdiag(T_i) (the
poles w_ij for symmetric agents), input rows (U^T M)_i (x) V_i^H E.  Norms
do not change under a unitary change of output coordinates, so the output
is rotated by the same Q = blockdiag(V_i^H) (U^T (x) I) of L: the full
output L (x) I becomes the diagonal block d = lams (x) 1_n, and the reduced
output the N n x k n coupling C_2, block (i, j) lam_i W_ij V_i^H V_hat_j
with W = U^T P (P^T P)^{-1/2} U_hat.  The error system's output is
[d | -C_2], and the triangle route's outer terms are the full and reduced
realizations with an unrotated output dL (x) I, dL P (P^T P)^{-1/2} (x) I
in place of theirs (``with_output``).  No N n-state drift, input or output
is formed for any agent: the deflation, the response and the Gramian work
on the stack of blocks T_i (``linalg``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .graphcore import ZERO_EIG_TOL, Laplacian, Partition, ReducedGraph, leader_selector
from .linalg import SYMMETRY_RTOL, ModalSystem, is_hurwitz, sorted_schur


@dataclass(frozen=True)
class AgentDynamics:
    """Identical linear agent (A, B, E): A, B square n x n, E is n x r.  ``symmetric``,
    the one decision on agent symmetry, holds when |A - A^T| and |B - B^T| are at most
    SYMMETRY_RTOL (1 + max(|A|, |B|)); A and B are then kept as their symmetric parts."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        e = np.asarray(self.E, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"agent A must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"agent B must match A's shape {a.shape}, got {b.shape}")
        if e.ndim != 2 or e.shape[0] != a.shape[0]:
            raise ValueError(f"agent E must have {a.shape[0]} rows, got shape {e.shape}")
        ab, ab_t = np.stack([a, b]), np.stack([a.T, b.T])
        scale = 1.0 + np.abs(ab).max(initial=0.0)
        symmetric = bool(np.abs(ab - ab_t).max(initial=0.0) <= SYMMETRY_RTOL * scale)
        if symmetric:  # bit-identical for exactly symmetric input
            a, b = 0.5 * (ab + ab_t)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "symmetric", symmetric)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.E.shape[1]

    def is_single_integrator(self) -> bool:
        return np.array_equal(np.hstack([self.A, self.B, self.E]), [[0.0, 1.0, 1.0]])


@dataclass(frozen=True)
class NetworkSystem:
    """Leader-follower network: Laplacian, ordered leader nodes, agent dynamics."""

    laplacian: Laplacian
    leaders: tuple
    dyn: AgentDynamics

    def __post_init__(self):
        leaders = tuple(int(v) for v in self.leaders)
        # leader_selector validates distinctness and range
        leader_selector(self.laplacian.n_nodes, leaders)
        object.__setattr__(self, "leaders", leaders)

    @property
    def n_agents(self) -> int:
        return self.laplacian.n_nodes

    @property
    def n_leaders(self) -> int:
        return len(self.leaders)

    @cached_property
    def m_matrix(self) -> np.ndarray:
        return leader_selector(self.n_agents, self.leaders)


@dataclass(frozen=True)
class Modes:
    """The modal data of the drift I (x) A - Lc (x) B for a symmetric coupling
    Lc = U diag(lams) U^T: one sorted Schur form A - lam_i B = V_i T_i V_i^H per
    eigenvalue, from one stacked ``sorted_schur``.  In the coordinates
    blockdiag(V_i^H) (U^T (x) I) x the drift is blockdiag(T_i), held as one-state blocks
    for symmetric agents; ``unstable`` marks the states with Re >= -STABILITY_MARGIN,
    each block's first."""

    lams: np.ndarray
    u: np.ndarray
    t: np.ndarray
    v: np.ndarray
    unstable: np.ndarray


def network_modes(dyn: AgentDynamics, eig) -> Modes:
    """``Modes`` of the coupling whose eigendecomposition is ``eig``."""
    lams = eig.eigenvalues
    t, v, n_u = sorted_schur(dyn.A - lams[:, None, None] * dyn.B)
    if dyn.symmetric:  # decided per agent, so every stack of one network has one block size
        t = np.diagonal(t, axis1=1, axis2=2).reshape(-1, 1, 1)
    unstable = (np.arange(dyn.n) < n_u[:, None]).ravel()
    return Modes(lams, eig.eigenvectors, t, v, unstable)


def modal_output(core, modes: Modes, left: Modes | None = None) -> np.ndarray:
    """The output (core (x) I) blockdiag(V_j) on the states of ``modes``, whose block
    (a, j) is core_aj V_j; with ``left``, blockdiag(V_i^H) (core (x) I) blockdiag(V_j),
    whose block (i, j) is core_ij V_i^H V_j (``left`` gives the V_i)."""
    if left is None:
        blocks = np.swapaxes(modes.v, 0, 1)[None]  # (1, n, k, n): [., r, j, s] = V_j[r, s]
    else:
        blocks = np.einsum("iar,jas->irjs", left.v.conj(), modes.v)
    out = core[:, None, :, None] * blocks
    return out.reshape(out.shape[0] * out.shape[1], -1)


def _modal_system(dyn, modes: Modes, b_nodes, c, c_scale, d=np.zeros(0)) -> ModalSystem:
    """The realization with input b_nodes (x) E, whose modal rows are
    (U^T b_nodes)_i (x) V_i^H E, and the modal output ``c`` and ``d``."""
    ve = np.swapaxes(modes.v.conj(), 1, 2) @ dyn.E  # (K, n, r)
    ub = modes.u.T @ b_nodes
    b = (ub[:, None, :, None] * ve[:, :, None, :]).reshape(ve.shape[0] * dyn.n, -1)
    return ModalSystem(modes.t, b, c, modes.unstable, c_scale, d)


def assemble_full(ns: NetworkSystem, modes: Modes | None = None) -> ModalSystem:
    """Full network realization (I (x) A - L (x) B, M (x) E, L (x) I) in the modal
    coordinates of L's ``Modes`` (computed when not given).  Its output is rotated by the
    orthogonal Q = blockdiag(V_i^H) (U^T (x) I), which turns L (x) I into the diagonal
    block d = lams (x) 1_n."""
    if modes is None:
        modes = network_modes(ns.dyn, ns.laplacian.spectral)
    size = modes.lams.size * ns.dyn.n
    return _modal_system(
        ns.dyn,
        modes,
        ns.m_matrix,
        np.zeros((size, 0)),
        1.0 + np.abs(ns.laplacian.mat).max(initial=0.0),
        np.repeat(modes.lams, ns.dyn.n),
    )


def assemble_reduced_bar(
    ns: NetworkSystem, pi: Partition, rg: ReducedGraph, full: Modes, modes: Modes
) -> ModalSystem:
    """Reduced network realization in the symmetrized coordinates (P^T P)^{1/2} x,
    (I (x) A - l_bar (x) B, (P^T P)^{1/2} M_hat (x) E, L P (P^T P)^{-1/2} (x) I) for the
    partition's reduction ``rg``: similar to the Petrov-Galerkin projection, so with
    the same transfer function, and with a symmetric coupling.  It takes the modal
    coordinates of l_bar's ``modes`` and the output coordinates of the full realization
    (``full``, L's modes): there the output is the N n x k n coupling C_2 whose block
    (i, j) is lam_i W_ij V_i^H V_hat_j, with W = U^T P (P^T P)^{-1/2} U_hat."""
    root = np.sqrt(pi.sizes)
    w = full.u.T @ (pi.char_matrix / root[None, :]) @ modes.u
    lp = rg.laplacian_hat[pi.labels] + rg.residual  # L P = P L_hat + R, by indexing
    c_scale = 1.0 + np.abs(lp / root[None, :]).max(initial=0.0)
    c = modal_output(full.lams[:, None] * w, modes, left=full)
    return _modal_system(ns.dyn, modes, root[:, None] * rg.m_hat, c, c_scale)


def with_output(sys: ModalSystem, modes: Modes, c_nodes) -> ModalSystem:
    """``sys``, a realization on the states of ``modes``, with the unrotated output
    c_nodes (x) I in place of its own and no diagonal block."""
    c = modal_output(c_nodes @ modes.u, modes)
    return replace(sys, C=c, d=np.zeros(0), c_scale=1.0 + np.abs(c_nodes).max(initial=0.0))


def assemble_error_system(full: ModalSystem, reduced: ModalSystem) -> ModalSystem:
    """Parallel difference of the full and reduced realizations, whose transfer function
    is S - S_hat: the blocks of both drifts, stacked input, output [d | C, -C_hat] in the
    full realization's output coordinates (``reduced`` has no diagonal block)."""
    return ModalSystem(
        np.concatenate([full.t, reduced.t]),
        np.vstack([full.B, reduced.B]),
        np.hstack([full.C, -reduced.C]),
        np.concatenate([full.unstable, reduced.unstable]),
        max(full.c_scale, reduced.c_scale),
        full.d,
    )


def hurwitz_over(dyn: AgentDynamics, lams, zero_eig_tol: float) -> bool:
    """True iff A - lam B is Hurwitz for every lam in ``lams`` above zero_eig_tol: one
    ``is_hurwitz`` call on the stack of those blocks."""
    lams = np.asarray(lams, dtype=float)
    lams = lams[lams > zero_eig_tol]
    return is_hurwitz(dyn.A - lams[:, None, None] * dyn.B)


def is_synchronized(ns: NetworkSystem, zero_eig_tol: float = ZERO_EIG_TOL) -> bool:
    """True iff A - lam B is Hurwitz for every nonzero Laplacian eigenvalue."""
    return hurwitz_over(ns.dyn, ns.laplacian.spectral.eigenvalues, zero_eig_tol)
