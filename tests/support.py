"""Shared oracles and reference data for the test suite.

The oracles here deliberately avoid the production code paths they check,
and each stays independent of one path only:

* the Gramian: ``lyap_kron_oracle`` solves the Lyapunov equation by
  Kronecker vectorization and ``linalg.solve_lyapunov`` by LAPACK's dense
  solver, where the package runs an entrywise recurrence over Schur blocks;
* the response: ``dense_response`` does one dense LU per frequency (the
  package uses one Schur form for all of them), and the reference sweep
  deflates with two real Schur forms;
* the assembly: the Kronecker builders (``dense_full`` ...) form a network
  realization as a ``Dense`` triple, and ``dense_route`` factors it in one
  complex Schur form of its whole drift, where the package assembles it from
  the Laplacian eigenbasis.  ``dense_route`` and ``modal_form`` (a dense
  triple on ``linalg.sorted_schur``) feed the package's own Gramian,
  response and deflation, so they check the assembly, not those kernels;
* the DC gain: ``pinv`` gives sigma_max(C A^+ B) from a dense pseudoinverse;
* equitability: the oracles test degree constancy cell by cell;
* the edge list: ``laplacian_by_edge_loop`` and ``edges_by_entry_loop`` fill and read
  the matrix one edge or entry at a time, where the package scatters and gathers arrays.

The reduced realization, the auxiliary systems and the spectral H2 formulas
re-derive what ``bounds.Analysis`` decides and assembles once, from the
module-default tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from netred.generators import (
    random_dissipative_dynamics,
    random_singular_symmetric_dynamics,
    random_symmetric_dynamics,
    single_integrator,
)
from netred.errors import Disconnected, NotAEP, NotSynchronized
from netred.graphcore import (
    ZERO_EIG_TOL,
    is_almost_equitable,
    is_connected,
    project_to_aep_laplacian,
    reduce_graph,
)
from netred.linalg import RANK_TOL, STABILITY_MARGIN, ModalSystem, sorted_schur, sym_eig
from netred.netfile import EDGE_TOL
from netred.netsys import hurwitz_over, is_synchronized
from netred.norms import (
    SWEEP_COARSE_PPD,
    SWEEP_LEVEL_ULPS,
    SWEEP_W_HI,
    SWEEP_W_LO,
    SWEEP_W_RTOL,
    SWEEP_ZOOM_POINTS,
    NormResult,
    aux_gramian_h2_sq,
)

# Reference matrices for the worked 5-node unit path with clusters
# {0,1,2} and {3,4}.  Entries of the projected matrix are exact ninths
# (halves written as x.5/9).
PATH5_LAPLACIAN = np.array(
    [
        [1.0, -1.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, -1.0, 0.0],
        [0.0, 0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, 0.0, -1.0, 1.0],
    ]
)
PATH5_CELLS = ((0, 1, 2), (3, 4))
PATH5_AEP_PROJECTION = (
    np.array(
        [
            [11.0, -7.0, -1.0, 0.0, -3.0],
            [-7.0, 20.0, -10.0, 0.0, -3.0],
            [-1.0, -10.0, 14.0, -4.5, 1.5],
            [0.0, 0.0, -4.5, 13.5, -9.0],
            [-3.0, -3.0, 1.5, -9.0, 13.5],
        ]
    )
    / 9.0
)


class Dense(NamedTuple):
    """A dense realization dx/dt = A x + B u, y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def modal_form(a, b, c) -> ModalSystem:
    """The dense realization (A, B, C) in the coordinates of ``sorted_schur`` of A:
    (T, Z^H B, C Z), as one-state blocks when A is exactly symmetric (T diagonal), else
    as one triangular block."""
    a, b, c = (np.asarray(m, dtype=float) for m in (a, b, c))
    t, z, n_u = sorted_schur(a)
    return ModalSystem(
        np.diagonal(t)[:, None, None] if np.isrealobj(t) else t[None],
        z.conj().T @ b,
        c @ z,
        np.arange(len(a)) < n_u,
        1.0 + np.abs(c).max(initial=0.0),
    )


def pinv(mat) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix, the dense DC-gain oracle's.

    Built as U diag(w)^+ U^T: eigenvalues with |w| <= RANK_TOL * max|w| are
    treated as zero and left uninverted.  The zero matrix maps to itself.
    """
    eig = sym_eig(mat)
    w = eig.eigenvalues
    keep = np.abs(w) > RANK_TOL * np.abs(w).max(initial=0.0)
    w_plus = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return (eig.eigenvectors * w_plus) @ eig.eigenvectors.T


def lyap_kron_oracle(a, q):
    """Brute-force Lyapunov solve: (I (x) A^T + A^T (x) I) vec(X) = -vec(Q)."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a.T) + np.kron(a.T, np.eye(n))
    x = np.linalg.solve(lhs, -q.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


def dense_gramian(a, arrow) -> np.ndarray:
    """X = Z X_s Z^H: the Gramian of ``solve_lyapunov_with_kernel`` on ``modal_form`` of
    a realization with drift A (whose arrow (D, F, X_s) has an empty head) in the
    coordinates of A, from its X_s on the states of ``sorted_schur(A)``, zero on the
    deflated ones."""
    head, _, x_s = arrow
    assert head.size == 0
    z = sorted_schur(np.asarray(a, dtype=float))[1]
    x = (z @ x_s @ z.conj().T).real
    return 0.5 * (x + x.T)


def eigh_quadratic_trace(x, b) -> float:
    """tr(B^H X B) for Hermitian PSD X as sum_i w_i ||v_i^H B||^2 over the eigenvalues
    w_i > RANK_TOL * max w of one ``eigh``: the rank cut made on the spectrum."""
    w, v = np.linalg.eigh(x)
    keep = w > RANK_TOL * w.max(initial=0.0)
    proj = v[:, keep].conj().T @ b
    return float(w[keep] @ (np.abs(proj) ** 2).sum(axis=1))


def dense_response(sys, s: complex) -> np.ndarray:
    """C (sI - A)^{-1} B at one complex frequency by one dense LU solve (of a ``Dense``
    triple, or of a ``ModalSystem`` on ``modal_dense``)."""
    a, b, c = modal_dense(sys) if isinstance(sys, ModalSystem) else sys
    return c @ np.linalg.solve(s * np.eye(len(a)) - a, b.astype(complex))


def modal_dense(sys) -> tuple:
    """``(A, B, C)`` of a ``ModalSystem`` as dense matrices: blockdiag(t), B and
    [[diag(d); 0], C]."""
    head = np.eye(sys.n_outputs, sys.d.size) * sys.d
    return sla.block_diag(*sys.t), sys.B, np.hstack([head, sys.C])


def response_gram(sys, s: complex) -> np.ndarray:
    """G(s)^H G(s) for G = ``dense_response``: unchanged by an orthogonal change of the
    output coordinates, so a modal realization and its dense oracle give the same."""
    g = dense_response(sys, s)
    return g.conj().T @ g


def dense_network(dyn, coupling, b_nodes, c_nodes) -> Dense:
    """(I (x) A - coupling (x) B, b_nodes (x) E, c_nodes (x) I) by Kronecker products."""
    drift = np.kron(np.eye(coupling.shape[0]), dyn.A) - np.kron(coupling, dyn.B)
    return Dense(drift, np.kron(b_nodes, dyn.E), np.kron(c_nodes, np.eye(dyn.n)))


def dense_full(ns) -> Dense:
    """The full network (I (x) A - L (x) B, M (x) E, L (x) I), assembled densely."""
    lap = ns.laplacian.mat
    return dense_network(ns.dyn, lap, ns.m_matrix, lap)


def dense_reduced_bar(ns, pi, output=None) -> Dense:
    """The reduced network in the coordinates (P^T P)^{1/2} x, assembled densely:
    (I (x) A - l_bar (x) B, (P^T P)^{1/2} M_hat (x) E, output (x) I), by default with
    output L P (P^T P)^{-1/2}."""
    rg = reduce_graph(ns.laplacian, pi, ns.leaders)
    root = np.sqrt(pi.sizes)
    if output is None:
        output = ns.laplacian.mat @ pi.char_matrix / root[None, :]
    return dense_network(ns.dyn, rg.laplacian_bar, root[:, None] * rg.m_hat, output)


def dense_error(ns, pi) -> Dense:
    """The error system S - S_hat as the dense parallel difference of ``dense_full`` and
    ``dense_reduced_bar``."""
    full, red = dense_full(ns), dense_reduced_bar(ns, pi)
    return Dense(
        sla.block_diag(full.A, red.A), np.vstack([full.B, red.B]), np.hstack([full.C, -red.C])
    )


def dense_triangle_terms(an) -> tuple:
    """The triangle route's outer terms, assembled densely: the full and reduced networks
    with the outputs dL and dL P (P^T P)^{-1/2}, dL = L - l_aep."""
    ns, pi = an.ns, an.pi
    d_l = ns.laplacian.mat - project_to_aep_laplacian(ns.laplacian, pi)[0]
    full = dense_full(ns)
    term1 = Dense(full.A, full.B, np.kron(d_l, np.eye(ns.dyn.n)))
    d_lp = d_l @ pi.char_matrix / np.sqrt(pi.sizes)[None, :]
    return term1, dense_reduced_bar(ns, pi, output=d_lp)


def modal_basis(modes) -> np.ndarray:
    """Z = (U (x) I) blockdiag(V_i): the modal coordinates of ``netsys.Modes``, x = Z xi."""
    return np.kron(modes.u, np.eye(modes.v.shape[1])) @ sla.block_diag(*modes.v)


def dense_schur(a) -> tuple:
    """``(T, Z, n_u)``: one sorted complex Schur form of the whole matrix, the eigenvalues
    Re >= -STABILITY_MARGIN first."""
    return sla.schur(a, output="complex", sort=lambda ev: ev.real >= -STABILITY_MARGIN)


def dense_route(sys) -> ModalSystem:
    """The dense realization in the coordinates of ``dense_schur`` of its drift, as one
    block."""
    t, z, n_u = dense_schur(sys.A)
    unstable = np.arange(len(sys.A)) < n_u
    return ModalSystem(t[None], z.conj().T @ sys.B, sys.C @ z, unstable, 1.0 + np.abs(sys.C).max())


def real_schur_split(a) -> tuple:
    """``(v_stable, a_stable, v_unstable)`` from two ordered real Schur forms, independent
    of the package's one complex Schur form: orthonormal bases of the invariant subspaces
    for the eigenvalues Re < -STABILITY_MARGIN and Re >= it, and the quasi-triangular
    restriction a_stable of ``a`` to the first, a @ v_stable = v_stable @ a_stable."""
    t_s, z_s, n_s = sla.schur(a, output="real", sort=lambda re, im: re < -STABILITY_MARGIN)
    _, z_u, n_u = sla.schur(a, output="real", sort=lambda re, im: re >= -STABILITY_MARGIN)
    assert n_s + n_u == a.shape[0], "an eigenvalue sits too close to the margin"
    return z_s[:, :n_s], t_s[:n_s, :n_s], z_u[:, :n_u]


def reference_hinf_sweep(sys) -> float:
    """The grids, peak choice and zoom refinement of ``norms.hinf_norm_sweep``, one
    frequency at a time: a dense LU per frequency on the realization restricted to
    its stable invariant subspace by ``real_schur_split``."""
    v_s, a_s, v_u = real_schur_split(sys.A)
    if v_s.shape[1] == 0:
        return 0.0
    b_s = np.linalg.solve(np.hstack([v_s, v_u]), sys.B)[: v_s.shape[1]]
    stable = Dense(a_s, b_s, sys.C @ v_s)

    def gain(omega):
        return float(np.linalg.svd(dense_response(stable, 1j * omega), compute_uv=False).max())

    t_lo, t_hi = math.log10(SWEEP_W_LO), math.log10(SWEEP_W_HI)
    ts = np.linspace(t_lo, t_hi, int(round((t_hi - t_lo) * SWEEP_COARSE_PPD)) + 1)
    step = (t_hi - t_lo) / (len(ts) - 1)
    vals = [gain(10.0**t) for t in ts]
    best = max([gain(0.0)] + vals)
    level = SWEEP_LEVEL_ULPS * np.spacing(max(vals))
    peaks, rise = [], None  # rise: the last point after a step up beyond rounding
    for i in range(1, len(ts)):
        if vals[i] - vals[i - 1] > level:
            rise = i
        elif vals[i - 1] - vals[i] > level:
            if rise is not None:
                peaks.append(max(range(rise, i), key=lambda j: vals[j]))
            rise = None
    for i in sorted(peaks, key=lambda i: -vals[i])[:3]:
        lo, hi = ts[i] - step, ts[i] + step
        while hi - lo > SWEEP_W_RTOL / math.log(10.0):
            zts = np.linspace(lo, hi, SWEEP_ZOOM_POINTS)
            zvals = [gain(10.0**t) for t in zts]
            j = int(np.argmax(zvals))
            best = max(best, zvals[j])
            lo, hi = zts[max(j - 1, 0)], zts[min(j + 1, SWEEP_ZOOM_POINTS - 1)]
    return best


def laplacian_by_edge_loop(n_nodes: int, edges) -> np.ndarray:
    """Laplacian of a 1-based [i, j, weight] edge list, its adjacency filled one edge at a
    time: the reference for the scatter of ``WeightedGraph.adjacency_matrix``."""
    a = np.zeros((n_nodes, n_nodes))
    for i, j, w in edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = float(w)
    return np.diag(a.sum(axis=1)) - a


def one_based_edges(graph) -> list:
    """The 1-based [i, j, weight] edge list of a ``WeightedGraph``, as a network file holds it."""
    return [[i + 1, j + 1, w] for (i, j), w in zip(graph.pairs.tolist(), graph.weights.tolist())]


def edges_by_entry_loop(mat) -> list:
    """1-based edge list read off the strict upper triangle of a Laplacian-like ``mat``,
    one entry at a time in row-major order: the reference for
    ``netfile.edges_from_laplacian``."""
    n = mat.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = -mat[i, j]
            if abs(w) > EDGE_TOL:
                edges.append([i + 1, j + 1, float(w)])
    return edges


class NodeInCell(ValueError):
    """A node was required to lie outside a cell but belongs to it."""


def degree_wrt_cell(graph, node: int, cell) -> float:
    """Total weight from ``node`` into the cell, for a node outside the cell."""
    members = {int(v) for v in cell}
    node = int(node)
    if node in members:
        raise NodeInCell(f"node {node} belongs to the cell")
    total = 0.0
    for (i, j), w in zip(graph.pairs.tolist(), graph.weights.tolist()):
        if i == node and j in members:
            total += w
        elif j == node and i in members:
            total += w
    return total


def aep_by_degree_constancy(graph, pi, tol=1e-9) -> bool:
    """Definitional equitability test: cross-cell degrees constant per cell."""
    a = graph.adjacency_matrix()
    scale = 1.0 + a.max(initial=0.0)
    for p, cell_p in enumerate(pi.cells):
        rows = list(cell_p)
        for q, cell_q in enumerate(pi.cells):
            if p == q:
                continue
            degrees = [a[rows, j].sum() for j in cell_q]
            if max(degrees) - min(degrees) > tol * scale:
                return False
    return True


def random_hurwitz(rng, n: int, margin: float = 0.5) -> np.ndarray:
    """Random dense matrix shifted to have spectral abscissa <= -margin."""
    a = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(a).real.max() + margin
    return a - shift * np.eye(n)


def make_dynamics(rng, kind: str, n: int | None = None, r: int | None = None):
    """One of the four agent families used across the randomized corpora."""
    if kind == "single":
        return single_integrator()
    n = int(rng.integers(1, 4)) if n is None else n
    r = int(rng.integers(1, 3)) if r is None else r
    if kind == "symmetric":
        return random_symmetric_dynamics(rng, n, r)
    if kind == "singular":
        return random_singular_symmetric_dynamics(rng, n, r)
    if kind == "dissipative":
        return random_dissipative_dynamics(rng, n, r)
    raise ValueError(kind)


def assemble_reduced(ns, pi) -> Dense:
    """Reduced realization (I (x) A - L_hat (x) B, M_hat (x) E, LP (x) I).

    Coincides with the Petrov-Galerkin projection (W^T A V, W^T B, C V)
    for V = P (x) I and W = P (P^T P)^{-1} (x) I.
    """
    rg = reduce_graph(ns.laplacian, pi, ns.leaders)
    drift = np.kron(np.eye(pi.n_cells), ns.dyn.A) - np.kron(rg.laplacian_hat, ns.dyn.B)
    b = np.kron(rg.m_hat, ns.dyn.E)
    c = np.kron(ns.laplacian.mat @ pi.char_matrix, np.eye(ns.dyn.n))
    return Dense(drift, b, c)


def symmetrized_reduced_coupling(lap, pi) -> np.ndarray:
    """Size-symmetrized quotient coupling (P^T P)^{-1/2} P^T L P (P^T P)^{-1/2}
    (``ReducedGraph.laplacian_bar``)."""
    return reduce_graph(lap, pi, ()).laplacian_bar


@dataclass(frozen=True)
class AuxSystem:
    """Scalar-coupled companion system (A - lam B, E, lam I) for one nonzero eigenvalue."""

    lam: float
    realization: Dense


def aux_systems(ns) -> list:
    """One AuxSystem per nonzero Laplacian eigenvalue, ascending, with multiplicity.

    Raises Disconnected when zero is not a simple eigenvalue.
    """
    if not is_connected(ns.laplacian):
        raise Disconnected("auxiliary systems require a connected graph")
    n = ns.dyn.n
    out = []
    for lam in ns.laplacian.spectral.eigenvalues:
        if lam > ZERO_EIG_TOL:
            real = Dense(ns.dyn.A - lam * ns.dyn.B, ns.dyn.E, lam * np.eye(n))
            out.append(AuxSystem(lam=float(lam), realization=real))
    return out


def reduced_laplacian_spectrum(lap, pi) -> np.ndarray:
    """Eigenvalues of the quotient Laplacian, ascending (real for any partition)."""
    return np.linalg.eigvalsh(symmetrized_reduced_coupling(lap, pi))


def reduced_synchronization_preserved(ns, pi) -> bool:
    """True iff A - lam B is Hurwitz for every nonzero quotient eigenvalue.

    Guaranteed whenever the partition is almost equitable and the original
    network is synchronized (the quotient spectrum embeds in the original);
    can fail for general partitions.
    """
    lams_hat = reduced_laplacian_spectrum(ns.laplacian, pi)
    return hurwitz_over(ns.dyn, lams_hat, ZERO_EIG_TOL)


METHOD_SPECTRAL = "spectral_formula"


def _spectral_h2(dyn, eig, g) -> NormResult:
    """sqrt of the sum over nonzero eigenvalues lam_i of ||g_i||^2 tr(E^T X_i E)."""
    lams = eig.eigenvalues
    used = lams > ZERO_EIG_TOL
    weights = (g[used] ** 2).sum(axis=1)
    total = float(weights @ aux_gramian_h2_sq(dyn, lams[used]))
    eigenvalues = [float(lam) for lam in lams[used]]
    return NormResult(math.sqrt(max(total, 0.0)), METHOD_SPECTRAL, {"eigenvalues": eigenvalues})


def h2_norm_network_spectral(ns) -> NormResult:
    """H2 norm of the full network from the Laplacian eigenbasis.

    value^2 = sum over nonzero eigenvalues lam_i of
    (U^T M M^T U)_{ii} * tr(E^T X_i E) with X_i the auxiliary Gramians.
    """
    if not is_connected(ns.laplacian):
        raise Disconnected("spectral H2 formula requires a connected graph")
    if not is_synchronized(ns):
        raise NotSynchronized("spectral H2 formula requires a synchronized network")
    eig = ns.laplacian.spectral
    return _spectral_h2(ns.dyn, eig, eig.eigenvectors.T @ ns.m_matrix)


def h2_norm_reduced_spectral(ns, pi) -> NormResult:
    """H2 norm of the reduced network from the quotient eigenbasis.

    Requires an almost equitable partition (the compression of L^2 then
    equals the square of the symmetrized quotient coupling) and a
    synchronized network.
    """
    if not is_almost_equitable(ns.laplacian, pi):
        raise NotAEP("reduced spectral formula requires an almost equitable partition")
    if not is_synchronized(ns) or not reduced_synchronization_preserved(ns, pi):
        raise NotSynchronized("reduced spectral formula requires synchronization")
    l_bar = symmetrized_reduced_coupling(ns.laplacian, pi)
    eig = sym_eig(l_bar)
    root = np.sqrt(pi.sizes)
    p = pi.char_matrix
    m_hat_scaled = (p.T @ ns.m_matrix) / root[:, None]  # (P^T P)^{1/2} M_hat
    return _spectral_h2(ns.dyn, eig, eig.eigenvectors.T @ m_hat_scaled)
