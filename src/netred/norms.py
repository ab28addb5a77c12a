"""Exact and oracle computation of H2 and H-infinity norms.

Four routes are implemented and cross-checked against each other in the
test suite:

* ``h2_norm``: Lyapunov solve that tolerates unobservable marginal modes.
* ``h2_norm_network_spectral`` / ``h2_norm_reduced_spectral``: trace
  formulas over the Laplacian spectrum and per-eigenvalue observability
  Gramians of the auxiliary systems.
* ``hinf_norm_sweep``: adaptive frequency sweep with local refinement, the
  oracle for everything H-infinity.
* ``hinf_norm_dc``: exact DC-gain value sigma_max(C A^+ B), valid when a
  symmetric witness X with CA = XC exists and ker A lies in ker C.

``h2_norm_quadrature`` is the corresponding H2 oracle (trapezoid rule on a
log grid with Richardson extrapolation and an analytic tail estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    Disconnected,
    KernelViolated,
    NotAEP,
    NotSynchronized,
    UnstablePoles,
    WitnessInvalid,
)
from .graphcore import ZERO_EIG_TOL, Partition, is_almost_equitable, is_connected
from .linalg import (
    KERNEL_TOL,
    RANK_TOL,
    STABILITY_MARGIN,
    StateSpace,
    SymmetricEig,
    kernel_checked_split,
    pinv,
    solve_lyapunov,
    solve_lyapunov_with_kernel,
    sym_eig,
)
from .netsys import (
    AgentDynamics,
    NetworkSystem,
    is_synchronized,
    reduced_synchronization_preserved,
    symmetrized_reduced_coupling,
)

METHOD_LYAPUNOV = "lyapunov_kernel"
METHOD_SPECTRAL = "spectral_formula"
METHOD_DC = "dc_gain_closed_form"
METHOD_SWEEP = "frequency_sweep"

# Frequency grids (rad/s; PPD = points per decade) of the H-infinity sweep and
# the H2 quadrature oracle.  Their certificates echo them.
SWEEP_W_LO, SWEEP_W_HI, SWEEP_W_RTOL = 1e-6, 1e6, 1e-6
SWEEP_COARSE_PPD, SWEEP_PEAK_PPD = 30, 400
QUAD_W_LO, QUAD_W_HI, QUAD_PPD = 1e-4, 1e4, 60
WITNESS_RTOL = 1e-9


@dataclass
class NormResult:
    """A nonnegative norm value, the method that produced it, and diagnostics."""

    value: float
    method: str
    certificate: dict = field(default_factory=dict)


def _zero_result(method: str) -> NormResult:
    return NormResult(0.0, method, {"trivial": "system has no inputs or no outputs"})


def h2_norm(sys: StateSpace) -> NormResult:
    """H2 norm via the kernel-conditioned Lyapunov solve.

    value^2 = tr(B^T X B).  Raises KernelConditionViolated when the output
    observes a closed-right-half-plane mode (the norm is then infinite or
    undefined).
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_LYAPUNOV)
    x, h2sq = solve_lyapunov_with_kernel(sys.A, sys.B, sys.C)
    residual = np.abs(sys.A.T @ x + x @ sys.A + sys.C.T @ sys.C).max(initial=0.0)
    return NormResult(
        math.sqrt(max(h2sq, 0.0)),
        METHOD_LYAPUNOV,
        {"lyapunov_residual": float(residual)},
    )


def _deflate_marginal(sys: StateSpace) -> StateSpace:
    """Restrict the realization to its stable invariant subspace.

    Valid (transfer function unchanged) because the marginal modes must be
    unobservable; raises UnstablePoles otherwise.
    """
    v_s, a_s, v_u = kernel_checked_split(sys.A, sys.C, UnstablePoles)
    if v_u.shape[1] == 0:
        return sys
    b_s = np.linalg.solve(np.hstack([v_s, v_u]), sys.B)[: v_s.shape[1]]
    return StateSpace(a_s, b_s, sys.C @ v_s)


def _max_gain(sys: StateSpace, omega: float) -> float:
    return float(np.linalg.svd(sys.response(1j * omega), compute_uv=False).max(initial=0.0))


def hinf_norm_sweep(sys: StateSpace) -> NormResult:
    """H-infinity norm by adaptive frequency sweep.

    Coarse log grid over [SWEEP_W_LO, SWEEP_W_HI], then a dense grid
    (SWEEP_PEAK_PPD points per decade) around each detected local peak, then
    bounded scalar minimization in log-frequency down to relative width
    SWEEP_W_RTOL.  The
    exact DC value of the deflated realization anchors the w -> 0 end.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_SWEEP)
    stable = _deflate_marginal(sys)
    if stable.n_states == 0:
        return NormResult(0.0, METHOD_SWEEP, {"trivial": "transfer function is zero"})
    dc_gain = stable.C @ np.linalg.solve(stable.A, stable.B)
    dc = float(np.linalg.svd(dc_gain, compute_uv=False).max(initial=0.0))
    t_lo, t_hi = math.log10(SWEEP_W_LO), math.log10(SWEEP_W_HI)
    n_coarse = int(round((t_hi - t_lo) * SWEEP_COARSE_PPD)) + 1
    ts = np.linspace(t_lo, t_hi, n_coarse)
    vals = np.array([_max_gain(stable, 10.0**t) for t in ts])
    evals = n_coarse

    # interior local maxima of the coarse sweep, best first, at most three
    interior = [
        i for i in range(1, n_coarse - 1) if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    interior.sort(key=lambda i: -vals[i])
    best_val, best_omega = dc, 0.0
    if vals.max(initial=0.0) > best_val:
        best_val = float(vals.max())
        best_omega = float(10.0 ** ts[int(vals.argmax())])
    step = (t_hi - t_lo) / (n_coarse - 1)
    for i in interior[:3]:
        lo, hi = ts[i] - step, ts[i] + step
        n_dense = max(int(round((hi - lo) * SWEEP_PEAK_PPD)) + 1, 16)
        dts = np.linspace(lo, hi, n_dense)
        dvals = np.array([_max_gain(stable, 10.0**t) for t in dts])
        evals += n_dense
        j = int(dvals.argmax())
        if dvals[j] > best_val:
            best_val, best_omega = float(dvals[j]), float(10.0 ** dts[j])
        j0, j1 = max(j - 1, 0), min(j + 1, n_dense - 1)
        res = minimize_scalar(
            lambda t: -_max_gain(stable, 10.0**t),
            bounds=(dts[j0], dts[j1]),
            method="bounded",
            options={"xatol": SWEEP_W_RTOL / math.log(10.0)},
        )
        evals += int(res.nfev)
        if -res.fun > best_val:
            best_val, best_omega = float(-res.fun), float(10.0**res.x)
    return NormResult(
        best_val,
        METHOD_SWEEP,
        {
            "peak_omega": best_omega,
            "w_lo": SWEEP_W_LO,
            "w_hi": SWEEP_W_HI,
            "coarse_points_per_decade": SWEEP_COARSE_PPD,
            "peak_points_per_decade": SWEEP_PEAK_PPD,
            "omega_rtol": SWEEP_W_RTOL,
            "gain_evaluations": int(evals),
        },
    )


def h2_norm_quadrature(sys: StateSpace) -> NormResult:
    """Oracle H2 norm by trapezoid quadrature of the frequency integral.

    value^2 = (1/pi) * int_0^inf ||S(iw)||_F^2 dw, evaluated on a log grid
    anchored at w = 0, Richardson-extrapolated against the half-density
    grid, plus the analytic O(1/w) tail ||C B||_F^2 / QUAD_W_HI.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_SWEEP)
    stable = _deflate_marginal(sys)
    if stable.n_states == 0:
        return NormResult(0.0, METHOD_SWEEP, {"trivial": "transfer function is zero"})
    f0 = float(np.linalg.norm(stable.C @ np.linalg.solve(stable.A, stable.B), "fro") ** 2)
    decades = math.log10(QUAD_W_HI) - math.log10(QUAD_W_LO)
    n_pts = int(round(decades * QUAD_PPD)) + 1
    ws = np.logspace(math.log10(QUAD_W_LO), math.log10(QUAD_W_HI), n_pts)
    fs = np.array([np.linalg.norm(stable.response(1j * w), "fro") ** 2 for w in ws])

    def integral(grid, values):
        return float(np.trapezoid(np.concatenate([[f0], values]), np.concatenate([[0.0], grid])))

    i_fine = integral(ws, fs)
    i_coarse = integral(ws[::2], fs[::2])
    i_rich = i_fine + (i_fine - i_coarse) / 3.0
    tail = float(np.linalg.norm(stable.C @ stable.B, "fro") ** 2) / QUAD_W_HI
    h2sq = (i_rich + tail) / math.pi
    return NormResult(
        math.sqrt(max(h2sq, 0.0)),
        METHOD_SWEEP,
        {
            "kind": "h2_quadrature",
            "points_per_decade": QUAD_PPD,
            "w_lo": QUAD_W_LO,
            "w_hi": QUAD_W_HI,
            "integral_fine": i_fine,
            "integral_coarse": i_coarse,
            "integral_richardson": i_rich,
            "tail": tail,
        },
    )


def aux_gramian_h2_sq(dyn: AgentDynamics, lam: float) -> float:
    """Squared H2 norm tr(E^T X E) of the auxiliary system (A - lam B, E, lam I)."""
    drift = dyn.A - lam * dyn.B
    x = solve_lyapunov(drift, lam * lam * np.eye(dyn.n))
    return float(np.trace(dyn.E.T @ x @ dyn.E))


def aux_dc_gain(dyn: AgentDynamics, lam: float) -> np.ndarray:
    """DC gain lam (lam B - A)^{-1} E of the auxiliary system."""
    return lam * np.linalg.solve(lam * dyn.B - dyn.A, dyn.E)


def _spectral_h2(dyn: AgentDynamics, eig: SymmetricEig, g: np.ndarray) -> NormResult:
    """sqrt of the sum over nonzero eigenvalues lam_i of ||g_i||^2 tr(E^T X_i E)."""
    total = 0.0
    used = []
    for i, lam in enumerate(eig.eigenvalues):
        if lam <= ZERO_EIG_TOL:
            continue
        weight = float((g[i] ** 2).sum())
        total += weight * aux_gramian_h2_sq(dyn, float(lam))
        used.append(float(lam))
    return NormResult(math.sqrt(max(total, 0.0)), METHOD_SPECTRAL, {"eigenvalues": used})


def h2_norm_network_spectral(ns: NetworkSystem) -> NormResult:
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


def h2_norm_reduced_spectral(ns: NetworkSystem, pi: Partition) -> NormResult:
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


def hinf_norm_dc(sys: StateSpace, x_witness) -> NormResult:
    """Exact H-infinity norm sigma_max(C A^+ B) under a DC-dominance witness.

    Preconditions: A symmetric; a symmetric witness X with C A = X C (so the
    gain is maximal at zero frequency); ker A contained in ker C (so the
    transfer function extends continuously to s = 0); any positive
    eigenvalues of A unobservable.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_DC)
    a, b, c = sys.A, sys.B, sys.C
    eig = sym_eig(a)  # raises NotSymmetric for asymmetric drift
    x = np.asarray(x_witness, dtype=float)
    if x.shape != (sys.n_outputs, sys.n_outputs):
        raise WitnessInvalid(f"witness must be {sys.n_outputs} x {sys.n_outputs}, got {x.shape}")
    if np.abs(x - x.T).max(initial=0.0) > WITNESS_RTOL * (1.0 + np.abs(x).max(initial=0.0)):
        raise WitnessInvalid("witness matrix is not symmetric")
    ca = c @ a
    witness_residual = np.abs(ca - x @ c).max(initial=0.0)
    if witness_residual > WITNESS_RTOL * (1.0 + np.abs(ca).max(initial=0.0)):
        raise WitnessInvalid(f"CA != XC (residual {witness_residual:.3e})")
    w, u = eig.eigenvalues, eig.eigenvectors
    c_scale = 1.0 + np.abs(c).max(initial=0.0)
    cutoff = RANK_TOL * np.abs(w).max(initial=0.0)
    kernel_cols = u[:, np.abs(w) <= cutoff]
    kernel_residual = np.abs(c @ kernel_cols).max(initial=0.0)
    if kernel_residual > KERNEL_TOL * c_scale:
        raise KernelViolated(f"ker A not contained in ker C (residual {kernel_residual:.3e})")
    positive_cols = u[:, w > STABILITY_MARGIN]
    if positive_cols.shape[1] and np.abs(c @ positive_cols).max(initial=0.0) > KERNEL_TOL * c_scale:
        raise UnstablePoles("observable positive eigenvalue of A")
    gain = c @ pinv(a) @ b
    value = float(np.linalg.svd(gain, compute_uv=False).max(initial=0.0))
    return NormResult(
        value,
        METHOD_DC,
        {
            "witness_residual": float(witness_residual),
            "kernel_residual": float(kernel_residual),
        },
    )
