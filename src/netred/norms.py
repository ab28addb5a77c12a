"""Exact and oracle computation of H2 and H-infinity norms.

Three routes are implemented and cross-checked against each other and
against the test suite's oracles:

* ``h2_norm``: Lyapunov solve that tolerates unobservable marginal modes.
  On a network realization the Gramian is an arrow
  (``linalg.solve_lyapunov_with_kernel``); for the full system it is its
  block-diagonal head alone, and the value is the spectral sum
  sum_i ||(U^T M)_i||^2 tr(E^T X_i E) over the auxiliary Gramians.
* ``hinf_norm_sweep``: adaptive frequency sweep, the oracle for everything
  H-infinity: a coarse log grid, then a zoom of fixed-size grids on each peak.
  Its grids compare squared gains, the largest eigenvalues of H + H^H for the
  m x m response H = K (sI - T)^{-1} B with K = B^H X from the observability
  Gramian X that ``h2_norm`` shares (``linalg.ModalSystem.gramian``): on the
  imaginary axis G^H G = H + H^H.  The value is one ``svd`` of the true
  response at the frequency the search chose.
* ``hinf_norm_dc``: exact DC-gain value sigma_max(C A^+ B), valid when a
  diagonal witness X with CA = XC exists and ker A lies in ker C, read from
  the realization's real diagonal modal form; for the full network it is
  sigma_max(diag(d / p) B) over the stable poles p.

Every route reads a realization in modal coordinates (a
``linalg.ModalSystem``), whose output a network realization has rotated into
the Laplacian eigenbasis (``netsys``): norms do not change under that
rotation, and a witness is given in the rotated output coordinates (-L
becomes -lams (x) 1_n).  ``h2_norm_quadrature`` is the corresponding H2
oracle (trapezoid rule on a log grid with Richardson extrapolation and an
analytic tail estimate); it integrates the frequency response, not a
Gramian.  Every route drops the modes of the form's ``unstable`` mask and
refuses a realization whose output observes one: ``h2_norm``, the sweep and
the quadrature through one deflation that masks them in place
(``linalg.stable_unstable_split``), the DC route by inverting only the poles
off the mask.  The sweep and the quadrature evaluate every frequency grid
with ``linalg.triangular_response``: a back substitution over the rows of
every b x b block of the modal form, one division per state and input when
it is diagonal (b = 1, symmetric agents), then one output product per grid,
an m-row one (K) for the sweep and the p-row output for the quadrature.

The a-priori bounds need two quantities of the auxiliary systems
(A - lam B, E, lam I), one per eigenvalue lam of a spectrum: the squared H2
norm (``aux_gramian_h2_sq``) and the DC gain (``aux_dc_gain``).  Each takes
the whole spectrum as an array and makes one stacked call over its n x n
blocks: the Gramians are the block Sylvester recurrence of the Lyapunov
head on the stacked Schur forms of A - lam B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelViolated, NotSymmetric, WitnessInvalid
from .linalg import (
    KERNEL_TOL,
    STABILITY_MARGIN,
    apply_output,
    require_unobserved,
    solve_block_sylvester,
    solve_lyapunov_with_kernel,
    sorted_schur,
    stable_unstable_split,
    triangular_response,
)
from .netsys import AgentDynamics

METHOD_LYAPUNOV = "lyapunov_kernel"
METHOD_DC = "dc_gain_closed_form"
METHOD_SWEEP = "frequency_sweep"

# Frequency grids (rad/s; PPD = points per decade) of the H-infinity sweep and
# the H2 quadrature oracle (whose window widens past the poles, see
# h2_norm_quadrature).  Their certificates echo them.
SWEEP_W_LO, SWEEP_W_HI, SWEEP_W_RTOL = 1e-6, 1e6, 1e-6
SWEEP_COARSE_PPD, SWEEP_ZOOM_POINTS = 30, 17
# Coarse-grid neighbours closer than this many ulps of the coarse maximum are level.
SWEEP_LEVEL_ULPS = 8
QUAD_W_LO, QUAD_W_HI, QUAD_PPD = 1e-4, 1e4, 60
WITNESS_RTOL = 1e-9


@dataclass
class NormResult:
    """A nonnegative norm value, the method that produced it, and diagnostics."""

    value: float
    method: str
    certificate: dict = field(default_factory=dict)


def all_finite(value) -> bool:
    """True when every float in ``value`` is finite: a number, a NormResult (its value and
    certificate), or a tuple, list or dict of these, nested; other entries pass."""
    if isinstance(value, NormResult):
        value = (value.value, value.certificate)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return all(map(all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _zero_result(method: str) -> NormResult:
    return NormResult(0.0, method, {"trivial": "system has no inputs or no outputs"})


def h2_norm(sys) -> NormResult:
    """H2 norm via the kernel-conditioned Lyapunov solve, in modal coordinates.

    value^2 = tr(B_s^H X_s B_s) on the deflated triple (``solve_lyapunov_with_kernel``);
    the certificate's ``lyapunov_residual`` is max|T_s^H X_s + X_s T_s + C_s^H C_s| over
    the blocks of the arrow X_s, the residual of the equation solved.  Raises
    UnstablePoles when the output observes a closed-right-half-plane mode (the norm is
    then infinite or undefined).
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_LYAPUNOV)
    _, h2sq, residual = solve_lyapunov_with_kernel(sys)
    return NormResult(
        math.sqrt(max(h2sq, 0.0)),
        METHOD_LYAPUNOV,
        {"lyapunov_residual": residual},
    )


def hinf_norm_sweep(sys) -> NormResult:
    """H-infinity norm by adaptive frequency sweep.

    Coarse log grid over [SWEEP_W_LO, SWEEP_W_HI], then a zoom on each interior peak
    of the coarse grid that rises and falls by more than SWEEP_LEVEL_ULPS ulps.  The
    zoom starts from the bracket of the peak's two coarse neighbours; it evaluates
    SWEEP_ZOOM_POINTS log-spaced frequencies on the bracket and narrows it to the
    neighbours of the best of them, until the bracket is narrower than SWEEP_W_RTOL
    in relative frequency.  The response at s = 0 anchors the w -> 0 end.  The
    unobservable marginal modes are masked (``stable_unstable_split``).

    The search compares squared gains, read from the observability Gramian X_s
    (``ModalSystem.gramian``, which ``h2_norm`` shares): on s = i w,
    C_s^H C_s = (sI - T_s)^H X_s + X_s (sI - T_s), so G^H G = H + H^H for the m x m
    response H(s) = K (sI - T_s)^{-1} B_s with K = B_s^H X_s.  Each grid, the anchor
    and each zoom step is one ``triangular_response`` call on (T_s, B_s, K), and a gain
    is the largest eigenvalue of H + H^H, clipped at 0 (where G vanishes, rounding can
    make it negative); no p-row response is formed.  The Gram matrix is m x m also where
    the output is narrower, p < m, which needs r > n (more columns of E than agent
    states).  Square roots would lift the rounding of H + H^H on a tail that falls as
    1/w^2 above the level test and make peaks of it.  The value is sigma_max, by
    ``svd``, of the response G itself at the frequency with the largest squared gain.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_SWEEP)
    t_s, b_s, c_s, d_s = stable_unstable_split(sys)
    (head, f, r), _ = sys.gramian
    n1, w = d_s.size, t_s.shape[1]
    b1, b2 = b_s[:n1], b_s[n1:]
    xb_head = (head @ b1.reshape(len(head), w, b_s.shape[1])).reshape(b1.shape) + f @ b2
    k = np.vstack([xb_head, f.conj().T @ b1 + r @ b2]).conj().T  # K = B_s^H X_s
    no_head = np.zeros(0)

    best = [-1.0, 0.0]  # the largest squared gain evaluated and its frequency

    def gains(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        h = triangular_response(t_s, b_s, k, no_head, 1j * omegas)
        vals = np.maximum(np.linalg.eigvalsh(h + np.swapaxes(h, -1, -2).conj())[..., -1], 0.0)
        j = int(vals.argmax())
        if vals[j] > best[0]:
            best[:] = float(vals[j]), float(omegas[j])
        return vals

    gains([0.0])
    t_lo, t_hi = math.log10(SWEEP_W_LO), math.log10(SWEEP_W_HI)
    n_coarse = int(round((t_hi - t_lo) * SWEEP_COARSE_PPD)) + 1
    ts = np.linspace(t_lo, t_hi, n_coarse)
    vals = gains(10.0**ts)
    evals = n_coarse

    # interior peaks of the coarse sweep, best first, at most three: a rise beyond
    # rounding, then points level to rounding (possibly none), then a fall beyond it.
    # Rounding noise on a flat stretch makes no peak.
    steps = np.diff(vals)
    level = SWEEP_LEVEL_ULPS * np.spacing(vals.max(initial=0.0))
    turns = np.flatnonzero(np.abs(steps) > level)
    interior = [
        lo + 1 + int(np.argmax(vals[lo + 1 : hi + 1]))
        for lo, hi in zip(turns[:-1], turns[1:])
        if steps[lo] > 0 > steps[hi]
    ]
    interior.sort(key=lambda i: -vals[i])
    step = (t_hi - t_lo) / (n_coarse - 1)
    for i in interior[:3]:
        lo, hi = ts[i] - step, ts[i] + step
        while hi - lo > SWEEP_W_RTOL / math.log(10.0):
            zts = np.linspace(lo, hi, SWEEP_ZOOM_POINTS)
            j = int(gains(10.0**zts).argmax())
            lo, hi = zts[max(j - 1, 0)], zts[min(j + 1, SWEEP_ZOOM_POINTS - 1)]
            evals += SWEEP_ZOOM_POINTS
    _, best_omega = best
    peak = triangular_response(t_s, b_s, c_s, d_s, [1j * best_omega])[0]
    value = float(np.linalg.svd(peak, compute_uv=False).max(initial=0.0))
    return NormResult(
        value,
        METHOD_SWEEP,
        {
            "peak_omega": best_omega,
            "w_lo": SWEEP_W_LO,
            "w_hi": SWEEP_W_HI,
            "coarse_points_per_decade": SWEEP_COARSE_PPD,
            "zoom_points": SWEEP_ZOOM_POINTS,
            "omega_rtol": SWEEP_W_RTOL,
            "gain_evaluations": int(evals),
        },
    )


def h2_norm_quadrature(sys) -> NormResult:
    """Oracle H2 norm by trapezoid quadrature of the frequency integral.

    value^2 = (1/pi) * int_0^inf ||S(iw)||_F^2 dw, evaluated on a log grid over
    [w_lo, w_hi] (QUAD_PPD points per decade, an odd number of points) anchored at
    w = 0, Richardson-extrapolated against the half-density grid, plus the analytic
    O(1/w) tail ||C B||_F^2 / w_hi.  The window reaches a decade past the poles on the
    deflated triple's diagonal and is never narrower than [QUAD_W_LO, QUAD_W_HI]:
    w_lo = min(QUAD_W_LO, min|p| / 10), w_hi = max(QUAD_W_HI, 10 max|p|).  A masked
    state's pole, -1, lies inside every window.
    """
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_SWEEP)
    t_s, b_s, c_s, d_s = stable_unstable_split(sys)
    poles = np.abs(np.diagonal(t_s, axis1=1, axis2=2))
    w_lo = min(QUAD_W_LO, poles.min(initial=math.inf) / 10.0)
    w_hi = max(QUAD_W_HI, 10.0 * poles.max(initial=0.0))
    t_lo, t_hi = math.log10(w_lo), math.log10(w_hi)
    n_log = 2 * round((t_hi - t_lo) * QUAD_PPD / 2) + 1
    grid = np.concatenate([[0.0], np.logspace(t_lo, t_hi, n_log)])
    response = triangular_response(t_s, b_s, c_s, d_s, 1j * grid)
    fs = np.linalg.norm(response, "fro", axis=(1, 2)) ** 2
    coarse = np.r_[0, 1 : grid.size : 2]  # w = 0 and every other point of the log grid
    i_fine = float(np.trapezoid(fs, grid))
    i_coarse = float(np.trapezoid(fs[coarse], grid[coarse]))
    i_rich = i_fine + (i_fine - i_coarse) / 3.0
    tail = float(np.linalg.norm(apply_output(c_s, d_s, b_s), "fro") ** 2) / w_hi
    h2sq = (i_rich + tail) / math.pi
    return NormResult(
        math.sqrt(max(h2sq, 0.0)),
        METHOD_SWEEP,
        {
            "kind": "h2_quadrature",
            "points_per_decade": QUAD_PPD,
            "w_lo": w_lo,
            "w_hi": w_hi,
            "integral_fine": i_fine,
            "integral_coarse": i_coarse,
            "integral_richardson": i_rich,
            "tail": tail,
        },
    )


def aux_gramian_h2_sq(dyn: AgentDynamics, lams) -> np.ndarray:
    """Squared H2 norms tr(E^T X_i E) of the auxiliary systems (A - lam_i B, E, lam_i I),
    one per entry of the 1-D array ``lams``, as an array of the same length.

    X_i solves (A - lam_i B)^T X_i + X_i (A - lam_i B) + lam_i^2 I = 0: with the stacked
    ``sorted_schur`` A - lam_i B = V_i T_i V_i^H, X_i = V_i Y_i V_i^H for the Y_i that
    ``solve_block_sylvester`` gives.  Requires, without testing it, every A - lam_i B
    Hurwitz: the callers' lams come from a spectrum that ``is_synchronized`` or
    ``Analysis.lost_hurwitz`` has tested.
    """
    lams = np.asarray(lams, dtype=float)
    t, v, _ = sorted_schur(dyn.A - lams[:, None, None] * dyn.B)
    y, _ = solve_block_sylvester(t, t, lams[:, None, None] ** 2 * np.eye(dyn.n))
    ve = np.swapaxes(v.conj(), 1, 2) @ dyn.E
    return (ve.conj() * (y @ ve)).sum(axis=(1, 2)).real


def aux_dc_gain(dyn: AgentDynamics, lams) -> np.ndarray:
    """DC gains lam_i (lam_i B - A)^{-1} E of the auxiliary systems, shape (len(lams), n, r),
    from one stacked solve."""
    lams = np.asarray(lams, dtype=float)
    blocks = lams[:, None, None] * dyn.B - dyn.A
    return lams[:, None, None] * np.linalg.solve(blocks, dyn.E)


def hinf_norm_dc(sys, x_witness) -> NormResult:
    """Exact H-infinity norm sigma_max(C A^+ B) under a DC-dominance witness.

    Read from the modal form ``sys``: with a diagonal output block d it is
    sigma_max(diag(d w_1^+) B_1 + C diag(w_2^+) B_2), w^+ = 1/w off ``unstable`` and 0
    on it.  Of the states ``unstable`` marks, those with w <= STABILITY_MARGIN span
    ker A and the others are positive poles; the output may observe neither
    (KernelViolated, the certificate's ``kernel_residual``, and UnstablePoles).
    Preconditions besides: a real diagonal drift diag(w) (else NotSymmetric); a witness
    X, diagonal in the output coordinates of the realization, with C A = X C (so the
    gain is maximal at zero frequency), given as the vector of its diagonal (else
    WitnessInvalid)."""
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return _zero_result(METHOD_DC)
    w = sys.poles
    if w is None or not np.isrealobj(w):
        raise NotSymmetric("the DC-gain route needs a real diagonal Schur form (a symmetric A)")
    x, n1 = np.asarray(x_witness, dtype=float), sys.d.size
    if x.shape != (sys.n_outputs,):
        raise WitnessInvalid(f"witness must be a vector of shape ({sys.n_outputs},), got {x.shape}")
    # C A - X C, column block by column block: the diagonal output block, then C
    ca_head, ca_rest = sys.d * w[:n1], sys.C * w[n1:]
    head, rest = ca_head - x[:n1] * sys.d, ca_rest - x[:, None] * sys.C
    witness_residual = max(np.abs(head).max(initial=0.0), np.abs(rest).max(initial=0.0))
    ca_scale = max(np.abs(ca_head).max(initial=0.0), np.abs(ca_rest).max(initial=0.0))
    if witness_residual > WITNESS_RTOL * (1.0 + ca_scale):
        raise WitnessInvalid(f"CA != XC (residual {witness_residual:.3e})")
    kernel = sys.unstable & (w <= STABILITY_MARGIN)
    kernel_residual = sys.observation(kernel)
    if kernel_residual > KERNEL_TOL * sys.c_scale:
        raise KernelViolated(f"ker A not contained in ker C (residual {kernel_residual:.3e})")
    require_unobserved(sys, sys.unstable & ~kernel)  # the positive poles
    w_plus = np.divide(1.0, w, out=np.zeros_like(w), where=~sys.unstable)  # A^+ = diag(w_plus)
    gain = apply_output(sys.C, sys.d, w_plus[:, None] * sys.B)  # C A^+ B
    value = float(np.linalg.svd(gain, compute_uv=False).max(initial=0.0))
    return NormResult(
        value,
        METHOD_DC,
        {
            "witness_residual": float(witness_residual),
            "kernel_residual": float(kernel_residual),
        },
    )
