"""A-priori reduction error bounds and their aggregation into reports.

For almost equitable partitions the H2 and H-infinity errors of the
clustered network admit closed upper bounds built from three ingredients:
the auxiliary-system norms over the eigenvalues lost in the reduction, the
auxiliary-system norms over the whole nonzero spectrum (for relative
bounds), and the leaders' cellmate counts 1 - 1/|cell|.  For single
integrators every auxiliary DC gain is exactly 1, and the symmetric-agent
H-infinity bound is the exact H-infinity error.  For arbitrary
partitions, a triangle-inequality route through the closest AEP-compatible
Laplacian gives a computable (single-integrator) bound.

Every function here takes an :class:`Analysis`, which decides each
precondition once under one set of :class:`Tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    Disconnected,
    IllConditioned,
    NotAEP,
    NotHurwitz,
    NotSingleIntegrator,
    NotSymmetricDynamics,
    NotSynchronized,
    UnstablePoles,
)
from .graphcore import (
    AEP_RTOL,
    ZERO_EIG_TOL,
    Partition,
    ReducedGraph,
    aep_deviation,
    is_almost_equitable,
    is_connected,
    reduce_graph,
)
from .linalg import ModalSystem
from .netsys import (
    Modes,
    NetworkSystem,
    assemble_error_system,
    assemble_full,
    assemble_reduced_bar,
    hurwitz_over,
    is_synchronized,
    network_modes,
    with_output,
)
from .norms import (
    METHOD_LYAPUNOV,
    METHOD_SWEEP,
    NormResult,
    all_finite,
    aux_dc_gain,
    aux_gramian_h2_sq,
    h2_norm,
    hinf_norm_dc,
    hinf_norm_sweep,
)

# Requirement (a boolean Analysis property) -> (the error that refuses it, what
# it asks for).  The error's class name is the refusal kind in reports and in
# CLI errors.
REFUSALS = {
    "connected": (Disconnected, "a connected graph"),
    "synchronized": (NotSynchronized, "a synchronized network"),
    "aep": (NotAEP, "an almost equitable partition"),
    "symmetric": (NotSymmetricDynamics, "symmetric agent matrices A and B"),
    "single_integrator": (NotSingleIntegrator, "single-integrator agents (A=0, B=1, E=1)"),
    "lost_hurwitz": (NotHurwitz, "A - lam B Hurwitz at every lost eigenvalue lam"),
}
# Report field -> (norm, requirements).  Every field first needs a connected,
# synchronized network; the first requirement that fails names the field's
# refusal.  The triangle route stands in only where the AEP bounds do not
# apply, so under an AEP its fields stay empty and no reason is recorded.
PRECONDITIONS = {
    "abs_h2_bound": ("h2", ("aep", "lost_hurwitz")),
    "rel_h2_bound": ("h2", ("aep", "lost_hurwitz")),
    "triangle_h2_bound": ("h2", ("not_aep", "single_integrator")),
    "true_h2_error": ("h2", ()),
    "full_h2_norm": ("h2", ()),
    "abs_hinf_bound": ("hinf", ("aep", "symmetric", "lost_hurwitz")),
    "rel_hinf_bound": ("hinf", ("aep", "symmetric", "lost_hurwitz")),
    "hinf_exact_error": ("hinf", ("aep", "symmetric", "single_integrator")),
    "triangle_hinf_bound": ("hinf", ("not_aep", "single_integrator")),
    "true_hinf_error": ("hinf", ()),
    "full_hinf_norm": ("hinf", ()),
}


@dataclass
class BoundReport:
    """Everything the bound theory yields for one (network, partition) pair.

    Bound fields are None when their preconditions fail; ``unavailable``
    maps each absent field to a machine-readable reason (NotAEP,
    NotSymmetricDynamics, ...).  True errors come from the norms module
    applied to the assembled error realization.
    """

    aep: bool
    synchronized: bool
    connected: bool
    leaders_share_cell: bool
    cellmate_terms: tuple
    s_max_h2: float | None = None
    s_min_h2: float | None = None
    abs_h2_bound: float | None = None
    rel_h2_bound: float | None = None
    s_max_hinf: float | None = None
    s_min_hinf: float | None = None
    abs_hinf_bound: float | None = None
    rel_hinf_bound: float | None = None
    hinf_exact_error: float | None = None
    triangle_h2_bound: float | None = None
    triangle_h2_terms: tuple | None = None
    triangle_hinf_bound: float | None = None
    triangle_hinf_terms: tuple | None = None
    true_h2_error: NormResult | None = None
    true_hinf_error: NormResult | None = None
    full_h2_norm: NormResult | None = None
    full_hinf_norm: NormResult | None = None
    unavailable: dict = field(default_factory=dict)


def cellmate_terms(pi: Partition, leaders) -> tuple:
    """Per-leader terms 1 - 1/|cell of leader|, each in [0, 1)."""
    return tuple(1.0 - 1.0 / len(pi.cells[pi.cell_of(v)]) for v in leaders)


def leaders_share_cell(pi: Partition, leaders) -> bool:
    cells = [pi.cell_of(v) for v in leaders]
    return len(set(cells)) < len(cells)


def leader_factor(pi: Partition, leaders) -> float:
    """||(I - proj) M||_2^2, the leaders' factor in the H-infinity bound: 1 when two
    leaders share a cell (their Gram block I - J/|cell| has norm 1), otherwise the
    largest 1 - 1/|cell of a leader| (the columns are then orthogonal), and 0 with
    no leader."""
    if leaders_share_cell(pi, leaders):
        return 1.0
    return max(cellmate_terms(pi, leaders), default=0.0)


def leader_spread(n_leaders: int, n_agents: int) -> float:
    """Largest eigenvalue of M^T (I - (1/N) 1 1^T) M, i.e. of I_m - (m/N on 1_m).

    Equals 1 for two or more leaders and 1 - 1/N for a single leader; it is
    the squared H-infinity norm of the full single-integrator network and
    the sharp spread factor in relative H-infinity bounds.
    """
    if n_leaders == 0:
        return 0.0
    if n_leaders == 1:
        return 1.0 - 1.0 / n_agents
    return 1.0


@dataclass(frozen=True)
class Tolerances:
    """The thresholds of every decision in a run (``options.tolerances`` in a file)."""

    zero_eig_tol: float = ZERO_EIG_TOL
    aep_rtol: float = AEP_RTOL


class Analysis:
    """A network and a partition, with every precondition decided once.

    Each property is computed on first use and kept, so a report, the CLI
    gate and the oracle checks share one spectrum, one AEP test, one
    synchronization test, one reduction and one pair of realizations, all
    under the same tolerances.
    """

    def __init__(self, ns: NetworkSystem, pi: Partition, tolerances: Tolerances = Tolerances()):
        self.ns, self.pi, self.tol = ns, pi, tolerances

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.ns.laplacian, self.tol.zero_eig_tol)

    @cached_property
    def synchronized(self) -> bool:
        return is_synchronized(self.ns, zero_eig_tol=self.tol.zero_eig_tol)

    @cached_property
    def aep(self) -> bool:
        return is_almost_equitable(self.ns.laplacian, self.pi, self.tol.aep_rtol, self.reduced)

    @cached_property
    def deviation(self) -> np.ndarray:
        """dL = L - l_aep, from the reduction's AEP residual R (:func:`aep_deviation`): R is
        the one quantity behind the AEP test, the lost spectrum, the AEP projection and the
        triangle route."""
        return aep_deviation(self.pi, self.reduced.residual)

    not_aep = property(lambda self: not self.aep)
    symmetric = property(lambda self: self.ns.dyn.symmetric)
    single_integrator = property(lambda self: self.ns.dyn.is_single_integrator())

    def unmet(self, *needs: str) -> str | None:
        """The first of ``needs`` (boolean property names) that is false, or None."""
        return next((need for need in needs if not getattr(self, need)), None)

    def require(self, what: str, *needs: str) -> None:
        """Raise the error of the first unmet requirement, saying that ``what`` needs it."""
        need = self.unmet(*needs)
        if need is not None:
            error, asks_for = REFUSALS[need]
            raise error(f"{what} needs {asks_for}")

    def blocker(self, field_name: str) -> str | None:
        """The first unmet requirement of a report field (see PRECONDITIONS), or None."""
        return self.unmet("connected", "synchronized", *PRECONDITIONS[field_name][1])

    def refusal(self, triangle: bool = False) -> str | None:
        """The error kind refusing an ``analyze`` run, or None.  A run promises the AEP
        bounds, or with ``triangle`` and a non-AEP partition the triangle bounds;
        a leaderless network, whose norms are all zero, is never refused."""
        if self.ns.n_leaders == 0:
            return None
        need = self.blocker("triangle_h2_bound" if triangle and self.not_aep else "abs_h2_bound")
        return need and REFUSALS[need][0].__name__

    @cached_property
    def nonzero_eigenvalues(self) -> np.ndarray:
        lams = self.ns.laplacian.spectral.eigenvalues
        return lams[lams > self.tol.zero_eig_tol]

    @cached_property
    def reduced(self) -> ReducedGraph:
        return reduce_graph(self.ns.laplacian, self.pi, self.ns.leaders)

    @cached_property
    def reduced_eigenvalues(self) -> np.ndarray:
        return self.reduced.spectral.eigenvalues

    @cached_property
    def lost_eigenvalues(self) -> np.ndarray:
        """The spectrum of (I - proj) L (I - proj) = L - dL - proj L proj after the k zeros
        that span(P) contributes, ascending; proj L proj = P l_hat (P^T P)^{-1} P^T comes from
        the reduction, by indexing.  It is the spectrum of l_aep on span(P)^perp.  For an
        AEP, dL = 0 and L leaves span(P) invariant, so it is sigma(L) minus sigma(l_hat): the
        eigenvalues the reduction loses."""
        plp = (self.reduced.laplacian_hat / self.pi.sizes)[self.pi.labels][:, self.pi.labels]
        return np.linalg.eigvalsh(self.ns.laplacian.mat - self.deviation - plp)[self.pi.n_cells :]

    @cached_property
    def surrogate(self) -> Analysis:
        """The run on l_aep, for which the partition is almost equitable by construction.
        No network is built on l_aep: the surrogate keeps the run's network, for its leaders
        and agents, and takes the run's spectra.  l_aep is block diagonal on
        span(P) + span(P)^perp, and (I - proj) l_aep (I - proj) = (I - proj) L (I - proj):
        its lost spectrum is the run's ``lost_eigenvalues``, and its nonzero spectrum is
        sigma(l_bar) minus {0} plus those.  Both parts are >= lambda_2(L) (Cauchy
        interlacing for the compression l_bar; Courant-Fischer on span(P)^perp, inside
        1^perp), so a connected run has a connected surrogate, and for single integrators,
        the triangle route's only agents, a synchronized one.  The route reaches the
        surrogate only for a connected run, so the surrogate takes both decisions from it."""
        surrogate, lost = Analysis(self.ns, self.pi, self.tol), self.lost_eigenvalues
        surrogate.aep = True  # (I - proj) l_aep P = 0 exactly; no test to repeat
        surrogate.connected, surrogate.synchronized = self.connected, self.synchronized
        surrogate.lost_eigenvalues = lost
        surrogate.nonzero_eigenvalues = np.concatenate([self.reduced_eigenvalues[1:], lost])
        return surrogate

    @cached_property
    def full_modes(self) -> Modes:
        return network_modes(self.ns.dyn, self.ns.laplacian.spectral)

    @cached_property
    def reduced_modes(self) -> Modes:
        return network_modes(self.ns.dyn, self.reduced.spectral)

    @cached_property
    def full_system(self) -> ModalSystem:
        return assemble_full(self.ns, self.full_modes)

    @cached_property
    def reduced_system(self) -> ModalSystem:
        return assemble_reduced_bar(
            self.ns, self.pi, self.reduced, self.full_modes, self.reduced_modes
        )

    @cached_property
    def error_system(self) -> ModalSystem:
        return assemble_error_system(self.full_system, self.reduced_system)

    @cached_property
    def lost_hurwitz(self) -> bool:
        """A - lam B Hurwitz over the lost spectrum.  Unlike sigma(L), which
        ``synchronized`` tests, the lost spectrum drifts under a loose aep_rtol."""
        return hurwitz_over(self.ns.dyn, self.lost_eigenvalues, self.tol.zero_eig_tol)

    @cached_property
    def triangle_systems(self) -> tuple:
        """The outer terms of the triangle route (see :func:`triangle_bound_general`): the
        full and reduced realizations with the output dL (x) I and dL P (P^T P)^{-1/2} (x) I
        in place of L (x) I and L P (P^T P)^{-1/2} (x) I, unrotated and with no diagonal
        block, so they keep those realizations' modal forms.  dL P = R exactly (H^T P = 0,
        see :func:`aep_deviation`), so the second output is the scaled residual
        R (P^T P)^{-1/2}, with no N x N x k product."""
        scaled = self.reduced.residual / np.sqrt(self.pi.sizes)[None, :]
        return (
            with_output(self.full_system, self.full_modes, self.deviation),
            with_output(self.reduced_system, self.reduced_modes, scaled),
        )

    def _extremes(self, upper, lower=None) -> tuple:
        """(max of ``upper`` over the lost spectrum, min of ``lower`` over the nonzero one),
        each 0.0 over an empty spectrum.  ``upper`` and ``lower`` map an array of
        eigenvalues to an array of values, one call per spectrum."""
        s_max = upper(self.lost_eigenvalues).max(initial=0.0)
        s_min = (lower or upper)(self.nonzero_eigenvalues)
        return float(s_max), float(s_min.min()) if s_min.size else 0.0

    @cached_property
    def h2_constants(self) -> tuple:
        """(s_max, s_min): extreme auxiliary H2 norms over the lost / nonzero spectrum."""
        return self._extremes(lambda lams: np.sqrt(aux_gramian_h2_sq(self.ns.dyn, lams)))

    @cached_property
    def hinf_constants(self) -> tuple:
        """(s_max, s_min) for symmetric dynamics: the auxiliary H-infinity norms are then
        sigma_max of the DC gains (B - A/lam)^{-1} E; s_min takes their sigma_min."""

        def sv(lams):
            return np.linalg.svd(aux_dc_gain(self.ns.dyn, lams), compute_uv=False)

        return self._extremes(
            lambda lams: sv(lams).max(axis=1, initial=0.0),
            lambda lams: sv(lams).min(axis=1, initial=math.inf),
        )


def h2_bound_aep(an: Analysis):
    """Absolute and relative a-priori H2 error bounds for an AEP.

    abs^2 = s_max^2 * sum_i (1 - 1/|cell of leader i|), with s_max the
    largest auxiliary H2 norm over the eigenvalues lost by the reduction;
    rel^2 = (s_max/s_min)^2 * sum_i(...) / (m (1 - 1/N)).  Both are 0 when
    the sum is 0 (no leader, or every leader alone in its cell).
    """
    an.require("the a-priori H2 bound", "connected", "aep", "synchronized", "lost_hurwitz")
    s_max, s_min = an.h2_constants
    terms = sum(cellmate_terms(an.pi, an.ns.leaders))
    if terms == 0.0 or s_max == 0.0:
        return 0.0, 0.0
    m, n_agents = an.ns.n_leaders, an.ns.n_agents
    rel_bound = (s_max / s_min) * math.sqrt(terms / (m * (1.0 - 1.0 / n_agents)))
    return s_max * math.sqrt(terms), rel_bound


def hinf_error_single_integrator(an: Analysis) -> float:
    """Exact H-infinity reduction error for single-integrator agents on an AEP:
    ||(I - proj) M||_2, the symmetric-agent bound with s_max = 1 (see
    :func:`leader_factor`)."""
    an.require("the exact H-infinity error", "single_integrator", "connected", "aep")
    return math.sqrt(leader_factor(an.pi, an.ns.leaders))


def hinf_bound_symmetric(an: Analysis):
    """Absolute and relative a-priori H-infinity bounds for symmetric (A, B) on an AEP.

    abs = s_max * ||(I - proj) M||_2 (see :func:`leader_factor`), with s_max the
    largest auxiliary DC gain over the lost spectrum.  The relative bound divides by
    s_min times the square root of the leader spread factor (the spread is 1 for two
    or more leaders); it is infinite when s_min = 0, i.e. when E has rank below
    min(n, r).
    """
    an.require(
        "the a-priori H-infinity bound",
        "symmetric", "connected", "aep", "synchronized", "lost_hurwitz",
    )
    s_max, s_min = an.hinf_constants
    abs_bound = s_max * math.sqrt(leader_factor(an.pi, an.ns.leaders))
    if abs_bound == 0.0:
        return 0.0, 0.0
    scale = s_min * math.sqrt(leader_spread(an.ns.n_leaders, an.ns.n_agents))
    return abs_bound, abs_bound / scale if scale > 0.0 else math.inf


def triangle_bound_general(an: Analysis, norm: str):
    """Reduction error bound for an arbitrary partition (single integrators).

    Route: approximate L by the closest AEP-compatible matrix l_aep and
    chain three terms with the triangle inequality,

        total = 2 * ||dL (sI + L)^{-1} M||_p        (original vs. surrogate)
              + exact/bounded AEP error on l_aep    (surrogate reduction)
              + ||dL P (sI + L_hat)^{-1} M_hat||_p  (reduced surrogate vs. reduced)

    with dL = L - l_aep.  dL annihilates the all-ones vector, so both outer
    terms have well-defined norms despite the marginal mode.  Returns
    ``(total, (term1, term2, term3))``.
    """
    if norm not in ("h2", "hinf"):
        raise ValueError(f"norm must be 'h2' or 'hinf', got {norm!r}")
    an.require("the triangle route", "single_integrator", "connected")
    term1_sys, term3_sys = an.triangle_systems
    if norm == "h2":
        term1 = 2.0 * h2_norm(term1_sys).value
        term2 = h2_bound_aep(an.surrogate)[0]
        term3 = h2_norm(term3_sys).value
    else:
        term1 = 2.0 * hinf_norm_sweep(term1_sys).value
        term2 = hinf_error_single_integrator(an.surrogate)
        term3 = hinf_norm_sweep(term3_sys).value
    return term1 + term2 + term3, (term1, term2, term3)


def _hinf_bounds(an: Analysis) -> tuple:
    # an infinite relative bound is a rank-deficient E, not an overflow: None, not inf
    abs_bound, rel_bound = hinf_bound_symmetric(an)
    return *an.hinf_constants, abs_bound, None if rel_bound == math.inf else rel_bound


def _full_hinf(an: Analysis) -> tuple:
    # symmetric agents (single integrators included) peak at DC, with the drift as
    # witness: in the output coordinates of the full realization, diag(poles)
    sys = an.full_system
    return (hinf_norm_dc(sys, sys.poles) if an.symmetric else hinf_norm_sweep(sys),)


# The report's fill table, in fill order: the field whose PRECONDITIONS admit a row -> (the
# fields the row fills together, their values computed from an Analysis).  A report field
# is declared by its PRECONDITIONS entry and its row here.
FILLS = {
    "abs_h2_bound": (
        ("s_max_h2", "s_min_h2", "abs_h2_bound", "rel_h2_bound"),
        lambda an: (*an.h2_constants, *h2_bound_aep(an)),
    ),
    "triangle_h2_bound": (
        ("triangle_h2_bound", "triangle_h2_terms"), lambda an: triangle_bound_general(an, "h2")
    ),
    "full_h2_norm": (("full_h2_norm",), lambda an: (h2_norm(an.full_system),)),
    "true_h2_error": (("true_h2_error",), lambda an: (h2_norm(an.error_system),)),
    "abs_hinf_bound": (
        ("s_max_hinf", "s_min_hinf", "abs_hinf_bound", "rel_hinf_bound"), _hinf_bounds
    ),
    "hinf_exact_error": (("hinf_exact_error",), lambda an: (hinf_error_single_integrator(an),)),
    "triangle_hinf_bound": (
        ("triangle_hinf_bound", "triangle_hinf_terms"),
        lambda an: triangle_bound_general(an, "hinf"),
    ),
    "full_hinf_norm": (("full_hinf_norm",), _full_hinf),
    "true_hinf_error": (("true_hinf_error",), lambda an: (hinf_norm_sweep(an.error_system),)),
}


def full_report(an: Analysis, norms=("h2", "hinf")) -> BoundReport:
    """Evaluate every applicable bound plus oracle true errors.

    Inapplicable quantities stay None with the reason recorded in
    ``report.unavailable`` (see PRECONDITIONS).  Norm-based work is gated on
    connectivity and synchronization rather than reported as infinite.  Each admitted
    row of FILLS is computed under ``np.errstate`` that silences NumPy's floating-point
    warnings: a value that overflows is recorded as IllConditioned instead.
    """
    ns, pi = an.ns, an.pi
    report = BoundReport(
        aep=an.aep,
        synchronized=an.synchronized,
        connected=an.connected,
        leaders_share_cell=leaders_share_cell(pi, ns.leaders),
        cellmate_terms=cellmate_terms(pi, ns.leaders),
        unavailable={
            name: "NotRequested" for name, (norm, _) in PRECONDITIONS.items() if norm not in norms
        },
    )
    fields = [name for name, (norm, _) in PRECONDITIONS.items() if norm in norms]

    if ns.n_leaders == 0:
        # no external input: every transfer function, bound and error is zero
        for name in fields:
            if name.startswith(("true_", "full_")):
                method = METHOD_LYAPUNOV if PRECONDITIONS[name][0] == "h2" else METHOD_SWEEP
                setattr(report, name, NormResult(0.0, method, {"trivial": "leaderless network"}))
            elif name == "hinf_exact_error" and not an.single_integrator:
                report.unavailable[name] = "NotSingleIntegrator"
            elif not name.startswith("triangle_"):
                setattr(report, name, 0.0)
        return report

    needs = {name: an.blocker(name) for name in fields}
    for name, need in needs.items():
        if need in REFUSALS:
            report.unavailable[name] = REFUSALS[need][0].__name__
    admitted = {name for name, need in needs.items() if need is None}

    def fill(names: tuple, compute) -> None:
        """Set the report attributes ``names`` to the values ``compute(an)`` returns.  When
        it raises, or returns a value or certificate that is not finite, the report fields
        among ``names`` record why: IllConditioned for a numerical kernel that failed on
        the data (any LinAlgError) or overflowed, NotSynchronized for an output that
        observes an unstable mode (only an error system's reduced part, under a non-AEP
        partition, can have one).  A value None is a field left empty on purpose: the
        relative H-infinity bound of an E of deficient rank, recorded as RankDeficientInput."""
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                values = compute(an)
        except np.linalg.LinAlgError:
            kind = IllConditioned.__name__
        except UnstablePoles:
            kind = NotSynchronized.__name__
        else:
            if all_finite(values):
                for name, value in zip(names, values):
                    setattr(report, name, value)
                    if value is None:
                        report.unavailable[name] = "RankDeficientInput"
                return
            kind = IllConditioned.__name__
        report.unavailable.update((name, kind) for name in names if name in PRECONDITIONS)

    for admitting, (names, compute) in FILLS.items():
        if admitting in admitted:
            fill(names, compute)
    return report
