import json
import math

import numpy as np
import pytest
import scipy.linalg

from netred.bounds import Analysis, full_report
from netred.cli import main
from netred.errors import (
    KernelViolated,
    NotAEP,
    NotSymmetric,
    NotSynchronized,
    UnstablePoles,
    WitnessInvalid,
)
from netred.generators import (
    EXAMPLES,
    complete_graph,
    lift_aep_graph,
    path_graph,
    random_aep_instance,
    random_general_instance,
    random_symmetric_dynamics,
    single_integrator,
)
from netred.graphcore import Partition, WeightedGraph, laplacian_from_graph
from netred import linalg
from netred.linalg import solve_lyapunov, stable_unstable_split, triangular_response
from netred.netfile import dump_json
from netred.netsys import (
    AgentDynamics,
    NetworkSystem,
    assemble_full,
    with_output,
)
from netred.norms import (
    SWEEP_W_RTOL,
    aux_gramian_h2_sq,
    h2_norm,
    h2_norm_quadrature,
    hinf_norm_dc,
    hinf_norm_sweep,
)

from .support import (
    Dense,
    assemble_reduced,
    dense_error,
    dense_full,
    dense_response,
    h2_norm_network_spectral,
    h2_norm_reduced_spectral,
    make_dynamics,
    modal_form,
    pinv,
    random_hurwitz,
    reference_hinf_sweep,
)
from .test_golden import GOLDEN


def _k2(leaders=(0,)):
    lap = laplacian_from_graph(path_graph(2))
    return NetworkSystem(laplacian=lap, leaders=leaders, dyn=single_integrator())


class TestH2Norm:
    def test_first_order_lag(self):
        sys = modal_form([[-1.0]], [[1.0]], [[1.0]])
        assert h2_norm(sys).value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_aux_gramian_single_integrator(self):
        # scalar Lyapunov (-lam) X + X (-lam) + lam^2 = 0 gives X = lam / 2
        lams = np.array([0.5, 2.0, 7.5])
        assert aux_gramian_h2_sq(single_integrator(), lams) == pytest.approx(lams / 2.0)

    def test_aux_gramian_equals_checked_lyapunov_route(self):
        # the block recurrence on the Schur form, with no Hurwitz re-test, against the
        # checked dense solver: equal to rounding for symmetric and nonsymmetric agents
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            dyn = make_dynamics(rng, ("symmetric", "dissipative")[seed % 2], n=3, r=2)
            lam = float(rng.uniform(0.1, 5.0))
            x = solve_lyapunov(dyn.A - lam * dyn.B, lam * lam * np.eye(dyn.n))
            want = float(np.trace(dyn.E.T @ x @ dyn.E))
            (got,) = aux_gramian_h2_sq(dyn, np.array([lam]))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_aux_value_confirmed_by_quadrature(self):
        # settles the lam/2 reading: the H2 integral of lam/(s+lam) equals lam/2
        for lam in (0.5, 2.0):
            sys = modal_form([[-lam]], [[1.0]], [[lam]])
            quad = h2_norm_quadrature(sys)
            assert quad.value**2 == pytest.approx(lam / 2.0, rel=1e-6)

    def test_k2_network_matches_quadrature(self):
        sys = assemble_full(_k2())
        lyap = h2_norm(sys)
        quad = h2_norm_quadrature(sys)
        assert lyap.value == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert abs(lyap.value - quad.value) <= 1e-4 * quad.value

    @pytest.mark.parametrize("seed", [2, 3])
    def test_exact_reduction_reads_zero_at_size(self, seed):
        # every leader alone in its cell of an AEP: the reduction is exact, and the
        # 192-state error system's Gramian has a wide numerical null space whose noise
        # the rank cut keeps out of the trace (without it these read about 1e-8)
        rng = np.random.default_rng(seed)
        graph, pi = lift_aep_graph(rng, [1, 1, 1, 8, 8, 8, 8, 8, 8, 7, 6])
        dyn = random_symmetric_dynamics(rng, 3, 2)
        ns = NetworkSystem(laplacian_from_graph(graph), (0, 1, 2), dyn)
        report = full_report(Analysis(ns, pi), norms=("h2",))
        assert graph.n_nodes == 64 and pi.n_cells == 11
        assert report.true_h2_error.value <= 1e-10 * report.full_h2_norm.value

    def test_kernel_violation_raises(self):
        sys = modal_form(np.diag([-1.0, 0.0]), np.ones((2, 1)), [[0.0, 1.0]])
        with pytest.raises(UnstablePoles):
            h2_norm(sys)

    def test_no_inputs_gives_zero(self):
        sys = modal_form([[-1.0]], np.zeros((1, 0)), [[1.0]])
        assert h2_norm(sys).value == 0.0


class TestAuxiliaryBatches:
    def _reference(self, dyn, lams):
        """tr(E^T X E) per lam through the checked Lyapunov route."""
        out = []
        for lam in lams:
            x = solve_lyapunov(dyn.A - lam * dyn.B, lam * lam * np.eye(dyn.n))
            out.append(float(np.trace(dyn.E.T @ x @ dyn.E)))
        return np.array(out)

    @pytest.mark.parametrize("kind", ["symmetric", "singular"])
    def test_symmetric_closed_form_matches_lyapunov(self, kind):
        for seed in range(12):
            rng = np.random.default_rng(4100 + seed)
            dyn = make_dynamics(rng, kind, n=1 + seed % 3, r=1 + seed % 2)
            assert dyn.symmetric
            lams = np.sort(rng.uniform(0.05, 8.0, size=7))
            got = aux_gramian_h2_sq(dyn, lams)
            np.testing.assert_allclose(got, self._reference(dyn, lams), rtol=1e-12, atol=0.0)

    def test_single_integrator_is_half_lambda(self):
        lams = np.array([1e-3, 0.5, 2.0, 3.0, 7.5, 1e3])
        np.testing.assert_allclose(
            aux_gramian_h2_sq(single_integrator(), lams), lams / 2.0, rtol=1e-15, atol=0.0
        )

    def test_nonsymmetric_agents_match_the_lyapunov_route(self):
        for seed in range(8):
            rng = np.random.default_rng(4200 + seed)
            dyn = make_dynamics(rng, "dissipative", n=2 + seed % 2, r=2)
            assert not dyn.symmetric
            lams = rng.uniform(0.1, 5.0, size=5)
            got = aux_gramian_h2_sq(dyn, lams)
            np.testing.assert_allclose(got, self._reference(dyn, lams), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["single", "symmetric", "dissipative"])
    def test_empty_spectrum(self, kind):
        dyn = make_dynamics(np.random.default_rng(42), kind, n=2, r=2)
        assert aux_gramian_h2_sq(dyn, np.array([])).shape == (0,)

    def test_dc_closed_form_matches_dense_pseudoinverse(self):
        # full systems with witness A; single-integrator error systems with witness -L;
        # each in the rotated output coordinates (diag(poles) and -lams), against the
        # pseudoinverse of the dense Kronecker drift
        for seed in range(12):
            rng = np.random.default_rng(4300 + seed)
            kind = ("single", "symmetric", "singular")[seed % 3]
            ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, kind))
            full = assemble_full(ns)
            cases = [(full, full.poles, dense_full(ns))]
            if kind == "single":
                cases.append((Analysis(ns, pi).error_system, -full.d, dense_error(ns, pi)))
            for sys, witness, dense in cases:
                gain = dense.C @ pinv(dense.A) @ dense.B
                want = np.linalg.svd(gain, compute_uv=False).max(initial=0.0)
                assert hinf_norm_dc(sys, witness).value == pytest.approx(want, rel=1e-12)


class TestSpectralFormulas:
    def test_k2_hand_value(self):
        # weight (U^T M M^T U)_22 = 1/2 against eigenvalue 2: value^2 = 1/2
        res = h2_norm_network_spectral(_k2())
        assert res.value**2 == pytest.approx(0.5, abs=1e-12)

    def test_leaderless_gives_zero(self):
        assert h2_norm_network_spectral(_k2(leaders=())).value == 0.0
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        assert h2_norm_reduced_spectral(_k2(leaders=()), pi).value == 0.0

    def test_matches_lyapunov_route_random(self):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            kind = ("single", "symmetric", "dissipative", "singular")[seed % 4]
            ns, _ = random_aep_instance(rng, dynamics=make_dynamics(rng, kind))
            spectral = h2_norm_network_spectral(ns).value
            lyap = h2_norm(assemble_full(ns)).value
            assert abs(spectral - lyap) <= 1e-8 * (1.0 + lyap)

    def test_reduced_matches_lyapunov_route(self):
        for seed in range(25):
            rng = np.random.default_rng(2000 + seed)
            kind = ("single", "symmetric", "dissipative")[seed % 3]
            ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, kind))
            spectral = h2_norm_reduced_spectral(ns, pi).value
            lyap = h2_norm(modal_form(*assemble_reduced(ns, pi))).value
            assert abs(spectral - lyap) <= 1e-8 * (1.0 + lyap)

    def test_reduced_spectral_singleton_equals_full(self):
        ns = _k2()
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        full = h2_norm_network_spectral(ns).value
        red = h2_norm_reduced_spectral(ns, pi).value
        assert red == pytest.approx(full, abs=1e-12)

    def test_not_synchronized_raises(self):
        lap = laplacian_from_graph(path_graph(2))
        dyn = AgentDynamics(A=[[1.0]], B=[[0.0]], E=[[1.0]])
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=dyn)
        with pytest.raises(NotSynchronized):
            h2_norm_network_spectral(ns)

    def test_reduced_spectral_requires_aep(self):
        lap = laplacian_from_graph(path_graph(5))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        pi = Partition(n_nodes=5, cells=((0, 1, 2), (3, 4)))
        with pytest.raises(NotAEP):
            h2_norm_reduced_spectral(ns, pi)


class TestHinfSweep:
    def test_first_order_lag_peaks_at_dc(self):
        sys = modal_form([[-1.0]], [[1.0]], [[1.0]])
        res = hinf_norm_sweep(sys)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.certificate["peak_omega"] == 0.0

    def test_all_pass_at_dc(self):
        for lam in (0.3, 5.0):
            sys = modal_form([[-lam]], [[1.0]], [[lam]])
            assert hinf_norm_sweep(sys).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("zeta", [0.2, 0.05, 0.005])
    def test_resonant_second_order_peak(self, zeta):
        # the zoom narrows the peak's bracket to SWEEP_W_RTOL in relative frequency; the
        # gain is flat to second order there, so the value is far more accurate
        omega0 = 3.0
        sys = modal_form(
            [[0.0, 1.0], [-omega0**2, -2.0 * zeta * omega0]], [[0.0], [omega0**2]], [[1.0, 0.0]]
        )
        expected = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
        res = hinf_norm_sweep(sys)
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert res.certificate["peak_omega"] == pytest.approx(
            omega0 * np.sqrt(1.0 - 2.0 * zeta**2), rel=SWEEP_W_RTOL
        )

    @pytest.mark.parametrize("n", [1, 12])
    def test_flat_plateau_makes_no_peak(self, n):
        # poles near 1e3: below 1e-5 rad/s the gain is flat to rounding, and its noise
        # once counted as interior peaks, each refined by a zoom
        rng = np.random.default_rng(1)
        g, b = rng.normal(size=(n, n)), rng.normal(size=(n, 2))
        a = -1e3 * (g @ g.T + np.eye(n))
        sys = modal_form(a, b, b.T)
        dc = np.linalg.svd(b.T @ np.linalg.solve(-a, b), compute_uv=False).max()
        res = hinf_norm_sweep(sys)
        assert res.certificate["gain_evaluations"] == 361
        assert res.value == pytest.approx(dc, rel=1e-14)

    def test_observable_unstable_pole_raises(self):
        sys = modal_form([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstablePoles):
            hinf_norm_sweep(sys)

    def test_marginal_mode_deflation(self):
        # K2 single-integrator network: pole at 0 is unobservable through L
        sys = assemble_full(_k2(leaders=(0, 1)))
        assert hinf_norm_sweep(sys).value == pytest.approx(1.0, abs=1e-9)

    def test_observable_marginal_pole_raises(self):
        sys = modal_form(np.diag([-1.0, 0.0]), np.ones((2, 1)), [[0.0, 1.0]])
        with pytest.raises(UnstablePoles):
            hinf_norm_sweep(sys)

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_matches_loop_over_frequencies_reference(self, name):
        # relative 1e-12; the absolute 1e-14 covers error systems that are exactly zero
        for seed in range(3):
            ns, pi = EXAMPLES[name](np.random.default_rng(seed))
            err = Analysis(ns, pi).error_system
            for sys, dense in ((assemble_full(ns), dense_full(ns)), (err, dense_error(ns, pi))):
                got, want = hinf_norm_sweep(sys).value, reference_hinf_sweep(dense)
                assert abs(got - want) <= 1e-12 * want + 1e-14


    def test_tail_falling_as_inverse_square_makes_no_peak(self):
        # C B = 0 and C A B != 0: the gain falls as 1/w^2, and H + H^H cancels to it from
        # terms of order 1/w.  Compared as squares, its rounding stays far below the
        # level test; square roots lifted it above and refined noise peaks on the tail
        c = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]])
        b = np.array([[1.0, 0.0], [-2.0, 1.0], [1.0, -2.0], [0.0, 1.0]])
        a = -np.diag([1.0, 2.0, 3.0, 4.0])
        assert not (c @ b).any() and (c @ a @ b).any()
        res = hinf_norm_sweep(modal_form(a, b, c))
        assert res.certificate["gain_evaluations"] == 361
        assert res.certificate["peak_omega"] == 0.0
        dc = np.linalg.svd(c @ np.linalg.solve(-a, b), compute_uv=False).max()
        assert res.value == pytest.approx(dc, rel=1e-14)


def _symmetric_error_system():
    rng = np.random.default_rng(21)  # singular A: each consensus block has masked states
    ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "singular", n=3, r=2))
    return Analysis(ns, pi).error_system


def _nonsymmetric_error_system():
    rng = np.random.default_rng(22)
    ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=3, r=2))
    return Analysis(ns, pi).error_system


def _non_normal_modal_form():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = q @ (np.diag([-1.0, -2.0, -3.0, -0.5]) + np.triu(5.0 * np.ones((4, 4)), 1)) @ q.T
    assert np.abs(a @ a.T - a.T @ a).max() > 1.0
    return modal_form(a, rng.normal(size=(4, 2)), rng.normal(size=(3, 4)))


class TestGramianGains:
    """The sweep's gains: with X_s the observability Gramian of the deflated triple
    (T_s, B_s, C_s), G(iw)^H G(iw) = H(iw) + H(iw)^H for H(s) = K (sI - T_s)^{-1} B_s,
    K = B_s^H X_s."""

    @pytest.mark.parametrize(
        "build", [_symmetric_error_system, _nonsymmetric_error_system, _non_normal_modal_form]
    )
    def test_h_plus_h_adjoint_is_the_gram_of_the_true_response(self, build):
        sys = build()
        t_s, b_s, c_s, d_s = stable_unstable_split(sys)
        n1, (k, w) = d_s.size, t_s.shape[:2]
        if build is _symmetric_error_system:  # a diagonal head, masked consensus states
            assert w == 1 and n1 > 0 and sys.unstable.any()
        elif build is _nonsymmetric_error_system:
            assert w == 3 and n1 > 0
        (head, f, r), _ = sys.gramian
        head = scipy.linalg.block_diag(*head) if n1 else np.zeros((0, 0))
        x_s = np.block([[head, f], [f.conj().T, r]])
        gain = b_s.conj().T @ x_s  # K
        output = np.hstack([np.eye(len(c_s), n1) * d_s, c_s])
        true = Dense(scipy.linalg.block_diag(*t_s), b_s, output)
        omegas = np.array([0.0, 1e-2, 1.0, 1e2])
        h = triangular_response(t_s, b_s, gain, np.zeros(0), 1j * omegas)
        for omega, h_w in zip(omegas, h):
            g = dense_response(true, 1j * omega)
            gram = g.conj().T @ g
            scale = np.abs(gain).max() * np.abs(b_s).max() / max(omega, 1.0)
            np.testing.assert_allclose(h_w + h_w.conj().T, gram, rtol=0, atol=1e-12 * scale)
            assert np.abs(gram).max() > 1e-8 * scale  # not a comparison of two zeros

    def test_h2_and_the_sweep_share_one_gramian(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(len(args))
            return solve(*args)

        solve = linalg.solve_block_sylvester
        monkeypatch.setattr(linalg, "solve_block_sylvester", counting)
        rng = np.random.default_rng(24)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=2))
        an = Analysis(ns, pi)
        err = an.error_system
        del calls[:]
        h2_norm(err)
        hinf_norm_sweep(err)
        assert len(calls) == 3  # the head, the cross term and the tail, once
        # a realization with another output solves its own Gramian
        full = an.full_system
        full.gramian
        term = with_output(full, an.full_modes, np.ones((2, ns.n_agents)))
        assert "gramian" in vars(full) and "gramian" not in vars(term)
        del calls[:]
        hinf_norm_sweep(term)
        assert len(calls) == 3


class TestHinfDc:
    def test_full_single_integrator_network_two_leaders(self):
        sys = assemble_full(_k2(leaders=(0, 1)))
        res = hinf_norm_dc(sys, -sys.d)  # -L in the output coordinates U^T y
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_error_system_value_formula(self):
        lap = laplacian_from_graph(complete_graph(3))
        ns = NetworkSystem(laplacian=lap, leaders=(0, 1), dyn=single_integrator())
        pi = Partition(n_nodes=3, cells=((0,), (1, 2)))
        err = Analysis(ns, pi).error_system
        res = hinf_norm_dc(err, -lap.spectral.eigenvalues)  # -L in the output coordinates
        m = ns.m_matrix
        expected_sq = 1.0 - np.linalg.eigvalsh(m.T @ pi.projector @ m).min()
        assert res.value**2 == pytest.approx(expected_sq, abs=1e-9)

    def test_stable_mode_far_below_the_largest_is_kept(self):
        # path 1-2-3 with weights 1e10 and 1: sigma(L) = {0, ~1.5, ~2e10}; the stable pole
        # at -1.5 lies below 1e-10 of the largest, and a relative rank cut dropped it
        graph = WeightedGraph(n_nodes=3, edges=((0, 1, 1e10), (1, 2, 1.0)))
        ns = NetworkSystem(laplacian_from_graph(graph), (2,), single_integrator())
        report = full_report(Analysis(ns, Partition(n_nodes=3, cells=((0,), (1,), (2,)))))
        assert report.full_hinf_norm.method == "dc_gain_closed_form"
        assert report.full_hinf_norm.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_diagonal_stable_matches_sweep(self):
        rng = np.random.default_rng(4)
        a = np.diag([-1.0, -2.0])
        b = rng.normal(size=(2, 2))
        sys = modal_form(a, b, np.eye(2))
        dc = hinf_norm_dc(sys, np.diagonal(a))
        sweep = hinf_norm_sweep(sys)
        assert abs(dc.value - sweep.value) <= 1e-6 * dc.value

    def test_nonsymmetric_bare_drift_raises(self):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys = modal_form(a, np.eye(2), np.eye(2))
        with pytest.raises(NotSymmetric):
            hinf_norm_dc(sys, np.diagonal(a))

    def test_bare_drift_must_be_exactly_symmetric(self):
        # a dense drift symmetric only up to rounding takes the complex Schur form; agents
        # symmetric within SYMMETRY_RTOL are symmetrized when built
        a = np.array([[-1.0, 0.5], [0.5 + 1e-15, -2.0]])
        with pytest.raises(NotSymmetric):
            hinf_norm_dc(modal_form(a, np.eye(2), np.eye(2)), np.ones(2))
        # the output in the eigenbasis of the symmetric part, where the witness is diag(w)
        w, u = np.linalg.eigh(0.5 * (a + a.T))
        res = hinf_norm_dc(modal_form(0.5 * (a + a.T), np.eye(2), u.T), w)
        assert res.method == "dc_gain_closed_form"
        assert res.value == pytest.approx(1.0 / np.abs(w).min(), rel=1e-12)

    def test_invalid_witness_raises(self):
        sys = modal_form(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        with pytest.raises(WitnessInvalid, match="CA != XC"):
            hinf_norm_dc(sys, [-2.0, -1.0])
        # the witness is the vector of a diagonal X, never the p x p matrix
        with pytest.raises(WitnessInvalid, match=r"shape \(2,\)"):
            hinf_norm_dc(sys, np.diag([-1.0, -2.0]))

    def test_kernel_violation_raises(self):
        # A singular with its kernel observable through C
        sys = modal_form(np.diag([0.0, -1.0]), np.eye(2), np.eye(2))
        with pytest.raises(KernelViolated):
            hinf_norm_dc(sys, [0.0, -1.0])

    def test_observable_positive_eigenvalue_raises(self):
        sys = modal_form(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
        with pytest.raises(UnstablePoles, match="closed-right-half-plane"):
            hinf_norm_dc(sys, [1.0, -1.0])


class TestOneFactorization:
    def test_three_norm_routes_factor_a_realization_once(self, monkeypatch):
        # a network realization brings its Schur form from assembly, one n x n form per
        # Laplacian eigenvalue, and the three routes factor nothing more; a dense
        # realization of the same drift is factored once, by modal_form
        calls = []

        def counting_schur(a, *args, **kwargs):
            calls.append(np.shape(a))
            return schur(a, *args, **kwargs)

        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        rng = np.random.default_rng(8)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=2))
        err = Analysis(ns, pi).error_system
        assert calls == [(2, 2)] * (ns.n_agents + pi.n_cells)
        del calls[:]
        routes = (h2_norm, hinf_norm_sweep, h2_norm_quadrature)
        values = [route(err).value for route in routes]
        assert calls == []
        bare = modal_form(*dense_error(ns, pi))
        dense = [route(bare).value for route in routes]
        assert calls == [(err.n_states, err.n_states)]
        assert abs(values[0] - values[2]) <= 1e-2 * values[2]
        np.testing.assert_allclose(values, dense, rtol=1e-10)

    def test_analyze_factors_agent_sized_blocks_only(self, monkeypatch, tmp_path):
        # every realization on the analyze path carries its structured form: a fallback
        # to one dense Schur form of a whole network realization fails here, and so does
        # densifying the n x n blocks of nonsymmetric agents (a block_diag of the drift,
        # a Sylvester solve by LAPACK over all of its states)
        sizes, dense = [], []

        def spy_schur(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return schur(a, *args, **kwargs)

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                dense.append(name)
                return fn(*args, **kwargs)

            return wrapper

        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur", spy_schur)
        monkeypatch.setattr(scipy.linalg, "block_diag", spy("block_diag", scipy.linalg.block_diag))
        monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", spy("ztrsyl", scipy.linalg.lapack.ztrsyl))
        payloads = {path.stem: json.loads(path.read_text())["input"] for path in GOLDEN.glob("*")}
        rng = np.random.default_rng(9)
        dyn = make_dynamics(rng, "dissipative", n=2)
        # a marginal mode: the block at lam = 0 has a stable and a deflated state
        marginal = {"A": [[0.0, 1.0], [0.0, -1.0]], "B": [[1.0, 0.3], [-0.3, 1.0]], "E": [[0.0], [1.0]]}
        agent = {"A": dyn.A.tolist(), "B": dyn.B.tolist(), "E": dyn.E.tolist()}
        for name in ("k3-aep", "random-aep-0"):  # AEPs, which admit non-integrator agents
            payloads[f"{name}-dissipative"] = {**payloads[name], "agent": agent}
            payloads[f"{name}-marginal"] = {**payloads[name], "agent": marginal}
        for payload in payloads.values():
            n = len(payload["agent"]["A"])
            start = len(sizes)
            path = tmp_path / "net.json"
            path.write_text(dump_json(payload))
            argv = ["analyze", str(path), "--triangle", "--oracle-check", "--out", str(tmp_path / "r")]
            assert main(argv) == 0
            assert set(sizes[start:]) <= {(n, n)}
        assert sizes  # the nonsymmetric agents are factored block by block
        assert dense == []


class TestNormProperties:
    def test_h2_orthogonality_on_aep_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "symmetric", n=2))
            full_sq = h2_norm(assemble_full(ns)).value ** 2
            red_sq = h2_norm(modal_form(*assemble_reduced(ns, pi))).value ** 2
            err_sq = h2_norm(Analysis(ns, pi).error_system).value ** 2
            assert abs(err_sq - (full_sq - red_sq)) <= 1e-7 * (1.0 + full_sq)

    def test_adding_a_leader_never_decreases_h2(self):
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            kind = ("single", "dissipative")[seed % 2]
            ns, _ = random_aep_instance(rng, dynamics=make_dynamics(rng, kind), n_leaders=1)
            extra = next(v for v in range(ns.n_agents) if v not in ns.leaders)
            bigger = NetworkSystem(
                laplacian=ns.laplacian, leaders=ns.leaders + (extra,), dyn=ns.dyn
            )
            small = h2_norm(assemble_full(ns)).value
            large = h2_norm(assemble_full(bigger)).value
            assert large >= small - 1e-10

    def test_quadrature_certificate_records_grid(self):
        res = h2_norm_quadrature(assemble_full(_k2()))
        cert = res.certificate
        assert cert["kind"] == "h2_quadrature"
        assert {"points_per_decade", "integral_fine", "integral_coarse", "tail"} <= set(cert)

    @pytest.mark.parametrize("weight", [1e7, 1e9])
    def test_quadrature_window_reaches_fast_poles(self, weight):
        # K3 with heavy edges puts the error system's poles near -3 weight, far above the
        # default window's 1e4; the window widens to a decade past them, so the oracle
        # agrees with the Lyapunov value (a window fixed at [1e-4, 1e4] reads 1.34e5
        # against 3.06e3 at weight 1e7)
        graph = WeightedGraph(3, ((0, 1, weight), (0, 2, weight), (1, 2, weight)))
        dyn = AgentDynamics(A=[[-1.0, 0.2], [0.1, -2.0]], B=np.eye(2), E=[[1.0], [0.5]])
        ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=(1,), dyn=dyn)
        err = Analysis(ns, Partition(3, ((0,), (1, 2)))).error_system
        quad, exact = h2_norm_quadrature(err), h2_norm(err).value
        assert abs(exact - quad.value) / quad.value < 1e-2
        assert quad.certificate["w_lo"] == 1e-4
        assert quad.certificate["w_hi"] >= 10.0 * 3.0 * weight


def _oracle_cases():
    """Symmetric agents with n = 1, 2, 3 and dissipative ones with n = 2, each on an AEP
    and on a general partition."""
    cases = []
    for seed, (kind, n) in enumerate(
        (("symmetric", 1), ("symmetric", 2), ("symmetric", 3), ("dissipative", 2))
    ):
        for build in (random_aep_instance, random_general_instance):
            rng = np.random.default_rng(5100 + 10 * seed + (build is random_general_instance))
            ns, pi = build(rng, dynamics=make_dynamics(rng, kind, n=n, r=2))
            label = "aep" if build is random_aep_instance else "general"
            cases.append(pytest.param(ns, pi, id=f"{kind}-n{n}-{label}"))
    return cases


def _value_or_refusal(route, *args):
    try:
        return route(*args).value
    except UnstablePoles:
        return "UnstablePoles"


class TestModalAgainstDenseOracle:
    """The modal realizations against the dense Kronecker ones (``support.dense_full``,
    ``support.dense_error``), each dense realization factored as a whole by
    ``support.modal_form``, and the DC gain against the dense pseudoinverse."""

    @pytest.mark.parametrize("ns,pi", _oracle_cases())
    def test_norms_agree(self, ns, pi):
        an = Analysis(ns, pi)
        full, dense_f = an.full_system, dense_full(ns)
        pairs = ((full, dense_f), (an.error_system, dense_error(ns, pi)))
        for sys, dense in pairs:
            dense = modal_form(*dense)
            for route in (h2_norm, hinf_norm_sweep, h2_norm_quadrature):
                got, want = _value_or_refusal(route, sys), _value_or_refusal(route, dense)
                if isinstance(want, str):
                    assert got == want, route.__name__
                else:
                    # the absolute floor only matters for exactly-zero error systems
                    assert abs(got - want) <= 1e-12 * want + 1e-14, route.__name__
        if ns.dyn.symmetric:
            got = hinf_norm_dc(full, full.poles).value
            gain = dense_f.C @ pinv(dense_f.A) @ dense_f.B
            assert got == pytest.approx(np.linalg.svd(gain, compute_uv=False).max(), rel=1e-12)
