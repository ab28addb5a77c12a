import json

import numpy as np
import pytest
import scipy.linalg

from netred import netsys
from netred.bounds import Analysis
from netred.cli import main
from netred.errors import Disconnected, UnstablePoles
from netred.generators import (
    complete_graph,
    path_graph,
    random_aep_instance,
    random_connected_graph,
    random_general_instance,
    random_partition,
    single_integrator,
)
from netred.graphcore import Partition, WeightedGraph, laplacian_from_graph
from netred.linalg import STABILITY_MARGIN, SYMMETRY_RTOL
from netred.netfile import dump_json, generate_example
from netred.netsys import (
    AgentDynamics,
    NetworkSystem,
    assemble_full,
    is_synchronized,
)
from netred.norms import h2_norm, h2_norm_quadrature, hinf_norm_sweep

from .support import (
    PATH5_CELLS,
    assemble_reduced,
    aux_systems,
    dense_error,
    dense_full,
    dense_response,
    dense_route,
    dense_schur,
    dense_triangle_terms,
    make_dynamics,
    modal_basis,
    modal_dense,
    modal_form,
    response_gram,
    reduced_synchronization_preserved,
    symmetrized_reduced_coupling,
)


def _k2_single_integrator():
    lap = laplacian_from_graph(path_graph(2))
    return NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())


class TestAgentDynamics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AgentDynamics(A=[[0.0]], B=[[1.0, 0.0]], E=[[1.0]])
        with pytest.raises(ValueError):
            AgentDynamics(A=np.eye(2), B=np.eye(2), E=np.ones((3, 1)))

    def test_single_integrator_detection(self):
        assert single_integrator().is_single_integrator()
        assert not AgentDynamics(A=[[0.0]], B=[[2.0]], E=[[1.0]]).is_single_integrator()

    def test_symmetry_detection(self):
        assert AgentDynamics(A=-np.eye(2), B=np.eye(2), E=np.ones((2, 1))).symmetric
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert not AgentDynamics(A=skew, B=np.eye(2), E=np.ones((2, 1))).symmetric


    def test_symmetric_within_tolerance_becomes_its_symmetric_part(self):
        # the threshold is SYMMETRY_RTOL * (1 + max(|A|, |B|)) = SYMMETRY_RTOL * 3 here
        a = np.array([[-2.0, 1.0], [1.0 + 2.0 * SYMMETRY_RTOL, -3.0]])
        b = np.array([[1.0, -SYMMETRY_RTOL], [0.0, 1.0]])
        dyn = AgentDynamics(A=a, B=b, E=np.ones((2, 1)))
        assert dyn.symmetric
        np.testing.assert_array_equal(dyn.A, 0.5 * (a + a.T))
        np.testing.assert_array_equal(dyn.B, 0.5 * (b + b.T))
        assert np.array_equal(dyn.A, dyn.A.T) and np.array_equal(dyn.B, dyn.B.T)

    def test_exactly_symmetric_input_is_kept_bit_for_bit(self):
        rng = np.random.default_rng(44)
        g, h = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        a, b = g + g.T, h + h.T
        dyn = AgentDynamics(A=a, B=b, E=np.ones((3, 1)))
        assert dyn.symmetric
        np.testing.assert_array_equal(dyn.A, a)
        np.testing.assert_array_equal(dyn.B, b)

    def test_beyond_tolerance_is_kept_as_given(self):
        a = np.array([[-2.0, 1.0], [1.0 + 8.0 * SYMMETRY_RTOL, -3.0]])
        dyn = AgentDynamics(A=a, B=np.eye(2), E=np.ones((2, 1)))
        assert not dyn.symmetric
        np.testing.assert_array_equal(dyn.A, a)


class TestAssembleFull:
    def test_single_integrator_form(self):
        # modal coordinates U^T x: drift -diag(lams), input U^T M, output diag(lams)
        ns = _k2_single_integrator()
        sys = assemble_full(ns)
        eig = ns.laplacian.spectral
        np.testing.assert_array_equal(sys.poles, -eig.eigenvalues)
        np.testing.assert_array_equal(sys.B, eig.eigenvectors.T @ ns.m_matrix)
        np.testing.assert_array_equal(sys.d, eig.eigenvalues)
        assert sys.C.shape == (2, 0)

    def test_one_node_network(self):
        lap = laplacian_from_graph(WeightedGraph(n_nodes=1, edges=()))
        dyn = AgentDynamics(A=[[-2.0]], B=[[1.0]], E=[[1.0]])
        sys = assemble_full(NetworkSystem(laplacian=lap, leaders=(0,), dyn=dyn))
        np.testing.assert_array_equal(sys.poles, [-2.0])
        np.testing.assert_array_equal(sys.d, [0.0])

    def test_shapes_k2_multivariable(self):
        rng = np.random.default_rng(0)
        dyn = make_dynamics(rng, "dissipative", n=2, r=3)
        lap = laplacian_from_graph(path_graph(2))
        sys = assemble_full(NetworkSystem(laplacian=lap, leaders=(1,), dyn=dyn))
        assert sys.t.shape == (2, 2, 2)
        assert sys.B.shape == (4, 3)
        assert sys.n_outputs == sys.d.size == 4


class TestPetrovGalerkinContract:
    def test_w_transpose_v_is_identity_exactly(self):
        rng = np.random.default_rng(1)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=2))
        n = ns.dyn.n
        p = pi.char_matrix
        w = np.kron(p / pi.sizes[None, :], np.eye(n))
        v = np.kron(p, np.eye(n))
        np.testing.assert_array_equal(w.T @ v, np.eye(pi.n_cells * n))

    def test_reduced_equals_projection(self):
        rng = np.random.default_rng(2)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "symmetric", n=2))
        full = dense_full(ns)
        red = assemble_reduced(ns, pi)
        n = ns.dyn.n
        p = pi.char_matrix
        w = np.kron(p / pi.sizes[None, :], np.eye(n))
        v = np.kron(p, np.eye(n))
        np.testing.assert_allclose(red.A, w.T @ full.A @ v, atol=1e-12)
        np.testing.assert_allclose(red.B, w.T @ full.B, atol=1e-12)
        np.testing.assert_allclose(red.C, full.C @ v, atol=1e-12)

    def test_singleton_partition_reduces_to_full(self):
        ns = _k2_single_integrator()
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        full = dense_full(ns)
        red = assemble_reduced(ns, pi)
        np.testing.assert_allclose(red.A, full.A, atol=1e-14)
        np.testing.assert_allclose(red.B, full.B, atol=1e-14)
        np.testing.assert_allclose(red.C, full.C, atol=1e-14)


class TestErrorSystem:
    def test_singleton_partition_gives_zero_transfer(self):
        ns = _k2_single_integrator()
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        err = Analysis(ns, pi).error_system
        for omega in (0.3, 1.0, 4.0):
            assert np.abs(dense_response(err, 1j * omega)).max() <= 1e-9

    def test_single_integrator_block_structure(self):
        # the dense parallel difference (blockdiag(-L, -l_bar), [M; (P^T P)^{1/2} M_hat],
        # [L, -L P (P^T P)^{-1/2}]) in the states blockdiag(U, U_hat)^T x and the outputs
        # U^T y is the modal error system: poles -lams, -lams_hat, output [diag(lams) | C]
        lap = laplacian_from_graph(path_graph(3))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        pi = Partition(n_nodes=3, cells=((0, 1), (2,)))
        an = Analysis(ns, pi)
        err, dense = an.error_system, dense_error(ns, pi)
        l_bar = symmetrized_reduced_coupling(lap, pi)
        z = scipy.linalg.block_diag(an.full_modes.u, an.reduced_modes.u)
        q = an.full_modes.u.T
        lams = np.r_[lap.spectral.eigenvalues, np.linalg.eigvalsh(l_bar)]
        np.testing.assert_allclose(z.T @ dense.A @ z, np.diag(err.poles), atol=1e-14)
        np.testing.assert_allclose(err.poles, -lams, atol=1e-14)
        np.testing.assert_allclose(z.T @ dense.B, err.B, atol=1e-14)
        np.testing.assert_allclose(q @ dense.C @ z, np.hstack([np.diag(err.d), err.C]), atol=1e-14)
        np.testing.assert_allclose(err.d, lap.spectral.eigenvalues, atol=1e-14)

    def test_transfer_equals_difference_at_random_frequencies(self):
        rng = np.random.default_rng(3)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=2))
        full = dense_full(ns)
        red = assemble_reduced(ns, pi)
        err = Analysis(ns, pi).error_system
        for _ in range(20):
            # G^H G: the modal error system's output is rotated
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-10.0, 10.0))
            expected = dense_response(full, s) - dense_response(red, s)
            expected = expected.conj().T @ expected
            got = response_gram(err, s)
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(got - expected).max() <= 1e-8 * scale

    def test_transfer_equals_difference_for_non_aep_partition(self):
        lap = laplacian_from_graph(path_graph(5))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        pi = Partition(n_nodes=5, cells=((0, 1, 2), (3, 4)))
        full, red, err = dense_full(ns), assemble_reduced(ns, pi), Analysis(ns, pi).error_system
        for omega in (0.05, 0.7, 3.0):
            expected = dense_response(full, 1j * omega) - dense_response(red, 1j * omega)
            expected = expected.conj().T @ expected
            assert np.abs(response_gram(err, 1j * omega) - expected).max() <= 1e-10


class TestAuxSystems:
    def test_k2(self):
        systems = aux_systems(_k2_single_integrator())
        assert len(systems) == 1
        assert systems[0].lam == pytest.approx(2.0)
        np.testing.assert_allclose(systems[0].realization.A, [[-2.0]])

    def test_path5_count_matches_spectrum(self):
        lap = laplacian_from_graph(path_graph(5))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        systems = aux_systems(ns)
        assert len(systems) == 4
        lams = [s.lam for s in systems]
        assert lams == sorted(lams)
        np.testing.assert_allclose(lams, lap.spectral.eigenvalues[1:], atol=1e-12)

    def test_k3_multiplicity_preserved(self):
        lap = laplacian_from_graph(complete_graph(3))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        lams = [s.lam for s in aux_systems(ns)]
        np.testing.assert_allclose(lams, [3.0, 3.0])

    def test_disconnected_raises(self):
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        ns = NetworkSystem(
            laplacian=laplacian_from_graph(g), leaders=(0,), dyn=single_integrator()
        )
        with pytest.raises(Disconnected):
            aux_systems(ns)


class TestSynchronization:
    def test_single_integrator_connected(self):
        assert is_synchronized(_k2_single_integrator())

    def test_unstable_decoupled_agent(self):
        lap = laplacian_from_graph(path_graph(2))
        dyn = AgentDynamics(A=[[1.0]], B=[[0.0]], E=[[1.0]])
        assert not is_synchronized(NetworkSystem(laplacian=lap, leaders=(0,), dyn=dyn))

    def test_disconnected_checks_nonzero_spectrum_only(self):
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        ns = NetworkSystem(
            laplacian=laplacian_from_graph(g), leaders=(0,), dyn=single_integrator()
        )
        assert is_synchronized(ns)

    def test_singleton_partition_matches_full_check(self):
        ns = _k2_single_integrator()
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        assert reduced_synchronization_preserved(ns, pi) == is_synchronized(ns)

    def test_aep_partitions_preserve_synchronization(self):
        for seed in range(30):
            rng = np.random.default_rng(700 + seed)
            kind = ("single", "symmetric", "dissipative")[seed % 3]
            ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, kind))
            assert is_synchronized(ns)
            assert reduced_synchronization_preserved(ns, pi)

    def test_non_aep_counterexample_loses_synchronization(self):
        # weighted 3-path with couplings 0.9: spectrum {0, 0.9, 2.7}; the
        # quotient of {{0,1},{2}} has eigenvalue 1.35, inside the instability
        # window (1, 2) of det(A - lam B) = (lam - 1)(lam - 2)
        graph = WeightedGraph(n_nodes=3, edges=((0, 1, 0.9), (1, 2, 0.9)))
        dyn = AgentDynamics(A=[[-1.0, 1.0], [-2.0, 0.0]], B=[[0.0, 1.0], [-1.0, 0.0]], E=[[1.0], [0.0]])
        ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=(0,), dyn=dyn)
        pi = Partition(n_nodes=3, cells=((0, 1), (2,)))
        assert is_synchronized(ns)
        assert not reduced_synchronization_preserved(ns, pi)


class TestMarginalSubspaceDimension:
    def test_reduced_marginal_dimension_matches_agent(self):
        # agent with a one-dimensional marginal subspace; AEP reduction keeps it
        rng = np.random.default_rng(5)
        dyn = AgentDynamics(A=np.diag([0.0, -1.0]), B=np.eye(2), E=np.eye(2))
        ns, pi = random_aep_instance(rng, dynamics=dyn)
        assert is_synchronized(ns)
        red = modal_form(*assemble_reduced(ns, pi))
        assert red.unstable.sum() == 1


def _structured_cases():
    """``pytest.param(network, partition, id=label)``: real diagonal and block forms,
    unstable blocks, and n x n blocks with both stable and masked states or masked whole."""
    cases = []
    for kind in ("symmetric", "dissipative", "single"):
        rng = np.random.default_rng({"symmetric": 31, "dissipative": 32, "single": 33}[kind])
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, kind, n=3, r=2))
        cases.append(pytest.param(ns, pi, id=f"{kind}-aep"))
    rng = np.random.default_rng(34)
    ns, pi = random_general_instance(rng, dynamics=single_integrator())
    cases.append(pytest.param(ns, pi, id="single-general"))
    # the quotient eigenvalue 1.35 leaves A - lam B unstable (the counterexample of
    # test_non_aep_counterexample_loses_synchronization); with a scalar A = 0.5 the
    # blocks at the eigenvalues below 0.5 of a unit path are unstable
    graph = WeightedGraph(n_nodes=3, edges=((0, 1, 0.9), (1, 2, 0.9)))
    dyn = AgentDynamics(A=[[-1.0, 1.0], [-2.0, 0.0]], B=[[0.0, 1.0], [-1.0, 0.0]], E=[[1.0], [0.0]])
    ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=(0,), dyn=dyn)
    cases.append(pytest.param(ns, Partition(n_nodes=3, cells=((0, 1), (2,))), id="unstable-reduced"))
    dyn = AgentDynamics(A=[[0.5]], B=[[1.0]], E=[[1.0]])
    ns = NetworkSystem(laplacian=laplacian_from_graph(path_graph(5)), leaders=(0,), dyn=dyn)
    cases.append(pytest.param(ns, Partition(n_nodes=5, cells=PATH5_CELLS), id="unstable-full"))
    # a nonsymmetric agent with a marginal mode: the block at lam = 0 is partly unstable
    dyn = AgentDynamics(A=[[0.0, 1.0], [0.0, -1.0]], B=[[1.0, 0.3], [-0.3, 1.0]], E=[[0.0], [1.0]])
    rng = np.random.default_rng(37)
    cases.append(pytest.param(*random_aep_instance(rng, dynamics=dyn), id="marginal-aep"))
    cases.append(pytest.param(*random_general_instance(rng, dynamics=dyn), id="marginal-general"))
    # an oscillator: A - lam B is Hurwitz for every lam > 0, and both states of the block
    # at lam = 0 have Re = 0, so the whole 2 x 2 block is masked
    dyn = AgentDynamics(A=[[0.0, 1.0], [-1.0, 0.0]], B=np.eye(2), E=[[0.0], [1.0]])
    for label, instance in (("aep", random_aep_instance), ("general", random_general_instance)):
        ns, pi = instance(np.random.default_rng(39), dynamics=dyn)
        cases.append(pytest.param(ns, pi, id=f"oscillator-{label}"))
    # one cell: the reduced stack is the symmetric A alone, the full stack is nonsymmetric
    dyn = AgentDynamics(A=-np.eye(2), B=[[1.0, 0.3], [-0.3, 1.0]], E=[[1.0], [0.5]])
    ns = NetworkSystem(laplacian=laplacian_from_graph(path_graph(4)), leaders=(0,), dyn=dyn)
    cases.append(pytest.param(ns, Partition(n_nodes=4, cells=((0, 1, 2, 3),)), id="one-cell"))
    return cases


def _realizations(ns, pi):
    """name -> (modal realization, its dense oracle, its modal basis Z, its output
    rotation Q or None): the dense oracle is (Q C Z, Z^H A Z, Z^H B) away from it."""
    an = Analysis(ns, pi)
    z_full, z_red = modal_basis(an.full_modes), modal_basis(an.reduced_modes)
    z_err, q = scipy.linalg.block_diag(z_full, z_red), z_full.conj().T
    systems = {
        "full": (an.full_system, dense_full(ns), z_full, q),
        "error": (an.error_system, dense_error(ns, pi), z_err, q),
    }
    if ns.dyn.is_single_integrator() or an.not_aep:
        (term1, term3), (dense1, dense3) = an.triangle_systems, dense_triangle_terms(an)
        systems["term1"] = (term1, dense1, z_full, None)
        systems["term3"] = (term3, dense3, z_red, None)
    return systems


def _norm_or_refusal(route, sys):
    try:
        return route(sys).value
    except UnstablePoles:
        return "UnstablePoles"


def _assert_matches_dense_route(sys, dense):
    oracle = dense_route(dense)
    for route in (h2_norm, hinf_norm_sweep, h2_norm_quadrature):
        got, want = _norm_or_refusal(route, sys), _norm_or_refusal(route, oracle)
        if isinstance(want, str):
            assert got == want, route.__name__
        else:
            # the absolute floor only matters for exactly-zero error systems
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=route.__name__)


class TestStructuredSchurForm:
    """The modal forms assembled from the Laplacian eigenbasis against the dense
    Kronecker realizations (``support.dense_full`` ...) and one dense complex Schur form
    of their whole drift (``support.dense_route``)."""

    @pytest.mark.parametrize("ns,pi", _structured_cases())
    def test_form_is_a_sorted_schur_form_of_the_drift(self, ns, pi):
        for name, (sys, dense, z, q) in _realizations(ns, pi).items():
            size = sys.n_states
            t = scipy.linalg.block_diag(*sys.t)
            scale = 1 + np.abs(dense.A).max()
            assert z.shape == t.shape == (size, size), name
            assert np.abs(z @ t @ z.conj().T - dense.A).max() <= 1e-12 * scale, name
            assert np.abs(z.conj().T @ z - np.eye(size)).max() <= 1e-12, name
            assert not np.tril(t, -1).any(), name
            assert np.abs(z.conj().T @ dense.B - sys.B).max() <= 1e-12 * (1 + np.abs(dense.B).max())
            c = dense.C @ z if q is None else q @ dense.C @ z
            c_scale = 1 + np.abs(dense.C).max()
            assert np.abs(c - modal_dense(sys)[2]).max() <= 1e-12 * c_scale, name
            poles = np.diagonal(t)
            assert sys.unstable.sum() == dense_schur(dense.A)[2], name
            assert (poles[sys.unstable].real >= -STABILITY_MARGIN).all(), name
            assert (poles[~sys.unstable].real < -STABILITY_MARGIN).all(), name

    @pytest.mark.parametrize("ns,pi", _structured_cases())
    def test_norms_match_dense_route(self, ns, pi):
        for sys, dense, _, _ in _realizations(ns, pi).values():
            _assert_matches_dense_route(sys, dense)

    def test_symmetric_agents_give_a_real_diagonal_form(self):
        rng = np.random.default_rng(35)
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "symmetric", n=3))
        for sys in (assemble_full(ns), Analysis(ns, pi).error_system):
            assert sys.poles is not None and np.isrealobj(sys.poles)
            assert np.isrealobj(sys.B) and np.isrealobj(sys.C)

    def test_norms_match_dense_route_at_320_nodes(self):
        rng = np.random.default_rng(36)
        graph = random_connected_graph(rng, 320, extra_edge_prob=0.02)
        pi = random_partition(rng, 320, 40)
        ns = NetworkSystem(laplacian_from_graph(graph), (3, 150, 299), single_integrator())
        an = Analysis(ns, pi)
        assert an.not_aep
        systems = (an.error_system, *an.triangle_systems)
        for sys, dense in zip(systems, (dense_error(ns, pi), *dense_triangle_terms(an))):
            _assert_matches_dense_route(sys, dense)


@pytest.mark.parametrize("name, aep", [("random-general", False), ("random-aep", True)])
def test_analyze_factors_each_coupling_once(tmp_path, monkeypatch, name, aep):
    # N blocks A - lam B for L and k for l_bar: the error system and the triangle route's
    # outer terms reuse the full and reduced modes instead of factoring their couplings
    payload = generate_example(name, seed=1)
    path, out = tmp_path / "net.json", tmp_path / "report.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    sorted_schur, blocks = netsys.sorted_schur, []

    def counted(a):
        blocks.append(len(a))
        return sorted_schur(a)

    monkeypatch.setattr(netsys, "sorted_schur", counted)
    assert main(["analyze", str(path), "--triangle", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["analysis"]["aep"] is aep
    assert (report["bounds"]["triangle_h2_bound"] is None) is aep
    assert sum(blocks) == payload["n_nodes"] + len(payload["partition"])
