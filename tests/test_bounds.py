import numpy as np
import pytest

from netred.bounds import (
    PRECONDITIONS,
    Analysis,
    Tolerances,
    cellmate_terms,
    full_report,
    h2_bound_aep,
    hinf_bound_symmetric,
    hinf_error_single_integrator,
    leader_spread,
    leaders_share_cell,
    triangle_bound_general,
)
from netred.errors import (
    Disconnected,
    NotAEP,
    NotSingleIntegrator,
    NotSymmetricDynamics,
    NotSynchronized,
)
from netred.generators import (
    complete_graph,
    path_graph,
    random_aep_instance,
    single_integrator,
)
from netred.graphcore import Partition, WeightedGraph, laplacian_from_graph
from netred.netsys import AgentDynamics, NetworkSystem, assemble_error_system, is_synchronized
from netred.norms import h2_norm, hinf_norm_dc, hinf_norm_sweep

from .support import PATH5_AEP_PROJECTION, PATH5_LAPLACIAN, make_dynamics


def _k3(leaders=(0,)):
    lap = laplacian_from_graph(complete_graph(3))
    return (
        NetworkSystem(laplacian=lap, leaders=leaders, dyn=single_integrator()),
        Partition(n_nodes=3, cells=((0,), (1, 2))),
    )


def _path5(leaders=(0,)):
    lap = laplacian_from_graph(path_graph(5))
    return (
        NetworkSystem(laplacian=lap, leaders=leaders, dyn=single_integrator()),
        Partition(n_nodes=5, cells=((0, 1, 2), (3, 4))),
    )


class TestLostEigenvalues:
    def test_spectrum_splits_into_reduced_and_lost(self, aep_h2_corpus):
        # sigma(L) = sigma(L_hat) + lost, as multisets, on every AEP instance
        for rec in aep_h2_corpus:
            an = Analysis(rec["ns"], rec["pi"])
            lams = rec["ns"].laplacian.spectral.eigenvalues
            joined = np.sort(np.concatenate([an.reduced_eigenvalues, an.lost_eigenvalues]))
            assert np.abs(joined - lams).max() <= 1e-9 * (1.0 + lams.max()), rec["seed"]

    def test_k3_loses_one_of_its_double_eigenvalues(self):
        # sigma(L) = {0, 3, 3}, sigma(L_hat) = {0, 3}
        an = Analysis(*_k3())
        np.testing.assert_allclose(an.lost_eigenvalues, [3.0], atol=1e-12)


class TestCellmateBookkeeping:
    def test_terms(self):
        _, pi = _path5()
        assert cellmate_terms(pi, (0,)) == (1.0 - 1.0 / 3.0,)
        assert cellmate_terms(pi, (3, 4)) == (0.5, 0.5)

    def test_share_cell(self):
        _, pi = _path5()
        assert leaders_share_cell(pi, (3, 4))
        assert not leaders_share_cell(pi, (0, 3))

    def test_leader_spread(self):
        assert leader_spread(0, 5) == 0.0
        assert leader_spread(1, 5) == pytest.approx(0.8)
        assert leader_spread(3, 5) == 1.0


class TestH2BoundAep:
    def test_k3_leader_alone_bound_zero_and_true_error_tiny(self):
        ns, pi = _k3()
        abs_bound, rel_bound = h2_bound_aep(Analysis(ns, pi))
        assert abs_bound == 0.0 and rel_bound == 0.0
        assert h2_norm(assemble_error_system(ns, pi)).value <= 1e-8

    def test_singleton_partition_bound_zero(self):
        ns, _ = _k3()
        pi = Partition(n_nodes=3, cells=((0,), (1,), (2,)))
        assert h2_bound_aep(Analysis(ns, pi)) == (0.0, 0.0)

    def test_preconditions(self):
        ns, pi = _path5()
        with pytest.raises(NotAEP):
            h2_bound_aep(Analysis(ns, pi))
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        ns2 = NetworkSystem(
            laplacian=laplacian_from_graph(g), leaders=(0,), dyn=single_integrator()
        )
        pi2 = Partition(n_nodes=4, cells=((0, 1), (2, 3)))
        with pytest.raises(Disconnected):
            h2_bound_aep(Analysis(ns2, pi2))
        lap = laplacian_from_graph(path_graph(2))
        bad = NetworkSystem(
            laplacian=lap, leaders=(0,), dyn=AgentDynamics(A=[[1.0]], B=[[0.0]], E=[[1.0]])
        )
        with pytest.raises(NotSynchronized):
            h2_bound_aep(Analysis(bad, Partition(n_nodes=2, cells=((0,), (1,)))))

    def test_soundness_on_sample(self):
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            kind = ("single", "symmetric", "dissipative")[seed % 3]
            ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, kind))
            abs_bound, _ = h2_bound_aep(Analysis(ns, pi))
            true_err = h2_norm(assemble_error_system(ns, pi)).value
            assert true_err <= abs_bound * (1 + 1e-7) + 1e-10


class TestHinfSingleIntegrator:
    def test_two_leaders_sharing_cell(self):
        ns, pi = _k3(leaders=(1, 2))
        assert hinf_error_single_integrator(Analysis(ns, pi)) == 1.0

    def test_leaders_alone(self):
        lap = laplacian_from_graph(complete_graph(4))
        ns = NetworkSystem(laplacian=lap, leaders=(0, 1), dyn=single_integrator())
        pi = Partition(n_nodes=4, cells=((0,), (1,), (2, 3)))
        assert hinf_error_single_integrator(Analysis(ns, pi)) == 0.0

    def test_k3_cross_checked_by_oracles(self):
        ns, pi = _k3()
        exact = hinf_error_single_integrator(Analysis(ns, pi))
        assert exact == 0.0
        err = assemble_error_system(ns, pi)
        assert hinf_norm_sweep(err).value <= 1e-5
        dc = hinf_norm_dc(err, -ns.laplacian.mat)
        assert abs(dc.value - exact) <= 1e-9

    def test_nontrivial_value_matches_dc(self):
        lap = laplacian_from_graph(complete_graph(4))
        ns = NetworkSystem(laplacian=lap, leaders=(2,), dyn=single_integrator())
        pi = Partition(n_nodes=4, cells=((0,), (1,), (2, 3)))
        exact = hinf_error_single_integrator(Analysis(ns, pi))
        assert exact == pytest.approx(np.sqrt(0.5), abs=1e-12)
        dc = hinf_norm_dc(assemble_error_system(ns, pi), -lap.mat)
        assert abs(dc.value - exact) <= 1e-9

    def test_requires_single_integrator(self):
        ns, pi = _k3()
        fat = NetworkSystem(
            laplacian=ns.laplacian,
            leaders=ns.leaders,
            dyn=AgentDynamics(A=[[0.0]], B=[[2.0]], E=[[1.0]]),
        )
        with pytest.raises(NotSingleIntegrator):
            hinf_error_single_integrator(Analysis(fat, pi))

    def test_matches_dc_closed_form_on_corpus(self, single_int_aep_corpus):
        for rec in single_int_aep_corpus:
            ns, pi = rec["ns"], rec["pi"]
            dc = hinf_norm_dc(assemble_error_system(ns, pi), -ns.laplacian.mat)
            assert abs(dc.value - rec["exact"]) <= 1e-9, rec["seed"]


class TestHinfBoundSymmetric:
    def test_single_integrator_specialization_matches_exact(self):
        for leaders in ((0,), (1, 2), (0, 1)):
            ns, pi = _k3(leaders=leaders)
            abs_bound, _ = hinf_bound_symmetric(Analysis(ns, pi))
            exact = hinf_error_single_integrator(Analysis(ns, pi))
            assert abs(abs_bound - exact) <= 1e-9

    def test_leaders_alone_bound_zero(self):
        lap = laplacian_from_graph(complete_graph(4))
        rng = np.random.default_rng(0)
        dyn = make_dynamics(rng, "symmetric", n=2)
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=dyn)
        pi = Partition(n_nodes=4, cells=((0,), (1,), (2, 3)))
        abs_bound, rel_bound = hinf_bound_symmetric(Analysis(ns, pi))
        assert abs_bound == 0.0 and rel_bound == 0.0

    def test_rejects_nonsymmetric_dynamics(self):
        ns, pi = _k3()
        skew = AgentDynamics(
            A=[[-1.0, 1.0], [-1.0, -1.0]], B=np.eye(2), E=np.ones((2, 1))
        )
        bad = NetworkSystem(laplacian=ns.laplacian, leaders=(0,), dyn=skew)
        with pytest.raises(NotSymmetricDynamics):
            hinf_bound_symmetric(Analysis(bad, pi))

    def test_soundness_on_sample(self, symmetric_hinf_corpus):
        for rec in symmetric_hinf_corpus[:15]:
            true_err = hinf_norm_sweep(assemble_error_system(rec["ns"], rec["pi"])).value
            assert true_err <= rec["abs_bound"] * (1 + 1e-6) + 1e-10


class TestTriangleBound:
    def test_aep_partition_collapses_to_middle_term(self):
        ns, pi = _k3()
        for norm in ("h2", "hinf"):
            total, (t1, t2, t3) = triangle_bound_general(Analysis(ns, pi), norm)
            assert t1 <= 1e-10 and t3 <= 1e-10
            reference = (
                h2_bound_aep(Analysis(ns, pi))[0]
                if norm == "h2"
                else hinf_error_single_integrator(Analysis(ns, pi))
            )
            assert abs(total - reference) <= 1e-9

    def test_path5_bounds_dominate_true_errors(self):
        ns, pi = _path5()
        err = assemble_error_system(ns, pi)
        total_h2, _ = triangle_bound_general(Analysis(ns, pi), "h2")
        total_hinf, _ = triangle_bound_general(Analysis(ns, pi), "hinf")
        assert h2_norm(err).value <= total_h2
        assert hinf_norm_sweep(err).value <= total_hinf

    def test_path5_delta_matches_reference_matrices(self):
        ns, pi = _path5()
        from netred.graphcore import project_to_aep_laplacian

        _, delta = project_to_aep_laplacian(ns.laplacian, pi)
        reference = np.linalg.norm(PATH5_LAPLACIAN - PATH5_AEP_PROJECTION, "fro")
        assert abs(delta - reference) <= 1e-12

    def test_requires_single_integrator(self):
        ns, pi = _path5()
        rng = np.random.default_rng(1)
        fat = NetworkSystem(
            laplacian=ns.laplacian, leaders=(0,), dyn=make_dynamics(rng, "symmetric", n=2)
        )
        with pytest.raises(NotSingleIntegrator):
            triangle_bound_general(Analysis(fat, pi), "h2")

    def test_rejects_unknown_norm(self):
        ns, pi = _path5()
        with pytest.raises(ValueError):
            triangle_bound_general(Analysis(ns, pi), "h1")


class TestFullReport:
    def test_aep_single_integrator_all_bounds_present(self):
        ns, pi = _k3()
        rep = full_report(Analysis(ns, pi))
        assert rep.aep and rep.synchronized and rep.connected
        assert rep.abs_h2_bound == 0.0
        assert rep.hinf_exact_error == 0.0
        assert rep.true_h2_error.value <= rep.abs_h2_bound + 1e-8
        assert rep.true_hinf_error.value <= 1e-5
        assert rep.triangle_h2_bound is None

    def test_non_aep_gating(self):
        ns, pi = _path5()
        rep = full_report(Analysis(ns, pi))
        assert not rep.aep
        assert rep.triangle_h2_bound is not None
        assert rep.triangle_hinf_bound is not None
        assert rep.unavailable["abs_h2_bound"] == "NotAEP"
        assert rep.unavailable["abs_hinf_bound"] == "NotAEP"
        assert rep.true_h2_error is not None

    def test_non_aep_multivariable_gating(self):
        lap = laplacian_from_graph(path_graph(5))
        rng = np.random.default_rng(2)
        ns = NetworkSystem(
            laplacian=lap, leaders=(0,), dyn=make_dynamics(rng, "symmetric", n=2)
        )
        pi = Partition(n_nodes=5, cells=((0, 1, 2), (3, 4)))
        rep = full_report(Analysis(ns, pi))
        assert rep.unavailable["triangle_h2_bound"] == "NotSingleIntegrator"
        assert rep.unavailable["abs_h2_bound"] == "NotAEP"

    def test_one_node_network_degenerate_but_valid(self):
        lap = laplacian_from_graph(WeightedGraph(n_nodes=1, edges=()))
        ns = NetworkSystem(laplacian=lap, leaders=(0,), dyn=single_integrator())
        pi = Partition(n_nodes=1, cells=((0,),))
        rep = full_report(Analysis(ns, pi))
        assert rep.abs_h2_bound == 0.0
        assert rep.rel_hinf_bound == 0.0
        assert rep.true_h2_error.value <= 1e-12
        assert rep.true_hinf_error.value <= 1e-12

    def test_leaderless_all_zero(self):
        lap = laplacian_from_graph(complete_graph(3))
        ns = NetworkSystem(laplacian=lap, leaders=(), dyn=single_integrator())
        pi = Partition(n_nodes=3, cells=((0,), (1, 2)))
        rep = full_report(Analysis(ns, pi))
        assert rep.abs_h2_bound == 0.0 and rep.abs_hinf_bound == 0.0
        assert rep.true_h2_error.value == 0.0
        assert rep.true_hinf_error.value == 0.0

    def test_unsynchronized_refused(self):
        lap = laplacian_from_graph(path_graph(2))
        bad = NetworkSystem(
            laplacian=lap, leaders=(0,), dyn=AgentDynamics(A=[[1.0]], B=[[0.0]], E=[[1.0]])
        )
        pi = Partition(n_nodes=2, cells=((0,), (1,)))
        rep = full_report(Analysis(bad, pi))
        assert not rep.synchronized
        assert rep.abs_h2_bound is None
        assert rep.unavailable["abs_h2_bound"] == "NotSynchronized"

    def test_disconnected_refused(self):
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        ns = NetworkSystem(
            laplacian=laplacian_from_graph(g), leaders=(0,), dyn=single_integrator()
        )
        pi = Partition(n_nodes=4, cells=((0, 1), (2, 3)))
        rep = full_report(Analysis(ns, pi))
        assert rep.unavailable["abs_h2_bound"] == "Disconnected"

    def test_relative_denominator_lower_bounds(self, aep_h2_corpus):
        # the lower-bound step inside the relative H2 bound: the full norm
        # squared is at least m (1 - 1/N) times the smallest auxiliary norm
        for rec in aep_h2_corpus[:60]:
            ns, pi = rec["ns"], rec["pi"]
            _, s_min = Analysis(ns, pi).h2_constants
            m, n_agents = ns.n_leaders, ns.n_agents
            floor = m * (1.0 - 1.0 / n_agents) * s_min**2
            assert rec["h2_full"] ** 2 >= floor * (1 - 1e-9)

    def test_hinf_full_norm_lower_bound_two_leaders(self, symmetric_hinf_corpus):
        # ||S||_Hinf >= s_min when at least two leaders feed the network
        for rec in symmetric_hinf_corpus:
            ns, pi = rec["ns"], rec["pi"]
            if ns.n_leaders < 2:
                continue
            rep = full_report(Analysis(ns, pi), norms=("hinf",))
            assert rep.full_hinf_norm.value >= rep.s_min_hinf * (1 - 1e-9)


def _cycle4(dyn):
    graph = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
    ns = NetworkSystem(laplacian=laplacian_from_graph(graph), leaders=(0,), dyn=dyn)
    return ns, Partition(n_nodes=4, cells=((0, 2), (1, 3)))


class TestTolerances:
    def test_aep_rtol_reaches_the_report(self):
        graph = WeightedGraph(n_nodes=3, edges=((0, 1, 1.0), (0, 2, 1.0001), (1, 2, 1.0)))
        ns = NetworkSystem(laplacian_from_graph(graph), (0,), single_integrator())
        pi = Partition(n_nodes=3, cells=((0,), (1, 2)))
        assert not full_report(Analysis(ns, pi)).aep
        rep = full_report(Analysis(ns, pi, Tolerances(aep_rtol=1e-2)))
        assert rep.aep
        assert rep.abs_h2_bound is not None and rep.abs_hinf_bound is not None
        assert rep.triangle_h2_bound is None and rep.triangle_hinf_bound is None
        assert "abs_h2_bound" not in rep.unavailable

    def test_zero_eig_tol_marks_every_norm_field_disconnected(self):
        # lambda_2 of the unit 4-cycle is 2, below the override
        an = Analysis(*_cycle4(single_integrator()), Tolerances(zero_eig_tol=10.0))
        assert an.refusal() == "Disconnected"
        rep = full_report(an)
        assert not rep.connected
        for name in PRECONDITIONS:
            assert getattr(rep, name) is None
            assert rep.unavailable[name] == "Disconnected"

    def test_zero_eig_tol_reaches_every_nonzero_spectrum_filter(self):
        # A - lam B = 3 - lam is Hurwitz only for lam > 3: of the spectrum
        # {0, 2, 2, 4} the default keeps 2 (not Hurwitz), a tolerance of 2.5 does not
        ns, pi = _cycle4(AgentDynamics(A=[[3.0]], B=[[1.0]], E=[[1.0]]))
        assert not is_synchronized(ns)
        assert is_synchronized(ns, zero_eig_tol=2.5)
        assert not Analysis(ns, pi).synchronized
        an = Analysis(ns, pi, Tolerances(zero_eig_tol=2.5))
        assert an.synchronized
        assert an.nonzero_eigenvalues == pytest.approx([4.0])


class TestRequirements:
    def test_bound_errors_name_the_bound_and_its_requirement(self):
        ns, pi = _path5()
        with pytest.raises(NotAEP, match="the a-priori H2 bound needs an almost equitable"):
            h2_bound_aep(Analysis(ns, pi))
        # a disconnected network of non-integrators is refused for its dynamics first
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        dyn = AgentDynamics(A=[[0.0]], B=[[2.0]], E=[[1.0]])
        an = Analysis(NetworkSystem(laplacian_from_graph(g), (0,), dyn), pi=_cycle4(dyn)[1])
        with pytest.raises(NotSingleIntegrator, match="the exact H-infinity error needs single"):
            hinf_error_single_integrator(an)
        with pytest.raises(NotSingleIntegrator, match="the triangle route needs single"):
            triangle_bound_general(an, "h2")
