import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netred.errors import InvalidPartition, NegativeWeight
from netred.generators import (
    complete_graph,
    lift_aep_graph,
    path_graph,
    random_connected_graph,
    random_partition,
)
from netred.graphcore import (
    Laplacian,
    Partition,
    WeightedGraph,
    has_negative_weights,
    is_almost_equitable,
    is_connected,
    laplacian_from_graph,
    leader_selector,
    project_to_aep_laplacian,
    reduce_graph,
)

from .support import (
    PATH5_AEP_PROJECTION,
    PATH5_CELLS,
    PATH5_LAPLACIAN,
    NodeInCell,
    aep_by_degree_constancy,
    degree_wrt_cell,
)


INDICES = st.one_of(st.integers(-1, 5), st.sampled_from([0.0, 1.0, 0.5, np.nan, np.inf, True]))
WEIGHTS = st.one_of(st.floats(), st.integers(-2, 2), st.sampled_from([-0.0, np.inf, -np.inf]))


@pytest.fixture()
def path5():
    graph = path_graph(5)
    return graph, laplacian_from_graph(graph), Partition(n_nodes=5, cells=PATH5_CELLS)


class TestGraphValidation:
    def test_rejects_negative_weight(self):
        with pytest.raises(NegativeWeight):
            WeightedGraph(n_nodes=2, edges=((0, 1, -1.0),))

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            WeightedGraph(n_nodes=2, edges=((0, 0, 1.0),))
        with pytest.raises(ValueError):
            WeightedGraph(n_nodes=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            (((0, 1, 1.0), (0, 2, 1.0)), ValueError, "edge 1 = (0, 2) out of range for 2 nodes"),
            (((-1, 1, 1.0),), ValueError, "edge 0 = (-1, 1) out of range for 2 nodes"),
            (((1, 1, 1.0),), ValueError, "edge 0 is a self-loop on node 1"),
            (((1, 0, 1.0), (0, 1, -2.0)), ValueError, "edge 1 duplicates the pair (0, 1)"),
            (((0, 1, -0.5),), NegativeWeight, "edge 0 = (0, 1) has negative weight -0.5"),
            (((0, 1, -np.inf),), NegativeWeight, "edge 0 = (0, 1) has negative weight -inf"),
            (((0, 1, np.nan),), ValueError, "edge 0 = (0, 1) has non-finite weight nan"),
            (((0, 1, 1.0), (1, 0, np.inf)), ValueError, "edge 1 duplicates the pair (0, 1)"),
            (((0, 1, np.inf),), ValueError, "edge 0 = (0, 1) has non-finite weight inf"),
            (((0.7, 1, 1.0),), ValueError, "edge 0 = (0.7, 1) has a non-integer node index"),
            (((0, True, 1.0),), ValueError, "edge 0 = (0, True) has a non-integer node index"),
            (((0, np.nan, 1.0),), ValueError, "edge 0 = (0, nan) has a non-integer node index"),
            (((0, np.inf, 1.0),), ValueError, "edge 0 = (0, inf) has a non-integer node index"),
            (((10**400, 1, 1.0),), ValueError, f"edge 0 = ({10**400}, 1) out of range for 2 nodes"),
        ],
    )
    def test_names_the_first_failing_edge(self, edges, error, message):
        with pytest.raises(error) as err:
            WeightedGraph(n_nodes=2, edges=edges)
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        n_nodes=st.integers(1, 5),
        edges=st.lists(st.tuples(INDICES, INDICES, WEIGHTS), max_size=8),
    )
    def test_whole_array_check_refuses_what_the_scan_refuses(self, n_nodes, edges):
        try:
            WeightedGraph(n_nodes, ())._refuse(edges)
            expected = None
        except (ValueError, NegativeWeight) as exc:
            expected = (type(exc), str(exc))
        if expected is None:
            graph = WeightedGraph(n_nodes, edges)
            assert graph.edges == tuple((int(i), int(j), float(w)) for i, j, w in edges)
            assert graph._pairs(np.array(edges, float).reshape(-1, 3)) is not None
        else:
            with pytest.raises((ValueError, NegativeWeight)) as err:
                WeightedGraph(n_nodes, edges)
            assert (type(err.value), str(err.value)) == expected

    def test_array_edges_are_kept_as_int_int_float_triples(self):
        g = WeightedGraph(n_nodes=3, edges=np.array([[2.0, 0.0, 1.5], [0.0, 1.0, 2.0]]))
        assert g.edges == ((2, 0, 1.5), (0, 1, 2.0))
        assert [type(v) for v in g.edges[0]] == [int, int, float]
        np.testing.assert_array_equal(
            g.adjacency_matrix(), [[0.0, 2.0, 1.5], [2.0, 0.0, 0.0], [1.5, 0.0, 0.0]]
        )


class TestLaplacianFromGraph:
    def test_k2(self):
        lap = laplacian_from_graph(path_graph(2))
        np.testing.assert_array_equal(lap.mat, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path5_matches_reference(self):
        lap = laplacian_from_graph(path_graph(5))
        np.testing.assert_array_equal(lap.mat, PATH5_LAPLACIAN)

    def test_empty_edge_set(self):
        lap = laplacian_from_graph(WeightedGraph(n_nodes=3, edges=()))
        np.testing.assert_array_equal(lap.mat, np.zeros((3, 3)))

    def test_laplacian_type_rejects_row_sums_and_indefinite(self):
        with pytest.raises(ValueError, match="row sums"):
            Laplacian(np.eye(2))
        # zero row sums and eigenvalue -2: the check reads the smallest eigenvalue computed,
        # before it is stored as the exact consensus eigenvalue 0
        with pytest.raises(ValueError, match="Laplacian is not positive semi-definite"):
            Laplacian([[-1.0, 1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_laplacian_type_rejects_non_finite_entries(self, value):
        # NaN compares False, so the symmetry, row-sum and PSD checks alone let it through
        with pytest.raises(ValueError, match="non-finite"):
            Laplacian([[value, -value], [-value, value]])


class TestIsConnected:
    def test_path5(self, path5):
        _, lap, _ = path5
        assert is_connected(lap)

    def test_two_components(self):
        g = WeightedGraph(n_nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        assert not is_connected(laplacian_from_graph(g))

    def test_single_node(self):
        assert is_connected(laplacian_from_graph(WeightedGraph(n_nodes=1, edges=())))


class TestDegreeWrtCell:
    def test_path5_adjacent_cell(self, path5):
        graph, _, _ = path5
        assert degree_wrt_cell(graph, 2, (3, 4)) == 1.0

    def test_path5_far_node(self, path5):
        graph, _, _ = path5
        assert degree_wrt_cell(graph, 0, (3, 4)) == 0.0

    def test_isolated_node(self):
        g = WeightedGraph(n_nodes=3, edges=((0, 1, 1.0),))
        assert degree_wrt_cell(g, 2, (0, 1)) == 0.0

    def test_node_in_cell_raises(self, path5):
        graph, _, _ = path5
        with pytest.raises(NodeInCell):
            degree_wrt_cell(graph, 3, (3, 4))


class TestPartition:
    def test_projector_idempotent(self, path5):
        _, _, pi = path5
        proj = pi.projector
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert np.abs(proj @ pi.char_matrix - pi.char_matrix).max() <= 1e-10

    def test_char_matrix_column_sums(self, path5):
        _, _, pi = path5
        np.testing.assert_array_equal(pi.char_matrix.sum(axis=0), [3.0, 2.0])

    def test_rejects_overlap_naming_node(self):
        with pytest.raises(InvalidPartition) as err:
            Partition(n_nodes=3, cells=((0, 1), (1, 2)))
        assert err.value.node == 1

    def test_rejects_missing_node(self):
        with pytest.raises(InvalidPartition) as err:
            Partition(n_nodes=3, cells=((0, 1),))
        assert err.value.node == 2

    def test_missing_node_search_does_not_grow_with_n_nodes(self):
        # a set of every node would take terabytes here
        with pytest.raises(InvalidPartition) as err:
            Partition(n_nodes=10**12, cells=((0,),))
        assert err.value.node == 1

    def test_rejects_empty_cell(self):
        with pytest.raises(InvalidPartition):
            Partition(n_nodes=2, cells=((0, 1), ()))


class TestIsAlmostEquitable:
    def test_singleton_partition_always(self, path5):
        _, lap, _ = path5
        pi = Partition(n_nodes=5, cells=tuple((i,) for i in range(5)))
        assert is_almost_equitable(lap, pi)

    def test_one_cell_partition_always(self, path5):
        _, lap, _ = path5
        pi = Partition(n_nodes=5, cells=(tuple(range(5)),))
        assert is_almost_equitable(lap, pi)

    def test_path5_clusters_not_aep(self, path5):
        _, lap, pi = path5
        # degrees from cluster {3,4} into nodes 0,1,2 are 0,0,1: not constant
        assert not is_almost_equitable(lap, pi)

    def test_matches_degree_constancy_on_random_pairs(self):
        agree = 0
        for seed in range(200):
            rng = np.random.default_rng(300 + seed)
            if seed % 3 == 0:
                graph, pi = lift_aep_graph(rng, [int(s) for s in rng.integers(1, 4, size=3)])
            else:
                n = int(rng.integers(3, 10))
                graph = random_connected_graph(rng, n)
                pi = random_partition(rng, n, int(rng.integers(2, n + 1)))
            lap = laplacian_from_graph(graph)
            assert is_almost_equitable(lap, pi) == aep_by_degree_constancy(graph, pi)
            agree += 1
        assert agree == 200


class TestReduceGraph:
    def test_singleton_partition_is_identity(self, path5):
        _, lap, _ = path5
        pi = Partition(n_nodes=5, cells=tuple((i,) for i in range(5)))
        rg = reduce_graph(lap, pi, leaders=(0, 3))
        np.testing.assert_allclose(rg.laplacian_hat, lap.mat, atol=1e-12)
        np.testing.assert_allclose(rg.m_hat, leader_selector(5, (0, 3)), atol=1e-12)

    def test_k3_quotient(self):
        lap = laplacian_from_graph(complete_graph(3))
        pi = Partition(n_nodes=3, cells=((0,), (1, 2)))
        rg = reduce_graph(lap, pi, leaders=(0,))
        np.testing.assert_allclose(rg.laplacian_hat, [[2.0, -2.0], [-1.0, 1.0]], atol=1e-12)

    def test_path5_m_hat(self, path5):
        _, lap, pi = path5
        rg = reduce_graph(lap, pi, leaders=(0,))
        np.testing.assert_allclose(rg.m_hat, [[1.0 / 3.0], [0.0]], atol=1e-15)

    def test_row_sums_zero_even_non_aep(self):
        for seed in range(50):
            rng = np.random.default_rng(500 + seed)
            n = int(rng.integers(3, 12))
            graph = random_connected_graph(rng, n)
            lap = laplacian_from_graph(graph)
            pi = random_partition(rng, n, int(rng.integers(2, n + 1)))
            rg = reduce_graph(lap, pi, leaders=(0,))
            assert np.abs(rg.laplacian_hat.sum(axis=1)).max() <= 1e-10

    def test_adjacency_consistent_with_laplacian(self):
        rng = np.random.default_rng(7)
        graph = random_connected_graph(rng, 8)
        lap = laplacian_from_graph(graph)
        pi = random_partition(rng, 8, 3)
        rg = reduce_graph(lap, pi, leaders=(1,))
        rebuilt = np.diag(rg.adjacency_hat.sum(axis=1)) - rg.adjacency_hat
        assert np.abs(rebuilt - rg.laplacian_hat).max() <= 1e-10

    def test_adjacency_matches_definitional_degree_sum(self):
        rng = np.random.default_rng(8)
        graph = random_connected_graph(rng, 7)
        lap = laplacian_from_graph(graph)
        pi = random_partition(rng, 7, 3)
        rg = reduce_graph(lap, pi, leaders=(0,))
        for p, cell_p in enumerate(pi.cells):
            for q, cell_q in enumerate(pi.cells):
                if p == q:
                    continue
                expected = sum(
                    degree_wrt_cell(graph, j, cell_p) for j in cell_q
                ) / len(cell_p)
                assert rg.adjacency_hat[p, q] == pytest.approx(expected, abs=1e-10)

    def test_aep_intertwining_and_spectrum_containment(self):
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 6)))]
            graph, pi = lift_aep_graph(rng, sizes)
            lap = laplacian_from_graph(graph)
            assert is_almost_equitable(lap, pi)
            rg = reduce_graph(lap, pi, leaders=(0,))
            p = pi.char_matrix
            assert np.abs(lap.mat @ p - p @ rg.laplacian_hat).max() <= 1e-9
            lams = np.sort(np.linalg.eigvals(rg.laplacian_hat).real)
            full = np.sort(lap.spectral.eigenvalues)
            for lam in lams:
                assert np.abs(full - lam).min() <= 1e-7 * (1 + full.max())


class TestProjectToAepLaplacian:
    def test_aep_partition_is_fixed(self):
        rng = np.random.default_rng(11)
        graph, pi = lift_aep_graph(rng, [2, 3, 1])
        lap = laplacian_from_graph(graph)
        l_aep, delta = project_to_aep_laplacian(lap, pi)
        assert delta <= 1e-12
        assert np.abs(l_aep - lap.mat).max() <= 1e-12

    def test_path5_matches_reference_projection(self, path5):
        _, lap, pi = path5
        l_aep, delta = project_to_aep_laplacian(lap, pi)
        assert np.abs(l_aep - PATH5_AEP_PROJECTION).max() <= 1e-12
        assert has_negative_weights(l_aep)  # entry (2, 4) is positive off-diagonal
        assert delta == pytest.approx(np.linalg.norm(lap.mat - PATH5_AEP_PROJECTION, "fro"))

    def test_projection_is_idempotent(self, path5):
        _, lap, pi = path5
        l_aep, _ = project_to_aep_laplacian(lap, pi)
        l_again, delta = project_to_aep_laplacian(Laplacian(l_aep), pi)
        assert delta <= 1e-12
        assert np.abs(l_again - l_aep).max() <= 1e-12

    def test_connected_input_keeps_simple_kernel(self, path5):
        _, lap, pi = path5
        l_aep, _ = project_to_aep_laplacian(lap, pi)
        eig = np.linalg.eigvalsh(l_aep)
        assert abs(eig[0]) <= 1e-10
        assert eig[1] > 1e-9

    def test_result_is_aep_and_optimal_among_feasible_points(self, path5):
        _, lap, pi = path5
        l_aep, delta = project_to_aep_laplacian(lap, pi)
        assert is_almost_equitable(Laplacian(l_aep), pi)
        rng = np.random.default_rng(13)
        proj = pi.projector
        comp = np.eye(5) - proj
        center = np.eye(5) - np.ones((5, 5)) / 5.0
        for _ in range(50):
            g = rng.normal(size=(5, 5))
            s = center @ (g @ g.T) @ center  # PSD with zero row sums
            h = rng.normal(size=(5, 5))
            t = h @ h.T
            x = proj @ s @ proj + comp @ t @ comp
            assert np.linalg.norm(lap.mat - x, "fro") >= delta - 1e-12
