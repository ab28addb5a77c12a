import numpy as np
import pytest
import scipy.linalg

from netred.bounds import Analysis
from netred.errors import NotHurwitz, NotSymmetric, UnstablePoles
from netred.generators import complete_graph, path_graph, random_aep_instance, single_integrator
from netred.graphcore import Partition, laplacian_from_graph
from netred.linalg import (
    RANK_TOL,
    SCHUR_CHUNK,
    STABILITY_MARGIN,
    StateSpace,
    _psd_quadratic_trace,
    is_hurwitz,
    pinv,
    solve_lyapunov,
    solve_lyapunov_with_kernel,
    sorted_schur,
    stable_unstable_split,
    sym_eig,
    triangular_response,
)
from netred.netsys import NetworkSystem

from .support import (
    PATH5_CELLS,
    PATH5_LAPLACIAN,
    dense_gramian,
    dense_response,
    eigh_quadratic_trace,
    lyap_kron_oracle,
    make_dynamics,
    random_hurwitz,
)


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])
        u = eig.eigenvectors
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10

    def test_path5_has_simple_zero(self):
        eig = sym_eig(PATH5_LAPLACIAN)
        assert abs(eig.eigenvalues[0]) <= 1e-12
        assert eig.eigenvalues[1] > 1e-9

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 6))
        m = m + m.T
        eig = sym_eig(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(rebuilt - m).max() <= 1e-9 * (1 + np.abs(m).max())

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([0.0, 2.0])), np.diag([0.0, 0.5]), atol=1e-14)

    def test_path5_projector_identity(self):
        lap = PATH5_LAPLACIAN
        expected = np.eye(5) - np.ones((5, 5)) / 5.0
        assert np.abs(lap @ pinv(lap) - expected).max() <= 1e-10

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_moore_penrose_identities_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n))
            g = rng.normal(size=(n, rank))
            m = g @ g.T  # symmetric PSD, rank deficient
            m_plus = pinv(m)
            for lhs, rhs in (
                (m @ m_plus @ m, m),
                (m_plus @ m @ m_plus, m_plus),
                ((m @ m_plus).T, m @ m_plus),
                ((m_plus @ m).T, m_plus @ m),
            ):
                assert np.abs(lhs - rhs).max() <= 1e-8


class TestKron:
    def test_identity_block_diag(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = np.kron(np.eye(2), m)
        expected = np.block([[m, np.zeros((2, 2))], [np.zeros((2, 2)), m]])
        np.testing.assert_array_equal(out, expected)

    def test_ones_times_basis(self):
        out = np.kron(np.ones((2, 1)), np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0], [0.0], [1.0], [0.0]]))

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (rng.normal(size=(2, 2)) for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestIsHurwitz:
    def test_scalar_cases(self):
        assert is_hurwitz([[-1.0]])
        assert not is_hurwitz([[0.0]])
        # single integrator coupled at lam = 2: A - lam B = -2
        assert is_hurwitz([[0.0 - 2.0 * 1.0]])

    def test_stack_decides_like_the_per_block_loop(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 3, 5):
            stack = rng.normal(size=(40, n, n)) - 1.2 * np.eye(n)
            per_block = [is_hurwitz(block) for block in stack]
            assert any(per_block) and not all(per_block)
            for k in range(1, stack.shape[0] + 1):
                assert is_hurwitz(stack[:k]) == all(per_block[:k])
            hurwitz_blocks = stack[np.array(per_block)]
            assert is_hurwitz(hurwitz_blocks)
            for block in stack[~np.array(per_block)]:
                assert not is_hurwitz(np.concatenate([hurwitz_blocks, block[None]]))

    def test_empty_stack_is_hurwitz(self):
        assert is_hurwitz(np.zeros((0, 3, 3)))
        assert is_hurwitz(np.zeros((4, 0, 0)))

    def test_one_block_at_the_margin_decides_the_stack(self):
        rng = np.random.default_rng(41)
        stack = np.array([random_hurwitz(rng, 2) for _ in range(5)])
        at_margin = np.diag([-1.0, -STABILITY_MARGIN])
        inside = np.diag([-1.0, -2.0 * STABILITY_MARGIN])
        assert not is_hurwitz(at_margin)
        assert not is_hurwitz(np.insert(stack, 2, at_margin, axis=0))
        assert is_hurwitz(np.insert(stack, 2, inside, axis=0))

    def test_non_square_input_raises(self):
        with pytest.raises(ValueError):
            is_hurwitz(np.zeros((2, 2, 3)))


class TestSolveLyapunov:
    def test_scalar(self):
        np.testing.assert_allclose(solve_lyapunov([[-1.0]], [[1.0]]), [[0.5]])

    def test_single_integrator_gramian(self):
        lam = 3.0
        x = solve_lyapunov([[-lam]], [[lam * lam]])
        np.testing.assert_allclose(x, [[lam / 2.0]])

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        a = random_hurwitz(rng, 4)
        g = rng.normal(size=(4, 4))
        q = g @ g.T
        x = solve_lyapunov(a, q)
        residual = np.abs(a.T @ x + x @ a + q).max()
        assert residual <= 1e-8 * (1 + np.abs(q).max())
        assert np.linalg.eigvalsh(x).min() >= -1e-9

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_residual_up_to_dim_20(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_hurwitz(rng, n)
        g = rng.normal(size=(n, n))
        q = g @ g.T
        x = solve_lyapunov(a, q)
        assert np.abs(a.T @ x + x @ a + q).max() <= 1e-8 * (1 + np.abs(q).max())

    def test_matches_kron_vectorization_oracle(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            a = random_hurwitz(rng, n)
            g = rng.normal(size=(n, n))
            q = g @ g.T
            np.testing.assert_allclose(
                solve_lyapunov(a, q), lyap_kron_oracle(a, q), atol=1e-9
            )

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov([[0.0]], [[1.0]])


class TestSortedSchur:
    @staticmethod
    def _stack(rng, symmetric):
        g = rng.normal(size=(6, 3, 3))
        return g + np.swapaxes(g, 1, 2) if symmetric else g

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_stack_equals_the_per_block_calls_bit_for_bit(self, symmetric):
        stack = self._stack(np.random.default_rng(40), symmetric)
        t, z, n_u = sorted_schur(stack)
        assert t.shape == z.shape == stack.shape and n_u.shape == (6,)
        for k, block in enumerate(stack):
            t_k, z_k, n_k = sorted_schur(block)
            np.testing.assert_array_equal(t[k], t_k)
            np.testing.assert_array_equal(z[k], z_k)
            assert n_u[k] == n_k

    def test_symmetric_input_gives_a_real_diagonal_descending_form(self):
        a = self._stack(np.random.default_rng(41), True)[0]
        t, z, n_u = sorted_schur(a)
        assert np.isrealobj(t) and np.isrealobj(z)
        w = np.diagonal(t)
        assert not (t - np.diag(w)).any()
        assert (np.diff(w) <= 0).all() and n_u == (w >= -STABILITY_MARGIN).sum()
        assert np.abs(z @ t @ z.T - a).max() <= 1e-12 * np.abs(a).max()

    def test_other_input_gives_a_complex_schur_form(self):
        # symmetric only up to rounding: not exactly symmetric, so no eigh
        a = self._stack(np.random.default_rng(42), True)[0]
        a[0, 1] += 1e-15
        t, z, n_u = sorted_schur(a)
        assert np.iscomplexobj(t) and np.iscomplexobj(z)
        assert not np.tril(t, -1).any()
        assert (np.diagonal(t)[:n_u].real >= -STABILITY_MARGIN).all()
        assert (np.diagonal(t)[n_u:].real < -STABILITY_MARGIN).all()


class TestStableUnstableSplit:
    def test_invariance(self):
        rng = np.random.default_rng(5)
        a = np.block(
            [[random_hurwitz(rng, 3), rng.normal(size=(3, 2))], [np.zeros((2, 3)), np.eye(2)]]
        )
        sys = StateSpace(A=a, B=rng.normal(size=(5, 2)), C=np.zeros((1, 5)))
        t, z, n_u = sys.schur
        t_s, b_s, c_s, d_s = stable_unstable_split(sys)
        assert n_u == 2 and t_s.shape == (1, 5, 5) and d_s.size == 0
        # the one block keeps its size: each closed-right-half-plane state has its pole
        # moved to -1 and a zero output column
        np.testing.assert_array_equal(np.diagonal(t_s[0])[:n_u], -1.0)
        np.testing.assert_array_equal(np.triu(t_s[0], 1), np.triu(t, 1))
        assert c_s.shape == (1, 5) and not c_s[:, :n_u].any()
        z_u, z_s = z[:, :n_u], z[:, n_u:]
        assert np.abs(a @ z_u - z_u @ t[:n_u, :n_u]).max() <= 1e-10
        assert np.abs(z_s.conj().T @ a - t_s[0, n_u:, n_u:] @ z_s.conj().T).max() <= 1e-10
        np.testing.assert_array_equal(b_s, z.conj().T @ sys.B)


class TestSolveLyapunovWithKernel:
    def test_decoupled_scalar(self):
        a = np.diag([-1.0, 0.0])
        b = np.array([[1.0], [1.0]])
        c = np.array([[1.0, 0.0]])
        sys = StateSpace(a, b, c)
        x_s, h2sq, _ = solve_lyapunov_with_kernel(sys)
        x = dense_gramian(sys, x_s)
        np.testing.assert_allclose(x, np.diag([0.5, 0.0]), atol=1e-12)
        assert abs(h2sq - 0.5) <= 1e-12

    def test_violation_raises(self):
        a = np.diag([-1.0, 0.0])
        b = np.array([[1.0], [1.0]])
        c = np.array([[0.0, 1.0]])  # observes the zero mode
        with pytest.raises(UnstablePoles):
            solve_lyapunov_with_kernel(StateSpace(a, b, c))

    def test_agrees_with_plain_solve_for_hurwitz(self):
        rng = np.random.default_rng(6)
        a = random_hurwitz(rng, 5)
        b = rng.normal(size=(5, 2))
        c = rng.normal(size=(3, 5))
        sys = StateSpace(a, b, c)
        x_s, h2sq, _ = solve_lyapunov_with_kernel(sys)
        x_kernel = dense_gramian(sys, x_s)
        x_plain = solve_lyapunov(a, c.T @ c)
        assert np.abs(x_kernel - x_plain).max() <= 1e-9
        assert abs(h2sq - np.trace(b.T @ x_plain @ b)) <= 1e-9

    def test_psd_and_kernel_containment(self):
        # network-style marginal system: K2 single integrator, one leader
        lap = laplacian_from_graph(path_graph(2)).mat
        sys = StateSpace(-lap, np.array([[1.0], [0.0]]), lap)
        x_s, h2sq, _ = solve_lyapunov_with_kernel(sys)
        x = dense_gramian(sys, x_s)
        assert abs(h2sq - 0.5) <= 1e-12
        assert np.linalg.eigvalsh(x).min() >= -1e-12
        ones = np.ones(2) / np.sqrt(2)
        assert np.abs(x @ ones).max() <= 1e-12

    def test_residual_is_that_of_the_equation_solved(self):
        # diagonal and triangular T_s, and an error system of nonsymmetric agents (many
        # 3 x 3 blocks, one with d = 0, and a diagonal output block):
        # max|T_s^H X_s + X_s T_s + C_s^H C_s| over the whole arrow X_s, at rounding level
        rng = np.random.default_rng(7)
        systems = [
            StateSpace(a, rng.normal(size=(len(a), 2)), rng.normal(size=(3, len(a))))
            for a in (-np.diag([1.0, 2.0, 3.0]), random_hurwitz(rng, 5))
        ]
        ns, pi = random_aep_instance(rng, dynamics=make_dynamics(rng, "dissipative", n=3))
        systems.append(Analysis(ns, pi).error_system)
        for sys in systems:
            t_s, _, c_s, d_s = stable_unstable_split(sys)
            n1 = d_s.size
            t_s = scipy.linalg.block_diag(*t_s)  # a diagonal T_s comes as one-state blocks
            c_s = np.hstack([np.vstack([np.diag(d_s), np.zeros((len(c_s) - n1, n1))]), c_s])
            (head, f, r), _, residual = solve_lyapunov_with_kernel(sys)
            head = scipy.linalg.block_diag(*head) if n1 else np.zeros((0, 0))
            x_s = np.block([[head, f], [f.conj().T, r]])
            want = np.abs(t_s.conj().T @ x_s + x_s @ t_s + c_s.conj().T @ c_s).max()
            scale = np.abs(c_s).max() ** 2
            assert abs(residual - want) <= 1e-14 * scale
            assert residual <= 1e-12 * scale


class TestPsdQuadraticTrace:
    """The pivoted-Cholesky rank cut against the eigenvalue cut, to 1e-12 relative."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("rank", [6, 3, 1])
    def test_matches_eigh_cut(self, dtype, rank):
        rng = np.random.default_rng(rank)
        g = rng.normal(size=(6, rank)).astype(dtype)
        b = rng.normal(size=(6, 2)).astype(dtype)
        if dtype is complex:
            g = g + 1j * rng.normal(size=(6, rank))
            b = b + 1j * rng.normal(size=(6, 2))
        x = g @ g.conj().T
        got = _psd_quadratic_trace(x, b)
        assert got == pytest.approx(eigh_quadratic_trace(x, b), rel=1e-12, abs=0.0)

    def test_zero_and_empty(self):
        assert _psd_quadratic_trace(np.zeros((4, 4)), np.ones((4, 2))) == 0.0
        assert _psd_quadratic_trace(np.zeros((0, 0)), np.zeros((0, 2))) == 0.0

    def test_whole_diagonal_under_the_cut_skips_the_factorization(self, monkeypatch):
        # ?pstrf takes its first pivot whatever the tolerance, so it keeps a matrix of
        # noise that lies wholly under the cut; the trace must return 0 before calling it
        x = 1e-13 * np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.ones((2, 1))
        pstrf = scipy.linalg.lapack.get_lapack_funcs("pstrf", (x,))
        assert pstrf(x, tol=RANK_TOL, lower=1)[2] >= 1
        calls, get = [], scipy.linalg.lapack.get_lapack_funcs

        def spy(*args, **kwargs):
            calls.append(args[0])
            return get(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", spy)
        assert _psd_quadratic_trace(x, b, scale=1.0) == 0.0
        assert calls == []
        # against its own diagonal nothing is cut: tr(b^T x b) = 6e-13
        assert _psd_quadratic_trace(x, b) == pytest.approx(6e-13, rel=1e-12)
        assert calls == ["pstrf"]


class TestStateSpace:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateSpace(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)))
        with pytest.raises(ValueError):
            StateSpace(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_response_scalar(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        val = triangular_response(*stable_unstable_split(sys), [1j * 1.0])
        np.testing.assert_allclose(val, [[[1.0 / (1j + 1.0)]]])

    def test_response_stacked_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        a, b, c = random_hurwitz(rng, 6), rng.normal(size=(6, 2)), rng.normal(size=(3, 6))
        sys = StateSpace(A=a, B=b, C=c)
        for count in (1, SCHUR_CHUNK, SCHUR_CHUNK + 5):
            s = 1j * np.logspace(-2, 2, count)
            got = triangular_response(*stable_unstable_split(sys), s)
            assert got.shape == (count, 3, 2)
            for k in range(count):
                want = dense_response(sys, s[k])
                assert np.abs(got[k] - want).max() <= 1e-12 * np.abs(want).max()


def _error_system(lap, leaders, cells):
    ns = NetworkSystem(laplacian_from_graph(lap), leaders, single_integrator())
    return Analysis(ns, Partition(n_nodes=lap.n_nodes, cells=cells)).error_system


def _schur_matches_dense(sys, omegas):
    got = triangular_response(*stable_unstable_split(sys), 1j * omegas)
    assert got.shape == (len(omegas), sys.n_outputs, sys.n_inputs)
    for k, omega in enumerate(omegas):
        want = dense_response(sys, 1j * omega)
        assert np.abs(got[k] - want).max() <= 1e-12 * np.abs(want).max()


class TestSchurResponse:
    """The sweep's primitive against one dense LU per frequency, to 1e-12 relative."""

    OMEGAS = np.logspace(-2, 2, 2 * SCHUR_CHUNK + 5)  # not a multiple of the chunk

    def test_non_normal(self):
        rng = np.random.default_rng(13)
        a = random_hurwitz(rng, 8) + np.triu(50.0 * rng.normal(size=(8, 8)), 1)
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(8)
        sys = StateSpace(A=a, B=rng.normal(size=(8, 2)), C=rng.normal(size=(3, 8)))
        _schur_matches_dense(sys, self.OMEGAS)

    def test_defective_jordan_block(self):
        rng = np.random.default_rng(14)
        a = -np.eye(5) + np.eye(5, k=1)  # one Jordan block at -1
        sys = StateSpace(A=a, B=rng.normal(size=(5, 1)), C=rng.normal(size=(2, 5)))
        _schur_matches_dense(sys, self.OMEGAS)

    def test_unobservable_marginal_modes_are_deflated(self):
        # error systems on path5 and K3: the consensus modes sit at 0, unobserved
        path5 = _error_system(path_graph(5), (0,), PATH5_CELLS)
        k3 = _error_system(complete_graph(3), (0, 1), ((0,), (1, 2)))
        for sys in (path5, k3):
            t, b, c, d = stable_unstable_split(sys)
            assert t.shape == sys.t.shape and t.shape[1:] == (1, 1)  # masked in place
            n1, masked = d.size, sys.unstable
            assert masked.sum() == 2  # the consensus state of each coupling
            np.testing.assert_array_equal(t[masked, 0, 0], -1.0)
            np.testing.assert_array_equal(t[~masked], sys.t[~masked])
            assert not d[masked[:n1]].any() and not c[:, masked[n1:]].any()
            np.testing.assert_array_equal(b, sys.B)
            _schur_matches_dense(sys, self.OMEGAS)

    def test_single_frequency(self):
        rng = np.random.default_rng(15)
        a, b, c = random_hurwitz(rng, 4), rng.normal(size=(4, 2)), rng.normal(size=(2, 4))
        sys = StateSpace(A=a, B=b, C=c)
        _schur_matches_dense(sys, np.array([0.7]))
        _schur_matches_dense(sys, np.array([0.0]))

    def test_excited_unobserved_marginal_modes_in_one_block(self):
        # A = [[H, N], [0, 0]] and C = [C1, C1 H^-1 N]: the marginal modes are driven by
        # B and couple to H's states but are unobserved, and one Schur block holds all of
        # them.  G(s) = C1 (sI - H)^-1 (B1 + H^-1 N B2), the minimal realization's response
        rng = np.random.default_rng(16)
        h, n = random_hurwitz(rng, 4), rng.normal(size=(4, 2))
        c1, b = rng.normal(size=(3, 4)), rng.normal(size=(6, 2))
        a = np.block([[h, n], [np.zeros((2, 6))]])
        sys = StateSpace(a, b, np.hstack([c1, c1 @ np.linalg.solve(h, n)]))
        minimal = StateSpace(h, b[:4] + np.linalg.solve(h, n @ b[4:]), c1)
        t, _, _, _ = stable_unstable_split(sys)
        assert t.shape == (1, 6, 6)
        got = triangular_response(*stable_unstable_split(sys), 1j * self.OMEGAS)
        want = triangular_response(*stable_unstable_split(minimal), 1j * self.OMEGAS)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        h2sq = [solve_lyapunov_with_kernel(s)[1] for s in (sys, minimal)]
        assert h2sq[0] == pytest.approx(h2sq[1], rel=1e-10)

    def test_observable_marginal_mode_raises(self):
        sys = StateSpace(A=np.diag([-1.0, 0.0]), B=np.ones((2, 1)), C=[[0.0, 1.0]])
        with pytest.raises(UnstablePoles):
            stable_unstable_split(sys)
