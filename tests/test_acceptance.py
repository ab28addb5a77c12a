"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np

from netred.bounds import (
    Analysis,
    h2_bound_aep,
    hinf_bound_symmetric,
    hinf_error_single_integrator,
    triangle_bound_general,
)
from netred.generators import (
    lift_aep_graph,
    path_graph,
    random_aep_instance,
    random_connected_graph,
    random_partition,
    single_integrator,
)
from netred.graphcore import (
    Partition,
    has_negative_weights,
    is_almost_equitable,
    laplacian_from_graph,
    project_to_aep_laplacian,
    reduce_graph,
)
from netred.netsys import (
    NetworkSystem,
    assemble_full,
)
from netred.norms import (
    h2_norm,
    h2_norm_quadrature,
    hinf_norm_dc,
    hinf_norm_sweep,
)

from .support import (
    PATH5_AEP_PROJECTION,
    PATH5_CELLS,
    PATH5_LAPLACIAN,
    aep_by_degree_constancy,
    make_dynamics,
    modal_form,
    pinv,
    projector,
    random_hurwitz,
)


def test_criterion_1_golden_projection():
    """Worked 5-node example reproduced entrywise to 1e-12 in under a second."""
    started = time.perf_counter()
    lap = laplacian_from_graph(path_graph(5))
    np.testing.assert_array_equal(lap.mat, PATH5_LAPLACIAN)
    pi = Partition(n_nodes=5, cells=PATH5_CELLS)
    l_aep, delta = project_to_aep_laplacian(lap, pi)
    worst = np.abs(l_aep - PATH5_AEP_PROJECTION).max()
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert has_negative_weights(l_aep)
    assert delta > 0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: projected matrix matches reference to {worst:.2e} "
        f"in {elapsed * 1e3:.1f} ms"
    )


def test_criterion_2_hinf_exactness_single_integrator(single_int_aep_corpus):
    """Exact single-integrator H-infinity error equals the sweep oracle (1e-5)."""
    started = time.perf_counter()
    shared = nontrivial = zero = 0
    worst = 0.0
    for rec in single_int_aep_corpus:
        exact = rec["exact"]
        sweep = hinf_norm_sweep(Analysis(rec["ns"], rec["pi"]).error_system).value
        gap = abs(exact - sweep)
        assert gap <= 1e-5 * max(exact, sweep) + 1e-8, (rec["seed"], exact, sweep)
        worst = max(worst, gap)
        if rec["shared"]:
            shared += 1
        elif exact == 0.0:
            zero += 1
        else:
            nontrivial += 1
    elapsed = time.perf_counter() - started
    assert len(single_int_aep_corpus) >= 50
    assert shared >= 10 and nontrivial >= 10 and zero >= 3
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 PASS: {len(single_int_aep_corpus)} instances "
        f"({shared} shared-cell, {nontrivial} distinct, {zero} exact-zero), "
        f"worst |exact - sweep| = {worst:.2e}, {elapsed:.1f} s"
    )


def test_criterion_3_h2_orthogonality(aep_h2_corpus):
    """Error energy splits: | err^2 - (full^2 - reduced^2) | <= 1e-7 (1 + full^2)."""
    worst = 0.0
    for rec in aep_h2_corpus:
        full_sq = rec["h2_full"] ** 2
        gap = abs(rec["h2_error"] ** 2 - (full_sq - rec["h2_reduced"] ** 2))
        tol = 1e-7 * (1.0 + full_sq)
        assert gap <= tol, (rec["seed"], gap, tol)
        worst = max(worst, gap / tol)
    print(
        f"\nACCEPTANCE 3 PASS: orthogonality on {len(aep_h2_corpus)} AEP instances, "
        f"worst gap/tolerance = {worst:.3f}"
    )


def test_criterion_4_h2_bound_soundness(aep_h2_corpus):
    """Absolute and relative H2 bounds dominate the true errors; zero iff leaders alone."""
    zero_cases = 0
    for rec in aep_h2_corpus:
        true_err = rec["h2_error"]
        assert true_err <= rec["abs_bound"] * (1 + 1e-7) + 1e-8, rec["seed"]
        true_rel = true_err / rec["h2_full"]
        assert true_rel <= rec["rel_bound"] * (1 + 1e-7) + 1e-8, rec["seed"]
        assert (rec["abs_bound"] == 0.0) == rec["leaders_alone"], rec["seed"]
        if rec["abs_bound"] == 0.0:
            zero_cases += 1
            assert true_err <= 1e-8, (rec["seed"], true_err)
    assert len(aep_h2_corpus) >= 200
    assert zero_cases >= 10
    print(
        f"\nACCEPTANCE 4 PASS: soundness on {len(aep_h2_corpus)} AEP instances "
        f"({zero_cases} leaders-alone cases with true error <= 1e-8)"
    )


def test_criterion_5_hinf_bound_symmetric(symmetric_hinf_corpus, single_int_aep_corpus):
    """Symmetric-dynamics H-infinity bound dominates the sweep; its
    single-integrator specialization reproduces the exact error to 1e-9."""
    started = time.perf_counter()
    for rec in symmetric_hinf_corpus:
        true_err = hinf_norm_sweep(Analysis(rec["ns"], rec["pi"]).error_system).value
        assert true_err <= rec["abs_bound"] * (1 + 1e-6) + 1e-10, rec["seed"]
    worst_gap = 0.0
    for rec in single_int_aep_corpus:
        abs_bound, _ = hinf_bound_symmetric(Analysis(rec["ns"], rec["pi"]))
        worst_gap = max(worst_gap, abs(abs_bound - rec["exact"]))
        assert abs(abs_bound - rec["exact"]) <= 1e-9, rec["seed"]
    elapsed = time.perf_counter() - started
    print(
        f"\nACCEPTANCE 5 PASS: {len(symmetric_hinf_corpus)} symmetric instances sound; "
        f"single-integrator specialization gap {worst_gap:.2e}; {elapsed:.1f} s"
    )


def test_criterion_6_triangle_bound(non_aep_corpus):
    """Triangle-route bound dominates the true error for arbitrary partitions;
    for an AEP it collapses to the middle term."""
    started = time.perf_counter()
    for rec in non_aep_corpus:
        ns, pi = rec["ns"], rec["pi"]
        err_sys = Analysis(ns, pi).error_system
        total_h2, _ = triangle_bound_general(Analysis(ns, pi), "h2")
        true_h2 = h2_norm(err_sys).value
        assert true_h2 <= total_h2, (rec["seed"], true_h2, total_h2)
        total_hinf, _ = triangle_bound_general(Analysis(ns, pi), "hinf")
        true_hinf = hinf_norm_sweep(err_sys).value
        assert true_hinf <= total_hinf, (rec["seed"], true_hinf, total_hinf)
    aep_checked = 0
    for seed in range(10):
        rng = np.random.default_rng(90_000 + seed)
        ns, pi = random_aep_instance(rng, dynamics=single_integrator())
        if ns.n_leaders == 0:
            continue
        for norm in ("h2", "hinf"):
            total, (t1, t2, t3) = triangle_bound_general(Analysis(ns, pi), norm)
            assert t1 <= 1e-10 and t3 <= 1e-10, (seed, norm, t1, t3)
            reference = (
                h2_bound_aep(Analysis(ns, pi))[0]
                if norm == "h2"
                else hinf_error_single_integrator(Analysis(ns, pi))
            )
            assert abs(total - reference) <= 1e-9, (seed, norm)
        aep_checked += 1
    elapsed = time.perf_counter() - started
    assert len(non_aep_corpus) >= 200 and aep_checked >= 8
    print(
        f"\nACCEPTANCE 6 PASS: triangle bound sound on {len(non_aep_corpus)} non-AEP "
        f"instances, collapses on {aep_checked} AEP instances; {elapsed:.1f} s"
    )


def test_criterion_7_cross_method_agreement(symmetric_hinf_corpus):
    """Lyapunov H2 vs quadrature within 1e-4 relative; DC closed form vs sweep
    within 1e-6, across the cross-method corpus."""
    started = time.perf_counter()
    # H2: Lyapunov-kernel route against the frequency quadrature oracle
    h2_cases = []
    lap2 = laplacian_from_graph(path_graph(2))
    h2_cases.append(assemble_full(NetworkSystem(laplacian=lap2, leaders=(0,), dyn=single_integrator())))
    for lam in (0.5, 2.0, 7.0):
        h2_cases.append(modal_form([[-lam]], [[1.0]], [[lam]]))
    for seed in range(8):
        rng = np.random.default_rng(70_000 + seed)
        n = int(rng.integers(2, 7))
        h2_cases.append(
            modal_form(random_hurwitz(rng, n), rng.normal(size=(n, 2)), rng.normal(size=(2, n)))
        )
    for seed in range(8):
        rng = np.random.default_rng(71_000 + seed)
        kind = ("single", "symmetric", "dissipative")[seed % 3]
        ns, pi = random_aep_instance(
            rng, dynamics=make_dynamics(rng, kind, n=int(rng.integers(1, 3)), r=1),
            max_cells=3, max_cell_size=3,
        )
        h2_cases.append(assemble_full(ns))
        h2_cases.append(Analysis(ns, pi).error_system)
    worst_h2 = 0.0
    for sys in h2_cases:
        lyap = h2_norm(sys).value
        quad = h2_norm_quadrature(sys).value
        if quad > 1e-6:
            rel = abs(lyap - quad) / quad
            assert rel <= 1e-4, (lyap, quad)
            worst_h2 = max(worst_h2, rel)
        else:
            assert abs(lyap - quad) <= 1e-6
    # H-infinity: DC closed form against the sweep oracle
    worst_hinf = 0.0
    checked = 0
    for rec in symmetric_hinf_corpus[:20]:
        ns, pi = rec["ns"], rec["pi"]
        full_sys = assemble_full(ns)
        err_sys = Analysis(ns, pi).error_system
        # the witness A in the output coordinates of both realizations: diag(poles)
        for sys, witness in ((full_sys, full_sys.poles), (err_sys, full_sys.poles)):
            dc = hinf_norm_dc(sys, witness).value
            sweep = hinf_norm_sweep(sys).value
            gap = abs(dc - sweep)
            assert gap <= 1e-6 * max(dc, sweep) + 1e-9, (rec["seed"], dc, sweep)
            if max(dc, sweep) > 1e-6:
                worst_hinf = max(worst_hinf, gap / max(dc, sweep))
            checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"\nACCEPTANCE 7 PASS: {len(h2_cases)} H2 cases (worst rel {worst_h2:.2e}), "
        f"{checked} DC-vs-sweep cases (worst rel {worst_hinf:.2e}); {elapsed:.1f} s"
    )


def test_criterion_8_property_suites():
    """Pseudoinverse identities, equitability-test equivalence, quotient spectrum
    embedding, quotient row sums, projector idempotency: zero failures over 200 seeds."""
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        # Moore-Penrose identities on a random singular symmetric matrix
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, max(1, n - 1)))
        m = g @ g.T
        m_plus = pinv(m)
        ok = (
            np.abs(m @ m_plus @ m - m).max() <= 1e-8
            and np.abs(m_plus @ m @ m_plus - m_plus).max() <= 1e-8
            and np.abs((m @ m_plus).T - m @ m_plus).max() <= 1e-8
            and np.abs((m_plus @ m).T - m_plus @ m).max() <= 1e-8
        )
        # equitability: subspace test agrees with degree constancy
        if seed % 2 == 0:
            sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
            graph, pi = lift_aep_graph(rng, sizes)
        else:
            n_nodes = int(rng.integers(3, 10))
            graph = random_connected_graph(rng, n_nodes)
            pi = random_partition(rng, n_nodes, int(rng.integers(2, n_nodes + 1)))
        lap = laplacian_from_graph(graph)
        subspace = is_almost_equitable(lap, pi)
        ok = ok and subspace == aep_by_degree_constancy(graph, pi)
        # projector idempotency and quotient row sums (any partition)
        proj = projector(pi)
        ok = ok and np.abs(proj @ proj - proj).max() <= 1e-10
        rg = reduce_graph(lap, pi, leaders=(0,))
        ok = ok and np.abs(rg.laplacian_hat.sum(axis=1)).max() <= 1e-10
        # under an AEP: intertwining and spectrum embedding
        if subspace:
            p = pi.char_matrix
            ok = ok and np.abs(lap.mat @ p - p @ rg.laplacian_hat).max() <= 1e-9
            full = lap.spectral.eigenvalues
            for lam in np.linalg.eigvals(rg.laplacian_hat).real:
                ok = ok and np.abs(full - lam).min() <= 1e-7 * (1 + full.max())
        if not ok:
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 8 PASS: property suites clean over 200 seeds")
