"""Session-scoped randomized corpora shared by the module and acceptance tests."""

from __future__ import annotations

import numpy as np
import pytest

from netred.bounds import (
    Analysis,
    cellmate_terms,
    h2_bound_aep,
    hinf_bound_symmetric,
    hinf_error_single_integrator,
    leaders_share_cell,
)
from netred.generators import (
    random_aep_instance,
    random_general_instance,
    single_integrator,
)
from netred.graphcore import is_almost_equitable
from netred.netsys import assemble_full
from netred.norms import h2_norm

from .support import assemble_reduced, make_dynamics, modal_form

AEP_CORPUS_SIZE = 200
SINGLE_INT_CORPUS_SIZE = 50
SYMMETRIC_CORPUS_SIZE = 60
NON_AEP_CORPUS_SIZE = 200


def _leader_mode(seed: int) -> str:
    if seed % 10 == 0:
        return "alone"
    if seed % 10 == 5:
        return "shared"
    return "any"


@pytest.fixture(scope="session")
def aep_h2_corpus():
    """AEP instances with mixed agent dynamics and all H2 quantities precomputed."""
    kinds = ("single", "symmetric", "dissipative", "singular")
    records = []
    for seed in range(AEP_CORPUS_SIZE):
        rng = np.random.default_rng(20_000 + seed)
        dyn = make_dynamics(rng, kinds[seed % 4])
        ns, pi = random_aep_instance(
            rng, dynamics=dyn, leader_mode=_leader_mode(seed)
        )
        if ns.n_leaders == 0:
            ns, pi = random_aep_instance(rng, dynamics=dyn, n_leaders=1)
        abs_bound, rel_bound = h2_bound_aep(Analysis(ns, pi))
        full = h2_norm(assemble_full(ns))
        reduced = h2_norm(modal_form(*assemble_reduced(ns, pi)))
        error = h2_norm(Analysis(ns, pi).error_system)
        records.append(
            {
                "seed": seed,
                "ns": ns,
                "pi": pi,
                "abs_bound": abs_bound,
                "rel_bound": rel_bound,
                "h2_full": full.value,
                "h2_reduced": reduced.value,
                "h2_error": error.value,
                "terms": cellmate_terms(pi, ns.leaders),
                "leaders_alone": all(
                    len(pi.cells[pi.cell_of(v)]) == 1 for v in ns.leaders
                ),
            }
        )
    return records


@pytest.fixture(scope="session")
def single_int_aep_corpus():
    """Single-integrator AEP instances covering both leader-placement branches."""
    records = []
    for seed in range(SINGLE_INT_CORPUS_SIZE):
        rng = np.random.default_rng(40_000 + seed)
        if seed % 3 == 0:
            mode, n_leaders = "shared", int(rng.integers(2, 4))
        elif seed % 3 == 1:
            mode, n_leaders = "any", None
        else:
            mode, n_leaders = "alone", None
        max_cells = 7 if seed % 5 == 0 else 5
        ns, pi = random_aep_instance(
            rng,
            dynamics=single_integrator(),
            max_cells=max_cells,
            n_leaders=n_leaders,
            leader_mode=mode,
        )
        if ns.n_leaders == 0:
            ns, pi = random_aep_instance(rng, dynamics=single_integrator(), n_leaders=1)
        records.append(
            {
                "seed": seed,
                "ns": ns,
                "pi": pi,
                "exact": hinf_error_single_integrator(Analysis(ns, pi)),
                "shared": leaders_share_cell(pi, ns.leaders),
            }
        )
    return records


@pytest.fixture(scope="session")
def symmetric_hinf_corpus():
    """Symmetric-dynamics AEP instances with H-infinity bounds precomputed."""
    records = []
    for seed in range(SYMMETRIC_CORPUS_SIZE):
        rng = np.random.default_rng(60_000 + seed)
        kind = "singular" if seed % 4 == 0 else "symmetric"
        dyn = make_dynamics(rng, kind, n=int(rng.integers(1, 3)))
        ns, pi = random_aep_instance(
            rng,
            dynamics=dyn,
            max_cells=4,
            max_cell_size=3,
            leader_mode=_leader_mode(seed),
        )
        if ns.n_leaders == 0:
            ns, pi = random_aep_instance(rng, dynamics=dyn, max_cells=4, n_leaders=1)
        abs_bound, rel_bound = hinf_bound_symmetric(Analysis(ns, pi))
        records.append(
            {"seed": seed, "ns": ns, "pi": pi, "abs_bound": abs_bound, "rel_bound": rel_bound}
        )
    return records


@pytest.fixture(scope="session")
def non_aep_corpus():
    """Single-integrator instances with arbitrary, verified non-AEP partitions."""
    records = []
    for idx in range(NON_AEP_CORPUS_SIZE):
        seed = 80_000 + idx
        while True:
            rng = np.random.default_rng(seed)
            ns, pi = random_general_instance(rng, dynamics=single_integrator())
            if not is_almost_equitable(ns.laplacian, pi):
                break
            seed += NON_AEP_CORPUS_SIZE
        records.append({"seed": seed, "ns": ns, "pi": pi})
    return records
