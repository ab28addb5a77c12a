"""Workload definitions and the seeded input generator of the netred benchmark.

Every input the benchmark can run belongs to a finite pool: an instance is
identified by ``(kind, size, variant)`` and built from a NumPy generator
seeded by that key alone.  A run's ``--seed`` only chooses which pool
variants fill each slot of the workload's cycle, so every input ever run has
a recorded reference report (see ``checks.py``).

The inputs are built here with NumPy alone, not with ``netred.generators``:
a change to the package's own generators must not change what the benchmark
feeds it, or two commits would be measured on different inputs.  The
constructions mirror the package's (quotient lifting for almost equitable
partitions, spanning tree plus random extra edges for general graphs).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1
NORMS = ["h2", "hinf"]


@dataclass(frozen=True)
class Slot:
    """One position of a workload cycle: which kind of input, at which size."""

    kind: str
    size: int
    expect_exit: int = 0
    expect_kind: str | None = None  # error kind for exit code 3 refusals


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    cycle: tuple  # of Slot; a run always executes whole cycles
    variants: int  # pool variants per random slot kind
    nominal_cycle_s: float  # cycle time at the defining commit; sizes the traced run
    why: str


# ---------------------------------------------------------------- generators


def _rng(kind: str, size: int, variant: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(f"{kind}:{size}".encode()), variant])


def _weights(rng, count):
    return rng.uniform(0.5, 2.0, size=count)


def _connected_edges(rng, n, extra_prob):
    """Random spanning tree plus independent extra edges; weights in [0.5, 2]."""
    edges = {}
    order = rng.permutation(n)
    if n > 1:
        parents = rng.integers(0, np.arange(1, n))
        for idx, par in enumerate(parents, start=1):
            i, j = int(order[idx]), int(order[par])
            edges[(min(i, j), max(i, j))] = None
    upper = np.triu(rng.random((n, n)) < extra_prob, k=1)
    for i, j in zip(*np.nonzero(upper)):
        edges.setdefault((int(i), int(j)), None)
    keys = sorted(edges)
    return dict(zip(keys, _weights(rng, len(keys)).tolist()))


def _random_partition(rng, n, n_cells):
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=int)
    labels[perm[:n_cells]] = np.arange(n_cells)
    labels[perm[n_cells:]] = rng.integers(0, n_cells, size=n - n_cells)
    return [np.flatnonzero(labels == c).tolist() for c in range(n_cells)]


def _lifted_aep(rng, cell_sizes):
    """Lift a connected quotient: uniform cross weights between adjacent cells."""
    starts = np.concatenate([[0], np.cumsum(cell_sizes)]).astype(int)
    cells = [list(range(starts[p], starts[p + 1])) for p in range(len(cell_sizes))]
    edges = {}
    if len(cells) > 1:
        for (p, q), w in _connected_edges(rng, len(cells), 0.3).items():
            for i in cells[p]:
                for j in cells[q]:
                    edges[(min(i, j), max(i, j))] = w
    for cell in cells:
        for a, i in enumerate(cell):
            for j in cell[a + 1 :]:
                if rng.random() < 0.5:
                    edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    return int(starts[-1]), edges, cells


def _is_aep(n, edges, cells):
    lap = np.zeros((n, n))
    for (i, j), w in edges.items():
        lap[i, j] = lap[j, i] = -w
    np.fill_diagonal(lap, -lap.sum(axis=1))
    p = np.zeros((n, len(cells)))
    for c, cell in enumerate(cells):
        p[cell, c] = 1.0
    lp = lap @ p
    proj = (p / p.sum(axis=0)) @ p.T
    return np.abs(lp - proj @ lp).max() <= 1e-9 * (1.0 + np.abs(lap).max())


def _leaders(rng, n, count):
    return sorted(int(v) for v in rng.choice(n, size=min(count, n), replace=False))


def _sym(m):
    return 0.5 * (m + m.T)


def _single_integrator(rng, n):
    return [[0.0]], [[1.0]], [[1.0]]


def _symmetric(rng, n):
    g, h = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    a = _sym(-(g @ g.T) - 0.3 * np.eye(n))
    b = _sym(h @ h.T + 0.1 * np.eye(n))
    return a.tolist(), b.tolist(), rng.normal(size=(n, 1)).tolist()


def _dissipative(rng, n):
    g, s, h, t = (rng.normal(size=(n, n)) for _ in range(4))
    a = 0.5 * (s - s.T) - _sym(g @ g.T) - 0.3 * np.eye(n)
    b = 0.3 * (t - t.T) + _sym(h @ h.T) + 0.1 * np.eye(n)
    return a.tolist(), b.tolist(), rng.normal(size=(n, 1)).tolist()


def _unstable(rng, n):
    """Positive definite A with weak coupling: A - lam B stays unstable."""
    g = rng.normal(size=(n, n))
    a = _sym(g @ g.T + 0.5 * np.eye(n))
    return a.tolist(), (0.01 * np.eye(n)).tolist(), rng.normal(size=(n, 1)).tolist()


def _payload(n, edges, leaders, agent, cells):
    a, b, e = agent
    return {
        "schema_version": SCHEMA_VERSION,
        "n_nodes": n,
        "edges": [[i + 1, j + 1, float(w)] for (i, j), w in sorted(edges.items())],
        "leaders": [v + 1 for v in leaders],
        "agent": {"A": a, "B": b, "E": e},
        "partition": [[v + 1 for v in cell] for cell in cells],
        "options": {"norms": list(NORMS)},
    }


def _small_cells(rng):
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 5))).tolist()
    if max(sizes) == 1:
        sizes[0] = int(rng.integers(2, 5))
    return sizes


def _small_aep(rng, dynamics, n):
    n_nodes, edges, cells = _lifted_aep(rng, _small_cells(rng))
    leaders = _leaders(rng, n_nodes, int(rng.integers(1, 4)))
    return _payload(n_nodes, edges, leaders, dynamics(rng, n), cells)


def _general(rng, n_nodes, n_cells, n_leaders, dynamics, n, extra_prob):
    """Connected graph with a random partition that is not almost equitable."""
    while True:
        edges = _connected_edges(rng, n_nodes, extra_prob)
        cells = _random_partition(rng, n_nodes, n_cells)
        if not _is_aep(n_nodes, edges, cells):
            break
    leaders = _leaders(rng, n_nodes, n_leaders)
    return _payload(n_nodes, edges, leaders, dynamics(rng, n), cells)


def _path5(rng, size):
    edges = {(i, i + 1): 1.0 for i in range(4)}
    return _payload(5, edges, [0], _single_integrator(rng, 1), [[0, 1, 2], [3, 4]])


def _k3(rng, size):
    edges = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
    return _payload(3, edges, [0], _single_integrator(rng, 1), [[0], [1, 2]])


def _si_general_small(rng, size):
    n_nodes = int(rng.integers(5, 13))
    n_cells = int(rng.integers(2, n_nodes))
    return _general(rng, n_nodes, n_cells, int(rng.integers(1, 4)), _single_integrator, 1, 0.25)


def _si_general_large(rng, size):
    """size nodes, about size/5 cells, two leaders, average degree about 6."""
    return _general(rng, size, size // 5, 2, _single_integrator, 1, 4.0 / size)


def _sym_aep_large(rng, size):
    """Cells of four, two leaders, n = 3 symmetric agents."""
    n_nodes, edges, cells = _lifted_aep(rng, [4] * (size // 4))
    return _payload(n_nodes, edges, _leaders(rng, n_nodes, 2), _symmetric(rng, 3), cells)


def _unsynchronized(rng, size):
    return _small_aep(rng, _unstable, size)


def _non_aep_multistate(rng, size):
    n_nodes = int(rng.integers(5, 10))
    return _general(rng, n_nodes, int(rng.integers(2, n_nodes)), 2, _symmetric, size, 0.3)


_MALFORMATIONS = 10


def _malformed(rng, size, variant):
    """A valid small input with one seeded defect; every one must exit 2."""
    payload = _small_aep(rng, _single_integrator, 1)
    which = variant % _MALFORMATIONS
    if which == 0:
        payload["edges"][0][2] = -1.0
    elif which == 1:
        payload["leaders"].append(payload["n_nodes"] + 1)
    elif which == 2:
        del payload["partition"]
    elif which == 3:
        payload["partition"][-1].pop()
    elif which == 4:
        payload["agent"]["A"] = [[0.0, 1.0]]
    elif which == 5:
        payload["edges"].append([1, 1, 1.0])
    elif which == 6:
        payload["weights"] = []
    elif which == 7:
        return json.dumps(payload)[:-7]  # truncated: not valid JSON
    elif which == 8:
        payload["leaders"].append(payload["leaders"][0])
    else:
        payload["options"]["norms"] = ["h3"]
    return payload


_BUILDERS = {
    "path5": _path5,
    "k3": _k3,
    "si-aep": lambda rng, size: _small_aep(rng, _single_integrator, 1),
    "si-general": _si_general_small,
    "sym-aep": lambda rng, size: _small_aep(rng, _symmetric, size),
    "diss-aep": lambda rng, size: _small_aep(rng, _dissipative, size),
    "unsynchronized": _unsynchronized,
    "non-aep-multistate": _non_aep_multistate,
    "sym-aep-large": _sym_aep_large,
    "si-general-large": _si_general_large,
}
_FIXED = {"path5", "k3"}


def instance_key(slot: Slot, variant: int) -> str:
    return f"{slot.kind}-{slot.size}/{variant}"


def build_text(slot: Slot, variant: int) -> str:
    """The input file text for one pool instance (deterministic in its key)."""
    rng = _rng(slot.kind, slot.size, variant)
    if slot.kind == "malformed":
        payload = _malformed(rng, slot.size, variant)
    else:
        payload = _BUILDERS[slot.kind](rng, slot.size)
    if isinstance(payload, str):
        return payload
    return json.dumps(payload)


def variant_count(workload: Workload, slot: Slot) -> int:
    return 1 if slot.kind in _FIXED else workload.variants


def pool(workload: Workload):
    """Every (slot, variant) a run of this workload can draw, each once."""
    seen = set()
    for slot in workload.cycle:
        for variant in range(variant_count(workload, slot)):
            key = instance_key(slot, variant)
            if key not in seen:
                seen.add(key)
                yield slot, variant


def cycles(workload: Workload, seed: int):
    """Endless seeded sequence of cycles, each a list of (slot, variant).

    Each slot kind and size deals its variants from its own deck: a seeded
    shuffle of all of them, dealt without replacement and shuffled again
    when empty.  The variants of one kind differ in cost (the large AEP
    calls take 1.1-1.8 s), so drawing them independently made a run's
    median depend on which ones the seed drew; dealt from decks, every run
    covers each pool about evenly and the seed mostly sets the order.
    """
    rng = np.random.default_rng(seed)
    decks = {}

    def deal(slot):
        deck = decks.setdefault((slot.kind, slot.size), [])
        if not deck:
            deck.extend(rng.permutation(variant_count(workload, slot)).tolist())
        return deck.pop()

    while True:
        yield [(slot, deal(slot)) for slot in workload.cycle]


# ---------------------------------------------------------------- workloads

_LADDER = (
    (Slot("path5", 5),)
    + (Slot("k3", 3),)
    + (Slot("si-aep", 0),) * 7
    + (Slot("si-general", 0),) * 6
    + (Slot("sym-aep", 2),) * 3
    + (Slot("sym-aep", 3),) * 3
    + (Slot("diss-aep", 2),) * 3
    + (Slot("diss-aep", 3),) * 3
    + (Slot("malformed", 0, 2),)
    + (Slot("unsynchronized", 2, 3, "NotSynchronized"),)
    + (Slot("non-aep-multistate", 2, 3, "NotSingleIntegrator"),)
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ladder-small",
            ("--triangle", "--oracle-check"),
            _LADDER,
            variants=32,
            nominal_cycle_s=1.7,
            why="many tiny inputs: fixed per-call cost, the oracles and the refusal paths",
        ),
        Workload(
            "aep-symmetric-large",
            (),
            (Slot("sym-aep-large", 64),),
            variants=8,
            nominal_cycle_s=2.0,
            why="dense complex solves and Schur-based Lyapunov on a 240-state error system",
        ),
        Workload(
            "triangle-si-large",
            ("--triangle",),
            tuple(Slot("si-general-large", n) for n in (80, 120, 160)),
            variants=5,
            nominal_cycle_s=3.0,
            why="non-AEP triangle route, N-state sweeps and large reports at N=80/120/160",
        ),
    )
}

def smoke(workload: Workload) -> Workload:
    """The same workload at tiny sizes and the same code paths (smoke test)."""
    small = {80: 20, 120: 30, 160: 40, 64: 16}
    cycle = tuple(
        Slot(s.kind, small.get(s.size, s.size), s.expect_exit, s.expect_kind)
        for s in workload.cycle
    )
    return Workload(
        workload.name, workload.flags, cycle, variants=4, nominal_cycle_s=0.5, why=workload.why
    )
