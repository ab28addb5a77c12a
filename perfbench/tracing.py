"""Span tracing of netred's public functions, installed from outside the package.

The package binds names with ``from .x import y``, so a function has one
attribute per importing module (``netred.bounds.hinf_norm_sweep``,
``netred.norms.hinf_norm_sweep``, ...).  :class:`Tracer` replaces every
such attribute in every loaded ``netred`` module and restores them all on
exit; the benchmark fails a traced run in which an expected group records
no call.

Each wrapped call is a span with a parent.  A span's self time is its
duration minus the durations of its direct children; since the calls are
synchronous the children never overlap, so the self times of a call tree
add up to its root's duration.  ``<group>_s`` counts only the outermost
span of a group, so a group whose functions call each other is not
counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# group -> (defining module, function names)
GROUPS = {
    "netfile.parse": ("netfile", ("network_from_payload",)),
    "netfile.serialize": ("netfile", ("report_to_dict", "dump_json")),
    "graphcore.laplacian": ("graphcore", ("laplacian_from_graph",)),
    "graphcore.aep_test": ("graphcore", ("is_almost_equitable",)),
    "graphcore.connectivity": ("graphcore", ("is_connected",)),
    "graphcore.reduce": ("graphcore", ("reduce_graph",)),
    "graphcore.aep_projection": ("graphcore", ("project_to_aep_laplacian",)),
    "linalg.sym_eig": ("linalg", ("sym_eig",)),
    "linalg.hurwitz": ("linalg", ("is_hurwitz",)),
    "linalg.lyapunov": ("linalg", ("solve_lyapunov", "solve_lyapunov_with_kernel")),
    "linalg.schur_split": ("linalg", ("stable_unstable_split",)),
    "netsys.assemble": ("netsys", ("assemble_full", "assemble_error_system")),
    "netsys.sync_test": ("netsys", ("is_synchronized",)),
    "norms.hinf_sweep": ("norms", ("hinf_norm_sweep",)),
    "norms.h2_lyapunov": ("norms", ("h2_norm",)),
    "norms.h2_quadrature": ("norms", ("h2_norm_quadrature",)),
    "norms.hinf_dc": ("norms", ("hinf_norm_dc",)),
    "norms.aux_gramian": ("norms", ("aux_gramian_h2_sq",)),
    "bounds.full_report": ("bounds", ("full_report",)),
    "bounds.triangle": ("bounds", ("triangle_bound_general",)),
    "bounds.aep_bounds": (
        "bounds",
        ("h2_bound_aep", "hinf_bound_symmetric", "hinf_error_single_integrator"),
    ),
}
ROOT = "cli.analyze"
LAYERS = ("cli", "netfile", "graphcore", "netsys", "linalg", "norms", "bounds")


def solve_flops(n: int, m: int, p: int) -> float:
    """Real flops of one complex (i w I - A)^-1 B solve and its output C X.

    LU of an n x n complex matrix (8/3 n^3), forward and back substitution
    for m right-hand sides (8 n^2 m) and the p x n by n x m product (8 p n m).
    """
    return 8.0 / 3.0 * n**3 + 8.0 * n * n * m + 8.0 * p * n * m


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Context manager: wraps the GROUPS functions for the duration of a block."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.children = []  # child-time accumulator per open span
        self.gain_evals = 0
        self.sweep_flops = 0.0
        self.error_states = 0
        self.report_bytes = 0
        self.reports = 0
        self._patched = []

    # ------------------------------------------------------------ spans

    def call(self, group, fn, *args, **kwargs):
        stat = self.stats[group]
        stat.depth += 1
        self.children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stat.depth -= 1
            stat.calls += 1
            stat.self_s += duration - self.children.pop()
            if stat.depth == 0:
                stat.total_s += duration
            if self.children:
                self.children[-1] += duration

    def _wrap(self, group, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(group, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _observe_hinf_norm_sweep(self, args, result):
        evals = int(result.certificate.get("gain_evaluations", 0))
        sys_ = args[0]
        self.gain_evals += evals
        self.sweep_flops += evals * solve_flops(sys_.n_states, sys_.n_inputs, sys_.n_outputs)

    def _observe_assemble_error_system(self, args, result):
        self.error_states = max(self.error_states, result.n_states)

    def _observe_dump_json(self, args, result):
        self.report_bytes += len(result.encode())
        self.reports += 1

    # ------------------------------------------------------------ install

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "netred"]
        originals = {}
        for group, (module, names) in GROUPS.items():
            for name in names:
                fn = getattr(sys.modules[f"netred.{module}"], name)
                originals[id(fn)] = self._wrap(group, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__traced__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def bindings(self) -> list:
        """Every attribute currently wrapped, as ``module.name`` strings."""
        return sorted(f"{module.__name__}.{attr}" for module, attr, _ in self._patched)

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    # ------------------------------------------------------------ metrics

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for group, stat in self.stats.items():
            out[group.split(".")[0]] += stat.self_s
        return out

    def metrics(self) -> dict:
        """Per-layer metric values by name (units are given in ``UNITS``)."""
        s = self.stats
        out = {}
        for group in GROUPS:
            out[f"{group}_s"] = s[group].total_s
            out[f"{group}_calls"] = s[group].calls
        out["bounds.full_report_self_s"] = s["bounds.full_report"].self_s
        out["cli.analyze_self_s"] = s[ROOT].self_s
        out["norms.gain_evals"] = self.gain_evals
        out["norms.sweep_flops_computed"] = self.sweep_flops
        out["netsys.error_states"] = self.error_states
        out["netfile.report_bytes"] = self.report_bytes / max(self.reports, 1)
        for layer, value in self.layer_self_s().items():
            out[f"{layer}.self_s"] = value
        return out
