"""Command line front end.

    netred analyze <file> [--norms h2,hinf] [--triangle] [--oracle-check] [--out FILE]
    netred example <name> [--seed N] [--out FILE]

Exit codes: 0 success, 2 validation error (an unreadable or undecodable
input, an unwritable --out and a negative --seed included), 3 theory-precondition
refusal (for example, bounds requested for a non-AEP partition without --triangle).
Errors are emitted as a JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .bounds import Analysis, Tolerances, full_report
from .errors import (
    IllConditioned,
    InvalidPartition,
    KernelViolated,
    NegativeWeight,
    UnknownExample,
    WitnessInvalid,
)
from .generators import EXAMPLES
from .graphcore import has_negative_weights, project_to_aep_laplacian
from .netfile import (
    SCHEMA_VERSION,
    FileFormatError,
    dump_json,
    generate_example,
    network_from_payload,
    report_to_dict,
)
from .norms import all_finite, h2_norm_quadrature, hinf_norm_dc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REFUSED = 3

REFUSAL_MESSAGES = {
    "Disconnected": "the graph is not connected; bounds are undefined",
    "NotSynchronized": "the network does not synchronize; norm-based bounds are refused",
    "NotAEP": "the partition is not almost equitable; rerun with --triangle to "
    "use the optimal AEP-compatible approximation route",
    "NotSingleIntegrator": "the triangle route applies to single-integrator agents only",
    "NotHurwitz": "A - lam B is not Hurwitz at an eigenvalue lam lost by the reduction "
    "(the partition is almost equitable only within a loose aep_rtol); the AEP bounds are refused",
}


def _fail(code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    print(json.dumps(payload, indent=2), file=sys.stderr)
    return code


def _write(text: str, out_path) -> int:
    """Write ``text`` to ``out_path``, or to stdout when it is not given; an unwritable
    path exits 2 with kind ``io``, like an unreadable input."""
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return _fail(EXIT_VALIDATION, "io", f"cannot write {out_path}: {exc}")
    return EXIT_OK


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _oracle_checks(an: Analysis, report) -> dict:
    """Independent recomputation of the true errors where an oracle applies, with NumPy's
    floating-point warnings silenced, as for the report's fields: an oracle that overflows
    is recorded as IllConditioned."""
    checks = {}
    if report.true_h2_error is not None:
        quad = h2_norm_quadrature(an.error_system)
        gap = abs(report.true_h2_error.value - quad.value) / max(quad.value, 1e-12)
        checks["true_h2_error_quadrature"] = {
            "value": quad.value,
            "relative_gap": gap,
            "certificate": quad.certificate,
        }
    if report.true_hinf_error is not None and an.aep and an.single_integrator:
        # the witness -L, rotated: -lams (x) 1_n.  A loose aep_rtol may fail its test
        try:
            dc = hinf_norm_dc(an.error_system, -an.full_system.d)
            gap = abs(report.true_hinf_error.value - dc.value)
            entry = {"value": dc.value, "absolute_gap": gap, "certificate": dc.certificate}
        except (WitnessInvalid, KernelViolated) as exc:
            entry = {"value": None, "unavailable": type(exc).__name__, "message": str(exc)}
        checks["true_hinf_error_dc"] = entry
    # an oracle that overflowed has no value to compare
    ill = {"value": None, "unavailable": IllConditioned.__name__}
    return {name: entry if all_finite(entry) else ill for name, entry in checks.items()}


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        return _fail(EXIT_VALIDATION, "io", f"cannot read {args.input}: {exc}")
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        return _fail(EXIT_VALIDATION, "json", f"invalid JSON in {args.input}: {exc}")
    try:
        ns, pi, options = network_from_payload(payload)
    except FileFormatError as exc:
        return _fail(EXIT_VALIDATION, "schema", str(exc), field=exc.field)
    except InvalidPartition as exc:
        return _fail(EXIT_VALIDATION, "partition", str(exc), node=exc.node)
    except (NegativeWeight, ValueError) as exc:
        return _fail(EXIT_VALIDATION, "input", str(exc))

    norms = tuple(args.norms.split(",")) if args.norms else options["norms"]
    for name in norms:
        if name not in ("h2", "hinf"):
            return _fail(EXIT_VALIDATION, "flags", f"unknown norm {name!r} in --norms")
    oracle = args.oracle_check or options["oracle_check"]
    an = Analysis(ns, pi, Tolerances(**options["tolerances"]))
    kind = an.refusal(triangle=args.triangle)
    if kind is not None:
        return _fail(EXIT_REFUSED, kind, REFUSAL_MESSAGES[kind])

    report = full_report(an, norms=norms)
    rg = an.reduced
    out = {
        "schema_version": SCHEMA_VERSION,
        "input": payload,
        "analysis": {
            "connected": report.connected,
            "aep": report.aep,
            "synchronized": report.synchronized,
            "leaders_share_cell": report.leaders_share_cell,
            "eigenvalues": {
                "laplacian": ns.laplacian.spectral.eigenvalues.tolist(),
                "reduced_laplacian": an.reduced_eigenvalues.tolist(),
            },
            "reduction": {
                "laplacian_hat": rg.laplacian_hat.tolist(),
                "adjacency_hat": rg.adjacency_hat.tolist(),
                "m_hat": rg.m_hat.tolist(),
            },
        },
        "bounds": report_to_dict(report),
    }
    if an.not_aep:
        l_aep, delta = project_to_aep_laplacian(ns.laplacian, pi, an.deviation)
        out["l_aep"] = {
            "matrix": l_aep.tolist(),
            "delta_frobenius": delta,
            "has_negative_weights": has_negative_weights(l_aep),
        }
    if oracle:
        out["oracle_checks"] = _oracle_checks(an, report)
    out["timings"] = {"total_s": time.perf_counter() - started}
    return _write(dump_json(out), args.out)


def cmd_example(args) -> int:
    if args.seed < 0:
        return _fail(EXIT_VALIDATION, "flags", f"--seed must be nonnegative, got {args.seed}")
    try:
        payload = generate_example(args.name, seed=args.seed)
    except UnknownExample as exc:
        return _fail(EXIT_VALIDATION, "UnknownExample", str(exc))
    return _write(dump_json(payload), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netred",
        description="Cluster-based reduction of leader-follower networks with "
        "H2/Hinf norms and a-priori error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a network description file")
    analyze.add_argument("input", help="path to a network JSON file")
    analyze.add_argument("--norms", help="comma-separated subset of h2,hinf")
    analyze.add_argument(
        "--triangle",
        action="store_true",
        help="allow non-AEP partitions via the optimal AEP-compatible approximation",
    )
    analyze.add_argument(
        "--oracle-check",
        action="store_true",
        help="recompute true errors with frequency-domain oracles",
    )
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    example = sub.add_parser("example", help="emit a ready-to-run input file")
    example.add_argument("name", help=" | ".join(EXAMPLES))
    example.add_argument("--seed", type=int, default=0, help="seed for random examples")
    example.add_argument("--out", help="write the file here instead of stdout")
    example.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
