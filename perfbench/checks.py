"""Correctness checks of the reports the benchmark collects.

Three checks run on every ``analyze`` call:

* the outcome: exit code 0 with a report, or the expected refusal code with
  a JSON error on stderr;
* the answers against the reference recorded for the same pool instance
  (analysis flags, spectra, quotient matrices, bounds, norm values, the AEP
  projection and the oracle values; certificates, methods and ``timings``
  are diagnostics and are not compared);
* the invariants: every finite bound is at least its true error, the exact
  single-integrator H-infinity error is at least the swept one, and the
  oracle gaps stay under fixed thresholds.

Tolerances
----------
``RTOL`` = 1e-6 is the accuracy the slowest-converging route of the
package certifies for itself: the H-infinity sweep refines the peak
frequency to a relative width of 1e-6 and its value is accepted when a
second route agrees to that width.  Every compared value is a
deterministic function of the input, so rounding (about 1e-15 relative)
is the only legitimate source of difference between commits or BLAS
builds; 1e-6 leaves room for a different but equally exact algorithm.
``ATOL`` = 1e-7 absorbs quantities whose exact value is zero: an H2 norm is
the square root of a quadratic form, so a rounding-level 1e-15 reads as
up to about 3e-8.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math

RTOL = 1e-6
ATOL = 1e-7
# The H2 quadrature oracle (trapezoid rule at 60 points per decade on
# [1e-4, 1e4] rad/s, Richardson-extrapolated, analytic tail) agrees with the
# Lyapunov value to a median relative gap of 4e-8 over the 194 analysable
# ladder instances; its worst gap is 5.6e-3, on agents whose slow or lightly
# damped modes the fixed grid resolves poorly.  A wrong Lyapunov value misses
# by far more than 1e-2.
H2_QUADRATURE_GAP_MAX = 1e-2
# The DC closed form and the sweep's exact DC anchor are the same quantity
# for single integrators on an AEP; they agree to 3e-15 on the ladder.
HINF_DC_GAP_MAX = 1e-9
# Arrays with more entries are stored as a digest instead of in full.
DIGEST_MIN = 64

_ABS_BOUNDS = {
    "true_h2_error": ("abs_h2_bound", "triangle_h2_bound"),
    "true_hinf_error": ("abs_hinf_bound", "triangle_hinf_bound", "hinf_exact_error"),
}


def input_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def _value(entry):
    if isinstance(entry, dict) and "value" in entry and "method" in entry:
        return entry["value"]
    return entry


def answers(report: dict) -> dict:
    """The parts of a report that are answers rather than diagnostics."""
    analysis = report["analysis"]
    out = {
        "analysis": {
            k: analysis[k] for k in ("connected", "aep", "synchronized", "leaders_share_cell")
        },
        "eigenvalues": analysis["eigenvalues"],
        "reduction": analysis["reduction"],
        "bounds": {k: _value(v) for k, v in report["bounds"].items()},
    }
    if "l_aep" in report:
        out["l_aep"] = report["l_aep"]
    if "oracle_checks" in report:
        out["oracle_checks"] = {k: v["value"] for k, v in report["oracle_checks"].items()}
    return out


def _flatten(obj, out):
    if isinstance(obj, list):
        for item in obj:
            if not _flatten(item, out):
                return False
        return True
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append(float(obj))
        return True
    return False


def _shape(obj):
    shape = []
    while isinstance(obj, list):
        shape.append(len(obj))
        obj = obj[0] if obj else None
    return shape


def _digest(values, shape):
    """Shape, norms and a position-weighted sum: catches value and order changes."""
    probe = sum(math.sin(k + 1.0) * v for k, v in enumerate(values))
    scale = sum(abs(math.sin(k + 1.0) * v) for k, v in enumerate(values))
    return {
        "digest": {
            "shape": shape,
            "l2": math.sqrt(sum(v * v for v in values)),
            "max": max(values),
            "min": min(values),
            "probe": probe,
            "probe_scale": scale,
        }
    }


def compact(obj):
    """Replace every large numeric array by its digest (for storage)."""
    if isinstance(obj, dict):
        return {k: compact(v) for k, v in obj.items()}
    if isinstance(obj, list):
        flat = []
        if _flatten(obj, flat) and len(flat) > DIGEST_MIN:
            return _digest(flat, _shape(obj))
        return [compact(v) for v in obj]
    return obj


def _close(actual: float, ref: float, scale: float = 0.0) -> bool:
    return abs(actual - ref) <= RTOL * max(abs(ref), scale) + ATOL


def compare(ref, actual, path="$", errors=None) -> list:
    """Differences between a stored reference and a fresh answers dict."""
    errors = [] if errors is None else errors
    if isinstance(ref, dict) and set(ref) == {"digest"}:
        flat = []
        if not isinstance(actual, list) or not _flatten(actual, flat) or not flat:
            errors.append(f"{path}: expected a numeric array")
            return errors
        want, got = ref["digest"], _digest(flat, _shape(actual))["digest"]
        if got["shape"] != want["shape"]:
            errors.append(f"{path}: shape {got['shape']} != {want['shape']}")
        for key in ("l2", "max", "min"):
            if not _close(got[key], want[key], want["l2"]):
                errors.append(f"{path}.{key}: {got[key]!r} != {want[key]!r}")
        if not _close(got["probe"], want["probe"], want["probe_scale"]):
            errors.append(f"{path}.probe: {got['probe']!r} != {want['probe']!r}")
        return errors
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            errors.append(f"{path}: expected an object")
            return errors
        for key, value in ref.items():
            if key not in actual:
                errors.append(f"{path}.{key}: missing")
            else:
                compare(value, actual[key], f"{path}.{key}", errors)
        return errors
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            errors.append(f"{path}: expected a list of {len(ref)}")
            return errors
        for idx, (r, a) in enumerate(zip(ref, actual)):
            compare(r, a, f"{path}[{idx}]", errors)
        return errors
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if not isinstance(actual, numeric) or isinstance(actual, bool):
            errors.append(f"{path}: {actual!r} is not a number")
        elif not _close(float(actual), float(ref)):
            errors.append(f"{path}: {actual!r} != {ref!r}")
        return errors
    if actual != ref:
        errors.append(f"{path}: {actual!r} != {ref!r}")
    return errors


def invariants(report: dict) -> list:
    """Bound soundness and oracle agreement; independent of any reference."""
    errors = []
    bounds = report["bounds"]
    for true_key, bound_keys in _ABS_BOUNDS.items():
        true = _value(bounds.get(true_key))
        if true is None:
            continue
        for key in bound_keys:
            bound = bounds.get(key)
            if bound is not None and math.isfinite(bound) and true > bound * (1 + RTOL) + ATOL:
                errors.append(f"bounds.{key} = {bound!r} < {true_key} = {true!r}")
    oracle = report.get("oracle_checks", {})
    gap = oracle.get("true_h2_error_quadrature", {}).get("relative_gap", 0.0)
    if gap > H2_QUADRATURE_GAP_MAX:
        errors.append(f"H2 quadrature gap {gap!r} > {H2_QUADRATURE_GAP_MAX}")
    gap = oracle.get("true_hinf_error_dc", {}).get("absolute_gap", 0.0)
    if gap > HINF_DC_GAP_MAX:
        errors.append(f"H-infinity DC gap {gap!r} > {HINF_DC_GAP_MAX}")
    return errors


def error_payload(stderr_text: str):
    """The JSON error object the CLI prints on stderr, or None."""
    start = stderr_text.find('{\n  "error"')
    if start < 0:
        return None
    try:
        payload = json.JSONDecoder().raw_decode(stderr_text[start:])[0]
    except json.JSONDecodeError:
        return None
    error = payload.get("error")
    return error if isinstance(error, dict) and "kind" in error and "message" in error else None


def check_outcome(slot, ref, text, code, report, stderr_text) -> list:
    """Every way one call's outcome can differ from the expected one."""
    if ref is None:
        return ["no reference recorded for this instance"]
    if ref["input_sha256"] != input_sha(text):
        return ["generated input differs from the recorded one"]
    if code != slot.expect_exit:
        return [f"exit code {code}, expected {slot.expect_exit}"]
    if slot.expect_exit != 0:
        error = error_payload(stderr_text)
        if error is None:
            return ["refusal without a JSON error on stderr"]
        if slot.expect_kind and error["kind"] != slot.expect_kind:
            return [f"refusal kind {error['kind']!r}, expected {slot.expect_kind!r}"]
        return []
    if report.get("input") != json.loads(text):
        return ["report does not echo its input"]
    return compare(ref["answers"], answers(report)) + invariants(report)


def load_refs(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save_refs(path, refs: dict) -> None:
    # mtime=0 keeps the file byte-identical when the contents are
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(json.dumps(refs, indent=0, sort_keys=True).encode())
