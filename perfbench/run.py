"""Benchmark of ``netred analyze``: one command, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder-small --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed list of instances twice, untraced and then traced, and prints
the per-layer metrics.  Every call is run in this process through
``netred.cli.main`` (closed loop, one client) and every outcome is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any check failed and 2 when the package cannot be found.

``--smoke`` runs the same workloads at tiny sizes; ``--record`` rewrites
the reference reports from the code at hand (see README.md).
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy loads: one thread is steadier on a shared
# machine and is inherited by the set-up interpreters.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Per process, so that two runs in one checkout do not share files.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
SETUP_REPEATS = 5
# Traced self times must add up to the traced call time within this share.
STAGE_SUM_RTOL = 0.05
# A workload needs this many calls per run before its p90 has ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END = {
    "instances_per_s": "1/s",
    "analyze_p50_s": "s",
    "analyze_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Groups that must record calls on a workload (the traced run fails otherwise).
_ALWAYS = (
    "netfile.parse netfile.serialize graphcore.laplacian graphcore.aep_test "
    "graphcore.connectivity graphcore.reduce linalg.sym_eig linalg.hurwitz linalg.lyapunov "
    "linalg.schur_split netsys.assemble netsys.sync_test norms.hinf_sweep norms.h2_lyapunov "
    "norms.hinf_dc norms.aux_gramian bounds.full_report bounds.aep_bounds"
).split()
EXPECTED_CALLS = {
    "ladder-small": _ALWAYS
    + ["norms.h2_quadrature", "bounds.triangle", "graphcore.aep_projection"],
    "aep-symmetric-large": _ALWAYS,
    "triangle-si-large": _ALWAYS + ["bounds.triangle", "graphcore.aep_projection"],
}


def per_layer_units() -> dict:
    units = {}
    for group in tracing.GROUPS:
        units[f"{group}_s"] = "s"
        units[f"{group}_calls"] = "count"
    units.update(
        {
            "bounds.full_report_self_s": "s",
            "cli.analyze_self_s": "s",
            "norms.gain_evals": "count",
            "norms.sweep_flops_computed": "flop",
            "netsys.error_states": "states",
            "netfile.report_bytes": "bytes",
        }
    )
    units.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})
    units.update(
        {
            "src.lines": "lines",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class Failures:
    """Counts failed operations and keeps the first messages for stderr."""

    def __init__(self):
        self.count = 0
        self.messages = []
        self.global_errors = []

    def add(self, label, errors):
        if errors:
            self.count += 1
            self.messages.extend(f"{label}: {e}" for e in errors[:3])

    def fail(self, message):
        self.global_errors.append(message)
        self.messages.append(message)


class Runner:
    """Runs ``netred analyze`` on pool instances and checks every outcome."""

    def __init__(self, workload, refs, failures):
        import netred.cli

        self.cli = netred.cli
        self.workload = workload
        self.refs = refs
        self.failures = failures
        self._inputs = {}  # key -> (path, text)
        self.out = WORK / "report.json"

    def input(self, slot, variant):
        key = workloads.instance_key(slot, variant)
        if key not in self._inputs:
            text = workloads.build_text(slot, variant)
            path = WORK / (key.replace("/", "_") + ".json")
            path.write_text(text, encoding="utf-8")
            self._inputs[key] = (path, text)
        return key, *self._inputs[key]

    def call(self, slot, variant, tracer=None, check=True):
        """One timed ``analyze`` call; returns (seconds, report or None, errors)."""
        key, path, text = self.input(slot, variant)
        argv = ["analyze", str(path), "--out", str(self.out), *self.workload.flags]
        self.out.unlink(missing_ok=True)
        stderr = io.StringIO()
        code, crash = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(tracing.ROOT, self.cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
            crash = exc
        elapsed = time.perf_counter() - start
        if crash is not None:
            errors = [f"exception {type(crash).__name__}: {crash}"]
            self.failures.add(key, errors)
            return elapsed, None, errors
        report = None
        if code == 0 and self.out.exists():
            report = json.loads(self.out.read_text(encoding="utf-8"))
        errors = []
        if check:
            ref = self.refs.get(key)
            errors = checks.check_outcome(slot, ref, text, code, report, stderr.getvalue())
            self.failures.add(key, errors)
        return elapsed, report, errors


def warm_up(runner):
    """Untimed calls, one per slot kind at its largest size.

    Imports and lazy set-up finish here, and so does the allocator's growth
    to the largest working set: the first call at a new size is 15-20%
    slower than the next ones.
    """
    largest = {}
    for slot in runner.workload.cycle:
        if slot.size >= largest.get(slot.kind, slot).size:
            largest[slot.kind] = slot
    for slot in largest.values():
        runner.call(slot, 0, check=False)


def measure_setup(paths) -> float:
    """Wall time of a fresh interpreter that imports netred.cli and loads the inputs.

    A malformed input that is not valid JSON is read and its parse error
    ignored, as the CLI would before refusing it.
    """
    # The child prints its own end time: waiting with a timeout polls, which
    # would round the parent's measurement.  CLOCK_MONOTONIC is system-wide.
    script = (
        "import json, sys, time\nimport netred.cli\n"
        "for p in sys.argv[1:]:\n    with open(p, encoding='utf-8') as f:\n"
        "        try:\n            json.load(f)\n        except ValueError:\n            pass\n"
        "print(time.monotonic())\n"
    )
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", script, *paths],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, timeout=120, cwd=ROOT, capture_output=True, text=True,
    )
    return float(done.stdout.split()[-1]) - start


def percentile90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds, runner, failures):
    """Whole cycles until the call times reach ``seconds``.

    The speed probe is sampled after every call and every set-up sample,
    and each of them is put on the reference speed by the samples on either
    side of it (see speed.py); the times as measured are printed beside
    the metrics.  The set-up samples are spread over the run (before it, at
    even shares of it, after it), so that one slow moment of the machine
    does not set the median.
    """
    probe = speed.Probe()
    sequence = workloads.cycles(workload, seed)
    cycle = next(sequence)
    paths = [str(runner.input(slot, variant)[1]) for slot, variant in cycle]
    setup, scaled_setup, times, scaled = [], [], [], []
    before = probe.sample(0.0)

    def timed(elapsed, raw, scaled_list):
        nonlocal before
        after = probe.sample(elapsed)
        raw.append(elapsed)
        scaled_list.append(elapsed * speed.scale(before, after))
        before = after

    timed(measure_setup(paths), setup, scaled_setup)
    while True:
        for slot, variant in cycle:
            timed(runner.call(slot, variant)[0], times, scaled)
        if sum(times) >= seconds:
            break
        if sum(times) >= seconds * len(setup) / (SETUP_REPEATS - 1):
            timed(measure_setup(paths), setup, scaled_setup)
        cycle = next(sequence)
    rss = peak_rss_mb()
    while len(setup) < SETUP_REPEATS:
        timed(measure_setup(paths), setup, scaled_setup)
    attempted = len(times)

    def timing(calls, setups):
        return {
            "instances_per_s": attempted / sum(calls),
            "analyze_p50_s": statistics.median(calls),
            "analyze_p90_s": percentile90(calls),
            "setup_s": statistics.median(setups),
        }

    as_measured = timing(times, setup)
    metrics = timing(scaled, scaled_setup)
    metrics.update(
        {
            "peak_rss_mb": rss,
            "success_rate": (attempted - failures.count) / attempted,
        }
    )
    print(f"calls timed: {attempted} (p90 has ten samples beyond it: "
          f"{attempted >= P90_MIN_SAMPLES}); set-up samples: {len(setup)}")
    print(f"speed factor (median over calls): "
          f"{statistics.median(s / t for s, t in zip(scaled, times))!r}")
    for name, value in as_measured.items():
        print(f"as measured, unscaled: {name} = {value!r} {END_TO_END[name]}")
    print(f"error_rate: {failures.count / attempted!r} ratio")
    return attempted, metrics


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "netred").glob("*.py"))
    )


def run_traced(workload, seed, seconds, runner, failures):
    """A fixed list of whole cycles, run untraced and then traced."""
    n_cycles = max(1, int(seconds / 2 / workload.nominal_cycle_s))
    sequence = workloads.cycles(workload, seed)
    instances = [item for _ in range(n_cycles) for item in next(sequence)]
    plain, plain_s = [], 0.0
    for slot, variant in instances:
        elapsed, report, _ = runner.call(slot, variant)
        plain.append(report)
        plain_s += elapsed
    traced_s = 0.0
    with tracing.Tracer() as tracer:
        print(f"wrapped bindings: {len(tracer.bindings())}")
        for idx, (slot, variant) in enumerate(instances):
            elapsed, report, _ = runner.call(slot, variant, tracer=tracer)
            traced_s += elapsed
            if (report is None) != (plain[idx] is None) or (
                report is not None
                and checks.strip_timings(report) != checks.strip_timings(plain[idx])
            ):
                key = runner.input(slot, variant)[0]
                failures.add(key, ["traced report differs from untraced"])
    for group in EXPECTED_CALLS[workload.name]:
        if tracer.stats[group].calls == 0:
            failures.fail(f"trace: {group} recorded no call on {workload.name}")
    metrics = tracer.metrics()
    stage_sum = sum(tracer.layer_self_s().values())
    print(f"traced instances: {len(instances)}; layer self times sum to "
          f"{stage_sum!r} s of {traced_s!r} s traced call time")
    if abs(stage_sum / traced_s - 1.0) > STAGE_SUM_RTOL:
        failures.fail(f"trace: layer self times sum to {stage_sum:.4f} s of {traced_s:.4f} s")
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["src.lines"] = src_lines()
    return 2 * len(instances), metrics


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes when the library is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed) -> dict:
    import numpy
    import scipy

    import netred

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "netred": getattr(netred, "__version__", "unknown"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines(),
    }


def record(workload, refs_path):
    """Run every pool instance once and store its outcome as the reference."""
    runner = Runner(workload, {}, Failures())
    instances = {}
    for slot, variant in workloads.pool(workload):
        key, _, text = runner.input(slot, variant)
        _, report, _ = runner.call(slot, variant, check=False)
        entry = {"input_sha256": checks.input_sha(text)}
        if slot.expect_exit == 0:
            if report is None:
                raise SystemExit(f"{key}: analyze failed while recording")
            entry["answers"] = checks.compact(checks.answers(report))
        instances[key] = entry
    checks.save_refs(refs_path, {"workload": workload.name, "instances": instances})
    print(f"recorded {len(instances)} instances to {refs_path}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--record", action="store_true", help="rewrite the references")
    parser.add_argument("--refs", type=Path, default=HERE / "refs", help="reference directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netred" / "cli.py").is_file():
        print(f"netred sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    refs_path = args.refs / f"{'smoke-' if args.smoke else ''}{workload.name}.json.gz"

    WORK.mkdir(parents=True)
    try:
        if args.record:
            record(workload, refs_path)
            return 0
        refs = checks.load_refs(refs_path)["instances"]
        failures = Failures()
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        runner = Runner(workload, refs, failures)
        warm_up(runner)
        run = run_traced if args.trace else run_untraced
        attempted, metrics = run(workload, args.seed, args.seconds, runner, failures)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    units = per_layer_units() if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]!r} {unit}")
    for message in failures.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    correct = failures.count == 0 and not failures.global_errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
