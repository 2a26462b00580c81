#!/usr/bin/env python3
"""Benchmark for unruh-kinetics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
single-threaded client process drives the workload closed loop, one operation
at a time, and repeats the workload's operations ("a pass") until ``--seconds``
would be exceeded (at least two passes with ``--trace 0``).  The seed fixes
the inputs; every pass runs the same inputs.

``--trace 0`` reports the end-to-end metrics.  CLI operations are one
``unruh-kinetics <command>`` process each (the console script's entry point,
interpreter start included); ``rate_scan`` sends its points to one
long-lived worker process whose start-up is left out.

  setup_s      median over 3 fresh interpreters of ``import unruh_kinetics.cli``
  wall_s       median over passes of the pass's operation time
  op_p50_s     median time of one operation over all passes
  peak_rss_mb  largest peak resident set of any child process of the run

Times are scaled to a nominal machine speed.  On a shared CPU the speed a
process gets drifts by up to 2x over tens of seconds, and that drift, not the
program, dominated the spread between runs.  So each operation is paired with
a speed reference measured just before it, and its time is multiplied by
(nominal reference time / measured reference time):

  * CLI operations and set-up: a fresh ``python -c "import numpy"`` process
    (nominal 0.2 s), which tracks process start-up and imports;
  * rate_scan points: the worker's fixed Python-loop + numpy probe
    (``scan_worker.probe``, nominal 3 ms), which tracks in-process compute.

A pass's time is the sum of its scaled operation times.  The references run
no code of the package, so a change to the program moves the scaled times as
it moves the raw ones.  The raw times are in the BENCH file.

``--trace 1`` reports the per-layer metrics instead.  The import layers come
from ``python -X importtime`` and the two floor processes (``python -c pass``
and ``import numpy``).  The operations then run in this process
(``unruh_kinetics.cli.main(argv)``, or the scan worker's ``evaluate``) in
alternating untraced and traced passes, untraced first, so the first pass
also carries first-call costs such as lazy imports.  Layer values are raw
(unscaled) and per traced pass; ``trace.overhead_frac`` is the median traced
pass over the median untraced pass, minus 1.

Every operation's output is checked (see ``checks.py``).  An operation fails
on a non-zero exit, a traceback, a non-finite number or a failed check.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the run environment, goes
to ``bench_results/BENCH_<workload>_seed<seed>_trace<t>.json``.

The harness times only its own processes.  It does not pin CPUs, drop caches
or change any machine setting.  Commands get ``UNRUH_KINETICS_THREADS`` set
to the number of CPUs this process may run on, so ``sweep`` never starts more
threads than that.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench_results"

SETUP_REPEATS = 3
LAYER_REPEATS = 3
MIN_PASSES = 2
OP_TIMEOUT_S = 60.0
CLI_ENTRY = "import sys; from unruh_kinetics.cli import main; sys.exit(main())"
IMPORT_CLI = "import unruh_kinetics.cli"
# Speed references (see the module docstring) and their nominal times, the
# typical values on the 2-CPU machine the benchmark was written on.
REF_PROCESS = "import numpy"
REF_PROCESS_S = 0.2
REF_COMPUTE_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

_SPAN = ("calls", "total_s", "self_s")
_SPAN_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def _span_metrics(name: str, parts=_SPAN) -> dict[str, str]:
    return {f"{name}.{p}": _SPAN_UNITS[p] for p in parts}


PER_LAYER: dict[str, str] = {
    "import.scipy_special_s": "s",
    "import.scipy_integrate_s": "s",
    "import.unruh_kinetics_self_s": "s",
    "floor.python_s": "s",
    "floor.numpy_s": "s",
    **_span_metrics("cli.load_config"),
    **_span_metrics("core.validate"),
    "cli.cmd_sweep.self_s": "s",
    "cli.cmd_kernel.self_s": "s",
    **_span_metrics("cli.emit"),
    "cli.emit.bytes": "bytes",
    **_span_metrics("kernels.g_thermal_accelerated"),
    **_span_metrics("response.response_accelerated"),
    **_span_metrics("master.steady_state"),
    **_span_metrics("rates.atom_total_rate"),
    **_span_metrics("master.evolve"),
    "master.evolve.steps": "count",
    **_span_metrics("master.closed_form"),
    **_span_metrics("rates.derivative_coupling_rates"),
    **_span_metrics("rates.field_rates"),
    **_span_metrics("numerics.half_line_cos_sin_integral"),
    "numerics.integrand_evals": "count",
    "numerics.neville.calls": "count",
    "kernels.image_sum_inverse_power.calls": "count",
    **_span_metrics("response.planck_response_oracle"),
    **_span_metrics("numerics.damped_line_integral"),
    **_span_metrics("kernels.thermal_image_sum"),
    **_span_metrics("kernels.wightman_vacuum_accelerated_sum"),
    **_span_metrics("kernels.g_thermal_inertial_sum"),
    **_span_metrics("kernels.image_sum_inverse_power_sum"),
    **_span_metrics("fermion.fermion_rates"),
    "rates.vf_rel_err_max": "ratio",
    "response.oracle_rel_err_max": "ratio",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["UNRUH_KINETICS_THREADS"] = str(cpus_available())
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, env) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpus_available(),
        "os_cpu_count": os.cpu_count(),
        "unruh_kinetics_threads": env["UNRUH_KINETICS_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "client": "one single-threaded process, closed loop, one operation at a time",
        "isolation": "times only its own processes; does not pin CPUs or drop caches",
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def python_wall(code: str, env, *flags: str) -> tuple[float, str]:
    """Wall time of one fresh interpreter running ``code``, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed: {proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def run_cli_process(op: dict, tracer=None, *, env) -> tuple[int, str, str]:
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *op["argv"]], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", f"timed out after {OP_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


class ScanWorker:
    """The long-lived rate_scan process; one JSON request line per point."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "scan_worker.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if not self.request({"ping": True}).get("ok"):
            raise RuntimeError("rate-scan worker did not start")

    def request(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError as exc:
            return {"ok": False, "error": f"worker pipe: {exc}"}
        if not line:
            return {"ok": False, "error": "worker exited"}
        return json.loads(line)

    def probe(self) -> float:
        reply = self.request({"probe": True})
        if not reply.get("ok"):
            raise RuntimeError(f"rate-scan worker probe failed: {reply.get('error')}")
        return reply["seconds"]

    def __call__(self, op: dict, tracer=None) -> tuple[bool, object]:
        reply = self.request({"omega0": op["omega0"], "alpha": op["alpha"]})
        return reply["ok"], reply.get("values", reply.get("error"))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_cli_inprocess(op: dict, tracer=None) -> tuple[int, str, str]:
    from unruh_kinetics import cli

    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.stdout = out
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the operation failed; its traceback is the report
            code = 1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_scan_inprocess(op: dict, tracer=None) -> tuple[bool, object]:
    from scan_worker import evaluate

    try:
        return True, evaluate(op["omega0"], op["alpha"])
    except Exception as exc:  # the operation failed; reported as such
        return False, f"{type(exc).__name__}: {exc}"


class Outcomes:
    """Checks every operation's output and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.vf_rel_err_max = 0.0
        self.planck_rel_err_max = 0.0

    def check(self, op: dict, outcome) -> None:
        import checks

        self.attempted += 1
        try:
            if op["kind"] == "scan":
                ok, payload = outcome
                if not ok:
                    raise checks.CheckFailed(str(payload))
                acc = checks.check_scan(op, payload)
                self.vf_rel_err_max = max(self.vf_rel_err_max, acc["vf_rel_err"])
                self.planck_rel_err_max = max(self.planck_rel_err_max, acc["planck_rel_err"])
            else:
                checks.check_cli(op, *outcome)
        except checks.CheckFailed as exc:
            self.failures.append(f"{op['name']}: {exc}")
        except Exception as exc:  # a malformed output can break a check anywhere
            self.failures.append(f"{op['name']}: check raised {type(exc).__name__}: {exc}")


def run_pass(ops, run_op, outcomes: Outcomes, tracer=None) -> float:
    """One pass over the operations; returns its wall time.  An installed
    tracer is removed at the end of the pass; outputs are checked after that,
    outside the timed region."""
    results = []
    t_pass = time.perf_counter()
    try:
        for op in ops:
            results.append(run_op(op, tracer))
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, outcome in zip(ops, results):
        outcomes.check(op, outcome)
    return wall


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(workload: str, ops, seconds: float, env, outcomes: Outcomes) -> dict:
    """End-to-end metrics, each time scaled to the nominal reference speed."""
    def process_ref() -> float:
        return python_wall(REF_PROCESS, env)[0]

    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        scale = REF_PROCESS_S / process_ref()
        setup_raw.append(python_wall(IMPORT_CLI, env)[0])
        setup.append(setup_raw[-1] * scale)
    worker = ScanWorker(env) if workload == "rate_scan" else None
    if worker is not None:
        run_op, reference, nominal = worker, worker.probe, REF_COMPUTE_S
    else:
        run_op = functools.partial(run_cli_process, env=env)
        reference, nominal = process_ref, REF_PROCESS_S
    walls_raw, walls, ops_raw, ops_scaled, refs = [], [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            results, raw, scales = [], [], []
            for op in ops:
                ref = reference()
                t0 = time.perf_counter()
                results.append(run_op(op))
                raw.append(time.perf_counter() - t0)
                refs.append(ref)
                scales.append(nominal / ref)
            scaled = [r * k for r, k in zip(raw, scales)]
            walls_raw.append(sum(raw))
            walls.append(sum(scaled))
            ops_raw.extend(raw)
            ops_scaled.extend(scaled)
            for op, outcome in zip(ops, results):
                outcomes.check(op, outcome)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + statistics.fmean(walls_raw) > seconds:
                break
    finally:
        if worker is not None:
            worker.close()
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(ops_scaled),
            "peak_rss_mb": peak_mb,
        },
        "raw_metrics": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(walls_raw),
            "op_p50_s": statistics.median(ops_raw),
        },
        "samples": {"setup_raw_s": setup_raw, "pass_raw_s": walls_raw,
                    "op_raw_s": ops_raw, "reference_s": refs},
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* layers from ``python -X importtime`` output, in seconds.

    scipy.special / scipy.integrate are the cumulative times on the line where
    each is first imported (0 when not imported); unruh_kinetics_self_s sums
    the self times of the package's own modules.
    """
    cumulative: dict[str, int] = {}
    own_self = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cum, name = line.split("|", 2)
        name = name.strip()
        try:
            self_us, cum_us = int(head.split(":", 1)[1]), int(cum)
        except ValueError:
            continue  # the column header line
        cumulative.setdefault(name, cum_us)
        if name == "unruh_kinetics" or name.startswith("unruh_kinetics."):
            own_self += self_us
    return {
        "import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
        "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0) / 1e6,
        "import.unruh_kinetics_self_s": own_self / 1e6,
    }


def setup_layers(env) -> dict[str, float]:
    runs = [parse_importtime(python_wall(IMPORT_CLI, env, "-X", "importtime")[1])
            for _ in range(LAYER_REPEATS)]
    layers = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    layers["floor.python_s"] = statistics.median(
        python_wall("pass", env)[0] for _ in range(LAYER_REPEATS))
    layers["floor.numpy_s"] = statistics.median(
        python_wall(REF_PROCESS, env)[0] for _ in range(LAYER_REPEATS))
    return layers


def traced_run(workload: str, ops, seconds: float, env, outcomes: Outcomes) -> dict:
    from tracer import Tracer

    layers = setup_layers(env)
    os.environ["UNRUH_KINETICS_THREADS"] = env["UNRUH_KINETICS_THREADS"]
    run_op = run_scan_inprocess if workload == "rate_scan" else run_cli_inprocess
    start = time.perf_counter()
    plain: list[float] = []
    traced: list[float] = []
    totals: dict[str, float] = {}
    absent: set[str] = set()
    while True:
        plain.append(run_pass(ops, run_op, outcomes))
        tracer = Tracer().install()
        traced.append(run_pass(ops, run_op, outcomes, tracer=tracer))
        absent.update(tracer.absent)
        for key, value in tracer.layer_metrics().items():
            totals[key] = totals.get(key, 0.0) + value
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(plain) + statistics.fmean(traced) > seconds:
            break
    for key, value in totals.items():
        per_pass = value / len(traced)
        layers[key] = round(per_pass) if PER_LAYER.get(key) in ("count", "bytes") else per_pass
    layers["rates.vf_rel_err_max"] = outcomes.vf_rel_err_max
    layers["response.oracle_rel_err_max"] = outcomes.planck_rel_err_max
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {
        "metrics": {name: layers[name] for name in PER_LAYER},
        "samples": {"plain_pass_s": plain, "traced_pass_s": traced},
        "absent": sorted(absent),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unruh_kinetics" / "cli.py").is_file():
        print(f"error: {SRC / 'unruh_kinetics'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload](args.seed)
    env = child_env()
    record = {"environment": environment(args, env), "operations": ops}
    outcomes = Outcomes()
    if args.trace:
        result = traced_run(args.workload, ops, args.seconds, env, outcomes)
        units = PER_LAYER
    else:
        result = timed_run(args.workload, ops, args.seconds, env, outcomes)
        units = END_TO_END
    failed = len(outcomes.failures)
    record.update(result)
    record.update({
        "attempted": outcomes.attempted,
        "failed": failed,
        "failed_frac": failed / max(outcomes.attempted, 1),
        "failures": outcomes.failures,
        "rates_vf_rel_err_max": outcomes.vf_rel_err_max,
        "response_oracle_rel_err_max": outcomes.planck_rel_err_max,
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    for message in outcomes.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    for name, unit in units.items():
        print(f"{name} = {result['metrics'][name]} {unit}")
    print(f"failed_frac = {record['failed_frac']} ({failed} of {outcomes.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
