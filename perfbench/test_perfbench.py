"""Self-tests of the benchmark harness (fast; no timed runs)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from unruh_kinetics import cli, core, master  # noqa: E402


def _cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _op(workload: str, name: str, seed: int = 5) -> dict:
    return next(op for op in workloads.WORKLOADS[workload](seed) if op["name"] == name)


# -- generators -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    gen = workloads.WORKLOADS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_relaxation_step_counts_do_not_depend_on_seed():
    for seed in range(5):
        for op in workloads.relaxation(seed):
            gamma = master.relaxation_rate(op["omega0"], op["beta"])
            steps = math.ceil(gamma * op["tau_end"] / master.Z_DEFAULT)
            want = {"hot": workloads.HOT_STEPS, "cold": workloads.COLD_STEPS,
                    "output": workloads.OUTPUT_STEPS}[op["name"]]
            assert steps == want


def test_rate_scan_covers_every_cell_and_the_contract_point():
    ops = workloads.rate_scan(3)
    assert (ops[0]["omega0"], ops[0]["alpha"]) == workloads.CONTRACT_POINT
    assert ops[0]["gate_planck"] and not any(op["gate_planck"] for op in ops[1:])
    cells = {(int((op["omega0"] - 0.5) / 0.375), int((op["alpha"] - 0.5) / 0.625))
             for op in ops[1:]}
    assert cells == {(i, j) for i in range(4) for j in range(4)}


# -- output checks ------------------------------------------------------------

def _steady_case():
    op = _op("cli_defaults", "steady")
    return op, _cli_output(op["argv"])


def test_correct_output_passes():
    op, text = _steady_case()
    outcomes = run.Outcomes()
    outcomes.check(op, (0, text, ""))
    assert outcomes.attempted == 1 and outcomes.failures == []


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1.00000000000e-01"])
def test_nan_inf_or_wrong_value_counts_as_failed(bad):
    op, text = _steady_case()
    header, row = text.splitlines()
    cells = row.split(",")
    cells[2] = bad  # sigma_plus
    outcomes = run.Outcomes()
    outcomes.check(op, (0, header + "\n" + ",".join(cells) + "\n", ""))
    assert outcomes.attempted == 1 and len(outcomes.failures) == 1


def test_exit_code_and_traceback_count_as_failed():
    op, text = _steady_case()
    outcomes = run.Outcomes()
    outcomes.check(op, (1, text, "error: x"))
    outcomes.check(op, (0, text, "Traceback (most recent call last):\n"))
    assert len(outcomes.failures) == 2


def test_populations_check_catches_a_large_defect():
    op = dict(_op("cli_defaults", "populations"))
    text = _cli_output(op["argv"])
    checks.check_populations(op, text)
    lines = text.splitlines()
    cells = lines[50].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)  # numeric sigma_plus off by 1e-6
    lines[50] = ",".join(cells)
    with pytest.raises(checks.CheckFailed):
        checks.check_populations(op, "\n".join(lines) + "\n")


def test_scan_check_rejects_nan():
    op = workloads.rate_scan(1)[0]
    values = {k: 1.0 for k in ("vf0", "rr0", "total0")}
    values["vf0"] = math.nan
    outcomes = run.Outcomes()
    outcomes.check(op, (True, values))
    assert len(outcomes.failures) == 1


def test_verify_check_requires_every_check_to_pass():
    report = {"checks": [{"check": "a", "status": "pass", "error": 0.0, "tol": 1.0},
                         {"check": "b", "status": "fail", "error": 2.0, "tol": 1.0}],
              "passed": 1, "total": 2}
    with pytest.raises(checks.CheckFailed):
        checks.check_verify({}, json.dumps(report))


# -- tracer -------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    original_validate = core.validate
    original_cmd = cli._COMMANDS["sweep"]
    t = tracer_mod.Tracer().install()
    try:
        assert core.validate is not original_validate
        assert cli.validate is core.validate  # the `from .core import` copy
        assert cli._COMMANDS["sweep"] is not original_cmd
        assert cli._COMMANDS["sweep"] is cli.cmd_sweep
    finally:
        t.uninstall()
    assert core.validate is original_validate and cli.validate is original_validate
    assert cli._COMMANDS["sweep"] is original_cmd


def test_sweep_points_on_pool_threads_nest_under_cmd_sweep():
    sink = io.StringIO()
    t = tracer_mod.Tracer(stdout=sink).install()
    try:
        with contextlib.redirect_stdout(sink):
            cli.main(["sweep", "--sweep.count", "40"])
    finally:
        t.uninstall()
    sweep = next(s for s in t.spans if s[0] == "cli.cmd_sweep")
    points = [s for s in t.spans if s[0] == "master.steady_state"]
    assert len(points) == 40 and all(s[3] is sweep for s in points)
    metrics = t.layer_metrics()
    total, self_s = metrics["cli.cmd_sweep.total_s"], metrics["cli.cmd_sweep.self_s"]
    assert 0.0 <= self_s <= total
    assert metrics["cli.emit.bytes"] == len(sink.getvalue().encode())


def test_covered_counts_overlapping_children_once():
    spans = [["a", 1.0, 3.0], ["b", 2.0, 4.0], ["c", 6.0, 7.0], ["d", 9.0, 12.0]]
    assert tracer_mod._covered(0.0, 10.0, spans) == pytest.approx(3.0 + 1.0 + 1.0)


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(tracer_mod, "SPANS", tracer_mod.SPANS + [("core", "no_such")])
    monkeypatch.setattr(tracer_mod, "COUNTS", tracer_mod.COUNTS + [("nowhere", "f")])
    t = tracer_mod.Tracer().install()
    t.uninstall()
    assert t.absent == ["core.no_such", "nowhere.f"]
    metrics = t.layer_metrics()
    assert metrics["core.no_such.calls"] == 0 and metrics["nowhere.f.calls"] == 0


def test_integrand_evaluations_are_counted():
    from unruh_kinetics import numerics

    t = tracer_mod.Tracer().install()
    try:
        calls = []
        numerics.half_line_cos_sin_integral(lambda u: calls.append(u) or u, 1.0)
    finally:
        t.uninstall()
    assert t.layer_metrics()["numerics.integrand_evals"] == len(calls) > 0


def test_counts_are_exact_across_threads():
    t = tracer_mod.Tracer()
    counted = t._count_wrapper("x.f", lambda: None)
    threads = [threading.Thread(target=lambda: [counted() for _ in range(2000)])
               for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)
    assert t.layer_metrics()["x.f.calls"] == 8000


# -- metric names and the entry point ------------------------------------------

def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_traced_pass_names_every_per_layer_metric():
    t = tracer_mod.Tracer().install()
    t.uninstall()
    produced = set(t.layer_metrics())
    produced |= set(run.parse_importtime(""))
    produced |= {"floor.python_s", "floor.numpy_s", "rates.vf_rel_err_max",
                 "response.oracle_rel_err_max", "trace.overhead_frac"}
    assert set(run.PER_LAYER) <= produced


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |       2000 |   scipy.special\n"
        "import time:        50 |       3000 | scipy.integrate\n"
        "import time:        40 |         40 |     unruh_kinetics.core\n"
        "import time:        60 |       9000 | unruh_kinetics\n"
    )
    got = run.parse_importtime(text)
    assert got == {"import.scipy_special_s": 0.002, "import.scipy_integrate_s": 0.003,
                   "import.unruh_kinetics_self_s": 0.0001}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_defaults",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
