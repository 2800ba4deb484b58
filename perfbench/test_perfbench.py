"""Tests of the benchmark's checker, tracer and output contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys

import pytest

import harness

hyfermi = harness.import_hyfermi()

import checks  # noqa: E402
import hyfermi.cli  # noqa: E402
import spans  # noqa: E402
from hyfermi.hyformula import F_closed  # noqa: E402
from hyfermi.quadrature import QuadratureResult  # noqa: E402

META = '{"version": "0.1.0", "seed": 42, "tolerances": {}, "wall_time_ms": 1.5}\n'
SCATTER = {"kind": "square-well", "V0": 4.0, "R": 1.0}


def _scatter_stdout(a):
    born = checks.born_length_ref("square-well", 4.0, 1.0)
    body = json.dumps({"a": a, "born": born, "residual": 1e-9, "matching_radius": 1.5},
                      indent=1)
    return body + "\n" + META


def test_good_scatter_output_passes():
    problems, stats = checks.check_cli("scatter", SCATTER, 0,
                                       _scatter_stdout(checks.square_well_length(4.0, 1.0)), "")
    assert problems == []
    assert stats["run_s"] == 1.5e-3


def test_nan_in_output_fails_even_with_exit_zero():
    problems, _ = checks.check_cli("scatter", SCATTER, 0, _scatter_stdout(float("nan")),
                                   "a = nan, born = 0.6, residual = nan")
    assert any("non-finite" in p for p in problems)


def test_missing_metadata_line_fails():
    stdout = _scatter_stdout(checks.square_well_length(4.0, 1.0)).replace(META, "")
    problems, _ = checks.check_cli("scatter", SCATTER, 0, stdout, "")
    assert any("metadata" in p for p in problems)


def test_nonzero_exit_fails():
    problems, _ = checks.check_cli("scatter", SCATTER, 1, "",
                                   "error: integration residual 1.3e-03 too large")
    assert any("exit code 1" in p for p in problems)


def test_wrong_scattering_length_fails():
    problems, _ = checks.check_cli("scatter", SCATTER, 0, _scatter_stdout(0.5), "")
    assert any("tanh" in p for p in problems)


def test_out_of_tolerance_F_fails():
    tol = 5e-3
    ok = QuadratureResult(value=F_closed(0.5) * (1 + 0.5 * tol), error_estimate=1e-9,
                          evaluations=10, elapsed=0.1)
    bad = QuadratureResult(value=F_closed(0.5) * (1 + 2 * tol), error_estimate=1e-9,
                           evaluations=10, elapsed=0.1)
    assert checks.check_F(0.5, tol, ok)[0] == []
    problems, stats = checks.check_F(0.5, tol, bad)
    assert problems and stats["err_to_tol"] > 1.0


def test_real_cli_outputs_pass(capsys):
    """The references agree with the program on one draw of every command."""
    import workloads

    wl = workloads.CliQuick()
    specs = wl.specs(7)
    for spec in [next(specs) for _ in range(5)]:
        code = hyfermi.cli.main(spec["argv"])
        out = capsys.readouterr()
        problems, _ = checks.check_cli(spec["cmd"], spec["params"], code, out.out, out.err)
        assert problems == [], (spec, problems)


def test_import_profile_parses_importtime():
    import run

    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 | site\n"
            "import time:       300 |        300 |     scipy._lib\n"
            "import time:       200 |        500 |   scipy\n"
            "import time:        50 |        550 |   hyfermi\n"
            "import time:        10 |        560 | hyfermi.cli\n")
    prof = run.import_profile(text)
    assert prof == {"cli.import_s": 560e-6, "cli.import_scipy_s": 500e-6,
                    "cli.import_modules": 4}


def test_tracer_records_zero_for_a_missing_name(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("kernels", "no_such_kernel"),))
    rec = spans.Recorder()
    spans.install(rec)
    try:
        assert "hyfermi.kernels.no_such_kernel" in rec.missing
        import hyfermi.quadrature as q

        rec.op = 0
        q.inner_pair(1.0, 1.0, 0.5)
        rec.op = None
        summary = rec.summary()
        assert summary["quadrature.inner_pair"]["calls"] == 1
        assert summary["kernels.pair_sum"]["calls"] == 1
        assert summary["quadrature.inner_pair"]["self_s"] >= 0.0
        values, reasons = harness.layer_metrics(summary, rec.counters, 1,
                                                {"evaluations": 0, "flagged": 0,
                                                 "err_to_tol_max": 0.0}, {}, rec.missing, 0)
        assert values["kernels.pair_sum.calls"] == 1
        assert "not called" in reasons["kernels.opstring_apply.calls"]
    finally:
        spans.uninstall(rec)
    assert not hasattr(hyfermi.quadrature.inner_pair, "__wrapped__")


def test_benchmark_json_matches_the_harness():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(harness.PER_LAYER)
    assert [m["name"] for m in doc["end_to_end"]] == list(harness.E2E_REPORTED)
    assert all(m["unit"] == harness.E2E_UNITS[m["name"]] for m in doc["end_to_end"])


def _run(*argv):
    proc = subprocess.run([sys.executable, str(harness.ROOT / "perfbench" / "run.py"), *argv],
                          cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", ["cli-quick", "oracle-warm", "fock-build", "fock-scan"])
def test_smoke_every_workload(workload):
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    out = _run("--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in doc["end_to_end"]}
    for name in harness.E2E_UNITS:      # all six, failed_share included
        assert f"  {name} " in out

    out = _run("--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1")
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in doc["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
