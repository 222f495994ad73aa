"""Tests of the benchmark itself: output schema, seeded inputs, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests
The two subprocess tests run the benchmark for real (about a minute).
"""

import argparse
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _lines(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def _check_result(result, metric_specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in metric_specs]
    for m in metric_specs:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


def test_percentile_rules():
    assert run.tail_percentile(36) == 72
    assert run.tail_percentile(24) == 58
    assert run.tail_percentile(12) == 100  # no percentile above p50 has 10 beyond it
    values = list(range(1, 37))
    q = run.tail_percentile(len(values))
    assert sum(v > run.percentile(values, q) for v in values) == 10
    assert run.percentile(values, 100) == 36


def test_scale_normal_forms_have_dimension_n():
    catalog = importlib.import_module("skewflow.catalog")
    for n, p in workloads.SCALE_PARTITIONS.items():
        assert catalog.mu_A(catalog.nilpotent_normal_form(p)).tensor.dim == n


@pytest.mark.parametrize("workload", ["flow-orbit", "flow-scale"])
def test_inputs_are_deterministic_for_a_seed(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    other = workloads.build(workload, 8)
    assert [op.label for op in first] == [op.label for op in again]
    assert all(a.tensor == b.tensor for a, b in zip(first, again))
    assert [(op.expected_type, op.expected_F) for op in first] == [
        (op.expected_type, op.expected_F) for op in again
    ]
    assert any(a.tensor != b.tensor for a, b in zip(first, other))


def test_tracer_records_spans_and_restores_the_originals():
    flow_module = importlib.import_module("skewflow.flow")
    moment = importlib.import_module("skewflow.moment")
    catalog = importlib.import_module("skewflow.catalog")
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.PATCHES}
    with tracing.Tracer() as tracer:
        assert flow_module.criticality is not originals[("skewflow.flow", "criticality")]
        mu = catalog.mu_he(3).tensor
        moment.criticality(mu)
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    crit = tracer.spans["moment.criticality"]
    der = tracer.spans["algebra.derivation_algebra"]
    assert crit.calls == 1 and der.calls == 1
    assert der.parents["moment.criticality"] == 1
    assert crit.child_s == pytest.approx(der.total_s)
    assert 0.0 <= crit.self_s <= crit.total_s
    assert tracer.spans["catalog.build"].calls == 1
    assert tracer.spans["algebra.structure_invariants"].parents["catalog.build"] == 1


def test_tracing_leaves_results_unchanged():
    verify = importlib.import_module("skewflow.verify")
    flow_module = importlib.import_module("skewflow.flow")
    op = workloads.build("flow-orbit", 3)[1]
    plain_lines = [r.line for r in verify.run_suite(only="strata", seed=3)]
    plain = workloads.run_op(flow_module, op)[1]
    with tracing.Tracer():
        traced_lines = [r.line for r in verify.run_suite(only="strata", seed=3)]
        traced = workloads.run_op(flow_module, op)[1]
    assert traced_lines == plain_lines
    assert traced == plain


def test_orbit_escape_is_the_only_tolerated_failure():
    op = workloads.Op("n4 GL#1", None, "(1<2<3<4;1,1,1,1)", Fraction(6), image=True)
    escaped = workloads.Outcome(converged=True, type="(0;4)", F=1.0)
    stuck = workloads.Outcome(converged=False, F=6.5)
    above = workloads.Outcome(converged=True, type="(2<3<4;2,1,1)", F=12.0)
    assert workloads.failure(op, escaped) == "wrong type"
    assert workloads.orbit_escape(op, escaped)
    assert workloads.failure(op, stuck) == "did not converge"
    assert not workloads.orbit_escape(op, stuck)
    assert not workloads.orbit_escape(op, above)
    canonical = workloads.Op("n4", None, op.expected_type, op.expected_F, image=False)
    assert not workloads.orbit_escape(canonical, escaped)


def test_counts_come_from_the_first_pass_only(capsys):
    ops = workloads.build("flow-orbit", 2)[:2]
    # an expectation that no flow meets, so this operation fails on every pass
    wrong = dataclasses.replace(ops[0], label="mislabeled", expected_type="no type",
                                expected_F=Fraction(0), image=False)
    args = argparse.Namespace(workload="flow-orbit", seed=2, seconds=3.0, trace=0)
    bench = run.Run(args, [wrong, ops[1]])
    summary = bench.untraced()
    failures = [json.loads(line)["failure"] for line in capsys.readouterr().out.splitlines()]
    assert summary["passes"] >= 2
    assert bench.attempted == 2
    assert bench.failed == len(failures) >= 1
    assert failures[0]["input"] == "mislabeled" and failures[0]["class"] == "unexpected"
    assert bench.problems == ["unexpected failure on mislabeled"]


def test_untraced_output_schema_and_ledger():
    done = _bench("--workload", "flow-orbit", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = _lines(done.stdout)
    result = lines[-1]
    _check_result(result, SPEC["end_to_end"])
    kinds = [next(iter(line)) for line in lines[:-1]]
    assert kinds[0] == "environment" and kinds[-1] == "summary"
    env = lines[0]["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "numpy_blas", "blas_threads_in_effect",
                "git_commit", "derivation_operator_computed_bytes"):
        assert key in env
    summary = lines[-2]["summary"]
    assert summary["passes"] == 1 and summary["ops_per_pass"] == 36
    failures = [line["failure"] for line in lines if "failure" in line]
    assert len(failures) == result["failed"]
    for f in failures:
        assert {"input", "reason", "got", "expected", "class"} <= set(f)
    assert result["correct"] == all(f["class"] != "unexpected" for f in failures)
    assert summary["error_rate"] == result["failed"] / result["attempted"]


def test_traced_output_schema():
    done = _bench("--workload", "flow-orbit", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    lines = _lines(done.stdout)
    _check_result(lines[-1], SPEC["per_layer"])
    assert lines[-2]["summary"]["problems"] == []  # includes traced == untraced
    assert lines[-1]["attempted"] == 36
    assert lines[-1]["failed"] == sum("failure" in line for line in lines)
    metrics = lines[-1]["metrics"]
    assert metrics["flow.calls"]["value"] == 36
    assert metrics["catalog.build.calls"]["value"] == 9
    assert metrics["verify.passed"]["value"] == 12


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_image_matches_the_package_action():
    sf = importlib.import_module("skewflow")
    rng = np.random.default_rng(0)
    mu = sf.random_tensor(4, seed=1)
    g = workloads.random_gl(rng, 4)
    assert np.allclose(workloads._image(g, mu.coeff), sf.act(g, mu).coeff, atol=1e-13)
