#!/usr/bin/env python3
"""Benchmark of the skewflow package: one workload, one process, one call at a time.

    python3 perfbench/run.py --workload flow-orbit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each workload is a closed loop: the next operation starts when the last one
returns.  Passes over the workload's seeded operations repeat until another
pass would overrun --seconds (at least one pass runs); then single
operations are rerun while each still fits.  Every result is checked
against its expected value.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs one pass with timing wrappers on the calls between modules, one pass
without them, a verify run per suite and the kernel timings, and prints the
per-layer metrics.  JSON lines before the last one give the environment,
each failed operation, and a summary; the last line is the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# Only the standard library is imported at module level: timed_setup, also
# run in fresh interpreters, must time the numpy and scipy imports too.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 5  # setups per run: this process plus fresh interpreters
SETUP_TIMEOUT_S = 60


def timed_setup(workload, seed):
    """Import skewflow and build the workload's inputs; returns (seconds, ops)."""
    start = time.perf_counter()
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    importlib.import_module("skewflow")
    importlib.import_module("skewflow.verify")
    import workloads

    ops = workloads.build(workload, seed)
    return time.perf_counter() - start, ops


def _child_setup(workload, seed):
    code = (
        f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import run; "
        f"print(run.timed_setup({workload!r}, {seed})[0])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile q of values."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def tail_percentile(count):
    """Highest whole percentile with at least 10 samples beyond it.

    With 20 samples or fewer that percentile would not exceed the median,
    so the maximum (p100) stands in for the tail.
    """
    q = math.floor(100 * (count - 10) / count)
    return q if q > 50 else 100


def _emit(kind, payload):
    print(json.dumps({kind: payload}, default=str), flush=True)


class Run:
    def __init__(self, args, ops):
        import workloads

        self.args = args
        self.ops = ops
        self.wl = workloads
        self.sf = importlib.import_module("skewflow")
        self.flow_module = importlib.import_module("skewflow.flow")
        self.verify = importlib.import_module("skewflow.verify")
        self.attempted = 0
        self.failed = 0
        self.problems = []  # reasons the run is not correct

    # -- one pass over the workload -------------------------------------------------

    def flow_pass(self, ops):
        """Returns (wall seconds, [seconds per op], [Outcome per op])."""
        start = time.perf_counter()
        results = [self.wl.run_op(self.flow_module, op) for op in ops]
        wall = time.perf_counter() - start
        return wall, [r[0] for r in results], [r[1] for r in results]

    def verify_pass(self, only=None):
        """run_suite(only, seed) with a timer on each check; outcomes are the result lines."""
        times = {}
        saved = dict(self.verify.SUITES)

        def timed(key, fn):
            def check(rng, params):
                start = time.perf_counter()
                try:
                    return fn(rng, params)
                finally:
                    times[key] = time.perf_counter() - start
            return check

        self.verify.SUITES.update({
            suite: tuple((name, timed((suite, name), fn)) for name, fn in checks)
            for suite, checks in saved.items()
        })
        try:
            start = time.perf_counter()
            results = self.verify.run_suite(only=only, seed=self.args.seed)
            wall = time.perf_counter() - start
        finally:
            self.verify.SUITES.update(saved)
        return wall, [times[(r.suite, r.name)] for r in results], [r.line for r in results]

    def one_pass(self, ops=None):
        if self.args.workload == "verify":
            return self.verify_pass()
        return self.flow_pass(self.ops if ops is None else ops)

    def groups(self):
        """Operations that can be rerun on their own: {key: operation indices}."""
        if self.args.workload != "verify":
            return {i: [i] for i in range(len(self.ops))}
        groups, index = {}, 0
        for suite, checks in self.verify.SUITES.items():
            groups[suite] = list(range(index, index + len(checks)))
            index += len(checks)
        return groups

    def rerun(self, key):
        if self.args.workload == "verify":
            return self.verify_pass(only=key)[1:]
        elapsed, outcome, _ = self.wl.run_op(self.flow_module, self.ops[key])
        return [elapsed], [outcome]

    # -- checks ---------------------------------------------------------------------

    def ledger(self, outcomes):
        """Check one pass, one outcome per operation, and print each failure.

        attempted and failed count this pass only.  Other passes are held to
        it by same(), so the counts do not grow with the number of passes.
        """
        failures = []
        for i, out in enumerate(outcomes):
            if self.args.workload == "verify":
                if not out.startswith("PASS"):
                    failures.append({"check": out})
                    self.problems.append("verify check failed")
                continue
            op = self.ops[i]
            why = self.wl.failure(op, out)
            if why is None:
                continue
            known = self.wl.orbit_escape(op, out)
            failures.append({
                "input": op.label, "reason": why,
                "got": {"type": out.type, "F": out.F, "converged": out.converged,
                        "error": out.error},
                "expected": {"type": op.expected_type, "F": str(op.expected_F)},
                "class": "orbit-escape (known basis-invariance defect)" if known
                else "unexpected",
            })
            if not known:
                self.problems.append(f"unexpected failure on {op.label}")
        self.attempted, self.failed = len(outcomes), len(failures)
        for f in failures:
            _emit("failure", f)
        return failures

    def same(self, first, other, what):
        if other != first:
            diff = [i for i, (a, b) in enumerate(zip(first, other)) if a != b]
            self.problems.append(f"{what} differ at operations {diff}")

    # -- modes ----------------------------------------------------------------------

    def untraced(self):
        """Whole passes while another fits in --seconds, then single operations
        (verify: single suites) while each still fits, by its median so far."""
        deadline = time.perf_counter() + self.args.seconds
        walls, samples, first = [], None, None
        while True:
            wall, times, outcomes = self.one_pass()
            walls.append(wall)
            if first is None:
                self.ledger(outcomes)
                first, samples = outcomes, [[t] for t in times]
            else:
                self.same(first, outcomes, "results of repeated passes")
                for s, t in zip(samples, times):
                    s.append(t)
            if time.perf_counter() + wall > deadline:
                break
        groups = self.groups()
        while True:
            ran = False
            for key, indices in groups.items():
                cost = sum(statistics.median(samples[i]) for i in indices)
                if time.perf_counter() + cost > deadline:
                    continue
                times, outcomes = self.rerun(key)
                self.same([first[i] for i in indices], outcomes, f"reruns of {key}")
                for i, t in zip(indices, times):
                    samples[i].append(t)
                ran = True
            if not ran:
                break
        per_op = [statistics.median(s) for s in samples]
        q = tail_percentile(len(per_op))
        return {
            "passes": len(walls),
            "pass_walls_s": walls,
            "ops_per_pass": len(per_op),
            "runs_per_op": [len(s) for s in samples],
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(per_op, 50) * 1e3,
            "op_tail_ms": percentile(per_op, q) * 1e3,
            "tail_percentile": q,
            "op_samples": len(per_op),
            "op_ms": [t * 1e3 for t in per_op],
            "latency": "per-operation median over its runs; nearest-rank percentiles over operations",
        }

    def traced(self):
        import layers
        import tracing

        flows = {"steps": 0, "accepted": 0, "not_converged": 0, "jacobi_drift_max": 0.0}

        def on_flow(args, kwargs, trace):
            flows["steps"] += trace.samples[-1][0]
            flows["accepted"] += len(trace.samples) - 1
            flows["not_converged"] += not trace.converged
            mu0 = args[0] if args else kwargs["mu0"]
            if self.sf.jacobi_residual(mu0.normalized()) <= 1e-10 and trace.limit is not None:
                drift = self.sf.jacobi_residual(trace.limit.normalized())
                flows["jacobi_drift_max"] = max(flows["jacobi_drift_max"], drift)

        with tracing.Tracer({"flow": on_flow}) as tracer:
            ops = self.wl.build(self.args.workload, self.args.seed)
            # the build belongs to set-up: only its catalog spans are kept
            for name in set(tracer.spans) - {"catalog.build", "algebra.structure_invariants"}:
                del tracer.spans[name]
            wall, _, outcomes = self.one_pass(ops)
        traced_failures = self.ledger(outcomes)
        if ops is not None:
            self.same([op.tensor for op in self.ops], [op.tensor for op in ops],
                      "inputs rebuilt under tracing")

        suites, suite_lines = layers.suite_times(self.args.seed)
        if self.args.workload == "verify":
            # the per-suite run is the untraced pass
            untraced_wall, untraced = sum(suites.values()), suite_lines
        else:
            untraced_wall, _, untraced = self.one_pass()
        self.same(outcomes, untraced, "traced and untraced results")
        if any(not line.startswith("PASS") for line in suite_lines):
            self.problems.append("verify check failed in the per-suite run")

        def span(name):
            return tracer.spans.get(name) or tracing.Span()

        flow = span("flow")
        crit = span("moment.criticality")
        metrics = {
            "catalog.build.calls": span("catalog.build").calls,
            "catalog.build.s": span("catalog.build").total_s,
            "algebra.structure_invariants.calls": span("algebra.structure_invariants").calls,
            "algebra.structure_invariants.s": span("algebra.structure_invariants").total_s,
            "algebra.derivation_algebra.calls": span("algebra.derivation_algebra").calls,
            "algebra.derivation_algebra.s": span("algebra.derivation_algebra").total_s,
            "moment.criticality.calls": crit.calls,
            "moment.criticality.s": crit.total_s,
            "moment.criticality.self_s": crit.self_s,
            "flow.calls": flow.calls,
            "flow.self_s": flow.self_s,
            "flow.steps": flows["steps"],
            "flow.accepted": flows["accepted"],
            "flow.accept_ratio": flows["accepted"] / flows["steps"] if flows["steps"] else 1.0,
            "flow.crit_checks_per_flow": crit.parents["flow"] / flow.calls if flow.calls else 0.0,
            "flow.not_converged": flows["not_converged"],
            "flow.wrong_label": sum(
                f.get("reason") in ("wrong type", "F off") for f in traced_failures
            ),
            "flow.jacobi_drift_max": flows["jacobi_drift_max"],
            "classify.extract_type.calls": span("classify.extract_type").calls,
            "classify.extract_type.s": span("classify.extract_type").total_s,
            "classify.extract_type.errors": sum(span("classify.extract_type").errors.values()),
            **{f"verify.{suite}.s": t for suite, t in suites.items()},
            "verify.passed": sum(line.startswith("PASS") for line in suite_lines),
            **layers.kernel_times(self.args.seed),
            "trace.traced_wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
        }
        return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one call at a time, with one BLAS thread per usable core; set before numpy loads
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)

    first, ops = timed_setup(args.workload, args.seed)
    setups = [first] + [_child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    import layers

    _emit("environment", layers.environment(ROOT, nproc))
    run = Run(args, ops)
    if args.trace:
        values = run.traced()
        summary = {"mode": "traced"}
    else:
        summary = run.untraced()
        values = dict(summary)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary.update({
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": values["setup_s"],
        "setup_samples_s": setups,
        "peak_rss_mb": values["peak_rss_mb"],
        "error_rate": run.failed / run.attempted,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    })
    _emit("summary", summary)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
