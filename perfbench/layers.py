"""Layer measurements outside the workload pass: kernels, verify suites, environment."""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import platform
import subprocess
import time

import numpy as np

import workloads

KERNELS = ("moment_map", "gradient", "delta", "derivation_algebra", "criticality", "act")
KERNEL_DIMS = range(3, 9)
_KERNEL_BUDGET_S = 0.05  # per kernel and n, after at least _KERNEL_MIN_REPS calls
_KERNEL_MIN_REPS = 3


def kernel_times(seed):
    """Median milliseconds per call of each kernel on seeded random tensors."""
    sf = importlib.import_module("skewflow")
    rng = np.random.default_rng((seed, 1))
    out = {}
    for n in KERNEL_DIMS:
        mu = sf.random_tensor(n, seed=int(rng.integers(2**31))).normalized()
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = workloads.random_gl(rng, n)
        calls = {
            "moment_map": lambda: sf.moment_map(mu),
            "gradient": lambda: sf.gradient(mu),
            "delta": lambda: sf.delta(mu, a),
            "derivation_algebra": lambda: sf.derivation_algebra(mu),
            "criticality": lambda: sf.criticality(mu),
            "act": lambda: sf.act(g, mu),
        }
        for name in KERNELS:
            times = []
            spent = 0.0
            while len(times) < _KERNEL_MIN_REPS or spent < _KERNEL_BUDGET_S:
                start = time.perf_counter()
                calls[name]()
                elapsed = time.perf_counter() - start
                times.append(elapsed)
                spent += elapsed
            out[f"kernel.{name}.n{n}_ms"] = float(np.median(times)) * 1e3
    return out


def suite_times(seed):
    """Seconds per verify suite through run_suite(only=suite), and the result lines."""
    verify = importlib.import_module("skewflow.verify")
    times, lines = {}, []
    for suite in verify.SUITES:
        start = time.perf_counter()
        results = verify.run_suite(only=suite, seed=seed)
        times[suite] = time.perf_counter() - start
        lines += [r.line for r in results]
    return times, lines


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    import scipy

    found = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root, nproc):
    import scipy

    def blas_version(pkg):
        deps = pkg.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version"), deps["blas"].get("openblas configuration")

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": _openblas_threads(),
        "git_commit": _git_commit(root) or "unavailable (not a git checkout)",
        "machine": platform.machine(),
        # derivation_algebra builds an n^3 x n^2 complex operator and a
        # 2n^3 x n^2 real one; sizes from the shapes, not from a measurement
        "derivation_operator_computed_bytes": {
            f"n{n}": {"complex_n3_x_n2": n**5 * 16, "real_2n3_x_n2": 2 * n**5 * 8}
            for n in range(3, 14)
        },
    }
