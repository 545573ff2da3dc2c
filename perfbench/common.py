"""Helpers shared by the workloads: statistics, memory, provenance, results."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Every thread-pool knob NumPy's BLAS/OpenMP back ends read at load time.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The workload's set-up is repeated at least ``SETUP_REPEATS`` times and
#: until ``SETUP_MIN_SECONDS`` have passed (at most ``SETUP_MAX_REPEATS``
#: times); ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50


#: End-to-end metrics (every workload reports all of them) -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "quality": "ratio",
}

#: Per-layer metrics -> unit.  A workload that does not run a layer
#: reports 0 for it.
LAYER_UNITS = {
    "serving.admit_us": "us",
    "retrieval.search_us": "us",
    "retrieval.candidates": "count",
    "retrieval.rerank_us": "us",
    "runtime.guard_us": "us",
    "serving.self_us": "us",
    "online.apply_ms": "ms",
    "online.dirty_rows": "count",
    "store.commit_ms": "ms",
    "store.open_ms": "ms",
    "retrieval.build_ms": "ms",
    "serving.canary_ms": "ms",
    "online.watch_ms": "ms",
    "models.cf_fit_s": "s",
    "models.embedding_fit_s": "s",
    "models.path_fit_s": "s",
    "models.unified_fit_s": "s",
    "autograd.backward_ms": "ms",
    "autograd.step_ms": "ms",
    "kg.sample_ms": "ms",
    "eval.evaluate_ms": "ms",
    "data.generate_ms": "ms",
    "tracing.overhead_pct": "%",
}


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(values) * q // 100))
    return float(values[int(min(rank, len(values))) - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over ``src/`` (path + bytes of every ``.py``), the code's
    identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "host": platform.machine(),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Correctness violations (each a readable sentence); empty = correct.
    problems: list[str] = field(default_factory=list)
    #: End-to-end metric name -> value, in the units ``METRICS`` declares.
    e2e: dict[str, float] = field(default_factory=dict)
    #: Extra human-readable lines (per-workload figures, schedule mix).
    notes: list[str] = field(default_factory=list)

    def absorb(self, other: "Outcome") -> None:
        """Add ``other``'s counts, problems and notes to this outcome."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.notes += other.notes

    def expect(self, ok: bool, message: str) -> None:
        """Record ``message`` as a correctness problem unless ``ok``."""
        if not ok and len(self.problems) < 50:
            self.problems.append(message)


def log(message: str) -> None:
    print(message, flush=True)


def fail_fast(message: str) -> None:
    """Refuse to run: message on stderr, exit code 2, no result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(2)
