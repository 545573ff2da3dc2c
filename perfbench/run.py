"""Wall-clock benchmark of the read path, online promotion and survey training.

Run from the checkout root:

    python3 perfbench/run.py --workload serve-persona --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload online-churn --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

One process per run, every BLAS/OpenMP pool pinned to one thread before
NumPy is imported.  ``--trace 0`` measures the end-to-end metrics; ``--trace
1`` records spans around each layer's public functions, writes them to
``.perfbench-out/`` and reports the per-layer metrics, plus the tracing
overhead against an untraced phase run right after it.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any output check fails.
``--self-check`` runs every workload at reduced size, traced and untraced,
with all output checks, in seconds.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402 - must precede the NumPy import
    BLAS_THREAD_VARS,
    E2E_UNITS,
    LAYER_UNITS,
    ROOT,
    SETUP_MAX_REPEATS,
    SETUP_MIN_SECONDS,
    SETUP_REPEATS,
    Outcome,
    fail_fast,
    log,
    median,
    peak_rss_mb,
    provenance,
)

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    fail_fast("NumPy was imported before its thread pools were pinned")
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    fail_fast(f"no program source at {ROOT / 'src' / 'repro'}; run from a "
              "full checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from perfbench import online_churn, serve_persona, survey_panel  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (serve_persona, online_churn, survey_panel)}

OUT_DIR = ROOT / ".perfbench-out"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[Outcome, dict]:
    """Set up repeatedly, measure, check; returns the outcome and the
    metric values (end-to-end, or per-layer if traced)."""
    module = WORKLOADS[name]
    config = module.SMALL if small else module.FULL
    outcome = Outcome()
    workdir = OUT_DIR / f"work-{name}-s{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    state = None
    try:
        if tracer is not None:
            module.install_tracing(tracer)
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS
            and len(setup_times) < SETUP_MAX_REPEATS
        ):
            i = len(setup_times)
            if state is not None:
                state.close()
                state = None  # not alive while the next one is built
            if tracer is not None:
                tracer.group = f"setup{i}"
            t0 = time.perf_counter()
            state = module.setup(config, seed, workdir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.group = None

        phase = module.measure(state, seconds, tracer)
        module.check(state, phase, outcome)
        if tracer is None:
            metrics, notes = module.e2e(state, phase)
            metrics["setup_s"] = median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb()
        else:
            tracer.uninstall()
            reference = module.measure(state, seconds, None)
            module.check(state, reference, outcome)
            traced_e2e, notes = module.e2e(state, phase)
            plain_e2e, __ = module.e2e(state, reference)
            own = module.layers(tracer, state)
            outcome.expect(
                all(v > 0 for v in own.values()),
                f"a traced layer recorded nothing: {own}",
            )
            metrics = {m: 0.0 for m in LAYER_UNITS}
            metrics.update(own)
            metrics["tracing.overhead_pct"] = 100.0 * (
                traced_e2e["op_p50_ms"] / plain_e2e["op_p50_ms"] - 1.0
            )
            notes.append(
                f"tracing overhead: op_p50_ms traced "
                f"{traced_e2e['op_p50_ms']:.4f} vs untraced "
                f"{plain_e2e['op_p50_ms']:.4f}"
            )
            path = OUT_DIR / f"trace-{name}-s{seed}.json"
            tracer.dump(path, {"workload": name, "seed": seed})
            notes.append(f"spans: {len(tracer.spans)} written to "
                         f"{path.relative_to(ROOT)}")
        outcome.notes += notes
    finally:
        if tracer is not None:
            tracer.uninstall()
        if state is not None:
            state.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome, metrics


def render(metrics: dict, units: dict) -> list[str]:
    width = max(len(m) for m in metrics)
    return [f"  {m:<{width}}  {metrics[m]:>14.4f} {units[m]}" for m in units]


def main_run(args) -> int:
    trace = bool(args.trace)
    info = provenance(args.workload, args.seed, args.seconds, trace)
    log("provenance: " + json.dumps(info, sort_keys=True))
    outcome, metrics = run_workload(args.workload, args.seed, args.seconds,
                                    trace)
    units = LAYER_UNITS if trace else E2E_UNITS
    for line in outcome.notes:
        log(line)
    log(("per-layer" if trace else "end-to-end") + f" metrics ({args.workload}):")
    for line in render(metrics, units):
        log(line)
    log(f"attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        log(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    log(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if correct else 1


def main_self_check() -> int:
    """Every workload, reduced, untraced and traced, with every check."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            outcome, metrics = run_workload(name, 0, 0.5, trace, small=True)
            units = LAYER_UNITS if trace else E2E_UNITS
            missing = sorted(set(units) - set(metrics))
            good = not outcome.problems and not outcome.failed and not missing
            ok &= good
            log(f"self-check {name} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'} ({outcome.attempted} ops, "
                f"{outcome.failed} failed, {time.perf_counter() - t0:.1f}s)")
            for problem in outcome.problems + [f"missing {m}" for m in missing]:
                log(f"  {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="reduced-size run of every workload's checks")
    args = parser.parse_args(argv)
    if args.self_check:
        return main_self_check()
    if args.workload is None:
        parser.error("--workload is required (or pass --self-check)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
