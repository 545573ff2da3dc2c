"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The reduced-size self-check runs every workload's output checks; the
rest pin the pieces the checks rely on (the tracer's bookkeeping, the
exact-answer checker catching a wrong answer) and the contract with
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.common import E2E_UNITS, LAYER_UNITS, Outcome  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

RUN = ["python3", "perfbench/run.py"]


def test_self_check_passes():
    done = subprocess.run(
        RUN + ["--self-check"], cwd=ROOT, capture_output=True, text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok (") == 6


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == RUN
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    names = {w["name"] for w in spec["workloads"]}
    assert names == {"serve-persona", "online-churn", "survey-panel"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        RUN + ["--workload", "serve-persona", "--seed", "0", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    original = Layer.__dict__["outer"]
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", after=lambda r: {"value": r})
    tracer.group = "g0"
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    outer, inner = tracer.closed()
    assert inner[1] == outer[0] and inner[3] == outer[3] == "g0"
    assert inner[6] == {"value": 1}
    self_ns = tracer.self_times_ns()
    assert self_ns[outer[0]] == (outer[5] - outer[4]) - (inner[5] - inner[4])
    assert tracer.root_of()[inner[0]] == outer[0]


def test_answer_checker_flags_wrong_answers():
    from repro.core.dataset import Dataset
    from repro.core.interactions import InteractionMatrix
    from repro.serving.service import ServeRequest, ServeResponse

    from perfbench import readpath

    rng = np.random.default_rng(0)
    users, items = rng.standard_normal((4, 3)), rng.standard_normal((50, 3))
    dataset = Dataset(
        name="t", interactions=InteractionMatrix([0, 1], [5, 6], 4, 50)
    )
    scorer = readpath.ExactScorer(users, items, dataset)
    truth = scorer.top(0, True)

    def problems(ids, scores=None):
        """Check one answer; exact scores in score order unless given."""
        ids = np.asarray(ids)
        if scores is None:
            scores = items[ids] @ users[0]
            order = np.argsort(-scores, kind="stable")
            ids, scores = ids[order], scores[order]
        loop = readpath.ClosedLoop(service=None)
        loop._served.append((
            ServeRequest(user_id=0, k=10, exclude_seen=True),
            ServeResponse(request_id=0, user_id=0, status="ok",
                          items=tuple(int(i) for i in ids),
                          scores=tuple(float(s) for s in scores)),
        ))
        outcome = Outcome()
        loop.check(scorer, 50, outcome)
        return " ".join(outcome.problems), loop.recalls

    assert problems(truth) == ("", [1.0])
    exact = items[truth] @ users[0]
    assert "differ from exact" in problems(truth, exact + 1e-6)[0]
    assert "not sorted" in problems(truth[::-1], exact[::-1])[0]
    assert "seen item" in problems(np.r_[truth[:9], 5])[0]
    assert "repeated ids" in problems(np.r_[truth[:9], truth[0]])[0]
    assert "outside" in problems(np.r_[truth[:9], 50], np.r_[exact[:9], -9])[0]
    assert problems(truth[:9].tolist() + [int(np.setdiff1d(
        np.arange(7, 50), truth)[0])])[1] == [0.9]
