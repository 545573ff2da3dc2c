"""``serve-persona``: persona traffic against the 10^5-item two-stage service.

Inputs (all from the seed): a clustered catalog of ``num_items`` item and
``num_users`` user vectors (256 Gaussian centres, the
``build_two_stage_service`` shape), a 3-item seen history per user, and a
movie-mix persona schedule.  The service is IVF candidates + exact
rerank, with exact scoring as the fallback rung.

One caller serves the schedule in order and issues each request when the
previous one returns (a closed loop in wall time, no pacing).  Arrival
times only move the program's ``ManualClock``, which drives admission;
nothing charges simulated service time, so every answer is decided by
the real read path: admit -> IVF probe -> rerank -> score guard -> rank.
The admission queue holds a whole schedule and rounds are spaced so it
drains between them, so no request is shed on any seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.clock import ManualClock
from repro.core.dataset import Dataset
from repro.core.interactions import InteractionMatrix
from repro.retrieval import IvfIndex
from repro.retrieval.two_stage import ArrayEmbeddingRecommender, TwoStageRecommender
from repro.serving.admission import AdmissionQueue
from repro.serving.service import RecommenderService, ServeRequest
from repro.traffic import PersonaPopulation, ScheduleProfile, TrafficSchedule

from . import readpath
from .common import Outcome, median, percentile

NAME = "serve-persona"


DIM = 32
NUM_CENTERS = 256
HISTORY = 3  # seen items per user
K_CANDIDATES = 128
DRAIN_RATE = 4000.0  # admission drain, requests per simulated second
RATE_SCALE = 2.25


@dataclass(frozen=True)
class Config:
    num_items: int = 100_000
    num_users: int = 2048
    #: Many members, so no single user's probe cost sets the median.
    members: int = 1024
    horizon: float = 1.0
    #: Untimed requests served first, so lazy set-up is not measured.
    warmup: int = 300


FULL = Config()
SMALL = Config(
    num_items=20_000, num_users=512, members=64, horizon=0.5, warmup=20,
)


@dataclass
class State:
    config: Config
    users: np.ndarray
    items: np.ndarray
    dataset: Dataset
    requests: list
    clock: ManualClock
    service: RecommenderService
    round_length: float
    cursor: int = 0

    def close(self) -> None:
        pass


def setup(config: Config, seed: int, workdir) -> State:
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((NUM_CENTERS, DIM))
    items = centers[rng.integers(NUM_CENTERS, size=config.num_items)]
    items = items + 0.25 * rng.standard_normal((config.num_items, DIM))
    users = centers[rng.integers(NUM_CENTERS, size=config.num_users)]
    users = users + 0.25 * rng.standard_normal((config.num_users, DIM))
    hist_users = np.repeat(np.arange(config.num_users), HISTORY)
    hist_items = rng.integers(config.num_items, size=hist_users.size)
    dataset = Dataset(
        name=f"perfbench-catalog-s{seed}",
        interactions=InteractionMatrix(
            hist_users, hist_items, config.num_users, config.num_items
        ),
    )

    population = PersonaPopulation.from_scenario(
        "movie", num_users=config.num_users, seed=seed,
        num_members=config.members,
    )
    profile = ScheduleProfile(
        horizon=config.horizon,
        day_period=config.horizon / 2,
        flash_crowds=((0.55 * config.horizon, 0.1 * config.horizon, 2.5),),
        rate_scale=RATE_SCALE,
    )
    requests = TrafficSchedule(population, profile, seed=seed).materialize()

    clock = ManualClock()
    base = ArrayEmbeddingRecommender(users, items).fit(dataset)
    two_stage = TwoStageRecommender(
        base, IvfIndex(seed=seed), k_candidates=K_CANDIDATES
    ).fit(dataset)
    service = RecommenderService(
        dataset,
        primary=("two_stage", two_stage),
        fallbacks=[("exact", base)],
        default_deadline=0.02,
        breaker_config={
            "failure_threshold": 5, "window": 20,
            "recovery_time": 0.25, "half_open_probes": 2,
        },
        admission=AdmissionQueue(
            capacity=len(requests) + 1, drain_rate=DRAIN_RATE,
            clock=clock,
        ),
        clock=clock,
    )
    # Rounds start after the previous round's backlog has fully drained.
    round_length = config.horizon + len(requests) / DRAIN_RATE
    return State(config, users, items, dataset, requests, clock, service,
                 round_length)


def _next_request(state: State) -> ServeRequest:
    """Advance the manual clock to the next arrival; return its request."""
    n = len(state.requests)
    rnd, pos = divmod(state.cursor, n)
    state.cursor += 1
    scheduled = state.requests[pos]
    at = rnd * state.round_length + scheduled.at
    if at > state.clock():
        state.clock.advance(at - state.clock())
    return ServeRequest(
        user_id=scheduled.user_id, k=scheduled.k,
        exclude_seen=scheduled.exclude_seen,
    )


def measure(state: State, seconds: float, tracer=None) -> dict:
    """Serve for ``seconds`` of wall time; returns the phase record."""
    service = state.service
    for __ in range(state.config.warmup if state.cursor == 0 else 0):
        service.serve(_next_request(state))
    served = readpath.ClosedLoop(service, tracer)
    served.run(lambda: _next_request(state), seconds)
    return {"loop": served}


def check(state: State, phase: dict, outcome: Outcome) -> None:
    loop: readpath.ClosedLoop = phase["loop"]
    scorer = readpath.ExactScorer(state.users, state.items, state.dataset)
    loop.check(scorer, state.config.num_items, outcome)


def e2e(state: State, phase: dict) -> tuple[dict, list[str]]:
    loop: readpath.ClosedLoop = phase["loop"]
    latencies = loop.latencies_ns
    p50_ms = median(latencies) / 1e6
    rps = loop.median_rate()
    recall = float(np.mean(loop.recalls))
    notes = [
        f"serve.latency_p50_ms = {p50_ms:.4f} ms over {len(latencies)} requests",
        f"serve.latency_p99_ms = {percentile(latencies, 99) / 1e6:.4f} ms",
        f"serve.throughput_rps = {rps:.1f} req/s (median over "
        f"{readpath.WINDOW_S}-s windows; "
        f"{len(latencies) / (loop.wall_ns / 1e9):.1f} over the whole run)",
        f"serve.recall_at_10 = {recall:.4f} over {len(loop.recalls)} "
        "requests with k >= 10",
        f"schedule: {len(state.requests)} requests per round: "
        + ", ".join(f"{p}={n}" for p, n in sorted(
            Counter(r.persona for r in state.requests).items())),
    ]
    return {"op_p50_ms": p50_ms, "ops_per_s": rps, "quality": recall}, notes


def install_tracing(tracer) -> None:
    readpath.install_tracing(tracer, ArrayEmbeddingRecommender)
    tracer.wrap(IvfIndex, "build", "retrieval.build")


def layers(tracer, state: State) -> dict:
    out = readpath.layer_metrics(tracer)
    builds = [s[5] - s[4] for s in tracer.closed() if s[2] == "retrieval.build"]
    out["retrieval.build_ms"] = median(builds) / 1e6
    return out
