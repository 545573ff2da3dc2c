"""``online-churn``: the online loop promoting a 10^5-item store-backed model.

Inputs (all from the seed): an ``InteractionStream`` over ``num_users``
users and ``num_items`` items (most of both visible at t=0, the rest
arriving as newcomers), a shadow trainer on a ``MmapShardStore`` of
``rows_per_shard``-row shards, and the serving stack of the churn
harness's ``build_world``.  Reads come from mmap shards over unclustered
trained vectors.

Each cycle is one ``OnlineLoop.run(COMMIT_EVERY)``: ``COMMIT_EVERY``
session batches are applied, then one promotion — commit -> serve-mode
open -> IVF rebuild -> canary -> swap -> watch.  Between cycles the
benchmark captures the trainer's float32 table, checks that the live
model serves exactly those bytes, and times ``reads_per_cycle`` reads
against the live model, each checked against brute-force scoring of that
generation.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.online.harness import ChurnConfig, World, build_world
from repro.online.loop import OnlineLoop
from repro.online.stream import StreamConfig
from repro.online.trainer import ENTITY_TABLE, ShadowTrainer
from repro.retrieval import IvfIndex
from repro.serving.service import RecommenderService, ServeRequest
from repro.store.mmap import MmapShardStore
from repro.store.serving import StoredEmbeddingRecommender

from . import readpath
from .common import Outcome, median, percentile

NAME = "online-churn"


LATENT_DIM = 8  # the stream's hidden preference vectors
SESSION_SIZE = 4  # interactions per batch
MODEL_DIM = 16
COMMIT_EVERY = 8  # batches per promotion cycle
K_CANDIDATES = 64
WATCH_REQUESTS = 6


@dataclass(frozen=True)
class Config:
    num_users: int = 512
    num_items: int = 100_000
    warm_users: int = 256
    warm_items: int = 96_000
    rows_per_shard: int = 4096
    reads_per_cycle: int = 100


FULL = Config()
SMALL = Config(
    num_users=128, num_items=10_000, warm_users=64, warm_items=9_000,
    rows_per_shard=1024, reads_per_cycle=20,
)


@dataclass
class State:
    config: Config
    world: World
    workdir: Path
    read_rng: np.random.Generator

    def close(self) -> None:
        self.world.loop.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(config: Config, seed: int, workdir: Path) -> State:
    stream = StreamConfig(
        num_users=config.num_users, num_items=config.num_items,
        warm_users=config.warm_users, warm_items=config.warm_items,
        dim=LATENT_DIM, session_size=SESSION_SIZE,
    )
    churn = ChurnConfig(
        commit_every=COMMIT_EVERY,
        watch_requests=WATCH_REQUESTS,
        model_dim=MODEL_DIM,
        rows_per_shard=config.rows_per_shard,
        k_candidates=K_CANDIDATES,
        stream=stream,
    )
    world = build_world(workdir, seed, config=churn)
    return State(config, world, workdir, np.random.default_rng(seed + 7))


def _read_request(state: State) -> ServeRequest:
    user = int(state.read_rng.integers(state.world.stream.seen_users))
    return ServeRequest(user_id=user, k=readpath.RECALL_K, exclude_seen=True)


def measure(state: State, seconds: float, tracer=None) -> dict:
    """Whole cycles while another one fits in ``seconds`` (at least one).

    Output checks run between cycles (outside every timed interval),
    because each read is checked against the generation it was served
    from.
    """
    cfg, world = state.config, state.world
    loop, trainer = world.loop, world.trainer
    num_users = cfg.num_users
    outcome = Outcome()
    cycles_ns: list[int] = []
    reads = readpath.ClosedLoop(world.service, tracer, group="read")
    interactions: list[int] = []
    start = time.perf_counter()
    while True:
        batches_before = len(loop.batch_outcomes)
        cycles_before = len(loop.cycles)
        if tracer is not None:
            tracer.group = f"cycle{len(loop.cycles)}"
        t0 = time.perf_counter_ns()
        loop.run(COMMIT_EVERY)
        cycles_ns.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.group = None

        batches = loop.batch_outcomes[batches_before:]
        applied = [b for b in batches if b.status == "applied"]
        interactions.append(len(applied) * SESSION_SIZE)
        outcome.attempted += len(batches)
        outcome.failed += len(batches) - len(applied)
        for cycle in loop.cycles[cycles_before:]:
            outcome.attempted += 1
            if cycle.outcome != "promoted":
                outcome.failed += 1
                outcome.notes.append(f"cycle {cycle.trace()}")

        # Capture this commit's table and compare it with what is served.
        table = np.ascontiguousarray(trainer.entity, dtype="<f4")
        live = world.service.registry.live
        served = live.base.store.load_table(ENTITY_TABLE)
        outcome.expect(
            live.generation == loop.cycles[-1].generation,
            f"live generation {live.generation} is not the last commit "
            f"{loop.cycles[-1].generation}",
        )
        outcome.expect(
            served.astype("<f4").tobytes() == table.tobytes(),
            f"generation {live.generation}: served table differs from the "
            "trainer's committed table",
        )
        reads.run(lambda: _read_request(state), count=cfg.reads_per_cycle)
        scorer = readpath.ExactScorer(
            table[:num_users], table[num_users:], world.dataset
        )
        reads.check(scorer, cfg.num_items, outcome)
        if time.perf_counter() - start + median(cycles_ns) / 1e9 > seconds:
            break
    return {
        "outcome": outcome,
        "cycles_ns": cycles_ns,
        "interactions": interactions,
        "reads": reads,
        "promote_wall_s": list(loop.promote_wall_times[-len(cycles_ns):]),
    }


def check(state: State, phase: dict, outcome: Outcome) -> None:
    outcome.absorb(phase["outcome"])


def e2e(state: State, phase: dict) -> tuple[dict, list[str]]:
    cycles_ns = phase["cycles_ns"]
    reads: readpath.ClosedLoop = phase["reads"]
    p50_ms = median(cycles_ns) / 1e6
    ingest = median(
        [n / (ns / 1e9) for n, ns in zip(phase["interactions"], cycles_ns)]
    )
    recall = float(np.mean(reads.recalls))
    lat = reads.latencies_ns
    notes = [
        f"online cycle p50 = {p50_ms:.2f} ms over {len(cycles_ns)} cycles "
        f"of {COMMIT_EVERY} batches + one promotion",
        f"online.promote_ms = {median(phase['promote_wall_s']) * 1e3:.2f} ms "
        "(the loop's own promote-cycle clock)",
        f"online.ingest_rps = {ingest:.2f} interactions/s (median over cycles)",
        f"serve.latency_p50_ms = {median(lat) / 1e6:.4f} ms over "
        f"{len(lat)} reads",
        f"serve.latency_p99_ms = {percentile(lat, 99) / 1e6:.4f} ms"
        + ("" if len(lat) >= 1000 else " (fewer than 1000 reads: no tail)"),
        f"serve.recall_at_10 = {recall:.4f}",
    ]
    return {"op_p50_ms": p50_ms, "ops_per_s": ingest, "quality": recall}, notes


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def _dirty_rows(args, kwargs) -> dict:
    return {"dirty": int(args[0].dirty_row_count(ENTITY_TABLE))}


def _open_mode(args, kwargs) -> dict:
    return {"mode": kwargs.get("mode", args[1] if len(args) > 1 else "train")}


def install_tracing(tracer) -> None:
    readpath.install_tracing(tracer, StoredEmbeddingRecommender)
    tracer.wrap(OnlineLoop, "run", "online.run")
    tracer.wrap(ShadowTrainer, "apply", "online.apply")
    tracer.wrap(MmapShardStore, "commit", "store.commit", before=_dirty_rows)
    tracer.wrap(MmapShardStore, "open", "store.open", before=_open_mode)
    tracer.wrap(IvfIndex, "build", "retrieval.build")
    tracer.wrap(RecommenderService, "promote", "serving.promote")


def layers(tracer, state: State) -> dict:
    """Read-path layers over the benchmark's reads; promotion layers as
    medians over spans inside ``OnlineLoop.run`` (set-up excluded)."""
    # The online world's service has no admission queue.
    out = readpath.layer_metrics(tracer, admission=False)
    spans = tracer.closed()
    roots = tracer.root_of()
    runs = {s[0] for s in spans if s[2] == "online.run"}
    inside = [s for s in spans if roots[s[0]] in runs]
    by_name: dict[str, list] = defaultdict(list)
    for span in inside:
        by_name[span[2]].append(span)

    def dur_ms(name, keep=lambda s: True):
        values = [(s[5] - s[4]) / 1e6 for s in by_name[name] if keep(s)]
        return median(values) if values else 0.0

    builds_under: dict[int, int] = defaultdict(int)
    watch_under: dict[int, int] = defaultdict(int)
    for span in inside:
        if span[2] == "retrieval.build" and span[1] is not None:
            builds_under[span[1]] += span[5] - span[4]
        if span[2] == "serving.serve" and span[1] in runs:
            watch_under[span[1]] += span[5] - span[4]
    canary = [
        (s[5] - s[4] - builds_under[s[0]]) / 1e6 for s in by_name["serving.promote"]
    ]
    out.update({
        "online.apply_ms": dur_ms("online.apply"),
        "online.dirty_rows": median(
            [s[6]["dirty"] for s in by_name["store.commit"]]
        ),
        "store.commit_ms": dur_ms("store.commit"),
        "store.open_ms": dur_ms(
            "store.open", keep=lambda s: s[6]["mode"] == "serve"
        ),
        "retrieval.build_ms": dur_ms("retrieval.build"),
        "serving.canary_ms": median(canary),
        "online.watch_ms": median([ns / 1e6 for ns in watch_under.values()]),
    })
    return out
