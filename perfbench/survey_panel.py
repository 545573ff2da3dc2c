"""``survey-panel``: the survey's cross-family panel, fitted and evaluated.

Inputs (all from the seed): the seeded ``movie`` scenario (users, items,
aligned item KG) at the comparative studies' size, cut to exactly
``interactions`` interactions by a seeded draw (a world with fewer is
drawn again from the same stream), so every seed trains on the same
amount of feedback.  The panel is the ``study_unified_methods`` set with
its epoch counts: BPR-MF
(CF), CKE (embedding), HeteRec (path), RippleNet, KGCN, KGAT and AKUPM
(unified), run in-process through ``run_panel`` on one 80/20 split.

One operation is one whole panel pass.  After every pass the benchmark
computes each fitted model's full-ranking held-out AUC from
``score_all`` itself: for each test user, every held-out item against
every item the user never interacted with in the generated world.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.autograd.optim import Optimizer
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.interactions import InteractionMatrix
from repro.core.splitter import random_split
from repro.data import synthetic
from repro.data.scenarios import make_movie_dataset
from repro.eval.evaluator import Evaluator
from repro.experiments.harness import run_panel
from repro.kg import sampling
from repro.models.baselines import BPRMF
from repro.models.embedding_based import CKE
from repro.models.path_based import HeteRec
from repro.models.unified import AKUPM, KGAT, KGCN, RippleNet

from .common import Outcome, median

NAME = "survey-panel"

#: (panel entry, survey family, class, keyword arguments at full size).
PANEL = (
    ("BPR-MF", "cf", BPRMF, {"epochs": 25}),
    ("CKE", "embedding", CKE, {"epochs": 25}),
    ("HeteRec", "path", HeteRec, {}),
    ("RippleNet", "unified", RippleNet, {"epochs": 20, "num_negatives": 2}),
    ("KGCN", "unified", KGCN, {"epochs": 20, "num_negatives": 2}),
    ("KGAT", "unified", KGAT, {"epochs": 10}),
    ("AKUPM", "unified", AKUPM, {"epochs": 20}),
)
FAMILIES = ("cf", "embedding", "path", "unified")
MEAN_INTERACTIONS = 11.0  # per user, before the cut to ``interactions``


@dataclass(frozen=True)
class Config:
    num_users: int = 80
    num_items: int = 120
    #: Interactions kept (a seeded draw from those generated).
    interactions: int = 760
    #: Multiplies every entry's epoch count (``SMALL`` trains briefly).
    epoch_scale: float = 1.0


FULL = Config()
SMALL = Config(num_users=40, num_items=60, interactions=380, epoch_scale=0.4)


@dataclass
class State:
    config: Config
    seed: int
    dataset: Dataset
    test: Dataset
    #: Every generated interaction, kept or not: never a negative.
    world: Dataset

    def close(self) -> None:
        pass


def setup(config: Config, seed: int, workdir) -> State:
    rng = np.random.default_rng(seed)
    while True:
        world = make_movie_dataset(
            seed=rng, num_users=config.num_users, num_items=config.num_items,
            mean_interactions=MEAN_INTERACTIONS,
        )
        pairs = world.interactions.pairs()
        if pairs.shape[0] >= config.interactions:
            break
    keep = np.sort(rng.choice(pairs.shape[0], config.interactions, replace=False))
    dataset = world.with_interactions(
        InteractionMatrix(
            pairs[keep, 0], pairs[keep, 1], world.num_users, world.num_items
        )
    )
    __, test = random_split(dataset, test_fraction=0.2, seed=seed)
    return State(config, seed, dataset, test, world)


def _factories(state: State, fitted: dict, tracer) -> dict:
    """``run_panel`` factories that also hand the benchmark each model."""
    scale = state.config.epoch_scale

    def factory(name, family, cls, kwargs):
        def make():
            scaled = {
                k: max(1, round(v * scale)) if k == "epochs" else v
                for k, v in kwargs.items()
            }
            model = cls(seed=state.seed, **scaled)
            if tracer is not None:
                model.fit = tracer.traced(
                    model.fit, "models.fit",
                    before=lambda args, kw: {"family": family},
                )
            fitted[name] = model
            return model

        return make

    return {name: factory(name, *rest) for name, *rest in PANEL}


def full_ranking_auc(model, world: Dataset, test: Dataset) -> float:
    """Mean over test users of P(held-out item outscores an item the user
    never interacted with), ties counted half, over the full catalog."""
    values = []
    for user in range(test.num_users):
        positives = test.interactions.items_of(user)
        if positives.size == 0:
            continue
        known = np.zeros(world.num_items, dtype=bool)
        known[world.interactions.items_of(user)] = True
        scores = np.asarray(model.score_all(user), dtype=np.float64)
        negatives = np.sort(scores[~known])
        if negatives.size == 0:
            continue
        pos = scores[positives]
        below = np.searchsorted(negatives, pos, side="left")
        upto = np.searchsorted(negatives, pos, side="right")
        values.append(float(np.mean(below + 0.5 * (upto - below))) / negatives.size)
    return float(np.mean(values))


def measure(state: State, seconds: float, tracer=None) -> dict:
    """Whole panel passes while another one fits in ``seconds`` (at
    least one)."""
    outcome = Outcome()
    passes_ns: list[int] = []
    aucs: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        fitted: dict = {}
        factories = _factories(state, fitted, tracer)
        if tracer is not None:
            tracer.group = f"pass{len(passes_ns)}"
        t0 = time.perf_counter_ns()
        panel = run_panel(state.dataset, factories, seed=state.seed)
        passes_ns.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.group = None

        outcome.attempted += len(factories)
        outcome.failed += len(panel.failures)
        outcome.notes += [f"panel failure: {f.describe()}" for f in panel.failures]
        failed = set(panel.failed_models)
        for name, model in fitted.items():
            if name in failed:
                continue
            auc = full_ranking_auc(model, state.world, state.test)
            aucs[name] = auc
            outcome.expect(auc > 0.5, f"{name}: full-ranking AUC {auc:.4f} <= 0.5")
        if time.perf_counter() - start + median(passes_ns) / 1e9 > seconds:
            break
    return {"outcome": outcome, "passes_ns": passes_ns, "aucs": aucs}


def check(state: State, phase: dict, outcome: Outcome) -> None:
    outcome.absorb(phase["outcome"])


def e2e(state: State, phase: dict) -> tuple[dict, list[str]]:
    passes_ns, aucs = phase["passes_ns"], phase["aucs"]
    wall_ms = median(passes_ns) / 1e6
    auc_mean = float(np.mean(list(aucs.values())))
    notes = [
        f"panel.wall_s = {wall_ms / 1e3:.3f} s (median of {len(passes_ns)} "
        f"passes over {len(PANEL)} models, {state.config.interactions} "
        "interactions)",
        f"panel.auc_mean = {auc_mean:.4f} (full-ranking, held-out)",
        "per-model AUC: " + ", ".join(f"{m}={a:.3f}" for m, a in aucs.items()),
    ]
    metrics = {
        "op_p50_ms": wall_ms,
        "ops_per_s": len(PANEL) / (wall_ms / 1e3),
        "quality": auc_mean,
    }
    return metrics, notes


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def install_tracing(tracer) -> None:
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Optimizer, "step", "autograd.step")
    tracer.wrap(sampling.NeighborCache, "sample", "kg.sample")
    tracer.wrap_function_everywhere(sampling.corrupt_batch, "kg.sample")
    tracer.wrap(Evaluator, "evaluate", "eval.evaluate")
    tracer.wrap_function_everywhere(synthetic.generate_dataset, "data.generate")


def layers(tracer, state: State) -> dict:
    """Per traced pass: fit seconds by family (inclusive), self time of
    the training layers; median data generation over the set-ups."""
    spans = tracer.closed()
    self_ns = tracer.self_times_ns()
    passes = len({s[3] for s in spans if s[2] == "models.fit"}) or 1
    fit_ns: dict[str, int] = defaultdict(int)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[2] == "models.fit":
            fit_ns[span[6]["family"]] += span[5] - span[4]
        totals[span[2]] += self_ns[span[0]]
    generate = [s[5] - s[4] for s in spans if s[2] == "data.generate"]
    out = {f"models.{f}_fit_s": fit_ns[f] / passes / 1e9 for f in FAMILIES}
    out.update({
        "autograd.backward_ms": totals["autograd.backward"] / passes / 1e6,
        "autograd.step_ms": totals["autograd.step"] / passes / 1e6,
        "kg.sample_ms": totals["kg.sample"] / passes / 1e6,
        "eval.evaluate_ms": totals["eval.evaluate"] / passes / 1e6,
        "data.generate_ms": median(generate) / 1e6,
    })
    return out
