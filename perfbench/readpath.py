"""The read path shared by ``serve-persona`` and ``online-churn``.

:class:`ClosedLoop` is the timed caller: it issues one request, waits for
the answer, records the wall time and keeps the response for checking
after the clock stops.  :class:`ExactScorer` is the benchmark's own
brute-force reference: dot products of the generating user and item
arrays, and the exact seen-masked top-10 they imply.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from repro.retrieval import IvfIndex
from repro.runtime.guards import validate_scores
from repro.serving.admission import AdmissionQueue
from repro.serving.service import RecommenderService

from .common import Outcome, median

RECALL_K = 10
#: Width of the windows throughput is counted in (see ``median_rate``).
WINDOW_S = 0.5


class ExactScorer:
    """Brute-force scores and seen-masked top-k over one set of arrays."""

    def __init__(self, users: np.ndarray, items: np.ndarray, dataset) -> None:
        self.users = np.asarray(users, dtype=np.float64)
        self.items = np.asarray(items, dtype=np.float64)
        self.dataset = dataset
        self._top: dict[tuple[int, bool], np.ndarray] = {}

    def scores(self, user: int, ids: np.ndarray) -> np.ndarray:
        return self.items[ids] @ self.users[user]

    def seen(self, user: int) -> np.ndarray:
        return self.dataset.interactions.items_of(user)

    def top(self, user: int, exclude_seen: bool) -> np.ndarray:
        key = (user, exclude_seen)
        if key not in self._top:
            full = self.items @ self.users[user]
            if exclude_seen:
                full[self.seen(user)] = -np.inf
            top = np.argpartition(-full, RECALL_K - 1)[:RECALL_K]
            self._top[key] = top[np.argsort(-full[top], kind="stable")]
        return self._top[key]


class ClosedLoop:
    """One caller; the next request goes out when the previous returns."""

    def __init__(self, service: RecommenderService, tracer=None,
                 group: str = "r") -> None:
        self.service = service
        self.tracer = tracer
        self.group = group
        self.latencies_ns: list[int] = []
        self.done_ns: list[int] = []
        self.start_ns: int | None = None
        self.wall_ns = 0
        self.recalls: list[float] = []
        self._served: list[tuple] = []

    def run(self, next_request, seconds: float | None = None,
            count: int | None = None) -> None:
        """Serve until ``seconds`` of wall time pass or ``count`` requests."""
        serve, tracer = self.service.serve, self.tracer
        clock = time.perf_counter_ns
        start = clock()
        if self.start_ns is None:
            self.start_ns = start
        stop = start + int(seconds * 1e9) if seconds is not None else None
        n = 0
        while True:
            request = next_request()
            if tracer is not None:
                tracer.group = f"{self.group}{len(self._served)}"
            t0 = clock()
            response = serve(request)
            t1 = clock()
            self.latencies_ns.append(t1 - t0)
            self.done_ns.append(t1)
            self._served.append((request, response))
            n += 1
            if (stop is not None and t1 >= stop) or n == count:
                break
        if tracer is not None:
            tracer.group = None
        self.wall_ns += clock() - start

    def median_rate(self) -> float:
        """Median over whole ``WINDOW_S`` windows of answers per second.

        A median of many short windows is not moved by a few stalls that
        the host's other load causes, which a whole-run mean would be.
        """
        width = int(WINDOW_S * 1e9)
        counts = Counter((t - self.start_ns) // width for t in self.done_ns)
        full = [counts[w] for w in range(max(counts))]  # last one is partial
        if not full:
            return len(self.done_ns) / (self.wall_ns / 1e9)
        return median(full) / WINDOW_S

    def check(self, scorer: ExactScorer, num_items: int,
              outcome: Outcome) -> None:
        """Count non-ok answers as failed; verify every ok answer."""
        expect = outcome.expect
        for request, response in self._served:
            outcome.attempted += 1
            if response.status != "ok":
                outcome.failed += 1
                continue
            user, k = int(request.user_id), int(request.k)
            ids = np.asarray(response.items, dtype=np.int64)
            scores = np.asarray(response.scores, dtype=np.float64)
            where = f"request {response.request_id} (user {user}, k {k})"
            expect(1 <= ids.size <= k, f"{where}: {ids.size} ids for k={k}")
            expect(np.unique(ids).size == ids.size, f"{where}: repeated ids")
            if ids.size and not (ids.min() >= 0 and ids.max() < num_items):
                expect(False, f"{where}: id outside [0, {num_items})")
                continue
            if request.exclude_seen:
                expect(not np.isin(ids, scorer.seen(user)).any(),
                       f"{where}: served a seen item")
            expect(
                np.allclose(scores, scorer.scores(user, ids),
                            rtol=1e-9, atol=1e-9),
                f"{where}: served scores differ from exact dot products",
            )
            expect(bool(np.all(np.diff(scores) <= 0)),
                   f"{where}: answer is not sorted by score")
            if k >= RECALL_K:
                truth = scorer.top(user, request.exclude_seen)
                hits = np.intersect1d(ids[:RECALL_K], truth).size
                self.recalls.append(hits / RECALL_K)
        self._served.clear()


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def install_tracing(tracer, base_cls) -> None:
    """Spans for every read-path layer; ``base_cls`` owns ``score_items``."""
    tracer.wrap(RecommenderService, "serve", "serving.serve")
    tracer.wrap(AdmissionQueue, "admit", "serving.admit")
    tracer.wrap(IvfIndex, "search", "retrieval.search",
                after=lambda ids: {"ids": int(ids.size)})
    tracer.wrap(base_cls, "score_items", "retrieval.rerank")
    tracer.wrap_function_everywhere(validate_scores, "runtime.guard")


#: Per-layer metric -> span whose self time it reports (per request).
READ_LAYERS = {
    "serving.admit_us": "serving.admit",
    "retrieval.search_us": "retrieval.search",
    "retrieval.rerank_us": "retrieval.rerank",
    "runtime.guard_us": "runtime.guard",
    "serving.self_us": "serving.serve",
}


def layer_metrics(tracer, admission: bool = True) -> dict:
    """Mean self time per request of each read-path layer, over requests
    the benchmark issued itself (root-level ``serving.serve`` spans).
    ``admission=False`` leaves out the admission layer (no queue)."""
    spans = tracer.closed()
    self_ns = tracer.self_times_ns()
    roots = tracer.root_of()
    requests = {s[0] for s in spans if s[2] == "serving.serve" and s[1] is None}
    totals: dict[str, int] = defaultdict(int)
    searches = candidates = 0
    for span in spans:
        if roots[span[0]] not in requests:
            continue
        totals[span[2]] += self_ns[span[0]]
        if span[2] == "retrieval.search":
            searches += 1
            candidates += span[6]["ids"]
    n = len(requests)
    out = {
        metric: (totals[name] / n / 1e3 if n else 0.0)
        for metric, name in READ_LAYERS.items()
    }
    out["retrieval.candidates"] = candidates / searches if searches else 0.0
    if not admission:
        del out["serving.admit_us"]
    return out
