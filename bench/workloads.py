"""The benchmark's four workloads.

Every input -- arrival times, request samples, network weights, held-out
digits -- is generated here from the run's seed with numpy, never by the
program under test, so a change to the program cannot change the
workload.  Each layer is measured from outside: wall time around calls
into public APIs (``ServingRuntime``, ``PrimeExecutor.program_network`` /
``run_functional`` / ``estimate``, ``quantized_forward``) and the
lifecycle timestamps the runtime stamps on each ``ServeRequest``.

Each workload returns an :class:`Outcome`.  Four of its metrics are
defined by every workload and gated (see ``BENCHMARK.json``):
``setup_s``, ``latency_ms`` and ``throughput_per_s`` (the workload's own
latency and rate, each equal to one of its named metrics) and
``agreement`` (the crossbar's top-1 agreement with the software model
on a fixed canary set, the same in every workload; see
:func:`fidelity_canary`).
The rest are the named per-workload and per-layer metrics that
bench/README.md defines.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.core.scheduler import BankScheduler
from repro.eval.precision_study import quantized_forward
from repro.eval.workloads import MLBENCH_ORDER, get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf.cache import (
    ArtifactCache,
    reference_network,
    reference_network_key,
)
from repro.serve import ServeConfig, ServingRuntime, program_state

#: Replica threads per deployment: the two cores of the reference host,
#: fixed so that the workload does not change with the host.
REPLICAS = 2
#: A reply later than this after its due time misses the latency limit.
SLO_MS = 50.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Longest the generator sleeps before polling the runtime again.
POLL_S = 1e-4
#: Slices of an open-loop schedule that gated serving metrics take
#: their median over.
WINDOWS = 10
#: Distinct input samples per deployment.  Requests draw from this
#: pool, so one reference pass checks every reply.
POOL = 256
#: Samples in each deployment's calibration batch.
CALIBRATION = 64

#: serve-light: open-loop Poisson rate (req/s).
LIGHT_RATE = 100.0
#: serve-heavy: steady open-loop rate (req/s), held for half the run.
#: Micro-batches here hold about 1.5 requests, and replicas are 20-30%
#: busy.  At 300 req/s a slow spell of the host took them from a
#: third to two thirds busy, and the median from 5.7 to 19 ms; near
#: 800 req/s they are 55-80% busy and the median swings twofold.
HEAVY_RATE = 200.0
#: serve-heavy: saturating bursts of BURST_PER_S requests per measured
#: second each, all due at once; together they take about the other
#: half of the run.
BURSTS = 15
BURST_PER_S = 90

#: churn: the models deployed in turn on one shared bank scheduler.
CHURN_MODELS = ("MLP-S", "MLP-M", "MLP-L", "CNN-1", "CNN-2")

#: offline-fidelity: held-out samples per round and the training
#: parameters that key each trained reference network in the cache.
OFFLINE_NETS = {
    "MLP-S": (
        1024,
        {"n_train": 5000, "n_test": 600, "epochs": 20, "seed": 7},
    ),
    "CNN-1": (
        384,
        {"n_train": 5000, "n_test": 800, "epochs": 10, "seed": 7},
    ),
}
#: offline-fidelity: samples per ``run_functional`` call.
OFFLINE_CHUNK = 64
#: Fidelity canary: held-out digits per reference net, and the fixed
#: seed its digits and programming variation are drawn from.
CANARY = {"MLP-S": 256, "CNN-1": 64}
CANARY_SEED = 0
#: Software reference precision: the crossbar's effective bits.
SW_INPUT_BITS = DEFAULT_PRIME_CONFIG.crossbar.effective_input_bits
SW_WEIGHT_BITS = DEFAULT_PRIME_CONFIG.crossbar.effective_weight_bits

#: Serving-layer shares that every workload reports; one that serves
#: nothing reports them as 0.
NO_SERVING = ("serve.batcher.share", "serve.replica.busy_share")


@dataclass
class Run:
    """What one workload run needs to know."""

    seed: int
    seconds: float
    smoke: bool
    #: Telemetry is on; workloads add the measurements only a traced
    #: run reports.
    trace: bool
    #: Build directory inside the checkout (trained reference nets).
    build_dir: Path


@dataclass
class Outcome:
    """Metrics and correctness accounting of one workload run."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per failed correctness check.
    errors: list[str] = field(default_factory=list)
    #: Facts about the run that are not metrics (cache hits, sizes).
    attrs: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def alias(self, name: str, source: str, unit: str) -> None:
        """Report named metric ``source`` again as gated metric ``name``."""
        self.put(name, self.metrics[source][0], unit)

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Account ``attempted`` operations, ``failed`` of them failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{what}: {failed} of {attempted} failed")


# -- inputs -------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def build_network(name: str, rng: np.random.Generator):
    """MlBench ``name`` with He-normal weights drawn from ``rng``.

    The program builds the layer objects; the weights are drawn here and
    written over whatever its initialiser chose.
    """
    topology = get_workload(name).topology()
    net = topology.build(rng=np.random.default_rng(0))
    for layer in net.layers:
        weight = getattr(layer, "weight", None)
        if weight is None:
            continue
        weight[...] = rng.standard_normal(weight.shape) * np.sqrt(
            2.0 / weight.shape[0]
        )
        layer.bias[...] = 0.01 * rng.standard_normal(layer.bias.shape)
    return topology, net


#: 5x7 glyphs of the synthetic digit set the reference networks are
#: trained on, one 35-bit string per digit, row by row.
_GLYPHS = (
    "01110100011001110101110011000101110",
    "00100011000010000100001000010001110",
    "01110100010000100010001000100011111",
    "11111000100010000010000011000101110",
    "00010001100101010010111110001000010",
    "11111100001111000001000011000101110",
    "00110010001000011110100011000101110",
    "11111000010001000100010000100001000",
    "01110100011000101110100011000101110",
    "01110100011000101111000010001001100",
)


def render_digits(
    n: int, rng: np.random.Generator, flat: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` labelled 28x28 digits from the training set's distribution:
    a glyph scaled 2-3x at a random offset and intensity, plus noise."""
    glyphs = [
        np.array([float(b) for b in g]).reshape(7, 5) for g in _GLYPHS
    ]
    labels = rng.integers(0, 10, n)
    images = np.zeros((n, 28, 28))
    for k, digit in enumerate(labels):
        scale = int(rng.integers(2, 4))
        glyph = np.kron(glyphs[digit], np.ones((scale, scale)))
        h, w = glyph.shape
        dy = int(rng.integers(0, 28 - h + 1))
        dx = int(rng.integers(0, 28 - w + 1))
        images[k, dy : dy + h, dx : dx + w] = glyph * rng.uniform(0.6, 1.0)
    images += 0.08 * rng.standard_normal(images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    shape = (n, 784) if flat else (n, 28, 28, 1)
    return images.reshape(shape), labels


def software_logits(net, x: np.ndarray) -> np.ndarray:
    """The software model: the network's forward pass at the crossbar's
    effective precision (6-bit inputs, 8-bit weights)."""
    return quantized_forward(net, x, SW_INPUT_BITS, SW_WEIGHT_BITS)


# -- measurement helpers ------------------------------------------------


def _median_setup(make, discard):
    """Run ``make`` SETUP_REPEATS times; hand all but the last result to
    ``discard``; return the last result and the median wall time."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            discard(state)
            state = None
            # A closed deployment sits in reference cycles; free it
            # before the next set-up, outside that set-up's time.
            gc.collect()
        start = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times)


def _ms(seconds) -> np.ndarray:
    return np.asarray(seconds, dtype=np.float64) * 1e3


def _pct(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile; failed requests enter as infinity."""
    if not len(values):
        return 0.0
    return float(np.percentile(values, q, method="inverted_cdf"))


def _deploy(net, topology, pool, scheduler=None) -> ServingRuntime:
    return ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="thread"),
        scheduler=scheduler,
        max_replicas=REPLICAS,
        calibration=pool[:CALIBRATION],
    )


@dataclass
class _Replies:
    """Verdicts and timestamps (s) of a list of requests."""

    ok: np.ndarray
    due: np.ndarray
    enqueue: np.ndarray
    batched: np.ndarray
    dispatched: np.ndarray
    done: np.ndarray

    @classmethod
    def judge(cls, requests, due, expected) -> "_Replies":
        """Check each reply against ``expected[i]`` bit for bit.

        A request that failed, was shed or never replied is not ok, and
        counts as missing every latency limit.
        """

        def stamp(name):
            values = [getattr(r, name) for r in requests]
            return np.array([np.inf if v is None else v for v in values])

        ok = [
            r.error is None
            and r.result is not None
            and np.array_equal(r.result, want)
            for r, want in zip(requests, expected)
        ]
        return cls(
            ok=np.array(ok, dtype=bool),
            due=np.asarray(due, dtype=np.float64),
            enqueue=stamp("t_enqueue"),
            batched=stamp("t_batched"),
            dispatched=stamp("t_dispatched"),
            done=stamp("t_done"),
        )

    @property
    def latency_ms(self) -> np.ndarray:
        """Due time to reply; infinite for requests that are not ok."""
        return np.where(self.ok, _ms(self.done - self.due), np.inf)

    def stage_metrics(self, out: Outcome) -> None:
        """Per-stage breakdown of the ok requests, from their timestamps."""
        ok = self.ok
        total = _ms(self.done[ok] - self.enqueue[ok])
        batcher = _ms(self.batched[ok] - self.enqueue[ok])
        queue = _ms(self.dispatched[ok] - self.batched[ok])
        turnaround = _ms(self.done[ok] - self.dispatched[ok])
        for q in (50, 99):
            out.put(f"serve.batcher.wait_ms.p{q}", _pct(batcher, q), "ms")
            out.put(f"serve.queue.wait_ms.p{q}", _pct(queue, q), "ms")
            out.put(
                f"serve.replica.turnaround_ms.p{q}",
                _pct(turnaround, q),
                "ms",
            )
        denominator = total.sum() or 1.0
        out.put("serve.batcher.share", batcher.sum() / denominator, "ratio")
        out.put(
            "serve.replica.share", turnaround.sum() / denominator, "ratio"
        )
        batches = len(np.unique(self.batched[ok]))
        out.put(
            "serve.batcher.batch_size.mean",
            ok.sum() / max(batches, 1),
            "count",
        )


# -- serving ------------------------------------------------------------


def _open_loop(runtime: ServingRuntime, samples, due_at) -> list:
    """Submit ``samples[i]`` once the clock reaches ``due_at[i]``, however
    far behind the runtime is (open loop), and poll the runtime in
    between; return the requests once none is queued or in flight."""
    requests = []
    n = len(due_at)
    i = 0
    while True:
        now = time.perf_counter()
        while i < n and due_at[i] <= now:
            requests.append(runtime.submit(samples[i]))
            i += 1
        moved = runtime.poll(flush=i == n)
        idle = not runtime.inflight and not runtime.batcher.queue_depth
        if i == n and idle:
            return requests
        if not moved:
            wait = due_at[i] - time.perf_counter() if i < n else POLL_S
            if wait > 0:
                time.sleep(min(wait, POLL_S))


@dataclass
class _Phase:
    """The requests of one open-loop phase, before they are judged."""

    requests: list
    idx: np.ndarray
    due: np.ndarray
    busy_s: float
    #: Start and length of the arrival schedule.
    start: float
    seconds: float

    @property
    def elapsed_s(self) -> float:
        """Start of the schedule to the last reply."""
        done = [r.t_done for r in self.requests if r.t_done is not None]
        return max(done) - self.start

    def judge(self, out: Outcome, reference) -> _Replies:
        replies = _Replies.judge(self.requests, self.due, reference[self.idx])
        out.count(len(self.requests), int((~replies.ok).sum()), "replies")
        return replies

    def windows(self, values: np.ndarray) -> list[np.ndarray]:
        """``values`` split into WINDOWS slices of the schedule by due
        time; empty slices are dropped."""
        edges = np.linspace(0.0, self.seconds, WINDOWS + 1)[1:-1]
        which = np.searchsorted(edges, self.due - self.start, side="right")
        slices = [values[which == k] for k in range(WINDOWS)]
        return [s for s in slices if len(s)]


def _run_phase(runtime, pool, idx, due, seconds: float) -> _Phase:
    """Requests ``pool[idx]`` due ``due`` seconds after a start just
    ahead of now."""
    busy0 = runtime.busy_ns
    start = time.perf_counter() + 0.01
    requests = _open_loop(runtime, pool[idx], start + due)
    busy_s = (runtime.busy_ns - busy0) / 1e9
    return _Phase(requests, idx, start + due, busy_s, start, seconds)


def _poisson_phase(
    seed: int, runtime, pool, rate: float, seconds: float
) -> _Phase:
    """``rate * seconds`` arrivals scattered uniformly over ``seconds``:
    a Poisson process conditioned on its count, so every seed offers
    the same load."""
    n = max(1, round(rate * seconds))
    rng = _rng(seed, 2)
    due = np.sort(rng.uniform(0.0, seconds, n))
    idx = rng.integers(0, POOL, n)
    return _run_phase(runtime, pool, idx, due, seconds)


def _serving_setup(run: Run, out: Outcome):
    """MLP-L with the run's weights, the request pool, and a warmed
    deployment, deployed SETUP_REPEATS times; the last one is kept."""
    topology, net = build_network("MLP-L", _rng(run.seed, 0))
    pool = _rng(run.seed, 1).random((POOL, *topology.input_shape))

    def make():
        runtime = _deploy(net, topology, pool)
        # Warm-up: one lone request, then a full micro-batch per replica.
        runtime.serve(pool[:1])
        runtime.serve(np.concatenate([pool] * REPLICAS))
        return runtime

    runtime, setup_s = _median_setup(make, ServingRuntime.close)
    out.put("setup_s", setup_s, "s")
    return runtime, pool


def _steady_metrics(out: Outcome, phase: _Phase, replies: _Replies) -> None:
    """Latency from due time, goodput, generator lateness and stages.

    The gated numbers are medians over the schedule's WINDOWS slices, so
    that a slow spell of the host -- or one of the program's episodic
    tail stalls -- moves them only if it lasts half the run.
    """
    latency = replies.latency_ms
    windows = phase.windows(latency)
    out.put(
        "serve.p50_ms",
        statistics.median(float(np.median(w)) for w in windows),
        "ms",
    )
    for name, q in (("p50", 50), ("p95", 95), ("p99", 99), ("p999", 99.9)):
        out.put(f"serve.latency_ms.{name}", _pct(latency, q), "ms")
    share = statistics.median(float(np.mean(w <= SLO_MS)) for w in windows)
    out.put(
        "serve.goodput_rps", share * len(latency) / phase.elapsed_s, "req/s"
    )
    out.put(
        "serve.slo_share", float(np.mean(latency <= SLO_MS)), "ratio"
    )
    late = _ms(replies.enqueue - replies.due)
    out.put("serve.gen.late_ms.p99", _pct(late, 99), "ms")
    out.put(
        "serve.replica.busy_share",
        phase.busy_s / (REPLICAS * phase.elapsed_s),
        "ratio",
    )
    replies.stage_metrics(out)


def _executor_probe(out: Outcome, runtime: ServingRuntime, pool) -> None:
    """Direct batch-1 and batch-256 calls on a programmed MLP-L copy,
    with telemetry paused so that the probe times the executor alone."""
    session = telemetry.swap_session(None)
    try:
        executor, programmed = program_state(runtime.spec)
        for batch, calls in ((1, 50), (POOL, 8)):
            times = []
            for _ in range(calls):
                start = time.perf_counter()
                executor.run_functional(
                    runtime.network,
                    runtime.plan,
                    pool[:batch],
                    programmed=programmed,
                )
                times.append(time.perf_counter() - start)
            out.put(
                f"executor.mlp-l.b{batch}_ms",
                statistics.median(times) * 1e3,
                "ms",
            )
    finally:
        telemetry.swap_session(session)


def serve_light(run: Run) -> Outcome:
    """MLP-L on two replica threads under a light open loop."""
    out = _canary_outcome(run)
    runtime, pool = _serving_setup(run, out)
    with runtime:
        phase = _poisson_phase(
            run.seed, runtime, pool, LIGHT_RATE, run.seconds
        )
    replies = phase.judge(out, runtime.reference(pool))
    _steady_metrics(out, phase, replies)
    out.alias("latency_ms", "serve.p50_ms", "ms")
    out.alias("throughput_per_s", "serve.goodput_rps", "1/s")
    if run.trace:
        _executor_probe(out, runtime, pool)
    return out


def serve_heavy(run: Run) -> Outcome:
    """The same deployment at a steady moderate load, then saturating
    bursts."""
    out = _canary_outcome(run)
    runtime, pool = _serving_setup(run, out)
    burst = max(64, round(BURST_PER_S * run.seconds))
    rng = _rng(run.seed, 3)
    with runtime:
        steady = _poisson_phase(
            run.seed, runtime, pool, HEAVY_RATE, run.seconds / 2
        )
        bursts = []
        for _ in range(BURSTS):
            idx = rng.integers(0, POOL, burst)
            bursts.append(_run_phase(runtime, pool, idx, np.zeros(burst), 0))
    reference = runtime.reference(pool)
    _steady_metrics(out, steady, steady.judge(out, reference))
    capacities = []
    for phase in bursts:
        replies = phase.judge(out, reference)
        capacities.append(replies.ok.sum() / phase.elapsed_s)
    out.put("serve.capacity_rps", statistics.median(capacities), "req/s")
    out.alias("latency_ms", "serve.p50_ms", "ms")
    out.alias("throughput_per_s", "serve.capacity_rps", "1/s")
    out.attrs["burst_requests"] = burst
    out.attrs["burst_rps"] = [float(c) for c in capacities]
    if run.trace:
        _executor_probe(out, runtime, pool)
    return out


# -- churn --------------------------------------------------------------


def _counter(name: str) -> float:
    return telemetry.counter_total(name) if telemetry.enabled() else 0.0


@dataclass
class _Step:
    """One model's deploy, first reply, serve and close (seconds)."""

    model: str
    requests: list
    deploy: float
    first_batch: float
    serve: float
    close: float
    #: Replica execution time summed over the replicas.
    busy: float

    @property
    def first_reply(self) -> float:
        return self.deploy + self.first_batch

    @property
    def live(self) -> float:
        return self.first_batch + self.serve + self.close


def _churn_step(
    name, topology, net, pool, scheduler
) -> tuple[_Step, ServingRuntime]:
    """One step and its closed deployment."""
    t0 = time.perf_counter()
    runtime = _deploy(net, topology, pool, scheduler)
    t1 = time.perf_counter()
    requests = [runtime.submit(pool[0])]
    runtime.pump(flush=True)
    t2 = time.perf_counter()
    requests += [runtime.submit(x) for x in pool[1:]]
    runtime.pump(flush=True)
    t3 = time.perf_counter()
    runtime.close()
    t4 = time.perf_counter()
    step = _Step(
        name,
        requests,
        t1 - t0,
        t2 - t1,
        t3 - t2,
        t4 - t3,
        runtime.busy_ns / 1e9,
    )
    return step, runtime


def churn(run: Run) -> Outcome:
    """Deploy, serve and close five models in turn, cycle after cycle."""
    out = _canary_outcome(run)

    def make():
        models = {}
        for k, name in enumerate(CHURN_MODELS):
            topology, net = build_network(name, _rng(run.seed, 10 + k))
            shape = (POOL, *topology.input_shape)
            pool = _rng(run.seed, 20 + k).random(shape)
            models[name] = (topology, net, pool)
        return models

    models, setup_s = _median_setup(make, lambda state: None)
    out.put("setup_s", setup_s, "s")
    scheduler = BankScheduler(DEFAULT_PRIME_CONFIG)

    # The first cycle in a process is cold; it is reported, not gated.
    # Every deployment of a model is programmed alike, so one reference
    # pass per model, on its cold deployment, checks the replies of all
    # its deployments.
    cold_s, reference = 0.0, {}
    for name, (topology, net, pool) in models.items():
        step, runtime = _churn_step(name, topology, net, pool, scheduler)
        cold_s += step.first_reply + step.live
        reference[name] = runtime.reference(pool)
        del runtime
        gc.collect()
    out.put("churn.cold_cycle_s", cold_s, "s")

    def cycle() -> tuple[float, list[_Step]]:
        start = time.perf_counter()
        steps = []
        for name, model in models.items():
            steps.append(_churn_step(name, *model, scheduler)[0])
            # A closed deployment sits in reference cycles, about 0.5 GB
            # for MLP-L; freeing it is part of the cycle's cost.
            gc.collect()
        return time.perf_counter() - start, steps

    cells0 = _counter("crossbar.program_cells")
    compiles0 = _counter("perf.plan.compiles")
    cycles: list[tuple[float, list[_Step]]] = []
    deadline = time.perf_counter() + run.seconds
    # Stop before a cycle that would end past the deadline.
    while len(cycles) < (1 if run.smoke else 2) or (
        time.perf_counter() + cycles[-1][0] <= deadline
    ):
        cycles.append(cycle())
    if run.trace:
        for name, start in (
            ("crossbar.program_cells", cells0),
            ("perf.plan.compiles", compiles0),
        ):
            out.put(
                f"churn.{name}_per_cycle",
                (_counter(name) - start) / len(cycles),
                "count",
            )

    steps = [step for _, cycle_steps in cycles for step in cycle_steps]
    requests = [r for step in steps for r in step.requests]
    replies = _Replies.judge(
        requests,
        [r.t_enqueue for r in requests],
        [row for step in steps for row in reference[step.model]],
    )
    out.count(len(requests), int((~replies.ok).sum()), "churn replies")
    replies.stage_metrics(out)

    cycle_s = statistics.median(wall for wall, _ in cycles)
    out.put(
        "churn.first_reply_ms",
        statistics.median(step.first_reply for step in steps) * 1e3,
        "ms",
    )
    out.put("churn.cycle_s", cycle_s, "s")
    out.alias("latency_ms", "churn.first_reply_ms", "ms")
    out.put("throughput_per_s", len(CHURN_MODELS) / cycle_s, "1/s")
    for name in CHURN_MODELS:
        mine = [step for step in steps if step.model == name]
        for stage in ("deploy", "first_batch", "serve"):
            out.put(
                f"churn.{name.lower()}.{stage}_ms",
                statistics.median(getattr(s, stage) for s in mine) * 1e3,
                "ms",
            )
    out.put(
        "churn.close_ms",
        statistics.median(step.close for step in steps) * 1e3,
        "ms",
    )
    out.put(
        "serve.replica.busy_share",
        sum(step.busy for step in steps)
        / (REPLICAS * sum(step.live for step in steps)),
        "ratio",
    )
    out.attrs["cycles"] = len(cycles)
    return out


# -- offline fidelity ---------------------------------------------------


def _reference_nets(build_dir: Path) -> tuple[ArtifactCache, dict]:
    """Train (or find) both reference networks; excluded from set-up."""
    cache = ArtifactCache(build_dir / "reference-nets")
    hits = []
    start = time.perf_counter()
    for name, (_, train) in OFFLINE_NETS.items():
        key = reference_network_key(name, **train)
        entry = cache.entry_dir("reference_network", key)
        hits.append((entry / "meta.json").is_file())
        reference_network(name, cache=cache, **train)
    attrs = {
        "reference_cache": "hit" if all(hits) else "miss",
        "reference_s": time.perf_counter() - start,
    }
    return cache, attrs


def fidelity_canary(build_dir: Path) -> float:
    """Top-1 agreement of the crossbar with the software model on the
    canary: CANARY held-out digits per reference net, with programming
    variation on, all drawn from CANARY_SEED rather than the run's seed.

    Every run of every workload checks the same inputs on the same
    programmed devices, so the number moves only when the program's
    fidelity does.  Telemetry is paused: the canary is no layer's work.
    """
    cache = ArtifactCache(build_dir / "reference-nets")
    compiler = PrimeCompiler(DEFAULT_PRIME_CONFIG)
    executor = PrimeExecutor(DEFAULT_PRIME_CONFIG)
    session = telemetry.swap_session(None)
    try:
        agree = 0
        for k, (name, n) in enumerate(CANARY.items()):
            net, _, _ = reference_network(
                name, cache=cache, **OFFLINE_NETS[name][1]
            )
            topology = get_workload(name).topology()
            plan = compiler.compile(topology)
            flat = len(topology.input_shape) == 1
            x, _ = render_digits(n, _rng(CANARY_SEED, 50 + k), flat)
            programmed = executor.program_network(
                net, plan, rng=_rng(CANARY_SEED, 60 + k)
            )
            xbar = executor.run_functional(net, plan, x, programmed=programmed)
            software = software_logits(net, x)
            same = np.argmax(xbar, axis=-1) == np.argmax(software, axis=-1)
            agree += int(same.sum())
    finally:
        telemetry.swap_session(session)
    return agree / sum(CANARY.values())


def _canary_outcome(run: Run) -> Outcome:
    """A new outcome holding the fidelity canary as ``agreement``.

    Workloads evaluate the canary first, so that its transient memory
    (about 0.8 GB for CNN-1 on the per-engine path) is freed before they
    hold their own.
    """
    out = Outcome()
    out.put("agreement", fidelity_canary(run.build_dir), "ratio")
    return out


def _offline_setup(cache: ArtifactCache, digits: dict):
    """Reference nets from the cache, the software model's outputs and
    float accuracy on each net's held-out ``digits``, and the six
    MlBench plans."""
    compiler = PrimeCompiler(DEFAULT_PRIME_CONFIG)
    plans = {
        name: compiler.compile(get_workload(name).topology())
        for name in MLBENCH_ORDER
    }
    nets = {}
    for name, (_, train) in OFFLINE_NETS.items():
        net, _, _ = reference_network(name, cache=cache, **train)
        x, y = digits[name]
        start = time.perf_counter()
        software = np.argmax(software_logits(net, x), axis=-1)
        nets[name] = {
            "net": net,
            "x": x,
            "y": y,
            "sw_forward_s": time.perf_counter() - start,
            "sw_top1": software,
            "float_accuracy": net.accuracy(x, y),
        }
    return nets, plans


@dataclass
class _Round:
    """One offline round: every net programmed and run, every plan
    estimated."""

    program_s: dict
    run_s: dict
    logits: dict
    estimates: dict
    estimate_s: float
    round_s: float


def _program(seed: int, executor, nets, plans, name: str):
    """Program ``name`` with programming variation on, from a seeded
    generator: every round programs the same conductances."""
    k = list(nets).index(name)
    return executor.program_network(
        nets[name]["net"], plans[name], rng=_rng(seed, 40 + k)
    )


def run_chunked(executor, net, plan, x, programmed) -> np.ndarray:
    """``run_functional`` on ``x`` in OFFLINE_CHUNK-sample calls.

    The output equals one call on all of ``x``: calibration freezes on
    the first 64 samples either way, so OFFLINE_CHUNK must not be
    smaller.  The per-engine path holds about 12 MB per CNN-1 sample, so
    384 samples in one call peak near 5 GB.
    """
    return np.concatenate(
        [
            executor.run_functional(
                net, plan, x[i : i + OFFLINE_CHUNK], programmed=programmed
            )
            for i in range(0, len(x), OFFLINE_CHUNK)
        ]
    )


def _offline_round(seed: int, executor, nets, plans) -> _Round:
    r = _Round({}, {}, {}, {}, 0.0, 0.0)
    start = time.perf_counter()
    for name, state in nets.items():
        t0 = time.perf_counter()
        programmed = _program(seed, executor, nets, plans, name)
        t1 = time.perf_counter()
        r.logits[name] = run_chunked(
            executor, state["net"], plans[name], state["x"], programmed
        )
        r.program_s[name] = t1 - t0
        r.run_s[name] = time.perf_counter() - t1
    t0 = time.perf_counter()
    r.estimates = {name: executor.estimate(p) for name, p in plans.items()}
    r.estimate_s = time.perf_counter() - t0
    r.round_s = time.perf_counter() - start
    return r


def offline_fidelity(run: Run) -> Outcome:
    """Trained MLP-S and CNN-1 on crossbars with programming variation,
    against the software model at the crossbar's effective precision."""
    cache, attrs = _reference_nets(run.build_dir)
    out = _canary_outcome(run)
    out.attrs.update(attrs)
    scale = 8 if run.smoke else 1
    digits = {
        name: render_digits(
            n // scale,
            _rng(run.seed, 30 + k),
            len(get_workload(name).input_shape) == 1,
        )
        for k, (name, (n, _)) in enumerate(OFFLINE_NETS.items())
    }
    (nets, plans), setup_s = _median_setup(
        lambda: _offline_setup(cache, digits), lambda state: None
    )
    out.put("setup_s", setup_s, "s")
    executor = PrimeExecutor(DEFAULT_PRIME_CONFIG)
    warm = _offline_round(run.seed, executor, nets, plans)
    rounds = []
    deadline = time.perf_counter() + run.seconds
    # Stop before a round that would end past the deadline.
    while len(rounds) < (1 if run.smoke else 3) or (
        time.perf_counter() + rounds[-1].round_s <= deadline
    ):
        rounds.append(_offline_round(run.seed, executor, nets, plans))

    for r in rounds:
        for name, state in nets.items():
            n = len(state["y"])
            same = np.array_equal(r.logits[name], warm.logits[name])
            out.count(n, 0 if same else n, f"{name} logits across rounds")
        for name, report in r.estimates.items():
            ref = warm.estimates[name]
            same = (report.latency_s, report.energy_j) == (
                ref.latency_s,
                ref.energy_j,
            )
            out.count(1, 0 if same else 1, f"{name} estimate across rounds")

    samples = sum(len(state["y"]) for state in nets.values())
    out.put(
        "offline.round_ms",
        statistics.median(r.round_s for r in rounds) * 1e3,
        "ms",
    )
    out.put(
        "offline.samples_per_s",
        statistics.median(
            samples / sum(r.program_s[n] + r.run_s[n] for n in nets)
            for r in rounds
        ),
        "1/s",
    )
    out.alias("latency_ms", "offline.round_ms", "ms")
    out.alias("throughput_per_s", "offline.samples_per_s", "1/s")
    agree = 0
    for name, state in nets.items():
        key = name.lower()
        program_s = statistics.median(r.program_s[name] for r in rounds)
        run_s = statistics.median(r.run_s[name] for r in rounds)
        predicted = np.argmax(warm.logits[name], axis=-1)
        agree += int(np.sum(predicted == state["sw_top1"]))
        xbar = float(np.mean(predicted == state["y"]))
        sw = float(np.mean(state["sw_top1"] == state["y"]))
        n = len(state["y"])
        out.put(f"offline.{key}.program_ms", program_s * 1e3, "ms")
        out.put(f"offline.{key}.run_ms", run_s * 1e3, "ms")
        out.put(f"offline.{key}.samples_per_s", n / (program_s + run_s), "1/s")
        out.put(f"offline.{key}.xbar_accuracy", xbar, "ratio")
        out.put(f"offline.{key}.sw_accuracy", sw, "ratio")
        out.put(
            f"offline.{key}.float_accuracy", state["float_accuracy"], "ratio"
        )
        out.put(
            f"offline.{key}.sw_forward_ms", state["sw_forward_s"] * 1e3, "ms"
        )
        out.put(f"offline.{key}.gap_pts", abs(sw - xbar) * 100, "pts")
        if run.trace:
            # A second run on the same programmed arrays finds calibration
            # frozen: the steady-state cost of the batch.
            programmed = _program(run.seed, executor, nets, plans, name)
            args = (executor, state["net"], plans[name], state["x"])
            run_chunked(*args, programmed)
            start = time.perf_counter()
            run_chunked(*args, programmed)
            steady_ms = (time.perf_counter() - start) * 1e3
            out.put(f"offline.{key}.steady_ms", steady_ms, "ms")
    out.put("offline.agreement", agree / samples, "ratio")
    for name, report in warm.estimates.items():
        key = name.lower()
        out.put(f"model.{key}.latency_ns", report.latency_s * 1e9, "ns")
        out.put(f"model.{key}.energy_nj", report.energy_j * 1e9, "nJ")
    out.put(
        "offline.estimate_ms",
        statistics.median(r.estimate_s for r in rounds) * 1e3,
        "ms",
    )
    for name in NO_SERVING:
        out.put(name, 0.0, "ratio")
    out.attrs["samples"] = {name: len(s["y"]) for name, s in nets.items()}
    out.attrs["rounds"] = len(rounds)
    return out


#: The workloads, by the names ``--workload`` takes.
WORKLOADS = {
    "serve-light": serve_light,
    "serve-heavy": serve_heavy,
    "churn": churn,
    "offline-fidelity": offline_fidelity,
}
