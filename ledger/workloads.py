"""The LEDGER workloads: set-up, the measured run and the traced replay.

``warm_mixed`` drives single-plan ``POST /narrate`` in an open loop;
``batch_cold`` sends 32-plan batch-wire envelopes in a closed loop.  The
fleet (router plus two workers) is measured as one more leg of
``warm_mixed``'s traced run.  ``RATIONALE.md`` says why.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.acts import align_acts_with_narration, decompose_lot_into_acts
from repro.core.tags import SPECIAL_TAGS
from repro.errors import ServiceError
from repro.obs.events import read_events
from repro.service.fleet.ring import plan_routing_signature

from ledger import hostspeed, stack
from ledger.check import Reference, check_narration, placeholder_steps
from ledger.loadgen import (
    TRANSPORT_ERROR, Outcome, closed_loop, open_loop, paused_gc, poisson_offsets, rotation,
)
from ledger.stats import median, quartiles, stage_times, tail_percentile, windowed_tail

WORKLOADS = ("warm_mixed", "batch_cold")
MODES = ("rule", "neural", "auto")

#: offered rates (requests/s) of the open-loop ladder, about 15% apart; the
#: first is the base rate the latency metrics are taken at, one the 2-worker
#: fleet sustains on 2 cores
LADDER = (300.0, 345.0, 400.0, 460.0, 530.0, 610.0, 700.0, 800.0, 920.0, 1060.0, 1220.0)
#: a rung is sustained when nothing failed, its tail latency stays within
#: LIMIT_MS (well above the 10-30 ms scheduler stalls of a shared 2-core
#: host), the generator never fell that far behind, and no backlog grew:
#: the requests of its last fifth went out at a median lag of at most
#: BACKLOG_MS (a median, so one burst of stalls cannot fake a backlog)
LIMIT_MS = 100.0
BACKLOG_MS = 5.0
#: shares of the measured seconds: the base rung (it carries the latency
#: metrics), the rungs above it, and the saturation phase (``plans_per_s``)
BASE_SHARE = 0.3
LADDER_SHARE = 0.2
SATURATION_SHARE = 0.5
#: seconds of load between two host-speed samples while throughput is measured
CHUNK_S = 0.5
#: unrecorded seconds at the base rate before the ladder, so that every
#: mode's code path has run and the processes have settled
SETTLE_S = 1.0
#: the reported tail is the median of this many consecutive windows' tails
TAIL_WINDOWS = 5
#: plans per batch-wire envelope, and the envelope latency limit for goodput
ENVELOPE = 32
ENVELOPE_LIMIT_MS = 250.0
#: full set-ups per measured run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of the measured seconds each traced-run replay lasts
TRACE_SHARE = 0.3
#: keep-alive connections of the load generator: at most one per core
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
HEALTHZ_PROBES = 300
#: span names of the serving path, in request order
STAGES = (
    "read_body", "admission", "queue_wait", "batch_assembly", "decode", "wake", "finalize", "respond",
)
SERVICE_ROOT = "POST /narrate"
ROUTER_ROOT = "POST /narrate (router)"
#: (layer, span) of the serving stages reported under ``service.<layer>.<span>_us_p50``
SERVICE_STAGES = (
    ("server", "admission"), ("server", "respond"), ("batcher", "queue_wait"), ("batcher", "batch_assembly"),
)
MIB = 1024.0 * 1024.0


@dataclass
class Result:
    """Everything one invocation measured.

    ``metrics`` go into the final JSON line; notes are printed only.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    placeholders: Counter = field(default_factory=Counter)
    steps: Counter = field(default_factory=Counter)

    def put(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.note(name, value, unit, detail)

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.lines.append(f"  {name:<44} {value:>14.6g} {unit:<6} {detail}")

    def placeholder_share(self, dialect: Optional[str] = None) -> float:
        if dialect is None:
            steps = sum(self.steps.values())
            return sum(self.placeholders.values()) / steps if steps else 0.0
        return self.placeholders[dialect] / self.steps[dialect] if self.steps[dialect] else 0.0


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------


def envelopes(seed: int, pool_size: int) -> list[list[int]]:
    """The pool in a seeded order, cut into 32-plan envelopes (the last wraps)."""
    order = list(range(pool_size))
    random.Random(seed).shuffle(order)
    count = math.ceil(pool_size / ENVELOPE)
    return [[order[(k * ENVELOPE + j) % pool_size] for j in range(ENVELOPE)] for k in range(count)]


class Traffic:
    """Request ``k`` of a workload: its body and the (pool index, mode) it covers."""

    def __init__(self, workload: str, seed: int, pool: list[stack.PoolItem]) -> None:
        self.pool = pool
        self.batched = workload == "batch_cold"
        self.envelopes = envelopes(seed, len(pool))
        self.pairs = rotation(seed, len(pool), MODES)

    def items(self, k: int) -> list[tuple[int, str]]:
        if self.batched:
            return [(index, "neural") for index in self.envelopes[k % len(self.envelopes)]]
        return [self.pairs[k % len(self.pairs)]]

    def body(self, k: int) -> dict[str, Any]:
        items = self.items(k)
        if self.batched:
            return {"plans": [self.pool[index].payload for index, _ in items], "mode": "neural"}
        index, mode = items[0]
        return {"plan": self.pool[index].payload, "mode": mode}


#: statuses a service under more load than it sustains may answer with
#: (admission refused, request timed out); only the rungs above the base rate
#: may see them, and there they count as misses toward ``goodput_rps``
REFUSALS = frozenset({429, 503})


def answers_of(body: Any, batched: bool) -> Optional[list[Any]]:
    """The per-plan answers of a 2xx body, or None when it has no such shape."""
    if not isinstance(body, dict):
        return None
    if not batched:
        return [body]
    results = body.get("results")
    return results if isinstance(results, list) else None


def check_outcomes(
    outcomes: list[Outcome],
    traffic: Traffic,
    first: int,
    references: list[Reference],
    result: Result,
    refusable: frozenset[int] = frozenset(),
) -> None:
    """Run the output check on every sent request and count failures.

    A request that was not answered with 2xx, an envelope of the wrong
    shape, and an answer without a narration are check failures, except a
    status in ``refusable``, which only counts as failed.
    """
    tags = tuple(SPECIAL_TAGS)
    for outcome in outcomes:
        if outcome.sent is None:
            continue
        k = first + outcome.index
        items = traffic.items(k)
        result.attempted += len(items)
        if not outcome.ok:
            result.failed += len(items)
            if outcome.status not in refusable:
                result.problems.append(f"request {k}: status {outcome.status}: {str(outcome.body)[:200]}")
            continue
        answers = answers_of(outcome.body, traffic.batched)
        if answers is None or len(answers) != len(items):
            result.failed += len(items)
            result.problems.append(f"request {k}: {len(items)} plans sent, answer {str(outcome.body)[:200]}")
            continue
        for (index, mode), answer in zip(items, answers):
            narration = answer.get("narration") if isinstance(answer, dict) else None
            if not isinstance(narration, dict):
                result.failed += 1
                result.problems.append(f"request {k} ({mode}): no narration in {str(answer)[:200]}")
                continue
            problems = check_narration(narration, references[index], mode, tags)
            if problems:
                result.failed += 1
                result.problems.append(f"request {k} ({mode}): {problems}")
            dialect = traffic.pool[index].dialect
            hits, steps = placeholder_steps(narration)
            result.placeholders[dialect] += hits
            result.steps[dialect] += steps


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process so far (not its children)."""
    times = os.times()
    return times.user + times.system


class Load:
    """Sends one server a workload's requests in order, checking every answer."""

    def __init__(
        self, server: stack.Server, traffic: Traffic, references: list[Reference], result: Result
    ) -> None:
        self.client = server.client
        self.traffic = traffic
        self.references = references
        self.result = result
        self.next_request = 0
        #: the generator's own CPU seconds (all its threads) in the last loop
        self.cpu_s = 0.0

    def send(self, k: int) -> tuple[int, Any]:
        try:
            return self.client.request_json("POST", "/narrate", self.traffic.body(k))
        except ServiceError as error:
            return TRANSPORT_ERROR, str(error)

    def open(
        self, offsets: list[float], deadline_s: float, refusable: frozenset[int] = frozenset()
    ) -> tuple[list[Outcome], int]:
        """Open loop over ``offsets``; returns the outcomes and how many plans failed."""
        first = self.next_request
        cpu = cpu_seconds()
        outcomes = open_loop(offsets, lambda i: self.send(first + i), CONNECTIONS, deadline_s)
        self.cpu_s = cpu_seconds() - cpu
        return outcomes, self._checked(outcomes, first, refusable)

    def closed(self, seconds: float) -> tuple[list[Outcome], int]:
        first = self.next_request
        cpu = cpu_seconds()
        outcomes = closed_loop(lambda i: self.send(first + i), seconds)
        self.cpu_s = cpu_seconds() - cpu
        return outcomes, self._checked(outcomes, first)

    def _checked(self, outcomes: list[Outcome], first: int, refusable: frozenset[int] = frozenset()) -> int:
        self.next_request = first + len(outcomes)
        failed_before = self.result.failed
        check_outcomes(outcomes, self.traffic, first, self.references, self.result, refusable)
        return self.result.failed - failed_before

    def settle(self, seed: int) -> None:
        self.open(poisson_offsets(seed, LADDER[0], SETTLE_S), SETTLE_S + LIMIT_MS / 1000.0)

    def rung(self, seed: int, rate: float, duration: float, refusable: frozenset[int] = frozenset()) -> "Rung":
        offsets = poisson_offsets(seed, rate, duration)
        outcomes, failed = self.open(offsets, duration + LIMIT_MS / 1000.0, refusable)
        return Rung(rate, duration, outcomes, failed)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    """One set-up: the trained checkpoint, the payload pool and the running service."""

    checkpoint: Path
    pool: list[stack.PoolItem]
    server: stack.Server
    timings: stack.Timings
    setup_s: float = 0.0


def boot(
    kind: str, checkpoint: Path, directory: Path, traced: bool, timings: stack.Timings
) -> stack.Server:
    """Start ``kind`` ("service" or "fleet") and wait until it is healthy."""
    directory.mkdir(parents=True, exist_ok=True)
    if kind == "fleet":
        args = stack.fleet_args(checkpoint, traced)
    else:
        args = stack.service_args(checkpoint, directory / "traces.jsonl" if traced else None)
    server = stack.Server(kind, args, directory / "server.log")
    try:
        timings.add("boot", server.wait_ready())
    except BaseException:
        server.stop()
        raise
    return server


def warm_up(server: stack.Server, traffic: Traffic) -> None:
    """One pass so the rule memo and decode cache hold the whole pool."""
    if traffic.batched:
        bodies = [traffic.body(k) for k in range(2)]
    else:
        bodies = [{"plan": item.payload, "mode": "neural"} for item in traffic.pool]
    client = server.client
    outcomes = open_loop(
        [0.0] * len(bodies),
        lambda i: client.request_json("POST", "/narrate", bodies[i]),
        CONNECTIONS,
        math.inf,
    )
    for outcome in outcomes:
        answers = answers_of(outcome.body, traffic.batched) if outcome.ok else None
        if not answers or not all(isinstance(answer, dict) and "narration" in answer for answer in answers):
            raise RuntimeError(f"warm-up failed: status {outcome.status}: {str(outcome.body)[:200]}")


def set_up(workload: str, seed: int, directory: Path) -> Deployment:
    """Everything from nothing to a warm service, timed as ``setup_s``."""
    started = time.perf_counter()
    directory.mkdir(parents=True, exist_ok=True)
    timings = stack.Timings()
    database, checkpoint = stack.train_checkpoint(directory, workload == "batch_cold", timings)
    pool = stack.build_pool(database, seed, timings)
    server = boot("service", checkpoint, directory / "serve", False, timings)
    try:
        warm_up(server, Traffic(workload, seed, pool))
    except BaseException:
        server.stop()
        raise
    return Deployment(checkpoint, pool, server, timings, time.perf_counter() - started)


def repeated_set_up(workload: str, seed: int, directory: Path) -> tuple[list[float], Deployment]:
    """Set up ``SETUP_REPEATS`` times; the last deployment stays up."""
    setups: list[float] = []
    deployment = None
    for repeat in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.server.stop()
        deployment = set_up(workload, seed, directory / f"setup{repeat}")
        setups.append(deployment.setup_s)
    return setups, deployment


def reference_narrations(deployment: Deployment) -> tuple[Any, list[Reference]]:
    """The in-process facade loaded from the served checkpoint, and its
    rule narration of every pool payload."""
    facade = stack.load_reference(deployment.checkpoint, deployment.timings)
    references = [
        Reference.from_narration(facade.describe_plan(facade.parse_plan(item.payload), mode="rule"))
        for item in deployment.pool
    ]
    return facade, references


# ----------------------------------------------------------------------
# reading the service's own counters
# ----------------------------------------------------------------------


def service_documents(server: stack.Server) -> list[dict[str, Any]]:
    """``/metrics`` of every narrating process (a fleet's workers)."""
    document = server.client.metrics()
    if server.kind == "fleet":
        return [document["workers"][worker] for worker in sorted(document["workers"])]
    return [document]


def rss_mib(server: stack.Server) -> float:
    return sum(doc["memory"]["rss_bytes"] for doc in service_documents(server)) / MIB


def counters(server: stack.Server) -> list[dict[str, int]]:
    """Cumulative counters per narrating process."""
    snapshot = []
    for doc in service_documents(server):
        cache = doc.get("decode_cache") or {}
        memo = doc.get("rule_memo") or {}
        batching = doc["batching"]
        snapshot.append(
            {
                "cache_hits": cache.get("hits", 0),
                "cache_misses": cache.get("misses", 0),
                "memo_hits": memo.get("hits", 0),
                "memo_misses": memo.get("misses", 0),
                "batches": batching["batches"],
                "batched": batching["requests_batched"],
                "batches_failed": batching["batches_failed"],
                "rejected": doc["requests"]["rejected_overload"],
                "timeouts": doc["requests"]["timed_out"],
                "narrations": doc["requests"]["by_endpoint"].get("/narrate", 0),
            }
        )
    return snapshot


def counter_delta(before: list[dict[str, int]], after: list[dict[str, int]]) -> list[dict[str, int]]:
    return [{key: a[key] - b[key] for key in a} for b, a in zip(before, after)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ms(outcomes: list[Outcome], attribute: str = "latency_s") -> list[float]:
    return [getattr(outcome, attribute) * 1000.0 for outcome in outcomes]


def answered(outcomes: list[Outcome]) -> list[Outcome]:
    return [outcome for outcome in outcomes if outcome.ok]


# ----------------------------------------------------------------------
# measured runs (tracing off)
# ----------------------------------------------------------------------


@dataclass
class Rung:
    rate: float
    duration: float
    outcomes: list[Outcome]
    failed: int

    @property
    def sent(self) -> list[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.sent is not None]

    @property
    def backlog_ms(self) -> float:
        """Median lag of the requests due in the last fifth of the rung."""
        sent = self.sent
        return median(ms(sent[-max(len(sent) // 5, 1):], "lag_s")) if sent else math.inf

    @property
    def sustained(self) -> bool:
        ok = answered(self.outcomes)
        if self.failed or len(self.sent) < len(self.outcomes) or len(ok) <= 10:
            return False
        return tail_percentile(ms(ok)).value <= LIMIT_MS and self.backlog_ms <= BACKLOG_MS

    def describe(self) -> str:
        sent, ok = self.sent, answered(self.outcomes)
        line = (
            f"  rung {self.rate:6.0f} rps for {self.duration:.2f}s: sent {len(sent)} succeeded "
            f"{len(ok) - self.failed} failed {self.failed} unsent {len(self.outcomes) - len(sent)}"
        )
        if len(ok) > 10:
            tail = tail_percentile(ms(ok))
            line += f"; p50 {median(ms(ok)):.3f} ms, {tail.label} {tail.value:.3f} ms"
        line += f", final lag p50 {self.backlog_ms:.3f} ms"
        return line + (" -> sustained" if self.sustained else " -> not sustained")


def run_ladder(load: Load, seed: int, seconds: float) -> tuple[Rung, float, list[float]]:
    """The base rung, then up the rate ladder until a rung misses twice in a row.

    A rung that misses is retried once with a fresh schedule, so a single
    burst of host stalls does not end the climb; a growing backlog misses
    both times.  Returns the base rung, the goodput (requests/s answered at
    the highest sustained rung) and every sent request's lag in ms.
    """
    rung_s = max(LADDER_SHARE * seconds / (len(LADDER) - 1), 0.5)
    load.settle(seed * 1009 - 1)
    base = load.rung(seed * 1009, LADDER[0], max(BASE_SHARE * seconds, 1.0))
    load.result.lines.append(base.describe())
    lags = ms(base.sent, "lag_s")
    goodput = len(answered(base.outcomes)) / base.duration if base.sustained else 0.0
    for index, rate in enumerate(LADDER[1:] if base.sustained else (), start=1):
        for attempt in range(2):
            rung = load.rung(seed * 1009 + 100 * attempt + index, rate, rung_s, REFUSALS)
            load.result.lines.append(rung.describe())
            lags.extend(ms(rung.sent, "lag_s"))
            if rung.sustained:
                break
        if not rung.sustained:
            break
        goodput = len(answered(rung.outcomes)) / rung.duration
    return base, goodput, lags


@dataclass
class Throughput:
    """Plans narrated and checked while load ran in chunks, with the host's
    speed sampled before the first chunk and after each one."""

    plans: int = 0
    seconds: float = 0.0
    chunks: int = 0
    client_cpu_s: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)

    @property
    def plans_per_s(self) -> float:
        return self.plans / self.seconds

    @property
    def plans_per_s_norm(self) -> float:
        """``plans_per_s`` scaled from the host's median speed in the window
        to ``hostspeed.NOMINAL_RATE``."""
        return self.plans_per_s * hostspeed.NOMINAL_RATE / median(self.speeds)

    def put(self, result: Result, detail: str) -> None:
        """``plans_per_s_norm`` (gated) and the raw figures (printed only)."""
        q1, _, q3 = quartiles(self.speeds)
        result.put(
            "plans_per_s_norm",
            self.plans_per_s_norm,
            "1/s",
            f"{detail}; scaled by the host speed of {len(self.speeds)} samples",
        )
        result.note("plans_per_s", self.plans_per_s, "1/s", f"not gated: {detail}, unscaled")
        result.note(
            "host.reference_loops_per_s",
            median(self.speeds),
            "1/s",
            f"q1 {q1:.0f} q3 {q3:.0f}, nominal {hostspeed.NOMINAL_RATE:g}",
        )
        result.note(
            "loadgen.cpu_us_per_plan",
            self.client_cpu_s / max(self.plans, 1) * 1e6,
            "us",
            "not gated: the generator's share of plans_per_s",
        )


def throughput(load: Load, seconds: float, chunk) -> Throughput:
    """Run ``chunk(CHUNK_S)`` until about ``seconds`` have passed.

    ``chunk`` returns its outcomes and how long the load ran.  The host's
    speed is sampled before the first chunk and after each one, so that
    ``plans_per_s_norm`` follows the program, not the neighbours on the host.
    """
    with paused_gc():
        measured = Throughput(speeds=[hostspeed.sample()])
        for _ in range(max(1, round(seconds / (CHUNK_S + hostspeed.SLICE_S)))):
            attempted, failed = load.result.attempted, load.result.failed
            outcomes, elapsed = chunk(CHUNK_S)
            measured.speeds.append(hostspeed.sample())
            measured.plans += (load.result.attempted - attempted) - (load.result.failed - failed)
            measured.seconds += elapsed
            measured.chunks += 1
            measured.client_cpu_s += load.cpu_s
            measured.outcomes.extend(outcomes)
    return measured


def saturate(load: Load, seconds: float) -> Throughput:
    """Plans answered per second with every connection kept busy."""

    def chunk(chunk_s: float) -> tuple[list[Outcome], float]:
        outcomes, _ = load.open([0.0] * int(chunk_s * 5000), chunk_s)
        ok = answered(outcomes)
        return ok, max(outcome.done for outcome in ok) - min(outcome.sent for outcome in ok)

    measured = throughput(load, seconds, chunk)
    load.result.lines.append(
        f"  saturation, {CONNECTIONS} connections back to back for {measured.seconds:.2f}s in "
        f"{measured.chunks} chunks: succeeded {len(measured.outcomes)}"
    )
    return measured


def measured_open_loop(seed: int, seconds: float, directory: Path, result: Result) -> None:
    setups, deployment = repeated_set_up("warm_mixed", seed, directory)
    try:
        _, references = reference_narrations(deployment)
        traffic = Traffic("warm_mixed", seed, deployment.pool)
        load = Load(deployment.server, traffic, references, result)
        base, goodput, lags = run_ladder(load, seed, seconds)
        measured = saturate(load, SATURATION_SHARE * seconds)
        memory = rss_mib(deployment.server)
    finally:
        deployment.server.stop()
    latencies = ms(answered(base.outcomes))
    tail, tails = windowed_tail(latencies, TAIL_WINDOWS)
    q1, p50, q3 = quartiles(latencies)
    result.put("setup_s", median(setups), "s", spread_detail(setups))
    measured.put(result, f"saturated, {CONNECTIONS} connections")
    result.put("placeholder_share", result.placeholder_share(), "share", placeholder_detail(result))
    result.put("rss_mib", memory, "MiB", "serving process after the run")
    result.note(
        "latency_p50_ms", p50, "ms", f"not gated: at {LADDER[0]:g} rps; q1 {q1:.3f} q3 {q3:.3f}, n={len(latencies)}"
    )
    result.note("latency_p99_ms", tail, "ms", f"not gated: at {LADDER[0]:g} rps; {tail_detail(tails)}")
    result.note(
        "goodput_rps",
        goodput,
        "1/s",
        f"not gated: highest rung with tail <= {LIMIT_MS:g} ms and no backlog",
    )
    lag = tail_percentile(lags)
    result.lines.append(f"  loadgen lag: {lag.label} {lag.value:.3f} ms (validity check, not a target)")


def measured_batch(seed: int, seconds: float, directory: Path, result: Result) -> None:
    setups, deployment = repeated_set_up("batch_cold", seed, directory)
    try:
        _, references = reference_narrations(deployment)
        traffic = Traffic("batch_cold", seed, deployment.pool)
        load = Load(deployment.server, traffic, references, result)

        def chunk(chunk_s: float) -> tuple[list[Outcome], float]:
            outcomes, _ = load.closed(chunk_s)
            return outcomes, outcomes[-1].done - outcomes[0].sent

        measured = throughput(load, seconds, chunk)
        memory = rss_mib(deployment.server)
    finally:
        deployment.server.stop()
    outcomes, elapsed = measured.outcomes, measured.seconds
    ok = answered(outcomes)
    latencies = ms(ok)
    tail, tails = windowed_tail(latencies, TAIL_WINDOWS)
    q1, p50, q3 = quartiles(latencies)
    within = sum(1 for latency in latencies if latency <= ENVELOPE_LIMIT_MS)
    result.lines.append(
        f"  closed loop, 1 connection, {ENVELOPE}-plan envelopes for {elapsed:.2f}s in "
        f"{measured.chunks} chunks: sent {len(outcomes)} succeeded {len(ok)} failed {len(outcomes) - len(ok)}"
    )
    result.put("setup_s", median(setups), "s", spread_detail(setups))
    measured.put(result, "plans narrated and checked")
    result.put("placeholder_share", result.placeholder_share(), "share", placeholder_detail(result))
    result.put("rss_mib", memory, "MiB", "serving process after the run")
    result.note("latency_p50_ms", p50, "ms", f"not gated: per envelope; q1 {q1:.3f} q3 {q3:.3f}, n={len(latencies)}")
    result.note("latency_p99_ms", tail, "ms", f"not gated: per envelope; {tail_detail(tails)}")
    result.note(
        "goodput_rps", within / elapsed, "1/s", f"not gated: envelopes within {ENVELOPE_LIMIT_MS:g} ms"
    )


def tail_detail(tails) -> str:
    return "median of window tails: " + ", ".join(f"{t.label} {t.value:.3f}" for t in tails)


def spread_detail(values: list[float]) -> str:
    q1, _, q3 = quartiles(values)
    return f"median of {len(values)} set-ups; q1 {q1:.3f} q3 {q3:.3f}"


def placeholder_detail(result: Result) -> str:
    return ", ".join(
        f"{dialect} {result.placeholder_share(dialect):.3f}" for dialect in sorted(result.steps)
    )


# ----------------------------------------------------------------------
# the traced run (per-layer metrics)
# ----------------------------------------------------------------------


@dataclass
class Leg:
    """One replay of the traced run against one server."""

    outcomes: list[Outcome]
    window: list[dict[str, int]]
    traces: list[dict[str, Any]] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return median(ms(answered(self.outcomes)))


@dataclass
class Replay:
    """The traced run's fixed inputs, replayed once per leg."""

    traffic: Traffic
    references: list[Reference]
    seed: int
    seconds: float
    result: Result

    def leg(self, server: stack.Server) -> Leg:
        """A settle pass and the base rung, or the closed envelope loop;
        traces are collected when the server keeps them."""
        load = Load(server, self.traffic, self.references, self.result)
        before = counters(server)
        if self.traffic.batched:
            outcomes, _ = load.closed(self.seconds)
        else:
            load.settle(self.seed * 1009 - 1)
            outcomes = load.rung(self.seed * 1009, LADDER[0], self.seconds).outcomes
        window = counter_delta(before, counters(server))
        wanted = {outcome.body.get("trace_id") for outcome in answered(outcomes)} - {None}
        traces: list[dict[str, Any]] = []
        if wanted and server.kind == "fleet":
            traces = server.client.trace(limit=256)["slowest"]
        elif wanted:
            time.sleep(0.2)  # the service logs a trace just after answering it
            traces = list(read_events(server.log_path.parent / "traces.jsonl"))
        return Leg(outcomes, window, [trace for trace in traces if trace.get("trace_id") in wanted])

    def traced_leg(self, kind: str, checkpoint: Path, directory: Path) -> tuple[Leg, list[float]]:
        """Boot ``kind`` with tracing on, warm it, replay, and probe ``/healthz``."""
        server = boot(kind, checkpoint, directory, True, stack.Timings())
        try:
            warm_up(server, self.traffic)
            return self.leg(server), healthz_rtts(server)
        finally:
            server.stop()


def traced_run(workload: str, seed: int, seconds: float, directory: Path, result: Result) -> None:
    deployment = set_up(workload, seed, directory / "untraced")
    try:
        facade, references = reference_narrations(deployment)
        traffic = Traffic(workload, seed, deployment.pool)
        replay = Replay(traffic, references, seed, max(TRACE_SHARE * seconds, 1.0), result)
        untraced = replay.leg(deployment.server)
    finally:
        deployment.server.stop()
    traced, healthz = replay.traced_leg("service", deployment.checkpoint, directory / "traced")
    fleet = None
    if not traffic.batched:
        fleet, _ = replay.traced_leg("fleet", deployment.checkpoint, directory / "fleet")

    put_setup_layers(deployment.timings, result)
    put_public_calls(facade, deployment.pool, seed, result)
    put_counters(untraced.window, result)
    put_traces(traced.traces, result)
    put_fleet(fleet, traced, result)
    result.put(
        "obs.tracing_overhead_share",
        traced.p50_ms / untraced.p50_ms - 1.0,
        "share",
        f"traced p50 {traced.p50_ms:.3f} ms over untraced {untraced.p50_ms:.3f} ms",
    )
    result.put("service.http.healthz_rtt_us_p50", median(healthz) * 1000.0, "us", f"n={len(healthz)}")
    tail, tails = windowed_tail(ms(answered(untraced.outcomes)), TAIL_WINDOWS)
    result.put("loadgen.latency_p50_ms", untraced.p50_ms, "ms", "untraced leg")
    result.put("loadgen.latency_p99_ms", tail, "ms", f"untraced leg; {tail_detail(tails)}")
    if traffic.batched:
        result.put("loadgen.lag_ms_p99", 0.0, "ms", "closed loop: requests are never late")
    else:
        sent = [outcome for outcome in untraced.outcomes if outcome.sent is not None]
        lag = tail_percentile(ms(sent, "lag_s"))
        result.put("loadgen.lag_ms_p99", lag.value, "ms", lag.label)


def healthz_rtts(server: stack.Server) -> list[float]:
    rtts = []
    for _ in range(HEALTHZ_PROBES):
        started = time.perf_counter()
        server.client.healthz()
        rtts.append((time.perf_counter() - started) * 1000.0)
    return rtts


def put_setup_layers(timings: stack.Timings, result: Result) -> None:
    samples = timings.samples
    explain = samples["explain"]
    result.put("sqlengine.explain_us_p50", median(explain) * 1e6, "us", f"n={len(explain)}")
    result.put("nlg.training.epoch_s_p50", median(samples["epoch"]), "s", f"n={len(samples['epoch'])}")
    result.put("nlg.persistence.save_s", samples["save"][0], "s", "mmap layout")
    result.put("nlg.persistence.load_s", samples["load"][0], "s", "in-process Lantern.load")
    result.put("service.boot_s", samples["boot"][0], "s", "spawn to first healthy /healthz")


def timed(call, *args) -> float:
    started = time.perf_counter()
    call(*args)
    return (time.perf_counter() - started) * 1e6


def put_public_calls(facade, pool: list[stack.PoolItem], seed: int, result: Result) -> None:
    """Timed calls into each layer's public functions, on the reference facade."""
    registry = facade.registry
    by_dialect: dict[str, list[float]] = {}
    for item in pool:
        by_dialect.setdefault(item.dialect, []).append(timed(registry.ingest, item.payload, None))
    every = [t for times in by_dialect.values() for t in times]
    result.put("plans.ingest_us_p50", median(every), "us", f"n={len(every)}")
    for dialect, _ in stack.DIALECTS:
        result.put(f"plans.ingest_us_p50.{dialect}", median(by_dialect[dialect]), "us")
        result.put(f"plans.placeholder_share.{dialect}", result.placeholder_share(dialect), "share")
    signature = [
        timed(lambda payload: plan_routing_signature(registry.parse(payload)), item.payload)
        for item in pool
    ]
    result.put(
        "service.fleet.signature_us_p50", median(signature), "us", "registry.parse + plan_routing_signature"
    )
    trees = [registry.parse(item.payload) for item in pool]
    for mode in MODES:
        for tree in trees:
            facade.describe_plan(tree, mode=mode)
        times = [timed(facade.describe_plan, tree, mode) for tree in trees]
        result.put(f"core.describe_plan_us_p50.{mode}", median(times), "us", "warm facade")
    neural = facade.neural
    beam = neural.beam_size or neural.model.config.beam_size
    decode_ms: list[float] = []
    sources_per_call: list[int] = []
    for envelope in envelopes(seed, len(pool)):
        sources: dict[tuple[str, ...], list[str]] = {}
        for index in envelope:
            narration = facade.describe_plan(trees[index], mode="rule")
            for act in align_acts_with_narration(decompose_lot_into_acts(narration.lot), narration):
                tokens = act.input_tokens()
                sources.setdefault(tuple(tokens), tokens)
        batch = list(sources.values())
        decode_ms.append(timed(neural.model.beam_decode_batch, batch, beam) / 1000.0)
        sources_per_call.append(len(batch))
    result.put(
        "nlg.seq2seq.beam_decode_batch_ms_p50", median(decode_ms), "ms", f"{len(decode_ms)} envelopes"
    )
    result.put(
        "nlg.seq2seq.sources_per_call_mean", sum(sources_per_call) / len(sources_per_call), "count"
    )


def put_counters(window: list[dict[str, int]], result: Result) -> None:
    total: Counter = Counter()
    for process in window:
        total.update(process)
    memo = ratio(total["memo_hits"], total["memo_hits"] + total["memo_misses"])
    cache = ratio(total["cache_hits"], total["cache_hits"] + total["cache_misses"])
    result.put("core.rule_memo.hit_ratio", memo, "share")
    result.put("nlg.cache.hit_ratio", cache, "share")
    result.put("service.batcher.batch_size_mean", ratio(total["batched"], total["batches"]), "count")
    result.put("service.batcher.batches_failed", total["batches_failed"], "count")
    result.put("service.server.rejected_429", total["rejected"], "count")
    result.put("service.server.timeouts_503", total["timeouts"], "count")


def self_times(traces: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per span name, each traced request's self time in that stage (ms)."""
    per_stage: dict[str, list[float]] = {}
    for trace in traces:
        for name, stage in stage_times(trace).items():
            per_stage.setdefault(name, []).append(stage["self"])
    return per_stage


def p50_us(per_stage: dict[str, list[float]], name: str) -> float:
    values = per_stage.get(name)
    return median(values) * 1000.0 if values else 0.0


def print_stages(label: str, per_stage: dict[str, list[float]], result: Result) -> None:
    count = max(len(values) for values in per_stage.values())
    result.lines.append(f"  {label}: span self times over {count} traced requests (p50, us):")
    for name in (ROUTER_ROOT, "route", "forward", SERVICE_ROOT) + STAGES:
        if name in per_stage:
            result.lines.append(f"    {name:<26} {p50_us(per_stage, name):10.1f}")


def put_traces(traces: list[dict[str, Any]], result: Result) -> None:
    """Per-stage self times of the single service's traced requests."""
    if not traces:
        raise RuntimeError("the traced replay produced no span trees")
    per_stage = self_times(traces)
    print_stages("service", per_stage, result)
    decode_total = sum(stage_times(trace).get("decode", {}).get("total", 0.0) for trace in traces)
    request_total = sum(float(trace["duration_ms"]) for trace in traces)
    for layer, name in SERVICE_STAGES:
        result.put(f"service.{layer}.{name}_us_p50", p50_us(per_stage, name), "us", "span self time")
    result.put("service.batcher.decode_ms_p50", p50_us(per_stage, "decode") / 1000.0, "ms", "span self time")
    result.put(
        "service.batcher.decode_share", ratio(decode_total, request_total), "share", "of request time"
    )
    for name in ("read_body", "wake", "finalize"):
        result.put(f"trace.{name}.self_us_p50", p50_us(per_stage, name), "us", "span self time")
    result.put("trace.handler.self_us_p50", p50_us(per_stage, SERVICE_ROOT), "us", "root span outside stages")
    requests = [float(trace["duration_ms"]) for trace in traces]
    result.put("trace.request_us_p50", median(requests) * 1000.0, "us", "root span")


FLEET_METRICS = (
    ("service.fleet.route_us_p50", "us"),
    ("service.fleet.forward_us_p50", "us"),
    ("service.fleet.router_handler_us_p50", "us"),
    ("service.fleet.shard_hit_ratio_min", "share"),
    ("service.fleet.routed_max_over_min", "ratio"),
    ("service.fleet.latency_p50_ms", "ms"),
    ("service.fleet.p50_over_single", "ratio"),
)


def put_fleet(fleet: Optional[Leg], single: Leg, result: Result) -> None:
    """The router leg: the same replay through a 2-worker fleet, traced."""
    if fleet is None:
        for name, unit in FLEET_METRICS:
            result.put(name, 0.0, unit, "no fleet leg on this workload")
        return
    if not fleet.traces:
        raise RuntimeError("the traced fleet replay produced no span trees")
    per_stage = self_times(fleet.traces)
    print_stages("fleet", per_stage, result)
    shard_hits = [ratio(w["cache_hits"], w["cache_hits"] + w["cache_misses"]) for w in fleet.window]
    narrations = [w["narrations"] for w in fleet.window]
    result.put("service.fleet.route_us_p50", p50_us(per_stage, "route"), "us", "router span self time")
    result.put("service.fleet.forward_us_p50", p50_us(per_stage, "forward"), "us", "minus the worker's request")
    result.put("service.fleet.router_handler_us_p50", p50_us(per_stage, ROUTER_ROOT), "us", "outside route/forward")
    result.put("service.fleet.shard_hit_ratio_min", min(shard_hits), "share", f"per shard {shard_hits}")
    balance = ratio(max(narrations), min(narrations))
    result.put("service.fleet.routed_max_over_min", balance, "ratio", f"per shard {narrations}")
    result.put("service.fleet.latency_p50_ms", fleet.p50_ms, "ms", f"traced, at {LADDER[0]:g} rps")
    result.put("service.fleet.p50_over_single", fleet.p50_ms / single.p50_ms, "ratio", "both traced")


def run(workload: str, seed: int, seconds: float, trace: bool, directory: Path) -> Result:
    result = Result()
    if trace:
        traced_run(workload, seed, seconds, directory, result)
    elif workload == "batch_cold":
        measured_batch(seed, seconds, directory, result)
    else:
        measured_open_loop(seed, seconds, directory, result)
    return result
