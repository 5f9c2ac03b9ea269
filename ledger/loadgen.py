"""Seeded request schedules and the open- and closed-loop request loops.

The loops know nothing about HTTP: they call ``send(index)`` and record
when each request was due, sent and answered.  Open-loop latency is taken
from the *due* time, so a stall also charges the requests queued behind it
(no coordinated omission), and how late the generator sent is kept as lag.
"""

from __future__ import annotations

import gc
import itertools
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

#: status recorded for a request that never got an HTTP answer
TRANSPORT_ERROR = 0


@dataclass
class Outcome:
    """One scheduled request; ``sent`` is None when it was never sent."""

    index: int
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    status: int = TRANSPORT_ERROR
    body: Any = None

    @property
    def ok(self) -> bool:
        return self.sent is not None and 200 <= self.status < 300

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


@contextmanager
def paused_gc():
    """Keep the generator's own garbage collector from stalling its senders.

    A full collection over the benchmark's trained models and stored
    responses takes tens of milliseconds and would show up as service tail
    latency; the collector runs once before the window instead.  Inside an
    outer pause it does nothing, so chunks of one window collect only once.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def poisson_offsets(seed: int, rate: float, duration_s: float) -> list[float]:
    """Arrival offsets (seconds from the start) of a Poisson process."""
    rng = random.Random(seed)
    offsets: list[float] = []
    now = rng.expovariate(rate)
    while now < duration_s:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def rotation(seed: int, payload_count: int, modes: Sequence[str]) -> list[tuple[int, str]]:
    """Every (payload, mode) pair once, in a seeded order; requests cycle it."""
    pairs = [(index, mode) for index in range(payload_count) for mode in modes]
    random.Random(seed).shuffle(pairs)
    return pairs


def open_loop(
    offsets: Sequence[float],
    send: Callable[[int], tuple[int, Any]],
    connections: int,
    send_deadline_s: float,
) -> list[Outcome]:
    """Send request ``i`` at ``offsets[i]`` over ``connections`` senders.

    Each sender owns one keep-alive connection and takes the next due
    request when it is free, so with every sender busy a request goes out
    late and its latency grows from the due time.  A request that would go
    out after ``send_deadline_s`` stays unsent: that backlog marks a rate
    the service does not sustain.
    """
    outcomes: list[Outcome] = [None] * len(offsets)  # type: ignore[list-item] - every slot is filled
    next_index = itertools.count().__next__  # atomic under the GIL
    start = time.perf_counter() + 0.005

    def sender() -> None:
        while True:
            index = next_index()
            if index >= len(outcomes):
                return
            outcome = outcomes[index] = Outcome(index, start + offsets[index])
            wait = outcome.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            if sent - start > send_deadline_s:
                continue
            outcome.sent = sent
            outcome.status, outcome.body = send(index)
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    with paused_gc():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return outcomes


def closed_loop(send: Callable[[int], tuple[int, Any]], duration_s: float) -> list[Outcome]:
    """One connection: each request is sent when the previous one returns."""
    outcomes: list[Outcome] = []
    with paused_gc():
        stop = time.perf_counter() + duration_s
        for index in itertools.count():
            now = time.perf_counter()
            if now >= stop:
                break
            outcome = Outcome(index, now, sent=now)
            outcome.status, outcome.body = send(index)
            outcome.done = time.perf_counter()
            outcomes.append(outcome)
    return outcomes
