"""How fast the shared host runs the benchmark's CPU right now.

On a shared VM the same code runs up to a third slower or faster from one
minute to the next as other tenants come and go, and the served process
slows with them.  The benchmark runs a fixed reference loop for a short
slice between chunks of load, on the CPU the served process is pinned to,
and scales the throughput of the whole window by the median speed of the
loop over it.  The loop mixes the kinds of work a narration request does:
JSON encode and decode, dict and string handling in the interpreter, and
the small matrix products and reductions of a beam-decode step at the
served model's hidden size.  It uses none of the repository's code, so no
change to the program can move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: the host speed a scaled throughput is quoted at, about the loop's rate on
#: an unloaded 2-vCPU Xeon VM (in busy hours it ran 1600-2100 times a second)
NOMINAL_RATE = 2500.0
#: seconds one sample runs the loop
SLICE_S = 0.05
#: the served narrator's hidden size, and the rows of one decode step
HIDDEN = 48
ROWS = 32

_RNG = np.random.default_rng(20210620)
_STATE = _RNG.standard_normal((ROWS, HIDDEN)) * 0.1
_WEIGHTS = _RNG.standard_normal((HIDDEN, 3 * HIDDEN)) * 0.1
_DOCUMENT = {
    "Plan": {
        "Node Type": "Hash Join",
        "Hash Cond": "(paper.venue_id = venue.id)",
        "Plans": [
            {"Node Type": "Seq Scan", "Relation Name": f"relation_{index}", "Filter": f"(year > {1990 + index})"}
            for index in range(12)
        ],
    }
}


def reference_loop() -> float:
    """One unit of reference work; returns a value so nothing is skipped."""
    for _ in range(2):
        document = json.loads(json.dumps(_DOCUMENT))
    names = {}
    for _ in range(3):
        for node in document["Plan"]["Plans"]:
            for key, value in node.items():
                names[key.lower().replace(" ", "_")] = value.upper()
    state = _STATE
    total = 0.0
    for _ in range(12):
        gates = state @ _WEIGHTS
        state = np.tanh(gates[:, :HIDDEN])
        logits = gates[:, HIDDEN : 2 * HIDDEN]
        total += float(np.exp(logits - logits.max(axis=1, keepdims=True)).sum())
    return total + len(names)


def sample(seconds: float = SLICE_S) -> float:
    """Reference loops per second over ``seconds`` of running the loop."""
    started = time.perf_counter()
    deadline = started + seconds
    loops = 0
    while True:
        reference_loop()
        loops += 1
        now = time.perf_counter()
        if now >= deadline:
            return loops / (now - started)
