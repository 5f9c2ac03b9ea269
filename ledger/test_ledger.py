"""Self-tests for the benchmark's pure parts: schedules, the percentile rule,
span self times, the output check and the host-speed scaling."""

from __future__ import annotations

import time

import pytest

from ledger import hostspeed, workloads
from ledger.check import Reference, check_narration, placeholder_steps
from ledger.loadgen import closed_loop, open_loop, poisson_offsets, rotation
from ledger.stack import PoolItem
from ledger.stats import stage_times, tail_percentile, windowed_tail
from ledger.workloads import REFUSALS, Result, Traffic, check_outcomes

TAGS = ("<I>", "<F>", "<C>", "<T>", "<TN>", "<A>", "<G>")


def test_schedule_is_a_function_of_the_seed():
    assert poisson_offsets(7, 200.0, 2.0) == poisson_offsets(7, 200.0, 2.0)
    assert poisson_offsets(7, 200.0, 2.0) != poisson_offsets(8, 200.0, 2.0)
    assert rotation(7, 10, ("rule", "neural", "auto")) == rotation(7, 10, ("rule", "neural", "auto"))
    assert rotation(7, 10, ("rule", "neural", "auto")) != rotation(8, 10, ("rule", "neural", "auto"))


def test_schedule_has_the_offered_rate_and_covers_every_pair_once():
    offsets = poisson_offsets(3, 500.0, 20.0)
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < 20.0
    assert 0.95 < len(offsets) / (500.0 * 20.0) < 1.05
    pairs = rotation(3, 4, ("rule", "neural"))
    assert sorted(pairs) == [(i, m) for i in range(4) for m in ("neural", "rule")]


def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    tail = tail_percentile(range(1, 1001))
    assert (tail.quantile, tail.value, tail.samples, tail.beyond) == (0.99, 990, 1000, 10)
    tail = tail_percentile(range(1, 2001))
    assert (tail.quantile, tail.value, tail.beyond) == (0.99, 1980, 20)


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    tail = tail_percentile(range(1, 501))
    assert tail.quantile == pytest.approx(0.98)
    assert tail.value == 490 and tail.beyond == 10
    assert tail.label == "p98 of 500 (10 beyond)"
    assert tail_percentile(range(11)).value == 0
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _span(name, offset, duration, children=()):
    node = {"name": name, "offset_ms": offset, "duration_ms": duration}
    if children:
        node["children"] = list(children)
    return node


def test_self_time_subtracts_the_union_of_children():
    trace = {
        "name": "root",
        "duration_ms": 10.0,
        "started_at": 50.0,
        "children": [
            _span("a", 1.0, 2.0),
            _span("b", 2.0, 3.0),  # overlaps a: together they cover [1, 5]
            _span("c", 6.0, 1.0, [_span("d", 6.5, 0.5)]),
        ],
    }
    times = stage_times(trace)
    assert times["root"]["self"] == pytest.approx(5.0)
    assert times["root"]["total"] == pytest.approx(10.0)
    assert times["c"]["self"] == pytest.approx(0.5)
    assert times["d"]["self"] == pytest.approx(0.5)


def test_overlapping_spans_of_one_stage_count_once():
    decodes = [_span("decode", 2.0, 6.0) for _ in range(32)]
    times = stage_times({"name": "root", "duration_ms": 10.0, "started_at": 0.0, "children": decodes})
    assert times["decode"]["total"] == pytest.approx(6.0)
    assert times["root"]["self"] == pytest.approx(4.0)


def test_worker_spans_are_grafted_under_the_router_forward():
    trace = {
        "name": "router",
        "duration_ms": 8.0,
        "started_at": 100.0,
        "children": [_span("route", 0.5, 0.5), _span("forward", 1.0, 6.0)],
        "worker_spans": [
            {
                "name": "worker",
                "duration_ms": 4.0,
                "started_at": 100.002,
                "children": [_span("decode", 1.0, 2.0)],
            }
        ],
    }
    times = stage_times(trace)
    assert times["forward"]["self"] == pytest.approx(2.0)
    assert times["worker"]["self"] == pytest.approx(2.0)
    assert times["router"]["self"] == pytest.approx(1.5)


REFERENCE = Reference(
    "Scan a. Join T1 and b.",
    ((("Seq Scan",), ("a",)), (("Hash Join",), ("a", "b"))),
)


def _narration(*texts, operators=(("Seq Scan",), ("Hash Join",))):
    steps = [
        {"text": text, "operator_names": list(ops), "relations": list(rels)}
        for text, ops, (_, rels) in zip(texts, operators, REFERENCE.steps)
    ]
    return {"text": " ".join(texts), "steps": steps}


def test_output_check_accepts_faithful_narrations():
    assert check_narration(_narration("Scan a.", "Join T1 and b."), REFERENCE, "rule", TAGS) == []
    assert check_narration(_narration("Read a.", "Combine T1, b."), REFERENCE, "neural", TAGS) == []


def test_output_check_rejects_tampered_rule_text():
    tampered = _narration("Scan a.", "Join T1 and c.")
    assert check_narration(tampered, REFERENCE, "rule", TAGS) == ["rule text differs from the reference"]


def test_output_check_rejects_a_wrong_step_count():
    short = _narration("Read a.")
    assert check_narration(short, REFERENCE, "neural", TAGS) == ["1 steps where the reference has 2"]
    assert check_narration(short, REFERENCE, "auto", TAGS)


def test_output_check_rejects_raw_tags_empty_steps_and_other_operators():
    assert check_narration(_narration("Read <T>.", "Join."), REFERENCE, "neural", TAGS) == [
        "step 0 keeps raw tags ['<T>']"
    ]
    assert check_narration(_narration("  ", "Join."), REFERENCE, "auto", TAGS) == ["step 0 is empty"]
    swapped = _narration("Read a.", "Join.", operators=(("Seq Scan",), ("Merge Join",)))
    assert check_narration(swapped, REFERENCE, "neural", TAGS) == ["step 1 names other operators"]


def test_placeholder_steps_counts_fallback_phrases():
    narration = _narration("Scan a on the specified condition.", "Sort on the specified attribute.")
    assert placeholder_steps(narration) == (2, 2)
    assert placeholder_steps(_narration("Scan a.", "Join.")) == (0, 2)


def test_open_loop_times_from_due_and_leaves_a_backlog_unsent():
    outcomes = open_loop([0.0, 0.001, 0.002], lambda i: (200, {"i": i}), 2, 1.0)
    assert [o.body for o in outcomes] == [{"i": 0}, {"i": 1}, {"i": 2}]
    assert all(o.ok and o.latency_s >= o.done - o.sent >= 0 for o in outcomes)

    def slow(i):
        time.sleep(0.02)
        return 200, None

    # all due at once on one busy connection: each waits for the ones before
    # it, and sending stops at the deadline although 20 were due
    outcomes = open_loop([0.0] * 20, slow, 1, 0.2)
    sent = [o for o in outcomes if o.sent is not None]
    assert 1 <= len(sent) <= 11
    assert all(o.latency_s >= 0.02 * (position + 1) for position, o in enumerate(sent))


def test_closed_loop_runs_for_its_duration():
    before = time.perf_counter()
    outcomes = closed_loop(lambda i: (200, None), 0.02)
    assert outcomes and all(o.ok for o in outcomes)
    assert all(before <= o.sent <= o.done for o in outcomes)
    assert all(later.sent >= earlier.done for earlier, later in zip(outcomes, outcomes[1:]))
    # the loop's stop lies 0.02 s after a time no later than the first send,
    # and no send begins after it, however long the host stalls the loop
    assert outcomes[-1].sent - outcomes[0].sent <= 0.02


def test_windowed_tail_is_the_median_of_true_p99_windows():
    values = [1.0] * 3000
    values[5:25] = [50.0] * 20  # one burst, all in the first window
    tail, tails = windowed_tail(values, 5)
    assert len(tails) == 3 and all(t.quantile == 0.99 for t in tails)
    assert tails[0].value == 50.0 and tail == 1.0
    tail, tails = windowed_tail(list(range(500)), 5)
    assert len(tails) == 1 and tails[0].label == "p98 of 500 (10 beyond)"


POOL = [PoolItem(0, "pg-json", "{}"), PoolItem(1, "mysql-json", "{}")]
FAITHFUL = _narration("Scan a.", "Join T1 and b.")


def _checked(workload, send, refusable=frozenset()):
    result = Result()
    outcomes = open_loop([0.0] * 6, send, 1, 1.0)
    check_outcomes(outcomes, Traffic(workload, 1, POOL), 0, [REFERENCE, REFERENCE], result, refusable)
    return result


def test_outcome_check_passes_faithful_answers_and_counts_placeholders():
    result = _checked("warm_mixed", lambda i: (200, {"narration": FAITHFUL}))
    assert (result.problems, result.attempted, result.failed) == ([], 6, 0)
    assert sum(result.steps.values()) == 12
    envelope = {"results": [{"narration": FAITHFUL}] * 32}
    result = _checked("batch_cold", lambda i: (200, envelope))
    assert (result.problems, result.attempted, result.failed) == ([], 6 * 32, 0)


def test_outcome_check_fails_on_error_statuses_unless_refusals_are_allowed():
    result = _checked("warm_mixed", lambda i: (500, {"error": "internal"}))
    assert len(result.problems) == 6 and result.failed == result.attempted == 6
    assert "status 500" in result.problems[0]
    assert _checked("warm_mixed", lambda i: (0, "connection reset"), REFUSALS).problems
    assert _checked("warm_mixed", lambda i: (500, {}), REFUSALS).problems
    refused = _checked("warm_mixed", lambda i: (429, {"error": "overloaded"}), REFUSALS)
    assert refused.problems == [] and refused.failed == 6


def test_outcome_check_fails_on_an_envelope_item_without_narration():
    items = [{"narration": FAITHFUL}] * 31 + [{"error": "narration", "status": 400}]
    result = _checked("batch_cold", lambda i: (200, {"results": items}))
    assert len(result.problems) == 6 and result.failed == 6
    short = _checked("batch_cold", lambda i: (200, {"results": items[:31]}))
    assert len(short.problems) == 6 and short.failed == 6 * 32
    assert _checked("batch_cold", lambda i: (200, {"error": "bad envelope"})).problems


def test_throughput_is_scaled_by_the_median_host_speed(monkeypatch):
    speeds = iter([4000.0, 2000.0, 2500.0, 5000.0])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(speeds))

    class FakeLoad:
        result = Result()
        cpu_s = 0.01

    def chunk(chunk_s):
        # every chunk narrates 100 plans in half a second, one more failed
        FakeLoad.result.attempted += 101
        FakeLoad.result.failed += 1
        return [], 0.5

    measured = workloads.throughput(FakeLoad, 3 * (workloads.CHUNK_S + hostspeed.SLICE_S), chunk)
    assert (measured.chunks, measured.plans, measured.seconds, measured.plans_per_s) == (3, 300, 1.5, 200.0)
    assert measured.speeds == [4000.0, 2000.0, 2500.0, 5000.0]
    assert measured.plans_per_s_norm == pytest.approx(200.0 * hostspeed.NOMINAL_RATE / 3250.0)


def test_reference_loop_is_fixed_work():
    assert hostspeed.reference_loop() == hostspeed.reference_loop()
    assert hostspeed.sample(0.01) > 0.0
