"""Wheel-specific scheduler behaviour: levels, compaction, timer reuse."""

import pytest

from repro.net.simclock import SECOND, Scheduler, Timer


def test_ordering_across_all_levels():
    """Events land in ready, near wheel, far wheel, and overflow; firing
    order is still globally (time, seq)."""
    sched = Scheduler()
    fired = []
    delays = [0, 5, 1_023, 1_024, 200_000, 262_143, 262_144, 5_000_000,
              67_000_000, 67_108_864, 500_000_000]
    for d in reversed(delays):
        sched.schedule(d, lambda d=d: fired.append(d))
    sched.run_until_idle()
    assert fired == sorted(delays)


def test_far_slot_pour_merges_with_existing_near_wheel_content():
    """Regression: an entry cascading down from the far wheel into the
    anchor granule must not overtake an *earlier* entry that was already
    sitting in the near wheel for that same granule.  (Found in review:
    the pour pushed straight to the ready heap and skipped the near-wheel
    slot, firing t=524788 before t=524289 and running the clock
    backwards.)"""
    sched = Scheduler()
    fired = []
    # A lands in the far wheel (granule 512, two far-blocks ahead of t=0).
    sched.schedule((512 << 10) + 500, lambda: fired.append(("A", sched.now_us)))

    # A stepping stone in far-block 1 whose callback schedules B into the
    # near wheel at A's granule but an earlier timestamp.
    def stepping():
        sched.schedule((512 << 10) + 1 - sched.now_us, lambda: fired.append(("B", sched.now_us)))

    sched.schedule(300 << 10, stepping)
    sched.run_until_idle()
    assert [name for name, _ in fired] == ["B", "A"]
    times = [t for _, t in fired]
    assert times == sorted(times), "virtual clock ran backwards"


def test_same_time_cross_level_ties_fire_in_seq_order():
    sched = Scheduler()
    fired = []
    # Park an event far in the future, then let time advance so previously
    # far entries cascade down and tie with freshly scheduled ones.
    sched.schedule(10_000_000, lambda: fired.append("far"))
    sched.schedule(10_000_000, lambda: fired.append("far2"))
    sched.schedule(1_000, lambda: sched.schedule(9_999_000, lambda: fired.append("near")))
    sched.run_until_idle()
    assert fired == ["far", "far2", "near"]


def test_interleaved_run_until_and_new_schedules():
    sched = Scheduler()
    fired = []
    sched.schedule(300_000, lambda: fired.append("a"))
    sched.run_until(100_000)  # peeks ahead, anchor may advance
    sched.schedule(50_000, lambda: fired.append("b"))  # earlier than "a"
    sched.run_until_idle()
    assert fired == ["b", "a"]
    assert sched.now_us == 300_000


def test_compaction_triggers_and_preserves_survivors():
    sched = Scheduler()
    fired = []
    keep = []
    handles = []
    for i in range(500):
        delay = 1_000 * (i + 1)
        if i % 10 == 0:
            keep.append(delay)
            sched.schedule(delay, lambda d=delay: fired.append(d))
        handles.append(sched.schedule(delay, lambda: fired.append("cancelled!")))
    for handle in handles:
        handle.cancel()
    assert sched.compactions >= 1
    assert sched.pending == len(keep)
    sched.run_until_idle()
    assert fired == keep


def test_compaction_threshold_not_hit_by_few_cancels():
    sched = Scheduler()
    for _ in range(10):
        sched.schedule(100, lambda: None).cancel()
    assert sched.compactions == 0
    sched.run_until_idle()


def test_timer_restart_reuses_wheel_entry():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(50_000)
    entry = timer._handle._event
    timer.restart(80_000)
    # Fast path: same record, re-sequenced, nothing tombstoned.
    assert timer._handle._event is entry
    assert sched.pending == 1
    assert not entry.cancelled
    sched.run_until_idle()
    assert fired == [80_000]


def test_timer_start_on_armed_timer_behaves_like_restart():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(500)
    sched.run_until(100)
    timer.start(500)
    sched.run_until_idle()
    assert fired == [600]


def test_reschedule_falls_back_when_entry_is_ready():
    """An entry already promoted to the ready heap cannot be plucked out;
    restart must still work (tombstone + fresh entry)."""
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))

    def rearm():
        timer.restart(2_000_000)

    timer.start(500)  # granule 0 -> ready heap immediately
    sched.schedule(100, rearm)
    sched.run_until_idle()
    assert fired == [2_000_100]


def test_restart_across_levels():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, lambda: fired.append(sched.now_us))
    timer.start(100 * SECOND)   # overflow
    timer.restart(300_000)      # far wheel
    timer.restart(5_000)        # near wheel
    sched.run_until_idle()
    assert fired == [5_000]
    assert sched.pending == 0


def test_pending_counter_with_wheel_levels():
    sched = Scheduler()
    handles = [
        sched.schedule(d, lambda: None)
        for d in (0, 2_000, 500_000, 90 * SECOND)
    ]
    assert sched.pending == 4
    handles[2].cancel()
    assert sched.pending == 3
    sched.run_until(10_000)
    assert sched.pending == 1
    sched.run_until_idle()
    assert sched.pending == 0


def test_run_until_idle_budget_with_wheel():
    sched = Scheduler()

    def rearm():
        sched.schedule(1, rearm)

    sched.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="runaway"):
        sched.run_until_idle(max_events=100)


def test_cancel_after_fire_is_a_counter_safe_noop():
    """Regression: cancelling a handle whose event already fired must not
    corrupt the live/dead bookkeeping (pending went negative and the
    compaction predicate fired spuriously)."""
    sched = Scheduler()
    handle = sched.schedule(10, lambda: None)
    sched.run_until_idle()
    assert sched.pending == 0
    handle.cancel()
    handle.cancel()
    assert sched.pending == 0
    assert sched._dead == 0


def test_periodic_max_firings_keeps_counters_clean():
    sched = Scheduler()
    fired = []
    from repro.net.simclock import PeriodicTask

    PeriodicTask(sched, 10, lambda: fired.append(sched.now_us), max_firings=3)
    sched.run_until_idle()
    assert fired == [10, 20, 30]
    assert sched.pending == 0
    assert sched._dead == 0
    assert sched.compactions == 0


def test_periodic_stop_from_callback_keeps_counters_clean():
    sched = Scheduler()
    from repro.net.simclock import PeriodicTask

    fired = []

    def cb():
        fired.append(sched.now_us)
        if len(fired) == 2:
            task.stop()

    task = PeriodicTask(sched, 10, cb)
    sched.run_until_idle()
    assert fired == [10, 20]
    assert sched.pending == 0
    assert sched._dead == 0


def test_reschedule_of_fired_handle_schedules_fresh():
    sched = Scheduler()
    fired = []
    handle = sched.schedule(10, lambda: fired.append(sched.now_us))
    sched.run_until_idle()
    new_handle = sched.reschedule(handle, 25)
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == [10, 35]
    assert sched.pending == 0
    assert sched._dead == 0
    assert not new_handle.cancelled


def test_reschedule_walks_near_far_overflow_and_back():
    """One handle re-armed through every wheel level fires exactly once,
    at the final re-arm time, with clean counters."""
    sched = Scheduler()
    fired = []
    handle = sched.schedule(50_000, lambda: fired.append(sched.now_us))  # near
    handle = sched.reschedule(handle, 5_000_000)        # far wheel
    handle = sched.reschedule(handle, 500_000_000)      # overflow heap
    handle = sched.reschedule(handle, 1_000)            # back to near
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == [1_000]
    assert sched.pending == 0
    assert sched._dead == 0


def test_reschedule_far_entry_after_time_advanced():
    """Re-arming an entry parked in the far wheel while the clock sits
    mid-run lands it relative to *now*, not relative to its old slot."""
    sched = Scheduler()
    fired = []
    handle = sched.schedule(5_000_000, lambda: fired.append(sched.now_us))
    sched.run_until(2_000_000)
    sched.reschedule(handle, 10_000)
    sched.run_until_idle()
    assert fired == [2_010_000]


def test_cancel_after_fire_from_far_and_overflow_levels():
    """The cancel-after-fire no-op holds for entries that lived in the far
    wheel and the overflow heap, not just the ready/near path."""
    sched = Scheduler()
    handles = [
        sched.schedule(5_000_000, lambda: None),     # far wheel
        sched.schedule(500_000_000, lambda: None),   # overflow heap
    ]
    sched.run_until_idle()
    assert sched.pending == 0
    for handle in handles:
        handle.cancel()
        handle.cancel()
    assert sched.pending == 0
    assert sched._dead == 0


def test_seeded_random_ops_match_heap_oracle():
    """Randomized schedule/cancel/reschedule churn across all wheel levels
    fires in exactly the (time, seq) order a plain sorted oracle predicts.

    The oracle mirrors the scheduler's contract: every schedule *and*
    every reschedule consumes one fresh sequence number; cancelling or
    re-arming an already-fired handle schedules fresh / no-ops.
    """
    import random

    rng = random.Random(0xC0FFEE)
    sched = Scheduler()
    fired: list = []
    oracle_fired: list = []
    live = {}    # key -> handle (pending or already fired)
    oracle = {}  # key -> (time_us, seq), pending only
    seq = 0
    now = 0
    next_key = 0

    def oracle_run_until(t):
        due = sorted(
            ((time_us, s, key) for key, (time_us, s) in oracle.items() if time_us <= t)
        )
        for _, _, key in due:
            oracle_fired.append(key)
            del oracle[key]

    for _ in range(40):
        for _ in range(rng.randrange(1, 25)):
            delay = rng.choice(
                (
                    rng.randrange(0, 1_000),          # ready / same granule
                    rng.randrange(0, 300_000),        # near wheel
                    rng.randrange(0, 70_000_000),     # far wheel
                    rng.randrange(0, 600_000_000),    # overflow heap
                )
            )
            key = next_key
            next_key += 1
            live[key] = sched.schedule(delay, lambda k=key: fired.append(k))
            oracle[key] = (now + delay, seq)
            seq += 1
        for key in rng.sample(sorted(live), k=min(len(live), rng.randrange(0, 6))):
            live.pop(key).cancel()   # no-op when the event already fired
            oracle.pop(key, None)
        for key in rng.sample(sorted(live), k=min(len(live), rng.randrange(0, 6))):
            delay = rng.randrange(0, 100_000_000)
            live[key] = sched.reschedule(live[key], delay)
            oracle.pop(key, None)    # fired handles reschedule fresh
            oracle[key] = (now + delay, seq)
            seq += 1
        now += rng.randrange(0, 50_000_000)
        sched.run_until(now)
        oracle_run_until(now)

    sched.run_until_idle()
    oracle_run_until(max((t for t, _ in oracle.values()), default=now))
    assert fired == oracle_fired
    assert sched.pending == 0


def _step_until(sched, time_us):
    """``run_until`` spelled as the plain peek-and-step loop."""
    while True:
        head = sched._peek_time()
        if head is None or head > time_us:
            break
        sched.step()
    if sched.now_us < time_us:
        sched._now_us = time_us


def _callback_storm(sched, seed, run):
    """Drive ``sched`` through ``run(sched, t)`` windows while callbacks
    post same-instant events, schedule into every wheel level (far-wheel
    refills and overflow pours) and cancel pending handles in bursts big
    enough to compact the wheel mid-run.  Returns what the run observed."""
    import random

    rng = random.Random(seed)
    handles = []
    budget = [3_000]
    order = []

    def spawn(tag):
        def fire():
            order.append((tag, sched.now_us, sched.events_fired, sched.pending))
            if budget[0] <= 0:
                return
            roll = rng.random()
            if roll < 0.35:
                budget[0] -= 1
                sched.post(0, spawn(tag + 1), label="same-instant")
            if roll < 0.8:
                budget[0] -= 1
                delay = rng.choice((1, 700, 90_000, 300_000, 5_000_000, 80_000_000))
                handles.append(sched.schedule(delay, spawn(tag + 2), label="spread"))
            if roll > 0.9:
                for handle in handles[-rng.randrange(1, 120):]:
                    handle.cancel()
                for _ in range(rng.randrange(0, 80)):
                    budget[0] -= 1
                    handles.append(
                        sched.schedule(rng.randrange(1, 2_000_000), spawn(tag + 3))
                    )
        return fire

    for i in range(200):
        handles.append(
            sched.schedule(rng.randrange(0, 100_000_000), spawn(i), label="seed")
        )
    for _ in range(60):
        handles[rng.randrange(len(handles))].cancel()
    now = 0
    while sched.pending:
        now += rng.randrange(1, 20_000_000)
        run(sched, now)
    return order


def test_run_until_matches_a_plain_step_loop():
    results = []
    for run in (Scheduler.run_until, _step_until):
        sched = Scheduler()
        sched.fire_log = []
        order = _callback_storm(sched, 2024, run)
        results.append(
            (sched.fire_log, order, sched.events_fired, sched.pending, sched.now_us,
             sched.compactions)
        )
    (log, order, fired, pending, now, compactions), reference = results
    assert len(log) > 500 and compactions > 0
    assert any(label == "same-instant" for label, _, _ in log)
    assert max(t for _, t, _ in log) > 67_108_864  # past the far wheel
    assert results[0] == reference
