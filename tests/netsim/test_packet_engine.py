"""Tests for the discrete-event engine and the drop-tail queue."""

import pytest

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet
from repro.netsim.packet.queue import DropTailQueue


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("late"))
        sched.schedule(1.0, lambda: fired.append("early"))
        sched.run(until=3.0)
        assert fired == ["early", "late"]

    def test_ties_run_in_scheduling_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append("first"))
        sched.schedule(1.0, lambda: fired.append("second"))
        sched.run(until=2.0)
        assert fired == ["first", "second"]

    def test_run_until_does_not_execute_later_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append("x"))
        sched.run(until=1.0)
        assert fired == []
        assert sched.now == pytest.approx(1.0)

    def test_schedule_in_past_raises(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run(until=2.0)
        with pytest.raises(ValueError):
            sched.schedule(1.5, lambda: None)

    def test_schedule_at_nan_raises(self):
        # NaN compares False with everything: admitted, it would sit in
        # the heap and silently break its ordering.
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(float("nan"), lambda: None)
        assert len(sched) == 0
        assert sched.events_scheduled == 0

    def test_events_processed_counts_a_raising_callback(self):
        sched = EventScheduler()

        def fail():
            raise RuntimeError("boom")

        sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, fail)
        with pytest.raises(RuntimeError):
            sched.run(until=3.0)
        assert sched.events_processed == 2
        assert sched.now == 2.0

    def test_schedule_in_relative(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_in(0.5, lambda: fired.append(sched.now))
        sched.run(until=1.0)
        assert fired == [pytest.approx(0.5)]

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_in(-0.1, lambda: None)

    def test_cancel(self):
        sched = EventScheduler()
        fired = []
        event_id = sched.schedule(1.0, lambda: fired.append("cancelled"))
        sched.schedule(2.0, lambda: fired.append("kept"))
        sched.cancel(event_id)
        sched.run(until=3.0)
        assert fired == ["kept"]

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        fired = []

        def chain():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule_in(1.0, chain)

        sched.schedule(0.0, chain)
        sched.run(until=10.0)
        assert fired == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_step(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        assert sched.step()
        assert not sched.step()
        assert fired == [1]

    def test_len_counts_pending(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        assert len(sched) == 2

    def test_len_excludes_cancelled_events(self):
        sched = EventScheduler()
        event_id = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        sched.cancel(event_id)
        assert len(sched) == 1

    def test_cancel_unknown_or_finished_id_is_noop(self):
        sched = EventScheduler()
        event_id = sched.schedule(1.0, lambda: None)
        sched.run(until=2.0)
        sched.cancel(event_id)  # already executed
        sched.cancel(999)  # never scheduled
        assert len(sched) == 0
        assert sched._cancelled == set()

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        event_id = sched.schedule(1.0, lambda: None)
        sched.cancel(event_id)
        sched.cancel(event_id)
        assert len(sched) == 0

    def test_run_purges_cancelled_entries(self):
        sched = EventScheduler()
        event_id = sched.schedule(1.0, lambda: None)
        sched.cancel(event_id)
        sched.run(until=2.0)
        assert len(sched) == 0
        assert sched._heap == []
        assert sched._cancelled == set()

    def test_cancelled_events_do_not_accumulate(self):
        # A long-lived scheduler that schedules and cancels far-future
        # events must not grow its heap or cancelled set without bound.
        sched = EventScheduler()
        for _ in range(1000):
            sched.cancel(sched.schedule(1e9, lambda: None))
        assert len(sched) == 0
        assert len(sched._heap) <= 2 * EventScheduler._COMPACT_THRESHOLD
        assert len(sched._cancelled) <= 2 * EventScheduler._COMPACT_THRESHOLD

    def test_compaction_preserves_live_events(self):
        sched = EventScheduler()
        fired = []
        keep = [sched.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(5)]
        for _ in range(200):
            sched.cancel(sched.schedule(500.0, lambda: fired.append("dead")))
        assert len(sched) == len(keep)
        sched.run(until=1000.0)
        assert fired == [0, 1, 2, 3, 4]


def make_packet(flow_id=0, seq=0, size=1000, time=0.0):
    return Packet(flow_id=flow_id, sequence=seq, size_bytes=size, send_time=time)


class TestDropTailQueue:
    def _setup(self, rate_bps=8000.0, buffer_bytes=2000.0):
        sched = EventScheduler()
        departed, dropped = [], []
        queue = DropTailQueue(
            sched,
            rate_bps,
            buffer_bytes,
            on_departure=lambda p, t: departed.append((p.sequence, t)),
            on_drop=lambda p, t: dropped.append((p.sequence, t)),
        )
        return sched, queue, departed, dropped

    def test_single_packet_serialization_time(self):
        sched, queue, departed, _ = self._setup(rate_bps=8000.0)
        queue.enqueue(make_packet(size=1000))  # 1000 B at 8 kb/s -> 1 s
        sched.run(until=10.0)
        assert departed == [(0, pytest.approx(1.0))]

    def test_fifo_order(self):
        sched, queue, departed, _ = self._setup()
        for seq in range(3):
            queue.enqueue(make_packet(seq=seq))
        sched.run(until=10.0)
        assert [seq for seq, _ in departed] == [0, 1, 2]

    def test_drop_when_buffer_full(self):
        sched, queue, departed, dropped = self._setup(buffer_bytes=1500.0)
        # First packet enters service immediately; next one fits the buffer;
        # the third exceeds the 1500-byte buffer and is dropped.
        accepted = [queue.enqueue(make_packet(seq=i)) for i in range(3)]
        assert accepted == [True, True, False]
        sched.run(until=10.0)
        assert [seq for seq, _ in dropped] == [2]
        assert queue.packets_dropped == 1

    def test_queueing_delay_estimate(self):
        # One packet in service (1 s residual at 8 kb/s) plus one waiting
        # (1 s of backlog): an arrival now would wait 2 s.
        sched, queue, _, _ = self._setup(rate_bps=8000.0, buffer_bytes=10000.0)
        queue.enqueue(make_packet(seq=0))
        queue.enqueue(make_packet(seq=1))
        assert queue.occupancy_bytes == 1000.0
        assert queue.queueing_delay() == pytest.approx(2.0)

    def test_queueing_delay_counts_residual_service_time(self):
        sched, queue, _, _ = self._setup(rate_bps=8000.0, buffer_bytes=10000.0)
        queue.enqueue(make_packet(seq=0))  # enters service, finishes at t=1
        assert queue.queueing_delay() == pytest.approx(1.0)
        sched.schedule(0.75, lambda: None)
        sched.step()  # advance the clock partway through the transmission
        assert queue.queueing_delay() == pytest.approx(0.25)

    def test_queueing_delay_zero_when_idle(self):
        sched, queue, _, _ = self._setup()
        assert queue.queueing_delay() == 0.0
        queue.enqueue(make_packet(seq=0))
        sched.run(until=10.0)
        assert queue.queueing_delay() == 0.0

    def test_counters(self):
        sched, queue, _, _ = self._setup(buffer_bytes=100000.0)
        for seq in range(5):
            queue.enqueue(make_packet(seq=seq))
        sched.run(until=100.0)
        assert queue.packets_served == 5
        assert queue.bytes_served == 5000.0
        assert queue.max_occupancy_bytes > 0

    def test_work_conserving_after_idle(self):
        sched, queue, departed, _ = self._setup(rate_bps=8000.0)
        queue.enqueue(make_packet(seq=0))
        sched.run(until=5.0)
        queue.enqueue(make_packet(seq=1))
        sched.run(until=10.0)
        assert departed[1][1] == pytest.approx(6.0)

    def test_invalid_parameters_raise(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            DropTailQueue(sched, 0.0, 100.0, lambda p, t: None, lambda p, t: None)
        with pytest.raises(ValueError):
            DropTailQueue(sched, 100.0, -1.0, lambda p, t: None, lambda p, t: None)
