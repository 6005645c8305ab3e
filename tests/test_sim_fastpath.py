"""Tests for the million-message fast path: streams, slots, timer interplay.

The engine executor streams its workload (``Engine.add_stream``) instead
of scheduling one heap event per message. That must be a pure
performance change: the golden pins below were recorded from the
per-event path before it was removed, and the streamed engine must keep
reproducing them. Streams must also interleave correctly with periodic
timers at day boundaries and keep cancellation working while draining.
The ``__slots__`` hot-path classes must actually reject stray
attributes, or the allocation win silently evaporates.
"""

import hashlib

import pytest

from repro.core.config import ZmailConfig
from repro.core.scenario import Scenario, SpammerSpec, ZombieSpec
from repro.errors import SimulationError
from repro.sim.clock import DAY, HOUR
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.network import LinkSpec
from repro.sim.workload import Address, SendRequest, TrafficKind


def _scenario(**overrides) -> Scenario:
    """A small but complete scenario: spam, zombies, daily reconciliation."""
    params = dict(
        n_isps=3,
        users_per_isp=8,
        config=ZmailConfig(
            default_daily_limit=200,
            default_user_balance=60,
            auto_topup_amount=10,
        ),
        seed=11,
        duration=3 * DAY,
        normal_rate_per_day=6.0,
        spammers=[SpammerSpec(Address(0, 0), volume=900, war_chest=300)],
        zombies=[
            ZombieSpec(
                Address(1, 3), rate_per_hour=40.0, start=DAY, end=DAY + 12 * HOUR
            )
        ],
        reconcile_every=DAY,
        executor="engine",
    )
    params.update(overrides)
    return Scenario(**params)


def _balances(network):
    """Every user's (account, balance) plus pools — full money state."""
    state = {}
    for isp_id, isp in sorted(network.compliant_isps().items()):
        ledger = isp.ledger
        state[isp_id] = (
            [(u.user_id, u.account, u.balance) for u in ledger.users()],
            ledger.pool,
            ledger.cash,
            network.bank.account_balance(isp_id),
        )
    return state


def _summary(sends, delivered, blocked_limit, spam, consistent=True):
    return {
        "sends_attempted": sends,
        "delivered": delivered,
        "blocked_balance": 0,
        "blocked_limit": blocked_limit,
        "junked": 0,
        "spam_delivered": spam,
        "zombies_detected": 2,
        "reconciliation_rounds": 3,
        "all_consistent": consistent,
        "conserved": True,
    }


#: Recorded from the per-event engine path (one heap event per message)
#: before it was removed: (seed, link, summary, SHA-256 of _balances).
#: Every run also held total_value == expected_total_value == 3043740.
PER_EVENT_GOLDEN = [
    (
        11,
        None,
        _summary(1784, 801, 983, 140),
        "7a18ce1531d6a48d644cafce67c0c15f7fc97e9973bfa206723e2dd0aea938b9",
    ),
    (
        11,
        LinkSpec(base_latency=2.0, jitter=0.5),
        _summary(1784, 801, 983, 140),
        "7a18ce1531d6a48d644cafce67c0c15f7fc97e9973bfa206723e2dd0aea938b9",
    ),
    (
        3,
        LinkSpec(base_latency=0.5, jitter=1.0, loss_rate=0.05),
        _summary(1793, 754, 1006, 125, consistent=False),
        "94f172021da8f41d78472264f30db56d81fb00c4811269580101a35d94405f76",
    ),
    (
        29,
        LinkSpec(base_latency=HOUR),
        _summary(1848, 837, 989, 147),
        "6748a2504894254c3f3aa064f827b80cd1497c12a88f403141f4fa9bb7686bc0",
    ),
]


class TestStreamingEquivalence:
    def test_streaming_matches_per_event_results(self):
        """The streamed engine reproduces the per-event path's pins."""
        for seed, link, summary, balances in PER_EVENT_GOLDEN:
            overrides = {"seed": seed}
            if link is not None:
                overrides["link"] = link
            result = _scenario(**overrides).run()
            network = result.network

            assert result.summary() == summary, (seed, link)
            digest = hashlib.sha256(repr(_balances(network)).encode())
            assert digest.hexdigest() == balances, (seed, link)
            assert network.total_value() == 3043740
            assert network.expected_total_value() == 3043740
            assert len(result.reconciliations) == 3

    def test_streaming_matches_direct_mode_with_zero_latency(self):
        """With zero-latency links even the synchronous path agrees."""
        link = LinkSpec(base_latency=0.0, jitter=0.0, loss_rate=0.0)
        streamed = _scenario(link=link).run()
        direct = _scenario(executor="direct").run()

        assert streamed.summary() == direct.summary()
        assert _balances(streamed.network) == _balances(direct.network)

    def test_streaming_is_deterministic_across_runs(self):
        first = _scenario().run()
        second = _scenario().run()
        assert first.summary() == second.summary()
        assert _balances(first.network) == _balances(second.network)


class TestStreamTimerInterleaving:
    def test_midnight_timers_interleave_with_streamed_sends(self):
        """Periodic heap timers fire between stream items at day boundaries.

        Sends streamed at known offsets around midnight must observe the
        daily-limit reset exactly at the boundary: the 23:00 send lands on
        day 0's counter, the 01:00 send on day 1's fresh counter.
        """
        engine = Engine()
        order = []

        requests = [
            SendRequest(23 * HOUR, Address(0, 0), Address(1, 0), TrafficKind.NORMAL),
            SendRequest(DAY + HOUR, Address(0, 0), Address(1, 0), TrafficKind.NORMAL),
            SendRequest(2 * DAY + HOUR, Address(0, 0), Address(1, 0), TrafficKind.NORMAL),
        ]
        engine.add_stream(iter(requests), lambda r: order.append(("send", r.time)))
        engine.schedule_every(DAY, lambda: order.append(("midnight", engine.now)))
        engine.run(until=3 * DAY)

        assert order == [
            ("send", 23 * HOUR),
            ("midnight", DAY),
            ("send", DAY + HOUR),
            ("midnight", 2 * DAY),
            ("send", 2 * DAY + HOUR),
            ("midnight", 3 * DAY),
        ]

    def test_stream_wins_ties_against_heap_events(self):
        """A stream item and a timer at the same instant: stream first.

        This mirrors the per-event path, where workload sends are
        scheduled before periodic timers and carry lower seq numbers.
        """
        engine = Engine()
        order = []
        requests = [
            SendRequest(float(DAY), Address(0, 0), Address(1, 0), TrafficKind.NORMAL)
        ]
        engine.add_stream(iter(requests), lambda r: order.append("send"))
        engine.schedule_at(DAY, lambda: order.append("timer"))
        engine.run()
        assert order == ["send", "timer"]

    def test_daily_limit_resets_exactly_at_boundary(self):
        """End-to-end: a streamed burst straddling midnight sees the reset."""
        result = _scenario(
            normal_rate_per_day=0.0,
            spammers=[SpammerSpec(Address(0, 0), volume=500, war_chest=600)],
            zombies=[],
            duration=2 * DAY,
            config=ZmailConfig(
                default_daily_limit=180,
                default_user_balance=700,
                auto_topup_amount=0,
            ),
        ).run()
        # Volume 500 over one day against a limit of 180: the campaign
        # day hits the brake, and the summary proves the midnight timer
        # actually fired between streamed sends (otherwise nothing would
        # ever be blocked_limit or anything after midnight delivered).
        assert result.blocked_limit > 0
        assert result.delivered > 0
        assert result.conserved

    def test_stream_must_be_time_ordered(self):
        engine = Engine()
        requests = [
            SendRequest(10.0, Address(0, 0), Address(1, 0), TrafficKind.NORMAL),
            SendRequest(5.0, Address(0, 0), Address(1, 0), TrafficKind.NORMAL),
        ]
        engine.add_stream(iter(requests), lambda r: None)
        with pytest.raises(SimulationError, match="time-ordered"):
            engine.run()


class TestCancelWhileStreaming:
    def test_cancel_periodic_timer_while_stream_drains(self):
        """EventHandle.cancel stops a periodic chain mid-stream."""
        engine = Engine()
        fired = []
        handle = engine.schedule_every(
            DAY, lambda: fired.append(engine.now), label="midnight"
        )

        def dispatch(request):
            if request.time > DAY + HOUR:
                handle.cancel()

        requests = [
            SendRequest(float(t) * HOUR, Address(0, 0), Address(1, 0), TrafficKind.NORMAL)
            for t in range(1, 96, 2)
        ]
        engine.add_stream(iter(requests), dispatch)
        engine.run()

        # The chain fired at DAY, was cancelled by the t=DAY+3h item, and
        # never fired again even though the stream ran to nearly 4 days.
        assert fired == [DAY]
        assert handle.cancelled
        assert engine.now >= 3 * DAY

    def test_cancel_one_shot_timer_while_stream_drains(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(2 * DAY, lambda: fired.append("late"))

        def dispatch(request):
            handle.cancel()

        requests = [
            SendRequest(float(DAY), Address(0, 0), Address(1, 0), TrafficKind.NORMAL)
        ]
        engine.add_stream(iter(requests), dispatch)
        engine.run()
        assert fired == []
        assert handle.cancelled
        # A cancelled heap head must not gate stream time either.
        assert engine.events_processed == 1


class TestSlots:
    def test_event_rejects_arbitrary_attributes(self):
        """Event is __slots__-only: the per-message allocation cut is real."""
        event = Event(time=1.0, priority=0, seq=1, callback=lambda: None)
        with pytest.raises((AttributeError, TypeError)):
            event.stray_attribute = "nope"
        # Slotted instances carry no per-object __dict__ at all.
        assert not hasattr(event, "__dict__")

    def test_hot_path_records_are_slotted(self):
        from repro.core.transfer import Letter
        from repro.core.user import UserAccount
        from repro.sim.workload import Address as WorkloadAddress

        letter = Letter(
            sender=WorkloadAddress(0, 0),
            recipient=WorkloadAddress(1, 0),
            kind=TrafficKind.NORMAL,
            paid=True,
        )
        with pytest.raises((AttributeError, TypeError)):
            letter.stray = 1
        account = UserAccount(user_id=0, account=1, balance=1, daily_limit=1)
        with pytest.raises((AttributeError, TypeError)):
            account.stray = 1
        request = SendRequest(
            0.0, WorkloadAddress(0, 0), WorkloadAddress(1, 0), TrafficKind.NORMAL
        )
        with pytest.raises((AttributeError, TypeError)):
            request.stray = 1
