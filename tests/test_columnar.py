"""The columnar batch executor: exact equivalence with the direct loop.

The contract under test (DESIGN.md §10): driving a scenario through
``repro.columnar`` must be *indistinguishable* from the direct loop —
identical summary counters, identical accounting digest over every
balance, identical per-reconcile-cut digests, and (when traced) a
byte-identical ordered event stream including timestamps and sequence
numbers. The hypothesis suite drives randomized small scenarios through
both executors so the equivalence claim rests on more than the canonical
workload; shrinking then hands back a minimal diverging scenario.
"""

import dataclasses
import importlib.util
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ZmailConfig
from repro.core.scenario import Scenario, SpammerSpec, ZombieSpec
from repro.errors import SimulationError
from repro.obs.canonical import (
    CANONICAL_MODES,
    canonical_scenario,
    invariant_manifest,
    run_canonical,
)
from repro.obs.manifest import accounting_digest
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import SeededStreams
from repro.sim.workload import Address, merge_workloads


def run_both(scenario: Scenario):
    """Run one scenario spec through the direct and columnar executors."""
    direct = dataclasses.replace(scenario, executor="direct").run()
    columnar = dataclasses.replace(scenario, executor="columnar").run()
    return direct, columnar


class TestCanonicalEquivalence:
    def test_summary_and_accounting_match_direct(self):
        direct, columnar = run_both(canonical_scenario())
        assert columnar.summary() == direct.summary()
        assert accounting_digest(columnar.network) == accounting_digest(
            direct.network
        )

    def test_every_reconcile_cut_digest_matches(self):
        direct, columnar = run_both(canonical_scenario())
        assert direct.cut_digests  # daily cuts + the final one
        assert columnar.cut_digests == direct.cut_digests

    def test_traced_event_stream_is_byte_identical(self):
        # The strongest claim: with tracing on, the columnar executor
        # reproduces the direct loop's ordered event stream exactly —
        # same events, same virtual timestamps, same sequence numbers.
        _, direct_rec, _, _ = run_canonical(mode="direct")
        _, columnar_rec, _, _ = run_canonical(mode="columnar")
        assert direct_rec.events_emitted == columnar_rec.events_emitted
        assert direct_rec.digest() == columnar_rec.digest()

    def test_columnar_runs_are_deterministic(self):
        first = canonical_scenario(mode="columnar").run()
        second = canonical_scenario(mode="columnar").run()
        assert first.summary() == second.summary()
        assert first.cut_digests == second.cut_digests
        assert accounting_digest(first.network) == accounting_digest(
            second.network
        )

    def test_invariant_manifest_identical_across_all_executors(self):
        documents = {
            mode: invariant_manifest(mode=mode).to_json()
            for mode in CANONICAL_MODES
        }
        assert len(set(documents.values())) == 1, documents.keys()


class TestColumnStreams:
    def test_column_streams_match_request_streams(self):
        # The chunk plan must replay exactly the request sequence the
        # direct loop consumes: same order, same senders/recipients/kinds.
        scenario = canonical_scenario()
        requests = list(
            merge_workloads(
                *scenario.workload_streams(SeededStreams(scenario.seed))
            )
        )
        from repro.columnar.plan import KIND_ORDER, merge_column_streams

        upi = scenario.users_per_isp
        flat = []
        for chunk in merge_column_streams(
            scenario.workload_column_streams(SeededStreams(scenario.seed))
        ):
            for i in range(len(chunk)):
                flat.append(
                    (
                        float(chunk.times[i]),
                        int(chunk.senders[i]),
                        int(chunk.recipients[i]),
                        KIND_ORDER[chunk.kinds[i]],
                    )
                )
        assert len(flat) == len(requests)
        for got, request in zip(flat, requests):
            sender = request.sender.isp * upi + request.sender.user
            recipient = request.recipient.isp * upi + request.recipient.user
            assert got == (request.time, sender, recipient, request.kind)


class TestGuards:
    def test_non_compliant_deployment_is_rejected(self):
        scenario = canonical_scenario(mode="columnar")
        scenario.compliant = [True, True, False]
        with pytest.raises(SimulationError):
            scenario.run()

    def test_unknown_canonical_mode_is_rejected(self):
        with pytest.raises(SimulationError):
            canonical_scenario(mode="parallel")
        with pytest.raises(SimulationError):
            Scenario(executor="parallel")


# -- randomized equivalence ------------------------------------------------

N_ISPS, USERS = 3, 5

_addresses = st.builds(
    Address,
    isp=st.integers(min_value=0, max_value=N_ISPS - 1),
    user=st.integers(min_value=0, max_value=USERS - 1),
)

_spammers = st.builds(
    SpammerSpec,
    address=_addresses,
    volume=st.integers(min_value=0, max_value=120),
    war_chest=st.integers(min_value=0, max_value=80),
    start=st.floats(min_value=0.0, max_value=DAY, allow_nan=False),
    duration=st.floats(min_value=HOUR, max_value=DAY, allow_nan=False),
)

_zombies = st.builds(
    lambda address, start, length, rate: ZombieSpec(
        address, rate_per_hour=rate, start=start, end=start + length
    ),
    address=_addresses,
    start=st.floats(min_value=0.0, max_value=DAY, allow_nan=False),
    length=st.floats(min_value=HOUR, max_value=DAY, allow_nan=False),
    rate=st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
)

_scenarios = st.builds(
    Scenario,
    n_isps=st.just(N_ISPS),
    users_per_isp=st.just(USERS),
    config=st.builds(
        ZmailConfig,
        default_daily_limit=st.integers(min_value=1, max_value=40),
        default_user_balance=st.integers(min_value=0, max_value=30),
        auto_topup_amount=st.integers(min_value=0, max_value=15),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    duration=st.floats(min_value=HOUR, max_value=2 * DAY, allow_nan=False),
    normal_rate_per_day=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.5, max_value=25.0, allow_nan=False),
    ),
    spammers=st.lists(_spammers, max_size=2),
    zombies=st.lists(_zombies, max_size=1),
    reconcile_every=st.sampled_from([0.0, 6 * HOUR, DAY]),
)


class TestRandomizedEquivalence:
    @given(scenario=_scenarios)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_columnar_matches_direct_on_random_scenarios(self, scenario):
        # Tight limits, tiny balances and mid-day campaign starts push
        # most messages into the contended/blocked classes — the paths
        # where a vectorization bug would actually show up.
        direct, columnar = run_both(scenario)
        assert columnar.summary() == direct.summary()
        assert columnar.cut_digests == direct.cut_digests
        assert accounting_digest(columnar.network) == accounting_digest(
            direct.network
        )


def test_million_user_row_at_small_scale():
    # benchmarks/bench_macro_scale.py --million-users, at 16 x 64 users.
    path = pathlib.Path(__file__).resolve().parent.parent / (
        "benchmarks/bench_macro_scale.py"
    )
    spec = importlib.util.spec_from_file_location("bench_macro_scale", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    import repro.columnar.executor as executor

    original = executor._execute_batch
    row = bench.run_million_users(7, 64)
    assert executor._execute_batch is original
    assert row["users"] == 16 * 64
    assert row["messages"] == row["summary"]["sends_attempted"] > 0
    assert row["summary"]["conserved"] and row["summary"]["all_consistent"]
    assert row["setup_seconds"] > 0 and row["execution_seconds"] > 0
