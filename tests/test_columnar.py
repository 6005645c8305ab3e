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
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.columnar.executor as executor
from repro.cli import main
from repro.columnar.plan import KIND_ORDER
from repro.columnar.state import ColumnarState
from repro.core.config import ZmailConfig
from repro.core.scenario import EXECUTORS, Scenario, SpammerSpec, ZombieSpec
from repro.errors import SimulationError
from repro.obs.manifest import RunManifest, accounting_digest, config_digest
from repro.obs.metrics_export import MetricsExporter
from repro.obs.schema import LEDGER_EVENT_TYPES
from repro.obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from repro.scenario import compile_scenario, run_plan
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import SeededStreams
from repro.sim.workload import Address, merge_workloads

CANONICAL = compile_scenario(
    str(pathlib.Path(__file__).resolve().parent.parent
        / "examples" / "scenarios" / "canonical-3isp.yaml")
)


def canonical_scenario(mode: str = "direct") -> Scenario:
    """The canonical 3-ISP world on one executor."""
    return CANONICAL.scenario(mode)


def invariant_manifest(mode: str) -> RunManifest:
    """The canonical run distilled to facts every executor must share.

    Stronger than ``repro run --manifest``: the ledger-event multiset
    keeps ``reconcile`` rows (only ``t``/``seq``/``method`` are
    stripped), and the accounting digest covers letters in flight.
    """
    ledger = AdditiveMultisetDigest(
        include_types=LEDGER_EVENT_TYPES,
        exclude_fields=("t", "seq", "method"),
    )
    scenario = canonical_scenario(mode)
    scenario.tracer = TraceRecorder(sink=DigestSink(ledger))
    result = scenario.run()
    exporter = MetricsExporter()
    exporter.add_registry("zmail", result.network.metrics)
    return RunManifest(
        seed=scenario.seed,
        config_digest=config_digest(scenario.config),
        event_count=ledger.count,
        event_digest=ledger.digest(),
        metrics_digest=exporter.digest(),
        extra={
            "accounting_digest": accounting_digest(result.network),
            "sends_attempted": result.sends_attempted,
            "conserved": result.conserved,
            "total_value": result.network.total_value(),
        },
    )


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
        direct, columnar = (
            run_plan(CANONICAL, mode)["trace_manifest"]
            for mode in ("direct", "columnar")
        )
        assert direct.event_count == columnar.event_count
        assert direct.event_digest == columnar.event_digest

    def test_traced_residual_topups_are_byte_identical(self, tmp_path):
        # A spammer with a 4-e-penny balance and a 3-e-penny auto top-up
        # runs dry mid-batch, so top-ups fire inside the contended
        # residual and the emission pass must place each one before its
        # send, exactly where direct mode does.
        doc = tmp_path / "topups.json"
        doc.write_text(json.dumps({
            "schema_version": 1,
            "name": "residual-topups",
            "seed": 3,
            "topology": {"n_isps": 2, "users_per_isp": 4},
            "economics": {
                "default_daily_limit": 1000,
                "default_user_balance": 4,
                "auto_topup_amount": 3,
            },
            "traffic": {
                "duration": 43200.0,
                "normal_rate_per_day": 8.0,
                "spammers": [
                    {"isp": 0, "user": 0, "volume": 60, "war_chest": 0}
                ],
            },
            "reconcile": {"every": 21600.0},
        }))
        traces = {}
        for mode in ("direct", "columnar"):
            path = tmp_path / f"{mode}.jsonl"
            assert main(
                ["run", str(doc), "--mode", mode, "--trace", str(path)]
            ) == 0
            traces[mode] = path.read_bytes()
        assert traces["columnar"] == traces["direct"]
        assert b'"type":"topup"' in traces["columnar"]

    def test_columnar_runs_are_deterministic(self):
        first = canonical_scenario("columnar").run()
        second = canonical_scenario("columnar").run()
        assert first.summary() == second.summary()
        assert first.cut_digests == second.cut_digests
        assert accounting_digest(first.network) == accounting_digest(
            second.network
        )

    def test_invariant_manifest_identical_across_all_executors(self):
        documents = {
            mode: invariant_manifest(mode).to_json() for mode in EXECUTORS
        }
        assert len(set(documents.values())) == 1, documents.keys()
        manifest = RunManifest.from_json(documents["direct"])
        assert manifest.extra["conserved"] is True
        assert manifest.event_count > 0


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
        scenario = canonical_scenario("columnar")
        scenario.compliant = [True, True, False]
        with pytest.raises(SimulationError):
            scenario.run()

    def test_unknown_canonical_mode_is_rejected(self):
        with pytest.raises(SimulationError):
            canonical_scenario("parallel")
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


# -- residual solver vs the per-message replay ------------------------------

RES_ISPS, RES_USERS = 2, 4


def residual_state(auto_topup: int, daily_limit: int = 3) -> ColumnarState:
    """A small deployed network's arrays, before any traffic."""
    scenario = Scenario(
        n_isps=RES_ISPS,
        users_per_isp=RES_USERS,
        config=ZmailConfig(
            default_daily_limit=daily_limit, auto_topup_amount=auto_topup
        ),
    )
    network, _ = scenario._deploy()
    return ColumnarState(network)


def clone(state: ColumnarState) -> ColumnarState:
    """A copy of ``state`` whose arrays and metric deltas are its own."""
    twin = object.__new__(ColumnarState)
    for name, value in vars(state).items():
        if isinstance(value, (np.ndarray, dict)):
            value = value.copy()
        setattr(twin, name, value)
    return twin


def assert_same_state(got: ColumnarState, want: ColumnarState) -> None:
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(got, name), value, name)
    assert list(got.metric_deltas.items()) == list(want.metric_deltas.items())


def run_pair(state, senders, recipients, kinds, mask, traced):
    """``_solve_residual`` and ``_run_scalar`` on copies of ``state``."""
    outputs = []
    for fn in (executor._solve_residual, executor._run_scalar):
        copy = clone(state)
        status = np.full(len(senders), 255, dtype=np.uint8) if traced else None
        topups = fn(
            copy.network, copy, senders, recipients, kinds, mask, status
        )
        outputs.append((copy, status, topups))
    (got, got_status, got_topups), (want, want_status, want_topups) = outputs
    assert_same_state(got, want)
    if traced:
        np.testing.assert_array_equal(got_status, want_status)
        np.testing.assert_array_equal(got_topups, want_topups)
    else:
        assert got_topups is None and want_topups is None
    return want


_small = st.integers(min_value=0, max_value=3)
_gids = st.integers(min_value=0, max_value=RES_ISPS * RES_USERS - 1)
# Most traffic leaves ISP 0, whose tiny pool its senders compete for.
_senders = st.one_of(_gids, st.integers(min_value=0, max_value=RES_USERS - 1))


@st.composite
def _residual_cases(draw):
    n_users = RES_ISPS * RES_USERS
    n_rows = draw(st.integers(min_value=1, max_value=40))
    senders = draw(st.lists(_senders, min_size=n_rows, max_size=n_rows))
    recipients = draw(st.lists(_gids, min_size=n_rows, max_size=n_rows))
    return {
        "auto_topup": draw(st.sampled_from([0, 1, 5])),
        "balance": draw(st.lists(_small, min_size=n_users, max_size=n_users)),
        "account": draw(st.lists(_small, min_size=n_users, max_size=n_users)),
        "sent_today": draw(
            st.lists(_small, min_size=n_users, max_size=n_users)
        ),
        "pool": draw(st.lists(_small, min_size=RES_ISPS, max_size=RES_ISPS)),
        "senders": senders,
        "recipients": recipients,
        "kinds": draw(
            st.lists(
                st.integers(min_value=0, max_value=len(KIND_ORDER) - 1),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        "mask": draw(
            st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)
        ),
        "window": draw(st.integers(min_value=1, max_value=48)),
        "traced": draw(st.booleans()),
    }


@pytest.fixture
def replays(monkeypatch):
    """Row counts of the windows handed to the per-message replay."""
    calls = []
    replay = executor._replay

    def counting(*args):
        calls.append(len(args[5]))
        return replay(*args)

    monkeypatch.setattr(executor, "_replay", counting)
    return calls


class TestResidualSolver:
    """The window solver must equal the per-message replay exactly."""

    @given(case=_residual_cases())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_solver_equals_replay(self, case):
        state = residual_state(case["auto_topup"])
        for name in ("balance", "account", "sent_today", "pool"):
            getattr(state, name)[:] = case[name]
        mask = np.array(case["mask"], dtype=bool)
        if not mask.any():
            mask[0] = True
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(executor, "WINDOW", case["window"])
            run_pair(
                state,
                np.array(case["senders"], dtype=np.int64),
                np.array(case["recipients"], dtype=np.int64),
                np.array(case["kinds"], dtype=np.int64),
                mask,
                case["traced"],
            )

    def test_competing_topups_drain_one_pool(self):
        # Three broke senders of ISP 0 share a 4-e-penny pool: the first
        # two buy, the third finds the pool empty, in arrival order.
        state = residual_state(auto_topup=2, daily_limit=10)
        state.balance[:] = 0
        state.account[:] = 3
        state.pool[:] = [4, 0]
        senders = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int64)
        recipients = np.array([4, 5, 6, 7, 4, 5, 6], dtype=np.int64)
        kinds = np.zeros(len(senders), dtype=np.int64)
        mask = np.ones(len(senders), dtype=bool)
        want = run_pair(state, senders, recipients, kinds, mask, traced=True)
        assert want.pool[0] == 0
        assert want.metric_deltas["topup.count"] == 2

    def test_account_runs_dry_before_the_pool(self):
        # One broke sender with a 3-penny account and a 2-e-penny top-up
        # sends five times: it buys 2, then the last penny, then is
        # blocked although its ISP's pool still has e-pennies.
        state = residual_state(auto_topup=2, daily_limit=10)
        state.balance[:] = 0
        state.account[:] = 3
        state.pool[:] = [9, 9]
        senders = np.zeros(5, dtype=np.int64)
        recipients = np.array([4, 1, 5, 2, 6], dtype=np.int64)
        kinds = np.zeros(5, dtype=np.int64)
        mask = np.ones(5, dtype=bool)
        want = run_pair(state, senders, recipients, kinds, mask, traced=True)
        assert want.account[0] == 0 and want.pool[0] == 6
        assert want.metric_deltas["send.blocked_balance"] == 2

    def test_hot_potato_longer_than_round_cap_replays(self, replays):
        # Zero-balance users pass a penny that nobody has, A -> B -> C ->
        # A ...: each round of the fixed point settles one more row, so
        # the window exceeds the cap and is replayed per message.
        state = residual_state(auto_topup=0, daily_limit=1000)
        state.balance[:] = 0
        n = executor.ROUND_CAP + 10
        senders = np.arange(n, dtype=np.int64) % 3
        recipients = (senders + 1) % 3
        kinds = np.zeros(n, dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        want = run_pair(state, senders, recipients, kinds, mask, traced=True)
        assert replays == [n, n]  # the solver's fallback, then the oracle
        assert want.metric_deltas["send.blocked_balance"] == n

    def test_canonical_world_takes_no_fallback(self, replays):
        result = canonical_scenario("columnar").run()
        assert result.sends_attempted > 0
        assert replays == []

    def test_negative_starting_balance_replays(self, replays):
        # The closed form assumes balances start at zero or more; a
        # window that breaks that is replayed, and still equals the oracle.
        state = residual_state(auto_topup=1)
        state.balance[0] = -1
        senders = np.array([0, 0, 1], dtype=np.int64)
        recipients = np.array([1, 4, 0], dtype=np.int64)
        kinds = np.zeros(3, dtype=np.int64)
        run_pair(state, senders, recipients, kinds, np.ones(3, bool), True)
        assert replays == [3, 3]
