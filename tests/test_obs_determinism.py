"""The trace oracle: tracing is deterministic and observer-effect-free.

Two properties make the trace usable as a regression oracle:

* **Determinism** — the same seed produces byte-identical traces,
  metrics exports and manifests, run after run.
* **Zero observer effect** — running with tracing on produces exactly
  the outcomes of running with it off; recording never perturbs the
  simulation it records.
"""

import os

from repro.chaos import ChaosDeployment, FaultSpec
from repro.core import ZmailConfig
from repro.obs.schema import EVENT_TYPES, validate_trace_lines
from repro.obs.spans import SpanRegistry
from repro.obs.trace import ListSink, TraceRecorder
from repro.scenario import compile_scenario, load, run_plan
from repro.sim import SeededStreams
from repro.sim.rng import derive_seed
from repro.sim.workload import NormalUserWorkload

CANONICAL = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios",
    "canonical-3isp.yaml",
)
CANONICAL_SEED = 7


def canonical_plan(seed=CANONICAL_SEED):
    doc = load(CANONICAL)
    doc["seed"] = seed
    return compile_scenario(doc)


def run_canonical(seed=CANONICAL_SEED, sink=None):
    """The canonical world's traced direct run: its trace manifest."""
    return run_plan(canonical_plan(seed), "direct", sink=sink)[
        "trace_manifest"
    ]


class TestCanonicalDeterminism:
    def test_same_seed_same_digests_and_manifest_bytes(self):
        man1 = run_canonical()
        man2 = run_canonical()
        assert man1.event_count == man2.event_count > 0
        assert man1.event_digest == man2.event_digest
        assert man1.metrics_digest == man2.metrics_digest
        assert man1.to_json() == man2.to_json()
        assert man1.digest() == man2.digest()

    def test_same_seed_same_trace_bytes(self):
        sink1, sink2 = ListSink(), ListSink()
        run_canonical(sink=sink1)
        run_canonical(sink=sink2)
        assert sink1.lines() == sink2.lines()

    def test_different_seed_different_event_digest(self):
        man1 = run_canonical()
        man2 = run_canonical(seed=CANONICAL_SEED + 1)
        assert man1.event_digest != man2.event_digest
        assert man1.to_json() != man2.to_json()

    def test_canonical_trace_is_schema_valid(self):
        sink = ListSink()
        manifest = run_canonical(sink=sink)
        checked = validate_trace_lines(sink.lines())
        assert checked == manifest.event_count > 1000

    def test_canonical_trace_covers_the_ledger_path(self):
        sink = ListSink()
        run_canonical(sink=sink)
        seen = {event["type"] for event in sink.events()}
        assert seen <= set(EVENT_TYPES)
        for expected in ("send", "deliver", "midnight", "reconcile"):
            assert expected in seen, f"canonical run never emitted {expected!r}"
        times = [event["t"] for event in sink.events()]
        assert times == sorted(times), "virtual time went backwards"
        assert times[-1] > 0.0, "clock was never installed on the tracer"


class TestObserverEffect:
    def test_tracing_on_and_off_produce_identical_outcomes(self):
        traced = canonical_plan().scenario()
        traced.tracer = TraceRecorder()
        untraced = canonical_plan().scenario()
        assert traced.run().summary() == untraced.run().summary()

    def test_manifest_identical_with_and_without_sink(self):
        # Retention is pure observation: streaming every line to a sink
        # must not shift a single event relative to the sinkless run.
        man_sinkless = run_canonical()
        man_sink = run_canonical(sink=ListSink())
        assert man_sinkless.event_digest == man_sink.event_digest
        assert man_sinkless.to_json() == man_sink.to_json()

    def test_spans_do_not_perturb_the_trace(self):
        plain = canonical_plan().scenario()
        plain.tracer = TraceRecorder()
        spanned = canonical_plan().scenario()
        spanned.tracer = TraceRecorder()
        spanned.spans = SpanRegistry()
        r1 = plain.run()
        r2 = spanned.run()
        assert r1.summary() == r2.summary()
        assert plain.tracer.digest() == spanned.tracer.digest()
        stats = spanned.spans.stats()
        assert stats["snapshot.round"]["count"] >= 2
        assert stats["workload.batch"]["count"] >= 1


class TestChaosObserverEffect:
    @staticmethod
    def _run(tracer):
        seed = 13
        deployment = ChaosDeployment(
            n_isps=2,
            users_per_isp=3,
            seed=seed,
            config=ZmailConfig(default_user_balance=1000, auto_topup_amount=0),
            faults=FaultSpec(drop_rate=0.2, duplicate_rate=0.1),
            monitor_interval=5.0,
            tracer=tracer,
        )
        workload = NormalUserWorkload(
            n_isps=2,
            users_per_isp=3,
            rate_per_day=10_000.0,
            streams=SeededStreams(derive_seed(seed, "chaos-workload")),
        )
        converged = deployment.run(
            workload.generate(60.0), until=60.0, drain_window=1_000.0
        )
        assert converged
        return deployment

    def test_chaos_digest_identical_with_tracing_on_and_off(self):
        traced = self._run(TraceRecorder(sink=ListSink()))
        untraced = self._run(None)
        assert traced.tracer.events_emitted > 0
        assert traced.digest() == untraced.digest()
        assert traced.stats() == untraced.stats()

    def test_chaos_trace_is_deterministic_and_schema_valid(self):
        first = self._run(TraceRecorder(sink=ListSink()))
        second = self._run(TraceRecorder())
        assert first.tracer.digest() == second.tracer.digest()
        assert validate_trace_lines(first.tracer.sink.lines()) > 0
