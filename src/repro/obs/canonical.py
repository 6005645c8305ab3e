"""The canonical 3-ISP scenario behind ``repro trace`` and the oracle tests.

One fixed, fast (<1s), mixed workload — normal correspondence, a funded
spam campaign, a zombie burst, daily reconciliation — exercising every
ledger-visible event type. Its only free parameter is the seed, so the
trace digest doubles as a regression oracle: any behavioural change in
the protocol shows up as a digest change here before anything else.

The scenario can be driven by any executor (``mode``): the ``direct``
loop, the ``columnar`` batch executor, or the ``engine`` over a
zero-latency link. :func:`invariant_manifest` distils a run down to its
executor-invariant facts — the ledger-event multiset with
timestamps/sequence/method stripped, the protocol metrics, and the
accounting digest — so CI can ``cmp`` the resulting files across modes.
"""

from __future__ import annotations

from ..core.config import ZmailConfig
from ..core.scenario import EXECUTORS, Scenario, SpammerSpec, ZombieSpec
from ..sim.clock import DAY, HOUR
from ..sim.network import LinkSpec
from ..sim.workload import Address
from .manifest import (
    RunManifest,
    accounting_digest,
    build_manifest,
    config_digest,
)
from .metrics_export import MetricsExporter, export_network
from .schema import LEDGER_EVENT_TYPES
from .trace import AdditiveMultisetDigest, DigestSink, TraceRecorder

__all__ = [
    "CANONICAL_SEED",
    "CANONICAL_MODES",
    "canonical_scenario",
    "run_canonical",
    "invariant_manifest",
]

#: The default seed for the canonical run (matching the campaign specs).
CANONICAL_SEED = 7

#: Executors that can drive the canonical scenario.
CANONICAL_MODES = EXECUTORS


def canonical_config() -> ZmailConfig:
    """The canonical run's deployment parameters."""
    return ZmailConfig(default_daily_limit=120)


def canonical_scenario(
    *,
    seed: int = CANONICAL_SEED,
    tracer: TraceRecorder | None = None,
    mode: str = "direct",
) -> Scenario:
    """Build the canonical scenario (3 ISPs × 8 users, default direct)."""
    return Scenario(
        n_isps=3,
        users_per_isp=8,
        config=canonical_config(),
        seed=seed,
        duration=2 * DAY,
        normal_rate_per_day=40.0,
        spammers=[SpammerSpec(Address(1, 0), volume=400, war_chest=60)],
        zombies=[
            ZombieSpec(
                Address(2, 7),
                rate_per_hour=120.0,
                start=12 * HOUR,
                end=DAY,
            )
        ],
        reconcile_every=DAY,
        executor=mode,
        # Zero latency keeps every engine delivery inside the sender's
        # epoch so executor-invariant facts line up with the other modes.
        link=LinkSpec(base_latency=0.0) if mode == "engine" else None,
        tracer=tracer,
    )


def run_canonical(
    *, seed: int = CANONICAL_SEED, sink=None, mode: str = "direct"
) -> tuple[object, TraceRecorder, MetricsExporter, RunManifest]:
    """Run the canonical scenario with tracing on.

    Returns ``(result, recorder, exporter, manifest)`` — everything the
    CLI and the determinism tests need in one call. The manifest's
    digests are executor-specific (timestamps and emission order differ
    between modes); use :func:`invariant_manifest` for cross-mode
    comparison.
    """
    recorder = TraceRecorder(sink=sink)
    scenario = canonical_scenario(seed=seed, tracer=recorder, mode=mode)
    result = scenario.run()
    exporter = export_network(result.network)
    manifest = build_manifest(
        seed=seed,
        config=scenario.config,
        recorder=recorder,
        exporter=exporter,
        extra={
            "scenario": "canonical-3isp",
            "mode": mode,
            "sends_attempted": result.sends_attempted,
            "conserved": result.conserved,
        },
    )
    return result, recorder, exporter, manifest


def invariant_manifest(
    *, seed: int = CANONICAL_SEED, mode: str = "direct"
) -> RunManifest:
    """Run the canonical scenario and keep only executor-invariant facts.

    The returned manifest is byte-identical across ``direct``,
    ``columnar`` and ``engine`` for the same seed (CI compares the
    three files with ``cmp``):

    * ``event_digest`` / ``event_count`` — the additive multiset of
      ledger events with ``t``/``seq``/``method`` stripped (virtual
      timestamps and the reconcile trigger differ between executors;
      the *set of ledger facts* must not);
    * ``metrics_digest`` — the ``zmail`` protocol registry only (the
      engine adds ``engine``/``link`` namespaces of its own);
    * ``extra`` — the accounting digest over every balance, plus the
      summary facts every executor must agree on.
    """
    ledger_acc = AdditiveMultisetDigest(
        include_types=LEDGER_EVENT_TYPES,
        exclude_fields=("t", "seq", "method"),
    )
    recorder = TraceRecorder(sink=DigestSink(ledger_acc))
    scenario = canonical_scenario(seed=seed, tracer=recorder, mode=mode)
    result = scenario.run()
    exporter = MetricsExporter()
    exporter.add_registry("zmail", result.network.metrics)
    return RunManifest(
        seed=seed,
        config_digest=config_digest(scenario.config),
        event_count=ledger_acc.count,
        event_digest=ledger_acc.digest(),
        metrics_digest=exporter.digest(),
        extra={
            "scenario": "canonical-3isp-invariant",
            "accounting_digest": accounting_digest(result.network),
            "sends_attempted": result.sends_attempted,
            "conserved": result.conserved,
            "total_value": result.network.total_value(),
        },
    )
