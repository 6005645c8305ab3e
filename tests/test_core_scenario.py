"""Tests for the declarative scenario runner."""

import pathlib

import pytest

from repro.core import NonCompliantMailPolicy, ZmailConfig
from repro.core.scenario import Scenario, ScenarioResult, SpammerSpec, ZombieSpec
from repro.scenario import compile_scenario, run_plan
from repro.scenario.schema import load
from repro.sim import DAY, HOUR, Address

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples/scenarios"


class TestBasicScenario:
    def test_normal_only_run(self):
        result = Scenario(duration=2 * DAY, seed=1).run()
        assert result.sends_attempted > 0
        assert result.delivered > 0
        assert result.conserved
        assert result.all_reconciliations_consistent

    def test_final_reconciliation_always_runs(self):
        result = Scenario(duration=DAY, reconcile_every=0.0, seed=1).run()
        assert len(result.reconciliations) == 1

    def test_periodic_reconciliation(self):
        result = Scenario(
            duration=10 * DAY, reconcile_every=2 * DAY, seed=2
        ).run()
        assert len(result.reconciliations) >= 4
        assert result.all_reconciliations_consistent

    def test_summary_shape(self):
        summary = Scenario(duration=DAY, seed=1).run().summary()
        for key in (
            "sends_attempted", "delivered", "conserved",
            "reconciliation_rounds", "all_consistent",
        ):
            assert key in summary

    def test_deterministic_given_seed(self):
        a = Scenario(duration=DAY, seed=9).run()
        b = Scenario(duration=DAY, seed=9).run()
        assert a.sends_attempted == b.sends_attempted
        assert a.delivered == b.delivered


class TestAdversarialScenario:
    def make(self):
        return Scenario(
            n_isps=4,
            users_per_isp=10,
            compliant=[True, True, True, False],
            config=ZmailConfig(
                default_daily_limit=60,
                default_user_balance=80,
                auto_topup_amount=0,
                noncompliant_policy=NonCompliantMailPolicy.SEGREGATE,
            ),
            seed=3,
            duration=3 * DAY,
            normal_rate_per_day=5.0,
            spammers=[
                SpammerSpec(Address(0, 0), volume=800, war_chest=100),
                SpammerSpec(Address(3, 0), volume=800),
            ],
            zombies=[
                ZombieSpec(
                    Address(1, 7), rate_per_hour=100.0,
                    start=DAY, end=DAY + 8 * HOUR,
                )
            ],
            reconcile_every=DAY,
        )

    def test_runs_clean(self):
        result = self.make().run()
        assert result.conserved
        assert result.all_reconciliations_consistent

    def test_compliant_spammer_choked(self):
        """The daily limit throttles the compliant-side spammer long
        before its war chest would: of 800 attempts over 3 days, at most
        3 x 60 clear the limit."""
        result = self.make().run()
        assert result.blocked_limit > 500
        spammer_user = result.network.isps[0].ledger.user(0)
        assert spammer_user.lifetime_sent <= 3 * 60

    def test_noncompliant_spam_segregated(self):
        result = self.make().run()
        assert result.junked > 200

    def test_zombie_detected(self):
        result = self.make().run()
        detected = {d.address for d in result.zombie_detections}
        assert Address(1, 7) in detected

    def test_limit_blocks_counted(self):
        result = self.make().run()
        assert result.blocked_limit > 0


class TestScenarioCustomisation:
    def test_build_network_exposed(self):
        scenario = Scenario(n_isps=2, users_per_isp=3)
        net = scenario.build_network()
        assert net.n_isps == 2
        assert len(net.compliant_isps()) == 2


class TestEngineModeScenario:
    def test_engine_run_with_latency_and_markers(self):
        from repro.sim import LinkSpec

        result = Scenario(
            duration=2 * DAY,
            seed=5,
            reconcile_every=DAY,
            executor="engine",
            link=LinkSpec(base_latency=0.5, jitter=0.3),
        ).run()
        assert result.conserved
        assert result.all_reconciliations_consistent
        assert len(result.reconciliations) >= 2
        assert result.delivered > 0

    def test_engine_and_direct_agree_on_accounting(self):
        """Same scenario, both modes: identical message counts and both
        conserved (delivery timing differs, totals must not)."""
        spec = dict(duration=DAY, seed=6, normal_rate_per_day=10.0)
        direct = Scenario(**spec).run()
        engine = Scenario(**spec, executor="engine").run()
        assert direct.sends_attempted == engine.sends_attempted
        assert direct.conserved and engine.conserved

    def test_engine_adversarial(self):
        from repro.sim import LinkSpec

        result = Scenario(
            n_isps=3,
            compliant=[True, True, False],
            duration=2 * DAY,
            seed=7,
            spammers=[SpammerSpec(Address(2, 0), volume=300)],
            executor="engine",
            link=LinkSpec(base_latency=0.2),
        ).run()
        assert result.conserved
        assert result.spam_delivered > 200


def _sparse_world(*late_spam_starts):
    """canonical-3isp with only the day-0 spam campaign, over 3 days.

    Each extra start adds a one-message campaign there: a lone request
    that jumps every §4.4 boundary since the quiet stretch began.
    """
    doc = load(EXAMPLES / "canonical-3isp.yaml")
    traffic = doc["traffic"]
    traffic["normal_rate_per_day"] = 0.0
    traffic["zombies"] = []
    traffic["duration"] = 3 * DAY
    for start in late_spam_starts:
        late = dict(traffic["spammers"][0], start=start, volume=1)
        traffic["spammers"].append(late)
    return compile_scenario(doc)


class TestReconcileBoundaries:
    """Every executor takes one §4.4 round per boundary before the end.

    The direct loop and the columnar executor cross boundaries when a
    request does, so they must catch up on boundaries a request jumps
    and take those after the last request; the engine and the cluster
    schedule every boundary on their own clocks.
    """

    @pytest.mark.parametrize(
        "late_starts",
        [(), (2.5 * DAY,)],
        ids=["quiet-after-day-0", "one-request-jumps-two-boundaries"],
    )
    def test_round_count_and_manifest_agree_on_all_executors(
        self, late_starts
    ):
        plan = _sparse_world(*late_starts)
        runs = {
            mode: run_plan(plan, mode)
            for mode in ("direct", "columnar", "engine", "cluster")
        }
        rounds = {
            mode: len(run["report"]["rounds"])
            if mode == "cluster"
            else run["report"]["reconciliation_rounds"]
            for mode, run in runs.items()
        }
        # Boundaries at day 1 and day 2, then the closing round.
        assert rounds == dict.fromkeys(runs, 3)
        manifests = {run["manifest"].to_json() for run in runs.values()}
        assert len(manifests) == 1

    def test_direct_cut_digests_match_columnar(self):
        plan = _sparse_world(2.5 * DAY)
        direct = plan.scenario("direct").run()
        columnar = plan.scenario("columnar").run()
        assert len(direct.cut_digests) == 3
        # The lone day-2.5 request is sent after both boundary rounds.
        assert direct.cut_digests[0] == direct.cut_digests[1]
        assert direct.cut_digests[1] != direct.cut_digests[2]
        assert columnar.cut_digests == direct.cut_digests
