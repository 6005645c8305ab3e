"""Size-parametric cluster scenarios for tests and benchmarks.

The shard-invariance tests sweep ISP and user counts, so they build
their worlds here instead of writing one document per size. The CLI
and the CI smoke run the fixed document
``examples/scenarios/cluster-8x16.yaml``, pinned equal to
``cluster_scenario(9, n_isps=8, users_per_isp=16, days=1)``.
"""

from __future__ import annotations

from ..core.config import ZmailConfig
from ..core.scenario import Scenario, SpammerSpec, ZombieSpec
from ..sim.clock import DAY, HOUR
from ..sim.workload import Address

__all__ = ["cluster_scenario", "smoke_scenario"]


def cluster_scenario(
    seed: int = 0,
    *,
    n_isps: int = 8,
    users_per_isp: int = 32,
    days: int = 2,
    normal_rate_per_day: float = 24.0,
    adversarial: bool = True,
) -> Scenario:
    """A mixed-traffic scenario sized by the caller.

    Eight compliant ISPs by default, legitimate mail plus (optionally)
    one funded spam campaign and one zombie outbreak, reconciled daily —
    the same ingredient list as the macro benchmark's canonical
    scenario, parameterized so callers can scale it up or down.
    """
    if n_isps < 2:
        raise ValueError(f"a cluster scenario needs >= 2 ISPs, got {n_isps}")
    spammers = []
    zombies = []
    if adversarial:
        volume = int(users_per_isp * normal_rate_per_day * days * 2)
        spammers = [
            SpammerSpec(
                Address(0, 0),
                volume=volume,
                war_chest=volume // 3,
                start=0.0,
                duration=days * DAY,
            )
        ]
        zombies = [
            ZombieSpec(
                Address(1, users_per_isp // 2),
                rate_per_hour=120.0,  # 12h at this rate tops the 500/day limit
                start=6 * HOUR,
                end=18 * HOUR,
            )
        ]
    return Scenario(
        n_isps=n_isps,
        users_per_isp=users_per_isp,
        config=ZmailConfig(
            default_daily_limit=500,
            default_user_balance=200,
            auto_topup_amount=50,
        ),
        seed=seed,
        duration=days * DAY,
        normal_rate_per_day=normal_rate_per_day,
        spammers=spammers,
        zombies=zombies,
        reconcile_every=DAY,
    )


def smoke_scenario(seed: int = 0) -> Scenario:
    """The small fixed scenario CI's determinism smoke and tests share."""
    return cluster_scenario(
        seed, n_isps=6, users_per_isp=12, days=2, normal_rate_per_day=16.0
    )
