"""Untimed reference checks, run once per benchmark invocation.

Both compare two drives of the program on one small world against each
other, never against a pinned digest, so a deliberate re-pin of the
traffic (new contact draws, say) changes both sides alike and leaves
the checks green.
"""

from __future__ import annotations

import worlds

#: The checks run the canonical world at this fraction of its traffic.
SMALL = 0.02


def columnar_matches_direct(seed: int) -> bool:
    """The columnar cut digests equal the direct executor's."""
    from repro.scenario import compile_scenario

    doc = worlds.scaled(worlds.load("canonical-8x64", seed), SMALL)
    plan = compile_scenario(doc)
    direct = plan.scenario("direct").run()
    columnar = plan.scenario("columnar").run()
    return bool(
        direct.cut_digests
        and direct.cut_digests == columnar.cut_digests
        and direct.conserved
        and direct.all_reconciliations_consistent
    )


def cluster_matches_inline(seed: int) -> bool:
    """Two spawned shards end with the balances of one inline shard."""
    from repro.cluster.runtime import run_cluster
    from repro.scenario import compile_scenario

    doc = worlds.scaled(worlds.load("canonical-8x64", seed), SMALL / 2)
    plan = compile_scenario(doc)
    digests = []
    for shards, mode in ((2, "spawn"), (1, "inline")):
        config = plan.cluster_config(shards=shards, mode=mode)
        config.traced = False
        result = run_cluster(config)
        if not (result.conserved and result.all_consistent):
            return False
        digests.append(result.manifest.extra["balances_digest"])
    return digests[0] == digests[1]
