"""The columnar workloads: canonical-sweep and wide-4k-users.

One *world* is one document compiled and run on the columnar executor:
``compile_scenario(doc).scenario("columnar").run()``. Its set-up ends
when the executor applies its first batch of messages, which the
benchmark observes by wrapping the executor's batch function; the
wrapper only notes the time of its first call. A unit of work runs
every world of the workload once; times and counts add up over them.
"""

from __future__ import annotations

import time

import tracing
import worlds

#: Worlds in one canonical sweep. Summing set-up over a sweep turns a
#: ~50 ms, noise-dominated phase into a measurable one.
SWEEP_WORLDS = 16


class FirstBatch:
    """Notes when the columnar executor starts executing messages.

    The wrapper stays installed for the life of the process.
    """

    def __init__(self) -> None:
        import repro.columnar.executor as executor

        self.at: float | None = None
        tracing.Patches().wrap(executor, "_execute_batch", self._wrap)

    def _wrap(self, fn):
        def execute_batch(*args):
            if self.at is None:
                self.at = time.monotonic()
            return fn(*args)

        return execute_batch


def run_world(doc: dict, first: FirstBatch) -> dict:
    """Run ``doc`` on the columnar executor and time its two phases."""
    from repro.scenario import compile_scenario

    first.at = None
    start = time.monotonic()
    result = compile_scenario(doc).scenario("columnar").run()
    end = time.monotonic()
    return {
        "messages": result.sends_attempted,
        "setup_s": first.at - start,
        "exec_s": end - first.at,
        "correct": bool(
            result.conserved and result.all_reconciliations_consistent
        ),
        "outcomes": {
            "sends": result.sends_attempted,
            "delivered": result.delivered,
            "blocked_balance": result.blocked_balance,
            "blocked_limit": result.blocked_limit,
        },
    }


def combine(parts: list[dict]) -> dict:
    """One unit from several worlds: times and counts add up."""
    messages = sum(p["messages"] for p in parts)
    exec_s = sum(p["exec_s"] for p in parts)
    return {
        "messages": messages,
        "setup_s": sum(p["setup_s"] for p in parts),
        "exec_s": exec_s,
        "rate": messages / exec_s,
        "correct": all(p["correct"] for p in parts),
        "outcomes": {
            key: sum(p["outcomes"][key] for p in parts)
            for key in parts[0]["outcomes"]
        },
    }


class Columnar:
    """A fixed list of worlds run on the columnar executor."""

    def __init__(self, name: str, docs: list[dict]) -> None:
        self.name = name
        self.docs = docs
        self.first = FirstBatch()

    def unit(self, log: tracing.SpanLog | None = None) -> dict:
        patches = tracing.Patches()
        if log is not None:
            tracing.install_columnar(log, patches)
        try:
            parts = [run_world(doc, self.first) for doc in self.docs]
        finally:
            patches.undo()
        return {"world": self.docs[0]["seed"], **combine(parts)}

    def layer_metrics(self, unit: dict, untraced: list[dict]) -> dict:
        return {}

    def extra(self, units: list[dict]) -> dict:
        return {}


def canonical_sweep(seed: int, workdir) -> Columnar:
    """16 derived seeds of the canonical 8-ISP x 64-user world."""
    return Columnar("canonical-sweep", [
        worlds.load("canonical-8x64", worlds.derive(seed, f"sweep{i}"))
        for i in range(SWEEP_WORLDS)
    ])


def wide(seed: int, workdir) -> Columnar:
    """One 16-ISP x 256-user world: 4096 users, ~8.8M messages."""
    return Columnar("wide-4k-users", [worlds.load("wide-16x256", seed)])
