"""The benchmark's worlds: scenario documents owned by the benchmark.

Each workload runs one document from ``worlds/``, compiled through
:func:`repro.scenario.compile_scenario`. The documents carry
``"seed": 0``; the workload seed given on the command line replaces it,
so the same ``--seed`` always yields the same traffic.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

WORLDS = Path(__file__).resolve().parent / "worlds"


def load(name: str, seed: int) -> dict:
    """The document ``worlds/<name>.json`` with its seed set to ``seed``."""
    with open(WORLDS / f"{name}.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["seed"] = seed
    return doc


def derive(seed: int, label: str) -> int:
    """A child seed of ``seed``, stable across platforms and versions."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def scaled(doc: dict, factor: float) -> dict:
    """``doc`` with every traffic rate and volume multiplied by ``factor``.

    Topology, economics and timing stay as they are, so a scaled world
    runs the same code paths in the same proportions at a fraction of
    the messages. The correctness checks use it to keep their reference
    runs small.
    """
    small = copy.deepcopy(doc)
    small["name"] = f"{doc['name']}-x{factor:g}"
    traffic = small["traffic"]
    traffic["normal_rate_per_day"] *= factor
    for spammer in traffic.get("spammers", []):
        spammer["volume"] = max(1, int(spammer["volume"] * factor))
        spammer["war_chest"] = int(spammer.get("war_chest", 0) * factor)
    for zombie in traffic.get("zombies", []):
        zombie["rate_per_hour"] *= factor
    return small


def outcome_counts(counters: dict[str, int]) -> dict[str, int]:
    """Message outcomes from a network's ``zmail`` counters.

    The same sums :class:`repro.core.scenario.ScenarioResult` reports,
    for drives that return only the counters.
    """
    return {
        "delivered": counters.get("deliver.delivered", 0)
        + counters.get("send.delivered_local", 0),
        "blocked_balance": counters.get("send.blocked_balance", 0),
        "blocked_limit": counters.get("send.blocked_limit", 0),
    }
