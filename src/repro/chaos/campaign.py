"""Chaos cells: one fault mix in its own deployment, with a verdict.

:func:`run_cell` is the chaos drive behind ``repro run DOC --mode
chaos``: :meth:`repro.scenario.ScenarioPlan.campaign` lowers a scenario
document to a ``(spec, cell)`` pair — the deployment, workload and drain
settings, then the cell's fault mix, crash schedule and floods — and
``run_cell`` executes it in a fresh deployment, drains it to quiescence
and returns one report row:

* **pass** requires the cell to converge (quiescence reached), keep every
  invariant monitor green, conserve total value, and commit every
  reconciliation round it started.

Determinism: the cell's seed derives from the document seed and the
cell's name (SHA-256), every random decision inside a cell flows from
that seed, and rows contain no wall-clock timestamps — so the same
document and seed produce byte-identical rows, and a failing cell can be
replayed from the seed printed in its row.
"""

from __future__ import annotations

from typing import Any

from ..core.overload import OverloadConfig
from ..obs.metrics_export import export_deployment
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import NormalUserWorkload, merge_workloads
from .crash import CrashEvent
from .deployment import ChaosDeployment
from .faults import FaultSpec, FloodSpec, flood_requests

__all__ = ["run_cell"]


def run_cell(
    spec: dict[str, Any], cell: dict[str, Any], *, seed: int
) -> dict[str, Any]:
    """Run one cell in a fresh deployment; returns its report row."""
    cell_seed = derive_seed(seed, f"cell:{cell['name']}")
    deployment_kwargs = dict(spec["deployment"])
    overload_kwargs = deployment_kwargs.pop("overload", None)
    if overload_kwargs is not None:
        deployment_kwargs["overload"] = OverloadConfig(**overload_kwargs)
    workload_kwargs = dict(spec["workload"])
    duration = float(workload_kwargs.pop("duration"))
    faults = FaultSpec(**cell["faults"])

    deployment = ChaosDeployment(
        seed=cell_seed, faults=faults, **deployment_kwargs
    )
    for crash in cell["crashes"]:
        deployment.schedule_crash(CrashEvent(**crash))
    workload = NormalUserWorkload(
        n_isps=deployment.network.n_isps,
        users_per_isp=deployment.network.users_per_isp,
        streams=SeededStreams(derive_seed(cell_seed, "chaos-workload")),
        **workload_kwargs,
    )
    requests = workload.generate(duration)
    floods = [FloodSpec(**flood) for flood in cell["floods"]]
    if floods:
        flood_streams = [
            flood_requests(
                flood,
                n_isps=deployment.network.n_isps,
                users_per_isp=deployment.network.users_per_isp,
                streams=SeededStreams(derive_seed(cell_seed, f"flood:{index}")),
                name=f"flood{index}",
            )
            for index, flood in enumerate(floods)
        ]
        requests = merge_workloads(requests, *flood_streams)
    converged = deployment.run(
        requests,
        until=duration,
        drain_window=float(spec["drain_window"]),
    )

    network = deployment.network
    stats = deployment.stats()
    # All counter reads go through the unified exporter, the same
    # metrics surface `repro run --report` carries.
    metrics = export_deployment(deployment).collect()
    conserved = network.total_value() == network.expected_total_value()
    first = deployment.monitor.first_violation
    first_overload = deployment.overload_monitor.first_violation
    passed = (
        converged
        and conserved
        and stats["violations"] == 0
        and stats["overload_violations"] == 0
        and stats["snapshot_failed"] == 0
    )
    return {
        "cell": cell["name"],
        "seed": cell_seed,
        "passed": passed,
        "converged": converged,
        "conserved": conserved,
        "delivered": metrics["zmail.deliver.delivered"],
        "first_violation": str(first) if first is not None else None,
        "first_overload_violation": (
            str(first_overload) if first_overload is not None else None
        ),
        "digest": deployment.digest(),
        **stats,
    }
