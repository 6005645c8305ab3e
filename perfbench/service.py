"""Run ``repro serve`` with span wrappers installed in the service process.

Usage (from the checkout root)::

    python3 perfbench/service.py REPORT.json serve --store S.db ...

Everything after the report path is passed to the ``repro`` command
line unchanged. When the command returns, the service's spans, counts
and commit samples are written to ``REPORT.json``. The untraced
workload starts ``python -m repro serve`` directly instead.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def install(log, patches, lags: list[float], counters: dict) -> None:
    """Spans for the event loop, the gateway and the store commit.

    ``lags`` receives, for every submitted message, the time from the
    end of its submission (its ``250`` reply follows at once) to the
    end of the barrier commit that made it durable. ``counters`` holds
    the network's counters as of the latest commit.
    """
    import repro.store
    import tracing
    from repro.smtp.gateway import ZmailGateway
    from repro.store.service import ZmailService

    tracing.install_core(log, patches)
    tracing.install_event_loop(log, patches, "smtp.session")
    patches.wrap(
        repro.store, "init_store",
        lambda fn: tracing.spanned(log, "store.init", fn),
    )
    submitted: list[float] = []

    def submit(fn):
        timed = tracing.spanned(log, "gateway.submit", fn)

        def submit_outbound(self, *args, **kwargs):
            status = timed(self, *args, **kwargs)
            submitted.append(time.monotonic())
            return status

        return submit_outbound

    def commit(fn):
        timed = tracing.spanned(log, "store.commit", fn, sample=True)

        def commit_service(self):
            written = timed(self)
            done = time.monotonic()
            lags.extend(done - t for t in submitted)
            submitted.clear()
            log.counts["store.commits"] += 1
            log.counts["store.records_written"] += written
            counters.update(self.network.metrics.snapshot()["counters"])
            return written

        return commit_service

    patches.wrap(ZmailGateway, "submit_outbound", submit)
    patches.wrap(ZmailService, "commit", commit)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from repro.cli import main as repro_main

    report_path, command = argv[0], argv[1:]
    log, patches, lags, counters = (
        tracing.SpanLog(), tracing.Patches(), [], {}
    )
    install(log, patches, lags, counters)
    log.begin(tracing.ROOT)
    try:
        code = repro_main(command)
    finally:
        log.finish(0)
        patches.undo()
    summary = log.summary()
    summary["samples"]["store.durable_lag"] = lags
    summary["counters"] = counters
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
