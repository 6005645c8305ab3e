"""Struct-of-arrays mirror of an all-compliant ``ZmailNetwork``.

:class:`ColumnarState` flattens every per-user purse and counter, every
per-ISP ledger scalar and delivery statistic, and the inter-ISP credit
arrays into numpy arrays indexed by the flat user gid
``isp * users_per_isp + user`` (or by ISP id). While a batch executes,
the arrays are the authoritative copy; :meth:`spill` writes every field
back into the object layer before any protocol-visible operation
(reconciliation cut, midnight rollover, final zombie poll) so
``ZmailNetwork``/``ISP``/ledger semantics remain the source of truth,
and :meth:`refresh` reloads the arrays afterwards to pick up whatever
the object layer changed (credit reset at a cut, ``sent_today`` reset
and pool rebalancing at midnight).

The credit matrix needs a companion boolean *touched* mask: the object
layer's credit dicts materialize a key on first use and keep it at zero
thereafter (``get + 1`` then ``- 1``), so reproducing the exact dict key
sets — which reconciliation reports and state digests observe — requires
remembering which pairs traded at all, not just the net credit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnarState"]


class ColumnarState:
    """Numpy mirror of users, ledgers, stats and credit for one network."""

    def __init__(self, network) -> None:
        self.network = network
        self.n_isps = network.n_isps
        self.users_per_isp = network.users_per_isp
        self.n_users = self.n_isps * self.users_per_isp
        n, k = self.n_users, self.n_isps
        # Per-user columns (gid-indexed).
        self.account = np.zeros(n, dtype=np.int64)
        self.balance = np.zeros(n, dtype=np.int64)
        self.daily_limit = np.zeros(n, dtype=np.int64)
        self.sent_today = np.zeros(n, dtype=np.int64)
        self.lifetime_sent = np.zeros(n, dtype=np.int64)
        self.lifetime_received = np.zeros(n, dtype=np.int64)
        self.lifetime_received_paid = np.zeros(n, dtype=np.int64)
        self.limit_warnings = np.zeros(n, dtype=np.int64)
        self.inbox = np.zeros(n, dtype=np.int64)
        self.limit_hits = np.zeros(n, dtype=np.int64)
        # Per-ISP columns.
        self.pool = np.zeros(k, dtype=np.int64)
        self.cash = np.zeros(k, dtype=np.int64)
        self.stats_sent_paid = np.zeros(k, dtype=np.int64)
        self.stats_delivered_local = np.zeros(k, dtype=np.int64)
        self.stats_received_paid = np.zeros(k, dtype=np.int64)
        self.stats_blocked_balance = np.zeros(k, dtype=np.int64)
        self.stats_blocked_limit = np.zeros(k, dtype=np.int64)
        # Inter-ISP credit: credit[a][b] lives at M[a, b]; touched marks
        # dict keys that exist (possibly at zero net credit).
        self.credit = np.zeros((k, k), dtype=np.int64)
        self.touched = np.zeros((k, k), dtype=bool)
        # Network-level metric deltas, applied to the counters at spill.
        self.metric_deltas: dict[str, int] = {}
        self.refresh()

    # -- object layer -> arrays ------------------------------------------------

    def refresh(self) -> None:
        """Reload every array from the object layer (boundaries are rare)."""
        upi = self.users_per_isp
        for isp_id, isp in self.network.compliant_isps().items():
            base = isp_id * upi
            ledger = isp.ledger
            for user in ledger.users():
                g = base + user.user_id
                self.account[g] = user.account
                self.balance[g] = user.balance
                self.daily_limit[g] = user.daily_limit
                self.sent_today[g] = user.sent_today
                self.lifetime_sent[g] = user.lifetime_sent
                self.lifetime_received[g] = user.lifetime_received
                self.lifetime_received_paid[g] = user.lifetime_received_paid
                self.limit_warnings[g] = user.limit_warnings
                self.inbox[g] = user.inbox
                self.limit_hits[g] = 0
            for user_id, hits in isp.limit_hits.items():
                self.limit_hits[base + user_id] = hits
            self.pool[isp_id] = ledger.pool
            self.cash[isp_id] = ledger.cash
            stats = isp.stats
            self.stats_sent_paid[isp_id] = stats.sent_paid
            self.stats_delivered_local[isp_id] = stats.delivered_local
            self.stats_received_paid[isp_id] = stats.received_paid
            self.stats_blocked_balance[isp_id] = stats.blocked_balance
            self.stats_blocked_limit[isp_id] = stats.blocked_limit
            self.credit[isp_id, :] = 0
            self.touched[isp_id, :] = False
            for peer, value in isp.credit.items():
                self.credit[isp_id, peer] = value
                self.touched[isp_id, peer] = True

    # -- arrays -> object layer ------------------------------------------------

    def spill(self) -> None:
        """Write the arrays back so the object layer is authoritative."""
        upi = self.users_per_isp
        for isp_id, isp in self.network.compliant_isps().items():
            base = isp_id * upi
            ledger = isp.ledger
            for user in ledger.users():
                g = base + user.user_id
                user.account = int(self.account[g])
                user.balance = int(self.balance[g])
                user.sent_today = int(self.sent_today[g])
                user.lifetime_sent = int(self.lifetime_sent[g])
                user.lifetime_received = int(self.lifetime_received[g])
                user.lifetime_received_paid = int(
                    self.lifetime_received_paid[g]
                )
                user.limit_warnings = int(self.limit_warnings[g])
                user.inbox = int(self.inbox[g])
            hits = self.limit_hits[base : base + upi]
            isp.limit_hits = {
                int(user_id): int(hits[user_id])
                for user_id in hits.nonzero()[0]
            }
            ledger.pool = int(self.pool[isp_id])
            ledger.cash = int(self.cash[isp_id])
            stats = isp.stats
            stats.sent_paid = int(self.stats_sent_paid[isp_id])
            stats.delivered_local = int(self.stats_delivered_local[isp_id])
            stats.received_paid = int(self.stats_received_paid[isp_id])
            stats.blocked_balance = int(self.stats_blocked_balance[isp_id])
            stats.blocked_limit = int(self.stats_blocked_limit[isp_id])
            isp.credit = {
                int(peer): int(self.credit[isp_id, peer])
                for peer in self.touched[isp_id].nonzero()[0]
            }
        counter = self.network.metrics.counter
        for name, delta in self.metric_deltas.items():
            if delta:
                counter(name).increment(delta)
        self.metric_deltas.clear()

    def bump_metric(self, name: str, delta: int) -> None:
        """Accumulate a network metric delta for the next spill."""
        if delta:
            self.metric_deltas[name] = self.metric_deltas.get(name, 0) + delta
