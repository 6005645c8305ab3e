"""The columnar batch executor: vectorized direct-mode scenario runs.

``run_columnar`` drives a :class:`~repro.core.scenario.Scenario` through
the same protocol decisions as the direct executor, but applies them as
masked numpy operations over :class:`~repro.columnar.state.ColumnarState`
instead of per-message method calls. Each time-sorted
:class:`~repro.columnar.plan.ChunkPlan` is cut at protocol boundaries
(reconciliation cuts, midnight rollovers) and each boundary-free
sub-batch is partitioned into three exact-equivalence classes:

* **blocked-limit**: messages whose sender is already at the daily limit
  when the sub-batch starts. Blocked sends never advance ``sent_today``,
  so the sender stays at the limit for the whole sub-batch and every one
  of its messages blocks — pure counter arithmetic, applied with
  ``bincount``.
* **safe**: the sender starts with ``balance >= its send count`` and
  ``sent_today + count <= limit``, and the recipient is not *contended*
  (below). Every interleaving of such sends succeeds with the same
  per-message outcome, and all mutations are additive (debits, credits,
  counters, the antisymmetric credit matrix), so the whole class is
  order-independent and applied as scatter-adds.
* **contended residual**: everything else — senders that may run out of
  balance or hit the limit mid-batch (where auto top-up draws on the
  shared pool, and outcomes depend on interleaving), plus safe-sender
  messages whose *recipient* is contended (its incoming credits must
  land between its own sends in true order). Solved in arrival-order
  windows: each window's outcomes are the unique fixed point of the
  send rule, found with vectorised rounds (a per-sender closed form
  plus credits from the last round's outcomes), and committed with
  scatter-adds before the next window starts. A window that needs more
  than ``ROUND_CAP`` rounds is replayed one message at a time.

Correctness rests on the classes being exact, not heuristic: the safe
class provably cannot interact with the residual's outcomes, so
vector-then-scalar application is equivalent to the fully ordered run.
The cross-mode tests and the macro benchmark assert the resulting
accounting digests are byte-identical to direct mode at every
reconciliation cut.

With a tracer enabled, a per-sub-batch emission pass replays the
``topup``/``send``/``deliver`` events in original message order with the
direct-mode clock, so even the *ordered* event stream matches direct
mode byte for byte (asserted in tests); tracing changes no outcome.
"""

from __future__ import annotations

import numpy as np

from ..core.isp import CompliantISP
from ..errors import SimulationError
from ..obs.manifest import accounting_digest
from ..sim.clock import DAY
from ..sim.rng import SeededStreams
from .plan import KIND_ORDER, merge_column_streams
from .state import ColumnarState

__all__ = ["run_columnar"]

# Per-message outcome codes (uint8), indexing _STATUS_VALUES.
_DELIVERED_LOCAL = 0
_SENT_PAID = 1
_BLOCKED_BALANCE = 2
_BLOCKED_LIMIT = 3
_STATUS_VALUES = (
    "delivered_local",
    "sent_paid",
    "blocked_balance",
    "blocked_limit",
)
_KIND_VALUES = tuple(kind.value for kind in KIND_ORDER)
# A residual's metric counts, one int64 vector: statuses, send kinds,
# delivered kinds, then the top-up count and the e-pennies bought.
_N_KINDS = len(_KIND_VALUES)
_SENDS = slice(4, 4 + _N_KINDS)
_DELIVERS = slice(4 + _N_KINDS, 4 + 2 * _N_KINDS)
_N_COUNTS = 4 + 2 * _N_KINDS + 2

#: Contended rows solved together; each window commits before the next.
WINDOW = 2048
#: Fixed-point rounds a window may take before it is replayed per message.
ROUND_CAP = 64


def run_columnar(scenario):
    """Execute ``scenario`` with the columnar batch executor."""
    network, monitor = scenario._deploy()
    if any(
        not isinstance(isp, CompliantISP) for isp in network.isps.values()
    ):
        raise SimulationError(
            "columnar mode requires an all-compliant deployment"
        )
    streams = SeededStreams(scenario.seed)
    chunks = merge_column_streams(scenario.workload_column_streams(streams))

    state = ColumnarState(network)
    tracer = network.tracer
    period = scenario.reconcile_every
    next_reconcile = period if period > 0 else None
    reconciliations = []
    cut_digests = []
    attempted = 0

    def boundary_reconcile():
        nonlocal next_reconcile
        state.spill()
        reconciliations.append(network.reconcile("direct"))
        cut_digests.append(accounting_digest(network))
        state.refresh()
        next_reconcile += period

    with network.spans.span("workload.batch"):
        for chunk in chunks:
            times = chunk.times
            pos, n = 0, len(times)
            while pos < n:
                t_pos = float(times[pos])
                # A message may jump several boundaries: take each round.
                while next_reconcile is not None and t_pos >= next_reconcile:
                    boundary_reconcile()
                if int(t_pos // DAY) > network._last_day_seen:
                    state.spill()
                    network.note_time(t_pos)
                    state.refresh()
                limit_t = np.inf if next_reconcile is None else next_reconcile
                next_midnight = (network._last_day_seen + 1) * DAY
                if next_midnight < limit_t:
                    limit_t = next_midnight
                end = pos + 1 + int(
                    np.searchsorted(times[pos + 1 :], limit_t, side="left")
                )
                _execute_batch(network, state, tracer, chunk, pos, end)
                attempted += end - pos
                pos = end

    # Boundaries after the last message, then the closing round.
    while next_reconcile is not None and next_reconcile < scenario.duration:
        boundary_reconcile()
    state.spill()
    network.note_time(scenario.duration)
    reconciliations.append(network.reconcile("direct"))
    cut_digests.append(accounting_digest(network))
    monitor.poll()
    result = scenario._collect(network, monitor, attempted, reconciliations)
    result.cut_digests = cut_digests
    return result


def _execute_batch(network, state, tracer, chunk, pos, end):
    """Apply one boundary-free sub-batch to the arrays."""
    senders = chunk.senders[pos:end]
    recipients = chunk.recipients[pos:end]
    kinds = chunk.kinds[pos:end]
    n_users = state.n_users
    upi = state.users_per_isp

    # -- classification (all decisions from sub-batch start state) ----------
    send_count = np.bincount(senders, minlength=n_users)
    at_limit = state.sent_today >= state.daily_limit
    contended = (
        ~at_limit
        & (send_count > 0)
        & (
            (state.balance < send_count)
            | (state.sent_today + send_count > state.daily_limit)
        )
    )
    msg_at_limit = at_limit[senders]
    msg_scalar = ~msg_at_limit & (contended[senders] | contended[recipients])
    msg_safe = ~msg_at_limit & ~msg_scalar

    traced = tracer.enabled
    status = np.empty(end - pos, dtype=np.uint8) if traced else None
    topups = None

    # -- blocked-limit class: counters only ---------------------------------
    if msg_at_limit.any():
        lim_senders = senders[msg_at_limit]
        per_user = np.bincount(lim_senders, minlength=n_users)
        state.limit_warnings += per_user
        state.limit_hits += per_user
        state.stats_blocked_limit += np.bincount(
            lim_senders // upi, minlength=state.n_isps
        )
        state.bump_metric("send.blocked_limit", int(len(lim_senders)))
        _bump_kind_metrics(state, "send.kind.", kinds[msg_at_limit])
        if traced:
            status[msg_at_limit] = _BLOCKED_LIMIT

    # -- safe class: scatter-applied debits/credits -------------------------
    if msg_safe.any():
        remote = _book_sends(state, senders[msg_safe], recipients[msg_safe])
        n_remote = int(remote.sum())
        safe_kinds = kinds[msg_safe]
        if n_remote:
            state.bump_metric("deliver.delivered", n_remote)
            _bump_kind_metrics(state, "deliver.kind.", safe_kinds[remote])
        state.bump_metric("send.delivered_local", len(remote) - n_remote)
        state.bump_metric("send.sent_paid", n_remote)
        _bump_kind_metrics(state, "send.kind.", safe_kinds)
        if traced:
            status[msg_safe] = np.where(remote, _SENT_PAID, _DELIVERED_LOCAL)

    # -- contended residual: solved window by window in arrival order -------
    if msg_scalar.any():
        topups = _solve_residual(
            network, state, senders, recipients, kinds, msg_scalar, status,
        )

    if traced:
        _emit_batch(network, tracer, chunk, pos, end, status, topups, upi)


def _solve_residual(network, state, senders, recipients, kinds, mask, status):
    """Apply the contended rows in ``mask`` with the exact sequential outcome.

    The rows are taken in arrival-order windows of ``WINDOW``; each window
    is solved by :func:`_solve_window` and committed before the next
    starts, so outcomes stay causal. A window that needs more than
    ``ROUND_CAP`` rounds is replayed by :func:`_replay` instead. Metrics
    are bumped once, in :func:`_run_scalar`'s order. Returns the per-row
    top-up amounts when traced, else ``None``.
    """
    counts = np.zeros(_N_COUNTS, dtype=np.int64)
    topups = None if status is None else np.zeros(len(senders), np.int64)
    rows = mask.nonzero()[0]
    for start in range(0, len(rows), WINDOW):
        window = rows[start : start + WINDOW]
        solved = _solve_window(network, state, senders, recipients, window)
        if solved is None:
            _replay(
                network, state, senders, recipients, kinds, window, status,
                topups, counts,
            )
        else:
            _commit_window(
                state, senders, recipients, kinds, window, solved, status,
                topups, counts,
            )
    _bump_residual(state, counts)
    return topups


def _solve_window(network, state, senders, recipients, window):
    """Solve one window's outcomes as the fixed point of the send rule.

    Send ``t`` of a sender with limit room ``R`` succeeds iff its count of
    earlier successes ``c_t`` is below ``a_t = min(R, balance0 + incoming
    credits before t + own top-ups through t)``. ``a`` never decreases
    along a sender's rows, so ``c_t = min(t, t - 1 + min_{i<t}(max(0, a_i)
    - i))`` in closed form. Only the incoming credits couple senders:
    each round takes them from the last round's outcomes, and since a row
    depends only on earlier rows the iteration reaches the unique fixed
    point, the sequential outcome.

    Auto top-ups are credits on their own rows. After each convergence
    every row's top-up is checked against the replay's rule (under the
    limit with an empty purse, buy ``min(auto_topup, account left, pool
    left)``), given the rows before it. Each sender's first row that
    disagrees takes the amount due, its later top-ups are guessed as if
    its later sends all succeed, and the fixed point is re-solved. The
    first disagreeing row in arrival order is final once fixed, since
    the rows before it are, so the loop ends, exact, when none disagree.

    Returns ``(order, success, limit_blocked, topup)`` with the last three
    in ``order`` (rows stably sorted by sender), or ``None`` when the
    window needs more than ``ROUND_CAP`` rounds or holds a negative
    starting balance, which the closed form does not cover.
    """
    sent_by = senders[window]
    m = len(window)
    order = np.argsort(sent_by, kind="stable")
    sorted_senders = sent_by[order]
    new_user = np.empty(m, dtype=bool)
    new_user[0] = True
    np.not_equal(sorted_senders[1:], sorted_senders[:-1], out=new_user[1:])
    starts = np.flatnonzero(new_user)
    seg = np.cumsum(new_user) - 1
    users = sorted_senders[starts]
    balance0 = state.balance[users]
    if balance0.min() < 0:
        return None
    rank = np.arange(m) - starts[seg]
    room = (state.daily_limit[users] - state.sent_today[users])[seg]
    base = balance0[seg]
    # Stacking each sender's terms (which lie in [-m, 1]) below all
    # earlier senders' keeps one minimum.accumulate within a sender.
    offset = seg * (m + 2)
    rank_off = rank + offset
    cap = 1 - offset

    # Credit events: rows whose recipient sends in this window, ordered
    # by (recipient, row) with a recipient's own row before a credit at
    # that same row. The credits before an own row are one contiguous
    # run of that order, between ``run_start`` and ``credits_before``.
    recv_by = recipients[window]
    hit = np.searchsorted(users, recv_by).clip(max=len(users) - 1)
    credit_rows = np.flatnonzero(users[hit] == recv_by)
    event_user = np.concatenate((seg, hit[credit_rows]))
    event_key = np.concatenate((2 * order, 2 * credit_rows + 1))
    events = np.lexsort((event_key, event_user))
    is_own = events < m
    credits_before = np.flatnonzero(is_own) - np.arange(m)
    first_event = np.searchsorted(event_user[events], np.arange(len(users)))
    run_start = (first_event - starts)[seg]
    rank_of_row = np.empty(m, dtype=np.int64)
    rank_of_row[order] = np.arange(m)
    credit_src = rank_of_row[credit_rows[events[~is_own] - m]]
    credit_cum = np.zeros(len(credit_rows) + 1, dtype=np.int64)

    auto_topup = network.config.auto_topup_amount
    account = state.account[users][seg]
    isp = (users // state.users_per_isp)[seg]
    pool = state.pool[isp]
    # Rows of one ISP in arrival order, to sum the pool drawn before each.
    pool_key = isp * m + order
    topup = np.zeros(m, dtype=np.int64)
    supply = base
    success = np.empty(m, dtype=bool)
    # Outcomes of the credit-giving rows, from the last round: "all
    # succeed" to start. A round whose outcomes give back the credits it
    # was handed has reached the fixed point.
    credited = np.ones(len(credit_rows), dtype=bool)
    rounds = 0
    while True:
        while True:
            rounds += 1
            if rounds > ROUND_CAP:
                return None
            np.cumsum(credited, out=credit_cum[1:])
            incoming = credit_cum[credits_before] - credit_cum[run_start]
            reach = np.minimum(room, supply + incoming)
            # Successes through row t: t + min(1, min_{i<=t}(max(0, a_i) - i)).
            through = np.minimum(np.maximum(reach, 0) - rank_off, cap)
            through = np.minimum.accumulate(through) + rank_off
            np.greater(through[1:], through[:-1], out=success[1:])
            success[starts] = through[starts] > 0
            now = success[credit_src]
            if np.array_equal(now, credited):
                break
            credited = now
        done = through - success
        if auto_topup <= 0:
            break
        # The top-up each row is due by the replay's rule, given the rows
        # before it: under the limit with an empty purse, it buys
        # min(auto_topup, account left, pool left) if that is positive.
        bought = supply - base - topup
        purse = supply - topup + incoming - done
        sold = np.flatnonzero(topup)
        sold = sold[np.argsort(pool_key[sold])]
        sold_key = pool_key[sold]
        sold_cum = np.concatenate(([0], np.cumsum(topup[sold])))
        pool_left = pool - (
            sold_cum[np.searchsorted(sold_key, pool_key)]
            - sold_cum[np.searchsorted(sold_key, isp * m)]
        )
        due = np.minimum(np.minimum(account - bought, pool_left), auto_topup)
        due = np.where((done < room) & (purse < 1), np.maximum(due, 0), 0)
        wrong = np.flatnonzero(due != topup)
        if not len(wrong):
            break
        # Each sender's first wrong row takes the top-up due there. The
        # first of them in arrival order is then final, as the rows before
        # it are. Each such sender's later top-ups are guessed as if all
        # its later sends succeed: one whenever its purse runs dry. A wrong
        # guess only costs another pass.
        firsts = wrong[np.flatnonzero(np.diff(seg[wrong], prepend=-1))]
        topup[firsts] = due[firsts]
        chosen = np.full(len(users), m)
        chosen[seg[firsts]] = firsts
        later = np.flatnonzero(np.arange(m) > chosen[seg])
        at = chosen[seg[later]]
        sends = (done < room) & ((purse >= 1) | (due > 0))
        sent = done[at] + sends[at] + rank[later] - rank[at] - 1
        short = np.where(
            sent < room[later],
            sent + 1 - (base[later] + incoming[later] + bought[at] + due[at]),
            0,
        )
        # Per sender, the most it has been short so far (in [0, m]).
        run = seg[later] * (m + 1)
        short = np.maximum.accumulate(np.maximum(short, 0) + run) - run
        left = np.minimum(account - bought, pool_left) - due
        total = np.minimum(
            -(-short // auto_topup) * auto_topup, np.maximum(left[at], 0)
        )
        step = np.diff(total, prepend=0)
        new_run = np.diff(seg[later], prepend=-1) != 0
        step[new_run] = total[new_run]
        topup[later] = step
        spent = np.cumsum(topup)
        supply = base + spent - (spent - topup)[starts][seg]
    return order, success, ~success & (done >= room), topup


def _commit_window(
    state, senders, recipients, kinds, window, solved, status, topups, counts
):
    """Apply one solved window with scatter-adds."""
    order, success, limit_blocked, topup = solved
    rows = window[order]
    src = senders[rows]
    src_isp = src // state.users_per_isp
    row_kinds = kinds[rows]
    counts[_SENDS] += np.bincount(row_kinds, minlength=_N_KINDS)

    blocked = src[limit_blocked]
    np.add.at(state.limit_warnings, blocked, 1)
    np.add.at(state.limit_hits, blocked, 1)
    np.add.at(state.stats_blocked_limit, src_isp[limit_blocked], 1)
    # A top-up row books a balance block before its retried send.
    bought = topup > 0
    np.add.at(
        state.stats_blocked_balance,
        src_isp[(~success & ~limit_blocked) | bought],
        1,
    )
    buyers, amounts, isps = src[bought], topup[bought], src_isp[bought]
    np.add.at(state.account, buyers, -amounts)
    np.add.at(state.balance, buyers, amounts)
    np.add.at(state.cash, isps, amounts)
    np.add.at(state.pool, isps, -amounts)
    counts[-2] += len(amounts)
    counts[-1] += amounts.sum()
    if topups is not None:
        topups[rows[bought]] = amounts

    remote = _book_sends(state, src[success], recipients[rows[success]])
    counts[_DELIVERS] += np.bincount(
        row_kinds[success][remote], minlength=_N_KINDS
    )

    outcome = np.full(len(rows), _BLOCKED_BALANCE, dtype=np.uint8)
    outcome[limit_blocked] = _BLOCKED_LIMIT
    outcome[success] = np.where(remote, _SENT_PAID, _DELIVERED_LOCAL)
    counts[:4] += np.bincount(outcome, minlength=4)
    if status is not None:
        status[rows] = outcome


def _book_sends(state, src, dst):
    """Book the successful sends ``src[i] -> dst[i]`` as scatter-adds.

    Debits and counts each sender, credits each recipient, and books the
    ISP delivery stats and the antisymmetric credit matrix. Returns the
    mask of remote (paid) sends.
    """
    n_users, n_isps, upi = state.n_users, state.n_isps, state.users_per_isp
    sent = np.bincount(src, minlength=n_users)
    received = np.bincount(dst, minlength=n_users)
    state.balance += received
    state.balance -= sent
    state.sent_today += sent
    state.lifetime_sent += sent
    state.lifetime_received += received
    state.lifetime_received_paid += received
    state.inbox += received
    src_isp = src // upi
    dst_isp = dst // upi
    remote = src_isp != dst_isp
    state.stats_delivered_local += np.bincount(
        src_isp[~remote], minlength=n_isps
    )
    remote_src = src_isp[remote]
    remote_dst = dst_isp[remote]
    state.stats_sent_paid += np.bincount(remote_src, minlength=n_isps)
    state.stats_received_paid += np.bincount(remote_dst, minlength=n_isps)
    pair_counts = np.bincount(
        remote_src * n_isps + remote_dst, minlength=n_isps * n_isps
    ).reshape(n_isps, n_isps)
    state.credit += pair_counts
    state.credit -= pair_counts.T
    traded = pair_counts > 0
    state.touched |= traded
    state.touched |= traded.T
    return remote


def _run_scalar(network, state, senders, recipients, kinds, mask, status):
    """Replay every contended row in ``mask`` one message at a time.

    The per-message oracle for :func:`_solve_residual`: same arguments,
    same effect on ``state`` and ``status``, same return value.
    """
    counts = np.zeros(_N_COUNTS, dtype=np.int64)
    topups = None if status is None else np.zeros(len(senders), np.int64)
    _replay(
        network, state, senders, recipients, kinds, mask.nonzero()[0],
        status, topups, counts,
    )
    _bump_residual(state, counts)
    return topups


def _replay(
    network, state, senders, recipients, kinds, rows, status, topups, counts
):
    """Apply ``rows`` one message at a time, in order, against the arrays.

    Mirrors ``CompliantISP._submit_now`` + ``ZmailNetwork``'s auto top-up
    retry exactly, including the ISP-stats double count: a transient
    balance block books ``stats.blocked_balance`` *and* the retried
    outcome, while network metrics only see the final status.
    """
    upi = state.users_per_isp
    auto_topup = network.config.auto_topup_amount
    balance = state.balance
    account = state.account
    sent_today = state.sent_today
    daily_limit = state.daily_limit
    status_counts = [0, 0, 0, 0]
    kind_counts = [0] * _N_KINDS
    deliver_kind_counts = [0] * _N_KINDS
    topup_count = 0
    topup_epennies = 0

    for row, s, r, k in zip(
        rows.tolist(),
        senders[rows].tolist(),
        recipients[rows].tolist(),
        kinds[rows].tolist(),
    ):
        isp_s = s // upi
        if sent_today[s] >= daily_limit[s]:
            state.limit_warnings[s] += 1
            state.stats_blocked_limit[isp_s] += 1
            state.limit_hits[s] += 1
            outcome = _BLOCKED_LIMIT
        else:
            blocked = False
            if balance[s] < 1:
                state.stats_blocked_balance[isp_s] += 1
                amount = 0
                if auto_topup > 0:
                    amount = min(auto_topup, account[s], state.pool[isp_s])
                if amount > 0:
                    account[s] -= amount
                    state.cash[isp_s] += amount
                    balance[s] += amount
                    state.pool[isp_s] -= amount
                    topup_count += 1
                    topup_epennies += int(amount)
                    if topups is not None:
                        topups[row] = amount
                else:
                    blocked = True
                    outcome = _BLOCKED_BALANCE
            if not blocked:
                balance[s] -= 1
                sent_today[s] += 1
                state.lifetime_sent[s] += 1
                balance[r] += 1
                state.lifetime_received[r] += 1
                state.lifetime_received_paid[r] += 1
                state.inbox[r] += 1
                isp_r = r // upi
                if isp_s == isp_r:
                    state.stats_delivered_local[isp_s] += 1
                    outcome = _DELIVERED_LOCAL
                else:
                    state.stats_sent_paid[isp_s] += 1
                    state.stats_received_paid[isp_r] += 1
                    state.credit[isp_s, isp_r] += 1
                    state.credit[isp_r, isp_s] -= 1
                    state.touched[isp_s, isp_r] = True
                    state.touched[isp_r, isp_s] = True
                    deliver_kind_counts[k] += 1
                    outcome = _SENT_PAID
        status_counts[outcome] += 1
        kind_counts[k] += 1
        if status is not None:
            status[row] = outcome

    counts += status_counts + kind_counts + deliver_kind_counts + [
        topup_count, topup_epennies,
    ]


def _bump_residual(state, counts):
    """Book the residual's metric deltas in the per-message replay's order."""
    counts = counts.tolist()
    for code, count in enumerate(counts[:4]):
        state.bump_metric(f"send.{_STATUS_VALUES[code]}", count)
    for code, count in enumerate(counts[_SENDS]):
        state.bump_metric(f"send.kind.{_KIND_VALUES[code]}", count)
    state.bump_metric("deliver.delivered", counts[_SENT_PAID])
    for code, count in enumerate(counts[_DELIVERS]):
        state.bump_metric(f"deliver.kind.{_KIND_VALUES[code]}", count)
    state.bump_metric("topup.count", counts[-2])
    state.bump_metric("topup.epennies", counts[-1])


def _bump_kind_metrics(state, prefix, kind_codes):
    counts = np.bincount(kind_codes, minlength=_N_KINDS)
    for code, count in enumerate(counts.tolist()):
        if count:
            state.bump_metric(f"{prefix}{_KIND_VALUES[code]}", count)


def _emit_batch(network, tracer, chunk, pos, end, status, topups, upi):
    """Traced runs: replay the sub-batch's events in original order."""
    emit = tracer.emit
    addresses = _address_strings(network)
    times = chunk.times[pos:end].tolist()
    senders = chunk.senders[pos:end].tolist()
    recipients = chunk.recipients[pos:end].tolist()
    kinds = chunk.kinds[pos:end].tolist()
    amounts = topups.tolist() if topups is not None else [0] * len(times)
    for index, (t, s, r, k) in enumerate(
        zip(times, senders, recipients, kinds)
    ):
        network._direct_now = t
        if amounts[index]:
            emit("topup", isp=s // upi, user=s % upi, amount=amounts[index])
        outcome = int(status[index])
        kind_value = _KIND_VALUES[k]
        emit(
            "send",
            src=addresses[s],
            dst=addresses[r],
            kind=kind_value,
            status=_STATUS_VALUES[outcome],
        )
        if outcome == _SENT_PAID:
            emit(
                "deliver",
                src=addresses[s],
                dst=addresses[r],
                kind=kind_value,
                ok=True,
            )


def _address_strings(network):
    cache = getattr(network, "_columnar_addresses", None)
    if cache is None:
        upi = network.users_per_isp
        cache = [
            f"user{g % upi}@isp{g // upi}"
            for g in range(network.n_isps * upi)
        ]
        network._columnar_addresses = cache
    return cache
