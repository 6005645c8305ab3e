"""The match engine: one attacker vs. one defender on a live deployment.

A match runs a schema-v2 strategies-document on the direct reference
path, one period per virtual day. Each period, in a fixed order:

1. the **defender** observes last period's ISP-side signals and sets
   knobs (daily limits on ordinary users, the e-penny price multiplier,
   POW difficulty, bulk class price/cap);
2. the **attacker** observes the published knobs and its own last
   outcome and returns an :class:`~repro.arena.interface.AttackAction`;
3. the engine applies the action's market moves (machine rentals,
   account enlistments, e-penny purchases — dollars out, conservation-
   tracked grants in), drives the day's slice of the world's legitimate
   workload through the network in time order, then fires the salvos;
4. midnight work runs (§4.1 resets, pool rebalancing), a §4.4
   reconciliation round verifies the books, the zombie monitor sweeps
   warning logs, conversions are drawn, and the period's economics and
   invariants are recorded.

Every random draw comes from a stream derived from the match seed via
:func:`~repro.sim.rng.derive_seed`, so a match is a pure function of
``(document, seed)`` — byte-reproducible, which the tournament report
digest and the CI ``cmp`` smoke both rely on.

Modeling note: the operator's hub sends under a commercial bulk
account — an effectively unlimited §4.1 quota. The daily limit is the
paper's *zombie* lever (bounding what a compromised machine can burn);
the per-message price is the lever against the operator itself. Giving
the hub a quota would let a defender kill paid bulk mail for free,
which only looks like a win because this world has no legitimate bulk
senders to hurt. Defender limit tuning therefore applies to every
ordinary user but not the hub.

Dollar accounting charges the hub's e-penny *spend* at market price
(prepaid pennies — explicit purchases, washed arrivals — excepted):
world documents endow every purse with slack balance so lowered worlds
stay cluster-comparable, and without spend-charging that endowment
would be free spamming money. Pennies spent from rented machines and
enlisted accounts are the *owners'* money — the attacker pays rent and
acquisition instead, which is the paper's theft-of-service economics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..core.transfer import SendStatus
from ..errors import SimulationError
from ..obs.manifest import accounting_digest
from ..sim.clock import DAY
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import Address, TrafficKind, merge_workloads
from .interface import (
    ROUTE_BULK,
    ROUTE_PAID,
    ROUTE_POW,
    AttackerView,
    AttackOutcome,
    DefenderView,
    DefenseSignals,
    Knobs,
    Market,
    make_attacker,
    make_defender,
)

__all__ = ["PeriodRecord", "MatchResult", "run_match"]

_DELIVERED = (
    SendStatus.SENT_PAID,
    SendStatus.DELIVERED_LOCAL,
    SendStatus.SENT_UNPAID,
)

#: The hub's commercial bulk quota (see module docstring).
HUB_DAILY_LIMIT = 10**9

_KIND = {"spam": TrafficKind.SPAM, "zombie": TrafficKind.ZOMBIE}


@dataclass(frozen=True)
class PeriodRecord:
    """One period's economics, traffic and invariant outcomes."""

    period: int
    volume_planned: int
    attempted: int
    delivered_paid: int
    delivered_pow: int
    delivered_bulk: int
    delivered_wash: int
    blocked: int
    conversions: int
    revenue: float
    cost: float
    profit: float
    #: Deterministic expectation (delivered × rate × revenue − cost):
    #: realized profit carries lucky-conversion variance at low volume,
    #: so the phase extraction classifies markets on expectation.
    expected_revenue: float
    expected_profit: float
    fleet_size: int
    machines_lost: int
    accounts_enlisted: int
    legit_attempted: int
    legit_delivered: int
    spam_inbox: int
    bulk_folder: int
    goodput: float
    spam_share: float
    detections: int
    daily_limit: int
    price_multiplier: float
    pow_seconds: float | None
    bulk_price_dollars: float | None
    bulk_cap: int
    conserved: bool
    consistent: bool

    def to_row(self) -> dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class MatchResult:
    """Everything one tournament cell produced."""

    attacker: str
    defender: str
    scenario_digest: str
    seed: int
    periods: list[PeriodRecord]
    #: Victim-directed ledger traffic, per period, for lowering:
    #: ``(period, kind, isp, user, volume)`` tuples.
    schedule: list[tuple[int, str, int, int, int]]
    accounting_digest: str

    @property
    def profit(self) -> float:
        return sum(p.profit for p in self.periods)

    @property
    def expected_profit(self) -> float:
        return sum(p.expected_profit for p in self.periods)

    @property
    def goodput(self) -> float:
        attempted = sum(p.legit_attempted for p in self.periods)
        if attempted == 0:
            return 1.0
        return sum(p.legit_delivered for p in self.periods) / attempted

    @property
    def spam_share(self) -> float:
        spam = sum(p.spam_inbox for p in self.periods)
        total = spam + sum(p.legit_delivered for p in self.periods)
        return spam / total if total else 0.0

    @property
    def final_volume(self) -> int:
        return self.periods[-1].volume_planned if self.periods else 0

    @property
    def collapsed(self) -> bool:
        """Whether the market drove the campaign to (near) zero volume."""
        return self.final_volume < 10

    @property
    def conserved(self) -> bool:
        return all(p.conserved for p in self.periods)

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.periods)

    def to_row(self) -> dict[str, Any]:
        """A flat, JSON-stable summary row (no per-period detail)."""
        return {
            "attacker": self.attacker,
            "defender": self.defender,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "periods": len(self.periods),
            "profit": self.profit,
            "expected_profit": self.expected_profit,
            "goodput": self.goodput,
            "spam_share": self.spam_share,
            "final_volume": self.final_volume,
            "collapsed": self.collapsed,
            "conserved": self.conserved,
            "consistent": self.consistent,
            "delivered_victims": sum(
                p.delivered_paid + p.delivered_pow + p.delivered_bulk
                for p in self.periods
            ),
            "machines_lost": sum(p.machines_lost for p in self.periods),
            "accounting_digest": self.accounting_digest,
        }


def _base_doc(doc: dict[str, Any]) -> dict[str, Any]:
    """The document with its strategies term stripped (legit background)."""
    import copy

    base = copy.deepcopy(doc)
    base["strategies"] = None
    return base


class _Engine:
    """Mutable match state; :func:`run_match` drives it period by period."""

    def __init__(self, doc: dict[str, Any], seed: int, tracer) -> None:
        from ..scenario.compiler import compile_scenario

        strategies = doc.get("strategies")
        if strategies is None:
            raise SimulationError(
                "arena match needs a document with a strategies term"
            )
        self.doc = doc
        self.strategies = strategies
        self.seed = seed
        self.market = Market.from_doc(strategies["market"])
        plan = compile_scenario(_base_doc(doc))
        self.scenario = plan.scenario("direct")
        self.scenario.tracer = tracer
        self.network, self.monitor = self.scenario._deploy()
        self.tracer = self.network.tracer
        self.requests = merge_workloads(
            *self.scenario.workload_streams(SeededStreams(self.scenario.seed))
        )
        self.pending = None  # one-request lookahead into self.requests

        topo = doc["topology"]
        self.n_isps = topo["n_isps"]
        self.users_per_isp = topo["users_per_isp"]
        attacker_spec = strategies["attacker"]
        defender_spec = strategies["defender"]
        self.hub = Address(attacker_spec["isp"], attacker_spec["user"])
        self.default_daily_limit = doc["economics"]["default_daily_limit"]
        hub_isp = self.network.isps[self.hub.isp]
        if hasattr(hub_isp, "ledger"):
            hub_isp.ledger.user(self.hub.user).daily_limit = HUB_DAILY_LIMIT

        self.rng_attacker = random.Random(derive_seed(seed, "arena:attacker"))
        self.rng_defender = random.Random(derive_seed(seed, "arena:defender"))
        self.rng_targets = random.Random(derive_seed(seed, "arena:targets"))
        self.rng_convert = random.Random(derive_seed(seed, "arena:convert"))
        rng_pool = random.Random(derive_seed(seed, "arena:pool"))

        params = dict(attacker_spec["params"])
        params["hub"] = (self.hub.isp, self.hub.user)
        self.attacker = make_attacker(
            attacker_spec["name"], params, self.rng_attacker
        )
        self.defender = make_defender(
            defender_spec["name"], defender_spec["params"], self.rng_defender
        )

        self.knobs = Knobs(daily_limit=self.default_daily_limit)
        #: Hub pennies already paid for in dollars (explicit purchases,
        #: washed arrivals — those were bought via account acquisition).
        #: Any hub spend beyond this is charged at market price when it
        #: happens: the world endows every purse with slack balance for
        #: executor comparability, and without spend-charging that float
        #: would be free spamming money.
        self.hub_prepaid = 0
        self.controlled = {self.hub}
        self.fleet: list[Address] = []
        self.pool = [
            Address(isp_id, user)
            for isp_id in sorted(self.network.compliant_isps())
            for user in range(self.users_per_isp)
            if Address(isp_id, user) != self.hub
        ]
        rng_pool.shuffle(self.pool)
        self.victims = self._victims()
        self.last_outcome: AttackOutcome | None = None
        self.last_signals: DefenseSignals | None = None
        self.records: list[PeriodRecord] = []
        self.schedule: list[tuple[int, str, int, int, int]] = []

    # -- helpers --------------------------------------------------------------

    def _victims(self) -> list[Address]:
        return [
            Address(isp, user)
            for isp in range(self.n_isps)
            for user in range(self.users_per_isp)
            if Address(isp, user) not in self.controlled
        ]

    def balance(self, address: Address) -> int:
        isp = self.network.isps[address.isp]
        if not hasattr(isp, "ledger"):
            return 0
        return isp.ledger.user(address.user).balance

    def _apply_defense(self, action) -> None:
        knobs = self.knobs
        limit = knobs.daily_limit
        if action.daily_limit is not None and action.daily_limit != limit:
            limit = action.daily_limit
            for isp_id, isp in self.network.compliant_isps().items():
                for user in isp.ledger.users():
                    if Address(isp_id, user.user_id) == self.hub:
                        continue
                    user.daily_limit = limit
        self.knobs = Knobs(
            daily_limit=limit,
            price_multiplier=(
                knobs.price_multiplier
                if action.price_multiplier is None
                else action.price_multiplier
            ),
            pow_seconds=(
                knobs.pow_seconds
                if action.pow_seconds is None
                else action.pow_seconds
            ),
            bulk_price_dollars=(
                knobs.bulk_price_dollars
                if action.bulk_price_dollars is None
                else action.bulk_price_dollars
            ),
            bulk_cap=(
                knobs.bulk_cap if action.bulk_cap is None else action.bulk_cap
            ),
        )

    def _drive_legit(self, end: float) -> tuple[int, int, int]:
        """Drive background requests with time < ``end``; returns
        (legit_attempted, legit_delivered, background_spam_delivered)."""
        attempted = delivered = spam = 0
        network = self.network
        while True:
            request = self.pending
            self.pending = None
            if request is None:
                request = next(self.requests, None)
                if request is None:
                    break
            if request.time >= end:
                self.pending = request
                break
            network.note_time(request.time)
            receipt = network.send(
                request.sender, request.recipient, request.kind
            )
            ok = receipt.status in _DELIVERED
            if request.kind is TrafficKind.NORMAL:
                attempted += 1
                delivered += 1 if ok else 0
            elif ok:
                spam += 1
        return attempted, delivered, spam

    def _conversions(self, delivered: int, rate: float) -> int:
        if rate <= 0.0 or delivered <= 0:
            return 0
        rng = self.rng_convert
        return sum(1 for _ in range(delivered) if rng.random() < rate)

    # -- one period -----------------------------------------------------------

    def run_period(self, period: int) -> PeriodRecord:
        market, network = self.market, self.network
        self._apply_defense(
            self.defender.act(
                DefenderView(
                    period=period,
                    market=market,
                    knobs=self.knobs,
                    default_daily_limit=self.default_daily_limit,
                    last=self.last_signals,
                )
            )
        )
        action = self.attacker.plan(
            AttackerView(
                period=period,
                market=market,
                knobs=self.knobs,
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                fleet=tuple(self.fleet),
                pool_remaining=len(self.pool),
                last=self.last_outcome,
                balance=self.balance,
            )
        )
        cost = 0.0
        # Market moves first: rentals, enlistments, penny purchases.
        rented = 0
        while rented < action.rent and self.pool:
            machine = self.pool.pop()
            if machine in self.controlled:
                continue
            self.fleet.append(machine)
            self.controlled.add(machine)
            rented += 1
        for account in action.enlist:
            if account not in self.controlled:
                self.controlled.add(account)
                cost += market.compromised_account_dollars
        if rented or action.enlist:
            self.victims = self._victims()
        cost += len(self.fleet) * market.rent_per_machine_day
        for address, amount in action.buy_epennies:
            if amount <= 0:
                continue
            network.fund_user(address, epennies=amount)
            cost += (
                amount * market.epenny_dollars * self.knobs.price_multiplier
            )
            if address == self.hub:
                self.hub_prepaid += amount

        legit_attempted, legit_delivered, background_spam = self._drive_legit(
            (period + 1) * DAY
        )

        attempted = blocked = 0
        delivered_paid = delivered_pow = delivered_bulk = delivered_wash = 0
        bulk_remaining = self.knobs.bulk_cap
        for salvo in action.salvos:
            if salvo.volume <= 0:
                continue
            if salvo.route == ROUTE_POW:
                if self.knobs.pow_seconds is None:
                    raise SimulationError(
                        "arena: POW salvo but no POW route is offered"
                    )
                attempted += salvo.volume
                delivered_pow += salvo.volume
                cost += salvo.volume * (
                    self.knobs.pow_seconds * market.cpu_second_dollars
                    + market.infra_cost_per_message
                )
                continue
            if salvo.route == ROUTE_BULK:
                if self.knobs.bulk_price_dollars is None:
                    raise SimulationError(
                        "arena: bulk salvo but no bulk class is offered"
                    )
                accepted = min(salvo.volume, bulk_remaining)
                bulk_remaining -= accepted
                attempted += accepted
                delivered_bulk += accepted
                cost += accepted * (
                    self.knobs.bulk_price_dollars
                    + market.infra_cost_per_message
                )
                continue
            if salvo.route != ROUTE_PAID:
                raise SimulationError(
                    f"arena: unknown salvo route {salvo.route!r}"
                )
            kind = _KIND[salvo.kind]
            wash = salvo.target is not None
            if not wash and not self.victims:
                # Degenerate world: everyone is attacker-controlled.
                blocked += salvo.volume
                attempted += salvo.volume
                continue
            hub_purse = (
                self.balance(self.hub) if salvo.sender == self.hub else 0
            )
            sent = 0
            for _ in range(salvo.volume):
                target = (
                    salvo.target
                    if wash
                    else self.rng_targets.choice(self.victims)
                )
                receipt = network.send(salvo.sender, target, kind)
                attempted += 1
                if receipt.status in _DELIVERED:
                    sent += 1
                else:
                    blocked += 1
            cost += salvo.volume * market.infra_cost_per_message
            if wash:
                delivered_wash += sent
                if salvo.target == self.hub:
                    self.hub_prepaid += sent
            else:
                if salvo.sender == self.hub:
                    spent = hub_purse - self.balance(self.hub)
                    covered = min(spent, self.hub_prepaid)
                    self.hub_prepaid -= covered
                    cost += (
                        (spent - covered)
                        * market.epenny_dollars
                        * self.knobs.price_multiplier
                    )
                delivered_paid += sent
                self.schedule.append((
                    period,
                    salvo.kind,
                    salvo.sender.isp,
                    salvo.sender.user,
                    salvo.volume,
                ))

        network.advance_day_to(period + 1)
        report = network.reconcile("direct")
        consistent = report.consistent if report is not None else True
        fresh = self.monitor.poll()
        lost = tuple(d.address for d in fresh if d.address in self.fleet)
        for machine in lost:
            self.fleet.remove(machine)

        conversions = self._conversions(
            delivered_paid + delivered_pow, market.conversion_rate
        ) + self._conversions(
            delivered_bulk,
            market.conversion_rate * market.bulk_conversion_factor,
        )
        revenue = conversions * market.revenue_per_response
        expected_revenue = market.revenue_per_response * (
            (delivered_paid + delivered_pow) * market.conversion_rate
            + delivered_bulk
            * market.conversion_rate
            * market.bulk_conversion_factor
        )
        volume_planned = sum(
            s.volume for s in action.salvos if s.target is None
        )
        spam_inbox = delivered_paid + delivered_pow + background_spam
        conserved = (
            network.total_value() == network.expected_total_value()
        )

        self.last_outcome = AttackOutcome(
            attempted=attempted,
            delivered_paid=delivered_paid,
            delivered_pow=delivered_pow,
            delivered_bulk=delivered_bulk,
            delivered_wash=delivered_wash,
            blocked=blocked,
            conversions=conversions,
            revenue=revenue,
            cost=cost,
            detected=lost,
        )
        self.last_signals = DefenseSignals(
            spam_inbox=spam_inbox,
            bulk_folder=delivered_bulk,
            legit_attempted=legit_attempted,
            legit_delivered=legit_delivered,
            detections=len(fresh),
        )
        record = PeriodRecord(
            period=period,
            volume_planned=volume_planned,
            attempted=attempted,
            delivered_paid=delivered_paid,
            delivered_pow=delivered_pow,
            delivered_bulk=delivered_bulk,
            delivered_wash=delivered_wash,
            blocked=blocked,
            conversions=conversions,
            revenue=revenue,
            cost=cost,
            profit=revenue - cost,
            expected_revenue=expected_revenue,
            expected_profit=expected_revenue - cost,
            fleet_size=len(self.fleet),
            machines_lost=len(lost),
            accounts_enlisted=len(action.enlist),
            legit_attempted=legit_attempted,
            legit_delivered=legit_delivered,
            spam_inbox=spam_inbox,
            bulk_folder=delivered_bulk,
            goodput=self.last_signals.goodput,
            spam_share=self.last_signals.spam_share,
            detections=len(fresh),
            daily_limit=self.knobs.daily_limit,
            price_multiplier=self.knobs.price_multiplier,
            pow_seconds=self.knobs.pow_seconds,
            bulk_price_dollars=self.knobs.bulk_price_dollars,
            bulk_cap=self.knobs.bulk_cap,
            conserved=conserved,
            consistent=consistent,
        )
        self.records.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "arena.period",
                period=period,
                attacker=self.attacker.name,
                defender=self.defender.name,
                attempted=attempted,
                delivered=record.delivered_paid
                + record.delivered_pow
                + record.delivered_bulk,
                profit=record.profit,
                goodput=record.goodput,
                conserved=conserved,
            )
        return record


def run_match(
    doc: dict[str, Any], *, seed: int | None = None, tracer=None
) -> MatchResult:
    """Run one full match; a pure function of ``(doc, seed)``.

    ``doc`` must be a validated schema-v2 document whose ``strategies``
    term is present. ``seed`` defaults to the document seed; tournaments
    pass per-cell derived seeds so cells are order-independent.
    """
    from ..scenario.schema import scenario_digest

    if seed is None:
        seed = doc["seed"]
    engine = _Engine(doc, seed, tracer)
    for period in range(engine.strategies["periods"]):
        engine.run_period(period)
    # Drain any boundary-time background requests so the run is total.
    engine._drive_legit(float("inf"))
    return MatchResult(
        attacker=engine.attacker.name,
        defender=engine.defender.name,
        scenario_digest=scenario_digest(doc),
        seed=seed,
        periods=engine.records,
        schedule=engine.schedule,
        accounting_digest=accounting_digest(engine.network),
    )
