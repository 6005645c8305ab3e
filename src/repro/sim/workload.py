"""Email traffic workload generators.

Workloads produce streams of :class:`SendRequest` records — who wants to
send to whom, when, and why (normal correspondence, spam campaign, mailing
list post, or zombie burst). They are deliberately independent of the Zmail
core: the same traffic can be replayed through Zmail, through plain SMTP,
or through any baseline, which is what makes the comparisons in the
benchmark harness apples-to-apples.

Addresses are ``(isp_id, user_id)`` pairs matching the paper's model of
``n`` ISPs with ``m`` users each. A *gid* is the flat user index
``isp * users_per_isp + user``.

Each workload has one generator, ``generate_columns()``, which yields its
traffic as column chunks ``(times, sender_gids, recipient_gids)`` of
parallel numpy arrays. It draws arrival times and targets in vectorized
chunks — one RNG call per few thousand messages — while staying lazy
(constant memory per stream) and deterministic per seed. ``generate()``
expands those columns into :class:`SendRequest` records, mapping gids to
addresses arithmetically, so the columnar batch executor
(:mod:`repro.columnar`) and the object executors consume byte-identical
traffic from identical RNG draws by construction.

Set-up is O(users): no workload materializes its population. The
contact lists of :class:`NormalUserWorkload` are drawn by index, one
short-lived stream per sender, straight into a ``(users × k)`` table
(see :meth:`NormalUserWorkload._contact_table`).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from ..errors import SimulationError
from .clock import DAY
from .rng import SeededStreams, derive_seed

__all__ = [
    "TrafficKind",
    "Address",
    "SendRequest",
    "NormalUserWorkload",
    "SpamCampaignWorkload",
    "ZombieBurstWorkload",
    "FloodSpec",
    "FloodWorkload",
    "expand_columns",
    "merge_workloads",
]

# Vectorized generators draw this many arrivals per RNG call: large enough
# to amortize numpy call overhead, small enough to keep streams lazy.
_CHUNK = 8192


class TrafficKind(Enum):
    """Why a message is being sent; used for per-class accounting."""

    NORMAL = "normal"
    SPAM = "spam"
    MAILING_LIST = "mailing_list"
    ACK = "ack"
    ZOMBIE = "zombie"


@dataclass(frozen=True, order=True, slots=True)
class Address:
    """A user's location: ISP index and user index within that ISP."""

    isp: int
    user: int

    def __str__(self) -> str:
        return f"user{self.user}@isp{self.isp}"


@dataclass(frozen=True, slots=True)
class SendRequest:
    """One message a workload wants sent at a given virtual time."""

    time: float
    sender: Address
    recipient: Address
    kind: TrafficKind

    def __lt__(self, other: "SendRequest") -> bool:
        return self.time < other.time


class _AddressBook(dict):
    """gid → :class:`Address`, each built on first lookup.

    Holds only the addresses a stream actually touches, and hands out one
    shared object per user, which keeps the per-message expansion down to
    a dict hit.
    """

    def __init__(self, users_per_isp: int) -> None:
        super().__init__()
        self.users_per_isp = users_per_isp

    def __missing__(self, gid: int) -> Address:
        address = self[gid] = Address(*divmod(gid, self.users_per_isp))
        return address


def expand_columns(
    columns, users_per_isp: int, kind: TrafficKind
) -> Iterator[SendRequest]:
    """The object path: column chunks as :class:`SendRequest` records.

    Chunks are expanded ``_CHUNK`` rows at a time, so a campaign drawn
    as one large chunk never holds more than that many python values.
    """
    book = _AddressBook(users_per_isp)
    for times, senders, recipients in columns:
        for lo in range(0, len(times), _CHUNK):
            hi = lo + _CHUNK
            for when, sender, recipient in zip(
                times[lo:hi].tolist(),
                senders[lo:hi].tolist(),
                recipients[lo:hi].tolist(),
            ):
                yield SendRequest(when, book[sender], book[recipient], kind)


def _gid_in_grid(address: Address, n_isps: int, users_per_isp: int) -> int:
    """``address``'s gid; raises ``ValueError`` if it is not a user."""
    if not (0 <= address.isp < n_isps and 0 <= address.user < users_per_isp):
        raise ValueError(
            f"{address} is not one of the {n_isps}x{users_per_isp} users"
        )
    return address.isp * users_per_isp + address.user


class NormalUserWorkload:
    """Poisson correspondence among normal users.

    Each user sends at ``rate_per_day`` on average; recipients are drawn
    from the sender's contact list (a fixed random subset of the
    population), modelling the paper's observation that normal users
    roughly balance sends and receives over time.
    """

    def __init__(
        self,
        *,
        n_isps: int,
        users_per_isp: int,
        rate_per_day: float,
        streams: SeededStreams,
        contacts_per_user: int = 8,
        name: str = "normal",
    ) -> None:
        if n_isps <= 0 or users_per_isp <= 0:
            raise ValueError("need at least one ISP and one user per ISP")
        if rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        if contacts_per_user < 0:
            raise ValueError("contacts_per_user must be non-negative")
        self.n_isps = n_isps
        self.users_per_isp = users_per_isp
        self.rate_per_day = rate_per_day
        self.contacts_per_user = contacts_per_user
        self._streams = streams
        self.name = name

    def generate(self, duration: float) -> Iterator[SendRequest]:
        """Yield requests over ``[0, duration)`` in time order."""
        return expand_columns(
            self.generate_columns(duration), self.users_per_isp, TrafficKind.NORMAL
        )

    def _contact_table(self):
        """Each user's contacts as a ``(users × k)`` gid matrix.

        Each sender draws its ``k`` contacts from its own stream, named
        ``"{name}:contacts:{sender}"``, as a sample of the ``n - 1`` other
        users. ``random.sample`` reads its population only through ``len``
        and indexing, so sampling ``range(n - 1)`` draws the same indices
        as sampling the list of the other users. Index ``i`` is the gid
        ``i`` below the sender's gid and ``i + 1`` from it on. Each stream
        is used once, so it is seeded in place rather than kept in the
        :class:`SeededStreams` registry.
        """
        n = self.n_isps * self.users_per_isp
        k = min(self.contacts_per_user, n - 1)
        if k <= 0:
            return np.zeros((n, 0), dtype=np.int64)
        root = self._streams.root_seed
        prefix = f"{self.name}:contacts:"
        others = range(n - 1)
        stream = random.Random()
        picks = array("q")
        for isp in range(self.n_isps):
            for user in range(self.users_per_isp):
                # The name spells str(Address(isp, user)).
                stream.seed(derive_seed(root, f"{prefix}user{user}@isp{isp}"))
                picks.extend(stream.sample(others, k))
        indices = np.frombuffer(picks, dtype=np.int64).reshape(n, k)
        return indices + (indices >= np.arange(n)[:, None])

    def generate_columns(self, duration: float):
        """Yield ``(times, sender_gids, recipient_gids)`` column chunks."""
        if self.rate_per_day == 0:
            return
        table = self._contact_table()
        k = table.shape[1]
        if k == 0:
            return  # nobody has anyone to write to
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        n_population = len(table)
        total_rate = self.rate_per_day * n_population / DAY
        t = 0.0
        while True:
            gaps = rng.exponential(1.0 / total_rate, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            senders = rng.integers(0, n_population, size=_CHUNK)
            picks = rng.random(size=_CHUNK)
            # Stop at the first arrival past the horizon (times are
            # monotone within a chunk).
            limit = int(np.searchsorted(times, duration, side="left"))
            senders = senders[:limit]
            recipients = table[senders, (picks[:limit] * k).astype(np.int64)]
            if limit:
                yield times[:limit], senders, recipients
            if limit < _CHUNK:
                return


class SpamCampaignWorkload:
    """A bulk-mail campaign blasting the whole population.

    The spammer lives at ``spammer`` and sends ``volume`` messages spread
    uniformly over ``[start, start + duration)`` to recipients sampled
    uniformly from the population (with replacement — real campaigns
    re-hit addresses).
    """

    def __init__(
        self,
        *,
        spammer: Address,
        n_isps: int,
        users_per_isp: int,
        volume: int,
        start: float,
        duration: float,
        streams: SeededStreams,
        name: str = "spam",
    ) -> None:
        if volume < 0:
            raise ValueError("volume must be non-negative")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._spammer_gid = _gid_in_grid(spammer, n_isps, users_per_isp)
        self.spammer = spammer
        self.volume = volume
        self.start = start
        self.duration = duration
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._targets = n_isps * users_per_isp - 1

    def generate(self) -> Iterator[SendRequest]:
        """Yield the campaign's requests in time order."""
        return expand_columns(self.generate_columns(), self.users_per_isp, TrafficKind.SPAM)

    def generate_columns(self):
        """Yield the campaign as one ``(times, senders, recipients)`` chunk."""
        if not self._targets or self.volume == 0:
            return
        rng = self._streams.get_numpy(f"{self.name}:times")
        times = rng.uniform(
            self.start, self.start + self.duration, size=self.volume
        )
        times.sort()
        targets = rng.integers(0, self._targets, size=self.volume)
        # Targets index the users other than the spammer, so gids at or
        # past the spammer's shift up by one.
        spammer_gid = self._spammer_gid
        recipients = targets + (targets >= spammer_gid)
        senders = np.full(self.volume, spammer_gid, dtype=np.int64)
        yield times, senders, recipients


class ZombieBurstWorkload:
    """A compromised user machine blasting mail at machine speed.

    Models the paper's §5 scenario: a virus turns a user's PC into a zombie
    that sends ``rate_per_hour`` messages until ``end``. The Zmail daily
    ``limit`` should cut this off after ``limit`` messages per day.
    """

    def __init__(
        self,
        *,
        zombie: Address,
        n_isps: int,
        users_per_isp: int,
        rate_per_hour: float,
        start: float,
        end: float,
        streams: SeededStreams,
        name: str = "zombie",
    ) -> None:
        if rate_per_hour <= 0:
            raise ValueError("rate_per_hour must be positive")
        if end <= start:
            raise ValueError("end must be after start")
        self._zombie_gid = _gid_in_grid(zombie, n_isps, users_per_isp)
        self.zombie = zombie
        self.rate_per_hour = rate_per_hour
        self.start = start
        self.end = end
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._targets = n_isps * users_per_isp - 1

    def generate(self) -> Iterator[SendRequest]:
        """Yield the burst's requests in time order."""
        return expand_columns(
            self.generate_columns(), self.users_per_isp, TrafficKind.ZOMBIE
        )

    def generate_columns(self):
        """Yield ``(times, senders, recipients)`` chunks for the burst."""
        if not self._targets:
            return
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        scale = 3600.0 / self.rate_per_hour
        zombie_gid = self._zombie_gid
        end = self.end
        t = self.start
        while True:
            gaps = rng.exponential(scale, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            targets = rng.integers(0, self._targets, size=_CHUNK)
            limit = int(np.searchsorted(times, end, side="left"))
            times = times[:limit]
            targets = targets[:limit]
            recipients = targets + (targets >= zombie_gid)
            senders = np.full(limit, zombie_gid, dtype=np.int64)
            if limit:
                yield times, senders, recipients
            if limit < _CHUNK:
                return


@dataclass(frozen=True)
class FloodSpec:
    """A burst/flood load-injection fault: overload as a first-class fault.

    A set of ``attackers`` user machines at ``attacker_isp`` blast
    Poisson traffic at ``rate_per_sec`` (aggregate) toward random users
    of ``target_isp`` over ``[start, start + duration)``. The attack
    traffic is ordinary :class:`SendRequest` workload — overload is an
    *admission-layer* fault, so it is injected where mail enters the
    system, not on the wire. Defined here (not in :mod:`repro.chaos`)
    because floods are plain traffic: the chaos harness injects them via
    :func:`repro.chaos.faults.flood_requests` and the scenario compiler
    runs them on every executor via :class:`FloodWorkload`.

    Attributes:
        attacker_isp: ISP hosting the flooding machines (the ISP whose
            admission controller absorbs the burst).
        target_isp: ISP whose users receive the flood.
        rate_per_sec: Aggregate offered load of the flood.
        start: Virtual time the burst begins.
        duration: Burst length in seconds.
        attackers: Number of distinct compromised sender machines.
        kind: Traffic classification of the flood (``"zombie"`` by
            default — sheds first under the priority policy).
    """

    attacker_isp: int = 0
    target_isp: int = 1
    rate_per_sec: float = 100.0
    start: float = 0.0
    duration: float = 60.0
    attackers: int = 4
    kind: str = "zombie"

    def __post_init__(self) -> None:
        if self.rate_per_sec <= 0:
            raise SimulationError("flood rate_per_sec must be positive")
        if self.duration <= 0:
            raise SimulationError("flood duration must be positive")
        if self.start < 0:
            raise SimulationError("flood start must be non-negative")
        if self.attackers < 1:
            raise SimulationError("flood needs at least one attacker")
        if self.kind not in TrafficKind._value2member_map_:
            raise SimulationError(f"unknown flood traffic kind {self.kind!r}")


class FloodWorkload:
    """A :class:`FloodSpec` as executor-neutral traffic.

    The scenario compiler's lowering of a flood: the same burst the chaos
    harness injects with :func:`repro.chaos.faults.flood_requests`, but
    following the workload-class contract above — ``generate()`` for the
    object executors and ``generate_columns()`` for the columnar batch
    executor, drawing from identical RNG streams so every executor sees
    identical traffic. (The chaos path keeps its own pure-python draw
    discipline for backward-compatible campaign reports; the two paths
    are deterministic per seed but not draw-compatible with each other.)
    """

    def __init__(
        self,
        *,
        spec: FloodSpec,
        n_isps: int,
        users_per_isp: int,
        streams: SeededStreams,
        name: str = "flood",
    ) -> None:
        if not 0 <= spec.attacker_isp < n_isps or not 0 <= spec.target_isp < n_isps:
            raise SimulationError(
                f"flood ISPs out of range: {spec.attacker_isp} -> "
                f"{spec.target_isp}"
            )
        self.spec = spec
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._attacker_gids = [
            spec.attacker_isp * users_per_isp + user % users_per_isp
            for user in range(spec.attackers)
        ]

    def generate(self) -> Iterator[SendRequest]:
        """Yield the flood's requests in time order."""
        return expand_columns(
            self.generate_columns(), self.users_per_isp, TrafficKind(self.spec.kind)
        )

    def generate_columns(self):
        """Yield ``(times, senders, recipients)`` chunks for the flood."""
        spec = self.spec
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        users_per_isp = self.users_per_isp
        attacker_gids = np.array(self._attacker_gids, dtype=np.int64)
        target_base = spec.target_isp * users_per_isp
        end = spec.start + spec.duration
        t = spec.start
        while True:
            gaps = rng.exponential(1.0 / spec.rate_per_sec, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            which = rng.integers(0, len(attacker_gids), size=_CHUNK)
            targets = rng.integers(0, users_per_isp, size=_CHUNK)
            limit = int(np.searchsorted(times, end, side="left"))
            if limit:
                yield (
                    times[:limit],
                    attacker_gids[which[:limit]],
                    target_base + targets[:limit],
                )
            if limit < _CHUNK:
                return


def merge_workloads(*iterators: Iterator[SendRequest]) -> Iterator[SendRequest]:
    """Merge independently time-ordered request streams into one ordering.

    Standard k-way merge; each input must itself be time-ordered. The key
    is extracted with :func:`operator.attrgetter` (C level) because the
    merge sits on the hot path of every streamed scenario.
    """
    import heapq
    import operator

    return iter(heapq.merge(*iterators, key=operator.attrgetter("time")))
