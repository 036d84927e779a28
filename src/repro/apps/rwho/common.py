"""Shared data model and workload generation for the rwho experiment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import SimulationError
from repro.util.rng import DeterministicRng

MAX_USERS_PER_HOST = 4
HOSTNAME_LEN = 32
USERNAME_LEN = 12
TTY_LEN = 8
#: Every generated host last reported at this Unix time.
NETWORK_TIME = 726_000_000


class WhodFormatError(SimulationError):
    """A status record, packed or in the shared database, that is not
    a well-formed whod record."""


@dataclass
class UserEntry:
    """One logged-in user, as rwhod reports it."""

    name: str
    tty: str
    idle_seconds: int


@dataclass
class HostStatus:
    """One machine's periodic broadcast (struct whod, abridged)."""

    hostname: str
    boot_time: int
    update_time: int
    load_1: int      # load averages x100, as integers
    load_5: int
    load_15: int
    users: List[UserEntry] = field(default_factory=list)

    @property
    def uptime(self) -> int:
        return self.update_time - self.boot_time


def generate_network(nhosts: int = 65,
                     seed: int = 1993) -> List[HostStatus]:
    """A deterministic network of *nhosts* machines (65 in the paper)."""
    rng = DeterministicRng(seed)
    hosts = []
    for index in range(nhosts):
        nusers = rng.randint(0, MAX_USERS_PER_HOST)
        users = [
            UserEntry(
                name=f"user{rng.randint(0, 99):02d}",
                tty=f"tty{rng.randint(0, 9)}",
                idle_seconds=rng.randint(0, 3600),
            )
            for _ in range(nusers)
        ]
        hosts.append(HostStatus(
            hostname=f"cs{index:02d}",
            boot_time=NETWORK_TIME - rng.randint(3600, 30 * 86400),
            update_time=NETWORK_TIME,
            load_1=rng.randint(0, 400),
            load_5=rng.randint(0, 400),
            load_15=rng.randint(0, 400),
            users=users,
        ))
    return hosts


def updated_status(status: HostStatus, tick: int,
                   rng: DeterministicRng) -> HostStatus:
    """The next periodic broadcast from *status*'s machine."""
    return HostStatus(
        hostname=status.hostname,
        boot_time=status.boot_time,
        update_time=status.update_time + tick,
        load_1=max(0, status.load_1 + rng.randint(-50, 50)),
        load_5=max(0, status.load_5 + rng.randint(-20, 20)),
        load_15=max(0, status.load_15 + rng.randint(-10, 10)),
        users=list(status.users),
    )


def format_rwho_line(hostname: str, user: UserEntry) -> str:
    """One line of rwho output."""
    idle = f"{user.idle_seconds // 60}:{user.idle_seconds % 60:02d}"
    return f"{user.name:<12} {hostname}:{user.tty:<8} {idle}"


def format_ruptime_line(status: HostStatus) -> str:
    """One line of ruptime output."""
    days, rest = divmod(status.uptime, 86400)
    hours, rest = divmod(rest, 3600)
    minutes = rest // 60
    return (
        f"{status.hostname:<12} up {days:3d}+{hours:02d}:{minutes:02d}, "
        f"{len(status.users)} users, "
        f"load {status.load_1 / 100:.2f}, {status.load_5 / 100:.2f}, "
        f"{status.load_15 / 100:.2f}"
    )
