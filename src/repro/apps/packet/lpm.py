"""Longest-prefix-match IPv4 routing on the ternary CAM.

The canonical TCAM application the paper's introduction motivates:
route prefixes become ternary entries (don't-care host bits) and the
priority encoder resolves overlaps. Longest-prefix semantics fall out
of insertion order -- prefixes are kept sorted longest-first, so the
lowest matching address is always the most specific route.

The router runs on the real cycle-accurate :class:`repro.core.CamSession`,
so lookups cost genuine simulated cycles.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core import CamType, open_session, ternary_entry, unit_for_entries
from repro.errors import CapacityError, ConfigError

IPV4_BITS = 32

PrefixLike = Union[str, Tuple[int, int]]


def parse_prefix(prefix: PrefixLike) -> Tuple[int, int]:
    """Normalise '10.1.0.0/16' or (network_int, length) to ints."""
    if isinstance(prefix, str):
        network = ipaddress.ip_network(prefix, strict=True)
        if network.version != 4:
            raise ConfigError(f"only IPv4 prefixes supported, got {prefix!r}")
        return int(network.network_address), network.prefixlen
    network, length = prefix
    if not 0 <= length <= IPV4_BITS:
        raise ConfigError(f"prefix length {length} out of range")
    host_mask = (1 << (IPV4_BITS - length)) - 1
    if network & host_mask:
        raise ConfigError(
            f"prefix {network:#x}/{length} has host bits set"
        )
    return network, length


def parse_address(address: Union[str, int]) -> int:
    """Normalise a dotted-quad or int IPv4 address."""
    if isinstance(address, str):
        return int(ipaddress.ip_address(address))
    if not 0 <= address < (1 << IPV4_BITS):
        raise ConfigError(f"address {address:#x} out of IPv4 range")
    return address


@dataclass(frozen=True)
class Route:
    """One routing-table entry."""

    network: int
    prefix_len: int
    next_hop: str

    @property
    def cidr(self) -> str:
        return f"{ipaddress.ip_address(self.network)}/{self.prefix_len}"


class LpmRouter:
    """TCAM-backed longest-prefix-match router.

    Routes are accumulated with :meth:`add_route` and compiled into the
    CAM with :meth:`compile` (sorted longest-prefix-first so priority
    encodes specificity). Lookups then run on the cycle-accurate CAM.
    """

    def __init__(
        self,
        *,
        capacity: int = 256,
        block_size: int = 64,
        concurrent_lookups: int = 1,
        engine: str = "cycle",
        **session_kwargs,
    ) -> None:
        config = unit_for_entries(
            capacity,
            block_size=block_size,
            data_width=IPV4_BITS,
            bus_width=512,
            cam_type=CamType.TERNARY,
            default_groups=concurrent_lookups,
        )
        self.session = open_session(config, engine=engine, **session_kwargs)
        self._routes: List[Route] = []
        self._table: List[Route] = []
        self._compiled = False

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.session.capacity

    @property
    def lookup_cycles(self) -> int:
        """Simulated cycles of one lookup (the unit's search latency)."""
        return self.session.search_latency

    # ------------------------------------------------------------------
    def add_route(self, prefix: PrefixLike, next_hop: str) -> Route:
        """Queue a route; call :meth:`compile` before looking up."""
        network, length = parse_prefix(prefix)
        route = Route(network=network, prefix_len=length, next_hop=next_hop)
        self._routes.append(route)
        self._compiled = False
        return route

    def compile(self) -> int:
        """Load the route table into the CAM; returns entries used."""
        if len(self._routes) > self.capacity:
            raise CapacityError(
                f"{len(self._routes)} routes exceed the CAM capacity "
                f"({self.capacity})"
            )
        # Longest prefix first: the priority encoder then returns the
        # most specific matching route.
        self._table = sorted(
            self._routes, key=lambda route: -route.prefix_len
        )
        self.session.reset()
        entries = [
            ternary_entry(
                route.network,
                (1 << (IPV4_BITS - route.prefix_len)) - 1,
                IPV4_BITS,
            )
            for route in self._table
        ]
        if entries:
            self.session.update(entries)
        self._compiled = True
        return len(entries)

    # ------------------------------------------------------------------
    def lookup(self, address: Union[str, int]) -> Optional[Route]:
        """Longest-prefix match one address; None when no route covers it."""
        if not self._compiled:
            raise ConfigError("route table not compiled; call compile()")
        result = self.session.search_one(parse_address(address))
        if not result.hit:
            return None
        return self._table[result.address]

    def lookup_batch(self, addresses) -> List[Optional[Route]]:
        """Pipelined multi-query lookups (one per group per cycle)."""
        if not self._compiled:
            raise ConfigError("route table not compiled; call compile()")
        keys = [parse_address(address) for address in addresses]
        results = self.session.search(keys)
        return [
            self._table[result.address] if result.hit else None
            for result in results
        ]
