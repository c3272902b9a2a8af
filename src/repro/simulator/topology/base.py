"""Topology interface shared by the big-switch fabric and FatTree.

A topology exposes hosts (integer ids), directed links, and routing
candidates: for an (src, dst) host pair it can say how many equal-cost
routes exist and materialize the ``selector``-th one as a tuple of link
ids.  The ECMP router hashes flows onto selectors.
"""

from __future__ import annotations

import abc
from typing import Tuple

from repro.errors import TopologyError
from repro.simulator.topology.links import LinkTable


class Topology(abc.ABC):
    """Abstract datacenter topology."""

    def __init__(self) -> None:
        self.links = LinkTable()

    @property
    @abc.abstractmethod
    def num_hosts(self) -> int:
        """Number of end hosts; host ids are ``0 .. num_hosts-1``."""

    @abc.abstractmethod
    def num_route_choices(self, src: int, dst: int) -> int:
        """Number of equal-cost routes between two distinct hosts."""

    @abc.abstractmethod
    def route(self, src: int, dst: int, selector: int) -> Tuple[int, ...]:
        """The ``selector % num_route_choices``-th route, as link ids."""

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def host_link_capacity(self) -> float:
        """The slowest host NIC (bytes/s) — the rate lower bounds assume.

        Both concrete topologies name host nodes ``h<id>``; the slowest
        directed link touching one is the tightest line rate any single
        job's traffic can count on, which is exactly what
        :mod:`repro.theory.lowerbound` divides by.
        """
        capacities = [
            link.capacity
            for link in self.links
            if link.src_node.startswith("h") or link.dst_node.startswith("h")
        ]
        if not capacities:
            raise TopologyError("topology has no host-attached links")
        return min(capacities)

    def validate_host(self, host: int) -> None:
        if not 0 <= host < self.num_hosts:
            raise TopologyError(
                f"host {host} out of range (num_hosts={self.num_hosts})"
            )
