"""NoC fabric layer: link occupancy/contention and tree forwarding.

* :class:`LinkFabric` — the per-run link state: flit serialization on
  directed links (one flit per link per cycle), queueing delay and
  per-link activation counts, keyed by the integer link
  ``src · n_tiles + dst`` and reported as sorted id/count arrays.
  Works over any geometry (torus or mesh); the geometry is baked into
  the trees at program-build time, so the fabric itself only sees tile
  ids.
* :func:`multicast_forks` — the flat multicast forwarding tables of
  one compiled kernel, indexed by tree edge, so an arrival is one list
  read per table instead of a tree walk or a tuple-keyed probe.

The trees themselves are the compiled kernel's forests
(:mod:`repro.comm.multicast`, :mod:`repro.comm.reduction`); the static
traffic analysis (:mod:`repro.core.traffic`) counts the same forests.

Layer contract: fabric sits above ``events``/``state`` and below
``issue``/``engine``; it never imports the issue layer or the
composition root.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

from repro.sim.events import EventQueue


class LinkFabric:
    """Dynamic link-contention state over one kernel execution.

    Each directed link carries one flit per cycle: a flit departing at
    a busy cycle queues (``queue_delay`` accounts the wait) and every
    traversal costs ``hop_cycles`` of latency before the arrival event
    fires.  Arrival events are pushed into the shared
    :class:`~repro.sim.events.EventQueue`, preserving deterministic
    tie-breaking.  Links are the integers ``src * n_tiles + dst``.
    """

    __slots__ = ("events", "hop_cycles", "n_tiles", "link_free",
                 "per_link", "queue_delay")

    def __init__(self, events: EventQueue, hop_cycles: int,
                 n_tiles: int) -> None:
        self.events = events
        self.hop_cycles = hop_cycles
        self.n_tiles = n_tiles
        #: Next free departure cycle per link key.
        self.link_free: Dict[int, int] = {}
        #: Activations per link key.
        self.per_link: Dict[int, int] = {}
        self.queue_delay = 0

    def traverse(self, link: int, time: int, event_kind: int,
                 payload: Any) -> None:
        """Serialize a flit onto ``link`` and schedule its arrival."""
        link_free = self.link_free
        depart = link_free.get(link, 0)
        if depart < time:
            depart = time
        else:
            self.queue_delay += depart - time
        link_free[link] = depart + 1
        per_link = self.per_link
        per_link[link] = per_link.get(link, 0) + 1
        self.events.push(depart + self.hop_cycles, event_kind, payload)

    def link_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(link ids, activations)`` of every used link, sorted by id.

        Both are int32 arrays, the static analysis's representation
        (:func:`repro.core.traffic.kernel_traffic`).
        """
        per_link = self.per_link
        ids = np.fromiter(per_link, dtype=np.int32, count=len(per_link))
        counts = np.fromiter(per_link.values(), dtype=np.int32,
                             count=len(per_link))
        order = np.argsort(ids)
        return ids[order], counts[order]

    def link_count(self) -> int:
        """Total link traversals."""
        return sum(self.per_link.values())

    def last_arrival(self) -> int:
        """Latest arrival cycle of any flit (0 when no flit moved).

        Departures on one link only grow, so a link's last arrival is
        its last departure (``link_free - 1``) plus the hop latency.
        """
        if not self.link_free:
            return 0
        return max(self.link_free.values()) - 1 + self.hop_cycles


class MulticastForks(NamedTuple):
    """Flat multicast forwarding tables of one compiled kernel.

    Edge ``e`` is edge ``e`` of the kernel's multicast forest
    (``CompiledKernel.mcast_parent[e] → mcast_child[e]``); tree ``t``
    is forest tree ``t``.  All fields are int64 arrays except
    ``delivers``:

    * ``tree[e]`` — the tree the edge belongs to;
    * ``link[e]`` — the integer link key ``parent · n_tiles + child``;
    * ``fork_lo[e]:fork_hi[e]`` — the edges leaving ``child[e]`` in the
      same tree: the router-side fork when a value arrives over ``e``,
      in sorted-edge order (the canonical form the lowering emits);
    * ``delivers[e]`` — whether ``child[e]`` is a destination of the
      tree (bool);
    * ``root_lo[t]:root_hi[t]`` — the edges leaving tree ``t``'s root:
      the fork a Send op performs.
    """

    tree: np.ndarray
    link: np.ndarray
    fork_lo: np.ndarray
    fork_hi: np.ndarray
    delivers: np.ndarray
    root_lo: np.ndarray
    root_hi: np.ndarray


def multicast_forks(program, n_tiles: int) -> MulticastForks:
    """Vectorized multicast forwarding tables of a compiled kernel.

    ``program`` is duck-typed (a
    :class:`~repro.dataflow.ir.CompiledKernel`); only its multicast
    forest arrays are read.  Edges are sorted by ``(tree, parent,
    child)``, so ``tree · n_tiles + parent`` is non-decreasing and the
    out-edges of every tree node form one contiguous range, found by
    binary search.
    """
    n_trees = len(program.mcast_col)
    trees = np.arange(n_trees, dtype=np.int64)
    tree = np.repeat(trees, np.diff(program.mcast_edge_ptr))
    parent = program.mcast_parent
    child = program.mcast_child
    out_key = tree * n_tiles + parent
    at_child = tree * n_tiles + child
    at_root = trees * n_tiles + program.mcast_root
    dst_key = (
        np.repeat(trees, np.diff(program.mcast_dst_ptr)) * n_tiles
        + program.mcast_dst
    )
    return MulticastForks(
        tree=tree,
        link=parent * n_tiles + child,
        fork_lo=np.searchsorted(out_key, at_child, side="left"),
        fork_hi=np.searchsorted(out_key, at_child, side="right"),
        delivers=np.isin(at_child, dst_key),
        root_lo=np.searchsorted(out_key, at_root, side="left"),
        root_hi=np.searchsorted(out_key, at_root, side="right"),
    )
