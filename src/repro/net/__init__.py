"""The real network layer: PlanetP peers over actual sockets.

Everything else in the repository is in-process — the gossip simulator
moves byte counts and :class:`~repro.core.community.InProcessCommunity`
calls peers as Python objects.  This package carries the same protocol
objects over real transports:

``codec``      versioned binary wire format for the full gossip inventory
               (:mod:`repro.gossip.wire`) plus the search RPCs
``transport``  asyncio TCP with connection caching and retry/backoff,
               and a deterministic in-memory loopback with injectable
               latency/drops
``chaos``      seeded fault injection over any transport: drops, resets,
               jitter, MIX bandwidth caps, partitions, crash windows
``vtime``      a virtual-time event loop: loopback communities run their
               real gossip loops deterministically, minutes in milliseconds
``node``       :class:`NetworkPeer` — a peer as an asyncio server running
               the Section 3 gossip state machine on the event loop's clock
``client``     :class:`NetworkSearchClient` — ranked TF×IPF and
               exhaustive search issued over the wire
``cli``        ``python -m repro.net`` to launch a node, and
               ``python -m repro.net stats <addr>`` to poll a live one

The whole stack records into a :mod:`repro.obs` registry (transport
bytes/latency, gossip rounds, injected faults, Bloom compression), and
any peer answers a :class:`~repro.net.codec.StatsRequest` with its
flattened samples.

Quick start (async context)::

    from repro.net.client import NetworkSearchClient
    from repro.net.node import NetworkPeer
    from repro.text.document import Document

    a = NetworkPeer(0)
    await a.start()
    b = NetworkPeer(1)
    await b.start()
    await b.join(a.address)
    b.publish(Document("d1", "gossip protocols over real sockets"))
    for _ in range(6):
        await a.gossip_round()
        await b.gossip_round()
    result = await NetworkSearchClient(a).ranked_search("gossip", k=5)
"""
