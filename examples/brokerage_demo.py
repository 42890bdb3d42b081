#!/usr/bin/env python
"""Information brokerage demo (paper §4).

Shows consistent-hashing key placement, snippet TTLs, graceful vs abrupt
broker departure (the paper's explicit no-safety-guarantee), and how the
brokerage complements gossip: a just-published document is findable via
the brokers *now*, while the Bloom filter path catches up later.

Run:  python examples/brokerage_demo.py
"""

from repro.brokerage.service import BrokerageService


def main() -> None:
    clock = [0.0]
    service = BrokerageService(clock=lambda: clock[0])
    for member in (10, 20, 30, 40):
        service.add_member(member)
    print("brokers on the ring:", service.members())

    # Publish snippets under their keys.
    service.publish(
        "ad-1", "<ad>fresh paper on gossip</ad>", ["gossip", "paper"], publisher=10,
        ttl_s=600,
    )
    service.publish(
        "ad-2", "<ad>bloom filter tricks</ad>", ["bloom", "filter"], publisher=20,
        ttl_s=60,
    )
    for key in ("gossip", "bloom", "filter"):
        print(f"key {key!r} lives on broker {service.broker_of(key)}; "
              f"hits: {[s.snippet_id for s in service.lookup(key)]}")

    # TTL expiry: ad-2 had a 60 s discard time.
    clock[0] = 120.0
    print("\nafter 120 s:")
    print("  bloom ->", [s.snippet_id for s in service.lookup("bloom")])
    print("  gossip ->", [s.snippet_id for s in service.lookup("gossip")])

    # Graceful leave hands entries over; abrupt leave loses them.
    owner = service.broker_of("gossip")
    print(f"\nbroker {owner} leaves gracefully:")
    service.remove_member(owner, graceful=True)
    print("  gossip ->", [s.snippet_id for s in service.lookup("gossip")])

    owner = service.broker_of("gossip")
    print(f"broker {owner} leaves ABRUPTLY:")
    service.remove_member(owner, graceful=False)
    print("  gossip ->", [s.snippet_id for s in service.lookup("gossip")],
          " (lost - the paper's explicit non-guarantee)")

    # Ring re-partitioning: adding a member moves only its arc.
    service.add_member(99)
    print("\nbrokers after 99 joins:", service.members())
    print("  gossip now lives on broker", service.broker_of("gossip"))


if __name__ == "__main__":
    main()
