"""repro.serve — a production query plane over :mod:`repro.net`.

The paper's search (Sections 4-5) is reproduced elsewhere as one
client-driven wave per query; this package makes a node *serve*:

``scheduler``      :class:`QueryScheduler` — a global in-flight budget,
                   a bounded admission queue with deadline shedding and
                   ``retry_after`` hints, and per-peer in-flight caps
                   (:class:`PeerGate`) shared with the search client
``cache``          :class:`ResultCache` — results keyed on (query, k,
                   directory generation), where the generation folds the
                   same ``BloomFilter.version`` counters that power the
                   compression memo; a publish anywhere moves the
                   generation and stale entries are never served
``subscriptions``  persistent queries over the wire (paper Section 5.1):
                   a remote client posts a standing query and receives
                   ``Notify`` upcalls when matching documents are
                   published anywhere in the community, surviving node
                   restarts via ``PPSUB001`` checkpoints

Every moving part records into the registry's ``serve`` component, and
``benchmarks/bench_qps.py`` turns those instruments into the committed
QPS × latency × hit-rate trajectory.
"""
