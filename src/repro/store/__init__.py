"""repro.store — durable persistence and warm restart for PlanetP nodes.

The paper's peers are assumed to come and go constantly (Section 3.2),
but a pure-RAM node pays a full cold rebuild on every restart: re-analyze
the corpus, re-learn the whole global directory over gossip.  This
package makes local state durable, in three layers:

``wal``         an append-only, CRC32-guarded, torn-tail-tolerant record
                log of publish/remove operations (with their analyzed
                term frequencies, so replay never runs the Analyzer)
``snapshot``    atomic (temp file + ``os.replace``) checksummed
                snapshots of the documents, inverted index, and
                compressed Bloom filter; recovery = newest valid
                snapshot + WAL suffix
``checkpoint``  the replicated directory, as the node's own join
                snapshot frame, persisted so a restarting node seeds
                anti-entropy from its last known view instead of
                re-fetching every filter

``persistent_store.PersistentDataStore`` ties the first two into a
journal over a :class:`~repro.core.datastore.LocalDataStore`, which
stays the store its callers use;
:class:`~repro.net.node.NetworkPeer` accepts a ``data_dir``, journals its
peer's own store and wires in all three (see ``python -m repro.net
--data-dir``).
"""
