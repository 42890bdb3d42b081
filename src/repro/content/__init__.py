"""repro.content — the wire-level content plane.

Search (:mod:`repro.net.client`) returns ranked doc ids; this package
moves the *bytes*.  Three pieces, layered on :class:`~repro.net.node.
NetworkPeer` and the shared wire inventory
(:data:`repro.gossip.wire.CONTENT_MESSAGES`):

``ContentPlane``   the node-side half: chunks every published document
                   into a crash-safe :class:`~repro.store.chunkstore.
                   ChunkStore`, k-way replicates it to its consistent-
                   hash ring successors, re-replicates on join/leave
                   (reusing the query plane's liveness evidence), and
                   garbage-collects orphaned copies after handoff.
``ContentClient``  the retrieval half: resolve doc id → manifest →
                   replica set, download chunks with bounded per-peer
                   in-flight (:class:`~repro.net.transport.PeerGate`),
                   resume from the last verified byte offset, and fall
                   back across replicas on timeout.
``replica_ring``   the deterministic placement everyone agrees on:
                   members at virtual ring points, a document's replicas
                   = the first k distinct successors of ``H(doc_id)``
                   excluding its origin.

See DESIGN.md §13 for the protocol walkthrough.
"""
