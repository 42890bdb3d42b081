"""Simulation and protocol constants.

These mirror Table 2 of the paper ("Constants used in our simulation of
PlanetP's gossiping algorithm") plus the protocol parameters quoted in the
prose of Sections 3-5.  All values are plain module-level constants so that
experiment code can reference the paper's configuration by name; the
config dataclasses hold only what a caller actually varies (DESIGN §6,
"Settings").
"""

from __future__ import annotations

from dataclasses import dataclass

# --------------------------------------------------------------------------
# Table 2: simulation constants
# --------------------------------------------------------------------------

#: CPU time consumed by one gossip processing step (seconds).  Table 2: 5 ms.
CPU_GOSSIP_TIME_S: float = 0.005

#: Base gossiping interval T_g (seconds).  Table 2 / Section 3: 30 s.
BASE_GOSSIP_INTERVAL_S: float = 30.0

#: Maximum gossiping interval reached by the adaptive slow-down (seconds).
#: Table 2 lists 60 s (the prose mentions growing "to a maximum of 2
#: minutes"; we follow the table, which parameterized the reported runs).
MAX_GOSSIP_INTERVAL_S: float = 60.0

#: Message header size in bytes.  Table 2: 3 bytes.
MESSAGE_HEADER_BYTES: int = 3

#: Wire size of a (compressed) Bloom filter summarizing 1000 keys.
BF_1000_KEYS_BYTES: int = 3000

#: Wire size of a (compressed) Bloom filter summarizing 20000 keys.
BF_20000_KEYS_BYTES: int = 16000

#: Size of a Bloom-filter summary entry (version digest) in bytes.
BF_SUMMARY_BYTES: int = 6

#: Size of one peer's entry in an anti-entropy directory summary, in bytes.
PEER_SUMMARY_BYTES: int = 48


def bloom_filter_bytes(num_keys: int) -> int:
    """Interpolated wire size of a compressed Bloom filter for ``num_keys``
    keys, anchored on the two sizes given in Table 2."""
    if num_keys < 0:
        raise ValueError("num_keys must be non-negative")
    if num_keys == 0:
        return MESSAGE_HEADER_BYTES
    # Linear model through (1000, 3000) and (20000, 16000).
    slope = (BF_20000_KEYS_BYTES - BF_1000_KEYS_BYTES) / (20000 - 1000)
    size = BF_1000_KEYS_BYTES + slope * (num_keys - 1000)
    return max(MESSAGE_HEADER_BYTES, int(round(size)))


# --------------------------------------------------------------------------
# Section 3 protocol parameters
# --------------------------------------------------------------------------

#: A peer stops spreading a rumor after contacting this many peers in a row
#: that already know it (Demers et al.'s "counter" variant; paper: n).
RUMOR_GIVE_UP_COUNT: int = 2

#: Every Nth gossip round is a (full) anti-entropy round instead of rumoring.
ANTI_ENTROPY_PERIOD: int = 10

#: Number of recently-retired rumor ids piggybacked on each rumor reply for
#: the partial anti-entropy exchange (paper: "a small number m").
PARTIAL_AE_RECENT_RUMORS: int = 10

#: Number of consecutive no-news contacts before the gossip interval grows
#: (the "gossip-less threshold", Section 3: 2).
GOSSIP_LESS_THRESHOLD: int = 2

#: Additive slow-down applied to the gossip interval each time the
#: gossip-less threshold is reached (Section 3: 5 s).
GOSSIP_SLOWDOWN_S: float = 5.0

#: How many recently-learned rumor ids an anti-entropy target offers as
#: the cheap first reconciliation level before falling back to the full
#: directory summary.
AE_RECENT_WINDOW: int = 50

#: Time a peer may stay marked off-line before it is dropped from the
#: directory (T_Dead).  The paper does not fix a value; we default to a week.
T_DEAD_S: float = 7 * 24 * 3600.0

#: Probability that a *fast* peer rumors with a *slow* peer under the
#: bandwidth-aware peer selection policy (Section 7.2: 1%).
BW_AWARE_FAST_TO_SLOW_PROB: float = 0.01

#: Link speed at or above which a peer counts as "fast" for the
#: bandwidth-aware policy (Section 7.2: 512 Kb/s or better).
FAST_LINK_THRESHOLD_BPS: float = 512_000.0 / 8.0  # bytes/second

# --------------------------------------------------------------------------
# Link speeds (bits/sec as quoted; stored in bytes/sec for the simulator)
# --------------------------------------------------------------------------


def _bps(bits_per_second: float) -> float:
    """Convert a link speed in bits/second to bytes/second."""
    return bits_per_second / 8.0


#: 56 kbps modem link, bytes/second.
LINK_MODEM: float = _bps(56_000)
#: 512 kbps DSL link, bytes/second.
LINK_DSL: float = _bps(512_000)
#: 5 Mbps cable link, bytes/second.
LINK_CABLE: float = _bps(5_000_000)
#: 10 Mbps Ethernet link, bytes/second.
LINK_ETHERNET: float = _bps(10_000_000)
#: 45 Mbps T3/LAN link, bytes/second.
LINK_LAN: float = _bps(45_000_000)

#: The MIX link-speed distribution measured by Saroiu et al. and used in the
#: paper: fractions of peers per link class.
MIX_DISTRIBUTION: tuple[tuple[float, float], ...] = (
    (0.09, LINK_MODEM),
    (0.21, LINK_DSL),
    (0.50, LINK_CABLE),
    (0.16, LINK_ETHERNET),
    (0.04, LINK_LAN),
)

# --------------------------------------------------------------------------
# Section 5 ranking parameters
# --------------------------------------------------------------------------

#: Coefficients of the adaptive stopping heuristic (eq. 4):
#: p = floor(A + N / B) + C * floor(k / D).
STOPPING_A: int = 2
STOPPING_N_DIVISOR: int = 300
STOPPING_K_COEFF: int = 2
STOPPING_K_DIVISOR: int = 50

# --------------------------------------------------------------------------
# Section 7.1 Bloom filter configuration
# --------------------------------------------------------------------------

#: The prototype's fixed Bloom filter size: 50 KB (in bits).
PROTOTYPE_BF_BITS: int = 50 * 1024 * 8

#: Terms the prototype filter can summarize at < 5% false positives.
PROTOTYPE_BF_CAPACITY: int = 50_000

#: Default number of hash functions (the paper quotes FP rates for two).
DEFAULT_BF_HASHES: int = 2

# --------------------------------------------------------------------------
# repro.net defaults (real-socket deployment; not from the paper)
# --------------------------------------------------------------------------

#: Default TCP port for `python -m repro.net` nodes (0 = ephemeral).
NET_DEFAULT_PORT: int = 9301

#: Hard upper bound on one wire frame.  The largest legitimate message is
#: a join snapshot (~16 MB for 1000 peers per Section 7.2); anything
#: bigger is treated as a protocol error and the connection is dropped.
NET_MAX_FRAME_BYTES: int = 64 * 1024 * 1024

#: How long a node waits for a TCP connection to be established (seconds).
NET_CONNECT_TIMEOUT_S: float = 5.0

#: How long a node waits for the response to one RPC (seconds).
NET_REQUEST_TIMEOUT_S: float = 30.0

#: Wire-format version byte carried in every codec frame.
NET_CODEC_VERSION: int = 1

#: Retries after the first failed attempt of one RPC (connection-level
#: failures only; framing violations are never retried).
NET_REQUEST_RETRIES: int = 2

#: Backoff before the first retry (seconds); doubles per retry.
NET_RETRY_BACKOFF_S: float = 0.1

#: Upper bound on the exponential retry backoff (seconds).
NET_RETRY_BACKOFF_MAX_S: float = 2.0

#: Fraction of random jitter added on top of each backoff delay, to
#: de-synchronize peers retrying against the same recovering node.
NET_RETRY_JITTER_FRAC: float = 0.5

#: Overall deadline for one RPC including all retries (seconds).
NET_REQUEST_DEADLINE_S: float = 60.0

#: Base backoff before re-rumoring with a member after a failed contact
#: (seconds); doubles per consecutive failure.  Anti-entropy rounds ignore
#: this so that recovered peers are always rediscovered.
NET_CONTACT_BACKOFF_BASE_S: float = 30.0

#: Upper bound on the per-member contact backoff (seconds).
NET_CONTACT_BACKOFF_MAX_S: float = 480.0

#: Largest community peer id a node accepts, its own (rumor ids mint the
#: origin into 16 bits) or one read off the wire (U32 there; a row or
#: rumor naming a larger one is dropped).
MAX_PEER_ID: int = 0xFFFF

# --------------------------------------------------------------------------
# repro.store defaults (durable persistence; not from the paper)
# --------------------------------------------------------------------------

#: WAL records appended between automatic snapshots of the data store.
STORE_SNAPSHOT_EVERY: int = 256

#: Snapshot generations retained on disk (newest first; older pruned).
STORE_SNAPSHOT_KEEP: int = 2

#: Gossip rounds between directory checkpoint writes on a live node.
STORE_CHECKPOINT_EVERY_ROUNDS: int = 10

# --------------------------------------------------------------------------
# repro.serve defaults (query plane; not from the paper)
# --------------------------------------------------------------------------

#: Searches the scheduler runs concurrently (the global in-flight budget).
SERVE_MAX_CONCURRENT: int = 8

#: Searches allowed to wait for a slot before new arrivals are rejected.
SERVE_MAX_QUEUE: int = 64

#: Default per-query deadline: a query still queued after this long is
#: shed instead of run (its answer would arrive too late to matter).
SERVE_DEFAULT_DEADLINE_S: float = 10.0

#: Result-cache capacity (distinct (kind, query, k) entries).
SERVE_CACHE_SIZE: int = 512

#: Concurrent in-flight RPCs allowed per target peer across all queries.
SERVE_PER_PEER_INFLIGHT: int = 4

#: Concurrent in-flight RPCs allowed per search wave (fan-out bound).
SERVE_FANOUT_LIMIT: int = 16

#: How long one peer may sit on a search RPC before the wave gives up on
#: it (shorter than the transport's own retry deadline — a search wave
#: must not stall on one unresponsive peer).
SERVE_PEER_DEADLINE_S: float = 5.0

# --------------------------------------------------------------------------
# Section 6 PFS parameters
# --------------------------------------------------------------------------

#: Fraction of a file's most frequent terms published to the brokerage.
PFS_BROKER_TERM_FRACTION: float = 0.10

#: Discard time for brokered snippets (Section 6: 10 minutes), seconds.
PFS_BROKER_DISCARD_S: float = 600.0

#: A PFS directory older than this is fully re-run on open (seconds).
PFS_DIR_REFRESH_S: float = 600.0

# --------------------------------------------------------------------------
# repro.content defaults (document bytes; not from the paper)
# --------------------------------------------------------------------------

#: A responder caps each ChunkReply at this many bytes — replies for
#: bigger chunks arrive as resumable slices (offset + prefix).
CONTENT_MAX_REPLY_BYTES: int = 65536

#: Documents (re)pushed per maintenance round — bounds the per-round
#: replication burst after a churn event.
CONTENT_PUSH_DOCS_PER_ROUND: int = 8


@dataclass
class GossipConfig:
    """Gossip-protocol parameters for one simulation or community.

    Defaults reproduce the paper's configuration (Table 2 and Section 3);
    the other Section 3 values are the module constants above.
    """

    base_interval_s: float = BASE_GOSSIP_INTERVAL_S
    anti_entropy_period: int = ANTI_ENTROPY_PERIOD
    t_dead_s: float = T_DEAD_S
    use_partial_ae: bool = True
    anti_entropy_only: bool = False
    bandwidth_aware: bool = False

    def __post_init__(self) -> None:
        if self.base_interval_s <= 0:
            raise ValueError("base_interval_s must be positive")
        if self.anti_entropy_period < 1:
            raise ValueError("anti_entropy_period must be >= 1")

    @property
    def max_interval_s(self) -> float:
        """Where the adaptive slow-down stops: twice the base interval
        (Table 2's 60 s over its 30 s base)."""
        return 2 * self.base_interval_s


@dataclass
class NetConfig:
    """Tunables of the real network layer (:mod:`repro.net`)."""

    max_frame_bytes: int = NET_MAX_FRAME_BYTES
    connect_timeout_s: float = NET_CONNECT_TIMEOUT_S
    request_timeout_s: float = NET_REQUEST_TIMEOUT_S
    request_retries: int = NET_REQUEST_RETRIES
    retry_backoff_s: float = NET_RETRY_BACKOFF_S
    retry_backoff_max_s: float = NET_RETRY_BACKOFF_MAX_S
    retry_jitter_frac: float = NET_RETRY_JITTER_FRAC
    request_deadline_s: float = NET_REQUEST_DEADLINE_S

    def __post_init__(self) -> None:
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes is too small for any message")
        if self.connect_timeout_s <= 0 or self.request_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if self.retry_backoff_s <= 0 or (
            self.retry_backoff_max_s < self.retry_backoff_s
        ):
            raise ValueError("retry backoff must satisfy 0 < base <= max")
        if not 0.0 <= self.retry_jitter_frac <= 1.0:
            raise ValueError("retry_jitter_frac must be in [0, 1]")
        if self.request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be positive")


@dataclass
class StoreConfig:
    """Tunables of the persistence subsystem (:mod:`repro.store`)."""

    snapshot_every: int = STORE_SNAPSHOT_EVERY
    #: every fsync under the data dir (WAL, snapshots, checkpoints, chunk
    #: store).  Off, writes stay atomic and survive ``kill -9``; only a
    #: machine crash may lose the newest — traded for publish throughput.
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass
class ServeConfig:
    """Tunables of the query plane (:mod:`repro.serve`)."""

    max_concurrent: int = SERVE_MAX_CONCURRENT
    max_queue: int = SERVE_MAX_QUEUE

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")


@dataclass
class PartialViewConfig:
    """Tunables of the partial-view membership mode (:mod:`repro.gossip.partialview`).

    Under partial views a node keeps full Bloom filters only for the
    members of its own directory shard (consistent-hash over pids) plus
    a bounded random sample of out-of-shard peers; everything else is
    folded into one coarse OR-summary filter per shard.
    """

    #: directory shards; each node's "home" shard is shard_of(peer_id).
    num_shards: int = 8
    #: out-of-shard peers whose full filters a node keeps anyway, so
    #: ranked search has warm candidates beyond its home shard.
    sample_size: int = 32

    def __post_init__(self) -> None:
        if self.num_shards < 2:
            raise ValueError("num_shards must be >= 2")
        if self.sample_size < 0:
            raise ValueError("sample_size must be >= 0")


@dataclass
class ContentConfig:
    """Tunables of the content plane (:mod:`repro.content`).

    ``replicas`` is k in the k-way replication scheme: every published
    document's chunks are pushed to its first k consistent-hash ring
    successors (origin excluded).  Zero keeps the plane passive — local
    chunks are stored and served, but nothing is pushed, which is the
    default so single-node and loopback deployments pay nothing.
    """

    #: ring successors (excluding the origin) that must hold a copy.
    replicas: int = 0
    #: bytes per chunk; the last chunk of a document may be shorter.
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass
class AnalyticsConfig:
    """Tunables of the analytics plane (:mod:`repro.analytics`).

    Each node maintains a bounded space-saving summary of its own term
    frequencies plus per-document access counters, and gossips the
    per-origin entries via push-pull sketch exchanges piggybacked on the
    gossip round.  Merging is a per-origin latest-wins join, so every
    node converges to the same community-wide top-k estimate without
    central collection.
    """

    #: space-saving counter capacity — the per-origin term summary never
    #: tracks more than this many terms (error bounded by N/capacity).
    sketch_capacity: int = 128

    def __post_init__(self) -> None:
        if self.sketch_capacity < 1:
            raise ValueError("sketch_capacity must be >= 1")


@dataclass
class BloomConfig:
    """Bloom filter sizing configuration."""

    num_bits: int = PROTOTYPE_BF_BITS
    num_hashes: int = DEFAULT_BF_HASHES

    def __post_init__(self) -> None:
        if self.num_bits < 8:
            raise ValueError("num_bits must be at least 8")
        if self.num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")

