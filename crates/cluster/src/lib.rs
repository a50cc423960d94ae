//! The serving fleet: sharding, WAL replication, and epoch-vector
//! consistent reads over the `algrec` serving stack.
//!
//! Three layers, each reusing the single-node machinery rather than
//! reimplementing it:
//!
//! * [`shard`] — a **sharded durable primary**. One combined
//!   [`algrec_serve::Session`] owns the whole database and every view
//!   (so queries and incremental maintenance behave exactly as on a
//!   single node), while durability is partitioned: every committed
//!   delta is split by first-column hash ([`shard_of_fact`]) into
//!   per-shard write-ahead logs, each part stamped with the commit's
//!   global sequence number ([`algrec_store::WalRecord::Sequenced`]).
//!   Recovery and replication reassemble the exact commit order from
//!   the N independent logs. The shard count is a storage setting only:
//!   evaluation never sees it.
//! * [`repl`] — **WAL shipping**. A replica pulls intact log frames
//!   over the ordinary line protocol (`repl` requests against the
//!   primary), buffers per-shard streams, drains complete commits in
//!   global sequence order, and applies them through the real session
//!   entry points. Replies from a caught-up replica are byte-identical
//!   to the primary's modulo epoch tags. The puller tracks per-shard
//!   lag, heartbeats by polling, and resubscribes from its applied
//!   offsets when the primary restarts.
//! * [`router`] — a **consistent-read front end**. Writes forward to
//!   the primary; after each one the router re-pins its epoch vector
//!   (one epoch per shard) from the primary's `cluster-stats`. Reads
//!   fan out round-robin over the replicas with the pin attached as
//!   `min_epochs`; a replica that has not caught up answers `stale`
//!   and the router retries or falls back to the primary, so every
//!   read observes at least the pinned prefix of writes
//!   (monotonic-prefix consistency).
//!
//! [`server`] wraps each role in a line-protocol TCP loop (`algrec
//! cluster serve|join|route`).
//!
//! [`shard_of_fact`]: algrec_datalog::fixpoint::shard_of_fact

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod repl;
pub mod router;
pub mod server;
pub mod shard;

pub use repl::{Replica, ReplicaCore, ReplicaState};
pub use router::{serve_router, RouterConfig};
pub use server::{serve_primary, serve_replica};
pub use shard::{
    checkpoint_path, open_primary, open_primary_opts, rebuild_at, ClusterRecovery, ShardSet,
};
