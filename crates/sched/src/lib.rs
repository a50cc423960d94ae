//! Concurrency substrate for the `algrec` stack.
//!
//! Two small, dependency-free pieces (std only), shared by the datalog
//! engine and the serving layer:
//!
//! * [`pool`] — a work-stealing worker pool over scoped threads. Jobs
//!   are claimed from a shared atomic counter (idle workers steal the
//!   next index; there are no per-worker queues to rebalance) and the
//!   results are returned *in job order*, so callers can keep
//!   deterministic, sequential-identical output while fanning the work
//!   out. See [`pool::Pool`].
//! * [`swap`] — an epoch-versioned snapshot cell ([`swap::Swap`]): an
//!   `ArcSwap`-style `Mutex<Arc<_>>` hot-swap. Readers clone the `Arc`
//!   under a momentary lock (no allocation, no waiting on writers'
//!   *work* — only on the pointer swap itself) and then read the
//!   immutable snapshot lock-free; each published snapshot carries the
//!   epoch it was installed at.
//! * [`threads`](mod@threads) — the engine-wide thread-count knob: `--threads N` /
//!   `ALGREC_THREADS`, defaulting to the machine's available
//!   parallelism.
//! * [`shards`](mod@shards) — the engine-wide shard-count knob: `--shards N` /
//!   `ALGREC_SHARDS`, defaulting to 1 (off). When set above 1, fixpoint
//!   rounds partition their deltas by first-column id into exactly that
//!   many shard-owned pieces instead of whole-fact hashes across the
//!   thread count.
//!
//! The scheduling model follows the paper's own structure: rule
//! instantiations within one semi-naive round are independent (the round
//! reads the previous total and delta, and only the round *barrier*
//! publishes new facts), so a round fans out and joins without changing
//! semantics — see DESIGN.md §14.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod pool;
pub mod shards;
pub mod swap;
pub mod threads;

pub use pool::Pool;
pub use shards::{set_shards, shards};
pub use swap::{Swap, Versioned};
pub use threads::{set_threads, threads};
