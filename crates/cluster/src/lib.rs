//! The serving fleet: WAL replication and consistent reads over the
//! `algrec` serving stack.
//!
//! Three layers, each reusing the single-node machinery rather than
//! reimplementing it:
//!
//! * [`primary`] — the **durable primary** is an ordinary
//!   [`algrec_store::open`] store: the same WAL generations, columnar
//!   snapshots, fallback and compaction as `serve --data-dir`. The
//!   fleet only observes it, counting the records of the active
//!   generation so the primary can report its [`Position`] — `(WAL
//!   generation, records in that generation's log)`.
//! * [`repl`] — **WAL shipping**. A replica pulls intact log frames over
//!   the ordinary line protocol (`repl` requests against the primary),
//!   tails one generation's log by byte offset, moves to the next log
//!   when the current one is sealed, and bootstraps from the newest
//!   snapshot image when its generation is no longer retained. It
//!   applies records through the real session entry points, so replies
//!   from a caught-up replica are byte-identical to the primary's modulo
//!   epoch tags. The puller heartbeats by polling and resubscribes from
//!   its applied offset when the primary restarts.
//! * [`router`] — a **consistent-read front end**. Writes forward to
//!   the primary; after each one the router re-pins the primary's
//!   position from `cluster-stats`. Reads fan out round-robin over the
//!   replicas with the pin attached as `min_epochs`; a replica that has
//!   not caught up answers `stale` and the router retries or falls back
//!   to the primary, so every read observes at least the pinned prefix
//!   of writes (monotonic-prefix consistency).
//!
//! [`server`] wraps each role in a line-protocol TCP loop (`algrec
//! cluster serve|join|route`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod primary;
pub mod repl;
pub mod router;
pub mod server;

pub use primary::{open_primary, rebuild_at, Position, Primary};
pub use repl::{catch_up, Replica, ReplicaCore, ReplicaState};
pub use router::{serve_router, RouterConfig};
pub use server::{serve_primary, serve_replica};
