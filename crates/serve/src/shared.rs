//! The concurrent session: a single-writer [`Session`] behind a mutex
//! plus an epoch-versioned, lock-free-to-read snapshot of its readable
//! state.
//!
//! [`SharedSession`] is the serving layer's concurrency boundary:
//!
//! * **Writes** ([`SharedSession::with_writer`]) serialize on the writer
//!   mutex. Because the [`crate::session::Durability`] hook fires inside
//!   the session method, under that lock, the write-ahead-log order *is*
//!   the commit order *is* the epoch order — the invariant the store
//!   crate's writer-ordering test pins.
//! * **Reads** ([`SharedSession::read`]) load the current
//!   [`ReadView`] snapshot — an `Arc` clone under a momentary pointer
//!   lock — and resolve against it without ever taking the writer lock,
//!   so read-only queries block neither writers nor each other.
//!
//! Every committed write publishes a fresh snapshot and bumps the
//! **epoch**; each protocol reply carries the epoch it answered at, so
//! a client can correlate any read with the exact prefix of writes it
//! reflects.
//!
//! **Poisoning.** If a handler thread panics while holding the writer
//! lock, the session may be half-mutated. [`SharedSession::with_writer`]
//! then refuses further writes ([`Poisoned`]), emitting a
//! [`TraceEvent::LockPoisoned`] so the incident is observable; readers
//! keep being served from the last published (consistent) snapshot.

use crate::session::{ReadView, Session};
use algrec_sched::{Swap, Versioned};
use algrec_value::{Trace, TraceEvent};
use std::sync::{Arc, Mutex};

/// The writer lock was poisoned by a panicking holder: the write was
/// refused because the underlying session state can no longer be
/// trusted. Reads remain available at the last published epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("session writer lock poisoned by a panicked handler; writes are disabled")
    }
}

impl std::error::Error for Poisoned {}

/// A [`Session`] shared across connection threads: single-writer apply
/// path, epoch-versioned snapshot read path. See the module docs.
pub struct SharedSession {
    writer: Mutex<Session>,
    view: Swap<ReadView>,
    trace: Trace,
}

impl SharedSession {
    /// Wrap a session, publishing its current state as epoch 0.
    pub fn new(session: Session) -> Self {
        SharedSession::with_trace(session, Trace::Null)
    }

    /// Like [`SharedSession::new`], with a trace handle that receives
    /// operational events (currently lock-poisoning incidents).
    pub fn with_trace(mut session: Session, trace: Trace) -> Self {
        let view = Swap::new(session.read_view());
        SharedSession {
            writer: Mutex::new(session),
            view,
            trace,
        }
    }

    /// The current snapshot and the epoch it was published at. Readers
    /// resolve entirely against the returned immutable view; a writer
    /// publishing a newer epoch never invalidates it.
    pub fn read(&self) -> Arc<Versioned<ReadView>> {
        self.view.load()
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Run one mutating operation against the single-writer session,
    /// then publish a fresh snapshot. Returns the operation's result and
    /// the new epoch. Publishing happens even when `f`'s logical
    /// operation failed (the reply still reports the epoch it observed;
    /// failed operations don't change state, so the snapshot is simply
    /// re-captured). On a poisoned writer lock this refuses the write
    /// with [`Poisoned`] — explicit recovery instead of silently handing
    /// out a half-mutated session.
    pub fn with_writer<T>(&self, f: impl FnOnce(&mut Session) -> T) -> Result<(T, u64), Poisoned> {
        let mut guard = match self.writer.lock() {
            Ok(guard) => guard,
            Err(_) => {
                self.trace.emit(TraceEvent::LockPoisoned("session writer"));
                return Err(Poisoned);
            }
        };
        let out = f(&mut guard);
        let epoch = self.view.publish(guard.read_view());
        Ok((out, epoch))
    }

    /// Tear down the wrapper, returning the inner session (e.g. to
    /// hand a recovered durable session back to a caller). Fails with
    /// [`Poisoned`] if a handler panicked mid-write.
    pub fn into_session(self) -> Result<Session, Poisoned> {
        self.writer.into_inner().map_err(|_| Poisoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QueryAnswer;
    use algrec_datalog::Semantics;
    use algrec_value::Budget;

    const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

    #[test]
    fn writes_bump_epochs_and_readers_keep_snapshots() {
        let shared = SharedSession::new(Session::new(Budget::LARGE));
        assert_eq!(shared.epoch(), 0);
        let ((), e1) = shared
            .with_writer(|s| {
                s.load("e(1, 2).").unwrap();
            })
            .unwrap();
        assert_eq!(e1, 1);
        let before = shared.read();
        let ((), e2) = shared
            .with_writer(|s| {
                s.register_datalog("paths", TC, Semantics::Valid).unwrap();
                s.assert_fact("e(2, 3)").unwrap();
            })
            .unwrap();
        assert_eq!(e2, 2);
        // The pre-write snapshot is still consistent at its epoch.
        assert_eq!(before.epoch, 1);
        assert_eq!(before.value.db_summary(), &[("e".to_string(), 1)]);
        let now = shared.read();
        assert_eq!(now.epoch, 2);
        let QueryAnswer::Datalog { certain, .. } =
            now.value.query("paths", Some("tc")).unwrap().unwrap()
        else {
            panic!()
        };
        assert_eq!(certain, vec!["tc(1, 2).", "tc(1, 3).", "tc(2, 3)."]);
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_epoch() {
        let shared = Arc::new(SharedSession::new(Session::new(Budget::LARGE)));
        shared
            .with_writer(|s| {
                s.load("e(0, 1).").unwrap();
                s.register_datalog("paths", TC, Semantics::Valid).unwrap();
            })
            .unwrap();
        std::thread::scope(|scope| {
            let writer = {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    for k in 1..30 {
                        shared
                            .with_writer(|s| {
                                s.assert_fact(&format!("e({k}, {})", k + 1)).unwrap();
                            })
                            .unwrap();
                    }
                })
            };
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let snap = shared.read();
                        // Epoch e means the initial load + registration
                        // (epoch 1) plus e-1 chain extensions: the edge
                        // relation must have exactly e-1+1 members.
                        let members = snap
                            .value
                            .db_summary()
                            .iter()
                            .find(|(n, _)| n == "e")
                            .map(|(_, m)| *m);
                        assert_eq!(members, Some(snap.epoch as usize), "epoch {}", snap.epoch);
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(shared.epoch(), 30);
    }

    #[test]
    fn poisoned_writer_refuses_writes_but_reads_survive() {
        let trace = Trace::collect();
        let shared = Arc::new(SharedSession::with_trace(
            Session::new(Budget::LARGE),
            trace.clone(),
        ));
        shared
            .with_writer(|s| {
                s.load("e(1, 2).").unwrap();
            })
            .unwrap();
        // Panic while holding the writer lock.
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _ = poisoner.with_writer(|_| panic!("boom"));
        })
        .join();
        assert_eq!(shared.with_writer(|_| ()).unwrap_err(), Poisoned);
        // Reads still serve the last published consistent snapshot.
        let snap = shared.read();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.value.db_summary(), &[("e".to_string(), 1)]);
    }
}
