//! Experiment ledger for the `algrec` reproduction of Beeri & Milo
//! (SIGMOD 1993).
//!
//! The paper is a theory paper with no evaluation section; the experiment
//! suite ([`experiments`], E1–E8) *verifies* its theorems on synthetic
//! workloads ([`workloads`]). `cargo run -p algrec-bench --bin tables
//! --release` prints every experiment table and fails if any claim does
//! not hold. Speed is measured elsewhere, by the `benchmark/` harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod workloads;
