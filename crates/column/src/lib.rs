//! Sorted columnar runs and their durable, CRC-footed file format.
//!
//! A [`Run`] is a sorted, deduplicated, immutable set of fixed- or
//! variable-arity `u32` rows (dictionary indices — the crate is agnostic
//! about what the integers mean); a [`RunBuilder`] accumulates rows in
//! any order and sorts once. Rows of arity ≤ 2 use a packed
//! representation: both columns, offset by one so a missing column packs
//! as zero and a shorter prefix sorts first, in a single `u64` key.
//!
//! [`file`] gives runs a durable form: a self-delimiting segment with a
//! CRC-32 footer per run, so a reader can *validate* a stored run
//! (checksum walk) without materializing a single row — the cheap
//! integrity gate the store's columnar snapshots and the cluster's shard
//! checkpoints are built on.
//!
//! That file format is the crate's whole job: DESIGN.md §18 records why
//! runs are not what the executor, the algebra's set difference or the
//! write path use.
//!
//! The crate is std-only and dependency-free.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod file;
pub mod run;

pub use file::{pad_to_page, read_run, validate_run, write_run, FileError, RunMeta, PAGE};
pub use run::{Run, RunBuilder};
