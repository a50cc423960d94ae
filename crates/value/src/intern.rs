//! Value interning (hash-consing) and symbol interning.
//!
//! Deep [`Value`]s make equality, hashing and ordering O(size); the
//! evaluators compare and hash the *same* values over and over (fixpoint
//! accumulators, join keys, environment lookups). Interning maps each
//! distinct value to a small `Copy` id — [`Vid`] — so repeated equality
//! and hashing become O(1), and maps keyed by values become maps keyed
//! by `u32`s. [`Symbol`] does the same for the identifier strings used
//! as environment keys and relation names.
//!
//! Both tables are global, append-only and never freed: an interned
//! value is stored once (via `Box::leak`) and every [`Vid::resolve`]
//! hands back the same `&'static Value` without cloning. This is the
//! standard hash-consing trade: memory monotonically grows with the set
//! of *distinct* values seen by the process, in exchange for O(1)
//! structural equality everywhere else. The evaluators only intern
//! values that enter fixpoint accumulators or index keys, which keeps
//! the table bounded by the data actually computed.
//!
//! Determinism: ids are assigned in first-interning order, so `Vid`'s
//! `Ord` is *not* the canonical `Value` order. Anything user-visible
//! must therefore materialize through `BTreeSet<Value>` (sort on
//! materialization), which the evaluators do; ids never leak into
//! output.

use crate::value::Value;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned [`Value`]: a `Copy` id with O(1) equality and hashing.
///
/// Two `Vid`s are equal iff the values they intern are structurally
/// equal. The `Ord` on `Vid` is insertion order (arbitrary but fixed
/// within a process) — use [`Vid::resolve`] and compare values when
/// canonical order matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vid(u32);

/// An interned identifier string (environment keys, relation names).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Symbol(u32);

#[derive(Default)]
struct ValueTable {
    by_value: HashMap<&'static Value, u32>,
    values: Vec<&'static Value>,
}

#[derive(Default)]
struct SymbolTable {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn value_table() -> &'static RwLock<ValueTable> {
    static TABLE: OnceLock<RwLock<ValueTable>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

fn symbol_table() -> &'static RwLock<SymbolTable> {
    static TABLE: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

impl Vid {
    /// Intern `v`, returning its id (inserting it on first sight).
    pub fn of(v: &Value) -> Vid {
        if let Some(id) = value_table().read().unwrap().by_value.get(v) {
            return Vid(*id);
        }
        let mut table = value_table().write().unwrap();
        if let Some(id) = table.by_value.get(v) {
            return Vid(*id);
        }
        let id = u32::try_from(table.values.len()).expect("value interner overflow");
        let stored: &'static Value = Box::leak(Box::new(v.clone()));
        table.values.push(stored);
        table.by_value.insert(stored, id);
        Vid(id)
    }

    /// The id of `v` if it has already been interned; never inserts.
    /// Useful for probing indexes keyed by `Vid`: a value that was never
    /// interned cannot be in the index.
    pub fn lookup(v: &Value) -> Option<Vid> {
        value_table()
            .read()
            .unwrap()
            .by_value
            .get(v)
            .copied()
            .map(Vid)
    }

    /// The interned value (shared, never cloned).
    pub fn resolve(self) -> &'static Value {
        value_table().read().unwrap().values[self.0 as usize]
    }

    /// The raw id (for slot/bitset style data structures).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Symbol {
    /// Intern `name`, returning its symbol.
    pub fn of(name: &str) -> Symbol {
        if let Some(id) = symbol_table().read().unwrap().by_name.get(name) {
            return Symbol(*id);
        }
        let mut table = symbol_table().write().unwrap();
        if let Some(id) = table.by_name.get(name) {
            return Symbol(*id);
        }
        let id = u32::try_from(table.names.len()).expect("symbol interner overflow");
        let stored: &'static str = Box::leak(name.to_owned().into_boxed_str());
        table.names.push(stored);
        table.by_name.insert(stored, id);
        Symbol(id)
    }

    /// The interned string (shared, never cloned).
    pub fn as_str(self) -> &'static str {
        symbol_table().read().unwrap().names[self.0 as usize]
    }

    /// The raw id.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Run `f` against the whole id→value slice under a single read lock:
/// `slice[vid.index() as usize]` is [`Vid::resolve`] without the
/// per-call lock acquisition. Bulk materialization of id-space results
/// resolves tens of thousands of ids at once; one lock instead of one
/// per id is a measurable win there. `f` must not intern values (the
/// write lock would deadlock against the held read lock).
pub fn with_values<R>(f: impl FnOnce(&[&'static Value]) -> R) -> R {
    f(&value_table().read().unwrap().values)
}

/// Number of distinct values interned so far, process-wide. The tables
/// are global and append-only, so this is a high-water mark; telemetry
/// snapshots it into [`crate::stats::EvalStats`].
pub fn interned_value_count() -> usize {
    value_table().read().unwrap().values.len()
}

/// Number of distinct symbols interned so far, process-wide.
pub fn interned_symbol_count() -> usize {
    symbol_table().read().unwrap().names.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_injective() {
        let a = Value::pair(Value::int(1), Value::set([Value::int(2)]));
        let b = Value::pair(Value::int(1), Value::set([Value::int(2)]));
        let c = Value::pair(Value::int(1), Value::set([Value::int(3)]));
        assert_eq!(Vid::of(&a), Vid::of(&b));
        assert_ne!(Vid::of(&a), Vid::of(&c));
        assert_eq!(Vid::of(&a).resolve(), &a);
    }

    #[test]
    fn lookup_never_inserts() {
        let novel = Value::str("vid-lookup-test-unique-string");
        assert_eq!(Vid::lookup(&novel), None);
        let id = Vid::of(&novel);
        assert_eq!(Vid::lookup(&novel), Some(id));
    }

    #[test]
    fn symbols_roundtrip() {
        let s = Symbol::of("edge");
        assert_eq!(s, Symbol::of("edge"));
        assert_ne!(s, Symbol::of("node"));
        assert_eq!(s.as_str(), "edge");
        assert_eq!(s.to_string(), "edge");
    }

    #[test]
    fn vids_hash_in_o1_containers() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for k in 0..100 {
            seen.insert(Vid::of(&Value::int(k)));
        }
        assert_eq!(seen.len(), 100);
        assert!(seen.contains(&Vid::of(&Value::int(42))));
    }
}
