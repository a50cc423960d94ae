//! Relation- and database-level deltas, plus derivation support counts.
//!
//! The serving layer (`algrec-serve`) maintains materialized views under
//! `+fact` / `-fact` changes instead of recomputing them from scratch.
//! Both maintenance algorithms it uses are delta-shaped:
//!
//! * **counting** (non-recursive strata) tracks, for every derived fact,
//!   how many distinct derivations support it — a fact dies exactly when
//!   its last derivation dies ([`SupportCounts`]);
//! * **DRed** (recursive strata) propagates an over-approximate deletion
//!   set and then re-derives survivors, driven by the same inserted /
//!   removed partition.
//!
//! This module provides the shared vocabulary: a [`RelationDelta`] is the
//! inserted / removed member pair for one relation, a [`DatabaseDelta`]
//! maps relation names to such pairs, and [`SupportCounts`] is the
//! multiset of supports keyed by any ordered key type.

use crate::relation::Database;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The change to one relation: members inserted and members removed.
///
/// Invariant (maintained by [`RelationDelta::insert`] /
/// [`RelationDelta::remove`]): `added` and `removed` are disjoint — an
/// insert cancels a pending remove of the same member and vice versa, so
/// applying the delta never depends on an internal ordering.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct RelationDelta {
    added: BTreeSet<Value>,
    removed: BTreeSet<Value>,
}

impl RelationDelta {
    /// The empty delta.
    pub fn new() -> Self {
        RelationDelta::default()
    }

    /// Record an insertion. Cancels a pending removal of the same member.
    pub fn insert(&mut self, v: Value) {
        if !self.removed.remove(&v) {
            self.added.insert(v);
        }
    }

    /// Record a removal. Cancels a pending insertion of the same member.
    pub fn remove(&mut self, v: Value) {
        if !self.added.remove(&v) {
            self.removed.insert(v);
        }
    }

    /// Members inserted by this delta.
    pub fn added(&self) -> &BTreeSet<Value> {
        &self.added
    }

    /// Members removed by this delta.
    pub fn removed(&self) -> &BTreeSet<Value> {
        &self.removed
    }

    /// Does the delta change nothing?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of changed members.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// A set of relation deltas, keyed by relation name — one batch of
/// `+fact` / `-fact` changes against a [`Database`].
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct DatabaseDelta {
    rels: BTreeMap<String, RelationDelta>,
}

impl DatabaseDelta {
    /// The empty delta.
    pub fn new() -> Self {
        DatabaseDelta::default()
    }

    /// Record an insertion into `name`.
    pub fn insert(&mut self, name: impl Into<String>, v: Value) {
        self.rels.entry(name.into()).or_default().insert(v);
    }

    /// Record a removal from `name`.
    pub fn remove(&mut self, name: impl Into<String>, v: Value) {
        self.rels.entry(name.into()).or_default().remove(v);
    }

    /// The delta of one relation, if any change was recorded.
    pub fn get(&self, name: &str) -> Option<&RelationDelta> {
        self.rels.get(name)
    }

    /// Iterate `(name, delta)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationDelta)> {
        self.rels.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of relations this delta touches.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// Does the delta change nothing?
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(RelationDelta::is_empty)
    }

    /// Total number of changed members across relations.
    pub fn len(&self) -> usize {
        self.rels.values().map(RelationDelta::len).sum()
    }

    /// Apply to a database, returning the *effective* delta: insertions of
    /// members already present and removals of members already absent are
    /// dropped, so the result describes exactly what changed. Relations
    /// emptied by removals stay registered (with zero members) so queries
    /// over them keep resolving.
    pub fn apply(&self, db: &mut Database) -> DatabaseDelta {
        let mut effective = DatabaseDelta::new();
        for (name, delta) in &self.rels {
            for v in &delta.removed {
                if db.remove_value(name, v) {
                    effective.remove(name.clone(), v.clone());
                }
            }
            for v in &delta.added {
                if db.insert_value(name.clone(), v.clone()) {
                    effective.insert(name.clone(), v.clone());
                }
            }
        }
        effective
    }
}

impl fmt::Display for DatabaseDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, delta) in &self.rels {
            for v in &delta.added {
                writeln!(f, "+{name} {v}")?;
            }
            for v in &delta.removed {
                writeln!(f, "-{name} {v}")?;
            }
        }
        Ok(())
    }
}

/// A multiset of supports: for each key, the number of live derivations.
///
/// Counting-based view maintenance stores one entry per derived fact; the
/// count is the number of distinct rule instantiations currently deriving
/// it. [`SupportCounts::inc`] and [`SupportCounts::dec`] report the
/// 0 → 1 and 1 → 0 transitions, which are exactly the moments the fact
/// appears in / disappears from the materialized view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SupportCounts<K: Ord> {
    counts: BTreeMap<K, usize>,
}

// Not derived: an empty table needs no default key.
impl<K: Ord> Default for SupportCounts<K> {
    fn default() -> Self {
        SupportCounts {
            counts: BTreeMap::new(),
        }
    }
}

impl<K: Ord> SupportCounts<K> {
    /// An empty support table.
    pub fn new() -> Self {
        SupportCounts::default()
    }

    /// Add one support for `key`; returns `true` on the 0 → 1 transition
    /// (the key just became derivable).
    pub fn inc(&mut self, key: K) -> bool {
        let c = self.counts.entry(key).or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Drop one support for `key`; returns `true` on the 1 → 0 transition
    /// (the key just lost its last derivation). Decrementing an absent key
    /// is a no-op returning `false` — DRed-style callers may over-report
    /// deletions.
    pub fn dec(&mut self, key: &K) -> bool {
        match self.counts.get_mut(key) {
            Some(c) if *c > 1 => {
                *c -= 1;
                false
            }
            Some(_) => {
                self.counts.remove(key);
                true
            }
            None => false,
        }
    }

    /// Current support count of `key` (0 if absent).
    pub fn count(&self, key: &K) -> usize {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of keys with at least one support.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(key, count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, usize)> {
        self.counts.iter().map(|(k, c)| (k, *c))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn relation_delta_cancels_opposites() {
        let mut d = RelationDelta::new();
        d.insert(i(1));
        d.remove(i(1));
        assert!(d.is_empty());
        d.remove(i(2));
        d.insert(i(2));
        assert!(d.is_empty());
        d.insert(i(3));
        d.remove(i(4));
        assert_eq!(d.len(), 2);
        assert!(d.added().contains(&i(3)));
        assert!(d.removed().contains(&i(4)));
    }

    #[test]
    fn database_delta_applies_effectively() {
        let mut db = Database::new().with("e", Relation::from_values([i(1), i(2)]));
        let mut d = DatabaseDelta::new();
        d.insert("e", i(2)); // already present → not effective
        d.insert("e", i(3));
        d.remove("e", i(1));
        d.remove("e", i(9)); // absent → not effective
        let eff = d.apply(&mut db);
        assert_eq!(eff.len(), 2);
        assert!(eff.get("e").unwrap().added().contains(&i(3)));
        assert!(eff.get("e").unwrap().removed().contains(&i(1)));
        let e = db.get("e").unwrap();
        assert!(e.contains(&i(2)) && e.contains(&i(3)) && !e.contains(&i(1)));
    }

    #[test]
    fn emptied_relation_stays_registered() {
        let mut db = Database::new().with("e", Relation::from_values([i(1)]));
        let mut d = DatabaseDelta::new();
        d.remove("e", i(1));
        d.apply(&mut db);
        assert!(db.contains("e"));
        assert_eq!(db.get("e").unwrap().len(), 0);
    }

    #[test]
    fn support_counts_transitions() {
        let mut s: SupportCounts<&'static str> = SupportCounts::new();
        assert!(s.inc("f"));
        assert!(!s.inc("f"));
        assert_eq!(s.count(&"f"), 2);
        assert!(!s.dec(&"f"));
        assert!(s.dec(&"f"));
        assert_eq!(s.count(&"f"), 0);
        assert!(!s.dec(&"f"), "absent key decrement is a no-op");
        assert!(s.is_empty());
    }

    #[test]
    fn delta_display_lists_signed_changes() {
        let mut d = DatabaseDelta::new();
        d.insert("e", i(1));
        d.remove("e", i(2));
        assert_eq!(d.to_string(), "+e 1\n-e 2\n");
    }
}
