//! Relations and databases.
//!
//! "A database is a collection of named sets (every set is a database
//! 'relation')" — paper, Section 3. A [`Relation`] is a finite set of
//! [`Value`]s (conventionally tuples, but the paper's sets may contain
//! elements of any type), and a [`Database`] maps relation names to
//! relations.

use crate::index::ColumnIndex;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A finite set of values: the content of one database "relation".
///
/// Alongside the canonical `BTreeSet` of members, a relation lazily
/// caches a hash index over the first column (product convention: a
/// non-tuple member *is* its own first column). The cache is built on
/// first use by [`Relation::first_index`] and invalidated by
/// [`Relation::insert`]; it is ignored by `Clone`-equality semantics,
/// `PartialEq`, `Debug` and `Display`, so observable behavior is
/// exactly that of the plain set.
#[derive(Default)]
pub struct Relation {
    tuples: BTreeSet<Value>,
    first_index: OnceLock<Arc<ColumnIndex<Value>>>,
}

/// The first column of a relation member under the product convention:
/// a tuple's first component, a non-tuple member itself; the empty tuple
/// has none.
pub fn first_column(v: &Value) -> Option<&Value> {
    match v {
        Value::Tuple(items) => items.first(),
        other => Some(other),
    }
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Build from any iterator of values.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        Relation {
            tuples: values.into_iter().collect(),
            first_index: OnceLock::new(),
        }
    }

    /// Build a binary relation from (left, right) pairs — the shape of
    /// every graph-like example in the paper (MOVE, edges).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        Relation {
            tuples: pairs.into_iter().map(|(a, b)| Value::pair(a, b)).collect(),
            first_index: OnceLock::new(),
        }
    }

    /// Insert a value; returns whether it was new. Invalidates the
    /// cached first-column index.
    pub fn insert(&mut self, v: Value) -> bool {
        let fresh = self.tuples.insert(v);
        if fresh {
            self.first_index.take();
        }
        fresh
    }

    /// Remove a value; returns whether it was present. Invalidates the
    /// cached first-column index.
    pub fn remove(&mut self, v: &Value) -> bool {
        let had = self.tuples.remove(v);
        if had {
            self.first_index.take();
        }
        had
    }

    /// The lazily built hash index over members' first column (product
    /// convention: a non-tuple member is its own first column; members
    /// that are *empty* tuples have no first column and are absent from
    /// the index — they can never satisfy a first-column equality).
    /// Subsequent calls return the same cached index until the relation
    /// is mutated.
    pub fn first_index(&self) -> Arc<ColumnIndex<Value>> {
        self.first_index
            .get_or_init(|| {
                Arc::new(ColumnIndex::build_skipping(
                    self.tuples.iter().cloned(),
                    first_column,
                    true,
                ))
            })
            .clone()
    }

    /// Membership test (two-valued — database relations are extensional).
    pub fn contains(&self, v: &Value) -> bool {
        self.tuples.contains(v)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate members in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.tuples.iter()
    }

    /// The underlying set.
    pub fn as_set(&self) -> &BTreeSet<Value> {
        &self.tuples
    }

    /// Consume into the underlying set.
    pub fn into_set(self) -> BTreeSet<Value> {
        self.tuples
    }

    /// View this relation as a set [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Set(self.tuples.clone())
    }
}

impl FromIterator<Value> for Relation {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Relation::from_values(iter)
    }
}

impl IntoIterator for Relation {
    type Item = Value;
    type IntoIter = std::collections::btree_set::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Value;
    type IntoIter = std::collections::btree_set::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl From<BTreeSet<Value>> for Relation {
    fn from(tuples: BTreeSet<Value>) -> Self {
        Relation {
            tuples,
            first_index: OnceLock::new(),
        }
    }
}

// The index cache is derived state: two relations are the same relation
// iff their member sets are equal, and a clone may share the (immutable)
// cached index because it describes the same member set.
impl Clone for Relation {
    fn clone(&self) -> Self {
        let first_index = OnceLock::new();
        if let Some(idx) = self.first_index.get() {
            let _ = first_index.set(idx.clone());
        }
        Relation {
            tuples: self.tuples.clone(),
            first_index,
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_value())
    }
}

/// A database: named relations (paper, Section 3: each relation is
/// "represented by a named constant").
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Add (or replace) a relation under `name`.
    pub fn set(&mut self, name: impl Into<String>, rel: Relation) -> &mut Self {
        self.relations.insert(name.into(), rel);
        self
    }

    /// Builder-style [`Database::set`].
    pub fn with(mut self, name: impl Into<String>, rel: Relation) -> Self {
        self.set(name, rel);
        self
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Look up a relation for mutation.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Insert a member into the named relation **in place**, creating the
    /// relation if absent; returns whether the member was new. This is the
    /// loader's and the serving layer's fast path — no per-fact clone of
    /// the whole relation.
    pub fn insert_value(&mut self, name: impl Into<String>, v: Value) -> bool {
        self.relations.entry(name.into()).or_default().insert(v)
    }

    /// Remove a member from the named relation in place; returns whether
    /// it was present. An emptied relation stays registered so its name
    /// keeps resolving.
    pub fn remove_value(&mut self, name: &str, v: &Value) -> bool {
        self.relations.get_mut(name).is_some_and(|r| r.remove(v))
    }

    /// Does a relation with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Relation names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Every atomic-or-structured value that occurs in the database —
    /// members of relations together with all their components. This is
    /// the *active domain*, the finite "window" that domain-independent
    /// queries inspect (paper, Section 4).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        fn walk(v: &Value, out: &mut BTreeSet<Value>) {
            out.insert(v.clone());
            match v {
                Value::Tuple(items) => items.iter().for_each(|x| walk(x, out)),
                Value::Set(items) => items.iter().for_each(|x| walk(x, out)),
                _ => {}
            }
        }
        for rel in self.relations.values() {
            for v in rel.iter() {
                walk(v, &mut out);
            }
        }
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name} = {rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn relation_basics() {
        let mut r = Relation::new();
        assert!(r.is_empty());
        assert!(r.insert(i(1)));
        assert!(!r.insert(i(1)));
        assert!(r.contains(&i(1)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_value(), Value::set([i(1)]));
    }

    #[test]
    fn from_pairs_builds_tuples() {
        let r = Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]);
        assert!(r.contains(&Value::pair(i(1), i(2))));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn relation_iteration_is_sorted() {
        let r = Relation::from_values([i(3), i(1), i(2)]);
        let got: Vec<_> = r.iter().cloned().collect();
        assert_eq!(got, vec![i(1), i(2), i(3)]);
    }

    #[test]
    fn relation_remove_invalidates_index() {
        let mut r = Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]);
        let idx = r.first_index();
        assert!(r.remove(&Value::pair(i(1), i(2))));
        assert!(!r.remove(&Value::pair(i(1), i(2))));
        let idx2 = r.first_index();
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.probe(&i(1)).count(), 0);
    }

    #[test]
    fn database_in_place_mutation() {
        let mut db = Database::new();
        assert!(db.insert_value("e", i(1)));
        assert!(!db.insert_value("e", i(1)));
        assert!(db.insert_value("e", i(2)));
        assert!(db.remove_value("e", &i(1)));
        assert!(!db.remove_value("e", &i(1)));
        assert!(!db.remove_value("missing", &i(1)));
        assert_eq!(db.get("e").unwrap().len(), 1);
        db.get_mut("e").unwrap().insert(i(9));
        assert!(db.get("e").unwrap().contains(&i(9)));
    }

    #[test]
    fn database_lookup() {
        let db = Database::new().with("R", Relation::from_values([i(1)]));
        assert!(db.contains("R"));
        assert!(!db.contains("S"));
        assert_eq!(db.get("R").unwrap().len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R"]);
    }

    #[test]
    fn active_domain_descends_into_structure() {
        let db = Database::new().with(
            "R",
            Relation::from_values([Value::pair(i(1), Value::set([i(2)]))]),
        );
        let dom = db.active_domain();
        assert!(dom.contains(&i(1)));
        assert!(dom.contains(&i(2)));
        assert!(dom.contains(&Value::set([i(2)])));
        assert!(dom.contains(&Value::pair(i(1), Value::set([i(2)]))));
        assert_eq!(dom.len(), 4);
    }

    #[test]
    fn first_index_probes_and_invalidates() {
        let mut r = Relation::from_pairs([(i(1), i(2)), (i(1), i(3)), (i(2), i(3))]);
        let idx = r.first_index();
        assert_eq!(idx.probe(&i(1)).count(), 2);
        assert_eq!(idx.probe(&i(9)).count(), 0);
        // Same cached index until mutation.
        assert!(Arc::ptr_eq(&idx, &r.first_index()));
        r.insert(Value::pair(i(9), i(9)));
        let idx2 = r.first_index();
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.probe(&i(9)).count(), 1);
    }

    #[test]
    fn first_index_uses_product_convention_for_scalars() {
        let r = Relation::from_values([i(5), Value::pair(i(5), i(6))]);
        // Both the bare 5 and the pair starting with 5 key to 5.
        assert_eq!(r.first_index().probe(&i(5)).count(), 2);
    }

    #[test]
    fn index_cache_does_not_affect_equality_or_clone() {
        let r1 = Relation::from_values([i(1), i(2)]);
        let r2 = Relation::from_values([i(1), i(2)]);
        let _ = r1.first_index();
        assert_eq!(r1, r2);
        let r3 = r1.clone();
        assert_eq!(r3, r1);
        assert_eq!(r3.first_index().probe(&i(1)).count(), 1);
    }

    #[test]
    fn display_is_readable() {
        let db = Database::new().with("R", Relation::from_values([i(1), i(2)]));
        assert_eq!(db.to_string(), "R = {1, 2}\n");
    }
}
