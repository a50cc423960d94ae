//! Interpretations: assignments of fact sets to predicates.
//!
//! A two-valued [`Interp`] is the output of the minimal-model, stratified
//! and inflationary semantics; a [`ThreeValued`] interpretation — a pair of
//! `Interp`s, certain ⊆ possible — is the output of the well-founded and
//! valid semantics (the `(T, F, undefined)` partition of Section 2.2,
//! with `F` represented implicitly as "not possible").

use crate::ast::Atom;
pub use crate::factset::{set_diff, FactSet};
use algrec_value::{ColumnIndex, Database, Relation, Truth, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A ground fact: predicate name plus argument values.
pub type Fact = (String, Vec<Value>);

/// A two-valued interpretation: for each predicate, the set of argument
/// vectors that hold.
///
/// Each predicate's facts are a persistent [`FactSet`]: a spine of
/// `Arc`-shared leaves of at most [`LEAF`](crate::factset::LEAF) rows.
/// Cloning an interpretation — which the evaluators do at every stratum
/// boundary, in [`ThreeValued::exact`], and which the serving layer does
/// for every write's old state and every published answer — costs one
/// reference bump per predicate. A clone that is subsequently mutated
/// copies the mutated predicate's spine of leaf pointers and the one
/// leaf each mutation lands in, never the predicate's other rows.
///
/// A bound first argument is looked up two ways. The ordered fact set
/// itself answers it by prefix range ([`Interp::facts_with_first`],
/// O(log n + answers)) and, being the facts, survives every mutation.
/// Alongside it the interpretation caches a hash [`ColumnIndex`] over
/// each predicate's first argument (interned keys), built by
/// [`Interp::first_index`] and dropped when the predicate is mutated;
/// building one clones every row, so the matcher asks for it only from a
/// firing that probes at least once per row (`engine`'s
/// `Firing::pays_for_index`) and otherwise uses whatever
/// [`Interp::cached_first_index`] finds or the prefix range. A cold
/// round therefore probes by hash as it always did, and a single-fact
/// write to a maintained view builds no index at all. Like the cache on
/// [`Relation`], the index is derived state: ignored by `Clone`-equality
/// semantics, `PartialEq`, `Debug` and `Display`. The cache lives behind
/// a `Mutex` (not a `RefCell`) so a shared `&Interp` can be probed from
/// parallel fixpoint workers; the lock is held only for the cache
/// lookup/insert, never across a probe.
#[derive(Default)]
pub struct Interp {
    preds: BTreeMap<String, FactSet>,
    first_index: Mutex<HashMap<String, Arc<ColumnIndex<Vec<Value>>>>>,
}

impl Clone for Interp {
    fn clone(&self) -> Self {
        Interp {
            preds: self.preds.clone(),
            first_index: Mutex::new(
                self.first_index
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

impl PartialEq for Interp {
    fn eq(&self, other: &Self) -> bool {
        self.preds == other.preds
    }
}

impl Eq for Interp {}

impl fmt::Debug for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("preds", &self.preds)
            .finish()
    }
}

impl Interp {
    /// The empty interpretation.
    pub fn new() -> Self {
        Interp::default()
    }

    /// Load the extensional database: each relation's members become
    /// facts. A member that is a tuple `[a, b, …]` becomes the fact
    /// `R(a, b, …)`; a non-tuple member `v` becomes the unary fact `R(v)`
    /// (so `v` and `[v]` are one fact). Each non-empty relation is one
    /// [`Interp::insert_all`], a sorted bulk build; an empty relation
    /// gets no entry.
    pub fn from_database(db: &Database) -> Self {
        let mut out = Interp::new();
        for (name, rel) in db.iter() {
            out.insert_all(name, rel.iter().map(tuple_args).collect());
        }
        out
    }

    /// Insert a fact; returns whether it was new. Invalidates the
    /// predicate's cached first-argument index.
    pub fn insert(&mut self, pred: &str, args: Vec<Value>) -> bool {
        match self.preds.get_mut(pred) {
            Some(set) => {
                if !set.insert(args) {
                    return false;
                }
            }
            None => {
                self.preds
                    .insert(pred.to_string(), FactSet::from_iter([args]));
            }
        }
        self.index_cache_mut().remove(pred);
        true
    }

    /// Insert a batch of facts for one predicate. Equivalent to repeated
    /// [`Interp::insert`], but a predicate seen for the first time is
    /// bulk-built from the whole batch (one sort instead of per-fact
    /// B-tree inserts) — the fast path for materializing a freshly
    /// computed relation.
    pub fn insert_all(&mut self, pred: &str, rows: Vec<Vec<Value>>) {
        if rows.is_empty() {
            return;
        }
        match self.preds.get_mut(pred) {
            None => {
                self.preds
                    .insert(pred.to_string(), rows.into_iter().collect());
            }
            Some(set) => set.extend(rows),
        }
        self.index_cache_mut().remove(pred);
    }

    /// Remove a fact; returns whether it was present. Invalidates the
    /// predicate's cached first-argument index. Used by incremental view
    /// maintenance (DRed's over-deletion pass); the batch fixpoint engines
    /// only ever grow interpretations.
    pub fn remove(&mut self, pred: &str, args: &[Value]) -> bool {
        let Some(set) = self.preds.get_mut(pred) else {
            return false;
        };
        if !set.remove(args) {
            return false;
        }
        if set.is_empty() {
            self.preds.remove(pred);
        }
        self.index_cache_mut().remove(pred);
        true
    }

    /// Does the fact hold?
    pub fn holds(&self, pred: &str, args: &[Value]) -> bool {
        self.preds.get(pred).is_some_and(|s| s.contains(args))
    }

    /// The fact set of one predicate (empty if absent).
    pub fn facts(&self, pred: &str) -> impl Iterator<Item = &Vec<Value>> {
        self.preds.get(pred).into_iter().flat_map(|s| s.iter())
    }

    /// The facts of `pred` whose first argument equals `first` — a prefix
    /// range over the ordered fact set ([`FactSet::with_first`]), so
    /// matching a bound first column costs O(log n + answers) instead of
    /// a full scan and allocates nothing. Needs no derived state, so it
    /// is the probe of a freshly mutated predicate; it yields the same
    /// facts in the same order as the hash index.
    pub fn facts_with_first<'a>(
        &'a self,
        pred: &str,
        first: &'a Value,
    ) -> impl Iterator<Item = &'a Vec<Value>> + 'a {
        self.preds
            .get(pred)
            .into_iter()
            .flat_map(move |set| set.with_first(first))
    }

    /// The first-argument index of this predicate if one is cached —
    /// never builds. A predicate mutated since its last
    /// [`Interp::first_index`] has none; the matcher then probes by
    /// [`Interp::facts_with_first`] unless the firing is large enough to
    /// pay for a build.
    pub fn cached_first_index(&self, pred: &str) -> Option<Arc<ColumnIndex<Vec<Value>>>> {
        self.first_index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(pred)
            .cloned()
    }

    /// Exclusive access to the index cache (we hold `&mut self`, so the
    /// lock cannot be contended; a poisoned cache is just a cache).
    fn index_cache_mut(&mut self) -> &mut HashMap<String, Arc<ColumnIndex<Vec<Value>>>> {
        self.first_index
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The lazily built hash index over one predicate's first argument,
    /// keyed by interned value ids. Zero-arity facts have no first
    /// argument and are skipped (they can never match a bound-first
    /// probe). Subsequent calls return the same cached index until the
    /// predicate is mutated; probing is the matcher's fast path when a
    /// positive literal's leading argument is already ground.
    pub fn first_index(&self, pred: &str) -> Arc<ColumnIndex<Vec<Value>>> {
        // Hold the lock across the build so concurrent probes of the
        // same cold predicate build the index once, not once per worker.
        let mut cache = self.first_index.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = cache.get(pred) {
            return idx.clone();
        }
        let idx = Arc::new(ColumnIndex::build_skipping(
            self.facts(pred).cloned(),
            |args: &Vec<Value>| args.first(),
            true,
        ));
        cache.insert(pred.to_string(), idx.clone());
        idx
    }

    /// Number of facts for one predicate.
    pub fn count(&self, pred: &str) -> usize {
        self.preds.get(pred).map_or(0, |s| s.len())
    }

    /// Total number of facts.
    pub fn total(&self) -> usize {
        self.preds.values().map(|s| s.len()).sum()
    }

    /// Predicates with at least one fact.
    pub fn preds(&self) -> impl Iterator<Item = &str> {
        self.preds.keys().map(String::as_str)
    }

    /// One predicate's fact set behind its copy-on-write handle (see
    /// [`Interp::fact_sets`]); `None` when the predicate has no facts.
    pub fn fact_set(&self, pred: &str) -> Option<&FactSet> {
        self.preds.get(pred)
    }

    /// Every predicate's fact set behind its copy-on-write handle. A
    /// holder of a clone of the handle can tell an untouched predicate
    /// from a mutated one by pointer ([`FactSet::ptr_eq`]), and an
    /// untouched leaf from a mutated one the same way: mutating a shared
    /// set un-shares its spine and the leaf mutated first, so the same
    /// pointer means the same facts for as long as the clone is held.
    pub fn fact_sets(&self) -> impl Iterator<Item = (&str, &FactSet)> {
        self.preds.iter().map(|(p, set)| (p.as_str(), set))
    }

    /// The facts in exactly one of `self` and `other`, tagged `true` when
    /// they are `self`'s: [`set_diff`] per predicate.
    pub fn diff<'a>(
        &'a self,
        other: &'a Interp,
    ) -> impl Iterator<Item = (&'a str, bool, &'a Vec<Value>)> {
        let preds: BTreeSet<&str> = self.preds().chain(other.preds()).collect();
        preds.into_iter().flat_map(move |p| {
            set_diff(self.fact_set(p), other.fact_set(p)).map(move |(mine, f)| (p, mine, f))
        })
    }

    /// Merge all facts of `other` into `self`; returns the number of new
    /// facts.
    pub fn absorb(&mut self, other: &Interp) -> usize {
        let mut added = 0;
        for (pred, facts) in &other.preds {
            match self.preds.get_mut(pred) {
                None => {
                    // Share the whole set (copy-on-write): no fact copies.
                    self.preds.insert(pred.clone(), facts.clone());
                    added += facts.len();
                    self.index_cache_mut().remove(pred);
                }
                Some(entry) if FactSet::ptr_eq(entry, facts) => {}
                Some(entry) => {
                    // Un-share only if something is actually new, and
                    // then only the leaves it lands in.
                    let new: Vec<Vec<Value>> = facts
                        .iter()
                        .filter(|f| !entry.contains(f))
                        .cloned()
                        .collect();
                    if !new.is_empty() {
                        added += new.len();
                        entry.extend(new);
                        self.index_cache_mut().remove(pred);
                    }
                }
            }
        }
        added
    }

    /// Is `self` a subset of `other` (pointwise)?
    pub fn is_subset(&self, other: &Interp) -> bool {
        self.diff(other).all(|(_, mine, _)| !mine)
    }

    /// Iterate every fact.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Vec<Value>)> {
        self.preds
            .iter()
            .flat_map(|(p, fs)| fs.iter().map(move |f| (p.as_str(), f)))
    }

    /// Extract a predicate's facts as a [`Relation`] of tuple values
    /// (unary facts become bare values).
    pub fn to_relation(&self, pred: &str) -> Relation {
        Relation::from_values(self.facts(pred).map(|args| args_tuple(args)))
    }

    /// Remove all facts of one predicate.
    pub fn clear_pred(&mut self, pred: &str) {
        self.preds.remove(pred);
        self.index_cache_mut().remove(pred);
    }

    /// The facts of the predicates in `preds`, sharing this
    /// interpretation's handles: O(predicates), no fact copied.
    pub fn restrict(&self, preds: &BTreeSet<String>) -> Interp {
        let mut out = Interp::new();
        for pred in preds {
            if let Some(set) = self.preds.get(pred) {
                out.preds.insert(pred.clone(), set.clone());
            }
        }
        out
    }

    /// Make `pred` hold exactly `other`'s facts of it, sharing `other`'s
    /// handle (so a [`set_diff`] against `other` skips it unread).
    pub(crate) fn share_pred(&mut self, pred: &str, other: &Interp) {
        match other.preds.get(pred) {
            Some(set) => self.preds.insert(pred.to_string(), set.clone()),
            None => self.preds.remove(pred),
        };
        self.index_cache_mut().remove(pred);
    }
}

impl fmt::Display for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pred, facts) in &self.preds {
            for args in facts.iter() {
                write!(f, "{pred}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

/// Convert a relation member into a fact argument vector: tuples spread
/// into columns, other values become a single column.
pub fn tuple_args(v: &Value) -> Vec<Value> {
    match v {
        Value::Tuple(items) => items.clone(),
        other => vec![other.clone()],
    }
}

/// Inverse of [`tuple_args`]: a 1-column fact is a bare value, wider facts
/// are tuples.
pub fn args_tuple(args: &[Value]) -> Value {
    if args.len() == 1 {
        args[0].clone()
    } else {
        Value::Tuple(args.to_vec())
    }
}

/// A three-valued interpretation: certain facts (true) and possible facts
/// (true or undefined); everything else is false. This is the paper's
/// `(T, F, undefined)` partition over the materialized fact window.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct ThreeValued {
    /// Certainly-true facts (the paper's `T`).
    pub certain: Interp,
    /// Possibly-true facts (complement of the paper's `F` within the
    /// window); invariant: `certain ⊆ possible`.
    pub possible: Interp,
}

impl ThreeValued {
    /// A fully-two-valued interpretation (no unknowns).
    pub fn exact(i: Interp) -> Self {
        ThreeValued {
            certain: i.clone(),
            possible: i,
        }
    }

    /// Three-valued truth of a fact.
    pub fn truth(&self, pred: &str, args: &[Value]) -> Truth {
        if self.certain.holds(pred, args) {
            Truth::True
        } else if self.possible.holds(pred, args) {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// Truth of an atom given ground argument values, by name.
    pub fn truth_of(&self, atom: &Atom, args: &[Value]) -> Truth {
        self.truth(&atom.pred, args)
    }

    /// Is the whole interpretation two-valued? This is the paper's
    /// *well-definedness*: the program has an initial valid model iff the
    /// valid interpretation is total on the observables (Definition 2.2
    /// and the discussion in Section 3.2).
    pub fn is_exact(&self) -> bool {
        self.certain == self.possible
    }

    /// The undefined facts (possible but not certain), in canonical
    /// order: `possible ∖ certain` by one ordered walk per predicate,
    /// which skips a predicate whose fact set the two sides share — so an
    /// exact model whose sides share their sets lists nothing unread.
    pub fn unknown_facts(&self) -> Vec<Fact> {
        self.possible
            .diff(&self.certain)
            .filter(|&(_, mine, _)| mine)
            .map(|(p, _, args)| (p.to_string(), args.clone()))
            .collect()
    }

    /// Number of undefined facts.
    pub fn unknown_count(&self) -> usize {
        self.possible.total() - self.certain.total()
    }

    /// Check the representation invariant.
    pub fn invariant_holds(&self) -> bool {
        self.certain.is_subset(&self.possible)
    }
}

impl fmt::Display for ThreeValued {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- certain --")?;
        write!(f, "{}", self.certain)?;
        let unknowns = self.unknown_facts();
        if !unknowns.is_empty() {
            writeln!(f, "-- unknown --")?;
            for (p, args) in unknowns {
                write!(f, "{p}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ")?")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factset::{DIFF_COMPARISONS, LEAF, ROWS_COPIED};
    use proptest::prelude::*;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn insert_and_holds() {
        let mut m = Interp::new();
        assert!(m.insert("p", vec![i(1)]));
        assert!(!m.insert("p", vec![i(1)]));
        assert!(m.holds("p", &[i(1)]));
        assert!(!m.holds("p", &[i(2)]));
        assert!(!m.holds("q", &[i(1)]));
        assert_eq!(m.count("p"), 1);
        assert_eq!(m.total(), 1);
    }

    #[test]
    fn remove_deletes_and_invalidates() {
        let mut m = Interp::new();
        m.insert("p", vec![i(1), i(2)]);
        m.insert("p", vec![i(3), i(4)]);
        let _ = m.first_index("p");
        assert!(m.cached_first_index("p").is_some());
        assert!(m.remove("p", &[i(1), i(2)]));
        assert!(!m.remove("p", &[i(1), i(2)]));
        assert!(m.cached_first_index("p").is_none(), "index invalidated");
        assert!(!m.holds("p", &[i(1), i(2)]));
        assert!(m.holds("p", &[i(3), i(4)]));
        assert!(m.remove("p", &[i(3), i(4)]));
        // Emptied predicate disappears entirely.
        assert_eq!(m.preds().count(), 0);
        assert!(!m.remove("q", &[i(1)]));
    }

    #[test]
    fn from_database_spreads_tuples() {
        let db = Database::new()
            .with("e", Relation::from_pairs([(i(1), i(2))]))
            .with("u", Relation::from_values([i(7)]));
        let m = Interp::from_database(&db);
        assert!(m.holds("e", &[i(1), i(2)]));
        assert!(m.holds("u", &[i(7)]));
    }

    /// A random database member: bare scalars, tuples of width 0 to 3
    /// (the 1-tuple `[v]` next to the bare `v`), nested tuples and sets.
    fn member() -> impl Strategy<Value = Value> {
        let scalar = prop_oneof![
            (-2..3i64).prop_map(Value::int),
            any::<bool>().prop_map(Value::Bool),
            prop::sample::select(&["a", "b"]).prop_map(Value::str),
        ];
        prop_oneof![
            scalar.clone(),
            prop::collection::vec(scalar.clone(), 0..4).prop_map(Value::Tuple),
            (scalar.clone(), scalar.clone())
                .prop_map(|(a, b)| Value::tuple([Value::tuple([a]), b])),
            prop::collection::vec(scalar, 0..3).prop_map(Value::set),
        ]
    }

    proptest! {
        /// The bulk load builds the interpretation the per-fact
        /// [`Interp::insert`] loop builds: the same tuple spreading, the
        /// same dedup of `v` and `[v]`, and no entry for an empty
        /// relation.
        #[test]
        fn from_database_matches_per_fact_inserts(
            rels in prop::collection::vec(
                (prop::sample::select(&["e", "p", "q"]), prop::collection::vec(member(), 0..8)),
                0..5,
            ),
        ) {
            let mut db = Database::new();
            for (name, members) in rels {
                db.set(name, Relation::from_values(members));
            }
            let mut per_fact = Interp::new();
            for (name, rel) in db.iter() {
                for v in rel.iter() {
                    per_fact.insert(name, tuple_args(v));
                }
            }
            let bulk = Interp::from_database(&db);
            prop_assert_eq!(&bulk, &per_fact);
            let non_empty: Vec<&str> = db
                .iter()
                .filter(|(_, rel)| !rel.is_empty())
                .map(|(name, _)| name)
                .collect();
            prop_assert_eq!(bulk.preds().collect::<Vec<_>>(), non_empty);
        }
    }

    #[test]
    fn to_relation_round_trip() {
        let db = Database::new().with("e", Relation::from_pairs([(i(1), i(2)), (i(2), i(3))]));
        let m = Interp::from_database(&db);
        assert_eq!(&m.to_relation("e"), db.get("e").unwrap());
    }

    #[test]
    fn absorb_counts_new() {
        let mut a = Interp::new();
        a.insert("p", vec![i(1)]);
        let mut b = Interp::new();
        b.insert("p", vec![i(1)]);
        b.insert("p", vec![i(2)]);
        b.insert("q", vec![i(3)]);
        assert_eq!(a.absorb(&b), 2);
        assert_eq!(a.total(), 3);
        assert!(b.is_subset(&a));
    }

    #[test]
    fn subset_checks() {
        let mut a = Interp::new();
        a.insert("p", vec![i(1)]);
        let mut b = a.clone();
        b.insert("p", vec![i(2)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(Interp::new().is_subset(&a));
    }

    #[test]
    fn three_valued_truth() {
        let mut certain = Interp::new();
        certain.insert("p", vec![i(1)]);
        let mut possible = certain.clone();
        possible.insert("p", vec![i(2)]);
        let tv = ThreeValued { certain, possible };
        assert!(tv.invariant_holds());
        assert_eq!(tv.truth("p", &[i(1)]), Truth::True);
        assert_eq!(tv.truth("p", &[i(2)]), Truth::Unknown);
        assert_eq!(tv.truth("p", &[i(3)]), Truth::False);
        assert!(!tv.is_exact());
        assert_eq!(tv.unknown_count(), 1);
        assert_eq!(tv.unknown_facts(), vec![("p".to_string(), vec![i(2)])]);
    }

    #[test]
    fn an_exact_model_lists_its_unknowns_unread() {
        let mut m = Interp::new();
        m.insert_all("p", (0..10_000).map(|n| vec![i(n)]).collect());
        let tv = ThreeValued::exact(m);
        DIFF_COMPARISONS.with(|n| n.set(0));
        assert!(tv.unknown_facts().is_empty());
        assert_eq!(DIFF_COMPARISONS.with(std::cell::Cell::get), 0);
    }

    #[test]
    fn exact_three_valued() {
        let mut m = Interp::new();
        m.insert("p", vec![i(1)]);
        let tv = ThreeValued::exact(m);
        assert!(tv.is_exact());
        assert_eq!(tv.unknown_count(), 0);
    }

    #[test]
    fn args_tuple_round_trip() {
        assert_eq!(args_tuple(&[i(1)]), i(1));
        assert_eq!(args_tuple(&[i(1), i(2)]), Value::pair(i(1), i(2)));
        assert_eq!(tuple_args(&Value::pair(i(1), i(2))), vec![i(1), i(2)]);
        assert_eq!(tuple_args(&i(5)), vec![i(5)]);
    }

    #[test]
    fn first_index_probes_and_invalidates() {
        let mut m = Interp::new();
        m.insert("e", vec![i(1), i(2)]);
        m.insert("e", vec![i(1), i(3)]);
        m.insert("e", vec![i(2), i(3)]);
        let idx = m.first_index("e");
        assert_eq!(idx.probe(&i(1)).count(), 2);
        assert_eq!(idx.probe(&i(9)).count(), 0);
        assert!(Arc::ptr_eq(&idx, &m.first_index("e")));
        m.insert("e", vec![i(9), i(9)]);
        let idx2 = m.first_index("e");
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.probe(&i(9)).count(), 1);
        // Probing one predicate must not see another's facts.
        assert_eq!(m.first_index("p").probe(&i(1)).count(), 0);
    }

    #[test]
    fn first_index_agrees_with_range_probe() {
        let mut m = Interp::new();
        for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 1)] {
            m.insert("e", vec![i(a), i(b)]);
        }
        for key in 0..4 {
            let via_index: Vec<Vec<Value>> = m.first_index("e").probe(&i(key)).cloned().collect();
            let via_range: Vec<Vec<Value>> = m.facts_with_first("e", &i(key)).cloned().collect();
            assert_eq!(via_index, via_range, "key {key}");
        }
    }

    #[test]
    fn index_cache_invisible_to_equality_and_clone() {
        let mut a = Interp::new();
        a.insert("p", vec![i(1)]);
        let b = a.clone();
        let _ = a.first_index("p");
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c.first_index("p").probe(&i(1)).count(), 1);
    }

    /// The per-fact lookup count the walk replaces: the size of the
    /// symmetric difference of two interpretations.
    fn lookup_diff(a: &Interp, b: &Interp) -> usize {
        a.iter().filter(|(p, f)| !b.holds(p, f)).count()
            + b.iter().filter(|(p, f)| !a.holds(p, f)).count()
    }

    proptest! {
        /// The walk agrees with per-fact lookups on random pairs: `b` is
        /// either built afresh (no shared handle) or a clone of `a` with a
        /// few edits (the edited predicates un-shared, the rest shared),
        /// and predicates present on one side only or on neither occur.
        #[test]
        fn diff_agrees_with_lookups(
            facts in prop::collection::vec((0..3usize, 0..4i64, 0..4i64), 0..12),
            edits in prop::collection::vec((any::<bool>(), 0..3usize, 0..4i64, 0..4i64), 0..6),
            fresh in any::<bool>(),
        ) {
            const PREDS: [&str; 3] = ["p", "q", "r"];
            let mut a = Interp::new();
            for &(p, x, y) in &facts {
                a.insert(PREDS[p], vec![i(x), i(y)]);
            }
            let mut b = if fresh {
                let mut b = Interp::new();
                for (p, f) in a.iter() {
                    b.insert(p, f.clone());
                }
                b
            } else {
                a.clone()
            };
            for &(ins, p, x, y) in &edits {
                if ins {
                    b.insert(PREDS[p], vec![i(x), i(y)]);
                } else {
                    b.remove(PREDS[p], &[i(x), i(y)]);
                }
            }
            prop_assert_eq!(a.diff(&b).count(), lookup_diff(&a, &b));
            for (p, mine, f) in a.diff(&b) {
                prop_assert_eq!(mine, a.holds(p, f));
                prop_assert_eq!(!mine, b.holds(p, f));
            }
            for p in PREDS {
                let minus: Vec<&Vec<Value>> = set_diff(a.fact_set(p), b.fact_set(p))
                    .filter_map(|(mine, f)| mine.then_some(f))
                    .collect();
                let lookups: Vec<&Vec<Value>> = a.facts(p).filter(|f| !b.holds(p, f)).collect();
                prop_assert_eq!(minus, lookups);
            }
        }
    }

    #[test]
    fn diff_of_empty_interpretations() {
        let (mut a, empty) = (Interp::new(), Interp::new());
        assert_eq!(a.diff(&empty).count(), 0);
        a.insert("p", vec![i(1)]);
        let only: Vec<_> = a.diff(&empty).collect();
        assert_eq!(only, vec![("p", true, &vec![i(1)])]);
        let only: Vec<_> = empty.diff(&a).collect();
        assert_eq!(only, vec![("p", false, &vec![i(1)])]);
    }

    #[test]
    fn a_pointer_shared_predicate_costs_no_comparison() {
        let mut a = Interp::new();
        a.insert_all("big", (0..10_000).map(|n| vec![i(n)]).collect());
        a.insert("small", vec![i(1)]);
        let mut b = a.clone();
        b.insert("small", vec![i(2)]);
        DIFF_COMPARISONS.with(|n| n.set(0));
        assert_eq!(a.diff(&b).count(), 1);
        assert_eq!(
            DIFF_COMPARISONS.with(std::cell::Cell::get),
            1,
            "only `small` is read"
        );
        // One touched leaf of a shared predicate is the only one read.
        b.remove("big", &[i(5_000)]);
        b.insert("big", vec![i(5_000)]);
        DIFF_COMPARISONS.with(|n| n.set(0));
        assert_eq!(a.diff(&b).count(), 1);
        let read = DIFF_COMPARISONS.with(std::cell::Cell::get);
        assert!((1..=2 * LEAF).contains(&read), "{read} comparisons");
        // The same facts built afresh share no leaf and are walked.
        let mut c = Interp::new();
        c.insert_all("big", (0..10_000).map(|n| vec![i(n)]).collect());
        DIFF_COMPARISONS.with(|n| n.set(0));
        assert_eq!(set_diff(a.fact_set("big"), c.fact_set("big")).count(), 0);
        assert!(DIFF_COMPARISONS.with(std::cell::Cell::get) >= 10_000);
    }

    /// A one-fact write to a 10 000-fact predicate of a cloned
    /// interpretation copies one leaf, and comparing the two
    /// interpretations reads one leaf a side.
    #[test]
    fn a_one_fact_write_copies_and_compares_one_leaf() {
        let mut old = Interp::new();
        old.insert_all("big", (0..10_000).map(|n| vec![i(2 * n)]).collect());
        for (edit, fact) in [(true, 777), (false, 778)] {
            let mut new = old.clone();
            ROWS_COPIED.with(|n| n.set(0));
            if edit {
                assert!(new.insert("big", vec![i(fact)]));
            } else {
                assert!(new.remove("big", &[i(fact)]));
            }
            let copied = ROWS_COPIED.with(std::cell::Cell::get);
            assert!((1..=LEAF).contains(&copied), "copied {copied} rows");
            DIFF_COMPARISONS.with(|n| n.set(0));
            assert_eq!(
                new.diff(&old).collect::<Vec<_>>(),
                vec![("big", edit, &vec![i(fact)])]
            );
            let read = DIFF_COMPARISONS.with(std::cell::Cell::get);
            assert!((1..=2 * LEAF).contains(&read), "{read} comparisons");
            DIFF_COMPARISONS.with(|n| n.set(0));
            assert_ne!(new, old);
            assert_eq!(DIFF_COMPARISONS.with(std::cell::Cell::get), 0);
        }
    }

    #[test]
    fn display_facts() {
        let mut m = Interp::new();
        m.insert("p", vec![i(1), i(2)]);
        assert_eq!(m.to_string(), "p(1, 2).\n");
    }
}
