//! The fact set of one predicate: a persistent ordered set of rows.
//!
//! A [`FactSet`] is a sorted spine of [`Leaf`]s, each an `Arc`-shared
//! sorted run of at most [`LEAF`] rows. Cloning a set bumps one reference
//! count. Mutating a clone un-shares its spine (a copy of the leaf
//! pointers) and then only the leaf on the mutation's path, so a one-fact
//! write to a large predicate copies O([`LEAF`]) rows, not the
//! predicate.
//!
//! A holder of a clone can therefore tell what a mutation touched by
//! pointer, at two grains: the same spine means the same set, and the
//! same leaf means the same rows. [`set_diff`] and [`FactSet`]'s
//! equality skip pointer-equal leaves without reading a row, and the
//! serving layer keeps one rendered run of lines per leaf.

use algrec_value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Most rows one leaf holds. A full leaf splits in two on insert; a leaf
/// below a quarter of this merges with a neighbour it fits beside.
pub const LEAF: usize = 64;

/// A leaf that has shrunk below this many rows merges with a neighbour
/// when the two fit in one leaf.
const MERGE_BELOW: usize = LEAF / 4;

/// One leaf: a non-empty sorted run of at most [`LEAF`] rows, shared
/// between every set (and clone of a set) that holds it.
pub type Leaf = Arc<Vec<Vec<Value>>>;

/// One predicate's facts: argument vectors in ascending order, without
/// duplicates. Leaves are non-empty, hold at most [`LEAF`] rows each,
/// and every row of a leaf sorts before every row of the next.
#[derive(Clone, Default)]
pub struct FactSet {
    spine: Arc<Vec<Leaf>>,
    len: usize,
}

#[cfg(test)]
thread_local! {
    /// Rows copied on this thread by un-sharing a leaf.
    pub(crate) static ROWS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Row comparisons [`set_diff`] made on this thread.
    pub(crate) static DIFF_COMPARISONS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// Count the rows of a leaf about to be copied because it is shared.
#[cfg(test)]
fn count_copy(leaf: &Leaf) {
    if Arc::strong_count(leaf) > 1 {
        ROWS_COPIED.with(|n| n.set(n.get() + leaf.len()));
    }
}

/// The leaf's rows for mutation, copied first if another set shares it.
fn unshare(leaf: &mut Leaf) -> &mut Vec<Vec<Value>> {
    #[cfg(test)]
    count_copy(leaf);
    Arc::make_mut(leaf)
}

/// The leaf's rows by value, copied if another set shares it.
fn owned(leaf: Leaf) -> Vec<Vec<Value>> {
    #[cfg(test)]
    count_copy(&leaf);
    Arc::unwrap_or_clone(leaf)
}

/// The last row of a leaf (leaves are never empty).
fn last(leaf: &Leaf) -> &Vec<Value> {
    leaf.last().expect("leaves are non-empty")
}

impl FactSet {
    /// A set of ascending, duplicate-free rows, cut into full leaves.
    fn from_sorted(rows: Vec<Vec<Value>>) -> Self {
        let len = rows.len();
        FactSet {
            spine: Arc::new(leaves_of(rows)),
            len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the set hold no row?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaves, in row order.
    pub fn leaves(&self) -> &[Leaf] {
        &self.spine
    }

    /// Do the two handles share their spine? Then they hold the same rows
    /// for as long as both are held: a mutation un-shares the spine first.
    pub fn ptr_eq(a: &FactSet, b: &FactSet) -> bool {
        Arc::ptr_eq(&a.spine, &b.spine)
    }

    /// Every row, in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Vec<Value>> + '_ {
        self.spine.iter().flat_map(|leaf| leaf.iter())
    }

    /// The leaf that holds `row` if any leaf does, and where it goes
    /// otherwise: the first leaf whose last row is not below it, or the
    /// last leaf. `None` for the empty set.
    fn leaf_of(&self, row: &[Value]) -> Option<usize> {
        let k = self
            .spine
            .partition_point(|leaf| last(leaf).as_slice() < row);
        (!self.spine.is_empty()).then(|| k.min(self.spine.len() - 1))
    }

    /// Does the set hold `row`?
    pub fn contains(&self, row: &[Value]) -> bool {
        self.leaf_of(row).is_some_and(|k| {
            self.spine[k]
                .binary_search_by(|r| r.as_slice().cmp(row))
                .is_ok()
        })
    }

    /// Insert a row; returns whether it was new. A row already held
    /// un-shares nothing. A leaf that overflows splits in two.
    pub fn insert(&mut self, row: Vec<Value>) -> bool {
        let Some(k) = self.leaf_of(&row) else {
            *self = FactSet::from_sorted(vec![row]);
            return true;
        };
        let Err(at) = self.spine[k].binary_search(&row) else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.spine);
        let leaf = unshare(&mut spine[k]);
        leaf.insert(at, row);
        if leaf.len() > LEAF {
            let right = leaf.split_off(leaf.len() / 2);
            spine.insert(k + 1, Arc::new(right));
        }
        self.len += 1;
        true
    }

    /// Remove a row; returns whether it was held. A row not held
    /// un-shares nothing. An emptied leaf leaves the spine, and a leaf
    /// that shrinks below a quarter merges with a neighbour it fits
    /// beside.
    pub fn remove(&mut self, row: &[Value]) -> bool {
        let Some(k) = self.leaf_of(row) else {
            return false;
        };
        let Ok(at) = self.spine[k].binary_search_by(|r| r.as_slice().cmp(row)) else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.spine);
        let leaf = unshare(&mut spine[k]);
        leaf.remove(at);
        let size = leaf.len();
        self.len -= 1;
        if size == 0 {
            spine.remove(k);
        } else if size < MERGE_BELOW {
            // Fold the smaller run into its right neighbour, or into its
            // left one at the end of the spine.
            let (left, right) = if k + 1 < spine.len() {
                (k, k + 1)
            } else {
                (k.saturating_sub(1), k)
            };
            if left != right && spine[left].len() + spine[right].len() <= LEAF {
                let moved = owned(spine.remove(right));
                unshare(&mut spine[left]).extend(moved);
            }
        }
        true
    }

    /// Insert a batch of rows, in any order and with duplicates. Only the
    /// leaves a new row falls into are rebuilt; every other leaf stays
    /// shared.
    pub fn extend(&mut self, rows: Vec<Vec<Value>>) {
        let mut rows = sorted(rows);
        rows.retain(|row| !self.contains(row));
        if rows.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = FactSet::from_sorted(rows);
            return;
        }
        self.len += rows.len();
        let old = std::mem::take(Arc::make_mut(&mut self.spine));
        let mut spine = Vec::with_capacity(old.len() + rows.len() / LEAF + 1);
        let (mut rows, count) = (rows.into_iter().peekable(), old.len());
        for (k, leaf) in old.into_iter().enumerate() {
            // A leaf takes the new rows up to its last row, and the last
            // leaf takes the rest.
            let mut merged = Vec::new();
            while let Some(row) = rows.next_if(|row| k + 1 == count || row < last(&leaf)) {
                merged.push(row);
            }
            if merged.is_empty() {
                spine.push(leaf);
                continue;
            }
            merged.extend(owned(leaf));
            merged.sort();
            spine.extend(leaves_of(merged));
        }
        *Arc::make_mut(&mut self.spine) = spine;
    }

    /// The rows whose first argument is `first`, in ascending order: a
    /// prefix range found by binary search over the spine and then one
    /// leaf, with no key built.
    pub fn with_first<'a>(&'a self, first: &'a Value) -> impl Iterator<Item = &'a Vec<Value>> + 'a {
        // The rows that sort before every row starting with `first`.
        let below = |row: &Vec<Value>| row.first() < Some(first);
        let k = self.spine.partition_point(|leaf| below(last(leaf)));
        let at = self
            .spine
            .get(k)
            .map_or(0, |leaf| leaf.partition_point(below));
        self.spine[k..]
            .iter()
            .flat_map(|leaf| leaf.iter())
            .skip(at)
            .take_while(move |row| row.first() == Some(first))
    }
}

/// Sort a batch and drop its duplicates (equal rows are identical, so
/// which of them stays is unobservable).
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Cut ascending, duplicate-free rows into as few leaves as hold them,
/// of as equal sizes as possible.
fn leaves_of(rows: Vec<Vec<Value>>) -> Vec<Leaf> {
    let count = rows.len().div_ceil(LEAF);
    let mut rows = rows.into_iter();
    let mut left = rows.len();
    (0..count)
        .map(|k| {
            let take = left.div_ceil(count - k);
            left -= take;
            Arc::new(rows.by_ref().take(take).collect())
        })
        .collect()
}

impl FromIterator<Vec<Value>> for FactSet {
    /// A bulk build: one sort of the whole batch.
    fn from_iter<I: IntoIterator<Item = Vec<Value>>>(rows: I) -> Self {
        FactSet::from_sorted(sorted(rows.into_iter().collect()))
    }
}

impl PartialEq for FactSet {
    /// Equal sets of equal length walk in lockstep; a leaf the two share
    /// at the same place is skipped unread.
    fn eq(&self, other: &Self) -> bool {
        if FactSet::ptr_eq(self, other) {
            return true;
        }
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (Cursor::of(Some(self)), Cursor::of(Some(other)));
        loop {
            if a.skip_shared(&mut b) {
                continue;
            }
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x == y => {
                    a.bump();
                    b.bump();
                }
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl Eq for FactSet {}

impl fmt::Debug for FactSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A position in a set's rows: a leaf and a row within it.
struct Cursor<'a> {
    leaves: &'a [Leaf],
    leaf: usize,
    row: usize,
}

impl<'a> Cursor<'a> {
    /// The start of `set` (absent = empty).
    fn of(set: Option<&'a FactSet>) -> Self {
        Cursor {
            leaves: set.map_or(&[], |s| s.leaves()),
            leaf: 0,
            row: 0,
        }
    }

    fn peek(&self) -> Option<&'a Vec<Value>> {
        self.leaves.get(self.leaf).map(|leaf| &leaf[self.row])
    }

    fn bump(&mut self) {
        self.row += 1;
        if self.row == self.leaves[self.leaf].len() {
            self.leaf += 1;
            self.row = 0;
        }
    }

    /// When both cursors stand at the start of one shared leaf, step both
    /// past it and say so.
    fn skip_shared(&mut self, other: &mut Cursor<'a>) -> bool {
        let shared = self.row == 0
            && other.row == 0
            && matches!(
                (self.leaves.get(self.leaf), other.leaves.get(other.leaf)),
                (Some(x), Some(y)) if Arc::ptr_eq(x, y)
            );
        if shared {
            self.leaf += 1;
            other.leaf += 1;
        }
        shared
    }
}

/// The rows in exactly one of two fact sets (absent = empty), in order,
/// tagged `true` when they are `a`'s (`a ∖ b`): an ordered merge costing
/// O(|a| + |b|) comparisons over the leaves the two do not share, and
/// none for a shared spine or a shared leaf.
pub fn set_diff<'a>(
    a: Option<&'a FactSet>,
    b: Option<&'a FactSet>,
) -> impl Iterator<Item = (bool, &'a Vec<Value>)> {
    let shared = matches!((a, b), (Some(a), Some(b)) if FactSet::ptr_eq(a, b));
    let (mut a, mut b) = if shared {
        (Cursor::of(None), Cursor::of(None))
    } else {
        (Cursor::of(a), Cursor::of(b))
    };
    std::iter::from_fn(move || loop {
        if a.skip_shared(&mut b) {
            continue;
        }
        let (x, y) = (a.peek(), b.peek());
        let ord = match (x, y) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => {
                #[cfg(test)]
                DIFF_COMPARISONS.with(|n| n.set(n.get() + 1));
                x.cmp(y)
            }
        };
        match ord {
            Ordering::Less => {
                a.bump();
                return x.map(|f| (true, f));
            }
            Ordering::Greater => {
                b.bump();
                return y.map(|f| (false, f));
            }
            Ordering::Equal => {
                a.bump();
                b.bump();
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn row(a: i64, b: i64) -> Vec<Value> {
        vec![Value::int(a), Value::int(b)]
    }

    /// `n` distinct rows over 200 first arguments, in a scattered order.
    fn scattered(n: usize) -> Vec<Vec<Value>> {
        (0..n as i64)
            .map(|k| (k * 7919) % 20_000)
            .map(|k| row(k / 100, k % 100))
            .collect()
    }

    /// The representation invariant: non-empty, bounded, ordered leaves
    /// whose rows number `len`.
    fn check(set: &FactSet) {
        for leaf in set.leaves() {
            assert!(
                !leaf.is_empty() && leaf.len() <= LEAF,
                "leaf of {}",
                leaf.len()
            );
            assert!(leaf.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
        }
        for pair in set.leaves().windows(2) {
            assert!(last(&pair[0]) < &pair[1][0], "leaves out of order");
        }
        assert_eq!(set.iter().count(), set.len());
    }

    /// One step of the model test.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(i64, i64),
        Remove(i64, i64),
        /// Remove every row with this first argument.
        RemoveFirst(i64),
        /// Insert a batch of rows with this first argument.
        Extend(i64, Vec<i64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..200i64, 0..100i64).prop_map(|(a, b)| Op::Insert(a, b)),
            (0..200i64, 0..100i64).prop_map(|(a, b)| Op::Remove(a, b)),
            (0..200i64).prop_map(Op::RemoveFirst),
            (0..200i64, prop::collection::vec(0..100i64, 0..130))
                .prop_map(|(a, bs)| Op::Extend(a, bs)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The set agrees with a `BTreeSet` under random edits, from
        /// every size around a leaf boundary and from a large set: the
        /// same rows in the same order, the same membership and prefix
        /// ranges, equality with a fresh build of the same rows, the same
        /// difference from a clone taken before the edits, and that clone
        /// still holding the old rows.
        #[test]
        fn agrees_with_a_btree_set(
            size in prop::sample::select(&[0usize, 1, 63, 64, 65, 10_000]),
            ops in prop::collection::vec(op(), 0..40),
            probes in prop::collection::vec((0..200i64, 0..100i64), 8),
        ) {
            let rows = scattered(size);
            let mut model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
            let mut set: FactSet = rows.into_iter().collect();
            let before = set.clone();
            let frozen = model.clone();
            for op in ops {
                match op {
                    Op::Insert(a, b) => {
                        prop_assert_eq!(set.insert(row(a, b)), model.insert(row(a, b)));
                    }
                    Op::Remove(a, b) => {
                        prop_assert_eq!(set.remove(&row(a, b)), model.remove(&row(a, b)));
                    }
                    Op::RemoveFirst(a) => {
                        let gone: Vec<Vec<Value>> =
                            set.with_first(&Value::int(a)).cloned().collect();
                        for r in gone {
                            prop_assert!(set.remove(&r));
                            prop_assert!(model.remove(&r));
                        }
                    }
                    Op::Extend(a, bs) => {
                        let batch: Vec<Vec<Value>> = bs.iter().map(|&b| row(a, b)).collect();
                        model.extend(batch.iter().cloned());
                        set.extend(batch);
                    }
                }
                check(&set);
                prop_assert_eq!(set.len(), model.len());
            }
            prop_assert!(set.iter().eq(model.iter()));
            prop_assert!(set.iter().rev().eq(model.iter().rev()));
            for (a, b) in probes {
                prop_assert_eq!(set.contains(&row(a, b)), model.contains(&row(a, b)));
                let first = Value::int(a);
                let range: Vec<&Vec<Value>> = model
                    .range(vec![first.clone()]..)
                    .take_while(|r| r[0] == first)
                    .collect();
                prop_assert_eq!(set.with_first(&first).collect::<Vec<_>>(), range);
            }
            let fresh: FactSet = model.iter().cloned().collect();
            prop_assert_eq!(&set, &fresh);
            prop_assert_eq!(set_diff(Some(&set), Some(&fresh)).count(), 0);
            prop_assert_eq!(set == before, model == frozen);
            // The diff against the pre-edit clone, which shares the
            // leaves no edit reached, is the models' symmetric difference.
            let diff: Vec<(bool, &Vec<Value>)> = set_diff(Some(&set), Some(&before)).collect();
            let expected: Vec<(bool, &Vec<Value>)> = model
                .symmetric_difference(&frozen)
                .map(|r| (model.contains(r), r))
                .collect();
            prop_assert_eq!(diff, expected);
            check(&before);
            prop_assert!(before.iter().eq(frozen.iter()));
        }
    }

    #[test]
    fn leaves_split_merge_and_empty() {
        let mut set: FactSet = (0..LEAF as i64).map(|b| row(0, b)).collect();
        assert_eq!(set.leaves().len(), 1);
        // A full leaf splits in two on the next insert.
        assert!(set.insert(row(0, 1000)));
        assert_eq!(set.leaves().len(), 2);
        check(&set);
        // Draining the right half below a quarter merges it leftwards.
        let right: Vec<Vec<Value>> = set.leaves()[1].iter().skip(8).cloned().collect();
        for r in &right {
            assert!(set.remove(r));
        }
        assert_eq!(set.leaves().len(), 1);
        check(&set);
        // A single-leaf set that empties leaves no leaf behind.
        let all: Vec<Vec<Value>> = set.iter().cloned().collect();
        for r in &all {
            assert!(set.remove(r));
        }
        assert!(set.is_empty() && set.leaves().is_empty());
        // A leaf emptied in the middle of a spine leaves the spine.
        let mut set: FactSet = (0..3 * LEAF as i64).map(|b| row(b / 64, b)).collect();
        assert_eq!(set.leaves().len(), 3);
        let middle: Vec<Vec<Value>> = set.with_first(&Value::int(1)).cloned().collect();
        for r in &middle {
            assert!(set.remove(r));
        }
        check(&set);
        assert!(set.leaves().len() < 3);
    }

    #[test]
    fn a_one_row_write_copies_one_leaf() {
        let big: FactSet = scattered(10_000).into_iter().collect();
        let mut set = big.clone();
        ROWS_COPIED.with(|n| n.set(0));
        let held = big.leaves()[100][3].clone();
        assert!(set.insert(row(7, 1000)));
        assert!(set.remove(&held));
        let copied = ROWS_COPIED.with(std::cell::Cell::get);
        assert!(copied > 0 && copied <= 2 * LEAF, "copied {copied} rows");
        let shared = set
            .leaves()
            .iter()
            .filter(|l| big.leaves().iter().any(|m| Arc::ptr_eq(l, m)))
            .count();
        assert!(shared + 3 >= set.leaves().len(), "{shared} leaves shared");
        // A row already held, or never held, un-shares nothing.
        let mut again = big.clone();
        assert!(!again.insert(held));
        assert!(!again.remove(&row(999, 0)));
        assert!(FactSet::ptr_eq(&again, &big));
    }
}
