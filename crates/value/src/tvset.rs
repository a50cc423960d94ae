//! Three-valued sets.
//!
//! The valid model of Section 2.2 partitions ground membership facts into
//! true (`T`), false (`F`) and undefined. Over a fixed finite universe a
//! three-valued set is therefore fully described by two ordinary sets:
//!
//! * `lower` — the *certain* members (membership is `True`);
//! * `upper` — the *possible* members (`lower ⊆ upper`); membership of an
//!   element outside `upper` is `False`, and membership of an element in
//!   `upper \ lower` is `Unknown`.
//!
//! This is the interval (approximation) representation standard for
//! alternating-fixpoint computations: the evaluation of an `algebra=`
//! program iterates a monotone operator on environments of [`TvSet`]s
//! ordered by *precision* (`lower` grows, `upper` shrinks).

use crate::truth::Truth;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A three-valued set over [`Value`]s: an interval `[lower, upper]` in the
/// powerset lattice with `lower ⊆ upper`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TvSet {
    lower: BTreeSet<Value>,
    upper: BTreeSet<Value>,
}

impl TvSet {
    /// The empty, fully-defined set (no certain and no possible members).
    pub fn empty() -> Self {
        TvSet {
            lower: BTreeSet::new(),
            upper: BTreeSet::new(),
        }
    }

    /// A fully-defined (two-valued) set: every possible member is certain.
    pub fn exact(members: impl IntoIterator<Item = Value>) -> Self {
        let lower: BTreeSet<Value> = members.into_iter().collect();
        TvSet {
            upper: lower.clone(),
            lower,
        }
    }

    /// Build from explicit bounds. Returns `None` if `lower ⊄ upper`
    /// (an ill-formed interval).
    pub fn from_bounds(
        lower: impl IntoIterator<Item = Value>,
        upper: impl IntoIterator<Item = Value>,
    ) -> Option<Self> {
        let lower: BTreeSet<Value> = lower.into_iter().collect();
        let upper: BTreeSet<Value> = upper.into_iter().collect();
        lower.is_subset(&upper).then_some(TvSet { lower, upper })
    }

    /// The maximally-unknown set over a universe: nothing certain,
    /// everything possible. This is the precision-order bottom used to
    /// start the alternating fixpoint.
    pub fn unknown(universe: impl IntoIterator<Item = Value>) -> Self {
        TvSet {
            lower: BTreeSet::new(),
            upper: universe.into_iter().collect(),
        }
    }

    /// Certain members (membership `True`).
    pub fn lower(&self) -> &BTreeSet<Value> {
        &self.lower
    }

    /// Possible members (membership `True` or `Unknown`).
    pub fn upper(&self) -> &BTreeSet<Value> {
        &self.upper
    }

    /// Three-valued membership — the paper's `MEM`, completed by the
    /// disequation `MEM(x, y) ≠ T → MEM(x, y) = F` (Section 2.2): an
    /// element with no possible derivation is certainly out.
    pub fn member(&self, v: &Value) -> Truth {
        if self.lower.contains(v) {
            Truth::True
        } else if self.upper.contains(v) {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// Is this set two-valued (no unknown memberships)? Observable results
    /// of *well-defined* programs (those with an initial valid model,
    /// Definition 2.2) are exactly the two-valued ones.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// The members with `Unknown` status (`upper \ lower`).
    pub fn unknown_members(&self) -> BTreeSet<Value> {
        self.upper.difference(&self.lower).cloned().collect()
    }

    /// Collapse to an ordinary set if exact.
    pub fn to_exact(&self) -> Option<BTreeSet<Value>> {
        self.is_exact().then(|| self.lower.clone())
    }

    /// Number of possible members.
    pub fn upper_len(&self) -> usize {
        self.upper.len()
    }

    /// Number of certain members.
    pub fn lower_len(&self) -> usize {
        self.lower.len()
    }

    /// Precision (information) order: `self ⊑ other` iff `other` is at
    /// least as defined — its lower bound contains ours and its upper bound
    /// is contained in ours. The alternating fixpoint climbs this order.
    pub fn precision_le(&self, other: &TvSet) -> bool {
        self.lower.is_subset(&other.lower) && other.upper.is_subset(&self.upper)
    }

    /// Three-valued union: certain if certain in either; possible if
    /// possible in either.
    pub fn union(&self, other: &TvSet) -> TvSet {
        TvSet {
            lower: self.lower.union(&other.lower).cloned().collect(),
            upper: self.upper.union(&other.upper).cloned().collect(),
        }
    }

    /// Three-valued difference — the operation that makes negation
    /// interesting (Section 3.2). `x ∈ A − B` is:
    /// * `True` iff certainly in `A` and certainly not in `B`;
    /// * `False` iff certainly not in `A` or certainly in `B`;
    /// * `Unknown` otherwise.
    pub fn difference(&self, other: &TvSet) -> TvSet {
        let lower = self
            .lower
            .iter()
            .filter(|v| !other.upper.contains(*v))
            .cloned()
            .collect();
        let upper = self
            .upper
            .iter()
            .filter(|v| !other.lower.contains(*v))
            .cloned()
            .collect();
        TvSet { lower, upper }
    }

    /// Three-valued intersection.
    pub fn intersection(&self, other: &TvSet) -> TvSet {
        TvSet {
            lower: self.lower.intersection(&other.lower).cloned().collect(),
            upper: self.upper.intersection(&other.upper).cloned().collect(),
        }
    }

    /// Three-valued cartesian product of tuple-flattening pairs:
    /// `[a…] × [b…] → [a…, b…]`, treating non-tuple members as 1-tuples.
    /// This matches the paper's relational `×` on sets of tuples.
    pub fn product(&self, other: &TvSet) -> TvSet {
        fn concat(a: &Value, b: &Value) -> Value {
            let mut items: Vec<Value> = match a {
                Value::Tuple(t) => t.clone(),
                other => vec![other.clone()],
            };
            match b {
                Value::Tuple(t) => items.extend(t.iter().cloned()),
                other => items.push(other.clone()),
            }
            Value::Tuple(items)
        }
        let mut lower = BTreeSet::new();
        for a in &self.lower {
            for b in &other.lower {
                lower.insert(concat(a, b));
            }
        }
        let mut upper = BTreeSet::new();
        for a in &self.upper {
            for b in &other.upper {
                upper.insert(concat(a, b));
            }
        }
        TvSet { lower, upper }
    }

    /// Map a three-valued test over the possible members: an element is a
    /// certain member of the selection iff it is a certain member here and
    /// the test is `True`; possible iff possible here and the test is not
    /// `False`.
    pub fn select(&self, mut test: impl FnMut(&Value) -> Truth) -> TvSet {
        let mut lower = BTreeSet::new();
        let mut upper = BTreeSet::new();
        for v in &self.upper {
            let t = test(v);
            if t != Truth::False {
                upper.insert(v.clone());
                if t == Truth::True && self.lower.contains(v) {
                    lower.insert(v.clone());
                }
            }
        }
        TvSet { lower, upper }
    }

    /// Restructure every member (the paper's `MAP_f`). `f` is a total
    /// function on values, so definedness is preserved pointwise; note
    /// that a non-injective `f` may merge an unknown member onto a certain
    /// one, in which case certainty wins (the image *is* certainly there).
    pub fn map(&self, mut f: impl FnMut(&Value) -> Value) -> TvSet {
        let lower: BTreeSet<Value> = self.lower.iter().map(&mut f).collect();
        let upper: BTreeSet<Value> = self.upper.iter().map(&mut f).collect();
        // Certainty wins on merge: lower must stay within upper, which it
        // does (lower ⊆ upper pointwise), and elements certain via some
        // preimage are certain simpliciter.
        TvSet {
            upper: upper.union(&lower).cloned().collect(),
            lower,
        }
    }
}

impl Default for TvSet {
    fn default() -> Self {
        TvSet::empty()
    }
}

impl fmt::Display for TvSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in &self.upper {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if self.lower.contains(v) {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}?")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    #[test]
    fn membership_three_ways() {
        let s = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        assert_eq!(s.member(&i(1)), Truth::True);
        assert_eq!(s.member(&i(2)), Truth::Unknown);
        assert_eq!(s.member(&i(3)), Truth::False);
        assert!(!s.is_exact());
        assert_eq!(s.unknown_members(), [i(2)].into_iter().collect());
    }

    #[test]
    fn ill_formed_interval_rejected() {
        assert!(TvSet::from_bounds([i(1)], [i(2)]).is_none());
    }

    #[test]
    fn exact_sets() {
        let s = TvSet::exact([i(1), i(2)]);
        assert!(s.is_exact());
        assert_eq!(s.to_exact().unwrap().len(), 2);
        assert_eq!(TvSet::empty().member(&i(0)), Truth::False);
    }

    #[test]
    fn union_and_intersection() {
        let a = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        let b = TvSet::from_bounds([i(2)], [i(2), i(3)]).unwrap();
        let u = a.union(&b);
        assert_eq!(u.member(&i(1)), Truth::True);
        assert_eq!(u.member(&i(2)), Truth::True);
        assert_eq!(u.member(&i(3)), Truth::Unknown);
        let n = a.intersection(&b);
        assert_eq!(n.member(&i(2)), Truth::Unknown);
        assert_eq!(n.member(&i(1)), Truth::False);
    }

    #[test]
    fn difference_inverts_definedness() {
        // x ∈ A − B where x's membership in B is unknown is unknown even
        // when x is certainly in A — the Section 3.2 phenomenon.
        let a = TvSet::exact([i(1), i(2)]);
        let b = TvSet::from_bounds([], [i(1)]).unwrap();
        let d = a.difference(&b);
        assert_eq!(d.member(&i(1)), Truth::Unknown);
        assert_eq!(d.member(&i(2)), Truth::True);
    }

    #[test]
    fn difference_certain_removal() {
        let a = TvSet::exact([i(1), i(2)]);
        let b = TvSet::exact([i(2)]);
        let d = a.difference(&b);
        assert_eq!(d.to_exact().unwrap(), [i(1)].into_iter().collect());
    }

    #[test]
    fn product_concatenates_tuples() {
        let a = TvSet::exact([i(1)]);
        let b = TvSet::exact([Value::pair(i(2), i(3))]);
        let p = a.product(&b);
        assert_eq!(
            p.to_exact().unwrap(),
            [Value::tuple([i(1), i(2), i(3)])].into_iter().collect()
        );
    }

    #[test]
    fn product_tracks_possibility() {
        let a = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        let b = TvSet::exact([i(9)]);
        let p = a.product(&b);
        assert_eq!(p.member(&Value::pair(i(1), i(9))), Truth::True);
        assert_eq!(p.member(&Value::pair(i(2), i(9))), Truth::Unknown);
    }

    #[test]
    fn select_three_valued_test() {
        let s = TvSet::from_bounds([i(1), i(2)], [i(1), i(2), i(3)]).unwrap();
        let sel = s.select(|v| match v.as_int().unwrap() {
            1 => Truth::True,
            2 => Truth::Unknown,
            _ => Truth::True,
        });
        assert_eq!(sel.member(&i(1)), Truth::True);
        assert_eq!(sel.member(&i(2)), Truth::Unknown); // certain member, unknown test
        assert_eq!(sel.member(&i(3)), Truth::Unknown); // unknown member, true test
    }

    #[test]
    fn map_merge_prefers_certainty() {
        let s = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        let m = s.map(|_| i(0));
        assert_eq!(m.member(&i(0)), Truth::True);
    }

    #[test]
    fn precision_order() {
        let bot = TvSet::unknown([i(1), i(2)]);
        let mid = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        let top = TvSet::exact([i(1)]);
        assert!(bot.precision_le(&mid));
        assert!(mid.precision_le(&top));
        assert!(bot.precision_le(&top));
        assert!(!top.precision_le(&bot));
        assert!(top.precision_le(&top));
    }

    #[test]
    fn display_marks_unknowns() {
        let s = TvSet::from_bounds([i(1)], [i(1), i(2)]).unwrap();
        assert_eq!(s.to_string(), "{1, 2?}");
    }
}
