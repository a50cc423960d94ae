//! Sorted immutable runs of `u32` rows.
//!
//! A [`Run`] holds a deduplicated set of rows in ascending lexicographic
//! order (shorter prefixes first). Two layouts share one interface:
//!
//! * **Packed** — every row has arity ≤ 2 and every id fits `u32::MAX -
//!   1`; a row becomes one `u64` key, `(a+1) << 32 | (b+1)` with a
//!   missing column packing as `0`. Key order coincides with row order,
//!   so sorting and deduplicating are integer-slice operations.
//! * **Rows** — arbitrary (possibly mixed) arity: one contiguous id
//!   array plus an offsets table, compared as slices.
//!
//! [`RunBuilder`] accumulates unsorted rows and [`RunBuilder::finish`]
//! sorts and deduplicates once, choosing the layout automatically.

/// Largest id the packed layout can hold (`id + 1` must fit in 32 bits).
pub const PACK_MAX: u32 = u32::MAX - 1;

#[derive(Clone, PartialEq, Eq, Debug)]
enum Layout {
    Packed(Vec<u64>),
    Rows { data: Vec<u32>, offsets: Vec<u32> },
}

/// An immutable sorted run of deduplicated `u32` rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Run {
    layout: Layout,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            layout: Layout::Packed(Vec::new()),
        }
    }
}

#[inline]
fn pack_row(row: &[u32]) -> Option<u64> {
    match *row {
        [] => Some(0),
        [a] if a <= PACK_MAX => Some((u64::from(a) + 1) << 32),
        [a, b] if a <= PACK_MAX && b <= PACK_MAX => {
            Some(((u64::from(a) + 1) << 32) | (u64::from(b) + 1))
        }
        _ => None,
    }
}

#[inline]
fn unpack_key(key: u64, buf: &mut [u32; 2]) -> &[u32] {
    let hi = (key >> 32) as u32;
    let lo = key as u32;
    if hi == 0 {
        return &buf[..0];
    }
    buf[0] = hi - 1;
    if lo == 0 {
        return &buf[..1];
    }
    buf[1] = lo - 1;
    &buf[..2]
}

/// Accumulates rows in any order; [`finish`](RunBuilder::finish) sorts,
/// deduplicates and picks the layout.
#[derive(Default, Clone, Debug)]
pub struct RunBuilder {
    /// Packed keys while every row fits; `None` once a row forced the
    /// general layout.
    keys: Option<Vec<u64>>,
    rows: Vec<Vec<u32>>,
}

impl RunBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        RunBuilder {
            keys: Some(Vec::new()),
            rows: Vec::new(),
        }
    }

    /// Append one row (duplicates are fine — `finish` deduplicates).
    pub fn push(&mut self, row: &[u32]) {
        if let Some(keys) = &mut self.keys {
            if let Some(k) = pack_row(row) {
                keys.push(k);
                return;
            }
            // A wide row demotes the whole builder to the general
            // layout; re-expand what was packed so far.
            let packed = std::mem::take(keys);
            self.keys = None;
            let mut buf = [0u32; 2];
            for k in packed {
                self.rows.push(unpack_key(k, &mut buf).to_vec());
            }
        }
        self.rows.push(row.to_vec());
    }

    /// Sort, deduplicate and freeze into a [`Run`].
    pub fn finish(self) -> Run {
        match self.keys {
            Some(mut keys) => {
                keys.sort_unstable();
                keys.dedup();
                Run {
                    layout: Layout::Packed(keys),
                }
            }
            None => {
                let mut rows = self.rows;
                rows.sort_unstable();
                rows.dedup();
                let mut data = Vec::new();
                let mut offsets = Vec::with_capacity(rows.len() + 1);
                offsets.push(0u32);
                for row in &rows {
                    data.extend_from_slice(row);
                    offsets.push(data.len() as u32);
                }
                Run {
                    layout: Layout::Rows { data, offsets },
                }
            }
        }
    }
}

impl Run {
    /// Build a run from sorted, deduplicated packed keys. Panics (debug)
    /// if the keys are not strictly ascending.
    pub fn from_sorted_keys(keys: Vec<u64>) -> Run {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");
        Run {
            layout: Layout::Packed(keys),
        }
    }

    /// Build a run from arbitrary rows (sorts and deduplicates).
    pub fn from_rows<'a, I: IntoIterator<Item = &'a [u32]>>(rows: I) -> Run {
        let mut b = RunBuilder::new();
        for row in rows {
            b.push(row);
        }
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Packed(keys) => keys.len(),
            Layout::Rows { offsets, .. } => offsets.len() - 1,
        }
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed keys, when this run uses the packed layout.
    pub fn packed_keys(&self) -> Option<&[u64]> {
        match &self.layout {
            Layout::Packed(keys) => Some(keys),
            Layout::Rows { .. } => None,
        }
    }

    /// Row `i`, decoded into `buf` for the packed layout.
    #[inline]
    pub fn row_at<'a>(&'a self, i: usize, buf: &'a mut [u32; 2]) -> &'a [u32] {
        match &self.layout {
            Layout::Packed(keys) => unpack_key(keys[i], buf),
            Layout::Rows { data, offsets } => &data[offsets[i] as usize..offsets[i + 1] as usize],
        }
    }

    /// Visit every row in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(&[u32])) {
        let mut buf = [0u32; 2];
        for i in 0..self.len() {
            f(self.row_at(i, &mut buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(rows: &[&[u32]]) -> Run {
        Run::from_rows(rows.iter().copied())
    }

    #[test]
    fn packed_order_matches_lexicographic_row_order() {
        let r = run_of(&[&[2, 1], &[1], &[], &[1, 3], &[2]]);
        assert!(r.packed_keys().is_some());
        let mut seen: Vec<Vec<u32>> = Vec::new();
        r.for_each(|row| seen.push(row.to_vec()));
        assert_eq!(seen, vec![vec![], vec![1], vec![1, 3], vec![2], vec![2, 1]]);
    }

    #[test]
    fn wide_rows_fall_back_and_keep_order() {
        let r = run_of(&[&[5, 5, 5], &[1, 2], &[1], &[1, 2, 3]]);
        assert!(r.packed_keys().is_none());
        let mut seen: Vec<Vec<u32>> = Vec::new();
        r.for_each(|row| seen.push(row.to_vec()));
        assert_eq!(
            seen,
            vec![vec![1], vec![1, 2], vec![1, 2, 3], vec![5, 5, 5]]
        );
    }
}
