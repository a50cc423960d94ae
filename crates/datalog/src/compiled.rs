//! Slot-compiled, id-space fixpoint execution — the engine behind the
//! plan IR (`algrec-plan`).
//!
//! The interpreted engine ([`crate::engine`]) walks slot expressions and
//! clones [`Value`]s on every match. This module instead *compiles* each
//! eligible rule to a flat sequence of column operations over interned
//! value ids ([`Vid`]): facts become rows in flat [`Chunk`] arenas (one
//! contiguous `Vec<Vid>` per relation — no per-row allocation), each
//! relation carries an open-addressing dedup set of row indices and a
//! first-column hash index (probe), and a rule body becomes
//! `Bind`/`Check`/`Const` column ops in a cost-chosen join order
//! ([`algrec_plan::Catalog::order_join`]). The hot loop therefore does
//! no string hashing, no `Value` clones, no heap traffic per candidate
//! and no per-match budget checks.
//!
//! **Entry points.** Each `try_*` runs one interpreted driver's cold
//! work in id space: [`try_naive`], [`try_semi_naive`] and
//! [`try_inflationary`] one fixpoint; [`try_stratified`] every stratum
//! on one machine; [`try_alternating`] the whole alternating fixpoint of
//! the well-founded and valid semantics on one machine. The base is
//! interned once per evaluation, not once per pass. The semi-naive
//! *continuation* (`fixpoint::semi_naive_from_oracle`, the step a
//! maintained view runs on every write) has no entry point here: a
//! machine interns the whole view it starts from, which would make each
//! write cost the view's size instead of its delta's. The
//! alternation keeps its two sides, `certain` and `possible`, as two
//! id-space models ([`IdModel`]): each pass cuts the relations back to
//! their base rows, reads negation as the complement of the other
//! model, and hands back its own; convergence is tested on the models,
//! and only the final pair is resolved back to values.
//!
//! **Eligibility.** A program is compilable when every head and body
//! argument is a variable or a constant and every body literal is a
//! positive or negative atom (no comparisons, equalities or function
//! applications — those construct fresh values, which the id-space
//! executor deliberately cannot do). The entry points additionally
//! require an *untraced* meter: traced runs keep the interpreted path —
//! the reference the differential tests compare against — so every
//! telemetry stream (index builds/probes, per-phase counters) stays
//! byte-identical to previous releases. Conversion also falls back if any converted
//! value exceeds the budget's value-size limit — with variable/constant
//! heads the executor only ever recombines existing values, so once the
//! inputs fit, no per-match size check is needed.
//!
//! **Exact parity.** For eligible programs the compiled fixpoints
//! reproduce the interpreted engines *bit for bit*: same model, same
//! [`FixpointStats`], same meter protocol (one `tick_iteration` per
//! round, one `add_facts` per fact new to the round's candidate buffer,
//! one `record_delta` per round) and hence the same budget errors. The
//! differential rounds keep the parallel discipline of
//! [`crate::fixpoint`]: hash-partitioned delta, per-worker per-rule
//! candidate buffers, deterministic rule-major/worker-minor merge that
//! alone charges the real meter. All charged quantities are sizes of
//! sets, so they are independent of enumeration order and thread count.

use crate::ast::{Expr, Literal, Rule};
use crate::engine::Compiled;
use crate::error::EvalError;
use crate::fixpoint::{FixpointStats, NegOracle, PAR_MIN_FACTS};
use crate::interp::{Interp, ThreeValued};
use crate::wellfounded::AlternatingStats;
use algrec_value::budget::Meter;
use algrec_value::{Value, Vid};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash-style multiply-rotate hasher: `Vid`s are small dense integers,
/// so a fast non-cryptographic mix beats SipHash by a wide margin on the
/// row-dedup and index paths.
#[derive(Default, Clone)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn push(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.push(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.push(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.push(n as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type FxMap<K, V> = HashMap<K, V, FxBuild>;

#[inline]
fn hash_row(row: &[Vid]) -> u64 {
    let mut h = FxHasher::default();
    for v in row {
        h.write_u32(v.index());
    }
    h.finish()
}

/// Flat row arena: every row of one relation (or one buffer) lives in a
/// single `Vec<Vid>`, delimited by an offsets table. Appending a row is
/// a `memcpy` into the tail — no per-row allocation, no per-row free on
/// teardown — and scans walk contiguous memory. Rows keep insertion
/// order, which the deterministic merge relies on.
#[derive(Clone)]
struct Chunk {
    data: Vec<Vid>,
    /// `offsets[i]..offsets[i+1]` delimits row `i`; starts as `[0]`.
    offsets: Vec<u32>,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            data: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl Chunk {
    #[inline]
    fn push(&mut self, row: &[Vid]) {
        self.data.extend_from_slice(row);
        self.offsets.push(self.data.len() as u32);
    }

    #[inline]
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    #[inline]
    fn row(&self, i: usize) -> &[Vid] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = &[Vid]> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Keep the first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.data.truncate(self.offsets[len] as usize);
        self.offsets.truncate(len + 1);
    }
}

/// Deduplicating arena table: a [`Chunk`] row store plus an
/// open-addressing hash set of row indices (power-of-two slots,
/// `u32::MAX` marks empty). Membership and insertion share one probe
/// pass — the table grows *before* probing, so the empty slot the probe
/// finds is valid for insertion.
#[derive(Default, Clone)]
struct Table {
    chunk: Chunk,
    slots: Box<[u32]>,
}

impl Table {
    const EMPTY: u32 = u32::MAX;

    /// Insert `row`, returning `true` iff it was new.
    fn insert(&mut self, row: &[Vid]) -> bool {
        if (self.chunk.len() + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash_row(row) as usize) & mask;
        loop {
            match self.slots[i] {
                Self::EMPTY => break,
                idx => {
                    if self.chunk.row(idx as usize) == row {
                        return false;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = self.chunk.len() as u32;
        self.chunk.push(row);
        true
    }

    #[inline]
    fn contains(&self, row: &[Vid]) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash_row(row) as usize) & mask;
        loop {
            match self.slots[i] {
                Self::EMPTY => return false,
                idx => {
                    if self.chunk.row(idx as usize) == row {
                        return true;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mut slots = vec![Self::EMPTY; cap].into_boxed_slice();
        let mask = cap - 1;
        for idx in 0..self.chunk.len() as u32 {
            let mut i = (hash_row(self.chunk.row(idx as usize)) as usize) & mask;
            while slots[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = idx;
        }
        self.slots = slots;
    }

    #[inline]
    fn len(&self) -> usize {
        self.chunk.len()
    }

    /// Keep the first `len` rows, emptying the slots of the rest. That
    /// leaves every kept row findable: rows take their slots in index
    /// order (on insertion and on `grow` alike), so the probe path of a
    /// kept row only crosses slots of older, also kept, rows.
    fn truncate(&mut self, len: usize) {
        for slot in self.slots.iter_mut() {
            // `EMPTY` is `u32::MAX`, so it passes through unchanged.
            if *slot as usize >= len {
                *slot = Self::EMPTY;
            }
        }
        self.chunk.truncate(len);
    }
}

/// One relation in id space: dedup/scan table plus first-column index.
/// The index is a chain per key threaded through `next` (`heads[k]` is
/// the newest row whose first column is `k`, `next[i]` the one before
/// row `i`), so building it allocates nothing per key: a relation like
/// MOVE has almost as many keys as rows. The chains also make the index
/// cheap to cut back to a prefix of the rows ([`Rel::truncate`]).
#[derive(Default, Clone)]
struct Rel {
    table: Table,
    heads: FxMap<Vid, u32>,
    next: Vec<u32>,
}

impl Rel {
    /// End of a first-column chain.
    const END: u32 = u32::MAX;

    /// Insert `row`, maintaining the first-column index; `true` iff new.
    fn insert(&mut self, row: &[Vid]) -> bool {
        if !self.table.insert(row) {
            return false;
        }
        let idx = (self.table.len() - 1) as u32;
        let prev = match row.first() {
            Some(&k) => self.heads.insert(k, idx).unwrap_or(Self::END),
            None => Self::END,
        };
        self.next.push(prev);
        true
    }

    /// All accepted rows, in insertion order.
    #[inline]
    fn chunk(&self) -> &Chunk {
        &self.table.chunk
    }

    #[inline]
    fn len(&self) -> usize {
        self.table.len()
    }

    #[inline]
    fn contains(&self, row: &[Vid]) -> bool {
        self.table.contains(row)
    }

    /// Distinct first-column values (the catalog's per-relation key
    /// statistic): the size of the first-column index.
    fn distinct_first(&self) -> usize {
        self.heads.len()
    }

    /// Keep the first `len` rows: rows, dedup slots and first-column
    /// index end as they were when row `len` arrived. Walking the dropped
    /// rows newest first, each is the head of its key's chain when
    /// reached, so its `next` link is the head to restore.
    fn truncate(&mut self, len: usize) {
        for ri in (len..self.len()).rev() {
            if let Some(&k) = self.chunk().row(ri).first() {
                match self.next[ri] {
                    Self::END => self.heads.remove(&k),
                    prev => self.heads.insert(k, prev),
                };
            }
        }
        self.next.truncate(len);
        self.table.truncate(len);
    }
}

/// A database in id space, indexed by predicate id.
#[derive(Clone)]
struct IdDb {
    rels: Vec<Rel>,
}

impl IdDb {
    fn new(npreds: usize) -> Self {
        IdDb {
            rels: vec![Rel::default(); npreds],
        }
    }
}

/// A per-round delta: one plain [`Chunk`] per predicate id. Delta
/// literals are forced first in the join order and therefore always
/// *scanned*, never probed, and [`Machine::split_new`] only ever emits
/// rows new to the total — so neither the dedup slots nor the
/// first-column index of [`Rel`] would ever be consulted.
type DeltaDb = Vec<Chunk>;

fn delta_total(delta: &DeltaDb) -> usize {
    delta.iter().map(Chunk::len).sum()
}

/// Predicate-name interning local to one compiled program.
#[derive(Default)]
struct PredTable {
    names: Vec<String>,
    ids: HashMap<String, usize>,
}

impl PredTable {
    fn id(&mut self, name: &str) -> usize {
        if let Some(&i) = self.ids.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), i);
        i
    }
}

/// A head argument or fully-bound literal argument.
#[derive(Clone, Copy, Debug)]
enum CArg {
    Var(usize),
    Const(Vid),
}

#[inline]
fn arg_vid(a: CArg, frame: &[Vid]) -> Vid {
    match a {
        CArg::Var(s) => frame[s],
        CArg::Const(v) => v,
    }
}

/// One column of a positive literal, with the bind-vs-check decision
/// made at compile time from the chosen join order.
#[derive(Clone, Copy, Debug)]
enum CCol {
    Bind(usize),
    Check(usize),
    Const(Vid),
}

/// A positive literal compiled against a fixed join order.
#[derive(Clone, Debug)]
struct CPos {
    pred: usize,
    cols: Box<[CCol]>,
    /// First-column probe key, when computable at arrival.
    probe: Option<CArg>,
    /// Semi-naive: read this literal from the delta instead of the total.
    from_delta: bool,
}

/// One execution step of a compiled rule body.
#[derive(Clone, Debug)]
enum COp {
    Pos(CPos),
    Neg { pred: usize, args: Box<[CArg]> },
}

/// A rule body compiled for one delta position (or for full firing).
#[derive(Clone, Debug)]
struct CVariant {
    /// Predicate of the delta literal (for empty-partition skips).
    pred: usize,
    ops: Box<[COp]>,
}

/// A fully compiled rule.
#[derive(Clone, Debug)]
struct CRule {
    head_pred: usize,
    head: Box<[CArg]>,
    nvars: usize,
    /// Ops for full (round-0 / naive) firing.
    full: Box<[COp]>,
    /// One variant per positive body literal, in body order.
    variants: Vec<CVariant>,
}

/// Source form of a body literal after slot/pred resolution.
enum SrcLit {
    Pos { pred: usize, args: Vec<CArg> },
    Neg { pred: usize, args: Vec<CArg> },
}

/// A frozen interpretation's rows for one negated predicate.
type FrozenSet = Table;

/// Negation oracle, lowered to id space where possible.
enum NegDb<'a> {
    /// Negation never satisfied (positive programs).
    False,
    /// Inflationary reading: `¬p(x)` iff `p(x)` is not in the current
    /// total (which is frozen within a round — candidates are buffered).
    Total,
    /// Complement of a frozen interpretation, interned per negated
    /// predicate id (`None` = predicate absent, so `¬` always holds).
    Sets(Vec<Option<FrozenSet>>),
    /// Arbitrary callback; arguments are resolved back to [`Value`]s.
    Fn(&'a (dyn Fn(&str, &[Value]) -> bool + Sync)),
}

#[inline]
fn neg_holds(neg: &NegDb<'_>, total: &IdDb, pred: usize, row: &[Vid], names: &[String]) -> bool {
    match neg {
        NegDb::False => false,
        NegDb::Total => !total.rels[pred].contains(row),
        NegDb::Sets(sets) => match &sets[pred] {
            Some(set) => !set.contains(row),
            None => true,
        },
        NegDb::Fn(f) => {
            let args: Vec<Value> = row.iter().map(|v| v.resolve().clone()).collect();
            f(&names[pred], &args)
        }
    }
}

/// Per-round candidate buffer, keyed by predicate id: arena tables, so
/// a candidate costs at most a tail append (and usually just a probe —
/// in the fixpoint's inner loop most candidates are re-derivations).
/// Insertion charges nothing itself; callers charge the meter on `true`
/// returns, matching the interpreted engine's per-new-candidate
/// accounting.
struct Derived {
    tables: Vec<Table>,
}

impl Derived {
    fn new(npreds: usize) -> Self {
        Derived {
            tables: (0..npreds).map(|_| Table::default()).collect(),
        }
    }

    #[inline]
    fn insert(&mut self, pred: usize, row: &[Vid]) -> bool {
        self.tables[pred].insert(row)
    }
}

#[inline]
fn match_cols(cols: &[CCol], row: &[Vid], frame: &mut [Vid]) -> bool {
    if row.len() != cols.len() {
        return false;
    }
    for (c, &v) in cols.iter().zip(row.iter()) {
        match *c {
            CCol::Bind(s) => frame[s] = v,
            CCol::Check(s) => {
                if frame[s] != v {
                    return false;
                }
            }
            CCol::Const(k) => {
                if k != v {
                    return false;
                }
            }
        }
    }
    true
}

/// Shared read-only context for one firing.
struct FireCtx<'a> {
    total: &'a IdDb,
    delta: Option<&'a DeltaDb>,
    neg: &'a NegDb<'a>,
    names: &'a [String],
}

fn fire_ops<S: FnMut(&[Vid]) -> Result<(), EvalError>>(
    ctx: &FireCtx<'_>,
    ops: &[COp],
    k: usize,
    frame: &mut [Vid],
    scratch: &mut Vec<Vid>,
    sink: &mut S,
) -> Result<(), EvalError> {
    let Some(op) = ops.get(k) else {
        return sink(frame);
    };
    match op {
        COp::Pos(p) => {
            if p.from_delta {
                // Deltas are plain chunks (no index): always scanned.
                let rows = &ctx.delta.expect("differential firing carries a delta")[p.pred];
                for ri in 0..rows.len() {
                    if match_cols(&p.cols, rows.row(ri), frame) {
                        fire_ops(ctx, ops, k + 1, frame, scratch, sink)?;
                    }
                }
                return Ok(());
            }
            let rel = &ctx.total.rels[p.pred];
            if let Some(key_src) = p.probe {
                let key = arg_vid(key_src, frame);
                let mut ri = rel.heads.get(&key).copied().unwrap_or(Rel::END);
                while ri != Rel::END {
                    if match_cols(&p.cols, rel.chunk().row(ri as usize), frame) {
                        fire_ops(ctx, ops, k + 1, frame, scratch, sink)?;
                    }
                    ri = rel.next[ri as usize];
                }
            } else {
                let chunk = rel.chunk();
                for ri in 0..chunk.len() {
                    if match_cols(&p.cols, chunk.row(ri), frame) {
                        fire_ops(ctx, ops, k + 1, frame, scratch, sink)?;
                    }
                }
            }
            Ok(())
        }
        COp::Neg { pred, args } => {
            // The consult row lives in the shared scratch buffer: no
            // allocation per candidate. Its borrow ends before the
            // recursion, which reuses the buffer for deeper negations.
            scratch.clear();
            scratch.extend(args.iter().map(|a| arg_vid(*a, frame)));
            if neg_holds(ctx.neg, ctx.total, *pred, scratch, ctx.names) {
                fire_ops(ctx, ops, k + 1, frame, scratch, sink)?;
            }
            Ok(())
        }
    }
}

fn fire_rule<O: FnMut(usize, &[Vid]) -> Result<(), EvalError>>(
    ctx: &FireCtx<'_>,
    rule: &CRule,
    ops: &[COp],
    dummy: Vid,
    out: &mut O,
) -> Result<(), EvalError> {
    let mut frame = vec![dummy; rule.nvars];
    let mut neg_scratch = Vec::new();
    let mut head_scratch: Vec<Vid> = Vec::with_capacity(rule.head.len());
    let head = &rule.head;
    let head_pred = rule.head_pred;
    let mut sink = |frame: &[Vid]| {
        head_scratch.clear();
        head_scratch.extend(head.iter().map(|a| arg_vid(*a, frame)));
        out(head_pred, &head_scratch)
    };
    fire_ops(ctx, ops, 0, &mut frame, &mut neg_scratch, &mut sink)
}

/// Is `e` a plain variable or constant (the only shapes the id-space
/// executor handles)?
fn simple_expr(e: &Expr) -> bool {
    matches!(e, Expr::Var(_) | Expr::Lit(_))
}

fn rule_compilable(rule: &Rule) -> bool {
    rule.head.args.iter().all(simple_expr)
        && rule.body.iter().all(|lit| match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.args.iter().all(simple_expr),
            _ => false,
        })
}

thread_local! {
    /// [`Machine::build`] calls made on this thread.
    static MACHINE_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many id-space machines this thread has built: one per compiled
/// evaluation, none for an interpreted one. Tests read it to pin which
/// executor a call took.
#[doc(hidden)]
pub fn machine_builds() -> usize {
    MACHINE_BUILDS.with(std::cell::Cell::get)
}

/// Shared gate for every entry point.
fn eligible(compiled: &Compiled, meter: &Meter) -> bool {
    !meter.is_traced() && compiled.rules.iter().all(rule_compilable)
}

/// The id-space working state shared by every run mode: the predicate
/// table, interned relations, and the negation oracle. Rule code is
/// compiled separately — one [`LevelCode`] per program (or per stratum)
/// — so a stratified run reuses one machine, and its interned totals,
/// across strata instead of crossing the id↔value boundary at every
/// stratum.
struct Machine<'a> {
    table: PredTable,
    total: IdDb,
    init: Vec<usize>,
    neg: NegDb<'a>,
    dummy: Vid,
}

/// One rule after slot/pred resolution: head predicate, head args,
/// variable count, body.
type Resolved = (usize, Vec<CArg>, usize, Vec<SrcLit>);

/// The rules of one evaluation unit (a whole program, or one stratum),
/// lowered against the machine's table with join orders costed from the
/// machine's totals at lowering time.
struct LevelCode {
    rules: Vec<CRule>,
    /// Static differential firing list: the (rule, variant) pairs whose
    /// variant predicate is an IDB head of this unit.
    firings: Vec<(usize, usize)>,
    /// Preds read differentially by `firings` — the only ones worth
    /// copying into the per-round delta.
    consumed: Vec<bool>,
}

/// Resolve per-rule variable slots and literal arguments; `None` when a
/// literal constant exceeds the value-size limit.
fn resolve_rule(
    rule: &Rule,
    table: &mut PredTable,
    limit: usize,
) -> Option<(usize, Vec<CArg>, usize, Vec<SrcLit>)> {
    // Variable slots in first-occurrence order over body then head.
    let mut names: Vec<String> = Vec::new();
    let slot_of = |n: &str, names: &mut Vec<String>| match names.iter().position(|v| v == n) {
        Some(i) => i,
        None => {
            names.push(n.to_string());
            names.len() - 1
        }
    };
    let conv = |e: &Expr, names: &mut Vec<String>| -> Option<CArg> {
        match e {
            Expr::Var(n) => Some(CArg::Var(slot_of(n, names))),
            Expr::Lit(v) => {
                if v.size() > limit {
                    return None;
                }
                Some(CArg::Const(Vid::of(v)))
            }
            _ => None,
        }
    };
    let mut body = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) => {
                let args = a
                    .args
                    .iter()
                    .map(|e| conv(e, &mut names))
                    .collect::<Option<Vec<_>>>()?;
                body.push(SrcLit::Pos {
                    pred: table.id(&a.pred),
                    args,
                });
            }
            Literal::Neg(a) => {
                let args = a
                    .args
                    .iter()
                    .map(|e| conv(e, &mut names))
                    .collect::<Option<Vec<_>>>()?;
                body.push(SrcLit::Neg {
                    pred: table.id(&a.pred),
                    args,
                });
            }
            _ => return None,
        }
    }
    let head = rule
        .head
        .args
        .iter()
        .map(|e| conv(e, &mut names))
        .collect::<Option<Vec<_>>>()?;
    Some((table.id(&rule.head.pred), head, names.len(), body))
}

/// Build the `JoinLit` view of a resolved body for the cost-based
/// orderer.
fn join_lits(
    body: &[SrcLit],
    table: &PredTable,
    delta_pos: Option<usize>,
) -> Vec<algrec_plan::JoinLit> {
    body.iter()
        .enumerate()
        .map(|(i, lit)| match lit {
            SrcLit::Pos { pred, args } => algrec_plan::JoinLit {
                pred: Some(table.names[*pred].clone()),
                produces: args
                    .iter()
                    .filter_map(|a| match a {
                        CArg::Var(s) => Some(*s),
                        CArg::Const(_) => None,
                    })
                    .collect(),
                requires: Vec::new(),
                first: match args.first() {
                    Some(CArg::Const(_)) => algrec_plan::FirstCol::Const,
                    Some(CArg::Var(s)) => algrec_plan::FirstCol::Var(*s),
                    None => algrec_plan::FirstCol::None,
                },
                forced_first: delta_pos == Some(i),
            },
            SrcLit::Neg { pred, args } => algrec_plan::JoinLit {
                pred: Some(table.names[*pred].clone()),
                produces: Vec::new(),
                requires: args
                    .iter()
                    .filter_map(|a| match a {
                        CArg::Var(s) => Some(*s),
                        CArg::Const(_) => None,
                    })
                    .collect(),
                first: algrec_plan::FirstCol::None,
                forced_first: false,
            },
        })
        .collect()
}

/// Lower a resolved body in the given order into column ops.
fn lower(body: &[SrcLit], order: &[usize], delta_pos: Option<usize>, nvars: usize) -> Box<[COp]> {
    let mut bound = vec![false; nvars];
    let mut ops = Vec::with_capacity(order.len());
    for &i in order {
        match &body[i] {
            SrcLit::Pos { pred, args } => {
                // Delta literals are stored without a first-column index,
                // so they must scan (they come first anyway).
                let probe = if delta_pos == Some(i) {
                    None
                } else {
                    match args.first() {
                        Some(CArg::Const(v)) => Some(CArg::Const(*v)),
                        Some(CArg::Var(s)) if bound[*s] => Some(CArg::Var(*s)),
                        _ => None,
                    }
                };
                let cols = args
                    .iter()
                    .map(|a| match a {
                        CArg::Const(v) => CCol::Const(*v),
                        CArg::Var(s) => {
                            if bound[*s] {
                                CCol::Check(*s)
                            } else {
                                bound[*s] = true;
                                CCol::Bind(*s)
                            }
                        }
                    })
                    .collect();
                ops.push(COp::Pos(CPos {
                    pred: *pred,
                    cols,
                    probe,
                    from_delta: delta_pos == Some(i),
                }));
            }
            SrcLit::Neg { pred, args } => {
                ops.push(COp::Neg {
                    pred: *pred,
                    args: args.to_vec().into_boxed_slice(),
                });
            }
        }
    }
    ops.into_boxed_slice()
}

/// Which predicates some rule of `levels` negates.
fn negated_preds(levels: &[Vec<Resolved>], npreds: usize) -> Vec<bool> {
    let mut negated = vec![false; npreds];
    for (_, _, _, body) in levels.iter().flatten() {
        for lit in body {
            if let SrcLit::Neg { pred, .. } = lit {
                negated[*pred] = true;
            }
        }
    }
    negated
}

impl<'a> Machine<'a> {
    /// Resolve every level's rules against one shared table and intern
    /// the base interpretation. `None` when any converted value exceeds
    /// the meter's value-size limit — the caller then keeps the
    /// interpreted path, which performs the authoritative per-match size
    /// checks. With `total_oracle` the negation oracle is the live
    /// complement of the machine's totals ([`NegDb::Total`]): the
    /// inflationary reading, and also the stratified one (see
    /// [`try_stratified`]).
    fn build(
        levels: &[&Compiled],
        base: &Interp,
        oracle: &'a NegOracle<'a>,
        meter: &Meter,
        total_oracle: bool,
    ) -> Option<(Machine<'a>, Vec<Vec<Resolved>>)> {
        MACHINE_BUILDS.with(|n| n.set(n.get() + 1));
        let limit = meter.budget().max_value_size;
        let mut table = PredTable::default();
        let mut resolved_levels = Vec::with_capacity(levels.len());
        for level in levels {
            let mut resolved = Vec::with_capacity(level.rules.len());
            for rule in &level.rules {
                resolved.push(resolve_rule(rule, &mut table, limit)?);
            }
            resolved_levels.push(resolved);
        }
        let npreds = table.names.len();

        // Intern the base for every mentioned predicate.
        let mut total = IdDb::new(npreds);
        let mut row: Vec<Vid> = Vec::new();
        for (p, name) in table.names.clone().iter().enumerate() {
            for fact in base.facts(name) {
                row.clear();
                for v in fact {
                    if v.size() > limit {
                        return None;
                    }
                    row.push(Vid::of(v));
                }
                total.rels[p].insert(&row);
            }
        }
        let init: Vec<usize> = total.rels.iter().map(Rel::len).collect();

        // Lower the negation oracle over the preds negated anywhere.
        let neg = if total_oracle {
            NegDb::Total
        } else {
            match oracle {
                NegOracle::False => NegDb::False,
                NegOracle::Fn(f) => NegDb::Fn(*f),
                NegOracle::Complement(frozen) => {
                    let negated = negated_preds(&resolved_levels, npreds);
                    let mut sets: Vec<Option<FrozenSet>> = Vec::with_capacity(npreds);
                    sets.resize_with(npreds, || None);
                    let mut row: Vec<Vid> = Vec::new();
                    for (p, is_neg) in negated.iter().enumerate() {
                        if !is_neg {
                            continue;
                        }
                        let mut set = Table::default();
                        for fact in frozen.facts(&table.names[p]) {
                            row.clear();
                            row.extend(fact.iter().map(Vid::of));
                            set.insert(&row);
                        }
                        sets[p] = Some(set);
                    }
                    NegDb::Sets(sets)
                }
            }
        };

        Some((
            Machine {
                table,
                total,
                init,
                neg,
                dummy: Vid::of(&Value::Bool(false)),
            },
            resolved_levels,
        ))
    }

    /// Lower one level's resolved rules into executable code: join orders
    /// from a cost model sampled from the *current* totals (for a
    /// stratum, that includes every completed lower stratum), one full
    /// plan plus one delta-first variant per positive body literal, and
    /// the static differential firing list.
    fn compile_level(&self, resolved: &[Resolved]) -> LevelCode {
        let npreds = self.table.names.len();
        let mut catalog = algrec_plan::Catalog::new();
        for (p, name) in self.table.names.iter().enumerate() {
            if self.total.rels[p].len() > 0 {
                catalog.set(
                    name,
                    self.total.rels[p].len(),
                    self.total.rels[p].distinct_first(),
                );
            }
        }

        let mut rules = Vec::with_capacity(resolved.len());
        let mut idb = vec![false; npreds];
        for (head_pred, head, nvars, body) in resolved {
            idb[*head_pred] = true;
            let full_order = catalog.order_join(&join_lits(body, &self.table, None), *nvars);
            let mut variants = Vec::new();
            for (i, lit) in body.iter().enumerate() {
                if let SrcLit::Pos { pred, .. } = lit {
                    let order = catalog.order_join(&join_lits(body, &self.table, Some(i)), *nvars);
                    variants.push(CVariant {
                        pred: *pred,
                        ops: lower(body, &order, Some(i), *nvars),
                    });
                }
            }
            rules.push(CRule {
                head_pred: *head_pred,
                head: head.to_vec().into_boxed_slice(),
                nvars: *nvars,
                full: lower(body, &full_order, None, *nvars),
                variants,
            });
        }

        let mut firings = Vec::new();
        let mut consumed = vec![false; npreds];
        for (r, rule) in rules.iter().enumerate() {
            for (vi, variant) in rule.variants.iter().enumerate() {
                if idb[variant.pred] {
                    firings.push((r, vi));
                    consumed[variant.pred] = true;
                }
            }
        }
        LevelCode {
            rules,
            firings,
            consumed,
        }
    }

    /// Append every candidate not yet in `total` to it, returning the
    /// id-space next delta and the number of new facts. The count covers
    /// *all* new facts (it drives the round condition, exactly like the
    /// interpreted engine's `delta.total()`), but only `consumed` preds
    /// are copied into the delta — facts nobody reads differentially
    /// would only be copied and dropped.
    fn split_new(&mut self, derived: Derived, consumed: &[bool]) -> (DeltaDb, usize) {
        let mut delta: DeltaDb = vec![Chunk::default(); self.total.rels.len()];
        let mut added = 0usize;
        for (p, table) in derived.tables.iter().enumerate() {
            let keep = consumed.get(p).copied().unwrap_or(false);
            for row in table.chunk.iter() {
                if !self.total.rels[p].insert(row) {
                    continue;
                }
                if keep {
                    delta[p].push(row);
                }
                added += 1;
            }
        }
        (delta, added)
    }

    /// Fire one full (non-differential) pass of every rule into
    /// `derived`, charging the meter per new candidate.
    fn fire_full(
        &self,
        code: &LevelCode,
        stats: &mut FixpointStats,
        meter: &mut Meter,
        derived: &mut Derived,
    ) -> Result<(), EvalError> {
        let ctx = FireCtx {
            total: &self.total,
            delta: None,
            neg: &self.neg,
            names: &self.table.names,
        };
        for rule in &code.rules {
            stats.rule_applications += 1;
            fire_rule(&ctx, rule, &rule.full, self.dummy, &mut |p, row| {
                if derived.insert(p, row) {
                    meter.add_facts(1)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Differentially fire `(rule, variant)` pairs against `delta`,
    /// sequentially for small rounds and via the deterministic
    /// partition/merge discipline otherwise.
    fn fire_differential(
        &self,
        rules: &[CRule],
        delta: &DeltaDb,
        firings: &[(usize, usize)],
        meter: &mut Meter,
        derived: &mut Derived,
    ) -> Result<(), EvalError> {
        let threads = algrec_sched::threads();
        if threads <= 1 || delta_total(delta) < PAR_MIN_FACTS || firings.is_empty() {
            let ctx = FireCtx {
                total: &self.total,
                delta: Some(delta),
                neg: &self.neg,
                names: &self.table.names,
            };
            for &(r, vi) in firings {
                let rule = &rules[r];
                let variant = &rule.variants[vi];
                fire_rule(&ctx, rule, &variant.ops, self.dummy, &mut |p, row| {
                    if derived.insert(p, row) {
                        meter.add_facts(1)?;
                    }
                    Ok(())
                })?;
            }
            return Ok(());
        }

        // Partition the delta rows across workers; which partition a row
        // lands in only balances load (all workers join against the same
        // total, and the merge below is partition-order-deterministic).
        let npreds = self.total.rels.len();
        let mut parts: Vec<DeltaDb> = (0..threads)
            .map(|_| vec![Chunk::default(); npreds])
            .collect();
        for (p, rows) in delta.iter().enumerate() {
            for row in rows.iter() {
                let mut h = FxHasher::default();
                h.write_usize(p);
                for v in row.iter() {
                    h.write_u32(v.index());
                }
                let w = (h.finish() % threads as u64) as usize;
                parts[w][p].push(row);
            }
        }
        let nrules = rules.len();
        // Per-worker per-rule candidate tables: the arena keeps first-
        // derivation order, so the merge below stays deterministic.
        let results: Vec<Result<Vec<Table>, EvalError>> =
            algrec_sched::Pool::new(threads).run(parts.len(), |w| {
                let ctx = FireCtx {
                    total: &self.total,
                    delta: Some(&parts[w]),
                    neg: &self.neg,
                    names: &self.table.names,
                };
                let mut bufs: Vec<Table> = (0..nrules).map(|_| Table::default()).collect();
                for &(r, vi) in firings {
                    let rule = &rules[r];
                    let variant = &rule.variants[vi];
                    if parts[w][variant.pred].is_empty() {
                        continue;
                    }
                    fire_rule(&ctx, rule, &variant.ops, self.dummy, &mut |_, row| {
                        bufs[r].insert(row);
                        Ok(())
                    })?;
                }
                Ok(bufs)
            });
        // Deterministic merge: rule-major, worker-minor; only here does
        // the real meter get charged.
        let mut buffers = Vec::with_capacity(results.len());
        for res in results {
            buffers.push(res?);
        }
        for (r, rule) in rules.iter().enumerate() {
            for bufs in &buffers {
                for row in bufs[r].chunk.iter() {
                    if derived.insert(rule.head_pred, row) {
                        meter.add_facts(1)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve every row appended beyond the initial conversion back to
    /// values, inserting into `out`. Bulk path: one interner read lock
    /// for the whole materialization and one sorted bulk build per
    /// predicate, instead of a lock acquisition and a `BTreeSet` insert
    /// per fact. Rows are pre-sorted in *id* space: ids used by new rows
    /// are ranked by their values' canonical order (one `Value`
    /// comparison sort over the few distinct ids), then rows sort by
    /// `u32` rank sequences — so the per-row sorting never touches
    /// values, and the `BTreeSet` bulk build sees already-sorted input.
    fn materialize_new(&self, out: &mut Interp) {
        let rels: Vec<Option<&Chunk>> = self.total.rels.iter().map(|r| Some(r.chunk())).collect();
        self.materialize(&rels, out);
    }

    /// [`Machine::materialize_new`] over other row sets: for each
    /// predicate `p` given, the rows of `rels[p]` from `init[p]` on.
    fn materialize(&self, rels: &[Option<&Chunk>], out: &mut Interp) {
        let given = || {
            rels.iter()
                .enumerate()
                .filter_map(|(p, chunk)| chunk.map(|c| (p, c)))
        };
        algrec_value::intern::with_values(|values| {
            let mut rank: Vec<u32> = vec![u32::MAX; values.len()];
            let mut used: Vec<Vid> = Vec::new();
            for (p, chunk) in given() {
                for ri in self.init[p]..chunk.len() {
                    for &v in chunk.row(ri) {
                        let slot = &mut rank[v.index() as usize];
                        if *slot == u32::MAX {
                            *slot = 0;
                            used.push(v);
                        }
                    }
                }
            }
            used.sort_unstable_by(|a, b| {
                values[a.index() as usize].cmp(values[b.index() as usize])
            });
            for (i, v) in used.iter().enumerate() {
                rank[v.index() as usize] = i as u32;
            }
            for (p, chunk) in given() {
                let n = chunk.len();
                if n == self.init[p] {
                    continue;
                }
                let mut idxs: Vec<u32> = (self.init[p] as u32..n as u32).collect();
                let max_arity = idxs
                    .iter()
                    .map(|&ri| chunk.row(ri as usize).len())
                    .max()
                    .unwrap_or(0);
                if max_arity <= 2 {
                    // Pack both ranks (offset by 1, missing column = 0 so
                    // a shorter prefix sorts first) into one u64 key: a
                    // single integer sort replaces the per-comparison
                    // iterator walk. Rows are deduplicated and ranks are
                    // injective, so keys are distinct.
                    let mut keyed: Vec<(u64, u32)> = idxs
                        .iter()
                        .map(|&ri| {
                            let row = chunk.row(ri as usize);
                            let k0 = row
                                .first()
                                .map_or(0, |v| rank[v.index() as usize] as u64 + 1);
                            let k1 = row
                                .get(1)
                                .map_or(0, |v| rank[v.index() as usize] as u64 + 1);
                            ((k0 << 32) | k1, ri)
                        })
                        .collect();
                    keyed.sort_unstable();
                    idxs = keyed.into_iter().map(|(_, ri)| ri).collect();
                } else {
                    idxs.sort_unstable_by(|&a, &b| {
                        chunk
                            .row(a as usize)
                            .iter()
                            .map(|v| rank[v.index() as usize])
                            .cmp(
                                chunk
                                    .row(b as usize)
                                    .iter()
                                    .map(|v| rank[v.index() as usize]),
                            )
                    });
                }
                let rows: Vec<Vec<Value>> = idxs
                    .iter()
                    .map(|&ri| {
                        chunk
                            .row(ri as usize)
                            .iter()
                            .map(|&v| values[v.index() as usize].clone())
                            .collect()
                    })
                    .collect();
                out.insert_all(&self.table.names[p], rows);
            }
        });
    }

    /// Naive/inflationary fixpoint: fire every rule fully each round
    /// until nothing new appears. The two modes share this loop; only
    /// the phase label and the negation oracle (baked into the machine)
    /// differ. Candidates are buffered, so the total each round reads
    /// *is* the round-start snapshot.
    fn run_exhaustive(
        &mut self,
        code: &LevelCode,
        phase: &'static str,
        meter: &mut Meter,
    ) -> Result<FixpointStats, EvalError> {
        let mut stats = FixpointStats::default();
        meter.phase_start(phase);
        loop {
            meter.tick_iteration()?;
            stats.rounds += 1;
            let mut derived = Derived::new(self.total.rels.len());
            self.fire_full(code, &mut stats, meter, &mut derived)?;
            let (_, added) = self.split_new(derived, &[]);
            meter.record_delta(added);
            if added == 0 {
                break;
            }
            stats.derived += added;
        }
        meter.phase_end();
        Ok(stats)
    }

    /// One semi-naive evaluation unit (a whole program, or one stratum):
    /// full round 0, then differential rounds while *any* new fact
    /// appeared, accumulating into `stats`. Phase markers bracket the
    /// unit, matching the interpreted engine's per-stratum protocol.
    fn semi_naive_level(
        &mut self,
        code: &LevelCode,
        meter: &mut Meter,
        stats: &mut FixpointStats,
    ) -> Result<(), EvalError> {
        meter.phase_start("semi-naive");
        meter.tick_iteration()?;
        stats.rounds += 1;
        let mut derived = Derived::new(self.total.rels.len());
        self.fire_full(code, stats, meter, &mut derived)?;
        let (mut delta, added0) = self.split_new(derived, &code.consumed);
        stats.derived += added0;
        meter.record_delta(added0);

        let mut delta_count = added0;
        while delta_count > 0 {
            meter.tick_iteration()?;
            stats.rounds += 1;
            stats.rule_applications += code.firings.len();
            let mut derived = Derived::new(self.total.rels.len());
            self.fire_differential(&code.rules, &delta, &code.firings, meter, &mut derived)?;
            let (next, added) = self.split_new(derived, &code.consumed);
            stats.derived += added;
            delta = next;
            delta_count = added;
            meter.record_delta(added);
        }
        meter.phase_end();
        Ok(())
    }
}

/// Compiled naive fixpoint; `None` when the program or meter keeps the
/// interpreted path.
pub(crate) fn try_naive(
    compiled: &Compiled,
    base: &Interp,
    neg: &NegOracle<'_>,
    meter: &mut Meter,
) -> Option<Result<(Interp, FixpointStats), EvalError>> {
    if !eligible(compiled, meter) {
        return None;
    }
    let (mut machine, resolved) = Machine::build(&[compiled], base, neg, meter, false)?;
    let code = machine.compile_level(&resolved[0]);
    Some(machine.run_exhaustive(&code, "naive", meter).map(|stats| {
        let mut out = base.clone();
        machine.materialize_new(&mut out);
        (out, stats)
    }))
}

/// Compiled semi-naive fixpoint; `None` keeps the interpreted path.
pub(crate) fn try_semi_naive(
    compiled: &Compiled,
    base: &Interp,
    neg: &NegOracle<'_>,
    meter: &mut Meter,
) -> Option<Result<(Interp, FixpointStats), EvalError>> {
    if !eligible(compiled, meter) {
        return None;
    }
    let (mut machine, resolved) = Machine::build(&[compiled], base, neg, meter, false)?;
    let code = machine.compile_level(&resolved[0]);
    let mut stats = FixpointStats::default();
    Some(
        machine
            .semi_naive_level(&code, meter, &mut stats)
            .map(|()| {
                let mut out = base.clone();
                machine.materialize_new(&mut out);
                (out, stats)
            }),
    )
}

/// Compiled inflationary fixpoint; `None` keeps the interpreted path.
pub(crate) fn try_inflationary(
    compiled: &Compiled,
    base: &Interp,
    meter: &mut Meter,
) -> Option<Result<(Interp, FixpointStats), EvalError>> {
    if !eligible(compiled, meter) {
        return None;
    }
    let (mut machine, resolved) =
        Machine::build(&[compiled], base, &NegOracle::False, meter, true)?;
    let code = machine.compile_level(&resolved[0]);
    Some(
        machine
            .run_exhaustive(&code, "inflationary", meter)
            .map(|stats| {
                let mut out = base.clone();
                machine.materialize_new(&mut out);
                (out, stats)
            }),
    )
}

/// Compiled *whole-stratification* semi-naive fixpoint: one machine, one
/// id space, one materialization for every stratum. `None` keeps the
/// interpreted per-stratum driver (non-datalog rules, oversized values
/// or tracing).
///
/// Negation is read through [`NegDb::Total`], the live complement of the
/// machine's totals. That is exactly the stratified semantics: by
/// construction every predicate negated in stratum `k` is defined in a
/// strictly lower stratum, hence complete and *frozen* before stratum
/// `k` starts firing — `¬p(x) ⇔ x ∉ total` — and the interpreted
/// driver's per-stratum frozen snapshot ([`NegOracle::Complement`])
/// coincides with it. Join orders still see per-stratum statistics:
/// each stratum's code is lowered only after all lower strata completed,
/// so the catalog samples the same cardinalities the per-stratum driver
/// would have.
pub(crate) fn try_stratified(
    program: &crate::ast::Program,
    base: &Interp,
    meter: &mut Meter,
) -> Option<Result<(Interp, FixpointStats), EvalError>> {
    if meter.is_traced() {
        return None;
    }
    let layers = crate::stratify::strata_programs(program).ok()?;
    let mut compiled = Vec::with_capacity(layers.len());
    for layer in &layers {
        let c = Compiled::compile(layer).ok()?;
        if !c.rules.iter().all(rule_compilable) {
            return None;
        }
        compiled.push(c);
    }
    let refs: Vec<&Compiled> = compiled.iter().collect();
    let (mut machine, resolved) = Machine::build(&refs, base, &NegOracle::False, meter, true)?;
    let mut stats = FixpointStats::default();
    for level in &resolved {
        // Lowered only now, after every lower stratum completed: the
        // catalog samples the same cardinalities the per-stratum driver
        // would have.
        let code = machine.compile_level(level);
        if let Err(e) = machine.semi_naive_level(&code, meter, &mut stats) {
            return Some(Err(e));
        }
    }
    let mut out = base.clone();
    machine.materialize_new(&mut out);
    Some(Ok((out, stats)))
}

/// One alternation pass's model in id space, indexed by predicate id:
/// the full row set (base rows first) of every predicate a pass can
/// grow or a negation can read — each rule head and each negated
/// predicate — and `None` for the rest, whose rows are the base's in
/// every pass. Moved into [`NegDb::Sets`], it is the complement oracle
/// of the next pass.
type IdModel = Vec<Option<Table>>;

/// An observer of every alternation round's `(possible, certain)` pair.
type RoundObserver<'a> = &'a mut dyn FnMut(&Interp, &Interp);

/// Do two row sets hold the same rows?
fn same_rows(a: &Table, b: &Table) -> bool {
    a.len() == b.len() && a.chunk.iter().all(|row| b.contains(row))
}

/// A model's row sets, as [`Machine::materialize`] takes them.
fn chunks(model: &IdModel) -> Vec<Option<&Chunk>> {
    model.iter().map(|t| t.as_ref().map(|t| &t.chunk)).collect()
}

/// Do two models of the same machine hold the same facts?
fn same_model(a: &IdModel, b: &IdModel) -> bool {
    a.iter().zip(b).all(|pair| match pair {
        (Some(a), Some(b)) => same_rows(a, b),
        (a, b) => a.is_none() && b.is_none(),
    })
}

impl Machine<'_> {
    /// Take the rows of every `kept` predicate as a model and return each
    /// relation to its base rows, so the next pass starts from the state
    /// the build left. A relation without base rows is handed over
    /// whole; one with base rows is copied and cut back.
    fn take_model(&mut self, kept: &[bool]) -> IdModel {
        let init = &self.init;
        self.total
            .rels
            .iter_mut()
            .enumerate()
            .map(|(p, rel)| {
                kept[p].then(|| match init[p] {
                    0 => std::mem::take(rel).table,
                    n => {
                        let rows = rel.table.clone();
                        rel.truncate(n);
                        rows
                    }
                })
            })
            .collect()
    }

    /// One pass of the alternation: the semi-naive level with `¬p(x̄)`
    /// read as `p(x̄) ∉ oracle`, its rounds added to `rounds`. Hands
    /// `oracle` back beside the pass's model.
    fn alternation_pass(
        &mut self,
        code: &LevelCode,
        kept: &[bool],
        oracle: IdModel,
        phase: &'static str,
        meter: &mut Meter,
        rounds: &mut usize,
    ) -> Result<(IdModel, IdModel), EvalError> {
        self.neg = NegDb::Sets(oracle);
        let mut stats = FixpointStats::default();
        meter.phase_start(phase);
        let run = self.semi_naive_level(code, meter, &mut stats);
        meter.phase_end();
        run?;
        *rounds += stats.rounds;
        let NegDb::Sets(oracle) = std::mem::replace(&mut self.neg, NegDb::False) else {
            unreachable!("a pass runs under the oracle it was given")
        };
        Ok((oracle, self.take_model(kept)))
    }

    /// Materialize a `(certain, possible)` pair of models over `base`,
    /// whose fact sets stay shared with `base` where no pass added to
    /// them. A predicate that holds the same rows in both models gets
    /// one fact set, shared by the two sides.
    fn materialize_pair(
        &self,
        base: &Interp,
        certain: &IdModel,
        possible: &IdModel,
    ) -> ThreeValued {
        let mut possible_i = base.clone();
        self.materialize(&chunks(possible), &mut possible_i);
        let mut own = chunks(certain);
        let mut shared = Vec::new();
        for (p, (c, q)) in certain.iter().zip(possible).enumerate() {
            if let (Some(c), Some(q)) = (c, q) {
                if c.len() > self.init[p] && same_rows(c, q) {
                    own[p] = None;
                    shared.push(p);
                }
            }
        }
        let mut certain_i = base.clone();
        self.materialize(&own, &mut certain_i);
        for p in shared {
            certain_i.share_pred(&self.table.names[p], &possible_i);
        }
        ThreeValued {
            certain: certain_i,
            possible: possible_i,
        }
    }
}

/// Compiled alternating fixpoint (well-founded and valid semantics): one
/// machine, one lowering and two id-space models for the whole
/// alternation; `None` keeps the interpreted per-pass driver
/// (`wellfounded::alternating_loop`).
///
/// Every pass of the per-pass driver builds its machine from the same
/// base and lowers the rules against the same base-only catalog; here
/// both happen once. Each pass then starts from the base rows
/// ([`Machine::take_model`] cuts the relations back) and reads negation
/// as the complement of the other model: the possible pass the previous
/// round's `certain`, the certain pass this round's `possible`. The
/// meter sees the per-pass driver's exact charge schedule. Convergence
/// is tested on the id models, and the result is materialized once, at
/// the end — and per round only when `on_round` is given.
pub(crate) fn try_alternating(
    compiled: &Compiled,
    base: &Interp,
    meter: &mut Meter,
    on_round: Option<RoundObserver<'_>>,
) -> Option<Result<(ThreeValued, AlternatingStats), EvalError>> {
    if !eligible(compiled, meter) {
        return None;
    }
    let (mut machine, resolved) =
        Machine::build(&[compiled], base, &NegOracle::False, meter, false)?;
    let code = machine.compile_level(&resolved[0]);
    let mut kept = negated_preds(&resolved, machine.table.names.len());
    for rule in &code.rules {
        kept[rule.head_pred] = true;
    }
    Some(alternate(&mut machine, &code, &kept, base, meter, on_round))
}

/// The alternation loop of [`try_alternating`], in the order of
/// `wellfounded::alternating_loop`.
fn alternate(
    machine: &mut Machine<'_>,
    code: &LevelCode,
    kept: &[bool],
    base: &Interp,
    meter: &mut Meter,
    mut on_round: Option<RoundObserver<'_>>,
) -> Result<(ThreeValued, AlternatingStats), EvalError> {
    let mut stats = AlternatingStats::default();
    let rounds = &mut stats.inner_rounds;
    // T₀: just the database.
    let mut certain = machine.take_model(kept);
    let mut possible;
    meter.phase_start("alternation");
    loop {
        stats.outer_rounds += 1;
        meter.tick_iteration()?;
        let (prev, poss) =
            machine.alternation_pass(code, kept, certain, "possible", meter, rounds)?;
        let (poss, next) = machine.alternation_pass(code, kept, poss, "certain", meter, rounds)?;
        possible = poss;
        if let Some(observe) = on_round.as_deref_mut() {
            let round = machine.materialize_pair(base, &next, &possible);
            observe(&round.possible, &round.certain);
        }
        if same_model(&next, &prev) {
            certain = prev;
            break;
        }
        certain = next;
    }
    meter.phase_end();
    let tv = machine.materialize_pair(base, &certain, &possible);
    stats.certain_facts = tv.certain.total();
    stats.possible_facts = tv.possible.total();
    Ok((tv, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Expr, Program};
    use crate::fixpoint;
    use crate::inflationary::inflationary;
    use crate::wellfounded::{alternating_fixpoint, alternating_passes};
    use algrec_value::Budget;

    fn i(n: i64) -> Value {
        Value::int(n)
    }

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn tc_program() -> Compiled {
        Compiled::compile(&tc_rules()).unwrap()
    }

    fn tc_rules() -> Program {
        Program::from_rules([
            Rule::new(
                Atom::new("tc", [v("X"), v("Y")]),
                [Literal::Pos(Atom::new("edge", [v("X"), v("Y")]))],
            ),
            Rule::new(
                Atom::new("tc", [v("X"), v("Z")]),
                [
                    Literal::Pos(Atom::new("tc", [v("X"), v("Y")])),
                    Literal::Pos(Atom::new("edge", [v("Y"), v("Z")])),
                ],
            ),
        ])
    }

    fn chain(n: i64) -> Interp {
        let mut base = Interp::new();
        for k in 0..n {
            base.insert("edge", vec![i(k), i(k + 1)]);
        }
        base
    }

    #[test]
    fn compiled_semi_naive_matches_interpreted_exactly() {
        let compiled = tc_program();
        let base = chain(12);
        let mut mc = Budget::LARGE.meter();
        let (out_c, stats_c) = try_semi_naive(&compiled, &base, &NegOracle::False, &mut mc)
            .expect("eligible")
            .unwrap();
        // Interpreted reference: a traced meter forces the old path.
        let trace = algrec_value::Trace::collect();
        let mut mi = Budget::LARGE.meter_traced(trace);
        let (out_i, stats_i) =
            fixpoint::semi_naive(&compiled, &base, &|_, _| false, &mut mi).unwrap();
        assert_eq!(out_c, out_i);
        assert_eq!(stats_c, stats_i);
        assert_eq!(mc.facts(), mi.facts());
        assert_eq!(mc.iterations(), mi.iterations());
    }

    #[test]
    fn compiled_naive_matches_interpreted_exactly() {
        let compiled = tc_program();
        let base = chain(6);
        let mut mc = Budget::LARGE.meter();
        let (out_c, stats_c) = try_naive(&compiled, &base, &NegOracle::False, &mut mc)
            .expect("eligible")
            .unwrap();
        let trace = algrec_value::Trace::collect();
        let mut mi = Budget::LARGE.meter_traced(trace);
        let (out_i, stats_i) = fixpoint::naive(&compiled, &base, &|_, _| false, &mut mi).unwrap();
        assert_eq!(out_c, out_i);
        assert_eq!(stats_c, stats_i);
        assert_eq!(mc.facts(), mi.facts());
        assert_eq!(mc.iterations(), mi.iterations());
    }

    #[test]
    fn fn_oracle_round_trips_through_values() {
        // q(X) :- node(X), not bad(X).
        let compiled = Compiled::compile(&Program::from_rules([Rule::new(
            Atom::new("q", [v("X")]),
            [
                Literal::Pos(Atom::new("node", [v("X")])),
                Literal::Neg(Atom::new("bad", [v("X")])),
            ],
        )]))
        .unwrap();
        let mut base = Interp::new();
        base.insert("node", vec![i(1)]);
        base.insert("node", vec![i(2)]);
        let f = |p: &str, args: &[Value]| p == "bad" && args[0] != i(2);
        let mut m = Budget::SMALL.meter();
        let (out, _) = try_semi_naive(&compiled, &base, &NegOracle::Fn(&f), &mut m)
            .expect("eligible")
            .unwrap();
        assert!(out.holds("q", &[i(1)]));
        assert!(!out.holds("q", &[i(2)]));
    }

    #[test]
    fn complement_oracle_matches_closure() {
        // un(X, Y) :- node(X), node(Y), not tc(X, Y).
        let compiled = Compiled::compile(&Program::from_rules([Rule::new(
            Atom::new("un", [v("X"), v("Y")]),
            [
                Literal::Pos(Atom::new("node", [v("X")])),
                Literal::Pos(Atom::new("node", [v("Y")])),
                Literal::Neg(Atom::new("tc", [v("X"), v("Y")])),
            ],
        )]))
        .unwrap();
        let mut base = Interp::new();
        let mut frozen = Interp::new();
        for k in 0..4 {
            base.insert("node", vec![i(k)]);
        }
        frozen.insert("tc", vec![i(0), i(1)]);
        frozen.insert("tc", vec![i(2), i(3)]);
        let mut mc = Budget::SMALL.meter();
        let (out_c, stats_c) =
            try_semi_naive(&compiled, &base, &NegOracle::Complement(&frozen), &mut mc)
                .expect("eligible")
                .unwrap();
        let trace = algrec_value::Trace::collect();
        let mut mi = Budget::SMALL.meter_traced(trace);
        let (out_i, stats_i) =
            fixpoint::semi_naive(&compiled, &base, &|p, args| !frozen.holds(p, args), &mut mi)
                .unwrap();
        assert_eq!(out_c, out_i);
        assert_eq!(stats_c, stats_i);
        assert_eq!(out_c.count("un"), 14);
    }

    #[test]
    fn compiled_inflationary_matches_interpreted() {
        // r(a).  q(X) :- r(X), not q(X).  — the Example 4 gadget.
        let compiled = Compiled::compile(&Program::from_rules([
            Rule::fact(Atom::new("r", [Expr::lit("a")])),
            Rule::new(
                Atom::new("q", [v("X")]),
                [
                    Literal::Pos(Atom::new("r", [v("X")])),
                    Literal::Neg(Atom::new("q", [v("X")])),
                ],
            ),
        ]))
        .unwrap();
        let mut mc = Budget::SMALL.meter();
        let (out_c, stats_c) = try_inflationary(&compiled, &Interp::new(), &mut mc)
            .expect("eligible")
            .unwrap();
        let trace = algrec_value::Trace::collect();
        let mut mi = Budget::SMALL.meter_traced(trace);
        let (out_i, stats_i) = inflationary(&compiled, &Interp::new(), &mut mi).unwrap();
        assert_eq!(out_c, out_i);
        assert_eq!(stats_c, stats_i);
        assert_eq!(mc.facts(), mi.facts());
        assert!(out_c.holds("q", &[Value::str("a")]));
    }

    #[test]
    fn ineligible_programs_fall_back() {
        // nat(succ(X)) :- nat(X).  — function application in the head.
        use crate::ast::Func;
        let compiled = Compiled::compile(&Program::from_rules([
            Rule::fact(Atom::new("nat", [Expr::int(0)])),
            Rule::new(
                Atom::new("nat", [Expr::App(Func::Succ, vec![v("X")])]),
                [Literal::Pos(Atom::new("nat", [v("X")]))],
            ),
        ]))
        .unwrap();
        let mut m = Budget::SMALL.meter();
        assert!(try_semi_naive(&compiled, &Interp::new(), &NegOracle::False, &mut m).is_none());
    }

    /// A traced meter is the one selector of the interpreted reference:
    /// every entry point that runs this program untraced refuses it
    /// traced.
    #[test]
    fn traced_meters_fall_back() {
        let (program, compiled, base) = (tc_rules(), tc_program(), chain(3));
        let neg = &NegOracle::False;
        for traced in [false, true] {
            let meter = || match traced {
                true => Budget::SMALL.meter_traced(algrec_value::Trace::collect()),
                false => Budget::SMALL.meter(),
            };
            let ran = [
                try_naive(&compiled, &base, neg, &mut meter()).is_some(),
                try_semi_naive(&compiled, &base, neg, &mut meter()).is_some(),
                try_inflationary(&compiled, &base, &mut meter()).is_some(),
                try_stratified(&program, &base, &mut meter()).is_some(),
                try_alternating(&compiled, &base, &mut meter(), None).is_some(),
            ];
            assert_eq!(ran, [!traced; 5], "traced = {traced}");
        }
    }

    /// `win(X) :- move(X, Y), not win(Y).` on the chain `0 → 1 → … → n`:
    /// each alternation round decides one more position from the end, so
    /// the rounds grow with `n`.
    fn win_chain(n: i64) -> (Compiled, Interp) {
        let compiled = Compiled::compile(&Program::from_rules([Rule::new(
            Atom::new("win", [v("X")]),
            [
                Literal::Pos(Atom::new("move", [v("X"), v("Y")])),
                Literal::Neg(Atom::new("win", [v("Y")])),
            ],
        )]))
        .unwrap();
        let mut base = Interp::new();
        for k in 0..n {
            base.insert("move", vec![i(k), i(k + 1)]);
        }
        // A drawn self-loop beside the chain keeps the model three-valued.
        base.insert("move", vec![i(-1), i(-1)]);
        (compiled, base)
    }

    fn builds_during<T>(run: impl FnOnce() -> T) -> (T, usize) {
        let before = machine_builds();
        let out = run();
        (out, machine_builds() - before)
    }

    #[test]
    fn an_alternation_builds_one_machine() {
        for n in [1, 6, 24] {
            let (compiled, base) = win_chain(n);
            let ((tv, stats), builds) = builds_during(|| {
                alternating_fixpoint(&compiled, &base, &mut Budget::LARGE.meter()).unwrap()
            });
            assert!(stats.outer_rounds as i64 > n / 2, "{n}: {stats:?}");
            assert_eq!(builds, 1, "{n}: one build for {stats:?}");
            assert_eq!(tv.unknown_count(), 1);
            let ((rounds, recorded, _), builds) = builds_during(|| {
                alternating_passes(&compiled, &base, &mut Budget::LARGE.meter()).unwrap()
            });
            assert_eq!((rounds.len(), builds), (stats.outer_rounds, 1));
            assert_eq!(recorded, tv);
            // The traced reference builds none.
            let (_, builds) = builds_during(|| {
                let mut meter = Budget::LARGE.meter_traced(algrec_value::Trace::collect());
                alternating_fixpoint(&compiled, &base, &mut meter).unwrap()
            });
            assert_eq!(builds, 0);
        }
    }

    #[test]
    fn truncating_a_relation_restores_its_index() {
        let mut rel = Rel::default();
        let rows: Vec<[Vid; 2]> = (0..40)
            .map(|k| [Vid::of(&i(k % 7)), Vid::of(&i(k))])
            .collect();
        for row in &rows[..25] {
            rel.insert(row);
        }
        let mut fresh = rel.clone();
        for row in &rows[25..] {
            rel.insert(row);
        }
        rel.truncate(25);
        for row in &rows[25..] {
            assert!(!rel.contains(row));
        }
        for k in 0..7 {
            let key = Vid::of(&i(k));
            let chain = |r: &Rel| {
                let mut out = Vec::new();
                let mut ri = r.heads.get(&key).copied().unwrap_or(Rel::END);
                while ri != Rel::END {
                    out.push(r.chunk().row(ri as usize).to_vec());
                    ri = r.next[ri as usize];
                }
                out
            };
            assert_eq!(chain(&rel), chain(&fresh), "key {k}");
        }
        // The cut relation accepts the dropped rows again, in step with
        // one that never held them.
        for row in &rows[25..] {
            assert!(rel.insert(row));
            assert!(fresh.insert(row));
        }
        assert_eq!(rel.chunk().data, fresh.chunk().data);
        assert!(rows.iter().all(|row| rel.contains(row)));
    }

    #[test]
    fn budget_errors_are_identical() {
        let compiled = tc_program();
        let base = chain(10);
        let budget = Budget::new(1_000, 20, 64);
        let mut mc = budget.meter();
        let err_c = try_semi_naive(&compiled, &base, &NegOracle::False, &mut mc)
            .expect("eligible")
            .unwrap_err();
        let trace = algrec_value::Trace::collect();
        let mut mi = budget.meter_traced(trace);
        let err_i = fixpoint::semi_naive(&compiled, &base, &|_, _| false, &mut mi).unwrap_err();
        assert_eq!(format!("{err_c}"), format!("{err_i}"));
    }
}
