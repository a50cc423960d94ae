//! The materialized-view session: a database plus named views kept
//! consistent under fact deltas.
//!
//! A [`Session`] is the state behind the line protocol, whether it is
//! served over TCP or over stdin/stdout. It owns the extensional database and a map of named
//! views; [`Session::apply`] routes every change through
//! [`DatabaseDelta::apply`] so only *effective* changes (facts actually
//! added or removed) reach the views, and views whose dependencies
//! the delta cannot touch are skipped with zero evaluation work.
//!
//! Every view runs on one flat engine, chosen at registration time:
//!
//! | program / semantics                        | engine                           |
//! |--------------------------------------------|----------------------------------|
//! | stratifiable, any coinciding semantics     | `StratifiedView`                 |
//! | non-stratified, well-founded / valid / ext | `AlternatingView`                |
//! | inflationary, semipositive                 | `StratifiedView`                 |
//! | inflationary, otherwise                    | `RecomputeView` single           |
//! | naive / semi-naive with negation           | rejected (as cold eval)          |
//! | core algebra in the planner's class        | its Thm 6.2 translation, rows 1–2 |
//! | core algebra outside it                    | `core::eval_valid` recompute     |
//!
//! The first three rows are two drivers over one maintenance kernel
//! (`algrec_incr::PassProgram`). The inflationary semantics coincides
//! with the stratified one exactly on *semipositive* programs
//! ([`Program::is_semipositive`]): when no rule negates a derived
//! predicate, every negated literal reads the fixed database at every
//! stage, so "not derived so far" never changes its answer and the
//! stages climb to the least fixpoint of a monotone operator, which is
//! the stratified model. Example 4's `q(X) :- r(X), not q(X)` is the
//! boundary: it negates its own head, its first stage derives `q(a)`
//! from `not q(a)`, and it has no stratification; such a program keeps
//! whole-program recomputation. An algebra view is planned by
//! [`crate::algebra::plan`] against the shapes of the relations it
//! reads; an in-class view is its plan beside the maintainer of its
//! translation, checks each delta's inserted members against those
//! shapes and re-plans through the rebuild path on a mismatch, while an
//! out-of-class view re-plans at every recompute, so it moves back once
//! its inputs are flat again. A registration can *pin* the three-valued
//! strategy with [`StrategyPin`]: `incremental` overrides the
//! stratifiable shortcut, and `recompute` selects `RecomputeView`
//! levels — the only way to get changed-level recomputation, used by
//! differential tests and scenario corpora to compare it with the
//! kernel on the same trace.
//!
//! A delta takes one step per view: route (skip, maintain or rebuild),
//! maintain, then publish the answer. The publish renders only the
//! predicates the write moved into the view's snapshot, and the same
//! walk counts the answer lines that entered or left — the reply's
//! [`ViewReport::changed`]. No maintainer counts anything.
//!
//! A delta that touches a predicate a view *derives* (EDB/IDB overlap),
//! or any delta while the database holds a fact of such a predicate,
//! falls back to a transparent full rebuild of that view, keeping every
//! answer identical to a cold evaluation of the same program on the
//! current database.

use crate::algebra::{self, Route};
use crate::json::{self, Json};
use crate::maintain::{AlternatingView, RecomputeView, StratifiedView};
use algrec_core::{AlgProgram, ValidAlgebraResult};
use algrec_datalog::ast::Program;
use algrec_datalog::explain::{catalog_from, explain_with_catalog};
use algrec_datalog::facts::{fact_value, parse_fact, parse_facts};
use algrec_datalog::factset::LEAF;
use algrec_datalog::interp::{set_diff, Fact, FactSet, Interp};
use algrec_datalog::stratify::strata_programs;
use algrec_datalog::Semantics;
use algrec_value::relation::first_column;
use algrec_value::{Budget, Database, DatabaseDelta, Meter, Relation, SupportCounts, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors the session reports to either front end. Each variant carries
/// a stable machine-readable code ([`ServeError::code`]) used by the
/// line protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A program, fact or file failed to parse.
    Parse(String),
    /// Evaluation or maintenance failed (budget, safety, stratification…).
    Eval(String),
    /// No view with that name is registered.
    UnknownView(String),
    /// A view with that name already exists.
    DuplicateView(String),
    /// Malformed request: bad operation, flag, or semantics name.
    BadRequest(String),
    /// The durability hook failed to persist a committed change (see
    /// [`Durability`]); the in-memory state is ahead of the log.
    Store(String),
}

impl ServeError {
    /// Stable error code for the line protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Parse(_) => "parse",
            ServeError::Eval(_) => "eval",
            ServeError::UnknownView(_) => "unknown-view",
            ServeError::DuplicateView(_) => "duplicate-view",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Store(_) => "store",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(m)
            | ServeError::Eval(m)
            | ServeError::BadRequest(m)
            | ServeError::Store(m) => f.write_str(m),
            ServeError::UnknownView(n) => write!(f, "no view named `{n}`"),
            ServeError::DuplicateView(n) => write!(f, "view `{n}` already exists"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<algrec_datalog::parser::ParseError> for ServeError {
    fn from(e: algrec_datalog::parser::ParseError) -> Self {
        ServeError::Parse(e.to_string())
    }
}

impl From<algrec_datalog::EvalError> for ServeError {
    fn from(e: algrec_datalog::EvalError) -> Self {
        ServeError::Eval(e.to_string())
    }
}

impl From<algrec_core::CoreError> for ServeError {
    fn from(e: algrec_core::CoreError) -> Self {
        ServeError::Eval(e.to_string())
    }
}

/// What the budget [`Meter`] counted for one operation: the
/// deterministic counters a collecting trace would also report. No
/// wall-clock times and no global interner sizes, so replies diff
/// byte-for-byte across runs.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct OpStats {
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Derivation work (facts counted against the budget meter).
    pub facts_inserted: usize,
    /// Size of the materialized result after the operation.
    pub facts_materialized: usize,
    /// Delta rounds recorded.
    pub deltas: usize,
    /// Alternation levels the incremental maintainer recomputed cold
    /// because the negation-oracle churn exceeded its threshold.
    pub fallbacks: usize,
}

impl OpStats {
    /// The counters of `meter`.
    fn of(meter: &Meter) -> Self {
        OpStats {
            iterations: meter.iterations(),
            facts_inserted: meter.facts(),
            facts_materialized: meter.materialized(),
            deltas: meter.deltas(),
            fallbacks: meter.fallbacks(),
        }
    }

    fn accumulate(&mut self, other: &OpStats) {
        self.iterations += other.iterations;
        self.facts_inserted += other.facts_inserted;
        // Materialized size is a level, not a flow: keep the latest.
        self.facts_materialized = other.facts_materialized;
        self.deltas += other.deltas;
        self.fallbacks += other.fallbacks;
    }
}

/// Run `f` on a fresh, untraced meter and return what it counted. No
/// trace is attached, so every cold evaluation inside `f` may take the
/// compiled executor.
fn metered<T, E>(
    budget: Budget,
    f: impl FnOnce(&mut Meter) -> Result<T, E>,
) -> Result<(T, OpStats), E> {
    let mut meter = budget.meter();
    let out = f(&mut meter)?;
    Ok((out, OpStats::of(&meter)))
}

/// One committed session change, as reported to the [`Durability`] hook.
///
/// Events are emitted *after* the in-memory state changed and carry
/// exactly what a durable store must persist to replay the change: the
/// effective fact delta, or the registration source text. Borrowed data
/// keeps the hook zero-copy; a store that logs encodes what it needs.
#[derive(Debug)]
pub enum DurableEvent<'a> {
    /// An effective fact delta was applied to the database (only
    /// genuinely added/removed members appear; no-op batches are never
    /// reported).
    Delta(&'a DatabaseDelta),
    /// A datalog view was registered.
    RegisterDatalog {
        /// View name.
        name: &'a str,
        /// Program source text, exactly as registered.
        program: &'a str,
        /// Evaluation semantics.
        semantics: Semantics,
        /// Strategy pin chosen at registration, persisted so recovery
        /// re-registers the view with the same maintainer.
        strategy: StrategyPin,
    },
    /// A core-algebra view was registered.
    RegisterAlgebra {
        /// View name.
        name: &'a str,
        /// Program source text, exactly as registered.
        program: &'a str,
    },
    /// A view was dropped.
    Unregister {
        /// View name.
        name: &'a str,
    },
}

/// A view definition sufficient to re-register it from scratch — the
/// unit of the snapshot catalog handed to [`Durability::snapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// `"datalog"` or `"algebra"`.
    pub kind: &'static str,
    /// Program source text, exactly as registered.
    pub program: String,
    /// Evaluation semantics (`None` for algebra views, which are always
    /// the paper's valid semantics).
    pub semantics: Option<Semantics>,
    /// Strategy pin chosen at registration ([`StrategyPin::Auto`] for
    /// algebra views and unpinned datalog views).
    pub strategy: StrategyPin,
}

/// A per-view override of the three-valued maintenance strategy, chosen
/// at registration time and persisted with the view definition. `Auto`
/// (the default) lets the planner decide: stratifiable programs take the
/// stratified maintainer, the rest take the incremental alternating
/// maintainer. The explicit pins force one of the two three-valued
/// maintainers; `Recompute` is the only way to select changed-level
/// recomputation.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum StrategyPin {
    /// Let the planner choose (the default).
    #[default]
    Auto,
    /// Force the incremental alternating-fixpoint maintainer.
    Incremental,
    /// Force changed-level recomputation.
    Recompute,
}

impl StrategyPin {
    /// Stable protocol / persistence label.
    pub fn as_str(self) -> &'static str {
        match self {
            StrategyPin::Auto => "auto",
            StrategyPin::Incremental => "incremental",
            StrategyPin::Recompute => "recompute",
        }
    }

    /// Parse a protocol / persistence label.
    pub fn parse(s: &str) -> Option<StrategyPin> {
        match s {
            "auto" => Some(StrategyPin::Auto),
            "incremental" => Some(StrategyPin::Incremental),
            "recompute" => Some(StrategyPin::Recompute),
            _ => None,
        }
    }
}

/// Durability hook: the session reports every committed change here so a
/// store (see `algrec-store`) can write-ahead-log it. The default session
/// has no hook and pays nothing; front ends opt in via
/// [`Session::set_durability`].
///
/// Contract: [`Durability::record`] is called once per committed change,
/// *after* the in-memory state (database and maintained views) already
/// reflects it. If it errors, the session surfaces
/// [`ServeError::Store`] to the caller — the change is live in memory but
/// not persisted, so a crash would lose it; clients treat the reply as
/// the commit acknowledgement. After a successful `record`, the session
/// asks [`Durability::wants_snapshot`]; when `true` it calls
/// [`Durability::snapshot`] with the full database and view catalog,
/// letting the store compact its log.
pub trait Durability {
    /// Persist one committed change.
    fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String>;

    /// Should the session offer a snapshot now? Polled after every
    /// successful [`Durability::record`].
    fn wants_snapshot(&self) -> bool {
        false
    }

    /// Persist a full snapshot of the session state (and typically
    /// truncate the log). Only called when [`Durability::wants_snapshot`]
    /// returned `true`.
    fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
        let _ = (db, catalog);
        Ok(())
    }
}

/// What maintains one view: one of the three maintainers of a datalog
/// program — a registered one, or an in-class algebra view's
/// translation — or `algrec_core`'s answer to an algebra view outside
/// the planner's class.
enum Engine {
    Stratified(StratifiedView),
    // Boxed: the alternating maintainer's pass states dwarf the other
    // variants, and views live in a map where every entry pays the
    // largest variant's size.
    Alternating(Box<AlternatingView>),
    Recompute(RecomputeView),
    /// Recomputed, by planning the view again, whenever a relation in
    /// `deps` moves.
    Algebra {
        deps: BTreeSet<String>,
        result: ValidAlgebraResult,
    },
}

/// A maintainer's model — `certain` and `possible`, one interpretation
/// twice when it is two-valued — beside its derived predicates.
#[derive(Clone, Copy)]
struct Model<'a> {
    certain: &'a Interp,
    possible: &'a Interp,
    idb: &'a BTreeSet<String>,
}

/// What a view's answer is read from.
enum Held<'a> {
    /// A datalog view's model: the answer is its lines.
    Model(Model<'a>),
    /// An in-class algebra view: its translation's model, read through
    /// the plan.
    Translated(&'a algebra::Plan, Model<'a>),
    /// The algebra recompute's own answer.
    Answer(&'a ValidAlgebraResult),
}

impl Engine {
    /// Materialize `program` with the maintainer a [`plan_datalog`]
    /// label names.
    fn maintainer(
        strategy: &str,
        program: &Program,
        semantics: Semantics,
        db: &Database,
        meter: &mut Meter,
    ) -> Result<Self, ServeError> {
        Ok(match strategy {
            "stratified-incremental" => {
                Engine::Stratified(StratifiedView::new(program, db, meter)?)
            }
            "incremental-alternating" => Engine::Alternating(Box::new(AlternatingView::new(
                program, semantics, db, meter,
            )?)),
            _ => Engine::Recompute(RecomputeView::new(program, semantics, db, meter)?),
        })
    }

    fn strategy(&self) -> &'static str {
        match self {
            Engine::Stratified(_) => "stratified-incremental",
            Engine::Alternating(_) => "incremental-alternating",
            Engine::Recompute(_) => "recompute-levels",
            Engine::Algebra { .. } => "algebra-recompute",
        }
    }

    /// What the answer is read from; `translation` is an in-class
    /// algebra view's plan.
    fn held<'a>(&'a self, translation: Option<&'a algebra::Plan>) -> Held<'a> {
        let (certain, possible, idb) = match self {
            Engine::Stratified(v) => (v.total(), v.total(), v.idb_preds()),
            Engine::Alternating(v) => (&v.model().certain, &v.model().possible, v.idb_preds()),
            Engine::Recompute(v) => (&v.model().certain, &v.model().possible, v.idb_preds()),
            Engine::Algebra { result, .. } => return Held::Answer(result),
        };
        let model = Model {
            certain,
            possible,
            idb,
        };
        match translation {
            Some(plan) => Held::Translated(plan, model),
            None => Held::Model(model),
        }
    }

    /// Apply one effective delta; returns the strata, passes or levels
    /// it could not reach. The algebra recompute is rebuilt instead.
    fn maintain(
        &mut self,
        db: &Database,
        delta: &DatabaseDelta,
        meter: &mut Meter,
    ) -> Result<usize, ServeError> {
        Ok(match self {
            Engine::Stratified(v) => v.maintain(delta, meter)?,
            Engine::Alternating(v) => v.maintain(delta, meter)?,
            Engine::Recompute(v) => v.maintain(db, delta, meter)?,
            Engine::Algebra { .. } => {
                return Err(ServeError::Eval(
                    "internal: an algebra recompute is rebuilt, not maintained".into(),
                ))
            }
        })
    }
}

/// Materialize a view on `db`: a datalog program on the maintainer
/// [`plan_datalog`] picks for it; an algebra program on its translation
/// when [`algebra::route`] plans it, else on `algrec_core`. The second
/// half is the translation.
fn materialize(
    program: &ViewProgram,
    semantics: Semantics,
    pin: StrategyPin,
    db: &Database,
    meter: &mut Meter,
) -> Result<(Engine, Option<algebra::Plan>), ServeError> {
    let program = match program {
        ViewProgram::Datalog(program) => {
            let strategy = plan_datalog(program, semantics, pin)?;
            let engine = Engine::maintainer(strategy, program, semantics, db, meter)?;
            return Ok((engine, None));
        }
        ViewProgram::Algebra(program) => program,
    };
    Ok(match algebra::route(program, db, meter)? {
        Route::Evaluated(result) => {
            let deps = program.external_names();
            (Engine::Algebra { deps, result }, None)
        }
        Route::Planned(plan) => {
            let strategy = plan_datalog(&plan.program, Semantics::Valid, StrategyPin::Auto)?;
            let view_db = plan.database(db);
            let engine =
                Engine::maintainer(strategy, &plan.program, Semantics::Valid, &view_db, meter)?;
            (engine, Some(plan))
        }
    })
}

/// An algebra view's answer as a query reports it.
fn algebra_answer(result: &ValidAlgebraResult) -> QueryAnswer {
    QueryAnswer::Algebra {
        query: result.query.to_string(),
        well_defined: result.is_well_defined(),
        constants: result
            .constants
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect(),
    }
}

struct ViewEntry {
    program: ViewProgram,
    /// Program source text as registered — retained so snapshots can
    /// re-register the view verbatim.
    source: String,
    /// The datalog semantics; an algebra view's is the valid one.
    semantics: Semantics,
    /// The registration-time strategy pin, retained for the catalog so
    /// snapshots re-register the view with the same maintainer.
    pin: StrategyPin,
    /// An in-class algebra view's translation: the program `engine`
    /// maintains, and how the answer is read off its model.
    translation: Option<algebra::Plan>,
    engine: Engine,
    registration: OpStats,
    last: Option<OpStats>,
    cumulative: OpStats,
    deltas_applied: usize,
    strata_skipped: usize,
    rebuilds: usize,
    dirty: Option<String>,
    /// The view's query plan against the database statistics it was last
    /// published with; replaced when those move.
    explain: Arc<Plan>,
    /// Rendered lines per predicate, each beside the fact set it was
    /// rendered from — what lets a publish re-render only what entered.
    rendered: Rendered,
    /// The last published answer; a dirty view's is out of date.
    snapshot: Option<Arc<ViewSnapshot>>,
}

/// What happened to one view during a delta.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ViewStatus {
    /// Incrementally maintained.
    Maintained,
    /// Fully rebuilt (delta touched a derived predicate, or the view was
    /// dirty).
    Rebuilt,
    /// Untouched: the delta cannot reach the view.
    Skipped,
    /// Maintenance failed; the view is dirty until the next successful
    /// rebuild.
    Error,
}

impl ViewStatus {
    /// Protocol label.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViewStatus::Maintained => "maintained",
            ViewStatus::Rebuilt => "rebuilt",
            ViewStatus::Skipped => "skipped",
            ViewStatus::Error => "error",
        }
    }
}

/// Per-view outcome of one delta.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewReport {
    /// View name.
    pub view: String,
    /// What the session did to it.
    pub status: ViewStatus,
    /// Answer lines that entered or left: over a datalog view's derived
    /// predicates, certain and unknown lines alike; for an algebra view,
    /// 1 iff its answer moved.
    pub changed: usize,
    /// Strata or levels skipped by the maintainer.
    pub skipped: usize,
    /// Evaluation stats of the maintenance work.
    pub stats: OpStats,
    /// The failure, when `status` is [`ViewStatus::Error`].
    pub error: Option<String>,
}

/// Outcome of applying a batch of assertions / retractions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeltaOutcome {
    /// Facts in the request.
    pub requested: usize,
    /// Facts that actually changed the database.
    pub applied: usize,
    /// Per-view maintenance reports, in view-name order.
    pub views: Vec<ViewReport>,
}

/// Outcome of registering a view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegisterOutcome {
    /// Chosen maintenance strategy.
    pub strategy: &'static str,
    /// Cost of the initial (cold) materialization.
    pub stats: OpStats,
}

/// A view's answer to a query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryAnswer {
    /// A datalog view: printable facts, formatted exactly like
    /// `algrec eval --pred` output (`p(a, b).`).
    Datalog {
        /// Certainly-true facts, `pred(args).` lines in sorted order.
        certain: Vec<String>,
        /// Undefined facts, `pred(args)` (no period).
        unknown: Vec<String>,
    },
    /// An algebra view: the query set and each recursive constant.
    Algebra {
        /// The query value, in `TvSet` notation (`{a, b?}`).
        query: String,
        /// Whether the result is two-valued.
        well_defined: bool,
        /// Each recursive constant's value.
        constants: BTreeMap<String, String>,
    },
}

/// Point-in-time statistics for one view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewStats {
    /// View name.
    pub name: String,
    /// `"datalog"` or `"algebra"`.
    pub kind: &'static str,
    /// Human-readable semantics label.
    pub semantics: String,
    /// Maintenance strategy.
    pub strategy: &'static str,
    /// Whether the last maintenance failed (query will rebuild).
    pub dirty: bool,
    /// Deltas routed to this view (including skips).
    pub deltas_applied: usize,
    /// Cumulative strata / levels skipped across deltas.
    pub strata_skipped: usize,
    /// Full rebuilds performed after registration.
    pub rebuilds: usize,
    /// Cost of the initial materialization.
    pub registration: OpStats,
    /// Cost of the most recent maintenance, if any.
    pub last: Option<OpStats>,
    /// Total maintenance cost since registration (excluding
    /// registration itself).
    pub cumulative: OpStats,
}

/// What `explain` and `db` read of the database: every relation in name
/// order with its row count, and beside it its number of distinct first
/// columns. A few words per relation, so a snapshot carries it whole.
#[derive(Default)]
struct DataStats {
    rows: Vec<(String, usize)>,
    /// Parallel to `rows`.
    first_keys: Vec<usize>,
}

impl DataStats {
    fn rows_of(&self, name: &str) -> Option<usize> {
        let at = self.rows.binary_search_by(|(n, _)| n.as_str().cmp(name));
        at.ok().map(|i| self.rows[i].1)
    }
}

/// A registered program, shared between the session and its snapshots.
#[derive(Clone)]
enum ViewProgram {
    Datalog(Arc<Program>),
    Algebra(Arc<AlgProgram>),
}

impl ViewProgram {
    /// The very same program (not merely an equal one).
    fn same(&self, other: &ViewProgram) -> bool {
        match (self, other) {
            (ViewProgram::Datalog(a), ViewProgram::Datalog(b)) => Arc::ptr_eq(a, b),
            (ViewProgram::Algebra(a), ViewProgram::Algebra(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Render the plan of one view's program against the database
/// statistics — the single code path behind [`Session::explain`] and
/// [`ReadView::explain`], so snapshot and live answers are
/// byte-identical.
fn render_plan(program: &ViewProgram, data: &DataStats) -> Result<String, ServeError> {
    match program {
        ViewProgram::Datalog(program) => {
            let stats = data.rows.iter().zip(&data.first_keys);
            let catalog =
                catalog_from(stats.map(|((name, rows), keys)| (name.as_str(), *rows, *keys)));
            Ok(explain_with_catalog(program, &catalog)?)
        }
        ViewProgram::Algebra(program) => {
            Ok(algrec_core::explain::explain_with_rows(program, &|name| {
                data.rows_of(name)
            }))
        }
    }
}

/// One view's query plan at one state of the database, rendered the
/// first time somebody asks and kept for as long as the database
/// statistics stay what they were — not on every publish.
struct Plan {
    program: ViewProgram,
    data: Arc<DataStats>,
    text: OnceLock<Result<String, ServeError>>,
}

impl Plan {
    fn new(program: ViewProgram, data: Arc<DataStats>) -> Self {
        Plan {
            program,
            data,
            text: OnceLock::new(),
        }
    }

    fn text(&self) -> Result<String, ServeError> {
        self.text
            .get_or_init(|| render_plan(&self.program, &self.data))
            .clone()
    }
}

/// Write a fact the way `algrec eval` prints it, minus punctuation:
/// `pred(a, b)`, each argument formatted straight into `out`.
pub fn write_fact(out: &mut impl fmt::Write, pred: &str, args: &[Value]) -> fmt::Result {
    write!(out, "{pred}(")?;
    for (i, arg) in args.iter().enumerate() {
        write!(out, "{}{arg}", if i > 0 { ", " } else { "" })?;
    }
    out.write_char(')')
}

/// [`write_fact`] into a new `String`.
pub fn format_fact(pred: &str, args: &[Value]) -> String {
    let mut line = String::new();
    write_fact(&mut line, pred, args).expect("a String takes every write");
    line
}

/// A datalog view's answer, rendered straight off its model — not from
/// the lines a publish keeps — so the two can be compared: the certain
/// facts, then the possible ones that are not certain.
fn live_answer(model: Model<'_>, pred: Option<&str>) -> QueryAnswer {
    let preds: Vec<&str> = match pred {
        Some(p) => vec![p],
        None => model.idb.iter().map(String::as_str).collect(),
    };
    let (mut certain, mut unknown) = (Vec::new(), Vec::new());
    for p in preds {
        let facts = model.certain.facts(p);
        certain.extend(facts.map(|args| format_fact(p, args) + "."));
        if !std::ptr::eq(model.certain, model.possible) {
            let facts = model.possible.facts(p);
            let open = facts.filter(|args| !model.certain.holds(p, args));
            unknown.extend(open.map(|args| format_fact(p, args)));
        }
    }
    QueryAnswer::Datalog { certain, unknown }
}

/// Choose the maintenance strategy for a datalog program, mirroring the
/// cold evaluator's acceptance rules exactly. A non-`Auto` pin forces
/// one of the three-valued maintainers and is only meaningful for the
/// well-founded / valid / valid-extended semantics.
pub(crate) fn plan_datalog(
    program: &Program,
    semantics: Semantics,
    pin: StrategyPin,
) -> Result<&'static str, ServeError> {
    let stratifiable = strata_programs(program).is_ok();
    let three_valued = matches!(
        semantics,
        Semantics::WellFounded | Semantics::Valid | Semantics::ValidExtended(_)
    );
    if pin != StrategyPin::Auto && !three_valued {
        return Err(ServeError::BadRequest(format!(
            "strategy `{}` can only pin the well-founded, valid, or valid-extended semantics",
            pin.as_str()
        )));
    }
    match semantics {
        Semantics::Naive | Semantics::SemiNaive if program.has_negation() => Err(ServeError::Eval(
            "naive/semi-naive evaluation requires a negation-free program; \
                 use Stratified, Inflationary, WellFounded or Valid"
                .into(),
        )),
        Semantics::Naive | Semantics::SemiNaive => Ok("stratified-incremental"),
        Semantics::Stratified => {
            // Propagate the cold evaluator's NotStratified error verbatim.
            strata_programs(program)?;
            Ok("stratified-incremental")
        }
        Semantics::WellFounded | Semantics::Valid | Semantics::ValidExtended(_) => Ok(match pin {
            StrategyPin::Incremental => "incremental-alternating",
            StrategyPin::Recompute => "recompute-levels",
            StrategyPin::Auto if stratifiable => "stratified-incremental",
            StrategyPin::Auto => "incremental-alternating",
        }),
        Semantics::Inflationary if program.is_semipositive() => Ok("stratified-incremental"),
        Semantics::Inflationary => Ok("recompute-levels"),
    }
}

/// The session: one extensional database, many maintained views.
pub struct Session {
    db: Database,
    /// Per relation, how many members carry each first column — kept
    /// current from every effective delta, so the distinct-first-column
    /// statistic the plan cost model wants never needs a pass over a
    /// relation.
    first_keys: BTreeMap<String, SupportCounts<Value>>,
    /// The database statistics as of the last change, shared with every
    /// snapshot published since.
    data: Arc<DataStats>,
    views: BTreeMap<String, ViewEntry>,
    budget: Budget,
    durability: Option<Box<dyn Durability + Send>>,
}

impl Session {
    /// An empty session evaluating under `budget`.
    pub fn new(budget: Budget) -> Self {
        Session {
            db: Database::new(),
            first_keys: BTreeMap::new(),
            data: Arc::default(),
            views: BTreeMap::new(),
            budget,
            durability: None,
        }
    }

    /// Re-read the per-relation statistics: row counts off the database,
    /// distinct first columns off the maintained multiplicities.
    fn refresh_data(&mut self) {
        let rows = self.db_summary();
        let first_keys = rows
            .iter()
            .map(|(name, _)| self.first_keys.get(name).map_or(0, SupportCounts::len))
            .collect();
        self.data = Arc::new(DataStats { rows, first_keys });
    }

    /// The current database (for summaries).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The evaluation budget every maintenance operation runs under.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Ensure a relation with this name exists, registering it empty if
    /// absent. A delta can only create a relation by inserting into it,
    /// so snapshot restoration uses this to bring back relations that
    /// were registered but empty (e.g. fully retracted) at snapshot
    /// time. Existing relations are untouched; not a durable event.
    pub fn ensure_relation(&mut self, name: &str) {
        if !self.db.contains(name) {
            self.db.set(name, Relation::new());
            self.refresh_data();
        }
    }

    /// Replace the extensional database wholesale — the bulk-load entry
    /// point snapshot recovery uses *before* any view or durability
    /// hook is attached. A decoded snapshot already is the exact
    /// committed EDB, so installing it directly skips the per-member
    /// delta application a replay would pay (there is nothing to
    /// maintain and nothing to log yet). Refuses to run once views
    /// exist: views are functions of the EDB and would silently go
    /// stale.
    pub fn restore_database(&mut self, db: Database) {
        assert!(
            self.views.is_empty(),
            "restore_database is a recovery entry point: register views after, not before"
        );
        self.first_keys.clear();
        for (name, rel) in db.iter() {
            let keys = self.first_keys.entry(name.to_string()).or_default();
            for key in rel.iter().filter_map(first_column) {
                keys.inc(key.clone());
            }
        }
        self.db = db;
        self.refresh_data();
    }

    /// Attach a durability hook; every subsequently committed change is
    /// reported to it (see [`Durability`]). Recovery attaches the hook
    /// only *after* replaying the log, so replayed changes are not
    /// re-logged.
    pub fn set_durability(&mut self, hook: Box<dyn Durability + Send>) {
        self.durability = Some(hook);
    }

    /// Detach the durability hook, returning it.
    pub fn clear_durability(&mut self) -> Option<Box<dyn Durability + Send>> {
        self.durability.take()
    }

    /// The view catalog: every registered view, in name order, as the
    /// definitions needed to re-register it from scratch.
    pub fn catalog(&self) -> Vec<ViewDef> {
        self.views
            .iter()
            .map(|(name, e)| ViewDef {
                name: name.clone(),
                kind: e.kind(),
                program: e.source.clone(),
                semantics: matches!(e.program, ViewProgram::Datalog(_)).then_some(e.semantics),
                strategy: e.pin,
            })
            .collect()
    }

    /// Report one committed change to the durability hook, if attached,
    /// and offer a snapshot when the hook asks for one.
    fn durably(&mut self, event: &DurableEvent<'_>) -> Result<(), ServeError> {
        let Some(mut hook) = self.durability.take() else {
            return Ok(());
        };
        let result = (|| {
            hook.record(event)?;
            if hook.wants_snapshot() {
                let catalog = self.catalog();
                hook.snapshot(&self.db, &catalog)?;
            }
            Ok(())
        })();
        self.durability = Some(hook);
        result.map_err(ServeError::Store)
    }

    /// Parse a facts file and load every fact, maintaining all views.
    pub fn load(&mut self, src: &str) -> Result<DeltaOutcome, ServeError> {
        let facts = parse_facts(src)?;
        self.apply(&facts, &[])
    }

    /// Assert one fact given as source text (`e(1, 2)`).
    pub fn assert_fact(&mut self, src: &str) -> Result<DeltaOutcome, ServeError> {
        let fact = parse_fact(src)?;
        self.apply(&[fact], &[])
    }

    /// Retract one fact given as source text.
    pub fn retract_fact(&mut self, src: &str) -> Result<DeltaOutcome, ServeError> {
        let fact = parse_fact(src)?;
        self.apply(&[], &[fact])
    }

    /// Apply a batch of insertions and removals, then maintain every
    /// view incrementally. Only the *effective* delta (facts genuinely
    /// added or removed) is propagated; a no-op batch skips maintenance
    /// entirely.
    pub fn apply(
        &mut self,
        inserts: &[Fact],
        removes: &[Fact],
    ) -> Result<DeltaOutcome, ServeError> {
        let mut delta = DatabaseDelta::new();
        for fact in inserts {
            let (name, member) = fact_value(fact);
            delta.insert(name, member);
        }
        for fact in removes {
            let (name, member) = fact_value(fact);
            delta.remove(name, member);
        }
        self.apply_delta(&delta)
    }

    /// Apply a pre-built [`DatabaseDelta`] — the same path as
    /// [`Session::apply`], and the entry point crash recovery uses to
    /// replay logged deltas through the real maintainers.
    pub fn apply_delta(&mut self, delta: &DatabaseDelta) -> Result<DeltaOutcome, ServeError> {
        let requested = delta.len();
        let effective = delta.apply(&mut self.db);
        let mut views = Vec::new();
        if !effective.is_empty() {
            for (name, change) in effective.iter() {
                let keys = self.first_keys.entry(name.to_string()).or_default();
                for key in change.added().iter().filter_map(first_column) {
                    keys.inc(key.clone());
                }
                for key in change.removed().iter().filter_map(first_column) {
                    keys.dec(key);
                }
            }
            self.refresh_data();
            let changed_preds: BTreeSet<String> =
                effective.iter().map(|(p, _)| p.to_string()).collect();
            let db = &self.db;
            let budget = self.budget;
            for (name, entry) in self.views.iter_mut() {
                let mut report = entry.maintain(db, &effective, &changed_preds, budget);
                report.view = name.clone();
                views.push(report);
            }
            self.durably(&DurableEvent::Delta(&effective))?;
        }
        Ok(DeltaOutcome {
            requested,
            applied: effective.len(),
            views,
        })
    }

    /// Register a datalog program as a materialized view, letting the
    /// planner choose the maintenance strategy.
    pub fn register_datalog(
        &mut self,
        name: &str,
        src: &str,
        semantics: Semantics,
    ) -> Result<RegisterOutcome, ServeError> {
        self.register_datalog_pinned(name, src, semantics, StrategyPin::Auto)
    }

    /// Register a datalog program as a materialized view with an
    /// explicit strategy pin (see [`StrategyPin`]).
    pub fn register_datalog_pinned(
        &mut self,
        name: &str,
        src: &str,
        semantics: Semantics,
        pin: StrategyPin,
    ) -> Result<RegisterOutcome, ServeError> {
        self.check_name(name)?;
        let program = ViewProgram::Datalog(Arc::new(algrec_datalog::parser::parse_program(src)?));
        let out = self.register(name, src, program, semantics, pin)?;
        self.durably(&DurableEvent::RegisterDatalog {
            name,
            program: src,
            semantics,
            strategy: pin,
        })?;
        Ok(out)
    }

    /// Register a core-algebra program as a materialized view, always
    /// under the paper's valid semantics. A program in the planner's
    /// class ([`crate::algebra::plan`]) runs as its Theorem 6.2
    /// translation, maintained incrementally like a datalog view; any
    /// other is recomputed by `algrec_core` when a relation it reads
    /// moves.
    pub fn register_algebra(
        &mut self,
        name: &str,
        src: &str,
    ) -> Result<RegisterOutcome, ServeError> {
        self.check_name(name)?;
        let program = ViewProgram::Algebra(Arc::new(
            algrec_core::parser::parse_program(src)
                .map_err(|e| ServeError::Parse(e.to_string()))?,
        ));
        let out = self.register(name, src, program, Semantics::Valid, StrategyPin::Auto)?;
        self.durably(&DurableEvent::RegisterAlgebra { name, program: src })?;
        Ok(out)
    }

    /// Materialize and publish a parsed program as the view `name`.
    fn register(
        &mut self,
        name: &str,
        src: &str,
        program: ViewProgram,
        semantics: Semantics,
        pin: StrategyPin,
    ) -> Result<RegisterOutcome, ServeError> {
        let ((engine, translation), stats) = metered(self.budget, |meter| {
            materialize(&program, semantics, pin, &self.db, meter)
        })?;
        let strategy = engine.strategy();
        let explain = Arc::new(Plan::new(
            ViewEntry::explained(&program, translation.as_ref()),
            Arc::clone(&self.data),
        ));
        let mut entry = ViewEntry {
            program,
            source: src.to_string(),
            semantics,
            pin,
            translation,
            engine,
            registration: stats,
            last: None,
            cumulative: OpStats::default(),
            deltas_applied: 0,
            strata_skipped: 0,
            rebuilds: 0,
            dirty: None,
            explain,
            rendered: Rendered::default(),
            snapshot: None,
        };
        entry.publish();
        self.views.insert(name.to_string(), entry);
        Ok(RegisterOutcome { strategy, stats })
    }

    /// Drop a view.
    pub fn unregister(&mut self, name: &str) -> Result<(), ServeError> {
        self.views
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServeError::UnknownView(name.to_string()))?;
        self.durably(&DurableEvent::Unregister { name })
    }

    /// Query a view. For datalog views `pred` restricts the answer to
    /// one predicate (like `algrec eval --pred`); without it every
    /// derived predicate is listed. A dirty view is transparently
    /// rebuilt first.
    pub fn query(&mut self, name: &str, pred: Option<&str>) -> Result<QueryAnswer, ServeError> {
        if !self.views.contains_key(name) {
            return Err(ServeError::UnknownView(name.to_string()));
        }
        self.rebuild_if_dirty(name)?;
        let entry = self.views.get(name).expect("checked above");
        Ok(match entry.engine.held(entry.translation.as_ref()) {
            Held::Model(model) => live_answer(model, pred),
            Held::Translated(plan, model) => {
                algebra_answer(&plan.answer((model.certain, model.possible)))
            }
            Held::Answer(result) => algebra_answer(result),
        })
    }

    /// Statistics for one view, or for every view in name order.
    pub fn stats(&self, name: Option<&str>) -> Result<Vec<ViewStats>, ServeError> {
        let pick = |name: &String, e: &ViewEntry| ViewStats {
            name: name.clone(),
            kind: e.kind(),
            semantics: crate::protocol::semantics_name(e.semantics),
            strategy: e.engine.strategy(),
            dirty: e.dirty.is_some(),
            deltas_applied: e.deltas_applied,
            strata_skipped: e.strata_skipped,
            rebuilds: e.rebuilds,
            registration: e.registration,
            last: e.last,
            cumulative: e.cumulative,
        };
        match name {
            Some(n) => {
                let e = self
                    .views
                    .get(n)
                    .ok_or_else(|| ServeError::UnknownView(n.to_string()))?;
                Ok(vec![pick(&n.to_string(), e)])
            }
            None => Ok(self.views.iter().map(|(n, e)| pick(n, e)).collect()),
        }
    }

    /// `(name, kind, semantics, strategy)` for every view, name order.
    pub fn view_names(&self) -> Vec<(String, &'static str, String, &'static str)> {
        self.views
            .iter()
            .map(|(n, e)| {
                (
                    n.clone(),
                    e.kind(),
                    crate::protocol::semantics_name(e.semantics),
                    e.engine.strategy(),
                )
            })
            .collect()
    }

    /// `(relation, members)` for every database relation, name order.
    pub fn db_summary(&self) -> Vec<(String, usize)> {
        self.db
            .iter()
            .map(|(name, rel)| (name.to_string(), rel.len()))
            .collect()
    }

    /// The query plan of a registered view against the current database:
    /// join orders, access paths and shared subplans, rendered by the
    /// plan IR's `explain` (see `algrec-plan`). Pure — depends only on
    /// the registered program and the database statistics, so a dirty
    /// view explains just like a clean one.
    pub fn explain(&self, name: &str) -> Result<String, ServeError> {
        let entry = self
            .views
            .get(name)
            .ok_or_else(|| ServeError::UnknownView(name.to_string()))?;
        render_plan(
            &ViewEntry::explained(&entry.program, entry.translation.as_ref()),
            &self.data,
        )
    }

    fn check_name(&self, name: &str) -> Result<(), ServeError> {
        if name.is_empty() || name.chars().any(char::is_whitespace) {
            return Err(ServeError::BadRequest(format!(
                "invalid view name `{name}` (must be non-empty, no whitespace)"
            )));
        }
        if self.views.contains_key(name) {
            return Err(ServeError::DuplicateView(name.to_string()));
        }
        Ok(())
    }

    /// Capture an immutable, pre-rendered snapshot of everything the
    /// read-only protocol operations (`query`/`explain`/`stats`/`views`/
    /// `db`) can answer. The serving layer publishes one of these per
    /// committed write (see `crate::shared::SharedSession`); readers then
    /// resolve against it lock-free.
    ///
    /// Nothing is rendered here: the write that moved a view already
    /// published its answer (`ViewEntry::publish`), so a capture collects
    /// shared handles — each view's answer and its plan, which carries
    /// the program and the database statistics and is rendered the first
    /// time somebody asks (`Plan`).
    ///
    /// Lines are formatted by the same code as the live methods, so a
    /// snapshot reply is byte-identical to asking the session directly —
    /// asserted by the `read_view_matches_live_session` test. A dirty
    /// view's answer is *not* captured (a query would transparently
    /// rebuild, which is writer work); [`ReadView::query`] reports it as
    /// needing the writer.
    pub fn read_view(&mut self) -> ReadView {
        let mut views = BTreeMap::new();
        for (name, entry) in &mut self.views {
            // An algebra view's explained program changes with its engine.
            let program = ViewEntry::explained(&entry.program, entry.translation.as_ref());
            if !Arc::ptr_eq(&entry.explain.data, &self.data)
                || !entry.explain.program.same(&program)
            {
                entry.explain = Arc::new(Plan::new(program, Arc::clone(&self.data)));
            }
            let state = entry.snapshot.clone().filter(|_| entry.dirty.is_none());
            let plan = Arc::clone(&entry.explain);
            views.insert(name.clone(), PublishedView { state, plan });
        }
        ReadView {
            data: Arc::clone(&self.data),
            view_rows: self.view_names(),
            stats_rows: self.stats(None).expect("stats(None) cannot fail"),
            views,
        }
    }

    fn rebuild_if_dirty(&mut self, name: &str) -> Result<(), ServeError> {
        let needs = self.views.get(name).is_some_and(|e| e.dirty.is_some());
        if !needs {
            return Ok(());
        }
        let db = &self.db;
        let budget = self.budget;
        let entry = self.views.get_mut(name).expect("checked");
        let (_, stats) = metered(budget, |meter| entry.rebuild(db, meter))?;
        entry.rebuilds += 1;
        entry.cumulative.accumulate(&stats);
        entry.last = Some(stats);
        entry.dirty = None;
        entry.publish();
        Ok(())
    }
}

impl ViewEntry {
    fn kind(&self) -> &'static str {
        match self.program {
            ViewProgram::Datalog(_) => "datalog",
            ViewProgram::Algebra(_) => "algebra",
        }
    }

    /// The program whose plan `explain` shows: an in-class algebra
    /// view's translation, else the registered program.
    fn explained(program: &ViewProgram, translation: Option<&algebra::Plan>) -> ViewProgram {
        match translation {
            Some(plan) => ViewProgram::Datalog(Arc::clone(&plan.program)),
            None => program.clone(),
        }
    }

    /// Can a change to these relations reach the view? Always, for a
    /// datalog view.
    fn reads_any(&self, names: &BTreeSet<String>) -> bool {
        match (&self.translation, &self.engine) {
            (Some(plan), _) => plan.reads_any(names),
            (None, Engine::Algebra { deps, .. }) => !deps.is_disjoint(names),
            (None, _) => true,
        }
    }

    /// Materialize the view from scratch on the current database; an
    /// algebra view is planned again.
    fn rebuild(&mut self, db: &Database, meter: &mut Meter) -> Result<(), ServeError> {
        (self.engine, self.translation) =
            materialize(&self.program, self.semantics, self.pin, db, meter)?;
        Ok(())
    }

    /// Route one effective delta to this view, then publish its answer
    /// and count the lines that moved.
    fn maintain(
        &mut self,
        db: &Database,
        effective: &DatabaseDelta,
        changed_preds: &BTreeSet<String>,
        budget: Budget,
    ) -> ViewReport {
        self.deltas_applied += 1;
        let outcome = if self.reads_any(changed_preds) {
            metered(budget, |meter| {
                self.step(db, effective, changed_preds, meter)
            })
        } else {
            Ok(((ViewStatus::Skipped, 1), OpStats::default()))
        };
        let mut report = ViewReport {
            view: String::new(),
            status: ViewStatus::Error,
            changed: 0,
            skipped: 0,
            stats: OpStats::default(),
            error: None,
        };
        match outcome {
            Ok(((status, skipped), stats)) => {
                if status != ViewStatus::Skipped {
                    report.changed = self.publish();
                }
                report.status = status;
                report.skipped = skipped;
                report.stats = stats;
                self.strata_skipped += skipped;
                self.cumulative.accumulate(&stats);
                self.last = Some(stats);
            }
            Err(e) => {
                let msg = e.to_string();
                self.dirty = Some(msg.clone());
                report.error = Some(msg);
            }
        }
        report
    }

    /// Maintain the view under `effective`, or rebuild it: when it is
    /// dirty, on a shape break, on a delta or database that holds facts
    /// of a derived predicate, and as the algebra recompute's ordinary
    /// work. Returns the status and the strata, passes or levels skipped.
    fn step(
        &mut self,
        db: &Database,
        effective: &DatabaseDelta,
        changed_preds: &BTreeSet<String>,
        meter: &mut Meter,
    ) -> Result<(ViewStatus, usize), ServeError> {
        // The incremental maintainers' support structures assume derived
        // predicates are never base facts: a counting or DRed replay
        // drops a derived fact with its last derivation even when the
        // database holds it. A delta that edits such a predicate, or a
        // database that holds any fact of one, routes to a rebuild, which
        // folds them into the new base. A translation's predicates are
        // its own, so only a datalog view can be hit.
        let idb_hit = match self.engine.held(self.translation.as_ref()) {
            Held::Model(model) => {
                !matches!(self.engine, Engine::Recompute(_))
                    && model.idb.iter().any(|p| {
                        changed_preds.contains(p) || db.get(p).is_some_and(|r| !r.is_empty())
                    })
            }
            Held::Translated(..) | Held::Answer(_) => false,
        };
        let shape_break = self
            .translation
            .as_ref()
            .is_some_and(|plan| !plan.admits(effective));
        let forced = self.dirty.is_some() || idb_hit || shape_break;
        if !forced && !matches!(self.engine, Engine::Algebra { .. }) {
            let skipped = match &self.translation {
                Some(plan) => self.engine.maintain(db, &plan.restrict(effective), meter)?,
                None => self.engine.maintain(db, effective, meter)?,
            };
            return Ok((ViewStatus::Maintained, skipped));
        }
        self.rebuild(db, meter)?;
        // The algebra recompute's ordinary work is not a rebuild.
        self.rebuilds += usize::from(forced);
        self.dirty = None;
        Ok((ViewStatus::Rebuilt, 0))
    }

    /// Publish the current answer and return how many of its lines
    /// entered or left since the last publish: over a datalog view's
    /// derived predicates, certain and unknown lines alike, counted by
    /// the walk that renders them; for an algebra view, 1 iff its answer
    /// moved. An answer nothing moved keeps its published snapshot.
    ///
    /// This costs the leaves the write touched, not what the view holds
    /// (`Rendered::update`): a predicate whose fact set is the one its
    /// lines were rendered from is shared as it is, and in a touched one
    /// each leaf the two sets share keeps its run of lines, while the
    /// rest are merge-walked against their lines, formatting only the
    /// facts that entered. That state lives in the session, not in the
    /// last published snapshot, so a caller that drops every snapshot
    /// pays the same.
    fn publish(&mut self) -> usize {
        let answer = match self.engine.held(self.translation.as_ref()) {
            Held::Model(model) => {
                let (changed, moved) = self.rendered.update(model);
                if moved || self.snapshot.is_none() {
                    self.snapshot = Some(Arc::new(self.rendered.snapshot(model.idb)));
                }
                return changed;
            }
            Held::Translated(plan, model) => {
                // The answer sets compare by pointer unless maintenance
                // touched one (a mutation un-shares it first), and by
                // content only then.
                let sets = plan.answer_sets((model.certain, model.possible));
                if self.snapshot.is_some() && self.rendered.answer_sets.as_ref() == Some(&sets) {
                    return 0;
                }
                self.rendered.answer_sets = Some(sets);
                algebra_answer(&plan.answer((model.certain, model.possible)))
            }
            Held::Answer(result) => {
                self.rendered.answer_sets = None;
                algebra_answer(result)
            }
        };
        let kept =
            matches!(self.snapshot.as_deref(), Some(ViewSnapshot::Algebra(was)) if *was == answer);
        if !kept {
            self.snapshot = Some(Arc::new(ViewSnapshot::Algebra(answer)));
        }
        usize::from(!kept)
    }
}

/// One fact-set leaf's rendered lines, in fact order, in the form a
/// reply sends them: JSON string literals joined by commas
/// (`"l1","l2",…`). A line is formatted and escaped once, when its fact
/// enters, and its bytes are copied by offset while it stays.
struct Run {
    json: String,
    /// Where each element ends in `json`; the next starts after a comma.
    ends: Vec<u32>,
}

impl Run {
    /// The elements in line order, each a JSON string literal.
    fn elements(&self) -> impl Iterator<Item = &str> + Clone {
        self.ends.iter().scan(0, |start, &end| {
            let element = &self.json[*start..end as usize];
            *start = end as usize + 1;
            Some(element)
        })
    }
}

/// The line an element of a [`Run`] holds: the text between its quotes
/// when it holds no escape, else the string the literal denotes.
fn raw(element: &str) -> Cow<'_, str> {
    if !element.contains('\\') {
        return Cow::Borrowed(&element[1..element.len() - 1]);
    }
    match json::parse(element) {
        Ok(Json::Str(line)) => Cow::Owned(line),
        _ => unreachable!("a run holds JSON string literals: {element}"),
    }
}

/// One predicate's rendered lines in fact order: one run per leaf of the
/// fact set they were rendered from, each shared between the session,
/// its snapshots and successive epochs until its leaf moves.
type Lines = Arc<Vec<Arc<Run>>>;

/// The rendered lines of one view, each predicate's beside what they
/// were rendered from. Holding a clone of a fact-set handle is what
/// makes pointer equality mean "untouched", for the whole set and for
/// each leaf: a mutation un-shares the spine and the leaf it lands in
/// first, so the maintainer can never change a set or a leaf this cache
/// still points at.
#[derive(Default)]
struct Rendered {
    /// `pred(args).` lines of the certain facts, one run per leaf of the
    /// set beside them.
    certain: BTreeMap<String, (FactSet, Lines)>,
    /// `pred(args)` lines of the undefined facts (possible, not certain).
    unknown: BTreeMap<String, UnknownLines>,
    /// The fact sets an in-class algebra view's published answer was
    /// read from (`algebra::Plan::answer_sets`).
    answer_sets: Option<Vec<Option<FactSet>>>,
}

/// The undefined facts of one predicate and their lines, keyed by the
/// two sets they are the difference of.
#[derive(Default)]
struct UnknownLines {
    possible: FactSet,
    certain: Option<FactSet>,
    facts: Vec<Vec<Value>>,
    lines: Lines,
}

/// Render the runs of `new` (each ascending, together ascending) onto
/// `out`, copying the element of every fact that is also in `old`
/// (ascending `(fact, element)` pairs): a merge walk that formats and
/// escapes only what entered. Returns the number of lines that entered
/// or left; when none did, the caller keeps the lines it had.
fn merge_runs<'a>(
    pred: &str,
    period: bool,
    old: impl Iterator<Item = (&'a Vec<Value>, &'a str)>,
    new: impl Iterator<Item = &'a [Vec<Value>]>,
    out: &mut Vec<Arc<Run>>,
) -> usize {
    let mut old = old.peekable();
    let mut moved = 0;
    // Each run is written here first, then copied into an exact
    // allocation: the buffer grows once per call, not once per run.
    let mut buf = String::new();
    for facts in new {
        buf.clear();
        let mut ends = Vec::with_capacity(facts.len());
        for fact in facts {
            while old.next_if(|(was, _)| *was < fact).is_some() {
                moved += 1;
            }
            if !ends.is_empty() {
                buf.push(',');
            }
            match old.next_if(|(was, _)| *was == fact) {
                Some((_, element)) => {
                    #[cfg(test)]
                    tests::count(&tests::BYTES_COPIED, element.len());
                    buf.push_str(element);
                }
                None => {
                    #[cfg(test)]
                    tests::count(&tests::LINES_ESCAPED, 1);
                    moved += 1;
                    buf.push('"');
                    write_fact(&mut json::Escaped(&mut buf), pred, fact)
                        .expect("a String takes every write");
                    if period {
                        buf.push('.');
                    }
                    buf.push('"');
                }
            }
            ends.push(u32::try_from(buf.len()).expect("a run under 4 GiB"));
        }
        let json = buf.as_str().into();
        out.push(Arc::new(Run { json, ends }));
    }
    moved + old.count()
}

/// The certain lines of `set`, from those `held` of `old`: a leaf the
/// two share keeps its run unread, and each span of leaves between two
/// shared ones is merge-walked ([`merge_runs`]). Returns the lines and
/// how many entered or left.
fn rerender(pred: &str, old: &FactSet, held: &Lines, set: &FactSet) -> (Lines, usize) {
    let (was, now) = (old.leaves(), set.leaves());
    let mut runs = Vec::with_capacity(now.len());
    let (mut i, mut j, mut moved) = (0, 0, 0);
    while i < was.len() || j < now.len() {
        if i < was.len() && j < now.len() && Arc::ptr_eq(&was[i], &now[j]) {
            runs.push(Arc::clone(&held[i]));
            i += 1;
            j += 1;
            continue;
        }
        // A shared leaf has the same first fact on both sides, and first
        // facts ascend, so merging by first fact meets the next one.
        let (i0, j0) = (i, j);
        loop {
            match (was.get(i), now.get(j)) {
                (Some(x), Some(y)) if Arc::ptr_eq(x, y) => break,
                (Some(x), Some(y)) => match x[0].cmp(&y[0]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
                },
                (Some(_), None) => i += 1,
                (None, Some(_)) => j += 1,
                (None, None) => break,
            }
        }
        let old_lines = was[i0..i]
            .iter()
            .zip(&held[i0..i])
            .flat_map(|(leaf, run)| leaf.iter().zip(run.elements()));
        let new_facts = now[j0..j].iter().map(|leaf| &leaf[..]);
        moved += merge_runs(pred, true, old_lines, new_facts, &mut runs);
    }
    (Arc::new(runs), moved)
}

impl Rendered {
    /// Bring the lines up to `model`. Certain lines carry the trailing
    /// period, unknown lines do not — matching [`Session::query`]
    /// exactly. Returns how many lines entered or left over the derived
    /// predicates, and whether any line moved at all: a database
    /// predicate's lines are rendered too, for a query that names it.
    fn update(&mut self, model: Model<'_>) -> (usize, bool) {
        let Model {
            certain,
            possible,
            idb,
        } = model;
        let (mut changed, mut moved) = (0, false);
        let mut count = |pred: &str, lines: usize| {
            moved |= lines > 0;
            if idb.contains(pred) {
                changed += lines;
            }
        };

        let mut was = std::mem::take(&mut self.certain);
        for (pred, set) in certain.fact_sets() {
            let (old, held) = was.remove(pred).unwrap_or_default();
            let rendered = if FactSet::ptr_eq(&old, set) {
                (old, held)
            } else {
                let (lines, n) = rerender(pred, &old, &held, set);
                count(pred, n);
                // Equal rows keep the lines they were rendered as, and the
                // set they were rendered from.
                if n == 0 {
                    (old, held)
                } else {
                    (set.clone(), lines)
                }
            };
            self.certain.insert(pred.to_string(), rendered);
        }
        for (pred, (_, lines)) in &was {
            count(pred, lines.iter().map(|run| run.ends.len()).sum());
        }

        let mut was = std::mem::take(&mut self.unknown);
        // Two-valued: one interpretation twice, nothing read, no lines.
        let possible = (!std::ptr::eq(certain, possible)).then_some(possible);
        for (pred, set) in possible.into_iter().flat_map(Interp::fact_sets) {
            let sure = certain.fact_set(pred);
            let mut held = was.remove(pred).unwrap_or_default();
            let same_certain = match (&held.certain, sure) {
                (Some(a), Some(b)) => FactSet::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !FactSet::ptr_eq(&held.possible, set) || !same_certain {
                let facts: Vec<Vec<Value>> = set_diff(Some(set), sure)
                    .filter(|&(unknown, _)| unknown)
                    .map(|(_, fact)| fact.clone())
                    .collect();
                let old_lines = held
                    .facts
                    .iter()
                    .zip(held.lines.iter().flat_map(|run| run.elements()));
                let mut runs = Vec::new();
                let n = merge_runs(pred, false, old_lines, facts.chunks(LEAF), &mut runs);
                count(pred, n);
                held = UnknownLines {
                    possible: set.clone(),
                    certain: sure.cloned(),
                    lines: if n == 0 { held.lines } else { Arc::new(runs) },
                    facts,
                };
            }
            self.unknown.insert(pred.to_string(), held);
        }
        for (pred, held) in &was {
            count(pred, held.facts.len());
        }
        (changed, moved)
    }

    /// The lines as a snapshot publishes them.
    fn snapshot(&self, idb: &BTreeSet<String>) -> ViewSnapshot {
        ViewSnapshot::Datalog {
            certain: self
                .certain
                .iter()
                .map(|(pred, (_, lines))| (pred.clone(), Arc::clone(lines)))
                .collect(),
            unknown: self
                .unknown
                .iter()
                .filter(|(_, held)| !held.facts.is_empty())
                .map(|(pred, held)| (pred.clone(), Arc::clone(&held.lines)))
                .collect(),
            idb: idb.clone(),
        }
    }
}

/// One view's pre-rendered answer inside a [`ReadView`].
enum ViewSnapshot {
    /// A datalog view: per-predicate rendered fact lines plus the
    /// derived-predicate set.
    Datalog {
        certain: BTreeMap<String, Lines>,
        unknown: BTreeMap<String, Lines>,
        idb: BTreeSet<String>,
    },
    /// An algebra view, fully rendered.
    Algebra(QueryAnswer),
}

/// What a [`ReadView`] holds of one view, both shared with the session.
struct PublishedView {
    /// `None` while the view is dirty: a query must go through the
    /// writer, which transparently rebuilds.
    state: Option<Arc<ViewSnapshot>>,
    plan: Arc<Plan>,
}

/// An immutable point-in-time snapshot of a session's readable state,
/// captured by [`Session::read_view`] and published epoch-versioned by
/// the concurrent serving layer. Resolving a read against it touches no
/// lock and no session state, so readers never block writers or each
/// other.
pub struct ReadView {
    data: Arc<DataStats>,
    view_rows: Vec<(String, &'static str, String, &'static str)>,
    stats_rows: Vec<ViewStats>,
    views: BTreeMap<String, PublishedView>,
}

/// A query answer borrowed from a [`ReadView`]: the snapshot's own
/// lines, not copies of them.
pub enum Answer<'a> {
    /// A datalog view's lines, formatted as in [`QueryAnswer::Datalog`].
    Datalog {
        /// Certainly-true facts, `pred(args).` lines.
        certain: AnswerLines<'a>,
        /// Undefined facts, `pred(args)` lines.
        unknown: AnswerLines<'a>,
    },
    /// An algebra view's pre-rendered answer.
    Algebra(&'a QueryAnswer),
}

/// Lines of a borrowed [`Answer`], one predicate's runs at a time (one
/// run per fact-set leaf).
pub struct AnswerLines<'a>(Vec<&'a [Arc<Run>]>);

impl<'a> AnswerLines<'a> {
    fn of(parts: impl IntoIterator<Item = &'a Lines>) -> Self {
        AnswerLines(parts.into_iter().map(|lines| &lines[..]).collect())
    }

    /// The lines in answer order as JSON array elements, one leaf's run
    /// at a time, each run's elements joined by commas. A leaf is never
    /// empty, so neither is a run.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &'a str> + Clone + '_ {
        self.0
            .iter()
            .flat_map(|runs| runs.iter().map(|run| &run.json[..]))
    }

    /// Every line, in answer order; a line that holds a character its
    /// JSON form escapes is decoded into a new `String`.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'a, str>> + Clone + '_ {
        self.0
            .iter()
            .flat_map(|runs| runs.iter().flat_map(|run| run.elements()))
            .map(raw)
    }

    fn owned(&self) -> Vec<String> {
        let runs = self.0.iter().flat_map(|runs| runs.iter());
        let mut out = Vec::with_capacity(runs.map(|run| run.ends.len()).sum());
        out.extend(self.iter().map(Cow::into_owned));
        out
    }
}

impl ReadView {
    /// Answer a query from the snapshot, borrowing its lines:
    /// `Ok(Some(_))` is the answer, `Ok(None)` means the view is dirty and
    /// the caller must fall back to the writer (whose query path
    /// transparently rebuilds), and `Err` is the same error the live
    /// session would return.
    pub fn answer(&self, name: &str, pred: Option<&str>) -> Result<Option<Answer<'_>>, ServeError> {
        let view = self
            .views
            .get(name)
            .ok_or_else(|| ServeError::UnknownView(name.to_string()))?;
        let Some(state) = &view.state else {
            return Ok(None);
        };
        match &**state {
            ViewSnapshot::Datalog {
                certain,
                unknown,
                idb,
            } => {
                let (c, u) = match pred {
                    Some(p) => (
                        AnswerLines::of(certain.get(p)),
                        AnswerLines::of(unknown.get(p)),
                    ),
                    None => (
                        // Certain facts list in IDB order; unknown facts
                        // in predicate-sorted order restricted to IDB —
                        // both exactly as the live query renders them.
                        AnswerLines::of(idb.iter().filter_map(|p| certain.get(p))),
                        AnswerLines::of(
                            unknown
                                .iter()
                                .filter(|(p, _)| idb.contains(*p))
                                .map(|(_, lines)| lines),
                        ),
                    ),
                };
                Ok(Some(Answer::Datalog {
                    certain: c,
                    unknown: u,
                }))
            }
            ViewSnapshot::Algebra(answer) => Ok(Some(Answer::Algebra(answer))),
        }
    }

    /// [`ReadView::answer`] with the lines read back out of their JSON
    /// form ([`AnswerLines::iter`]), so the answer outlives the snapshot.
    pub fn query(&self, name: &str, pred: Option<&str>) -> Result<Option<QueryAnswer>, ServeError> {
        Ok(self.answer(name, pred)?.map(|answer| match answer {
            Answer::Datalog { certain, unknown } => QueryAnswer::Datalog {
                certain: certain.owned(),
                unknown: unknown.owned(),
            },
            Answer::Algebra(answer) => answer.clone(),
        }))
    }

    /// Statistics for one view or all views — same shape and order as
    /// [`Session::stats`].
    pub fn stats(&self, name: Option<&str>) -> Result<Vec<ViewStats>, ServeError> {
        match name {
            Some(n) => self
                .stats_rows
                .iter()
                .find(|s| s.name == n)
                .map(|s| vec![s.clone()])
                .ok_or_else(|| ServeError::UnknownView(n.to_string())),
            None => Ok(self.stats_rows.clone()),
        }
    }

    /// `(name, kind, semantics, strategy)` rows, as [`Session::view_names`].
    pub fn view_names(&self) -> &[(String, &'static str, String, &'static str)] {
        &self.view_rows
    }

    /// `(relation, members)` rows, as [`Session::db_summary`].
    pub fn db_summary(&self) -> &[(String, usize)] {
        &self.data.rows
    }

    /// The query plan of a view as [`Session::explain`] would answer at
    /// the snapshot's database state, rendered on first request.
    pub fn explain(&self, name: &str) -> Result<String, ServeError> {
        self.views
            .get(name)
            .ok_or_else(|| ServeError::UnknownView(name.to_string()))?
            .plan
            .text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_datalog::evaluate;
    use algrec_value::Trace;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Lines [`merge_runs`] formatted and escaped on this thread.
        pub(super) static LINES_ESCAPED: Cell<usize> = const { Cell::new(0) };
        /// Element bytes [`merge_runs`] copied from old runs on this thread.
        pub(super) static BYTES_COPIED: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count(counter: &'static LocalKey<Cell<usize>>, n: usize) {
        counter.with(|c| c.set(c.get() + n));
    }

    /// What `counter` read since it was last taken.
    fn take(counter: &'static LocalKey<Cell<usize>>) -> usize {
        counter.with(|c| c.replace(0))
    }

    impl Session {
        /// Mark a view dirty the way a failed maintenance does, so a test
        /// can drive the writer fallback of a snapshot read.
        pub(crate) fn mark_dirty(&mut self, name: &str) {
            let entry = self.views.get_mut(name).expect("a registered view");
            entry.dirty = Some("marked dirty".into());
        }
    }

    const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

    /// Run `run` on a meter that carries a collecting trace, and return
    /// what the trace collected — after checking that the meter's own
    /// counters say the same.
    fn under_trace<T>(budget: Budget, run: impl FnOnce(&mut Meter) -> T) -> (T, OpStats) {
        let trace = Trace::collect();
        let mut meter = budget.meter_traced(trace.clone());
        let out = run(&mut meter);
        let s = trace.stats().expect("a collecting trace");
        let collected = OpStats {
            iterations: s.iterations,
            facts_inserted: s.facts_inserted,
            facts_materialized: s.facts_materialized,
            deltas: s.deltas.len(),
            fallbacks: s.incr.fallbacks,
        };
        assert_eq!(OpStats::of(&meter), collected);
        (out, collected)
    }

    /// The programs of the meter ≡ trace property: a datalog program
    /// with its semantics, or an algebra program (`None`).
    const METERED: [(&str, Option<Semantics>); 9] = [
        (TC, Some(Semantics::Stratified)),
        (
            "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n\
             un(X, Y) :- n(X), n(Y), not tc(X, Y).",
            Some(Semantics::Stratified),
        ),
        ("win(X) :- e(X, Y), not win(Y).", Some(Semantics::Valid)),
        (
            "win(X) :- e(X, Y), not win(Y).",
            Some(Semantics::WellFounded),
        ),
        (
            "reach(X, Y) :- e(X, Y).\nreach(X, Z) :- reach(X, Y), e(Y, Z).\n\
             win(X) :- e(X, Y), not win(Y), not reach(Y, X).",
            Some(Semantics::Valid),
        ),
        // The §3.2 gadget `S = {a} − S`, and a reader of it.
        (
            "s(X) :- n(X), not s(X).\ncalm(X) :- n(X), not s(X), not e(X, X).",
            Some(Semantics::Valid),
        ),
        ("q(X) :- n(X), not q(X).", Some(Semantics::Inflationary)),
        (
            "def win = map(e - (map(e, x.0) * win), x.0); query win;",
            None,
        ),
        (
            "query ifp(t, e union map(select(t * e, x.1 = x.2), [x.0, x.3]));",
            None,
        ),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Serving reports what its untraced meter counted. Every
        /// operation's stats must equal what a collecting trace collects
        /// of the same operation on a shadow session — which runs the
        /// interpreted reference wherever the plain one runs compiled.
        #[test]
        fn meter_counts_what_a_collecting_trace_collects(
            subject in 0..METERED.len(),
            pin in prop_oneof![
                Just(StrategyPin::Auto),
                Just(StrategyPin::Incremental),
                Just(StrategyPin::Recompute),
            ],
            // At least one edge: an algebra program reads `e`, and a
            // relation the database never held is an error.
            edges in prop::collection::btree_set((0..5i64, 0..5i64), 1..8),
            nodes in prop::collection::btree_set(0..5i64, 0..4),
            steps in prop::collection::vec((any::<bool>(), any::<bool>(), 0..5i64, 0..5i64), 1..10),
        ) {
            let budget = Budget::SMALL;
            let (src, semantics) = METERED[subject];
            let three_valued = matches!(semantics, Some(Semantics::Valid | Semantics::WellFounded));
            let pin = if three_valued { pin } else { StrategyPin::Auto };
            let facts: String = edges
                .iter()
                .map(|(a, b)| format!("e({a}, {b}). "))
                .chain(nodes.iter().map(|a| format!("n({a}). ")))
                .collect();
            let mut plain = Session::new(budget);
            let mut shadow = Session::new(budget);
            plain.load(&facts).unwrap();
            shadow.load(&facts).unwrap();

            let (program, semantics) = match semantics {
                Some(semantics) => (
                    ViewProgram::Datalog(Arc::new(
                        algrec_datalog::parser::parse_program(src).unwrap(),
                    )),
                    semantics,
                ),
                None => (
                    ViewProgram::Algebra(Arc::new(
                        algrec_core::parser::parse_program(src).unwrap(),
                    )),
                    Semantics::Valid,
                ),
            };
            let reg = plain.register("v", src, program.clone(), semantics, pin).unwrap();
            let (_, collected) = under_trace(budget, |meter| {
                materialize(&program, semantics, pin, &shadow.db, meter).unwrap()
            });
            prop_assert_eq!(reg.stats, collected, "registration of {}", src);
            shadow.register("v", src, program, semantics, pin).unwrap();

            for (k, &(insert, edge, a, b)) in steps.iter().enumerate() {
                let fact = if edge { format!("e({a}, {b})") } else { format!("n({a})") };
                let (name, member) = fact_value(&parse_fact(&fact).unwrap());
                let mut delta = DatabaseDelta::new();
                if insert {
                    delta.insert(name, member);
                } else {
                    delta.remove(name, member);
                }
                let out = plain.apply_delta(&delta).unwrap();
                let Session { db, views, .. } = &mut shadow;
                let effective = delta.apply(db);
                prop_assert_eq!(out.applied, effective.len());
                if effective.is_empty() {
                    continue;
                }
                let changed: BTreeSet<String> =
                    effective.iter().map(|(p, _)| p.to_string()).collect();
                let entry = views.get_mut("v").unwrap();
                let expected = if entry.reads_any(&changed) {
                    let (step, collected) = under_trace(budget, |meter| {
                        entry.step(db, &effective, &changed, meter)
                    });
                    match step {
                        Ok((status, _)) => {
                            entry.publish();
                            (status, collected)
                        }
                        Err(e) => {
                            entry.dirty = Some(e.to_string());
                            (ViewStatus::Error, OpStats::default())
                        }
                    }
                } else {
                    (ViewStatus::Skipped, OpStats::default())
                };
                let report = &out.views[0];
                prop_assert_eq!(
                    (report.status.clone(), report.stats),
                    expected,
                    "step {} ({}{}) of {}",
                    k,
                    if insert { "+" } else { "-" },
                    fact,
                    src
                );
            }
            prop_assert_eq!(plain.query("v", None), shadow.query("v", None));
        }
    }

    fn cold_pred_lines(
        session: &Session,
        program: &str,
        semantics: Semantics,
        pred: &str,
    ) -> Vec<String> {
        let program = algrec_datalog::parser::parse_program(program).unwrap();
        let out = evaluate(&program, session.db(), semantics, Budget::LARGE).unwrap();
        out.model
            .certain
            .facts(pred)
            .map(|args| format!("{}.", format_fact(pred, args)))
            .collect()
    }

    #[test]
    fn session_tracks_cold_eval_through_deltas() {
        let mut session = Session::new(Budget::LARGE);
        session.load("e(1, 2). e(2, 3).").unwrap();
        let reg = session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        assert_eq!(reg.strategy, "stratified-incremental");

        for (op, fact_src) in [
            ("+", "e(3, 4)"),
            ("+", "e(4, 1)"),
            ("-", "e(2, 3)"),
            ("-", "e(1, 2)"),
            ("+", "e(2, 3)"),
        ] {
            let out = if op == "+" {
                session.assert_fact(fact_src).unwrap()
            } else {
                session.retract_fact(fact_src).unwrap()
            };
            assert_eq!(out.applied, 1, "{op}{fact_src} should be effective");
            let QueryAnswer::Datalog { certain, unknown } =
                session.query("paths", Some("tc")).unwrap()
            else {
                panic!("datalog answer expected")
            };
            assert!(unknown.is_empty());
            assert_eq!(
                certain,
                cold_pred_lines(&session, TC, Semantics::Valid, "tc"),
                "after {op}{fact_src}"
            );
        }
    }

    #[test]
    fn noop_delta_skips_maintenance() {
        let mut session = Session::new(Budget::LARGE);
        session.load("e(1, 2).").unwrap();
        session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        // Asserting an existing fact is a no-op: no view work at all.
        let out = session.assert_fact("e(1, 2)").unwrap();
        assert_eq!(out.applied, 0);
        assert!(out.views.is_empty());
        // Retracting an absent fact likewise.
        let out = session.retract_fact("e(9, 9)").unwrap();
        assert_eq!(out.applied, 0);
        assert!(out.views.is_empty());
    }

    #[test]
    fn idb_delta_triggers_transparent_rebuild() {
        let mut session = Session::new(Budget::LARGE);
        session.load("e(1, 2).").unwrap();
        session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        // Asserting into the *derived* predicate falls back to a rebuild.
        let out = session.assert_fact("tc(7, 7)").unwrap();
        assert_eq!(out.views[0].status, ViewStatus::Rebuilt);
        let QueryAnswer::Datalog { certain, .. } = session.query("paths", Some("tc")).unwrap()
        else {
            panic!()
        };
        assert_eq!(
            certain,
            cold_pred_lines(&session, TC, Semantics::Valid, "tc"),
            "rebuild keeps cold equivalence with EDB/IDB overlap"
        );
        assert!(certain.contains(&"tc(7, 7).".to_string()));
        let stats = session.stats(Some("paths")).unwrap();
        assert_eq!(stats[0].rebuilds, 1);
    }

    #[test]
    fn budget_exhausted_maintenance_dirties_the_view_until_it_fits() {
        // Twelve sources fan into hub 100 and hub 200 fans out to twelve
        // sinks: 24 closure facts. Bridging the hubs adds 12 × 12 more,
        // past the budget for the replay and for a cold rebuild alike;
        // without the bridge even a cold rebuild fits again. Both kernel
        // drivers share this error path.
        let budget = Budget {
            max_facts: 150,
            ..Budget::LARGE
        };
        let fans: String = (1..=12)
            .map(|k| format!("e({k}, 100). e(200, {}). ", 300 + k))
            .collect();
        for pin in [StrategyPin::Auto, StrategyPin::Incremental] {
            let mut session = Session::new(budget);
            session.load(&fans).unwrap();
            session
                .register_datalog_pinned("paths", TC, Semantics::Valid, pin)
                .unwrap();
            let dirty = |s: &Session| s.stats(Some("paths")).unwrap()[0].dirty;

            let out = session.assert_fact("e(100, 200)").unwrap();
            assert_eq!(out.views[0].status.as_str(), "error", "{pin:?}");
            let msg = out.views[0].error.as_deref().expect("error text");
            assert!(msg.contains("fact budget exhausted"), "{pin:?}: {msg}");
            assert!(dirty(&session), "{pin:?}");

            // A query retries the rebuild, which cannot fit either: the
            // budget error comes back, never the half-replayed model —
            // and the lock-free snapshot defers to that writer path.
            assert!(matches!(
                session.read_view().query("paths", Some("tc")),
                Ok(None)
            ));
            let err = session.query("paths", Some("tc")).unwrap_err();
            assert_eq!(err.code(), "eval", "{pin:?}");
            assert!(err.to_string().contains("fact budget exhausted"), "{err}");
            assert!(dirty(&session), "{pin:?}");

            let out = session.retract_fact("e(100, 200)").unwrap();
            assert_eq!(out.views[0].status, ViewStatus::Rebuilt, "{pin:?}");
            assert!(!dirty(&session), "{pin:?}");
            let QueryAnswer::Datalog { certain, unknown } =
                session.query("paths", Some("tc")).unwrap()
            else {
                panic!("datalog answer expected")
            };
            assert!(unknown.is_empty());
            assert_eq!(certain.len(), 24, "{pin:?}");
            assert_eq!(
                certain,
                cold_pred_lines(&session, TC, Semantics::Valid, "tc"),
                "{pin:?}"
            );
        }
    }

    #[test]
    fn nonstratified_program_uses_three_valued_strategy() {
        let mut session = Session::new(Budget::LARGE);
        session.load("move(1, 2). move(2, 3).").unwrap();
        let reg = session
            .register_datalog(
                "game",
                "win(X) :- move(X, Y), not win(Y).",
                Semantics::Valid,
            )
            .unwrap();
        assert_eq!(reg.strategy, "incremental-alternating");
        let QueryAnswer::Datalog { certain, unknown } = session.query("game", Some("win")).unwrap()
        else {
            panic!()
        };
        assert_eq!(certain, vec!["win(2).".to_string()]);
        assert!(unknown.is_empty());
        // Introduce a cycle: win(7) becomes undefined.
        session.assert_fact("move(7, 7)").unwrap();
        let QueryAnswer::Datalog { unknown, .. } = session.query("game", Some("win")).unwrap()
        else {
            panic!()
        };
        assert_eq!(unknown, vec!["win(7)".to_string()]);
    }

    #[test]
    fn strategy_pins_override_the_planner_and_agree_on_answers() {
        let mut session = Session::new(Budget::LARGE);
        session.load("move(1, 2). move(2, 3). move(7, 7).").unwrap();
        let win = "win(X) :- move(X, Y), not win(Y).";
        let a = session
            .register_datalog_pinned("inc", win, Semantics::Valid, StrategyPin::Incremental)
            .unwrap();
        assert_eq!(a.strategy, "incremental-alternating");
        let b = session
            .register_datalog_pinned("rec", win, Semantics::Valid, StrategyPin::Recompute)
            .unwrap();
        assert_eq!(b.strategy, "recompute-levels");
        // A pin also overrides the stratifiable shortcut.
        let c = session
            .register_datalog_pinned("tcpin", TC, Semantics::Valid, StrategyPin::Incremental)
            .unwrap();
        assert_eq!(c.strategy, "incremental-alternating");
        // Pins are rejected where no three-valued choice exists.
        assert!(matches!(
            session.register_datalog_pinned(
                "bad",
                TC,
                Semantics::SemiNaive,
                StrategyPin::Incremental
            ),
            Err(ServeError::BadRequest(_))
        ));
        // Both maintainers answer identically through a churn sequence
        // that flips the negative cycle's escape edge.
        for fact in ["move(7, 8)", "move(3, 9)"] {
            session.assert_fact(fact).unwrap();
        }
        session.retract_fact("move(7, 8)").unwrap();
        for pred in [Some("win"), None] {
            assert_eq!(
                session.query("inc", pred).unwrap(),
                session.query("rec", pred).unwrap(),
                "pinned maintainers disagree on {pred:?}"
            );
        }
        // The catalog round-trips the pins.
        let catalog = session.catalog();
        let pin_of = |n: &str| {
            catalog
                .iter()
                .find(|d| d.name == n)
                .map(|d| d.strategy)
                .unwrap()
        };
        assert_eq!(pin_of("inc"), StrategyPin::Incremental);
        assert_eq!(pin_of("rec"), StrategyPin::Recompute);
    }

    #[test]
    fn changed_counts_answer_lines_that_entered_or_left() {
        // `win(7)` is unknown on the self-loop; the escape to the dead
        // position 8 makes it true: one unknown line leaves, one certain
        // line enters. A write no rule reads moves no answer line, on
        // every maintainer.
        let mut session = Session::new(Budget::LARGE);
        session.load("move(7, 7). e(1, 2).").unwrap();
        for (view, pin) in [("auto", StrategyPin::Auto), ("rec", StrategyPin::Recompute)] {
            session
                .register_datalog_pinned(view, WIN, Semantics::Valid, pin)
                .unwrap();
        }
        session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        let changed = |out: DeltaOutcome| -> Vec<(String, usize)> {
            out.views.into_iter().map(|r| (r.view, r.changed)).collect()
        };
        let out = session.assert_fact("move(7, 8)").unwrap();
        assert_eq!(
            changed(out),
            [("auto".into(), 2), ("paths".into(), 0), ("rec".into(), 2)]
        );
        let out = session.assert_fact("noise(1)").unwrap();
        assert_eq!(
            changed(out),
            [("auto".into(), 0), ("paths".into(), 0), ("rec".into(), 0)]
        );
    }

    /// Each predicate's certain or unknown runs in a published datalog
    /// view, or `None` for an algebra view or a dirty one.
    fn published<'a>(
        snapshot: &'a ReadView,
        view: &str,
    ) -> Option<[&'a BTreeMap<String, Lines>; 2]> {
        match snapshot.views[view].state.as_deref()? {
            ViewSnapshot::Datalog {
                certain, unknown, ..
            } => Some([certain, unknown]),
            ViewSnapshot::Algebra(_) => None,
        }
    }

    /// The elements of `lines`, in order.
    fn elements(lines: &Lines) -> Vec<&str> {
        lines.iter().flat_map(|run| run.elements()).collect()
    }

    /// The lines of `view`'s certain runs that `now` does not share with
    /// `before`: what the write between them rendered.
    fn lines_rendered_between(before: &ReadView, now: &ReadView, view: &str) -> usize {
        let ([old, _], [new, _]) = (
            published(before, view).unwrap(),
            published(now, view).unwrap(),
        );
        new.iter()
            .flat_map(|(pred, runs)| runs.iter().map(move |run| (pred, run)))
            .filter(|(pred, run)| {
                !old.get(*pred)
                    .is_some_and(|held| held.iter().any(|h| Arc::ptr_eq(h, run)))
            })
            .map(|(_, run)| run.ends.len())
            .sum()
    }

    /// The lines of `view` in `now`, certain and unknown, that `before`
    /// did not hold for the same predicate: the lines that entered.
    fn lines_entered_between(before: &ReadView, now: &ReadView, view: &str) -> usize {
        let (old, new) = (
            published(before, view).unwrap(),
            published(now, view).unwrap(),
        );
        old.into_iter()
            .zip(new)
            .flat_map(|(old, new)| new.iter().map(move |(pred, lines)| (old.get(pred), lines)))
            .map(|(held, lines)| {
                let held: BTreeSet<&str> =
                    held.map(elements).unwrap_or_default().into_iter().collect();
                elements(lines)
                    .into_iter()
                    .filter(|e| !held.contains(e))
                    .count()
            })
            .sum()
    }

    /// A one-fact write to a 10 000-fact predicate renders the leaves it
    /// touched, not the predicate: the database predicate's and the
    /// derived one's, a leaf or a split pair each. Every other run is the
    /// previous epoch's. Within the touched leaves only the line that
    /// entered is formatted and escaped; the others are copied, at most
    /// one leaf's bytes per predicate.
    #[test]
    fn a_one_fact_write_renders_one_leaf() {
        let mut session = Session::new(Budget::LARGE);
        let facts: String = (0..10_000)
            .map(|n| format!("e({n}, {}). ", n + 1))
            .collect();
        session.load(&facts).unwrap();
        session
            .register_datalog("v", "p(X, Y) :- e(X, Y).", Semantics::Stratified)
            .unwrap();
        for (write, fact) in [(true, "e(4999, 7)"), (false, "e(5000, 5001)")] {
            let before = session.read_view();
            take(&LINES_ESCAPED);
            take(&BYTES_COPIED);
            let out = if write {
                session.assert_fact(fact)
            } else {
                session.retract_fact(fact)
            }
            .unwrap();
            assert_eq!(out.views[0].changed, 1, "{fact}");
            let now = session.read_view();
            let rendered = lines_rendered_between(&before, &now, "v");
            assert!(
                (1..=4 * (LEAF + 1)).contains(&rendered),
                "{fact}: rendered {rendered} lines"
            );
            // `e(4999, 7).` and `p(4999, 7).` enter; a retraction escapes
            // nothing.
            let entered = lines_entered_between(&before, &now, "v");
            assert_eq!(entered, if write { 2 } else { 0 }, "{fact}");
            assert_eq!(take(&LINES_ESCAPED), entered, "{fact}");
            let [certain, _] = published(&before, "v").unwrap();
            let longest = certain
                .values()
                .flat_map(elements)
                .map(str::len)
                .max()
                .unwrap();
            let copied = take(&BYTES_COPIED);
            assert!(
                copied <= 2 * LEAF * longest,
                "{fact}: copied {copied} bytes, a leaf holds at most {}",
                LEAF * longest
            );
        }
        let QueryAnswer::Datalog { certain, .. } = session.query("v", Some("p")).unwrap() else {
            panic!("a datalog view")
        };
        assert_eq!(certain.len(), 10_000);
        assert!(certain.contains(&"p(4999, 7).".to_string()));
        assert!(!certain.contains(&"p(5000, 5001).".to_string()));
    }

    #[test]
    fn incremental_view_survives_idb_overlap_via_rebuild() {
        let mut session = Session::new(Budget::LARGE);
        session.load("move(1, 2).").unwrap();
        session
            .register_datalog_pinned(
                "game",
                "win(X) :- move(X, Y), not win(Y).",
                Semantics::Valid,
                StrategyPin::Incremental,
            )
            .unwrap();
        // Editing the derived predicate routes through a transparent
        // rebuild that folds the fact into the base.
        let out = session.assert_fact("win(9)").unwrap();
        assert_eq!(out.views[0].status, ViewStatus::Rebuilt);
        let QueryAnswer::Datalog { certain, .. } = session.query("game", Some("win")).unwrap()
        else {
            panic!()
        };
        assert!(certain.contains(&"win(9).".to_string()));
        assert_eq!(session.stats(Some("game")).unwrap()[0].rebuilds, 1);
    }

    #[test]
    fn rejects_bad_registrations() {
        let mut session = Session::new(Budget::LARGE);
        session.register_datalog("v", TC, Semantics::Valid).unwrap();
        assert!(matches!(
            session.register_datalog("v", TC, Semantics::Valid),
            Err(ServeError::DuplicateView(_))
        ));
        assert!(matches!(
            session.register_datalog("bad name", TC, Semantics::Valid),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            session.register_datalog("neg", "p(X) :- e(X), not q(X).", Semantics::Naive),
            Err(ServeError::Eval(_))
        ));
        assert!(matches!(
            session.query("missing", None),
            Err(ServeError::UnknownView(_))
        ));
    }

    #[test]
    fn algebra_view_recomputes_only_on_dependency_change() {
        let mut session = Session::new(Budget::LARGE);
        session.load("edge(1, 2). edge(2, 3).").unwrap();
        session
            .register_algebra(
                "closure",
                "query ifp(t, edge union map(select(t * edge, x.1 = x.2), [x.0, x.3]));",
            )
            .unwrap();
        let QueryAnswer::Algebra {
            query,
            well_defined,
            ..
        } = session.query("closure", None).unwrap()
        else {
            panic!()
        };
        assert!(well_defined);
        assert!(
            query.contains("<1, 3>") || query.contains("1, 3"),
            "{query}"
        );

        // A delta on an unrelated relation skips the view.
        let out = session.assert_fact("noise(1)").unwrap();
        assert_eq!(out.views[0].status, ViewStatus::Skipped);
        // A delta on `edge` recomputes it.
        let out = session.assert_fact("edge(3, 4)").unwrap();
        assert_eq!(out.views[0].status, ViewStatus::Rebuilt);
        assert_eq!(out.views[0].changed, 1);
    }

    #[test]
    fn durability_hook_sees_committed_changes_and_snapshots() {
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Spy {
            log: Arc<Mutex<Vec<String>>>,
            records: usize,
        }
        impl Durability for Spy {
            fn record(&mut self, event: &DurableEvent<'_>) -> Result<(), String> {
                self.records += 1;
                let line = match event {
                    DurableEvent::Delta(d) => format!("delta:{}", d.len()),
                    DurableEvent::RegisterDatalog {
                        name, semantics, ..
                    } => format!("reg:{name}:{}", crate::protocol::semantics_name(*semantics)),
                    DurableEvent::RegisterAlgebra { name, .. } => format!("regalg:{name}"),
                    DurableEvent::Unregister { name } => format!("drop:{name}"),
                };
                self.log.lock().unwrap().push(line);
                Ok(())
            }
            fn wants_snapshot(&self) -> bool {
                self.records >= 3
            }
            fn snapshot(&mut self, db: &Database, catalog: &[ViewDef]) -> Result<(), String> {
                self.records = 0;
                self.log.lock().unwrap().push(format!(
                    "snap:{}rels:{}views",
                    db.len(),
                    catalog.len()
                ));
                Ok(())
            }
        }

        let log = Arc::new(Mutex::new(Vec::new()));
        let mut session = Session::new(Budget::LARGE);
        session.set_durability(Box::new(Spy {
            log: Arc::clone(&log),
            records: 0,
        }));
        session.load("e(1, 2). e(2, 3).").unwrap();
        session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        // A no-op delta commits nothing and must not reach the hook.
        session.assert_fact("e(1, 2)").unwrap();
        session.assert_fact("e(3, 4)").unwrap(); // third record → snapshot
        session.unregister("paths").unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "delta:2",
                "reg:paths:valid",
                "delta:1",
                "snap:1rels:1views",
                "drop:paths",
            ]
        );
        assert!(session.clear_durability().is_some());
        assert!(session.clear_durability().is_none());
    }

    #[test]
    fn catalog_round_trips_view_definitions() {
        let mut session = Session::new(Budget::LARGE);
        session.load("e(1, 2).").unwrap();
        session
            .register_datalog("paths", TC, Semantics::ValidExtended(4))
            .unwrap();
        session
            .register_algebra("alg", "query e;")
            .unwrap_or_else(|e| panic!("algebra registration: {e}"));
        let catalog = session.catalog();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog[0].name, "alg");
        assert_eq!(catalog[0].kind, "algebra");
        assert_eq!(catalog[0].semantics, None);
        assert_eq!(catalog[1].name, "paths");
        assert_eq!(catalog[1].kind, "datalog");
        assert_eq!(catalog[1].program, TC);
        assert_eq!(catalog[1].semantics, Some(Semantics::ValidExtended(4)));
    }

    const WIN: &str = "win(X) :- move(X, Y), not win(Y).";

    /// Everything a snapshot can answer equals what the live session
    /// answers, byte for byte. A dirty view is the exception both sides
    /// agree on: the snapshot defers it to the writer.
    fn assert_snapshot_matches_live(session: &mut Session, view: &ReadView, context: &str) {
        assert_eq!(view.db_summary(), session.db_summary().as_slice());
        assert_eq!(view.view_names(), session.view_names().as_slice());
        assert_eq!(view.stats(None).unwrap(), session.stats(None).unwrap());
        let names: Vec<String> = session.views.keys().cloned().collect();
        for name in &names {
            assert_eq!(
                view.stats(Some(name)).unwrap(),
                session.stats(Some(name)).unwrap()
            );
            assert_eq!(
                view.explain(name),
                session.explain(name),
                "{context}: {name}"
            );
            let preds = [None, Some("tc"), Some("e"), Some("win"), Some("absent")];
            for pred in preds {
                if session.views[name].dirty.is_some() {
                    assert_eq!(view.query(name, pred), Ok(None), "{context}: {name}");
                } else {
                    assert_eq!(
                        view.query(name, pred).unwrap().unwrap(),
                        session.query(name, pred).unwrap(),
                        "{context}: {name} / {pred:?}"
                    );
                }
            }
        }
        for missing in ["missing", ""] {
            assert!(matches!(
                view.query(missing, None),
                Err(ServeError::UnknownView(_))
            ));
            assert!(matches!(
                view.stats(Some(missing)),
                Err(ServeError::UnknownView(_))
            ));
            assert!(matches!(
                view.explain(missing),
                Err(ServeError::UnknownView(_))
            ));
        }
    }

    /// What one epoch shares with the one before it: an unmoved view is
    /// shared whole, and a predicate the write did not touch keeps its
    /// very lines vector. Only lines that entered were escaped, `escaped`
    /// of them: each one a view that both epochs publish gained, and
    /// between none and all of the lines of a view that `fresh` names
    /// ((re-)registered in between) or that only one epoch publishes.
    fn assert_epochs_share(
        prev: &ReadView,
        now: &ReadView,
        fresh: &[&str],
        escaped: usize,
        context: &str,
    ) {
        let (mut entered, mut unpaired) = (0, 0);
        for name in now.views.keys() {
            let Some(after) = published(now, name) else {
                continue;
            };
            let before = prev.views.get(name).and_then(|_| published(prev, name));
            let Some(before) = before.filter(|_| !fresh.contains(&name.as_str())) else {
                let lines = after.iter().flat_map(|map| map.values());
                unpaired += lines.map(|lines| elements(lines).len()).sum::<usize>();
                continue;
            };
            entered += lines_entered_between(prev, now, name);
            for (was, is) in before.into_iter().zip(after) {
                for (pred, lines) in is {
                    let Some(old) = was.get(pred) else { continue };
                    if elements(old) == elements(lines) {
                        assert!(
                            Arc::ptr_eq(old, lines),
                            "{context}: {name}/{pred} re-rendered"
                        );
                    }
                }
            }
        }
        assert!(
            (entered..=entered + unpaired).contains(&escaped),
            "{context}: escaped {escaped} lines, {entered} entered, {unpaired} unpaired"
        );
    }

    #[test]
    fn read_view_matches_live_session() {
        // Three maintainers and an algebra view under one budget: the
        // twelve-source / twelve-sink fans of the budget test sit beside
        // a small random graph, so bridging the hubs (`e(100, 200)`)
        // overruns the budget of `paths` — replay and rebuild alike —
        // until the bridge is retracted again.
        let budget = Budget {
            max_facts: 150,
            ..Budget::LARGE
        };
        let fans: String = (1..=12)
            .map(|k| format!("e({}, 100). e(200, {}). ", 10 + k, 30 + k))
            .collect();
        for seed in 1..=6u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut draw = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut session = Session::new(budget);
            session
                .load(&format!(
                    "{fans} e(1, 2). e(2, 3). move(1, 2). move(2, 3). move(0, 0)."
                ))
                .unwrap();
            session
                .register_datalog("paths", TC, Semantics::Valid)
                .unwrap();
            session
                .register_datalog("game", WIN, Semantics::Valid)
                .unwrap();
            session
                .register_datalog_pinned("ref", WIN, Semantics::Valid, StrategyPin::Recompute)
                .unwrap();
            session.register_algebra("alg", "query e;").unwrap();
            let strategies: Vec<&str> = session.view_names().iter().map(|v| v.3).collect();
            assert_eq!(
                strategies,
                [
                    "stratified-incremental",
                    "incremental-alternating",
                    "stratified-incremental",
                    "recompute-levels"
                ]
            );

            // The scripted events land at random places in a random
            // stream of single-fact writes.
            let mut script = vec!["random"; 24];
            let events = [
                "noop",
                "bomb",
                "query-dirty",
                "defuse",
                "idb",
                "unidb",
                "reregister",
                "noise",
            ];
            let mut at = 0;
            for event in events {
                at += 1 + draw(3) as usize;
                script.insert(at, event);
            }

            let mut prev = session.read_view();
            assert_snapshot_matches_live(&mut session, &prev, "at registration");
            let mut seen_unknown = false;
            let mut seen_dirty = false;
            for (step, event) in script.into_iter().enumerate() {
                let context = format!("seed {seed} step {step} ({event})");
                let mut fresh: &[&str] = &[];
                take(&LINES_ESCAPED);
                match event {
                    "random" => {
                        let (rel, n) = if draw(2) == 0 { ("e", 5) } else { ("move", 4) };
                        let fact = format!("{rel}({}, {})", draw(n), draw(n));
                        if draw(3) == 0 {
                            session.retract_fact(&fact).unwrap();
                        } else {
                            session.assert_fact(&fact).unwrap();
                        }
                    }
                    "noop" => {
                        let out = session.assert_fact("e(11, 100)").unwrap();
                        assert_eq!(out.applied, 0);
                    }
                    "bomb" => {
                        let out = session.assert_fact("e(100, 200)").unwrap();
                        let paths = out.views.iter().find(|v| v.view == "paths").unwrap();
                        assert_eq!(paths.status, ViewStatus::Error, "{context}");
                    }
                    "query-dirty" => {
                        // Only the writer retries a dirty view; the bridge
                        // is still in, so the rebuild cannot fit either.
                        assert!(session.views["paths"].dirty.is_some(), "{context}");
                        assert!(session.query("paths", None).is_err());
                    }
                    "defuse" => {
                        let out = session.retract_fact("e(100, 200)").unwrap();
                        let paths = out.views.iter().find(|v| v.view == "paths").unwrap();
                        assert_eq!(paths.status, ViewStatus::Rebuilt, "{context}");
                    }
                    "idb" | "unidb" => {
                        let out = if event == "idb" {
                            session.assert_fact("tc(7, 7)").unwrap()
                        } else {
                            session.retract_fact("tc(7, 7)").unwrap()
                        };
                        let paths = out.views.iter().find(|v| v.view == "paths").unwrap();
                        assert_ne!(paths.status, ViewStatus::Maintained, "{context}");
                    }
                    "reregister" => {
                        session.unregister("game").unwrap();
                        session
                            .register_datalog("game", WIN, Semantics::Valid)
                            .unwrap();
                        fresh = &["game"];
                    }
                    "noise" => {
                        session.assert_fact("noise(1)").unwrap();
                    }
                    other => unreachable!("{other}"),
                }
                // The reuse state is the session's: publishing twice
                // shares everything, and dropping the previous epoch
                // before publishing the next changes nothing.
                let now = if step % 2 == 0 {
                    session.read_view()
                } else {
                    let now = session.read_view();
                    let again = session.read_view();
                    for (name, view) in &now.views {
                        let state = |v: &PublishedView| v.state.as_ref().map(Arc::as_ptr);
                        assert_eq!(state(view), state(&again.views[name]));
                        assert!(Arc::ptr_eq(&view.plan, &again.views[name].plan));
                    }
                    drop(now);
                    again
                };
                let escaped = take(&LINES_ESCAPED);
                assert_snapshot_matches_live(&mut session, &now, &context);
                assert_epochs_share(&prev, &now, fresh, escaped, &context);
                seen_dirty |= now.views["paths"].state.is_none();
                for name in ["game", "ref"] {
                    if let Some(ViewSnapshot::Datalog { unknown, .. }) =
                        now.views[name].state.as_deref()
                    {
                        seen_unknown |= !unknown.is_empty();
                    }
                }
                prev = now;
            }
            assert!(seen_unknown && seen_dirty, "seed {seed}");
        }
    }

    #[test]
    fn read_view_defers_dirty_views_to_the_writer() {
        let mut session = Session::new(Budget::LARGE);
        session.load("e(1, 2).").unwrap();
        session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        session.views.get_mut("paths").unwrap().dirty = Some("boom".into());
        let view = session.read_view();
        assert_eq!(view.query("paths", Some("tc")).unwrap(), None);
        assert!(view.stats(Some("paths")).unwrap()[0].dirty);
        // The writer path transparently rebuilds and answers.
        let QueryAnswer::Datalog { certain, .. } = session.query("paths", Some("tc")).unwrap()
        else {
            panic!()
        };
        assert_eq!(certain, vec!["tc(1, 2).".to_string()]);
        // And the *next* snapshot serves it again.
        assert!(session
            .read_view()
            .query("paths", Some("tc"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn incremental_beats_cold_on_tc_delta_workload() {
        // The acceptance workload: a TC view over a sizable chain; the
        // incremental path must show strictly fewer derivations than the
        // cold registration.
        let mut session = Session::new(Budget::LARGE);
        let facts: String = (1..80).map(|k| format!("e({k}, {}).\n", k + 1)).collect();
        session.load(&facts).unwrap();
        let reg = session
            .register_datalog("paths", TC, Semantics::Valid)
            .unwrap();
        let out = session.assert_fact("e(80, 81)").unwrap();
        let incr = out.views[0].stats;
        assert!(
            incr.facts_inserted < reg.stats.facts_inserted,
            "incremental {} !< cold {}",
            incr.facts_inserted,
            reg.stats.facts_inserted
        );
        let out = session.retract_fact("e(40, 41)").unwrap();
        let incr = out.views[0].stats;
        assert!(
            incr.facts_inserted < reg.stats.facts_inserted,
            "delete: incremental {} !< cold {}",
            incr.facts_inserted,
            reg.stats.facts_inserted
        );
    }
}
