//! The materialized-view session: a database plus named views kept
//! consistent under fact deltas.
//!
//! A [`Session`] is the shared state behind both front ends (REPL and
//! TCP server). It owns the extensional database and a map of named
//! views; [`Session::apply`] routes every change through
//! [`DatabaseDelta::apply`] so only *effective* changes (facts actually
//! added or removed) reach the maintainers, and views whose dependencies
//! the delta cannot touch are skipped with zero evaluation work.
//!
//! Maintenance strategy is chosen per view at registration time:
//!
//! | program / semantics                        | strategy                         |
//! |--------------------------------------------|----------------------------------|
//! | stratifiable, any coinciding semantics     | [`StratifiedView`]               |
//! | non-stratified, well-founded / valid / ext | [`AlternatingView`]              |
//! | inflationary, semipositive                 | [`StratifiedView`]               |
//! | inflationary, otherwise                    | [`RecomputeView`] single         |
//! | naive / semi-naive with negation           | rejected (as cold eval)          |
//! | core algebra in the planner's class        | its Thm 6.2 translation, rows 1–2 |
//! | core algebra outside it                    | recompute on dependency          |
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
//! reads; an in-class view checks each delta's inserted members against
//! those shapes and re-plans through the rebuild path on a mismatch,
//! while an out-of-class view re-plans at every recompute, so it moves
//! back once its inputs are flat again. A registration can *pin* the
//! three-valued strategy with [`StrategyPin`]: `incremental` overrides
//! the stratifiable shortcut, and `recompute` selects
//! [`RecomputeView`] levels — the only way to get changed-level
//! recomputation, used by differential tests and scenario corpora to
//! compare it with the kernel on the same trace.
//!
//! A delta that touches a predicate a view *derives* (EDB/IDB overlap),
//! or any delta while the database holds a fact of such a predicate,
//! falls back to a transparent full rebuild of that view, keeping every
//! answer identical to a cold evaluation of the same program on the
//! current database.

use crate::algebra::{self, Route};
use crate::maintain::{AlternatingView, MaintainReport, RecomputeView, StratifiedView};
use algrec_core::{AlgProgram, ValidAlgebraResult};
use algrec_datalog::ast::Program;
use algrec_datalog::explain::{catalog_from, explain_with_catalog};
use algrec_datalog::facts::{fact_value, parse_fact, parse_facts};
use algrec_datalog::interp::{set_diff, Fact, FactSet, Interp};
use algrec_datalog::stratify::strata_programs;
use algrec_datalog::Semantics;
use algrec_value::relation::first_column;
use algrec_value::{
    Budget, Database, DatabaseDelta, EvalStats, Relation, SupportCounts, Trace, Value,
};
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

/// The deterministic subset of [`EvalStats`] the protocol exposes: no
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

impl From<EvalStats> for OpStats {
    fn from(s: EvalStats) -> Self {
        OpStats {
            iterations: s.iterations,
            facts_inserted: s.facts_inserted,
            facts_materialized: s.facts_materialized,
            deltas: s.deltas.len(),
            fallbacks: s.incr.fallbacks,
        }
    }
}

impl OpStats {
    fn accumulate(&mut self, other: &OpStats) {
        self.iterations += other.iterations;
        self.facts_inserted += other.facts_inserted;
        // Materialized size is a level, not a flow: keep the latest.
        self.facts_materialized = other.facts_materialized;
        self.deltas += other.deltas;
        self.fallbacks += other.fallbacks;
    }
}

/// Run `f` under a collecting trace and return its deterministic stats.
fn traced<T, E>(
    budget: Budget,
    f: impl FnOnce(&mut algrec_value::Meter) -> Result<T, E>,
) -> Result<(T, OpStats), E> {
    let trace = Trace::collect();
    let mut meter = budget.meter_traced(trace.clone());
    let out = f(&mut meter)?;
    Ok((out, trace.stats().map(OpStats::from).unwrap_or_default()))
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

enum Maintainer {
    Stratified(StratifiedView),
    // Boxed: the alternating maintainer's pass states dwarf the other
    // variants, and views live in a map where every entry pays the
    // largest variant's size.
    Incremental(Box<AlternatingView>),
    Recompute(RecomputeView),
}

impl Maintainer {
    /// Materialize `program` with the maintainer a [`plan_datalog`]
    /// label names.
    fn new(
        strategy: &str,
        program: &Program,
        semantics: Semantics,
        db: &Database,
        meter: &mut algrec_value::Meter,
    ) -> Result<Self, ServeError> {
        Ok(match strategy {
            "stratified-incremental" => {
                Maintainer::Stratified(StratifiedView::new(program, db, meter)?)
            }
            "incremental-alternating" => Maintainer::Incremental(Box::new(AlternatingView::new(
                program, semantics, db, meter,
            )?)),
            _ => Maintainer::Recompute(RecomputeView::new(program, semantics, db, meter)?),
        })
    }

    fn strategy(&self) -> &'static str {
        match self {
            Maintainer::Stratified(_) => "stratified-incremental",
            Maintainer::Incremental(_) => "incremental-alternating",
            Maintainer::Recompute(_) => "recompute-levels",
        }
    }

    fn idb_preds(&self) -> &BTreeSet<String> {
        match self {
            Maintainer::Stratified(v) => v.idb_preds(),
            Maintainer::Incremental(v) => v.idb_preds(),
            Maintainer::Recompute(v) => v.idb_preds(),
        }
    }

    /// The model as `(certain, possible)`; one interpretation twice for
    /// the two-valued stratified maintainer.
    fn model(&self) -> (&Interp, &Interp) {
        match self {
            Maintainer::Stratified(v) => (v.total(), v.total()),
            Maintainer::Incremental(v) => (&v.model().certain, &v.model().possible),
            Maintainer::Recompute(v) => (&v.model().certain, &v.model().possible),
        }
    }

    fn maintain(
        &mut self,
        db: &Database,
        delta: &DatabaseDelta,
        meter: &mut algrec_value::Meter,
    ) -> Result<MaintainReport, ServeError> {
        Ok(match self {
            Maintainer::Stratified(v) => v.maintain(delta, meter)?,
            Maintainer::Incremental(v) => v.maintain(delta, meter)?,
            Maintainer::Recompute(v) => v.maintain(db, delta, meter)?,
        })
    }
}

/// What evaluates an algebra view.
enum AlgebraEngine {
    /// In the planner's class: the translated program under the
    /// maintainer [`plan_datalog`] picks for it. The answer is read off
    /// its model when asked for, never kept beside it.
    Translated {
        plan: algebra::Plan,
        maintainer: Box<Maintainer>,
    },
    /// Outside it: `algrec_core`'s answer, recomputed whenever a
    /// relation in `deps` moves.
    Recompute {
        deps: BTreeSet<String>,
        result: ValidAlgebraResult,
    },
}

impl AlgebraEngine {
    /// Plan `program` against `db` and materialize it.
    fn new(
        program: &AlgProgram,
        db: &Database,
        meter: &mut algrec_value::Meter,
    ) -> Result<Self, ServeError> {
        // The algebra evaluator builds its own meter: hand it the
        // caller's budget and trace.
        let route = algebra::route(program, db, *meter.budget(), meter.trace().clone())?;
        Ok(match route {
            Route::Evaluated(result) => AlgebraEngine::Recompute {
                deps: program.external_names(),
                result,
            },
            Route::Planned(plan) => {
                let strategy = plan_datalog(&plan.program, Semantics::Valid, StrategyPin::Auto)?;
                let maintainer = Box::new(Maintainer::new(
                    strategy,
                    &plan.program,
                    Semantics::Valid,
                    &plan.database(db),
                    meter,
                )?);
                AlgebraEngine::Translated { plan, maintainer }
            }
        })
    }

    fn strategy(&self) -> &'static str {
        match self {
            AlgebraEngine::Translated { maintainer, .. } => maintainer.strategy(),
            AlgebraEngine::Recompute { .. } => "algebra-recompute",
        }
    }

    /// Can a change to these relations reach the view?
    fn reads_any(&self, names: &BTreeSet<String>) -> bool {
        match self {
            AlgebraEngine::Translated { plan, .. } => plan.reads_any(names),
            AlgebraEngine::Recompute { deps, .. } => !deps.is_disjoint(names),
        }
    }

    fn answer(&self) -> Cow<'_, ValidAlgebraResult> {
        match self {
            AlgebraEngine::Translated { plan, maintainer } => {
                Cow::Owned(plan.answer(maintainer.model()))
            }
            AlgebraEngine::Recompute { result, .. } => Cow::Borrowed(result),
        }
    }
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

enum ViewKind {
    Datalog {
        program: Arc<Program>,
        semantics: Semantics,
        maintainer: Maintainer,
    },
    Algebra {
        program: Arc<AlgProgram>,
        engine: AlgebraEngine,
    },
}

impl ViewKind {
    /// The program whose plan `explain` shows: an in-class algebra
    /// view's translation, else the registered program.
    fn program(&self) -> ViewProgram {
        match self {
            ViewKind::Datalog { program, .. }
            | ViewKind::Algebra {
                engine:
                    AlgebraEngine::Translated {
                        plan: algebra::Plan { program, .. },
                        ..
                    },
                ..
            } => ViewProgram::Datalog(Arc::clone(program)),
            ViewKind::Algebra { program, .. } => ViewProgram::Algebra(Arc::clone(program)),
        }
    }
}

struct ViewEntry {
    kind: ViewKind,
    /// Program source text as registered — retained so snapshots can
    /// re-register the view verbatim.
    source: String,
    semantics_label: String,
    strategy: &'static str,
    /// The registration-time strategy pin, retained for the catalog so
    /// snapshots re-register the view with the same maintainer.
    pin: StrategyPin,
    registration: OpStats,
    last: Option<OpStats>,
    cumulative: OpStats,
    deltas_applied: usize,
    strata_skipped: usize,
    rebuilds: usize,
    dirty: Option<String>,
    /// The view's query plan against the database statistics it was last
    /// published with; replaced when those move.
    plan: Arc<Plan>,
    /// Rendered lines per predicate, each beside the fact set it was
    /// rendered from — what lets a publish re-render only what entered.
    rendered: Rendered,
    /// The published form of the current state; `None` once maintenance
    /// or a rebuild has moved the state past it.
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
    /// Facts the maintenance changed, as the view's maintainer counts
    /// them ([`MaintainReport::changed`]); for an algebra view, 1 iff its
    /// answer moved.
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

/// Format a fact the way `algrec eval` prints it, minus punctuation.
pub fn format_fact(pred: &str, args: &[Value]) -> String {
    format!(
        "{pred}({})",
        args.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Render a three-valued model as `(certain, unknown)` query lines, the
/// shared answer path of the recompute and incremental maintainers.
fn three_valued_answer(
    model: &algrec_datalog::interp::ThreeValued,
    idb: &BTreeSet<String>,
    pred: Option<&str>,
) -> (Vec<String>, Vec<String>) {
    let list = |p: &str| -> Vec<String> {
        model
            .certain
            .facts(p)
            .map(|args| format!("{}.", format_fact(p, args)))
            .collect()
    };
    let mut certain = Vec::new();
    match pred {
        Some(p) => certain.extend(list(p)),
        None => {
            for p in idb {
                certain.extend(list(p));
            }
        }
    }
    let unknown = model
        .unknown_facts()
        .into_iter()
        .filter(|(p, _)| pred.map_or_else(|| idb.contains(p), |want| p == want))
        .map(|(p, args)| format_fact(&p, &args))
        .collect();
    (certain, unknown)
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
                kind: match e.kind {
                    ViewKind::Datalog { .. } => "datalog",
                    ViewKind::Algebra { .. } => "algebra",
                },
                program: e.source.clone(),
                semantics: match &e.kind {
                    ViewKind::Datalog { semantics, .. } => Some(*semantics),
                    ViewKind::Algebra { .. } => None,
                },
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
        let program = Arc::new(algrec_datalog::parser::parse_program(src)?);
        let strategy = plan_datalog(&program, semantics, pin)?;
        let (maintainer, stats) = traced(self.budget, |meter| {
            Maintainer::new(strategy, &program, semantics, &self.db, meter)
        })?;
        let kind = ViewKind::Datalog {
            program,
            semantics,
            maintainer,
        };
        let label = crate::protocol::semantics_name(semantics);
        let entry = ViewEntry::new(kind, src, label, strategy, pin, stats, &self.data);
        self.views.insert(name.to_string(), entry);
        self.durably(&DurableEvent::RegisterDatalog {
            name,
            program: src,
            semantics,
            strategy: pin,
        })?;
        Ok(RegisterOutcome { strategy, stats })
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
        let program = Arc::new(
            algrec_core::parser::parse_program(src)
                .map_err(|e| ServeError::Parse(e.to_string()))?,
        );
        let (engine, stats) = traced(self.budget, |meter| {
            AlgebraEngine::new(&program, &self.db, meter)
        })?;
        let strategy = engine.strategy();
        let kind = ViewKind::Algebra { program, engine };
        let entry = ViewEntry::new(
            kind,
            src,
            "valid".to_string(),
            strategy,
            StrategyPin::Auto,
            stats,
            &self.data,
        );
        self.views.insert(name.to_string(), entry);
        self.durably(&DurableEvent::RegisterAlgebra { name, program: src })?;
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
        match &entry.kind {
            ViewKind::Datalog { maintainer, .. } => {
                let (certain, unknown) = match maintainer {
                    Maintainer::Stratified(v) => {
                        let mut lines = Vec::new();
                        let preds: Vec<&str> = match pred {
                            Some(p) => vec![p],
                            None => v.idb_preds().iter().map(String::as_str).collect(),
                        };
                        for p in preds {
                            for args in v.total().facts(p) {
                                lines.push(format!("{}.", format_fact(p, args)));
                            }
                        }
                        (lines, Vec::new())
                    }
                    Maintainer::Incremental(v) => {
                        three_valued_answer(v.model(), v.idb_preds(), pred)
                    }
                    Maintainer::Recompute(v) => three_valued_answer(v.model(), v.idb_preds(), pred),
                };
                Ok(QueryAnswer::Datalog { certain, unknown })
            }
            ViewKind::Algebra { engine, .. } => Ok(algebra_answer(&engine.answer())),
        }
    }

    /// Statistics for one view, or for every view in name order.
    pub fn stats(&self, name: Option<&str>) -> Result<Vec<ViewStats>, ServeError> {
        let pick = |name: &String, e: &ViewEntry| ViewStats {
            name: name.clone(),
            kind: match e.kind {
                ViewKind::Datalog { .. } => "datalog",
                ViewKind::Algebra { .. } => "algebra",
            },
            semantics: e.semantics_label.clone(),
            strategy: e.strategy,
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
                    match e.kind {
                        ViewKind::Datalog { .. } => "datalog",
                        ViewKind::Algebra { .. } => "algebra",
                    },
                    e.semantics_label.clone(),
                    e.strategy,
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
        render_plan(&entry.kind.program(), &self.data)
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
    /// resolve against it lock-free, and nothing is rendered at read
    /// time except a plan the first time it is asked for.
    ///
    /// A publish costs the sizes of the predicates the write touched, not what
    /// the views hold. The session keeps, per view and predicate, the rendered
    /// lines beside the fact set they were rendered from (`Rendered`): an
    /// interpretation's fact sets are copy-on-write handles, so a predicate
    /// whose handle is the one held is untouched and its lines are shared as
    /// they are; a touched predicate is merge-walked whole against the held set
    /// (its unknown facts found by one ordered walk) and only the facts that
    /// entered are formatted, every other line being shared with the previous
    /// epoch. A view no maintenance has moved since the last publish is shared
    /// whole. That state lives here, in the session, not in the last published
    /// snapshot — a caller that drops every snapshot pays the same. Plans are
    /// not rendered here at all: a snapshot carries the program and the
    /// database statistics (`Plan`).
    ///
    /// Lines are formatted by the same code as the live methods, so a
    /// snapshot reply is byte-identical to asking the session directly —
    /// asserted by the `read_view_matches_live_session` test. Dirty
    /// views are *not* rendered (a query would transparently rebuild,
    /// which is writer work); [`ReadView::query`] reports them as
    /// needing the writer.
    pub fn read_view(&mut self) -> ReadView {
        let mut views = BTreeMap::new();
        for (name, entry) in &mut self.views {
            // An algebra view's program changes with its engine.
            let program = entry.kind.program();
            if !Arc::ptr_eq(&entry.plan.data, &self.data) || !entry.plan.program.same(&program) {
                entry.plan = Arc::new(Plan::new(program, Arc::clone(&self.data)));
            }
            let state = match &entry.snapshot {
                Some(state) => Arc::clone(state),
                None => {
                    let state = Arc::new(entry.render());
                    entry.snapshot = Some(Arc::clone(&state));
                    state
                }
            };
            let plan = Arc::clone(&entry.plan);
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
        let (_, stats) = traced(budget, |meter| entry.rebuild(db, meter))?;
        entry.snapshot = None;
        entry.rebuilds += 1;
        entry.cumulative.accumulate(&stats);
        entry.last = Some(stats);
        entry.dirty = None;
        Ok(())
    }
}

impl ViewEntry {
    fn new(
        kind: ViewKind,
        source: &str,
        semantics_label: String,
        strategy: &'static str,
        pin: StrategyPin,
        registration: OpStats,
        data: &Arc<DataStats>,
    ) -> Self {
        let plan = Arc::new(Plan::new(kind.program(), Arc::clone(data)));
        ViewEntry {
            kind,
            source: source.to_string(),
            semantics_label,
            strategy,
            pin,
            registration,
            last: None,
            cumulative: OpStats::default(),
            deltas_applied: 0,
            strata_skipped: 0,
            rebuilds: 0,
            dirty: None,
            plan,
            rendered: Rendered::default(),
            snapshot: None,
        }
    }

    /// The published form of the current state.
    fn render(&mut self) -> ViewSnapshot {
        match (&self.dirty, &self.kind) {
            (Some(_), _) => ViewSnapshot::Dirty,
            (None, ViewKind::Datalog { maintainer, .. }) => {
                let (certain, possible, idb) = match maintainer {
                    Maintainer::Stratified(v) => (v.total(), None, v.idb_preds()),
                    Maintainer::Incremental(v) => {
                        let model = v.model();
                        (&model.certain, Some(&model.possible), v.idb_preds())
                    }
                    Maintainer::Recompute(v) => {
                        let model = v.model();
                        (&model.certain, Some(&model.possible), v.idb_preds())
                    }
                };
                let (certain, unknown) = self.rendered.update(certain, possible);
                ViewSnapshot::Datalog {
                    certain,
                    unknown,
                    idb: idb.clone(),
                }
            }
            (None, ViewKind::Algebra { engine, .. }) => {
                ViewSnapshot::Algebra(algebra_answer(&engine.answer()))
            }
        }
    }

    /// Rebuild the materialization from scratch on the current database;
    /// an algebra view is planned again. Returns whether an algebra
    /// view's answer changed.
    fn rebuild(
        &mut self,
        db: &Database,
        meter: &mut algrec_value::Meter,
    ) -> Result<bool, ServeError> {
        match &mut self.kind {
            ViewKind::Datalog {
                program,
                semantics,
                maintainer,
            } => {
                *maintainer =
                    Maintainer::new(maintainer.strategy(), program, *semantics, db, meter)?;
                Ok(false)
            }
            ViewKind::Algebra { program, engine } => {
                let next = AlgebraEngine::new(program, db, meter)?;
                let changed = {
                    let (before, after) = (engine.answer(), next.answer());
                    before.query != after.query || before.constants != after.constants
                };
                self.strategy = next.strategy();
                *engine = next;
                Ok(changed)
            }
        }
    }

    /// Route one effective delta to this view.
    fn maintain(
        &mut self,
        db: &Database,
        effective: &DatabaseDelta,
        changed_preds: &BTreeSet<String>,
        budget: Budget,
    ) -> ViewReport {
        self.deltas_applied += 1;
        let mut report = ViewReport {
            view: String::new(),
            status: ViewStatus::Maintained,
            changed: 0,
            skipped: 0,
            stats: OpStats::default(),
            error: None,
        };
        let outcome: Result<(ViewStatus, MaintainReport, OpStats), ServeError> = (|| {
            let rebuild = match &mut self.kind {
                ViewKind::Datalog { maintainer, .. } => {
                    // The incremental maintainers' support structures
                    // assume derived predicates are never base facts: a
                    // counting or DRed replay drops a derived fact with
                    // its last derivation even when the database holds
                    // it. A delta that edits such a predicate, or a
                    // database that holds any fact of one, routes to a
                    // rebuild, which folds them into the new base.
                    let idb_hit = !matches!(maintainer, Maintainer::Recompute(_))
                        && maintainer.idb_preds().iter().any(|p| {
                            changed_preds.contains(p) || db.get(p).is_some_and(|r| !r.is_empty())
                        });
                    if self.dirty.is_none() && !idb_hit {
                        let (rep, stats) =
                            traced(budget, |meter| maintainer.maintain(db, effective, meter))?;
                        return Ok((ViewStatus::Maintained, rep, stats));
                    }
                    true
                }
                ViewKind::Algebra { engine, .. } => {
                    if !engine.reads_any(changed_preds) {
                        let rep = MaintainReport {
                            changed: 0,
                            skipped: 1,
                        };
                        return Ok((ViewStatus::Skipped, rep, OpStats::default()));
                    }
                    match engine {
                        AlgebraEngine::Translated { plan, maintainer }
                            if self.dirty.is_none() && plan.admits(effective) =>
                        {
                            let delta = plan.restrict(effective);
                            let before = plan.answer_sets(maintainer.model());
                            let (rep, stats) =
                                traced(budget, |meter| maintainer.maintain(db, &delta, meter))?;
                            let moved = before != plan.answer_sets(maintainer.model());
                            let rep = MaintainReport {
                                changed: usize::from(moved),
                                skipped: rep.skipped,
                            };
                            return Ok((ViewStatus::Maintained, rep, stats));
                        }
                        // A dirty view or a shape break: plan again.
                        AlgebraEngine::Translated { .. } => true,
                        // The recompute engine's ordinary work.
                        AlgebraEngine::Recompute { .. } => self.dirty.is_some(),
                    }
                }
            };
            let (changed, stats) = traced(budget, |meter| self.rebuild(db, meter))?;
            if rebuild {
                self.rebuilds += 1;
            }
            self.dirty = None;
            let rep = MaintainReport {
                changed: usize::from(changed),
                skipped: 0,
            };
            Ok((ViewStatus::Rebuilt, rep, stats))
        })();
        match outcome {
            Ok((status, rep, stats)) => {
                if status == ViewStatus::Skipped && rep.changed == 0 && rep.skipped > 0 {
                    report.status = ViewStatus::Skipped;
                } else {
                    report.status = status;
                }
                report.changed = rep.changed;
                report.skipped = rep.skipped;
                report.stats = stats;
                self.strata_skipped += rep.skipped;
                self.cumulative.accumulate(&stats);
                self.last = Some(stats);
            }
            Err(e) => {
                let msg = e.to_string();
                self.dirty = Some(msg.clone());
                report.status = ViewStatus::Error;
                report.error = Some(msg);
            }
        }
        // Only an algebra view can be where it was — skipped, or
        // maintained without moving its answer, all its snapshot shows:
        // even a delta no rule mentions lands in a datalog view's
        // maintained total.
        let unmoved = report.status == ViewStatus::Skipped
            || (report.status == ViewStatus::Maintained
                && report.changed == 0
                && matches!(self.kind, ViewKind::Algebra { .. }));
        if !unmoved {
            self.snapshot = None;
        }
        report
    }
}

#[cfg(test)]
impl Session {
    /// Mark a view dirty the way a failed maintenance does, so a test can
    /// drive the writer fallback of a snapshot read.
    pub(crate) fn mark_dirty(&mut self, name: &str) {
        let entry = self.views.get_mut(name).expect("a registered view");
        entry.dirty = Some("marked dirty".into());
        entry.snapshot = None;
    }
}

/// One predicate's rendered lines in fact order, shared line by line
/// between the session, its snapshots and successive epochs.
type Lines = Arc<Vec<Arc<str>>>;

/// The rendered lines of one view, each predicate's beside what they
/// were rendered from. Holding a clone of a fact-set handle is what
/// makes pointer equality mean "untouched": a mutation un-shares the
/// set first, so the maintainer can never change a set this cache still
/// points at.
#[derive(Default)]
struct Rendered {
    /// `pred(args).` lines of the certain facts.
    certain: BTreeMap<String, (FactSet, Lines)>,
    /// `pred(args)` lines of the undefined facts (possible, not certain).
    unknown: BTreeMap<String, UnknownLines>,
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

/// Render `facts` (ascending), sharing the line of every fact that is
/// also in `old` (ascending, aligned with `old_lines`): a merge walk
/// that formats only what entered. Hands back `old_lines` itself when
/// nothing entered or left.
fn merge_lines<'a>(
    pred: &str,
    period: bool,
    old: impl Iterator<Item = &'a Vec<Value>>,
    old_lines: &Lines,
    facts: impl Iterator<Item = &'a Vec<Value>>,
) -> Lines {
    let mut old = old.zip(old_lines.iter()).peekable();
    let mut lines = Vec::with_capacity(old_lines.len());
    let mut same = true;
    for fact in facts {
        while old.next_if(|(was, _)| *was < fact).is_some() {
            same = false;
        }
        match old.next_if(|(was, _)| *was == fact) {
            Some((_, line)) => lines.push(Arc::clone(line)),
            None => {
                same = false;
                let mut line = format_fact(pred, fact);
                if period {
                    line.push('.');
                }
                lines.push(Arc::from(line));
            }
        }
    }
    if same && old.next().is_none() {
        Arc::clone(old_lines)
    } else {
        Arc::new(lines)
    }
}

impl Rendered {
    /// Bring the lines up to `certain` (and, for a three-valued model,
    /// `possible`), returning them per predicate. Certain lines carry
    /// the trailing period, unknown lines do not — matching
    /// [`Session::query`] exactly.
    fn update(
        &mut self,
        certain: &Interp,
        possible: Option<&Interp>,
    ) -> (BTreeMap<String, Lines>, BTreeMap<String, Lines>) {
        let none = Lines::default();
        let mut was = std::mem::take(&mut self.certain);
        let mut certain_lines = BTreeMap::new();
        for (pred, set) in certain.fact_sets() {
            let lines = match was.remove(pred) {
                Some((old, lines)) if Arc::ptr_eq(&old, set) => lines,
                Some((old, lines)) => merge_lines(pred, true, old.iter(), &lines, set.iter()),
                None => merge_lines(pred, true, [].iter(), &none, set.iter()),
            };
            certain_lines.insert(pred.to_string(), Arc::clone(&lines));
            self.certain
                .insert(pred.to_string(), (Arc::clone(set), lines));
        }

        let mut was = std::mem::take(&mut self.unknown);
        let mut unknown_lines = BTreeMap::new();
        let sets = possible.into_iter().flat_map(Interp::fact_sets);
        for (pred, set) in sets {
            // Two-valued here: pointer-equal sets, nothing read, no lines.
            let sure = certain.fact_set(pred);
            let held = was.remove(pred).unwrap_or_default();
            let moved = !Arc::ptr_eq(&held.possible, set)
                || held.certain.as_ref().map(Arc::as_ptr) != sure.map(Arc::as_ptr);
            let entry = if moved {
                let facts: Vec<Vec<Value>> = set_diff(Some(set), sure)
                    .filter(|&(unknown, _)| unknown)
                    .map(|(_, fact)| fact.clone())
                    .collect();
                let lines = merge_lines(pred, false, held.facts.iter(), &held.lines, facts.iter());
                UnknownLines {
                    possible: Arc::clone(set),
                    certain: sure.cloned(),
                    facts,
                    lines,
                }
            } else {
                held
            };
            if !entry.facts.is_empty() {
                unknown_lines.insert(pred.to_string(), Arc::clone(&entry.lines));
            }
            self.unknown.insert(pred.to_string(), entry);
        }
        (certain_lines, unknown_lines)
    }
}

/// One view's pre-rendered state inside a [`ReadView`].
enum ViewSnapshot {
    /// The last maintenance failed; a query must go through the writer,
    /// which transparently rebuilds.
    Dirty,
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
    state: Arc<ViewSnapshot>,
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

/// Lines of a borrowed [`Answer`], one predicate's run at a time.
pub struct AnswerLines<'a>(Vec<&'a [Arc<str>]>);

impl<'a> AnswerLines<'a> {
    fn of(parts: impl IntoIterator<Item = &'a Lines>) -> Self {
        AnswerLines(parts.into_iter().map(|lines| &lines[..]).collect())
    }

    /// Every line, in answer order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + Clone + '_ {
        self.0.iter().flat_map(|run| run.iter().map(|line| &**line))
    }

    fn owned(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.0.iter().map(|run| run.len()).sum());
        out.extend(self.iter().map(str::to_string));
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
        match &*view.state {
            ViewSnapshot::Dirty => Ok(None),
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

    /// [`ReadView::answer`] with the lines copied out, so the answer
    /// outlives the snapshot.
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

    const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

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
    /// shared whole, a predicate the write did not touch keeps its very
    /// lines vector, and a touched predicate keeps the line of every
    /// fact that stayed. `fresh` names views (re-)registered in between,
    /// which start from nothing.
    fn assert_epochs_share(prev: &ReadView, now: &ReadView, fresh: &[&str], context: &str) {
        for (name, after) in &now.views {
            let Some(before) = prev.views.get(name) else {
                continue;
            };
            if fresh.contains(&name.as_str()) {
                continue;
            }
            let (before, after) = match (&*before.state, &*after.state) {
                (
                    ViewSnapshot::Datalog {
                        certain: c0,
                        unknown: u0,
                        ..
                    },
                    ViewSnapshot::Datalog {
                        certain: c1,
                        unknown: u1,
                        ..
                    },
                ) => ([c0, u0], [c1, u1]),
                _ => continue,
            };
            for (was, is) in before.into_iter().zip(after) {
                for (pred, lines) in is {
                    let Some(old) = was.get(pred) else { continue };
                    if old == lines {
                        assert!(
                            Arc::ptr_eq(old, lines),
                            "{context}: {name}/{pred} re-rendered"
                        );
                        continue;
                    }
                    for line in lines.iter() {
                        if let Some(kept) = old.iter().find(|l| l == &line) {
                            assert!(Arc::ptr_eq(kept, line), "{context}: {name}: {line}");
                        }
                    }
                }
            }
        }
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
                        assert!(Arc::ptr_eq(&view.state, &again.views[name].state));
                        assert!(Arc::ptr_eq(&view.plan, &again.views[name].plan));
                    }
                    drop(now);
                    again
                };
                assert_snapshot_matches_live(&mut session, &now, &context);
                assert_epochs_share(&prev, &now, fresh, &context);
                seen_dirty |= matches!(&*now.views["paths"].state, ViewSnapshot::Dirty);
                for name in ["game", "ref"] {
                    if let ViewSnapshot::Datalog { unknown, .. } = &*now.views[name].state {
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
