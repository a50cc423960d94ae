//! The on-disk scenario corpus.
//!
//! A corpus is a directory of scenarios; each scenario is a directory:
//!
//! ```text
//! scenarios/
//!   acl_authz/
//!     meta.json        # title, description, tags, views, edb file
//!     program.dl       # program text referenced by meta's views
//!     edb.dl           # extensional database (Datalog fact list)
//!     trace.ndjson     # recorded line-protocol requests (the workload)
//!     expected.ndjson  # recorded replies, one per trace line
//! ```
//!
//! `meta.json` (parsed with the serving layer's hand-rolled JSON):
//!
//! ```text
//! {"title": "...", "description": "...", "tags": ["authz", "fast"],
//!  "edb": "edb.dl",
//!  "views": [{"name": "allow", "program": "program.dl",
//!             "semantics": "valid", "kind": "datalog",
//!             "strategy": "incremental"}]}
//! ```
//!
//! `strategy` (optional, default `auto`) pins the view's maintenance
//! strategy — `incremental` or `recompute` — so a recording stays
//! byte-comparable no matter which default the serving layer would
//! pick; see `algrec_serve::StrategyPin`.
//!
//! Setup (loading the EDB, registering the views) is performed by the
//! replay harness from this metadata; the trace then contains only the
//! workload — asserts, retracts, and queries. `expected.ndjson` is
//! written by `algrec scenario record` and diffed (modulo epoch tags,
//! see [`crate::replay`](mod@crate::replay)) by `algrec scenario run`.

use algrec_serve::json::{self, Json};
use algrec_serve::parse_semantics;
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a corpus or scenario could not be loaded.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure reading a corpus file.
    Io(PathBuf, std::io::Error),
    /// A corpus file failed to parse or validate.
    Invalid(PathBuf, String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            CorpusError::Invalid(p, msg) => write!(f, "{}: {msg}", p.display()),
        }
    }
}

impl std::error::Error for CorpusError {}

/// One materialized view a scenario registers before its trace runs.
#[derive(Debug, Clone)]
pub struct ViewSpec {
    /// View name (`register`'s `view` operand).
    pub name: String,
    /// Program text, read from the file `meta.json` referenced.
    pub program: String,
    /// Canonical semantics name (validated against [`parse_semantics`];
    /// ignored for algebra views).
    pub semantics: String,
    /// `datalog` or `algebra`.
    pub kind: String,
    /// Maintenance-strategy pin (validated against
    /// [`algrec_serve::StrategyPin::parse`]; `auto` when `meta.json`
    /// omits it, ignored for algebra views).
    pub strategy: String,
}

/// One scenario, fully loaded into memory.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Directory name — the scenario's identity for filters and reports.
    pub name: String,
    /// The scenario's directory.
    pub dir: PathBuf,
    /// Human title from `meta.json`.
    pub title: String,
    /// Longer description from `meta.json`.
    pub description: String,
    /// Filterable tags.
    pub tags: Vec<String>,
    /// Views registered at setup.
    pub views: Vec<ViewSpec>,
    /// Extensional database loaded at setup (Datalog fact list).
    pub edb: String,
    /// The workload: recorded request lines, in order.
    pub trace: Vec<String>,
    /// Recorded replies (one per trace line), if the scenario has been
    /// recorded. `None` until `algrec scenario record` has run.
    pub expected: Option<Vec<String>>,
}

impl Scenario {
    /// The semantics facet the filter DSL's `semantics` key tests:
    /// every view's canonical semantics name (algebra views contribute
    /// `algebra`).
    pub fn semantics_facet(&self) -> Vec<String> {
        self.views
            .iter()
            .map(|v| {
                if v.kind == "algebra" {
                    "algebra".to_string()
                } else {
                    v.semantics.clone()
                }
            })
            .collect()
    }

    /// Path of the recorded-replies file.
    pub fn expected_path(&self) -> PathBuf {
        self.dir.join("expected.ndjson")
    }
}

fn read(path: &Path) -> Result<String, CorpusError> {
    std::fs::read_to_string(path).map_err(|e| CorpusError::Io(path.to_path_buf(), e))
}

fn invalid(path: &Path, msg: impl Into<String>) -> CorpusError {
    CorpusError::Invalid(path.to_path_buf(), msg.into())
}

fn str_field(meta: &Json, key: &str, path: &Path) -> Result<String, CorpusError> {
    meta.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(path, format!("meta.json: missing string field `{key}`")))
}

fn str_list(meta: &Json, key: &str, path: &Path) -> Result<Vec<String>, CorpusError> {
    match meta.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| invalid(path, format!("meta.json: `{key}` must be strings")))
            })
            .collect(),
        Some(_) => Err(invalid(
            path,
            format!("meta.json: `{key}` must be an array"),
        )),
    }
}

/// Non-empty lines of an NDJSON file, each validated as one JSON object.
fn ndjson_lines(path: &Path) -> Result<Vec<String>, CorpusError> {
    let mut lines = Vec::new();
    for (i, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        json::parse(line).map_err(|e| invalid(path, format!("line {}: {e}", i + 1)))?;
        lines.push(line.to_string());
    }
    Ok(lines)
}

/// Load one scenario directory.
pub fn load_scenario(dir: &Path) -> Result<Scenario, CorpusError> {
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| invalid(dir, "scenario directory has no utf-8 name"))?
        .to_string();
    let meta_path = dir.join("meta.json");
    let meta = json::parse(&read(&meta_path)?)
        .map_err(|e| invalid(&meta_path, format!("meta.json: {e}")))?;

    let mut views = Vec::new();
    let Some(Json::Arr(view_items)) = meta.get("views") else {
        return Err(invalid(&meta_path, "meta.json: missing `views` array"));
    };
    if view_items.is_empty() {
        return Err(invalid(&meta_path, "meta.json: `views` must be non-empty"));
    }
    for item in view_items {
        let view_name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid(&meta_path, "meta.json: view missing `name`"))?;
        let program_file = item
            .get("program")
            .and_then(Json::as_str)
            .unwrap_or("program.dl");
        let kind = item
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("datalog")
            .to_string();
        let semantics = item
            .get("semantics")
            .and_then(Json::as_str)
            .unwrap_or("valid")
            .to_string();
        let strategy = item
            .get("strategy")
            .and_then(Json::as_str)
            .unwrap_or("auto")
            .to_string();
        if kind == "datalog" {
            parse_semantics(&semantics).map_err(|e| invalid(&meta_path, e))?;
            algrec_serve::StrategyPin::parse(&strategy).ok_or_else(|| {
                invalid(
                    &meta_path,
                    format!(
                        "meta.json: unknown strategy `{strategy}`; \
                         expected one of: auto, incremental, recompute"
                    ),
                )
            })?;
        } else if kind != "algebra" {
            return Err(invalid(
                &meta_path,
                format!("meta.json: unknown view kind `{kind}`"),
            ));
        }
        views.push(ViewSpec {
            name: view_name.to_string(),
            program: read(&dir.join(program_file))?,
            semantics,
            kind,
            strategy,
        });
    }

    let edb = match meta.get("edb").and_then(Json::as_str) {
        Some(file) => read(&dir.join(file))?,
        None => String::new(),
    };
    let trace = ndjson_lines(&dir.join("trace.ndjson"))?;
    if trace.is_empty() {
        return Err(invalid(dir, "trace.ndjson has no requests"));
    }
    let expected_path = dir.join("expected.ndjson");
    let expected = if expected_path.exists() {
        let lines = ndjson_lines(&expected_path)?;
        if lines.len() != trace.len() {
            return Err(invalid(
                &expected_path,
                format!(
                    "{} recorded replies for {} trace requests — re-record the scenario",
                    lines.len(),
                    trace.len()
                ),
            ));
        }
        Some(lines)
    } else {
        None
    };

    Ok(Scenario {
        name,
        dir: dir.to_path_buf(),
        title: str_field(&meta, "title", &meta_path)?,
        description: str_field(&meta, "description", &meta_path).unwrap_or_default(),
        tags: str_list(&meta, "tags", &meta_path)?,
        views,
        edb,
        trace,
        expected,
    })
}

/// Load every scenario in a corpus directory, sorted by name so every
/// listing, run, and report is deterministic.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, CorpusError> {
    let mut scenarios = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            scenarios.push(load_scenario(&path)?);
        }
    }
    if scenarios.is_empty() {
        return Err(invalid(dir, "corpus directory contains no scenarios"));
    }
    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &Path, content: &str) {
        std::fs::write(path, content).unwrap();
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("algrec-scenario-corpus-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_minimal(dir: &Path) {
        write(
            &dir.join("meta.json"),
            r#"{"title": "t", "description": "d", "tags": ["fast"],
                "edb": "edb.dl",
                "views": [{"name": "v", "semantics": "stratified"}]}"#,
        );
        write(&dir.join("program.dl"), "p(X) :- e(X, Y).\n");
        write(&dir.join("edb.dl"), "e(1, 2).\n");
        write(
            &dir.join("trace.ndjson"),
            "{\"id\": 1, \"op\": \"query\", \"view\": \"v\", \"pred\": \"p\"}\n",
        );
    }

    #[test]
    fn loads_a_minimal_scenario() {
        let root = scratch("minimal");
        let dir = root.join("one");
        std::fs::create_dir(&dir).unwrap();
        seed_minimal(&dir);
        let s = load_scenario(&dir).unwrap();
        assert_eq!(s.name, "one");
        assert_eq!(s.views.len(), 1);
        assert_eq!(s.views[0].program, "p(X) :- e(X, Y).\n");
        assert_eq!(s.views[0].strategy, "auto");
        assert_eq!(s.trace.len(), 1);
        assert!(s.expected.is_none());
        assert_eq!(s.semantics_facet(), vec!["stratified".to_string()]);
        let corpus = load_corpus(&root).unwrap();
        assert_eq!(corpus.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_mismatched_recording() {
        let root = scratch("mismatch");
        let dir = root.join("one");
        std::fs::create_dir(&dir).unwrap();
        seed_minimal(&dir);
        write(
            &dir.join("expected.ndjson"),
            "{\"id\": 1, \"ok\": true}\n{\"id\": 2, \"ok\": true}\n",
        );
        let err = load_scenario(&dir).unwrap_err().to_string();
        assert!(err.contains("re-record"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_bad_semantics_and_bad_trace_json() {
        let root = scratch("invalid");
        let dir = root.join("one");
        std::fs::create_dir(&dir).unwrap();
        seed_minimal(&dir);
        write(
            &dir.join("meta.json"),
            r#"{"title": "t", "views": [{"name": "v", "semantics": "zen"}]}"#,
        );
        let err = load_scenario(&dir).unwrap_err().to_string();
        assert!(err.contains("unknown semantics"), "{err}");
        seed_minimal(&dir);
        write(
            &dir.join("meta.json"),
            r#"{"title": "t", "views": [{"name": "v", "semantics": "valid",
                "strategy": "sideways"}]}"#,
        );
        let err = load_scenario(&dir).unwrap_err().to_string();
        assert!(err.contains("unknown strategy `sideways`"), "{err}");
        seed_minimal(&dir);
        write(&dir.join("trace.ndjson"), "not json\n");
        let err = load_scenario(&dir).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
