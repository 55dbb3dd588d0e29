//! # cjq-lint — static safety analysis with structured diagnostics
//!
//! The paper's PG/GPG/TPG machinery (Theorems 1–5) decides *whether* a
//! continuous join query is safe; this crate turns that decision into
//! actionable tooling. [`lint_query`] and [`lint_plan`] run a battery of
//! analysis passes over `(Cjq, SchemeSet)` (plus a [`Plan`] for operator-level
//! checks) and emit [`Diagnostic`]s with stable codes, severities, and
//! machine-applicable [`Suggestion`]s:
//!
//! | code | name | severity | meaning |
//! |------|------|----------|---------|
//! | `E001` | `unsafe-query` | error | a TPG pair `(from, to)` is unreachable: `from`'s state can never be fully purged against future `to` data (one diagnostic per pair, each with the blocking cut) |
//! | `E002` | `unpurgeable-port` | error | a plan operator port is not purgeable under Corollary 1 (per-plan only) |
//! | `E003` | `unbounded-port` | error | a cadence/domain contract is declared but a port or mirror is provably unbounded (bounds mode only) |
//! | `W101` | `redundant-scheme` | warning | a scheme can be removed without losing query safety |
//! | `W102` | `unused-scheme` | warning | a scheme punctuates a non-join attribute and can never license a purge |
//! | `W103` | `dead-predicate` | warning | in an unsafe query: a join predicate with no punctuatable endpoint (or an isolated stream) explaining why purging fails |
//! | `W104` | `bound-exceeds-budget` | warning | the summed symbolic state bound exceeds (or cannot be certified within) the given memory budget (bounds mode only) |
//! | `S001` | `repair-suggestion` | suggestion | a minimal set of additional single-attribute schemes that makes the TPG strongly connected |
//! | `I201` | `cyclic-join-graph` | info | the join graph contains a cycle (the detected cycle is the witness): the query runs on the flat MJoin plan, which stores no intermediates |
//! | `I202` | `state-bound` | info | the symbolic (and, under contracts, numeric) state bound of one port, mirror, or punctuation store (bounds mode only) |
//!
//! Diagnostics render both as human-readable text ([`LintReport::render_text`],
//! the `cjq-check lint` output) and as JSON ([`LintReport::render_json`],
//! hand-rolled — the build environment has no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod json;
mod passes;
mod render;
pub mod repair;

pub use repair::{minimal_repair, repair_candidates};

use cjq_core::bounds::Contracts;
use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;

/// Configuration for the bound-analysis pass (`cjq-check lint --bounds`).
#[derive(Debug, Clone, Default)]
pub struct BoundsConfig {
    /// Declared cadence/domain contracts (empty = conservative defaults:
    /// every bound stays symbolic).
    pub contracts: Contracts,
    /// Memory budget in live join-state rows; when set, `W104` fires if the
    /// summed port bound exceeds it or cannot be quantified.
    pub budget: Option<u64>,
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The query (or plan) cannot run with bounded state.
    Error,
    /// Something is useless or wasteful, but safety holds.
    Warning,
    /// A machine-applicable improvement.
    Suggestion,
    /// Purely informational — nothing to fix; never counts against
    /// [`LintReport::is_clean`].
    Info,
}

impl Severity {
    /// Lower-case label used by both renderers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Suggestion => "suggestion",
            Severity::Info => "info",
        }
    }
}

/// Stable diagnostic codes (see the crate-level table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// `E001 unsafe-query`.
    UnsafeQuery,
    /// `E002 unpurgeable-port`.
    UnpurgeablePort,
    /// `E003 unbounded-port`.
    UnboundedPort,
    /// `W101 redundant-scheme`.
    RedundantScheme,
    /// `W102 unused-scheme`.
    UnusedScheme,
    /// `W103 dead-predicate`.
    DeadPredicate,
    /// `W104 bound-exceeds-budget`.
    BoundExceedsBudget,
    /// `S001 repair-suggestion`.
    RepairSuggestion,
    /// `I201 cyclic-join-graph`.
    CyclicJoinGraph,
    /// `I202 state-bound`.
    StateBound,
}

impl Code {
    /// The stable code string (`"E001"`, ...).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnsafeQuery => "E001",
            Code::UnpurgeablePort => "E002",
            Code::UnboundedPort => "E003",
            Code::RedundantScheme => "W101",
            Code::UnusedScheme => "W102",
            Code::DeadPredicate => "W103",
            Code::BoundExceedsBudget => "W104",
            Code::RepairSuggestion => "S001",
            Code::CyclicJoinGraph => "I201",
            Code::StateBound => "I202",
        }
    }

    /// The human-readable kebab-case name (`"unsafe-query"`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Code::UnsafeQuery => "unsafe-query",
            Code::UnpurgeablePort => "unpurgeable-port",
            Code::UnboundedPort => "unbounded-port",
            Code::RedundantScheme => "redundant-scheme",
            Code::UnusedScheme => "unused-scheme",
            Code::DeadPredicate => "dead-predicate",
            Code::BoundExceedsBudget => "bound-exceeds-budget",
            Code::RepairSuggestion => "repair-suggestion",
            Code::CyclicJoinGraph => "cyclic-join-graph",
            Code::StateBound => "state-bound",
        }
    }

    /// The severity every diagnostic with this code carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::UnsafeQuery | Code::UnpurgeablePort | Code::UnboundedPort => Severity::Error,
            Code::RedundantScheme
            | Code::UnusedScheme
            | Code::DeadPredicate
            | Code::BoundExceedsBudget => Severity::Warning,
            Code::RepairSuggestion => Severity::Suggestion,
            Code::CyclicJoinGraph | Code::StateBound => Severity::Info,
        }
    }
}

/// A machine-applicable edit to the query specification: spec lines (in the
/// `src/parse.rs` grammar) to append and/or delete. Applying `add` to the
/// scheme set is what the S001 acceptance test does.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Suggestion {
    /// One-line summary of the edit.
    pub summary: String,
    /// Spec lines to append, e.g. `punctuate bid(itemid)`.
    pub add: Vec<String>,
    /// Spec lines to delete, e.g. a redundant `punctuate` declaration.
    pub remove: Vec<String>,
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// One-line message (stream/attribute names resolved).
    pub message: String,
    /// Detail lines: blocking cuts, PG/TPG fragments, unreachable sets.
    pub notes: Vec<String>,
    /// Machine-applicable fix, when one exists.
    pub suggestion: Option<Suggestion>,
}

impl Diagnostic {
    /// The diagnostic's severity (a function of its code).
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

/// The result of a lint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Theorem 2/4 verdict for the query as a whole.
    pub safe: bool,
    /// All findings, errors first, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.by_severity(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.by_severity(Severity::Warning)
    }

    fn by_severity(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Whether any error-severity diagnostic was emitted.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of info-severity diagnostics.
    #[must_use]
    pub fn info_count(&self) -> usize {
        self.by_severity(Severity::Info)
    }

    /// Whether the run produced nothing actionable (the lint-gate bar for
    /// the bundled safe workloads). Info-severity diagnostics — e.g. the
    /// I201 cyclic-join-graph notice — do not count: a cyclic query is a
    /// property, not a problem.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity() == Severity::Info)
    }

    /// Diagnostics with the given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders the report as human-readable text (what `cjq-check lint`
    /// prints).
    #[must_use]
    pub fn render_text(&self) -> String {
        render::text(self)
    }

    /// The report as a JSON value (`cjq-check lint --json` prints it, with
    /// the chosen plan put in front under `--plan`).
    #[must_use]
    pub fn to_json(&self) -> json::Json {
        render::json(self)
    }

    /// Renders the report as a JSON document.
    #[must_use]
    pub fn render_json(&self) -> String {
        self.to_json().render() + "\n"
    }
}

/// Lints the query treated as a single MJoin operator: E001 per unreachable
/// TPG pair, W101/W102/W103 scheme and predicate hygiene, and — when the
/// query is unsafe but repairable — one S001 with the minimal additional
/// scheme set.
#[must_use]
pub fn lint_query(query: &Cjq, schemes: &SchemeSet) -> LintReport {
    passes::run(query, schemes, None)
}

/// Like [`lint_query`], additionally checking every operator of `plan`
/// (Corollary 1): each unpurgeable port yields an E002.
#[must_use]
pub fn lint_plan(query: &Cjq, schemes: &SchemeSet, plan: &Plan) -> LintReport {
    passes::run(query, schemes, Some(plan))
}

/// Like [`lint_plan`], additionally running the static bound analysis
/// ([`cjq_core::bounds`]): one `I202` per operator port, mirror, and
/// punctuation store; `E003` for provably unbounded state when a contract is
/// declared; `W104` when the summed bound exceeds `bounds.budget`.
#[must_use]
pub fn lint_plan_with_bounds(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    bounds: &BoundsConfig,
) -> LintReport {
    let mut report = passes::run(query, schemes, Some(plan));
    passes::bounds_pass(query, schemes, plan, bounds, &mut report.diagnostics);
    report
}
