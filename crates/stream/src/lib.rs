//! # cjq-stream — punctuated data-stream runtime
//!
//! The execution substrate for the safety-checking theory in [`cjq_core`]:
//! a push-based streaming engine with
//!
//! * punctuations as in-band data ([`element`], [`punct_store`]);
//! * symmetric hash joins of any arity — binary PJoin-style joins and MJoin
//!   operators are the same [`join::JoinOperator`] with 2 or n ports;
//! * the **chained purge strategy** (paper §3.2.1/§4.2) executed at runtime
//!   by the [`purge::PurgeEngine`], under either the per-operator (plan-
//!   dependent) or the query-level (plan-independent) model of §2.4;
//! * punctuation-unblocked group-by ([`groupby`]) for the paper's Example 1,
//!   which is also punctuation-aware duplicate elimination: a tuple that
//!   opens a group is a DISTINCT's first occurrence;
//! * an [`exec::Executor`] that compiles a [`cjq_core::plan::Plan`] into an
//!   operator tree and reports state-size time series ([`metrics`]) — the
//!   observable form of the paper's bounded-state safety guarantee;
//! * a shared-state multi-query [`registry::QueryRegistry`], the one engine
//!   type — the executor is one sealed with one tenant, [`parallel::Sharded`]
//!   is `P` of them — over one private operator arena and one private
//!   `pipeline` (element loop, admission, purge cycle, budget ladder, finish,
//!   checkpoint driver), driven through one trait, [`Engine`];
//! * a hardened runtime layer for hostile inputs: an admission [`guard`]
//!   with strict/quarantine/repair policies, typed [`error::ExecError`]s on
//!   the `try_*` execution paths, deterministic [`fault`] injection for
//!   chaos testing, shard supervision in [`parallel`], and a bounded-state
//!   watchdog ([`exec::ExecConfig::state_budget`]).
//!
//! ```
//! use cjq_core::fixtures;
//! use cjq_core::plan::Plan;
//! use cjq_stream::exec::{ExecConfig, Executor};
//! use cjq_stream::source::Feed;
//! use cjq_stream::Engine;
//!
//! let (query, schemes) = fixtures::fig5();
//! let plan = Plan::mjoin_all(&query);
//! let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default()).unwrap();
//! let result = exec.run(&Feed::new());
//! assert_eq!(result.metrics.outputs, 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod arena;
pub mod certify;
pub mod checkpoint;
pub mod element;
pub mod error;
pub mod exec;
pub mod fault;
pub mod groupby;
pub mod guard;
pub mod join;
pub mod layout;
pub mod metrics;
pub mod parallel;
mod pipeline;
pub mod punct_store;
pub mod purge;
pub mod registry;
pub mod segment;
pub mod sink;
pub mod source;
pub mod state;
pub mod tier;
pub mod tuple;

pub use pipeline::Engine;

// Ports, operators and the purge engine hold no interior mutability (a pass
// that finds a port to change reports it): all three may cross threads.
const _: () = {
    const fn sync<T: Sync>() {}
    sync::<state::PortState>();
    sync::<join::JoinOperator>();
    sync::<purge::PurgeEngine>();
};

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use crate::checkpoint::{CheckpointStore, InputCursor};
    pub use crate::element::StreamElement;
    pub use crate::error::{ExecError, ExecResult};
    pub use crate::exec::{
        BudgetPolicy, ExecConfig, Executor, PurgeCadence, RunResult, StateBudget,
    };
    pub use crate::fault::{Fault, FaultPlan, PanicSink};
    pub use crate::groupby::{Aggregate, GroupBy};
    pub use crate::guard::{AdmissionFault, AdmissionGuard, AdmissionPolicy};
    pub use crate::join::JoinOperator;
    pub use crate::metrics::{Metrics, StatePoint};
    pub use crate::parallel::{Partitioning, Sharded};
    pub use crate::pipeline::Engine;
    pub use crate::punct_store::PunctStore;
    pub use crate::purge::{CheckOutcome, PurgeEngine, PurgeScope};
    pub use crate::registry::{
        QueryId, QueryRegistry, QueryRunResult, RegistryRejection, RegistryResult,
    };
    pub use crate::sink::{CallbackSink, CollectSink, CountSink, OutputBuffer, ResultSink};
    pub use crate::source::{ElementBatch, Feed};
    pub use crate::tier::{SpillStore, TierConfig, TierStats};
    pub use crate::tuple::Tuple;
}
