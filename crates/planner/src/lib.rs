//! # cjq-planner — safe-plan selection for continuous join queries
//!
//! Implements the paper's §5.2 discussion as working components:
//!
//! * [`enumerate`] — System-R-style dynamic programming that generates only
//!   *safe* plans (strongly connected punctuation-graph blocks as building
//!   blocks), plus counting of safe vs. all plans;
//! * [`cost`] — an analytical cost model over arrival rates, punctuation
//!   lags, and selectivities;
//! * [`scheme_select`] — Plan Parameter I: minimal punctuation-scheme
//!   subsets that keep the query safe;
//! * [`choose`] — objective-driven plan choice (memory vs. throughput);
//! * [`fingerprint`] — canonical sub-plan fingerprints that predict which
//!   operators the multi-query registry shares between concurrent queries.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod choose;
pub mod cost;
pub mod enumerate;
pub mod fingerprint;
pub mod scheme_select;

/// Convenient re-exports of the most common items.
pub mod prelude {
    pub use crate::choose::{choose_plan, ChosenPlan, Objective};
    pub use crate::cost::{CostModel, PlanCost, Stats};
    pub use crate::enumerate::{mask_of, streams_of, PlanSpace};
    pub use crate::fingerprint::{
        plan_fingerprint, scoped_fingerprint, sharing_report, subplan_fingerprints, Fingerprint,
        SharingReport,
    };
    pub use crate::scheme_select::{greedy_minimal, minimal_safe_subsets, minimum_safe_subset};
}
