//! # cjq-core — safety checking of continuous join queries over punctuated streams
//!
//! This crate implements the compile-time theory of *Li, Chen, Tatemura,
//! Agrawal, Candan, Hsiung: "Safety Guarantee of Continuous Join Queries over
//! Punctuated Data Streams" (VLDB 2006)*:
//!
//! * the data model — streams, punctuations-as-data, punctuation schemes,
//!   continuous join queries ([`schema`], [`punctuation`], [`scheme`],
//!   [`query`]);
//! * the graph constructs — join graph (Def. 6, [`join_graph`]), punctuation
//!   graph (Def. 7, [`pg`]), generalized punctuation graph (Defs. 8–10,
//!   [`gpg`]), transformed punctuation graph (Def. 11, [`tpg`]);
//! * the safety theorems — purgeability of join states and operators and
//!   safety of queries and plans (Theorems 1–5, [`safety`], [`plan`]);
//! * the chained purge strategy (§3.2.1/§4.2) reified as executable purge
//!   recipes ([`purge_plan`]).
//!
//! ## Quick example
//!
//! ```
//! use cjq_core::prelude::*;
//!
//! // The online-auction query of the paper's Example 1:
//! // item(sellerid, itemid, name, initialprice) ⋈ bid(bidderid, itemid, increase)
//! let mut catalog = Catalog::new();
//! catalog.add_stream(
//!     StreamSchema::new("item", ["sellerid", "itemid", "name", "initialprice"]).unwrap(),
//! );
//! catalog.add_stream(StreamSchema::new("bid", ["bidderid", "itemid", "increase"]).unwrap());
//! let item_id = catalog.resolve("item", "itemid").unwrap();
//! let bid_id = catalog.resolve("bid", "itemid").unwrap();
//! let query = Cjq::new(catalog, vec![JoinPredicate::new(item_id, bid_id).unwrap()]).unwrap();
//!
//! // Punctuation schemes: itemid punctuatable on both streams.
//! let schemes = SchemeSet::from_schemes([
//!     PunctuationScheme::on(0, &[1]).unwrap(),
//!     PunctuationScheme::on(1, &[1]).unwrap(),
//! ]);
//!
//! assert!(cjq_core::safety::is_query_safe(&query, &schemes));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod disjunctive;
pub mod dot;
pub mod error;
pub mod extension;
pub mod fixtures;
pub mod fxhash;
pub mod gpg;
pub mod graph;
pub mod join_graph;
pub mod pg;
pub mod plan;
pub mod punctuation;
pub mod purge_plan;
pub mod query;
pub mod safety;
pub mod schema;
pub mod scheme;
pub mod tpg;
pub mod value;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use crate::bounds::{BoundExpr, BoundReport, Contracts, StateBound};
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::gpg::GeneralizedPunctuationGraph;
    pub use crate::join_graph::JoinGraph;
    pub use crate::pg::PunctuationGraph;
    pub use crate::plan::{check_plan, Plan, PlanSafety};
    pub use crate::punctuation::{Pattern, Punctuation};
    pub use crate::purge_plan::{derive_recipe, PurgeRecipe, PurgeStep, ValueBinding};
    pub use crate::query::{Cjq, JoinPredicate};
    pub use crate::safety::{check_query, is_query_safe, CheckMethod, SafetyReport};
    pub use crate::schema::{AttrId, AttrRef, Catalog, StreamId, StreamSchema};
    pub use crate::scheme::{PunctuationScheme, SchemeSet};
    pub use crate::tpg::{transform_query, TransformedPunctuationGraph};
    pub use crate::value::{Sym, Value};
}
