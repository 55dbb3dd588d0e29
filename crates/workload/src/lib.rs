//! # cjq-workload — workload generators for punctuated-stream experiments
//!
//! Deterministic, seeded generators for every experiment family:
//!
//! * [`auction`] — the paper's Example 1 (items/bids with uniqueness and
//!   auction-close punctuations);
//! * [`network`] — the §5.1 network-monitoring scenario (conjunctive
//!   `(src, seqno)` joins, multi-attribute punctuations, sequence-number
//!   cycling that motivates punctuation lifespans);
//! * [`sensor`] — a sensor-network scenario (3-way join on `(sensor, epoch)`
//!   with multi-attribute punctuations only);
//! * [`trades`] — market data with heartbeat/watermark punctuations (ordered
//!   `ts ≤ T` schemes, after Srivastava & Widom \[11\]);
//! * [`keyed`] — generic round-keyed feeds for any fixture query, with a
//!   punctuation-lag knob controlling steady-state state size;
//! * [`skewed`] — hot-set/cold-tail feeds with long punctuation lag for the
//!   two-tier (memory-budgeted) state experiments;
//! * [`graph`] — directed edge streams with punctuated vertex retirement
//!   driving cyclic (triangle/4-cycle) CJQs, skewed by hub vertices;
//! * [`multi`] — overlap-controlled multi-tenant query sets (a base chain
//!   CJQ plus K derived queries sharing a configurable fraction of join
//!   edges) for the shared-state registry bench and equivalence suite;
//! * [`random_query`] — random query/scheme-set families (plus
//!   guaranteed-safe/unsafe instances) for safety-checker scaling benches.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod auction;
pub mod graph;
pub mod keyed;
pub mod multi;
pub mod network;
pub mod random_query;
pub mod sensor;
pub mod skewed;
pub mod trades;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::auction::{auction_query, AuctionConfig};
    pub use crate::graph::{four_cycle_query, triangle_query, GraphConfig};
    pub use crate::keyed::KeyedConfig;
    pub use crate::multi::{MultiConfig, MultiTenant};
    pub use crate::network::{network_query, NetworkConfig};
    pub use crate::random_query::{RandomQueryConfig, Topology};
    pub use crate::sensor::{sensor_query, SensorConfig};
    pub use crate::skewed::SkewedConfig;
    pub use crate::trades::{trades_query, TradesConfig};
}
