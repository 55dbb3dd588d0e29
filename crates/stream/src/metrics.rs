//! Execution metrics: state-size time series and activity counters.
//!
//! The paper's safety notion is about *bounded join state*; the metrics make
//! that observable: a safe execution shows a flat (sawtooth) join-state
//! curve, an unsafe one grows linearly with the stream length.
//!
//! Every record here is declared **once**, as a `facts!` table: one row per
//! field with its doc comment, name, type and — where shards fold — its merge
//! rule. The struct, the snapshot codec (`write_state`/`read_state`, in table
//! order), `merge_from` and the `fields()` visitor the CLI reports walk are
//! generated from the table, so adding a counter is one row plus its
//! increment site. The crate's other counter records (`QueryStats`,
//! `OperatorStats`, `TierStats`) are declared the same way.

use crate::checkpoint::{Codec, Dec, Enc, SnapshotResult};
use crate::guard::AdmissionFault;

/// One field of a table-declared record, as its `fields()` visitor yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A counter, peak or clock.
    Int(u128),
    /// A clock that may not have struck.
    Opt(Option<u64>),
    /// Per-stream, per-port or matrix cells.
    List(Vec<u128>),
}

/// A field type the tables can hold: its codec and its reported value
/// (`None`: `fields()` leaves the field out).
pub(crate) trait Fact: Codec {
    fn value(&self) -> Option<FieldValue>;
}

macro_rules! int_facts {
    ($($t:ident),+) => {$(
        impl Fact for $t {
            fn value(&self) -> Option<FieldValue> {
                Some(FieldValue::Int(*self as u128))
            }
        }
        impl Fact for Vec<$t> {
            fn value(&self) -> Option<FieldValue> {
                Some(FieldValue::List(self.iter().map(|&v| v as u128).collect()))
            }
        }
    )+};
}
int_facts!(u64, usize, u128);

impl Fact for Option<u64> {
    fn value(&self) -> Option<FieldValue> {
        Some(FieldValue::Opt(*self))
    }
}

impl Codec for StatePoint {
    fn enc(&self, e: &mut Enc) {
        self.write_state(e);
    }
    fn dec(d: &mut Dec<'_>) -> SnapshotResult<Self> {
        StatePoint::read_state(d)
    }
}

/// The sample series is a curve, not a counter: [`Metrics::series_csv`]
/// renders it.
impl Fact for Vec<StatePoint> {
    fn value(&self) -> Option<FieldValue> {
        None
    }
}

/// How one field of two concurrent executions (shards) folds into one. Every
/// rule is associative and commutative, which is what makes shard merge
/// order irrelevant.
pub(crate) mod rule {
    use std::ops::AddAssign;

    fn grow<T: Copy + Default>(into: &mut Vec<T>, len: usize) {
        if into.len() < len {
            into.resize(len, T::default());
        }
    }

    /// Both happened: counters, and peaks of state the shards hold side by
    /// side (the fleet's physical footprint).
    pub fn sum<T: Copy + AddAssign>(into: &mut T, from: &T) {
        *into += *from;
    }

    /// "How big did any one shard get".
    pub fn max<T: Copy + Ord>(into: &mut T, from: &T) {
        *into = (*into).max(*from);
    }

    /// [`sum`] cell by cell, after growing to the longer length (matrices
    /// grow whole stream-major rows, so cells stay aligned).
    pub fn sum_vec<T: Copy + Default + AddAssign>(into: &mut Vec<T>, from: &[T]) {
        grow(into, from.len());
        into.iter_mut().zip(from).for_each(|(a, b)| *a += *b);
    }

    /// [`max`] cell by cell, after growing to the longer length.
    pub fn max_vec<T: Copy + Default + Ord>(into: &mut Vec<T>, from: &[T]) {
        grow(into, from.len());
        into.iter_mut()
            .zip(from)
            .for_each(|(a, b)| *a = (*a).max(*b));
    }

    /// The sorted union of two sorted sets.
    pub fn union<T: Copy + Ord>(into: &mut Vec<T>, from: &[T]) {
        into.extend_from_slice(from);
        into.sort_unstable();
        into.dedup();
    }

    /// Not comparable across executions: the merged record holds none.
    pub fn drop<T: Default>(into: &mut T, _from: &T) {
        *into = T::default();
    }
}

/// Declares a record once. From the rows it generates the struct, its
/// snapshot codec in row order, `FIELD_NAMES` and the `fields()` visitor;
/// rows that end in `=> rule` (one of [`rule`]'s functions) also generate
/// `merge_from`.
macro_rules! facts {
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $($(#[$doc:meta])* pub $name:ident: $t:ty,)+
        }
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $($(#[$doc])* pub $name: $t,)+
        }

        impl $ty {
            /// The field names, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Every reported field as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, $crate::metrics::FieldValue)> {
                [$((stringify!($name), $crate::metrics::Fact::value(&self.$name))),+]
                    .into_iter()
                    .filter_map(|(name, value)| Some((name, value?)))
            }

            /// Serializes every field, in declaration order, into a
            /// checkpoint payload.
            pub(crate) fn write_state(&self, e: &mut $crate::checkpoint::Enc) {
                $($crate::checkpoint::Codec::enc(&self.$name, e);)+
            }

            /// Reads back what `write_state` wrote.
            pub(crate) fn read_state(
                d: &mut $crate::checkpoint::Dec<'_>,
            ) -> $crate::checkpoint::SnapshotResult<$ty> {
                Ok($ty {
                    $($name: $crate::checkpoint::Codec::dec(d)?,)+
                })
            }

            /// A record whose every field holds a distinct non-default value.
            #[cfg(test)]
            pub(crate) fn filled(next: &mut u64) -> $ty {
                $ty {
                    $($name: $crate::metrics::tests::Sample::sample(next),)+
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $($(#[$doc:meta])* pub $name:ident: $t:ty => $rule:ident,)+
        }
    ) => {
        $crate::metrics::facts! {
            $(#[$meta])*
            pub struct $ty {
                $($(#[$doc])* pub $name: $t,)+
            }
        }

        impl $ty {
            /// Folds a concurrent execution's record into this one, each
            /// field by the merge rule its declaration names.
            pub fn merge_from(&mut self, other: &$ty) {
                $($crate::metrics::rule::$rule(&mut self.$name, &other.$name);)+
            }
        }
    };
}
pub(crate) use facts;

facts! {
    /// One sample of the executor's state sizes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StatePoint {
        /// Sequence time (elements processed so far).
        pub at: u64,
        /// Total live tuples across all operator join states (the paper's `Υ`).
        pub join_state: usize,
        /// Live raw tuples the purge engine's mirror holds (0 where none is read).
        pub mirror: usize,
        /// Punctuation-store entries.
        pub punct_entries: usize,
        /// Open (blocked) groups in the aggregation stage, if any.
        pub groups: usize,
        /// Rows resident in the cold (spilled) tier, if tiering is enabled.
        pub cold: usize,
    }
}

facts! {
    /// Aggregated metrics of one execution.
    ///
    /// The merge rule after each field is how [`Metrics::merge_from`] — the
    /// single *physical* merge behind the sharded executor and the sharded
    /// registry — folds two shards' values. Callers that need *logical*
    /// totals (a broadcast stream's refusals are seen by every shard)
    /// overwrite the affected fields afterwards, as the sharded executor's
    /// merge does for the tuple-side quarantine matrix.
    #[derive(Debug, Clone, Default)]
    pub struct Metrics {
        /// Periodic samples, in time order. Per-shard series are not
        /// comparable point for point, so a merge holds none.
        pub series: Vec<StatePoint> => drop,
        /// Peak total join-state size. In a sharded run the merge *sums* shard
        /// peaks — shard states are concurrent, so this is the peak *physical*
        /// footprint across the fleet, which can overstate the logical peak of
        /// an equivalent sequential run (shards rarely peak at the same instant,
        /// and broadcast state is replicated per shard). See
        /// [`Metrics::peak_join_state_max_shard`] for the max-merged companion.
        pub peak_join_state: usize => sum,
        /// Peak join-state size of the *largest single shard* (max-merged; in a
        /// sequential run identical to [`Metrics::peak_join_state`]). This is
        /// the right field to compare against per-shard capacity or a static
        /// per-port bound: each shard holds a subset of the logical state, so
        /// `max_shard ≤ logical peak ≤` summed [`Metrics::peak_join_state`].
        pub peak_join_state_max_shard: usize => max,
        /// Peak live rows per operator port, flattened op-major in bottom-up
        /// operator order (grown on demand; updated on every sample and whenever
        /// bound certificates are checked).
        /// Merged elementwise by **max** across shards: a shard's port holds a
        /// subset of the logical port state, so the merged value is a lower
        /// bound on the logical per-port peak and observed ≤ static-bound
        /// certificates remain sound after merging.
        pub peak_port_rows: Vec<usize> => max_vec,
        /// Peak held-mirror size.
        pub peak_mirror: usize => sum,
        /// Peak punctuation-store size.
        pub peak_punct_entries: usize => sum,
        /// Data tuples consumed.
        pub tuples_in: u64 => sum,
        /// Punctuations consumed.
        pub puncts_in: u64 => sum,
        /// Feed tuples rejected for violating an earlier punctuation. Refused
        /// tuples are in `quarantined_rows` (reason 0) as well; the one that
        /// fails a run under `AdmissionPolicy::Strict` is counted here only.
        pub violations: u64 => sum,
        /// Final result tuples emitted by the root operator.
        pub outputs: u64 => sum,
        /// Aggregate rows emitted by the group-by stage.
        pub aggregates_out: u64 => sum,
        /// Join-state tuples purged across all operators.
        pub purged: u64 => sum,
        /// Held raw mirror tuples purged.
        pub mirror_purged: u64 => sum,
        /// Punctuation-store entries dropped (lifespans + §5.1 purging).
        pub punct_dropped: u64 => sum,
        /// Number of purge cycles run.
        pub purge_cycles: u64 => sum,
        /// Candidate rows examined by purge passes (operator ports + mirror):
        /// the punctuation-delta-proportional candidate count, where a full
        /// scan would examine Σ live-state-per-cycle — compare it against
        /// `purged`.
        pub purge_candidates_examined: u64 => sum,
        /// Micro-batches pushed (one per `Executor::push_batch` call; one-element
        /// `Executor::push` calls are not counted).
        pub batches_processed: u64 => sum,
        /// Join-index probe lookups saved by within-run probe-key deduplication:
        /// for every run of consecutive same-port tuples, the probed index is hit
        /// once per *distinct* depth-0 key instead of once per tuple. Compare
        /// against `tuples_in` to see batching effectiveness.
        pub probe_keys_deduped: u64 => sum,
        /// Intermediate composite rows materialized between join operators: every
        /// row a non-root operator emits and forwards into its parent's port.
        /// The flat MJoin keeps this at 0 — on cyclic queries a tree plan's count
        /// is exactly the work it wastes on partial combinations that never
        /// close.
        pub intermediate_rows: u64 => sum,
        /// Rows re-checked by the runtime certificate verifier (fast purge check
        /// vs. explaining oracle; see `crate::certify`). Stays 0 unless
        /// `ExecConfig::verify_certificates` is on.
        pub certificate_checks: u64 => sum,
        /// Elements refused by the admission guard under
        /// `AdmissionPolicy::Quarantine` (routed to the dead-letter sink when one
        /// is attached): every cell of the two matrices below.
        pub quarantined: u64 => sum,
        /// Quarantined *tuples* as a stream-major `(stream, reason)` matrix with
        /// [`AdmissionFault::REASONS`] columns, indexed by `StreamId.0` and
        /// `AdmissionFault::code()` (grown on demand, whole rows at a time;
        /// reason 0 is the punctuation violation). Tuple quarantines are
        /// *logical* feed-level facts — each tuple of a partitioned stream is
        /// routed, and refused, exactly once, and a broadcast stream replays
        /// identically in every shard — so the sharded executor replaces the
        /// physical sum with "sum the partitioned streams, shard 0 for broadcast
        /// ones".
        pub quarantined_rows: Vec<u64> => sum_vec,
        /// Quarantined *punctuations*, the same matrix shape. These stay
        /// physical per-shard sums: a broadcast punctuation is classified
        /// against each shard's own punctuation store, so there is no shared
        /// logical count to deduplicate to.
        pub quarantined_puncts: Vec<u64> => sum_vec,
        /// Elements repaired in place under `AdmissionPolicy::Repair` (clamped
        /// regressive bounds, deduplicated punctuations).
        pub repaired: u64 => sum,
        /// Rows demoted from the hot arena into cold-tier segments.
        pub rows_demoted: u64 => sum,
        /// Cold rows faulted back into the hot arena (demand faults at probe
        /// time plus finish-time rehydration).
        pub rows_faulted: u64 => sum,
        /// Cold-tier segments written to disk.
        pub segments_written: u64 => sum,
        /// Cold-tier segments removed: certified-dropped by a covering
        /// punctuation recipe, fully drained by fault-back, or rehydrated at
        /// finish.
        pub segments_retired: u64 => sum,
        /// Peak cold-tier resident rows (tracked with the sample series, like
        /// the hot-state peaks; shard cold tiers are concurrent, so like them
        /// the fleet's footprint is the sum).
        pub cold_rows: usize => sum,
        /// Streams currently flagged by the stall detector: punctuations stopped
        /// arriving for longer than `ExecConfig::stall_budget` elements (sorted,
        /// deduped; a stream is unflagged when a punctuation shows up again).
        pub stalled_streams: Vec<usize> => union,
        /// Checkpoint snapshots committed by this run (see `crate::checkpoint`).
        pub checkpoints_written: u64 => sum,
        /// Live state rows (hot + mirror + cold) serialized across all committed
        /// checkpoints.
        pub checkpoint_rows: u64 => sum,
        /// Times this executor's state was rebuilt from a snapshot (0 on a
        /// from-scratch run, 1 after a resume).
        pub restores: u64 => sum,
        /// Snapshots skipped during restore because their frame or checksum
        /// failed validation — nonzero means the latest snapshot was torn or
        /// corrupted and recovery fell back to an older cut.
        pub snapshot_fallbacks: u64 => sum,
        /// Wall-clock processing time in nanoseconds (push calls only).
        pub elapsed_ns: u128 => sum,
    }
}

/// Adds one to cell `(stream, code)` of a stream-major quarantine matrix.
fn bump(matrix: &mut Vec<u64>, code: usize, stream: usize) {
    let w = AdmissionFault::REASONS;
    if matrix.len() <= stream * w + code {
        matrix.resize((stream + 1) * w, 0);
    }
    matrix[stream * w + code] += 1;
}

impl Metrics {
    /// Records a sample and updates peaks.
    pub fn sample(&mut self, p: StatePoint) {
        self.peak_join_state = self.peak_join_state.max(p.join_state);
        // Within one executor the two peaks coincide; they diverge only in
        // the sharded merge (sum vs. max).
        self.peak_join_state_max_shard = self.peak_join_state_max_shard.max(p.join_state);
        self.peak_mirror = self.peak_mirror.max(p.mirror);
        self.peak_punct_entries = self.peak_punct_entries.max(p.punct_entries);
        self.cold_rows = self.cold_rows.max(p.cold);
        self.series.push(p);
    }

    /// Records `live` rows observed on flattened operator port `flat_port`
    /// (op-major, bottom-up operator order; grown on demand), keeping the
    /// per-port peak.
    pub fn track_port_peak(&mut self, flat_port: usize, live: usize) {
        if self.peak_port_rows.len() <= flat_port {
            self.peak_port_rows.resize(flat_port + 1, 0);
        }
        self.peak_port_rows[flat_port] = self.peak_port_rows[flat_port].max(live);
    }

    /// Counts one quarantined *tuple* with admission-fault reason `code` on
    /// `stream`.
    pub fn count_quarantine_row(&mut self, code: usize, stream: usize) {
        self.quarantined += 1;
        bump(&mut self.quarantined_rows, code, stream);
    }

    /// Counts one quarantined *punctuation* with admission-fault reason
    /// `code` on `stream`.
    pub fn count_quarantine_punct(&mut self, code: usize, stream: usize) {
        self.quarantined += 1;
        bump(&mut self.quarantined_puncts, code, stream);
    }

    /// The quarantine matrices' cells as `(stream, reason, count)`.
    fn quarantine_cells(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let w = AdmissionFault::REASONS;
        [&self.quarantined_rows, &self.quarantined_puncts]
            .into_iter()
            .flat_map(move |m| m.iter().enumerate().map(move |(i, &n)| (i / w, i % w, n)))
    }

    /// Violating tuples per stream (indexed by `StreamId.0`): the reason-0
    /// column of the tuple-side matrix.
    #[must_use]
    pub fn violations_by_stream(&self) -> Vec<u64> {
        let w = AdmissionFault::REASONS;
        self.quarantined_rows.iter().step_by(w).copied().collect()
    }

    /// Quarantined elements per `AdmissionFault::code()`: the column sums of
    /// both matrices.
    #[must_use]
    pub fn quarantined_by_reason(&self) -> [u64; AdmissionFault::REASONS] {
        let mut by_reason = [0; AdmissionFault::REASONS];
        for (_, code, n) in self.quarantine_cells() {
            by_reason[code] += n;
        }
        by_reason
    }

    /// Quarantined elements per stream (indexed by `StreamId.0`): the row
    /// sums of both matrices.
    #[must_use]
    pub fn quarantined_by_stream(&self) -> Vec<u64> {
        let cells = self
            .quarantined_rows
            .len()
            .max(self.quarantined_puncts.len());
        let mut by_stream = vec![0; cells.div_ceil(AdmissionFault::REASONS)];
        for (stream, _, n) in self.quarantine_cells() {
            by_stream[stream] += n;
        }
        by_stream
    }

    /// Feed tuples refused for a *shape* fault (quarantined rows excluding
    /// reason code 0, punctuation violations, which `violations` already
    /// counts). Together with `tuples_in` and `violations` this accounts for
    /// every tuple the feed offered.
    #[must_use]
    pub fn shape_refused_rows(&self) -> u64 {
        let refused: u64 = self.quarantined_rows.iter().sum();
        refused - self.violations_by_stream().iter().sum::<u64>()
    }

    /// The final sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<&StatePoint> {
        self.series.last()
    }

    /// Renders the sample series as CSV, one column per [`StatePoint`] field
    /// (`mirror` counts held rows), for plotting state curves.
    #[must_use]
    pub fn series_csv(&self) -> String {
        let mut out = StatePoint::FIELD_NAMES.join(",") + "\n";
        for p in &self.series {
            let row: Vec<String> = p
                .fields()
                .map(|(_, v)| match v {
                    FieldValue::Int(n) => n.to_string(),
                    other => unreachable!("sample fields are integers, not {other:?}"),
                })
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Throughput in elements per second (0 if nothing timed).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        let elems = self.tuples_in + self.puncts_in;
        elems as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A distinct non-default value of a field type, for `filled`.
    pub(crate) trait Sample {
        fn sample(next: &mut u64) -> Self;
    }

    macro_rules! int_samples {
        ($($t:ty),+) => {$(
            impl Sample for $t {
                fn sample(next: &mut u64) -> Self {
                    *next += 1;
                    *next as $t
                }
            }
        )+};
    }
    int_samples!(u64, usize, u128);

    impl Sample for Option<u64> {
        fn sample(next: &mut u64) -> Self {
            Some(u64::sample(next))
        }
    }

    impl Sample for StatePoint {
        fn sample(next: &mut u64) -> Self {
            StatePoint::filled(next)
        }
    }

    impl<T: Sample> Sample for Vec<T> {
        fn sample(next: &mut u64) -> Self {
            vec![T::sample(next), T::sample(next)]
        }
    }

    /// The table is complete: a record with a distinct value in every row
    /// survives the codec field for field, merges into an empty record
    /// unchanged but for the dropped series, and names every row once. The
    /// record is filled through the table, so a new row is covered as is.
    #[test]
    fn every_row_round_trips_merges_and_is_named() {
        let m = Metrics::filled(&mut 0);
        let distinct: std::collections::BTreeSet<String> =
            m.fields().map(|(_, v)| format!("{v:?}")).collect();
        assert_eq!(distinct.len(), m.fields().count());
        assert!(!distinct.contains(&format!("{:?}", FieldValue::Int(0))));

        let mut e = Enc::new();
        m.write_state(&mut e);
        let mut d = Dec::new(&e.buf);
        let back = Metrics::read_state(&mut d).unwrap();
        d.expect_end().unwrap();
        assert!(m.fields().eq(back.fields()));
        assert_eq!(format!("{m:?}"), format!("{back:?}"));

        let mut merged = Metrics::default();
        merged.merge_from(&m);
        let expected = Metrics {
            series: Vec::new(),
            ..m.clone()
        };
        assert_eq!(format!("{merged:?}"), format!("{expected:?}"));

        // Every row but the series is reported, under its own name (the
        // struct keeps those distinct).
        assert_eq!(Metrics::FIELD_NAMES.len(), 35);
        let reported = Metrics::FIELD_NAMES.iter().filter(|&&n| n != "series");
        assert!(m.fields().map(|(n, _)| n).eq(reported.copied()));
    }

    /// The same macro serves every table-declared record of the crate.
    #[test]
    fn every_table_round_trips_and_folds_by_its_rules() {
        use crate::join::OperatorStats;
        use crate::registry::QueryStats;
        use crate::tier::TierStats;
        macro_rules! round_trips {
            ($($ty:ident),+) => {$(
                let filled = $ty::filled(&mut 0);
                let mut e = Enc::new();
                filled.write_state(&mut e);
                let mut d = Dec::new(&e.buf);
                assert_eq!($ty::read_state(&mut d).unwrap(), filled);
                d.expect_end().unwrap();
                assert_eq!(filled.fields().count(), $ty::FIELD_NAMES.len());
            )+};
        }
        round_trips!(StatePoint, QueryStats, OperatorStats, TierStats);

        // Counters add; a query's clocks are dropped.
        let q = QueryStats::filled(&mut 0);
        let mut merged = q;
        merged.merge_from(&q);
        let expected = QueryStats {
            outputs: 2 * q.outputs,
            purged: 2 * q.purged,
            ..QueryStats::default()
        };
        assert_eq!(merged, expected);
        let mut tier = TierStats::default();
        tier.merge_from(&TierStats::filled(&mut 0));
        assert_eq!(tier, TierStats::filled(&mut 0));
    }

    #[test]
    fn peaks_track_samples() {
        let mut m = Metrics::default();
        m.sample(StatePoint {
            at: 1,
            join_state: 5,
            mirror: 3,
            punct_entries: 1,
            groups: 0,
            cold: 7,
        });
        m.sample(StatePoint {
            at: 2,
            join_state: 2,
            mirror: 9,
            punct_entries: 4,
            groups: 2,
            cold: 3,
        });
        assert_eq!(m.peak_join_state, 5);
        assert_eq!(m.peak_mirror, 9);
        assert_eq!(m.peak_punct_entries, 4);
        assert_eq!(m.cold_rows, 7);
        assert_eq!(m.last().unwrap().at, 2);
        assert_eq!(m.series.len(), 2);
    }

    #[test]
    fn series_csv_renders_rows() {
        let mut m = Metrics::default();
        m.sample(StatePoint {
            at: 5,
            join_state: 2,
            mirror: 3,
            punct_entries: 1,
            groups: 0,
            cold: 4,
        });
        let csv = m.series_csv();
        assert_eq!(
            csv,
            "at,join_state,mirror,punct_entries,groups,cold\n5,2,3,1,0,4\n"
        );
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        // Two deliberately ragged metrics: different vector lengths, disjoint
        // quarantine reasons/streams, overlapping stall sets — every counter
        // family added in the batched/guarded/tiering PRs is exercised.
        let mut a = Metrics {
            tuples_in: 10,
            puncts_in: 3,
            outputs: 4,
            purged: 7,
            mirror_purged: 2,
            punct_dropped: 1,
            purge_cycles: 5,
            purge_candidates_examined: 40,
            batches_processed: 2,
            probe_keys_deduped: 9,
            certificate_checks: 11,
            peak_join_state: 6,
            peak_join_state_max_shard: 6,
            peak_port_rows: vec![4, 2],
            peak_mirror: 4,
            peak_punct_entries: 3,
            repaired: 1,
            rows_demoted: 12,
            rows_faulted: 9,
            segments_written: 3,
            segments_retired: 2,
            cold_rows: 6,
            violations: 2,
            stalled_streams: vec![0, 2],
            elapsed_ns: 1000,
            ..Metrics::default()
        };
        a.count_quarantine_row(1, 0);
        a.count_quarantine_row(0, 0);
        a.count_quarantine_row(0, 0);
        let mut b = Metrics {
            tuples_in: 20,
            puncts_in: 6,
            outputs: 1,
            purged: 3,
            batches_processed: 5,
            probe_keys_deduped: 2,
            peak_join_state_max_shard: 9,
            peak_port_rows: vec![1, 5, 2],
            rows_demoted: 2,
            rows_faulted: 2,
            segments_written: 1,
            segments_retired: 1,
            cold_rows: 2,
            violations: 1,
            stalled_streams: vec![1, 2],
            elapsed_ns: 500,
            ..Metrics::default()
        };
        b.count_quarantine_row(3, 2);
        b.count_quarantine_row(0, 2);
        b.count_quarantine_punct(3, 1);
        let mut c = Metrics::default();
        c.count_quarantine_row(2, 1);

        let merged = |x: &Metrics, y: &Metrics| {
            let mut m = x.clone();
            m.merge_from(y);
            m
        };
        let eq = |x: &Metrics, y: &Metrics| {
            // Metrics doesn't implement PartialEq (series are float-free but
            // intentionally incomparable across shards); compare the debug
            // rendering, which covers every field.
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        };
        eq(&merged(&a, &b), &merged(&b, &a));
        eq(&merged(&merged(&a, &b), &c), &merged(&a, &merged(&b, &c)));
        let ab = merged(&a, &b);
        assert_eq!(ab.tuples_in, 30);
        assert_eq!(ab.violations_by_stream(), vec![2, 0, 1]);
        assert_eq!(ab.quarantined, 6);
        assert_eq!(ab.quarantined_by_reason(), [3, 1, 0, 2]);
        assert_eq!(ab.quarantined_by_stream(), vec![3, 1, 2]);
        assert_eq!(ab.stalled_streams, vec![0, 1, 2]);
        assert_eq!(ab.shape_refused_rows(), 2);
        assert_eq!(ab.rows_demoted, 14);
        assert_eq!(ab.cold_rows, 8);
        // Peaks: physical sum vs. max-shard vs. elementwise per-port max.
        assert_eq!(ab.peak_join_state, 6);
        assert_eq!(ab.peak_join_state_max_shard, 9);
        assert_eq!(ab.peak_port_rows, vec![4, 5, 2]);
    }

    #[test]
    fn throughput_computation() {
        let mut m = Metrics::default();
        assert_eq!(m.throughput(), 0.0);
        m.tuples_in = 1000;
        m.elapsed_ns = 1_000_000_000;
        assert!((m.throughput() - 1000.0).abs() < 1e-9);
    }
}
