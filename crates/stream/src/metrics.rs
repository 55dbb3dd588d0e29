//! Execution metrics: state-size time series and activity counters.
//!
//! The paper's safety notion is about *bounded join state*; the metrics make
//! that observable: a safe execution shows a flat (sawtooth) join-state
//! curve, an unsafe one grows linearly with the stream length.

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

/// Aggregated metrics of one execution.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Periodic samples, in time order.
    pub series: Vec<StatePoint>,
    /// Peak total join-state size. In a sharded run the merge *sums* shard
    /// peaks — shard states are concurrent, so this is the peak *physical*
    /// footprint across the fleet, which can overstate the logical peak of
    /// an equivalent sequential run (shards rarely peak at the same instant,
    /// and broadcast state is replicated per shard). See
    /// [`Metrics::peak_join_state_max_shard`] for the max-merged companion.
    pub peak_join_state: usize,
    /// Peak join-state size of the *largest single shard* (max-merged; in a
    /// sequential run identical to [`Metrics::peak_join_state`]). This is
    /// the right field to compare against per-shard capacity or a static
    /// per-port bound: each shard holds a subset of the logical state, so
    /// `max_shard ≤ logical peak ≤` summed [`Metrics::peak_join_state`].
    pub peak_join_state_max_shard: usize,
    /// Peak live rows per operator port, flattened op-major in bottom-up
    /// operator order (grown on demand; updated on every sample and whenever
    /// bound certificates are checked).
    /// Merged elementwise by **max** across shards: a shard's port holds a
    /// subset of the logical port state, so the merged value is a lower
    /// bound on the logical per-port peak and observed ≤ static-bound
    /// certificates remain sound after merging.
    pub peak_port_rows: Vec<usize>,
    /// Peak held-mirror size.
    pub peak_mirror: usize,
    /// Peak punctuation-store size.
    pub peak_punct_entries: usize,
    /// Data tuples consumed.
    pub tuples_in: u64,
    /// Punctuations consumed.
    pub puncts_in: u64,
    /// Feed tuples rejected for violating an earlier punctuation.
    pub violations: u64,
    /// Violations broken down by stream (indexed by `StreamId.0`; grown on
    /// demand). The sharded executor needs the per-stream split: broadcast
    /// streams see every violation in every shard, partitioned streams see
    /// each violation exactly once.
    pub violations_by_stream: Vec<u64>,
    /// Final result tuples emitted by the root operator.
    pub outputs: u64,
    /// Aggregate rows emitted by the group-by stage.
    pub aggregates_out: u64,
    /// Join-state tuples purged across all operators.
    pub purged: u64,
    /// Held raw mirror tuples purged.
    pub mirror_purged: u64,
    /// Punctuation-store entries dropped (lifespans + §5.1 purging).
    pub punct_dropped: u64,
    /// Number of purge cycles run.
    pub purge_cycles: u64,
    /// Candidate rows examined by purge passes (operator ports + mirror).
    /// Under `PurgeStrategy::FullScan` this is Σ live-state-per-cycle; under
    /// `Indexed` it shrinks to the punctuation-delta-proportional candidate
    /// count — the purge engine's asymptotic win, compared against `purged`.
    pub purge_candidates_examined: u64,
    /// Micro-batches pushed (one per `Executor::push_batch` call; one-element
    /// `Executor::push` calls are not counted).
    pub batches_processed: u64,
    /// Join-index probe lookups saved by within-run probe-key deduplication:
    /// for every run of consecutive same-port tuples, the probed index is hit
    /// once per *distinct* depth-0 key instead of once per tuple. Compare
    /// against `tuples_in` to see batching effectiveness.
    pub probe_keys_deduped: u64,
    /// Intermediate composite rows materialized between join operators: every
    /// row a non-root operator emits and forwards into its parent's port.
    /// The flat MJoin keeps this at 0 — on cyclic queries a tree plan's count
    /// is exactly the work it wastes on partial combinations that never
    /// close.
    pub intermediate_rows: u64,
    /// Rows re-checked by the runtime certificate verifier (fast purge check
    /// vs. explaining oracle; see `crate::certify`). Stays 0 unless
    /// `ExecConfig::verify_certificates` is on.
    pub certificate_checks: u64,
    /// Elements refused by the admission guard under
    /// `AdmissionPolicy::Quarantine` (routed to the dead-letter sink when one
    /// is attached). Violating tuples are counted here *and* in
    /// `violations` — the latter is the legacy per-stream feed-consistency
    /// counter, this is the guard's disposition counter.
    pub quarantined: u64,
    /// Quarantined elements broken down by `AdmissionFault::code()` (grown on
    /// demand).
    pub quarantined_by_reason: Vec<u64>,
    /// Quarantined elements broken down by stream (indexed by `StreamId.0`;
    /// grown on demand).
    pub quarantined_by_stream: Vec<u64>,
    /// Quarantined *tuples* as a stream-major matrix with
    /// [`AdmissionFault::REASONS`](crate::guard::AdmissionFault::REASONS)
    /// columns (grown on demand, whole rows at a time). The sharded merge
    /// needs the tuple-side `(stream, reason)` split: tuple quarantines merge
    /// logically like `violations_by_stream` (each tuple of a partitioned
    /// stream is routed — and refused — exactly once; broadcast streams
    /// replay identically in every shard), while punctuation-side
    /// quarantines (`quarantined_by_*` minus these rows) stay physical
    /// per-shard counts.
    pub quarantined_rows: Vec<u64>,
    /// Elements repaired in place under `AdmissionPolicy::Repair` (clamped
    /// regressive bounds, deduplicated punctuations).
    pub repaired: u64,
    /// Rows demoted from the hot arena into cold-tier segments.
    pub rows_demoted: u64,
    /// Cold rows faulted back into the hot arena (demand faults at probe
    /// time plus finish-time rehydration).
    pub rows_faulted: u64,
    /// Cold-tier segments written to disk.
    pub segments_written: u64,
    /// Cold-tier segments removed: certified-dropped by a covering
    /// punctuation recipe, fully drained by fault-back, or rehydrated at
    /// finish.
    pub segments_retired: u64,
    /// Peak cold-tier resident rows (tracked with the sample series, like
    /// the hot-state peaks).
    pub cold_rows: usize,
    /// Streams currently flagged by the stall detector: punctuations stopped
    /// arriving for longer than `ExecConfig::stall_budget` elements (sorted,
    /// deduped; a stream is unflagged when a punctuation shows up again).
    pub stalled_streams: Vec<usize>,
    /// Checkpoint snapshots committed by this run (see `crate::checkpoint`).
    pub checkpoints_written: u64,
    /// Live state rows (hot + mirror + cold) serialized across all committed
    /// checkpoints.
    pub checkpoint_rows: u64,
    /// Times this executor's state was rebuilt from a snapshot (0 on a
    /// from-scratch run, 1 after a resume).
    pub restores: u64,
    /// Snapshots skipped during restore because their frame or checksum
    /// failed validation — nonzero means the latest snapshot was torn or
    /// corrupted and recovery fell back to an older cut.
    pub snapshot_fallbacks: u64,
    /// Wall-clock processing time in nanoseconds (push calls only).
    pub elapsed_ns: u128,
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

    /// Counts one punctuation-violating tuple on `stream`.
    pub fn count_violation(&mut self, stream: usize) {
        self.violations += 1;
        if self.violations_by_stream.len() <= stream {
            self.violations_by_stream.resize(stream + 1, 0);
        }
        self.violations_by_stream[stream] += 1;
    }

    /// Counts one quarantined *tuple* with admission-fault reason `code` on
    /// `stream` (also tracked in the mergeable `quarantined_rows` matrix).
    pub fn count_quarantine_row(&mut self, code: usize, stream: usize) {
        self.count_quarantine(code, stream);
        let w = crate::guard::AdmissionFault::REASONS;
        if self.quarantined_rows.len() <= stream * w + code {
            self.quarantined_rows.resize((stream + 1) * w, 0);
        }
        self.quarantined_rows[stream * w + code] += 1;
    }

    /// Counts one quarantined *punctuation* with admission-fault reason
    /// `code` on `stream`.
    pub fn count_quarantine_punct(&mut self, code: usize, stream: usize) {
        self.count_quarantine(code, stream);
    }

    fn count_quarantine(&mut self, code: usize, stream: usize) {
        self.quarantined += 1;
        if self.quarantined_by_reason.len() <= code {
            self.quarantined_by_reason.resize(code + 1, 0);
        }
        self.quarantined_by_reason[code] += 1;
        if self.quarantined_by_stream.len() <= stream {
            self.quarantined_by_stream.resize(stream + 1, 0);
        }
        self.quarantined_by_stream[stream] += 1;
    }

    /// Feed tuples refused for a *shape* fault (quarantined rows excluding
    /// reason code 0, punctuation violations, which `violations` already
    /// counts). Together with `tuples_in` and `violations` this accounts for
    /// every tuple the feed offered.
    #[must_use]
    pub fn shape_refused_rows(&self) -> u64 {
        let w = crate::guard::AdmissionFault::REASONS;
        self.quarantined_rows
            .iter()
            .enumerate()
            .filter(|(i, _)| i % w != 0)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The final sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<&StatePoint> {
        self.series.last()
    }

    /// Renders the sample series as CSV
    /// (`at,join_state,mirror,punct_entries,groups,cold`; `mirror` counts held
    /// rows) for plotting state curves.
    #[must_use]
    pub fn series_csv(&self) -> String {
        let mut out = String::from("at,join_state,mirror,punct_entries,groups,cold\n");
        for p in &self.series {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                p.at, p.join_state, p.mirror, p.punct_entries, p.groups, p.cold
            ));
        }
        out
    }

    /// Folds another execution's counters into this one. This is the single
    /// *physical* merge used by both the sharded executor and the registry
    /// fan-out: every counter is summed (peaks included — shard peaks are
    /// concurrent, so the total footprint is their sum — except
    /// `peak_join_state_max_shard` and `peak_port_rows`, which take the
    /// elementwise **max**: they answer "how big did any one shard get", not
    /// "how much memory did the fleet hold"), per-stream /
    /// per-reason vectors are summed elementwise after growing to the longer
    /// length (the quarantine matrix grows whole stream-major rows, so
    /// elementwise addition keeps `(stream, reason)` cells aligned),
    /// `stalled_streams` becomes the sorted union, and the sample series is
    /// dropped (per-shard series are not comparable point-for-point).
    ///
    /// Associative and commutative by construction — see the unit test —
    /// which is what makes shard merge order irrelevant. Callers that need
    /// *logical* totals (e.g. deduplicating broadcast-stream violations)
    /// overwrite the affected fields afterwards, as `parallel::merge` does.
    pub fn merge_from(&mut self, other: &Metrics) {
        fn add_vec(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        fn max_vec(into: &mut Vec<usize>, from: &[usize]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a = (*a).max(*b);
            }
        }
        self.series.clear();
        self.peak_join_state += other.peak_join_state;
        self.peak_join_state_max_shard = self
            .peak_join_state_max_shard
            .max(other.peak_join_state_max_shard);
        max_vec(&mut self.peak_port_rows, &other.peak_port_rows);
        self.peak_mirror += other.peak_mirror;
        self.peak_punct_entries += other.peak_punct_entries;
        self.tuples_in += other.tuples_in;
        self.puncts_in += other.puncts_in;
        self.violations += other.violations;
        add_vec(&mut self.violations_by_stream, &other.violations_by_stream);
        self.outputs += other.outputs;
        self.aggregates_out += other.aggregates_out;
        self.purged += other.purged;
        self.mirror_purged += other.mirror_purged;
        self.punct_dropped += other.punct_dropped;
        self.purge_cycles += other.purge_cycles;
        self.purge_candidates_examined += other.purge_candidates_examined;
        self.batches_processed += other.batches_processed;
        self.probe_keys_deduped += other.probe_keys_deduped;
        self.intermediate_rows += other.intermediate_rows;
        self.certificate_checks += other.certificate_checks;
        self.quarantined += other.quarantined;
        add_vec(
            &mut self.quarantined_by_reason,
            &other.quarantined_by_reason,
        );
        add_vec(
            &mut self.quarantined_by_stream,
            &other.quarantined_by_stream,
        );
        add_vec(&mut self.quarantined_rows, &other.quarantined_rows);
        self.repaired += other.repaired;
        self.rows_demoted += other.rows_demoted;
        self.rows_faulted += other.rows_faulted;
        self.segments_written += other.segments_written;
        self.segments_retired += other.segments_retired;
        // Shard cold tiers are concurrent, so like the hot peaks the total
        // cold footprint is their sum.
        self.cold_rows += other.cold_rows;
        for &s in &other.stalled_streams {
            if !self.stalled_streams.contains(&s) {
                self.stalled_streams.push(s);
            }
        }
        self.stalled_streams.sort_unstable();
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoint_rows += other.checkpoint_rows;
        self.restores += other.restores;
        self.snapshot_fallbacks += other.snapshot_fallbacks;
        self.elapsed_ns += other.elapsed_ns;
    }

    /// Serializes every field into a checkpoint payload (the accumulated
    /// counters are part of the resumable state: a resumed run's final
    /// metrics must equal an uninterrupted run's).
    pub(crate) fn write_state(&self, e: &mut crate::checkpoint::Enc) {
        e.usize(self.series.len());
        for p in &self.series {
            e.u64(p.at);
            e.usize(p.join_state);
            e.usize(p.mirror);
            e.usize(p.punct_entries);
            e.usize(p.groups);
            e.usize(p.cold);
        }
        e.usize(self.peak_join_state);
        e.usize(self.peak_join_state_max_shard);
        e.usize(self.peak_port_rows.len());
        for &v in &self.peak_port_rows {
            e.usize(v);
        }
        e.usize(self.peak_mirror);
        e.usize(self.peak_punct_entries);
        e.u64(self.tuples_in);
        e.u64(self.puncts_in);
        e.u64(self.violations);
        e.u64s(&self.violations_by_stream);
        e.u64(self.outputs);
        e.u64(self.aggregates_out);
        e.u64(self.purged);
        e.u64(self.mirror_purged);
        e.u64(self.punct_dropped);
        e.u64(self.purge_cycles);
        e.u64(self.purge_candidates_examined);
        e.u64(self.batches_processed);
        e.u64(self.probe_keys_deduped);
        e.u64(self.intermediate_rows);
        e.u64(self.certificate_checks);
        e.u64(self.quarantined);
        e.u64s(&self.quarantined_by_reason);
        e.u64s(&self.quarantined_by_stream);
        e.u64s(&self.quarantined_rows);
        e.u64(self.repaired);
        e.u64(self.rows_demoted);
        e.u64(self.rows_faulted);
        e.u64(self.segments_written);
        e.u64(self.segments_retired);
        e.usize(self.cold_rows);
        e.usize(self.stalled_streams.len());
        for &s in &self.stalled_streams {
            e.usize(s);
        }
        e.u64(self.checkpoints_written);
        e.u64(self.checkpoint_rows);
        e.u64(self.restores);
        e.u64(self.snapshot_fallbacks);
        e.u128(self.elapsed_ns);
    }

    /// Deserializes a full [`Metrics`] from a checkpoint payload.
    pub(crate) fn read_state(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> crate::checkpoint::SnapshotResult<Metrics> {
        let mut m = Metrics::default();
        let n = d.usize()?;
        m.series = (0..n)
            .map(|_| {
                Ok(StatePoint {
                    at: d.u64()?,
                    join_state: d.usize()?,
                    mirror: d.usize()?,
                    punct_entries: d.usize()?,
                    groups: d.usize()?,
                    cold: d.usize()?,
                })
            })
            .collect::<crate::checkpoint::SnapshotResult<_>>()?;
        m.peak_join_state = d.usize()?;
        m.peak_join_state_max_shard = d.usize()?;
        let n = d.usize()?;
        m.peak_port_rows = (0..n)
            .map(|_| d.usize())
            .collect::<crate::checkpoint::SnapshotResult<_>>()?;
        m.peak_mirror = d.usize()?;
        m.peak_punct_entries = d.usize()?;
        m.tuples_in = d.u64()?;
        m.puncts_in = d.u64()?;
        m.violations = d.u64()?;
        m.violations_by_stream = d.u64s()?;
        m.outputs = d.u64()?;
        m.aggregates_out = d.u64()?;
        m.purged = d.u64()?;
        m.mirror_purged = d.u64()?;
        m.punct_dropped = d.u64()?;
        m.purge_cycles = d.u64()?;
        m.purge_candidates_examined = d.u64()?;
        m.batches_processed = d.u64()?;
        m.probe_keys_deduped = d.u64()?;
        m.intermediate_rows = d.u64()?;
        m.certificate_checks = d.u64()?;
        m.quarantined = d.u64()?;
        m.quarantined_by_reason = d.u64s()?;
        m.quarantined_by_stream = d.u64s()?;
        m.quarantined_rows = d.u64s()?;
        m.repaired = d.u64()?;
        m.rows_demoted = d.u64()?;
        m.rows_faulted = d.u64()?;
        m.segments_written = d.u64()?;
        m.segments_retired = d.u64()?;
        m.cold_rows = d.usize()?;
        let n = d.usize()?;
        m.stalled_streams = (0..n)
            .map(|_| d.usize())
            .collect::<crate::checkpoint::SnapshotResult<_>>()?;
        m.checkpoints_written = d.u64()?;
        m.checkpoint_rows = d.u64()?;
        m.restores = d.u64()?;
        m.snapshot_fallbacks = d.u64()?;
        m.elapsed_ns = d.u128()?;
        Ok(m)
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
mod tests {
    use super::*;

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
            violations_by_stream: vec![2],
            stalled_streams: vec![0, 2],
            elapsed_ns: 1000,
            ..Metrics::default()
        };
        a.count_quarantine_row(1, 0);
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
            violations_by_stream: vec![0, 0, 1],
            stalled_streams: vec![1, 2],
            elapsed_ns: 500,
            ..Metrics::default()
        };
        b.count_quarantine_row(3, 2);
        b.count_quarantine_punct(0, 1);
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
        assert_eq!(ab.violations_by_stream, vec![2, 0, 1]);
        assert_eq!(ab.quarantined, 3);
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
