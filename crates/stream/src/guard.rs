//! Admission guard: validates every incoming element against the schema and
//! the punctuation-scheme invariants before it reaches the operators.
//!
//! The paper's safety guarantee (Theorems 1–5) is conditional on well-formed,
//! monotone punctuations. A real deployment sees malformed tuples, regressive
//! heartbeats, duplicated punctuations, and tuples that violate earlier
//! promises. The guard classifies each of those as an [`AdmissionFault`] and
//! applies the configured [`AdmissionPolicy`]:
//!
//! * [`Strict`](AdmissionPolicy::Strict) — the run fails with a typed
//!   [`crate::error::ExecError::Admission`];
//! * [`Quarantine`](AdmissionPolicy::Quarantine) (default) — the element is
//!   dropped from the pipeline, counted in
//!   [`Metrics::quarantined`](crate::metrics::Metrics::quarantined), and
//!   routed to the dead-letter [`ResultSink`] when one is attached
//!   (`Executor::with_dead_letter`);
//! * [`Repair`](AdmissionPolicy::Repair) — faults with a provably sound fix
//!   are repaired in place (a regressive ordered bound is clamped to the
//!   current threshold, i.e. admitted as a refresh; an exact duplicate
//!   punctuation is deduplicated) and counted in
//!   [`Metrics::repaired`](crate::metrics::Metrics::repaired); everything
//!   else is quarantined.
//!
//! Soundness notes: clamping a regressive bound changes no coverage (the
//! store's threshold only ever advances), so purge decisions are unaffected.
//! Dropping a duplicate changes no coverage either; under punctuation
//! *lifespans* it skips the entry's refresh, which can only make the store
//! forget coverage earlier — fewer purges, never a wrong one. Violating or
//! malformed tuples have no sound repair and are always quarantined (or
//! rejected under `Strict`).
//!
//! A violation matches a *stored* punctuation: one the store forgot (§5.1,
//! lifespans) or never kept (no live query or group-by reads its hash scheme)
//! is no purge's premise any more, and a tuple that breaks it is admitted.

use std::fmt;

use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::StreamId;
use cjq_core::value::Value;

use crate::sink::{OutputBuffer, ResultSink};

/// What to do with elements that fail admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Fail the run with a typed [`crate::error::ExecError::Admission`].
    Strict,
    /// Drop faulty elements from the pipeline, route them to the dead-letter
    /// sink (when attached) with a reason code, and count them.
    #[default]
    Quarantine,
    /// Repair provably sound faults (clamp regressive bounds, deduplicate
    /// exact duplicates); quarantine the rest.
    Repair,
}

/// Why an element failed admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionFault {
    /// A tuple matches a stored punctuation — the stream broke its own
    /// promise. Unrepairable: the tuple is quarantined even under
    /// [`AdmissionPolicy::Repair`].
    PunctuationViolation {
        /// The offending tuple's stream.
        stream: StreamId,
    },
    /// The element's width does not match the stream's declared arity.
    ArityMismatch {
        /// The element's stream.
        stream: StreamId,
        /// The schema arity.
        expected: usize,
        /// The element's width.
        got: usize,
    },
    /// The element names a stream outside the query's catalog.
    UnknownStream {
        /// The unknown stream id.
        stream: StreamId,
    },
    /// An ordered-scheme punctuation carried a bound strictly below the
    /// current threshold — the non-decreasing heartbeat invariant is broken.
    /// Repairable: clamping to the current threshold is a no-op on coverage.
    RegressiveBound {
        /// The heartbeat's stream.
        stream: StreamId,
    },
}

impl AdmissionFault {
    /// Number of distinct reason codes (the width of the `Metrics`
    /// quarantine matrices and of `Metrics::quarantined_by_reason`).
    pub const REASONS: usize = 4;

    /// Stable small-integer reason code (dead-letter rows lead with it; the
    /// `Metrics` quarantine matrices' columns are indexed by it).
    #[must_use]
    pub fn code(&self) -> usize {
        match self {
            AdmissionFault::PunctuationViolation { .. } => 0,
            AdmissionFault::ArityMismatch { .. } => 1,
            AdmissionFault::UnknownStream { .. } => 2,
            AdmissionFault::RegressiveBound { .. } => 3,
        }
    }

    /// Human-readable name of a reason code.
    #[must_use]
    pub fn code_name(code: usize) -> &'static str {
        match code {
            0 => "punctuation-violation",
            1 => "arity-mismatch",
            2 => "unknown-stream",
            3 => "regressive-bound",
            _ => "unknown",
        }
    }

    /// The stream the faulty element claimed to belong to.
    #[must_use]
    pub fn stream(&self) -> StreamId {
        match self {
            AdmissionFault::PunctuationViolation { stream }
            | AdmissionFault::ArityMismatch { stream, .. }
            | AdmissionFault::UnknownStream { stream }
            | AdmissionFault::RegressiveBound { stream } => *stream,
        }
    }
}

impl fmt::Display for AdmissionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionFault::PunctuationViolation { stream } => {
                write!(f, "tuple on {stream} violates a stored punctuation")
            }
            AdmissionFault::ArityMismatch {
                stream,
                expected,
                got,
            } => write!(
                f,
                "element on {stream} has width {got}, schema arity is {expected}"
            ),
            AdmissionFault::UnknownStream { stream } => {
                write!(f, "element names unknown {stream}")
            }
            AdmissionFault::RegressiveBound { stream } => {
                write!(f, "heartbeat on {stream} regressed below its threshold")
            }
        }
    }
}

/// Schema-shape validator built from the query catalog.
///
/// The guard itself is cheap and stateless: per-stream arities plus the
/// policy. Scheme-invariant checks (regression, duplication) are answered by
/// the per-stream [`crate::punct_store::PunctStore`] via
/// [`PunctStore::classify`](crate::punct_store::PunctStore::classify) — the
/// executor combines both.
#[derive(Debug, Clone)]
pub struct AdmissionGuard {
    arities: Vec<usize>,
    policy: AdmissionPolicy,
}

impl AdmissionGuard {
    /// Builds a guard for `query` under `policy`.
    #[must_use]
    pub fn new(query: &Cjq, policy: AdmissionPolicy) -> Self {
        let arities = query
            .stream_ids()
            .map(|s| {
                query
                    .catalog()
                    .schema(s)
                    .map_or(0, cjq_core::schema::StreamSchema::arity)
            })
            .collect();
        AdmissionGuard { arities, policy }
    }

    /// The configured policy.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Shape check for a tuple (or a whole width-homogeneous run of tuples):
    /// the stream must exist and the width must match its arity. `None`
    /// means admit.
    #[must_use]
    pub fn check_tuple_shape(&self, stream: StreamId, width: usize) -> Option<AdmissionFault> {
        match self.arities.get(stream.0) {
            None => Some(AdmissionFault::UnknownStream { stream }),
            Some(&expected) if expected != width => Some(AdmissionFault::ArityMismatch {
                stream,
                expected,
                got: width,
            }),
            Some(_) => None,
        }
    }

    /// Shape check for a punctuation: known stream, pattern count equal to
    /// the stream's arity. `None` means the scheme-invariant checks may
    /// proceed (the store for `p.stream` is safe to index).
    #[must_use]
    pub fn check_punct_shape(&self, p: &Punctuation) -> Option<AdmissionFault> {
        self.check_tuple_shape(p.stream, p.arity())
    }
}

/// Owner of the optional dead-letter sink.
///
/// Quarantined elements are rendered as rows
/// `[reason_code, stream_id, element values...]` (punctuation patterns
/// render their constant or bound, `Null` for wildcards) and delivered
/// through the ordinary [`ResultSink`] protocol, so any sink works as a
/// dead-letter queue.
pub struct DeadLetter {
    sink: Option<Box<dyn ResultSink + Send>>,
    buf: OutputBuffer,
}

impl fmt::Debug for DeadLetter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadLetter")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

impl Default for DeadLetter {
    fn default() -> Self {
        DeadLetter::none()
    }
}

impl DeadLetter {
    /// No dead-letter routing: quarantined elements are only counted.
    #[must_use]
    pub fn none() -> Self {
        DeadLetter {
            sink: None,
            buf: OutputBuffer::default(),
        }
    }

    /// Routes quarantined elements to `sink`.
    #[must_use]
    pub fn to(sink: Box<dyn ResultSink + Send>) -> Self {
        DeadLetter {
            sink: Some(sink),
            buf: OutputBuffer::default(),
        }
    }

    /// Whether a sink is attached.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one quarantined tuple row.
    pub fn emit_tuple(
        &mut self,
        fault: &AdmissionFault,
        stream: StreamId,
        row: &[Value],
        now: u64,
    ) {
        let Some(sink) = &mut self.sink else { return };
        self.buf.reset(2 + row.len());
        let out = self.buf.alloc_row(now);
        out[0] = Value::Int(fault.code() as i64);
        out[1] = Value::Int(stream.0 as i64);
        out[2..].copy_from_slice(row);
        sink.accept(&self.buf);
    }

    /// Emits one quarantined punctuation (patterns rendered positionally).
    pub fn emit_punct(&mut self, fault: &AdmissionFault, p: &Punctuation, now: u64) {
        let Some(sink) = &mut self.sink else { return };
        self.buf.reset(2 + p.arity());
        let out = self.buf.alloc_row(now);
        out[0] = Value::Int(fault.code() as i64);
        out[1] = Value::Int(p.stream.0 as i64);
        for (i, pat) in p.patterns.iter().enumerate() {
            out[2 + i] = pat
                .constant()
                .or_else(|| pat.bound())
                .copied()
                .unwrap_or(Value::Null);
        }
        sink.accept(&self.buf);
    }

    /// Flushes the sink (called once at executor finish).
    pub fn finish(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use cjq_core::fixtures;
    use cjq_core::schema::AttrId;

    #[test]
    fn shape_checks_catch_width_and_stream() {
        let (q, _) = fixtures::auction();
        let guard = AdmissionGuard::new(&q, AdmissionPolicy::Quarantine);
        assert_eq!(guard.check_tuple_shape(StreamId(0), 4), None);
        assert!(matches!(
            guard.check_tuple_shape(StreamId(0), 3),
            Some(AdmissionFault::ArityMismatch {
                expected: 4,
                got: 3,
                ..
            })
        ));
        assert!(matches!(
            guard.check_tuple_shape(StreamId(9), 4),
            Some(AdmissionFault::UnknownStream { .. })
        ));
        let p = Punctuation::with_constants(StreamId(1), 2, &[]);
        assert!(matches!(
            guard.check_punct_shape(&p),
            Some(AdmissionFault::ArityMismatch { expected: 3, .. })
        ));
    }

    #[test]
    fn fault_codes_are_stable_and_named() {
        let faults = [
            AdmissionFault::PunctuationViolation {
                stream: StreamId(0),
            },
            AdmissionFault::ArityMismatch {
                stream: StreamId(0),
                expected: 2,
                got: 1,
            },
            AdmissionFault::UnknownStream {
                stream: StreamId(0),
            },
            AdmissionFault::RegressiveBound {
                stream: StreamId(0),
            },
        ];
        for (i, f) in faults.iter().enumerate() {
            assert_eq!(f.code(), i);
            assert_ne!(AdmissionFault::code_name(i), "unknown");
            assert_eq!(f.stream(), StreamId(0));
        }
        assert!(AdmissionFault::REASONS >= faults.len());
    }

    #[test]
    fn dead_letter_rows_lead_with_reason_and_stream() {
        let mut dl = DeadLetter::to(Box::new(CollectSink::new()));
        assert!(dl.is_attached());
        let fault = AdmissionFault::ArityMismatch {
            stream: StreamId(1),
            expected: 3,
            got: 2,
        };
        dl.emit_tuple(&fault, StreamId(1), &[Value::Int(7), Value::Int(8)], 5);
        let hb = Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(4));
        dl.emit_punct(
            &AdmissionFault::RegressiveBound {
                stream: StreamId(1),
            },
            &hb,
            6,
        );
        dl.finish();
        // Rows went through accept; DeadLetter owns the sink, so assert via
        // a fresh collector fed the same way.
        let mut sink = CollectSink::new();
        let mut buf = OutputBuffer::new(4);
        buf.alloc_row(5).copy_from_slice(&[
            Value::Int(1),
            Value::Int(1),
            Value::Int(7),
            Value::Int(8),
        ]);
        sink.accept(&buf);
        assert_eq!(sink.rows.len(), 1);
    }
}
