//! Typed executor errors.
//!
//! The hardened execution paths (`Executor::try_push` and friends,
//! `Sharded::try_run_with_sinks`) surface input faults and resource
//! overruns as values of [`ExecError`] instead of panicking. The legacy
//! panicking entry points (`push`, `run`, ...) remain as thin wrappers, so
//! existing callers are unaffected; code that must survive hostile feeds
//! uses the `try_*` variants.
//!
//! Internal invariants (compiled-recipe consistency, certificate agreement)
//! deliberately stay assertions: they indicate bugs, not bad input.

use std::fmt;

use cjq_core::schema::StreamId;

use crate::guard::AdmissionFault;

/// Shorthand result type for the fallible executor paths.
pub type ExecResult<T> = Result<T, ExecError>;

/// An execution failure with enough context to act on it.
///
/// After a `try_*` push returns an error the engine is *failed*: the element
/// that raised it was only partly applied, so every later push and checkpoint
/// commit returns a clone of that first error (the `Failed` state of the
/// shared pipeline; `finish` still reports what was counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An element failed admission under [`crate::guard::AdmissionPolicy::Strict`].
    Admission {
        /// Executor clock when the offending element arrived.
        clock: u64,
        /// Why it was refused.
        fault: AdmissionFault,
    },
    /// A tuple arrived for a stream with no leaf port in the compiled plan.
    UnroutableStream(StreamId),
    /// Live join state exceeded [`crate::exec::StateBudget::max_rows`] under
    /// [`crate::exec::BudgetPolicy::HardError`].
    StateBudgetExceeded {
        /// Live join-state rows at the point of failure.
        live: usize,
        /// The configured budget.
        budget: usize,
        /// Executor clock.
        clock: u64,
    },
    /// A port's live rows exceeded its static bound certificate (see
    /// `Executor::set_port_bounds`): either the workload broke its declared
    /// cadence contract, or the bound analysis is wrong — both are hard
    /// failures worth stopping for.
    PortBoundExceeded {
        /// Operator index (bottom-up order).
        op: usize,
        /// Port index within the operator.
        port: usize,
        /// Live rows observed on the port.
        live: usize,
        /// The certified static bound.
        bound: u64,
        /// Executor clock.
        clock: u64,
    },
    /// A shard worker panicked. Surviving shards were drained gracefully
    /// before this error was returned.
    ShardPanicked {
        /// The shard whose worker panicked.
        shard: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A shard worker failed with a structured executor error of its own.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying error.
        source: Box<ExecError>,
    },
    /// No valid checkpoint snapshot could be read (missing directory, torn
    /// write past the fallback, failed checksum on every retained snapshot,
    /// or a payload the decoder rejects). Stable display code `C001`.
    CheckpointCorrupt {
        /// The snapshot path or directory involved.
        path: String,
        /// What went wrong, from the frame validator or payload decoder.
        detail: String,
    },
    /// A snapshot decoded cleanly but was taken by a different
    /// query/plan/config than the one being restored (structural fingerprint
    /// disagreement). Stable display code `C002`.
    RestoreMismatch {
        /// Fingerprint of the freshly compiled executor.
        expected: u64,
        /// Fingerprint recorded in the snapshot manifest.
        found: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Admission { clock, fault } => {
                write!(f, "admission refused at element {clock}: {fault}")
            }
            ExecError::UnroutableStream(s) => {
                write!(f, "no leaf port for {s} in the compiled plan")
            }
            ExecError::StateBudgetExceeded {
                live,
                budget,
                clock,
            } => write!(
                f,
                "state budget exceeded at element {clock}: {live} live rows > budget {budget}"
            ),
            ExecError::PortBoundExceeded {
                op,
                port,
                live,
                bound,
                clock,
            } => write!(
                f,
                "bound certificate violated at element {clock}: op {op} port {port} holds \
                 {live} live rows > static bound {bound}"
            ),
            ExecError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ExecError::Shard { shard, source } => write!(f, "shard {shard} failed: {source}"),
            ExecError::CheckpointCorrupt { path, detail } => {
                write!(f, "C001 checkpoint corrupt at {path}: {detail}")
            }
            ExecError::RestoreMismatch { expected, found } => write!(
                f,
                "C002 restore mismatch: compiled executor fingerprint \
                 {expected:#018x} but snapshot was taken by {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = ExecError::StateBudgetExceeded {
            live: 12,
            budget: 10,
            clock: 99,
        };
        let s = e.to_string();
        assert!(
            s.contains("12") && s.contains("10") && s.contains("99"),
            "{s}"
        );

        let nested = ExecError::Shard {
            shard: 3,
            source: Box::new(ExecError::UnroutableStream(StreamId(7))),
        };
        assert!(nested.to_string().contains("shard 3"));
        assert!(std::error::Error::source(&nested).is_some());
    }

    #[test]
    fn checkpoint_errors_have_stable_codes() {
        let c = ExecError::CheckpointCorrupt {
            path: "/tmp/ckpt".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(c.to_string().starts_with("C001"), "{c}");
        let m = ExecError::RestoreMismatch {
            expected: 1,
            found: 2,
        };
        assert!(m.to_string().starts_with("C002"), "{m}");
        assert!(std::error::Error::source(&m).is_none());
    }
}
