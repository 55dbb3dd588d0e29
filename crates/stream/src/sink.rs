//! Columnar output buffers and streaming result sinks.
//!
//! Operators write result rows into a reusable fixed-row-width
//! [`OutputBuffer`] (one flat `Vec<Value>` arena, `Value` is `Copy` — no
//! allocation per result row), and the executor drains each root buffer into
//! a [`ResultSink`] chosen by the caller, so results never *have* to be
//! materialized whole.

use std::iter::{Chain, Copied, Zip};
use std::ops::Range;
use std::slice::{ChunksExact, Iter};

use cjq_core::value::Value;

/// A reusable, fixed-row-width columnar buffer of result rows.
///
/// Rows are stored row-major in one flat arena with a per-row arrival stamp
/// (the executor clock of the input element that produced the row — composite
/// rows need it when they are re-inserted into a parent operator's state).
/// `clear`/`reset` keep the allocations, so a buffer reused across batches
/// stops allocating once it has seen the largest batch.
#[derive(Debug, Clone, Default)]
pub struct OutputBuffer {
    width: usize,
    values: Vec<Value>,
    nows: Vec<u64>,
}

impl OutputBuffer {
    /// Creates an empty buffer for rows of `width` columns.
    #[must_use]
    pub fn new(width: usize) -> Self {
        OutputBuffer {
            width,
            values: Vec::new(),
            nows: Vec::new(),
        }
    }

    /// Row width in columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nows.len()
    }

    /// Whether the buffer holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nows.is_empty()
    }

    /// Drops all rows, keeping the row width and the allocations.
    pub fn clear(&mut self) {
        self.values.clear();
        self.nows.clear();
    }

    /// Drops all rows and switches to a new row width.
    pub fn reset(&mut self, width: usize) {
        self.clear();
        self.width = width;
    }

    /// Appends one `Null`-initialized row stamped `now`, returning it for
    /// in-place filling.
    ///
    /// # Panics
    /// Panics if the buffer's width is zero.
    pub fn alloc_row(&mut self, now: u64) -> &mut [Value] {
        assert!(self.width > 0, "output buffer has no row width");
        let start = self.values.len();
        self.values.resize(start + self.width, Value::Null);
        self.nows.push(now);
        &mut self.values[start..]
    }

    /// Appends one row stamped `now`: the concatenation of `parts`, copied
    /// in without filling the row first.
    ///
    /// # Panics
    /// Panics if the parts do not add up to the row width.
    pub fn push_row<'a>(&mut self, now: u64, parts: impl Iterator<Item = &'a [Value]>) {
        let start = self.values.len();
        parts.for_each(|part| self.values.extend_from_slice(part));
        assert!(
            self.values.len() - start == self.width,
            "row width mismatch"
        );
        self.nows.push(now);
    }

    /// The `i`-th row.
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// The `i`-th row's arrival stamp.
    #[must_use]
    pub fn now(&self, i: usize) -> u64 {
        self.nows[i]
    }

    /// Iterates the rows in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        self.values.chunks_exact(self.width.max(1))
    }

    /// The rows stamped in `(after, upto]`. An operator appends rows in
    /// stamp order, so in its output buffer they are one contiguous range.
    pub(crate) fn stamped(&self, after: u64, upto: u64) -> Stamped<'_> {
        let [lo, hi] = [after, upto].map(|t| self.nows.partition_point(|&now| now <= t));
        let rows = self.values[lo * self.width..hi * self.width].chunks_exact(self.width.max(1));
        rows.zip((0..0).chain(self.nows[lo..hi].iter().copied()))
    }
}

/// Stride-packed rows with their arrival stamps: one same-port run of an
/// operator's segment input, read from a gathered batch (a range of
/// consecutive stamps) or from a child's [`OutputBuffer`] (a stamp per row).
pub(crate) type Stamped<'a> = Zip<ChunksExact<'a, Value>, Chain<Range<u64>, Copied<Iter<'a, u64>>>>;

/// A consumer of result batches.
///
/// The executor calls [`ResultSink::accept`] once per non-empty root output
/// buffer (borrowed — the sink copies what it wants to keep) and
/// [`ResultSink::finish`] once when the feed is exhausted.
pub trait ResultSink {
    /// Consumes one batch of result rows.
    fn accept(&mut self, batch: &OutputBuffer);

    /// Called once after the last batch.
    fn finish(&mut self) {}
}

/// Collects every result row into owned `Vec<Value>`s — what the executor
/// records into `RunResult::outputs` when the caller supplies no sink.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// The collected rows, in emission order.
    pub rows: Vec<Vec<Value>>,
}

impl CollectSink {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        CollectSink::default()
    }
}

impl ResultSink for CollectSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        self.rows.extend(batch.rows().map(<[Value]>::to_vec));
    }
}

/// Counts result rows without keeping them — for throughput runs where
/// materializing results would dominate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    /// Total rows accepted.
    pub count: u64,
}

impl CountSink {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        CountSink::default()
    }
}

impl ResultSink for CountSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        self.count += batch.len() as u64;
    }
}

/// Streams every result row to a callback — for consumers that forward
/// results (to a socket, a downstream operator, a logger) instead of storing
/// them.
#[derive(Debug)]
pub struct CallbackSink<F: FnMut(&[Value])> {
    f: F,
}

impl<F: FnMut(&[Value])> CallbackSink<F> {
    /// Wraps `f`; it is invoked once per result row, in emission order.
    pub fn new(f: F) -> Self {
        CallbackSink { f }
    }
}

impl<F: FnMut(&[Value])> ResultSink for CallbackSink<F> {
    fn accept(&mut self, batch: &OutputBuffer) {
        for row in batch.rows() {
            (self.f)(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn buffer_rows_and_stamps() {
        let mut buf = OutputBuffer::new(2);
        assert!(buf.is_empty());
        buf.alloc_row(5).copy_from_slice(&[ival(1), ival(2)]);
        buf.alloc_row(7).copy_from_slice(&[ival(3), ival(4)]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.row(1), &[ival(3), ival(4)]);
        assert_eq!(buf.now(1), 7);
        let pairs: Vec<(Vec<Value>, u64)> =
            buf.stamped(0, 7).map(|(r, n)| (r.to_vec(), n)).collect();
        assert_eq!(pairs[0], (vec![ival(1), ival(2)], 5));
        assert_eq!(buf.stamped(5, 6).count(), 0, "rows stamped in (5, 6]");
        // Reset switches widths and keeps working.
        buf.reset(1);
        assert!(buf.is_empty());
        buf.alloc_row(0)[0] = ival(9);
        assert_eq!(buf.row(0), &[ival(9)]);
    }

    #[test]
    fn collect_count_and_callback_sinks() {
        let mut buf = OutputBuffer::new(1);
        buf.alloc_row(1)[0] = ival(10);
        buf.alloc_row(2)[0] = ival(20);

        let mut collect = CollectSink::new();
        collect.accept(&buf);
        assert_eq!(collect.rows, vec![vec![ival(10)], vec![ival(20)]]);

        let mut count = CountSink::new();
        count.accept(&buf);
        count.accept(&buf);
        assert_eq!(count.count, 4);

        let mut seen = Vec::new();
        let mut cb = CallbackSink::new(|row: &[Value]| seen.push(row[0]));
        cb.accept(&buf);
        cb.finish();
        assert_eq!(seen, vec![ival(10), ival(20)]);
    }
}
