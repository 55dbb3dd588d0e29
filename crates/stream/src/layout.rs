//! Composite-tuple layouts.
//!
//! An operator in a plan tree receives, stores, and emits tuples that span
//! one or more raw streams (a child join's output carries all attributes of
//! the streams under it). A [`SpanLayout`] fixes the flattened column order
//! for a span — streams sorted by id, each contributing its schema's
//! attributes in order — so that raw attribute references `S.A` can be
//! resolved to flat column positions at any level of the plan.

use cjq_core::schema::{AttrId, Catalog, StreamId};
use cjq_core::value::Value;

/// The flattened column layout for a set of raw streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanLayout {
    streams: Vec<StreamId>,
    offsets: Vec<usize>,
    arities: Vec<usize>,
    width: usize,
}

impl SpanLayout {
    /// Builds the layout for `streams` (sorted and deduplicated internally).
    ///
    /// # Panics
    /// Panics if a stream is not in the catalog.
    #[must_use]
    pub fn new(catalog: &Catalog, streams: &[StreamId]) -> Self {
        let mut streams: Vec<StreamId> = streams.to_vec();
        streams.sort_unstable();
        streams.dedup();
        let arities: Vec<usize> = streams
            .iter()
            .map(|&s| {
                catalog
                    .schema(s)
                    .unwrap_or_else(|| panic!("stream {s} not in catalog"))
                    .arity()
            })
            .collect();
        let mut offsets = Vec::with_capacity(streams.len());
        let mut width = 0;
        for &a in &arities {
            offsets.push(width);
            width += a;
        }
        SpanLayout {
            streams,
            offsets,
            arities,
            width,
        }
    }

    /// The streams of the span, sorted ascending.
    #[must_use]
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// Total number of flattened columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the span contains `stream`.
    #[must_use]
    pub fn contains(&self, stream: StreamId) -> bool {
        self.streams.binary_search(&stream).is_ok()
    }

    /// Flat column position of `stream.attr`, if the span contains it.
    #[must_use]
    pub fn pos(&self, stream: StreamId, attr: AttrId) -> Option<usize> {
        let i = self.streams.binary_search(&stream).ok()?;
        (attr.0 < self.arities[i]).then(|| self.offsets[i] + attr.0)
    }

    /// Flat column range occupied by `stream`, if the span contains it.
    /// Lets hot loops slice rows without per-attribute `pos` lookups.
    #[must_use]
    pub fn stream_range(&self, stream: StreamId) -> Option<std::ops::Range<usize>> {
        let i = self.streams.binary_search(&stream).ok()?;
        Some(self.offsets[i]..self.offsets[i] + self.arities[i])
    }

    /// The slice of a composite tuple's values belonging to `stream`.
    #[must_use]
    pub fn slice<'a>(&self, values: &'a [Value], stream: StreamId) -> Option<&'a [Value]> {
        let i = self.streams.binary_search(&stream).ok()?;
        debug_assert_eq!(values.len(), self.width, "composite width mismatch");
        Some(&values[self.offsets[i]..self.offsets[i] + self.arities[i]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::schema::StreamSchema;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap()); // arity 2
        cat.add_stream(StreamSchema::new("S2", ["C"]).unwrap()); // arity 1
        cat.add_stream(StreamSchema::new("S3", ["D", "E", "F"]).unwrap()); // arity 3
        cat
    }

    #[test]
    fn layout_positions() {
        let cat = catalog();
        let l = SpanLayout::new(&cat, &[StreamId(2), StreamId(0)]);
        assert_eq!(l.streams(), &[StreamId(0), StreamId(2)]);
        assert_eq!(l.width(), 5);
        assert_eq!(l.pos(StreamId(0), AttrId(1)), Some(1));
        assert_eq!(l.pos(StreamId(2), AttrId(0)), Some(2));
        assert_eq!(l.pos(StreamId(2), AttrId(3)), None);
        assert_eq!(l.pos(StreamId(1), AttrId(0)), None);
        assert!(l.contains(StreamId(2)));
        assert!(!l.contains(StreamId(1)));
        assert_eq!(l.stream_range(StreamId(0)), Some(0..2));
        assert_eq!(l.stream_range(StreamId(2)), Some(2..5));
        assert_eq!(l.stream_range(StreamId(1)), None);
    }

    #[test]
    fn slicing() {
        let cat = catalog();
        let l = SpanLayout::new(&cat, &[StreamId(0), StreamId(1)]);
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(l.slice(&vals, StreamId(0)).unwrap(), &vals[0..2]);
        assert_eq!(l.slice(&vals, StreamId(1)).unwrap(), &vals[2..3]);
        assert!(l.slice(&vals, StreamId(2)).is_none());
    }

    #[test]
    fn dedups_streams() {
        let cat = catalog();
        let l = SpanLayout::new(&cat, &[StreamId(1), StreamId(1)]);
        assert_eq!(l.streams(), &[StreamId(1)]);
        assert_eq!(l.width(), 1);
    }
}
