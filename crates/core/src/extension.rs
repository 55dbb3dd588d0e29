//! Join-attribute equivalence classes of a query.
//!
//! Two attribute occurrences belong to one class iff the equi-join
//! predicates transitively equate them. The bound certifier in the stream
//! crate reads the classes to tell which attributes of a port are forced
//! equal by the join.

use crate::fxhash::FxHashMap;
use crate::query::Cjq;
use crate::schema::AttrRef;

/// The join-attribute equivalence classes of a query: two attribute
/// occurrences are in one class iff they are transitively equated by the
/// equi-join predicates. Classes are internally sorted and canonically
/// ordered by their smallest member. Every member occurs in at least one
/// predicate (singleton payload attributes are not classes).
#[must_use]
pub fn attr_classes(query: &Cjq) -> Vec<Vec<AttrRef>> {
    let mut ids: FxHashMap<AttrRef, usize> = FxHashMap::default();
    let mut nodes: Vec<AttrRef> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut node = |r: AttrRef, parent: &mut Vec<usize>, nodes: &mut Vec<AttrRef>| {
        *ids.entry(r).or_insert_with(|| {
            nodes.push(r);
            parent.push(parent.len());
            parent.len() - 1
        })
    };
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for p in query.predicates() {
        let a = node(p.left, &mut parent, &mut nodes);
        let b = node(p.right, &mut parent, &mut nodes);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut by_root: FxHashMap<usize, Vec<AttrRef>> = FxHashMap::default();
    for (i, &n) in nodes.iter().enumerate() {
        let root = find(&mut parent, i);
        by_root.entry(root).or_default().push(n);
    }
    let mut classes: Vec<Vec<AttrRef>> = by_root.into_values().collect();
    for c in &mut classes {
        c.sort_unstable();
    }
    classes.sort_unstable();
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::schema::{AttrId, StreamId};

    fn aref(s: usize, a: usize) -> AttrRef {
        AttrRef {
            stream: StreamId(s),
            attr: AttrId(a),
        }
    }

    #[test]
    fn classes_of_the_triangle_query() {
        let (q, _) = fixtures::fig5();
        // S1(A,B) S2(B,C) S3(A,C); preds S1.B=S2.B, S2.C=S3.C, S3.A=S1.A.
        let classes = attr_classes(&q);
        assert_eq!(
            classes,
            vec![
                vec![aref(0, 0), aref(2, 0)], // A
                vec![aref(0, 1), aref(1, 0)], // B
                vec![aref(1, 1), aref(2, 1)], // C
            ]
        );
    }
}
