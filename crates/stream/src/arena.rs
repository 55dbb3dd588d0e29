//! The one operator arena under [`Executor`](crate::exec::Executor) and
//! [`QueryRegistry`](crate::registry::QueryRegistry).
//!
//! A plan is lowered bottom-up into nodes — one [`JoinOperator`] per join of
//! the plan, children at lower indices than their parents — and two sub-plans
//! that would compile to the same operator share a node (Dossinger & Michel's
//! shared operator graph; one query is the degenerate case where nothing is
//! shared). The arena owns what follows from that layout: the single routing
//! pass of a segment through the nodes, retirement by tombstone,
//! the operators' snapshot body and the shape half of a fingerprint. What an
//! engine does with a root's output buffer is its own business.

use cjq_core::fxhash::FxHashMap;
use cjq_core::plan::Plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, Fingerprint, SnapshotError, SnapshotResult};
use crate::exec::ExecConfig;
use crate::join::JoinOperator;
use crate::metrics::Metrics;
use crate::pipeline::Run;
use crate::purge::{fingerprint_recipes, PurgeEngine, PurgeScope};
use crate::sink::OutputBuffer;
use crate::tier::SpillStore;

/// What one input port of a node reads: a raw stream or another node
/// (children intern before parents, so the index is final).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChildKey {
    Leaf(StreamId),
    Inner(usize),
}

/// Canonical identity of a join node: everything [`JoinOperator::new`] and
/// recipe derivation read, so sub-plans with equal keys behave identically
/// for every subscriber. `span_preds` are the query predicates with both ends
/// inside the node's span (sorted) — they determine probing and the
/// [`PurgeScope::Operator`] recipes; under [`PurgeScope::Query`] recipes are
/// derived over the whole query, so the key pins the whole predicate set too.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeKey {
    children: Vec<ChildKey>,
    span_preds: Vec<JoinPredicate>,
    query_preds: Option<Vec<JoinPredicate>>,
}

#[derive(Debug)]
struct Node {
    key: NodeKey,
    op: JoinOperator,
    /// Plans interned onto this node and not released since.
    subscribers: usize,
    /// The node's output for the segment routed last, in stamp order.
    out_buf: OutputBuffer,
}

/// What a plan is lowered against.
pub(crate) struct Lowering<'a> {
    pub query: &'a Cjq,
    pub schemes: &'a SchemeSet,
    pub cfg: &'a ExecConfig,
    pub engine: &'a PurgeEngine,
}

/// The node arena, bottom-up. A released node is tombstoned in place, so
/// indices — and with them port numbering, spill tags and snapshots — stay
/// stable.
#[derive(Debug, Default)]
pub(crate) struct OpArena {
    nodes: Vec<Option<Node>>,
    index: FxHashMap<NodeKey, usize>,
    /// Per slot, tombstoned or not: a hash of what the node was compiled as
    /// (see [`OpArena::fingerprint_into`]).
    shapes: Vec<u64>,
}

impl OpArena {
    /// Lowers `plan` bottom-up, keeping its child order (ports are numbered
    /// by it), and subscribes it to every node it touches, shared or new:
    /// their indices are appended to `acc`, root last.
    pub(crate) fn intern_plan(
        &mut self,
        cx: &Lowering<'_>,
        plan: &Plan,
        acc: &mut Vec<usize>,
    ) -> ChildKey {
        let children = match plan {
            Plan::Leaf(s) => return ChildKey::Leaf(*s),
            Plan::Join(children) => children,
        };
        let kids = children.iter().map(|c| self.intern_plan(cx, c, acc));
        let kids: Vec<ChildKey> = kids.collect();
        let span = plan.span();
        let inside = |s: StreamId| span.binary_search(&s).is_ok();
        let in_span = |p: &JoinPredicate| inside(p.left.stream) && inside(p.right.stream);
        let sorted = |mut preds: Vec<JoinPredicate>| {
            preds.sort_unstable();
            preds
        };
        let all = cx.query.predicates();
        let key = NodeKey {
            children: kids,
            span_preds: sorted(all.iter().copied().filter(in_span).collect()),
            query_preds: (cx.cfg.scope == PurgeScope::Query).then(|| sorted(all.to_vec())),
        };
        let idx = self.index.get(&key).copied().unwrap_or_else(|| {
            let port_spans = children.iter().map(Plan::span).collect();
            let scope = cx.cfg.scope;
            let mut op = JoinOperator::new(cx.query, cx.schemes, port_spans, scope, cx.engine);
            if cx.cfg.tiering.is_some() {
                // The node's own recipes certify its segments; node identity
                // pins the predicate set, so every subscriber shares them.
                op.enable_tiering();
            }
            self.shapes.push(shape_of(&key, &op));
            self.nodes.push(Some(Node {
                key: key.clone(),
                op,
                subscribers: 0,
                out_buf: OutputBuffer::default(),
            }));
            self.index.insert(key, self.nodes.len() - 1);
            self.nodes.len() - 1
        });
        self.nodes[idx].as_mut().expect("interned").subscribers += 1;
        acc.push(idx);
        ChildKey::Inner(idx)
    }

    /// Takes one plan's subscription back from `nodes`, as
    /// [`OpArena::intern_plan`] listed them. A node nobody subscribes to any
    /// more is tombstoned: its join state and its index entry go, so a later
    /// identical admission interns a fresh node. `None` if one is gone already.
    pub(crate) fn release(&mut self, nodes: &[usize]) -> Option<()> {
        for &n in nodes.iter().rev() {
            let node = self.nodes[n].as_mut()?;
            node.subscribers -= 1;
            if node.subscribers == 0 {
                let node = self.nodes[n].take()?;
                self.index.remove(&node.key);
            }
        }
        Some(())
    }

    /// Routes one admitted segment in a single pass over the arena: every
    /// live node takes the segment's runs of streams it spans, in stamp
    /// order, each on the port holding its stream — a leaf port's run as its
    /// rows in the batch, an inner port's as the rows its child's buffer
    /// holds stamped within it. Children sit below their parents, so a
    /// child's buffer holds the whole segment's rows when its parent reads
    /// them: merged by stamp with the parent's own leaf runs, they reach it
    /// in the order one-element pushes would. Rows a node hands a parent
    /// count as intermediate once per parent reading them — physical work,
    /// like the probe counters.
    pub(crate) fn cascade(&mut self, arena: &[Value], runs: &[Run], metrics: &mut Metrics) {
        for n in 0..self.nodes.len() {
            let (below, rest) = self.nodes.split_at_mut(n);
            let Some(Node {
                key, op, out_buf, ..
            }) = &mut rest[0]
            else {
                continue;
            };
            out_buf.reset(op.out_layout().width());
            let below = &*below;
            let child = |c: usize| below[c].as_ref().expect("children outlive parents");
            let spans = |kid: &ChildKey, stream| match *kid {
                ChildKey::Leaf(s) => s == stream,
                ChildKey::Inner(c) => child(c).op.span().binary_search(&stream).is_ok(),
            };
            let handed = &mut metrics.intermediate_rows;
            let input = runs.iter().filter_map(|run| {
                let port = key.children.iter().position(|kid| spans(kid, run.stream))?;
                let ChildKey::Inner(c) = key.children[port] else {
                    return Some((port, run.rows(arena)));
                };
                let rows = child(c).out_buf.stamped(run.base, run.end);
                let (len @ 1.., _) = rows.size_hint() else {
                    return None;
                };
                *handed += len as u64;
                Some((port, rows))
            });
            metrics.probe_keys_deduped += op.process_segment(input, out_buf);
        }
    }

    /// Slots, live or tombstoned.
    pub(crate) fn slots(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn op(&self, i: usize) -> Option<&JoinOperator> {
        Some(&self.nodes.get(i)?.as_ref()?.op)
    }

    /// The live operators with their slots, bottom-up.
    pub(crate) fn ops_mut(&mut self) -> impl Iterator<Item = (usize, &mut JoinOperator)> {
        let nodes = self.nodes.iter_mut().enumerate();
        nodes.filter_map(|(i, node)| Some((i, &mut node.as_mut()?.op)))
    }

    /// The live operators, bottom-up.
    pub(crate) fn ops(&self) -> impl Iterator<Item = &JoinOperator> + Clone {
        self.nodes.iter().flatten().map(|node| &node.op)
    }

    /// Every port of the live operators as `(operator, port, live rows)`,
    /// op-major in bottom-up order: the flat port numbering of bound
    /// certificates and per-port peaks.
    pub(crate) fn port_live(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.ops().enumerate().flat_map(|(op, node)| {
            let live = node.port_live_iter().enumerate();
            live.map(move |(port, live)| (op, port, live))
        })
    }

    /// What live node `i` emitted for the segment routed last.
    pub(crate) fn out(&self, i: usize) -> &OutputBuffer {
        &self.nodes[i].as_ref().expect("a live node").out_buf
    }

    /// Every slot's presence flag, then each live operator's state.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.nodes.len());
        for node in &self.nodes {
            e.bool(node.is_some());
            if let Some(node) = node {
                node.op.write_state(e);
            }
        }
    }

    /// Overlays operator state onto this freshly lowered arena, whose
    /// tombstones must be the snapshot's.
    pub(crate) fn read_state(
        &mut self,
        d: &mut Dec<'_>,
        spill: &mut Option<SpillStore>,
    ) -> SnapshotResult<()> {
        d.count_of("arena nodes", self.nodes.len())?;
        let disagree = || SnapshotError("arena tombstones disagree with snapshot".into());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            match (d.bool()?, node) {
                (true, Some(node)) => node.op.read_state(d, spill, i)?,
                (false, None) => {}
                _ => return Err(disagree()),
            }
        }
        Ok(())
    }

    /// Folds what every slot was compiled as — child links and each port's
    /// recipe steps, the things operator state is only meaningful under.
    /// Tombstoning does not change it: a restore lowers the plans afresh and
    /// re-applies retirements from the snapshot.
    pub(crate) fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.word(self.shapes.len() as u64);
        self.shapes.iter().for_each(|&shape| fp.word(shape));
    }
}

fn shape_of(key: &NodeKey, op: &JoinOperator) -> u64 {
    let mut fp = Fingerprint::default();
    fp.word(key.children.len() as u64);
    for child in &key.children {
        let (tag, id) = match *child {
            ChildKey::Leaf(s) => (0, s.0),
            ChildKey::Inner(i) => (1, i),
        };
        fp.word(tag);
        fp.word(id as u64);
    }
    fingerprint_recipes(&mut fp, op.port_recipes());
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueryRegistry;
    use cjq_core::fixtures;
    use cjq_core::schema::{Catalog, StreamSchema};
    use cjq_core::scheme::PunctuationScheme;

    /// Per slot: child links, port spans and compiled shape.
    type Layout = Vec<(Vec<ChildKey>, Vec<Vec<StreamId>>, u64)>;

    fn layout(arena: &OpArena) -> Layout {
        let nodes = arena.nodes.iter().zip(&arena.shapes);
        nodes
            .map(|(node, &shape)| {
                let node = node.as_ref().expect("nothing was released");
                let spans = node.op.port_spans().to_vec();
                (node.key.children.clone(), spans, shape)
            })
            .collect()
    }

    /// A chain `a(x) - b(x, y) - c(y, z) - d(z)` punctuated on every join
    /// attribute: four streams, so a bushy plan exists.
    fn chain4() -> (Cjq, SchemeSet) {
        let mut catalog = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            catalog.add_stream(StreamSchema::new(name, ["l", "r"]).unwrap());
        }
        let link = |s| JoinPredicate::between(s, 1, s + 1, 0).unwrap();
        let query = Cjq::new(catalog, (0..3).map(link).collect()).unwrap();
        let on = |(s, a)| PunctuationScheme::on(s, &[a]).unwrap();
        let ends = [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)];
        (query, SchemeSet::from_schemes(ends.map(on)))
    }

    fn leaves(streams: &[usize]) -> Vec<Plan> {
        streams.iter().map(|&s| Plan::leaf(s)).collect()
    }

    /// An executor keeps a plan's child order and a registry sorts children
    /// first, so over plans written in sorted order the two must lower to the
    /// same thing, slot for slot.
    #[test]
    fn executor_and_one_tenant_registry_lower_a_plan_alike() {
        let nested = Plan::Join(vec![Plan::leaf(0), Plan::Join(leaves(&[1, 2]))]);
        let left_deep = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let bushy = Plan::Join(vec![
            Plan::Join(leaves(&[0, 1])),
            Plan::Join(leaves(&[2, 3])),
        ]);
        let three = |fixture: fn() -> (Cjq, SchemeSet)| {
            let (q, r) = fixture();
            let flat = Plan::mjoin_all(&q);
            [flat, left_deep.clone(), nested.clone()].map(|plan| (q.clone(), r.clone(), plan))
        };
        let (aq, ar) = fixtures::auction();
        let (cq, cr) = chain4();
        let mut cases = vec![(aq.clone(), ar, Plan::mjoin_all(&aq))];
        cases.extend(three(fixtures::fig5));
        cases.extend(three(fixtures::fig8));
        cases.push((cq.clone(), cr.clone(), Plan::mjoin_all(&cq)));
        cases.push((cq, cr, bushy));
        for (q, r, plan) in cases {
            let cfg = ExecConfig::default();
            let exec = QueryRegistry::sealed(&q, &r, &plan, cfg, None).unwrap();
            let mut reg = QueryRegistry::new(r, cfg);
            reg.try_admit(&q, &plan, None).unwrap();
            let lowered = layout(&exec.arena);
            assert_eq!(lowered.len(), plan.operator_count(), "{plan}");
            assert_eq!(lowered, layout(&reg.arena), "{plan}");
            // Children sit below their parents; the root spans the query.
            for (slot, (children, ..)) in lowered.iter().enumerate() {
                let below = |c: &ChildKey| matches!(*c, ChildKey::Inner(i) if i >= slot);
                assert!(!children.iter().any(below), "{plan}");
            }
            let (_, root_ports, _) = lowered.last().unwrap();
            assert_eq!(root_ports.concat().len(), q.n_streams(), "{plan}");
        }
    }

    #[test]
    fn commuted_writings_share_a_node_only_through_the_registrys_sort() {
        let (q, r) = fixtures::auction();
        let cfg = ExecConfig::default();
        let (written, commuted) = (Plan::Join(leaves(&[0, 1])), Plan::Join(leaves(&[1, 0])));
        let engine = PurgeEngine::shared(&q, &r, None, cfg.coverage_limit, None);
        let cx = Lowering {
            query: &q,
            schemes: &r,
            cfg: &cfg,
            engine: &engine,
        };
        let mut arena = OpArena::default();
        let mut acc = Vec::new();
        arena.intern_plan(&cx, &written, &mut acc);
        arena.intern_plan(&cx, &commuted, &mut acc);
        arena.intern_plan(&cx, &written, &mut acc);
        assert_eq!(acc, [0, 1, 0], "port order is part of a node's identity");
        let ports = |i: usize| arena.op(i).unwrap().port_spans().concat();
        assert_eq!(ports(0), [StreamId(0), StreamId(1)]);
        assert_eq!(ports(1), [StreamId(1), StreamId(0)]);

        let mut reg = QueryRegistry::new(r, cfg);
        reg.try_admit(&q, &written, None).unwrap();
        reg.try_admit(&q, &commuted, None).unwrap();
        assert_eq!((reg.live_nodes(), reg.subscribed_nodes()), (1, 2));
    }

    #[test]
    fn a_released_node_leaves_the_index_and_is_interned_anew() {
        let (q, r) = fixtures::fig5();
        let cfg = ExecConfig::default();
        let plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let engine = PurgeEngine::shared(&q, &r, None, cfg.coverage_limit, None);
        let cx = Lowering {
            query: &q,
            schemes: &r,
            cfg: &cfg,
            engine: &engine,
        };
        let mut arena = OpArena::default();
        let (mut first, mut second, mut third) = (Vec::new(), Vec::new(), Vec::new());
        arena.intern_plan(&cx, &plan, &mut first);
        arena.intern_plan(&cx, &plan, &mut second);
        assert_eq!((&first, &second), (&vec![0, 1], &vec![0, 1]));
        let mut before = Fingerprint::default();
        arena.fingerprint_into(&mut before);

        assert_eq!(arena.release(&first), Some(()));
        assert_eq!(arena.ops().count(), 2, "one subscriber is left");
        assert_eq!(arena.release(&second), Some(()));
        assert_eq!((arena.ops().count(), arena.slots()), (0, 2));
        assert!(arena.index.is_empty());
        assert_eq!(arena.release(&second), None, "already gone");
        let mut after = Fingerprint::default();
        arena.fingerprint_into(&mut after);
        assert_eq!(before.finish(), after.finish(), "tombstones keep shape");

        arena.intern_plan(&cx, &plan, &mut third);
        assert_eq!(third, [2, 3], "fresh slots, not the tombstones");
        assert_eq!(arena.index.len(), 2);
        assert!(arena.op(0).is_none() && arena.op(2).is_some());
    }
}
