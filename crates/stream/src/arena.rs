//! The one operator arena under [`Executor`](crate::exec::Executor) and
//! [`QueryRegistry`](crate::registry::QueryRegistry).
//!
//! A plan is lowered bottom-up into nodes — one [`JoinOperator`] per join of
//! the plan, children at lower indices than their parents. A node is keyed
//! by its children alone, so two sub-plans over the same inputs store each
//! row once (Dossinger & Michel's shared operator graph; one query is the
//! degenerate case where nothing is shared); the predicate sets interned onto
//! it are its *variants*, each with its own probe plans, recipes and output.
//! The arena owns what follows from that layout: the single routing pass of
//! a segment through the nodes, retirement by tombstone, the operators'
//! snapshot body and the shape half of a fingerprint. What an engine does
//! with a root's output buffer is its own business.

use cjq_core::plan::Plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, Fingerprint, SnapshotError, SnapshotResult};
use crate::exec::ExecConfig;
use crate::join::JoinOperator;
use crate::pipeline::{Core, Run};
use crate::purge::{fingerprint_recipes, PurgeEngine, PurgeScope};
use crate::sink::OutputBuffer;
use crate::tier::SpillStore;

/// What one input port of a node reads: a raw stream or a variant of
/// another node (children intern before parents, so the indices are final).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChildKey {
    Leaf(StreamId),
    Inner(usize, usize),
}

/// Canonical identity of a join node: its children, so sub-plans with equal
/// keys store the same rows.
type NodeKey = Vec<ChildKey>;

#[derive(Debug)]
struct Node {
    key: NodeKey,
    op: JoinOperator,
    /// Per variant slot: its key — the sorted predicates inside the node's
    /// span, or all of them under [`PurgeScope::Query`] — and the plans
    /// interned onto it and not released since (0: tombstoned).
    variants: Vec<(Vec<JoinPredicate>, usize)>,
    /// Per variant slot: its output for the segment routed last, in stamp
    /// order.
    outs: Vec<OutputBuffer>,
}

/// What a plan is lowered against. `attach`: whether a predicate set new to
/// a node may become its variant — before the first element, while no node
/// holds a row; a later one interns a node of its own.
pub(crate) struct Lowering<'a> {
    pub query: &'a Cjq,
    pub schemes: &'a SchemeSet,
    pub cfg: &'a ExecConfig,
    pub engine: &'a PurgeEngine,
    pub attach: bool,
}

/// The node arena, bottom-up. A released node or variant is tombstoned in
/// place, so indices — and with them port numbering, spill tags and
/// snapshots — stay stable.
#[derive(Debug, Default)]
pub(crate) struct OpArena {
    nodes: Vec<Option<Node>>,
}

impl OpArena {
    /// Lowers `plan` bottom-up, keeping its child order (ports are numbered
    /// by it), and subscribes it to every node variant it touches, shared or
    /// new: their `(node, variant)` pairs are appended to `acc`, root last.
    pub(crate) fn intern_plan(
        &mut self,
        cx: &Lowering<'_>,
        plan: &Plan,
        acc: &mut Vec<(usize, usize)>,
    ) -> ChildKey {
        let children = match plan {
            Plan::Leaf(s) => return ChildKey::Leaf(*s),
            Plan::Join(children) => children,
        };
        let kids = children.iter().map(|c| self.intern_plan(cx, c, acc));
        let key: NodeKey = kids.collect();
        let span = plan.span();
        let inside = |s: StreamId| span.binary_search(&s).is_ok();
        let whole = cx.cfg.scope == PurgeScope::Query;
        let mut vkey = cx.query.predicates().to_vec();
        vkey.retain(|p| whole || inside(p.left.stream) && inside(p.right.stream));
        vkey.sort_unstable();
        let (scope, schemes) = (cx.cfg.scope, cx.schemes);
        // A live variant of a node over these children joining by these
        // predicates is shared; else the node takes the set as a variant
        // while `attach`; else a node of its own is built.
        let over = self.nodes.iter().enumerate();
        let mut over = over.filter_map(|(i, n)| Some((i, n.as_ref().filter(|n| n.key == key)?)));
        let live = |(preds, subs): &(Vec<JoinPredicate>, usize)| *subs > 0 && *preds == vkey;
        let variant = |(i, n): (usize, &Node)| Some((i, n.variants.iter().position(live)?));
        let shared = over.clone().find_map(variant);
        let host = over.next().map(|(i, _)| i).filter(|_| cx.attach);
        let (idx, v) = shared.unwrap_or_else(|| {
            let Some(idx) = host else {
                let port_spans = children.iter().map(Plan::span).collect();
                let mut op = JoinOperator::new(cx.query, schemes, port_spans, scope, cx.engine);
                if cx.cfg.tiering.is_some() {
                    op.enable_tiering();
                }
                let (variants, outs) = (Vec::new(), Vec::new());
                let node = Node {
                    key,
                    op,
                    variants,
                    outs,
                };
                self.nodes.push(Some(node));
                return (self.nodes.len() - 1, 0);
            };
            let node = self.nodes[idx].as_mut().expect("a live host");
            (idx, node.op.attach(cx.query, schemes, scope, cx.engine))
        });
        let node = self.nodes[idx].as_mut().expect("interned");
        if v == node.variants.len() {
            node.variants.push((vkey, 0));
            node.outs.push(OutputBuffer::default());
        }
        node.variants[v].1 += 1;
        acc.push((idx, v));
        ChildKey::Inner(idx, v)
    }

    /// Takes one plan's subscription back from `nodes`, as
    /// [`OpArena::intern_plan`] listed them. A variant nobody subscribes to
    /// any more is retired; a node without a live variant is tombstoned: its
    /// join state goes, and a later identical admission interns a fresh
    /// node. `None` if one is gone already.
    pub(crate) fn release(&mut self, nodes: &[(usize, usize)]) -> Option<()> {
        for &(n, v) in nodes.iter().rev() {
            let node = self.nodes[n].as_mut()?;
            let subscribers = &mut node.variants.get_mut(v)?.1;
            *subscribers = subscribers.checked_sub(1)?;
            if *subscribers > 0 {
                continue;
            }
            match node.op.live_variants() {
                1 => self.nodes[n] = None,
                _ => node.op.retire(v),
            }
        }
        Some(())
    }

    /// Routes one admitted segment in a single pass over the arena: every
    /// live node takes the segment's runs of streams it spans, in stamp
    /// order, each on the port holding its stream — a leaf port's run as its
    /// rows in the batch, an inner port's as the rows its child variant's
    /// buffer holds stamped within it. Children sit below their parents, so
    /// a child's buffer holds the whole segment's rows when its parent reads
    /// them: merged by stamp with the parent's own leaf runs, they reach it
    /// in the order one-element pushes would. Rows a node hands a parent
    /// count as intermediate once per parent reading them — physical work,
    /// like the probe counters. Rows a node finds dead on arrival count purged.
    pub(crate) fn cascade(
        &mut self,
        arena: &[Value],
        runs: &[Run],
        engine: &PurgeEngine,
        core: &mut Core,
    ) {
        let (metrics, scratch) = (&mut core.metrics, &mut core.purge_scratch);
        for n in 0..self.nodes.len() {
            let (below, rest) = self.nodes.split_at_mut(n);
            let Some(Node { key, op, outs, .. }) = &mut rest[0] else {
                continue;
            };
            let width = op.out_layout().width();
            outs.iter_mut().for_each(|out| out.reset(width));
            let below = &*below;
            let child = |c: usize| below[c].as_ref().expect("children outlive parents");
            let spans = |kid: &ChildKey, stream| match *kid {
                ChildKey::Leaf(s) => s == stream,
                ChildKey::Inner(c, _) => child(c).op.span().binary_search(&stream).is_ok(),
            };
            let handed = &mut metrics.intermediate_rows;
            let input = runs.iter().filter_map(|run| {
                let port = key.iter().position(|kid| spans(kid, run.stream))?;
                let ChildKey::Inner(c, w) = key[port] else {
                    return Some((port, run.rows(arena)));
                };
                let rows = child(c).outs[w].stamped(run.base, run.end);
                let (len @ 1.., _) = rows.size_hint() else {
                    return None;
                };
                *handed += len as u64;
                Some((port, rows))
            });
            metrics.probe_keys_deduped += op.process_segment(input, outs, engine, scratch);
            metrics.purged += op.arrived;
            metrics.purged_on_arrival += op.arrived;
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

    /// What variant `v` of live node `i` emitted for the segment routed last.
    pub(crate) fn out(&self, (i, v): (usize, usize)) -> &OutputBuffer {
        &self.nodes[i].as_ref().expect("a live node").outs[v]
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

    /// What a plan lowered onto `nodes` was compiled as — each node's port
    /// spans and its variant's recipe steps per port, the things operator
    /// state is only meaningful under — whichever slots the nodes sit in.
    pub(crate) fn shape(&self, nodes: &[(usize, usize)]) -> u64 {
        let mut fp = Fingerprint::default();
        for &(n, v) in nodes {
            let op = self.op(n).expect("a lowered node");
            for span in op.port_spans() {
                fp.word(span.len() as u64);
                span.iter().for_each(|s| fp.word(s.0 as u64));
            }
            fingerprint_recipes(&mut fp, op.port_recipes(v));
        }
        fp.finish()
    }
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
        let nodes = arena.nodes.iter().enumerate();
        nodes
            .map(|(i, node)| {
                let node = node.as_ref().expect("nothing was released");
                let spans = node.op.port_spans().to_vec();
                (node.key.clone(), spans, arena.shape(&[(i, 0)]))
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
                let below = |c: &ChildKey| matches!(*c, ChildKey::Inner(i, _) if i >= slot);
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
            attach: true,
        };
        let mut arena = OpArena::default();
        let mut acc = Vec::new();
        arena.intern_plan(&cx, &written, &mut acc);
        arena.intern_plan(&cx, &commuted, &mut acc);
        arena.intern_plan(&cx, &written, &mut acc);
        assert_eq!(
            acc,
            [(0, 0), (1, 0), (0, 0)],
            "port order is part of a node's identity"
        );
        let ports = |i: usize| arena.op(i).unwrap().port_spans().concat();
        assert_eq!(ports(0), [StreamId(0), StreamId(1)]);
        assert_eq!(ports(1), [StreamId(1), StreamId(0)]);

        let mut reg = QueryRegistry::new(r, cfg);
        reg.try_admit(&q, &written, None).unwrap();
        reg.try_admit(&q, &commuted, None).unwrap();
        assert_eq!((reg.live_nodes(), reg.subscribed_nodes()), (1, 2));
    }

    #[test]
    fn a_released_node_is_interned_anew() {
        let (q, r) = fixtures::fig5();
        let cfg = ExecConfig::default();
        let plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let engine = PurgeEngine::shared(&q, &r, None, cfg.coverage_limit, None);
        let cx = Lowering {
            query: &q,
            schemes: &r,
            cfg: &cfg,
            engine: &engine,
            attach: true,
        };
        let mut arena = OpArena::default();
        let (mut first, mut second, mut third) = (Vec::new(), Vec::new(), Vec::new());
        arena.intern_plan(&cx, &plan, &mut first);
        arena.intern_plan(&cx, &plan, &mut second);
        assert_eq!(
            (&first, &second),
            (&vec![(0, 0), (1, 0)], &vec![(0, 0), (1, 0)])
        );
        let shape = arena.shape(&first);

        assert_eq!(arena.release(&first), Some(()));
        assert_eq!(arena.ops().count(), 2, "one subscriber is left");
        assert_eq!(arena.release(&second), Some(()));
        assert_eq!((arena.ops().count(), arena.slots()), (0, 2));
        assert_eq!(arena.release(&second), None, "already gone");

        arena.intern_plan(&cx, &plan, &mut third);
        assert_eq!(third, [(2, 0), (3, 0)], "fresh slots, not the tombstones");
        assert_eq!(arena.shape(&third), shape, "the shape is the slots'");
        assert!(arena.op(0).is_none() && arena.op(2).is_some());
    }
}
