//! GenericJoin-style worst-case-optimal probing over the flat MJoin's ports.
//!
//! The binary/MJoin probe path expands one port at a time, which on cyclic
//! queries (triangles, 4-cycles) enumerates intermediate combinations that
//! are asymptotically larger than the output. This module adds a second
//! probe mode to [`JoinOperator`]: instead of extending by *port*, it
//! extends by *join-attribute class* (the [`ExtensionOrder`] derived in
//! `cjq_core::extension`), binding one class value per level through the
//! classic count–min–extend–intersect loop:
//!
//! * **count/min** — among the ports covering the class, pick the one with
//!   the fewest candidate rows under the bindings so far (probe-bucket
//!   length when a bound class constrains the port, live count otherwise);
//! * **extend** — enumerate that port's distinct values for the class;
//! * **intersect** — keep a value only if *every* other covering port has at
//!   least one row matching it together with the bindings so far.
//!
//! Once every class is bound, each non-origin port's matching rows are the
//! rows agreeing with all class values on that port's member columns; the
//! result set is their cross product joined with the origin row.
//!
//! **No new state.** The mode reuses the operator's arena [`PortState`]s
//! untouched: every class-member column is a cross-predicate endpoint, so
//! `JoinOperator::new` already indexes it — prefix extension is purely a
//! different probe order over the same hash indexes. Purge recipes,
//! trackers, certificates, and the purge fixpoint are therefore byte-for-
//! byte the flat MJoin's: the chained purge recipe of each port *is* the
//! per-extension-level recipe (a base tuple is dead iff its port's recipe
//! proves no future extension can complete a result).
//!
//! **Byte-identical emission.** The flat MJoin's DFS emits, for one arriving
//! tuple, the lexicographic order of per-port insertion sequences along its
//! BFS probe-port order (probe buckets are seq-ascending). The WCOJ path
//! collects its result combinations, sorts them by exactly that key, and
//! materializes through the same [`OutputBuffer`]/`ResultSink` path — so
//! batching and plan shape both stay unobservable downstream.

use cjq_core::error::{CoreError, CoreResult};
use cjq_core::extension::ExtensionOrder;
use cjq_core::fxhash::FxHashSet;
use cjq_core::query::Cjq;
use cjq_core::value::Value;

use crate::join::JoinOperator;
use crate::sink::OutputBuffer;
use crate::state::PortState;

/// One class resolved to operator coordinates: the `(port, member columns)`
/// groups whose cells must all equal the class value.
type ClassPorts = Vec<(usize, Vec<usize>)>;

/// The compiled prefix-extension program of one operator.
#[derive(Debug)]
pub(crate) struct WcojPlan {
    /// Per class, in extension order: members grouped by port.
    classes: Vec<ClassPorts>,
    /// Per origin port: which classes its row binds and what remains to
    /// extend.
    programs: Vec<PortProgram>,
}

#[derive(Debug)]
struct PortProgram {
    /// Classes the origin row binds: `(class, member cols on the origin)`.
    bound: Vec<(usize, Vec<usize>)>,
    /// Classes to bind by extension, in extension order.
    extend: Vec<usize>,
    /// Non-origin ports in the MJoin BFS probe order — the per-port seq
    /// sort-key order that makes emission byte-identical to the MJoin DFS.
    emit_ports: Vec<usize>,
}

impl JoinOperator {
    /// Switches this operator to worst-case-optimal probing.
    ///
    /// Requires a flat shape (every port a single stream — `mjoin_all`) and
    /// a cyclic join graph (acyclic queries gain nothing from prefix
    /// extension). State, recipes, and purging are unchanged; only the probe
    /// path switches.
    ///
    /// # Errors
    /// [`CoreError::InvalidPlan`] when a port is composite or the join graph
    /// is acyclic.
    pub(crate) fn enable_wcoj(&mut self, query: &Cjq) -> CoreResult<()> {
        if self.tiering_enabled() {
            return Err(CoreError::InvalidPlan(
                "the worst-case-optimal path cannot run over a cold tier: \
                 the fault-back sweep's superset argument does not cover \
                 prefix-extension candidate enumeration"
                    .into(),
            ));
        }
        if self.port_spans().iter().any(|ps| ps.len() != 1) {
            return Err(CoreError::InvalidPlan(
                "the worst-case-optimal path requires the flat MJoin plan \
                 (every port a single stream)"
                    .into(),
            ));
        }
        let Some(order) = ExtensionOrder::derive(query) else {
            return Err(CoreError::InvalidPlan(
                "the worst-case-optimal path requires a cyclic join graph; \
                 use the binary/MJoin path for tree-shaped queries"
                    .into(),
            ));
        };
        self.wcoj = Some(self.compile_wcoj(&order));
        Ok(())
    }

    /// Whether worst-case-optimal probing is enabled.
    #[must_use]
    pub fn wcoj_enabled(&self) -> bool {
        self.wcoj.is_some()
    }

    /// Resolves `order` against this operator's port layouts.
    fn compile_wcoj(&self, order: &ExtensionOrder) -> WcojPlan {
        let port_of = |s: cjq_core::schema::StreamId| {
            self.port_spans()
                .iter()
                .position(|ps| ps.contains(&s))
                .expect("class member stream in span")
        };
        let classes: Vec<ClassPorts> = order
            .classes
            .iter()
            .map(|class| {
                let mut groups: ClassPorts = Vec::new();
                for r in class {
                    let port = port_of(r.stream);
                    let col = self.ports[port]
                        .layout()
                        .pos(r.stream, r.attr)
                        .expect("member attr in port layout");
                    match groups.iter_mut().find(|(p, _)| *p == port) {
                        Some((_, cols)) => cols.push(col),
                        None => groups.push((port, vec![col])),
                    }
                }
                groups.sort_unstable();
                groups
            })
            .collect();
        let programs = (0..self.ports.len())
            .map(|origin| {
                let mut bound = Vec::new();
                let mut extend = Vec::new();
                for (c, groups) in classes.iter().enumerate() {
                    match groups.iter().find(|(p, _)| *p == origin) {
                        Some((_, cols)) => bound.push((c, cols.clone())),
                        None => extend.push(c),
                    }
                }
                // The MJoin DFS probes ports in BFS order from the origin;
                // lift that order straight off the existing probe plan.
                let emit_ports = self.probe_plans[origin].iter().map(|(j, _)| *j).collect();
                PortProgram {
                    bound,
                    extend,
                    emit_ports,
                }
            })
            .collect();
        WcojPlan { classes, programs }
    }

    /// Worst-case-optimal counterpart of [`JoinOperator::process_batch`]:
    /// identical outputs in identical order, reached by prefix extension
    /// instead of port-by-port DFS. Same-port runs with deferred inserts (the
    /// origin port is never probed during extension — its classes are all
    /// bound at depth 0 — so deferring is exactly equivalent, as on the MJoin
    /// path). Returns 0: this path has no depth-0 key cache to dedup.
    pub(crate) fn wcoj_process_batch<'a, I>(
        &mut self,
        port: usize,
        rows: I,
        out: &mut OutputBuffer,
    ) -> u64
    where
        I: Iterator<Item = (&'a [Value], u64)> + Clone,
    {
        assert_eq!(out.width(), self.out_layout.width(), "sink width mismatch");
        let plan = self.wcoj.as_ref().expect("wcoj enabled");
        let inserts = rows.clone();
        let before = out.len();
        let mut n_rows = 0u64;
        let emit_ports = &plan.programs[port].emit_ports;
        for (row, now) in rows {
            n_rows += 1;
            for (_, combo) in probe_combos(plan, &self.ports, port, row) {
                materialize(
                    &self.ports,
                    &self.port_spans,
                    &self.out_layout,
                    port,
                    row,
                    emit_ports,
                    &combo,
                    out.alloc_row(now),
                );
            }
        }
        for (row, now) in inserts {
            self.ports[port].insert_slice_at(row, now);
        }
        self.stats.tuples_in += n_rows;
        self.stats.outputs += (out.len() - before) as u64;
        0
    }
}

/// Copies one result combination into `row`: the origin's values plus each
/// emit port's matched slot, all through the operator's output layout.
#[allow(clippy::too_many_arguments)]
fn materialize(
    ports: &[PortState],
    port_spans: &[Vec<cjq_core::schema::StreamId>],
    out_layout: &crate::layout::SpanLayout,
    origin: usize,
    origin_row: &[Value],
    emit_ports: &[usize],
    combo: &[usize],
    row: &mut [Value],
) {
    for &s in &port_spans[origin] {
        out_layout.copy_stream(row, s, ports[origin].layout(), origin_row);
    }
    for (k, &q) in emit_ports.iter().enumerate() {
        let vals = ports[q].get(combo[k]).expect("combo slots are live");
        for &s in &port_spans[q] {
            out_layout.copy_stream(row, s, ports[q].layout(), vals);
        }
    }
}

/// Runs the count–min–extend–intersect loop for one arriving row and
/// returns every result combination as `(sort key, slots)` — one slot per
/// emit port, sorted by the per-port insertion sequences in emit-port order
/// (the MJoin DFS emission order).
fn probe_combos(
    plan: &WcojPlan,
    ports: &[PortState],
    origin: usize,
    row: &[Value],
) -> Vec<(Vec<u64>, Vec<usize>)> {
    let prog = &plan.programs[origin];
    let mut values: Vec<Option<Value>> = vec![None; plan.classes.len()];
    // Bind the origin's classes; a multi-member mismatch (transitively
    // equated columns of one stream disagreeing) joins nothing.
    for (c, cols) in &prog.bound {
        let v = row[cols[0]];
        if cols[1..].iter().any(|&col| row[col] != v) {
            return Vec::new();
        }
        values[*c] = Some(v);
    }
    let mut combos = Vec::new();
    let mut seen = FxHashSet::default();
    extend_classes(
        plan,
        ports,
        origin,
        prog,
        0,
        &mut values,
        &mut seen,
        &mut combos,
    );
    combos.sort_unstable();
    combos
}

/// Binds `prog.extend[depth..]` one class at a time; at full depth, cross-
/// products each emit port's matching rows into result combinations.
#[allow(clippy::too_many_arguments)]
fn extend_classes(
    plan: &WcojPlan,
    ports: &[PortState],
    origin: usize,
    prog: &PortProgram,
    depth: usize,
    values: &mut Vec<Option<Value>>,
    seen: &mut FxHashSet<Value>,
    combos: &mut Vec<(Vec<u64>, Vec<usize>)>,
) {
    if depth == prog.extend.len() {
        assemble(plan, ports, prog, values, combos);
        return;
    }
    let class = prog.extend[depth];
    let covering = &plan.classes[class];
    debug_assert!(
        covering.iter().all(|&(p, _)| p != origin),
        "unbound classes have no origin member"
    );
    // count/min: the covering port with the fewest candidates under the
    // bindings so far. A port constrained by an already-bound class is
    // estimated by that probe bucket's length; an unconstrained port by its
    // live count.
    let (pick, _) = covering
        .iter()
        .enumerate()
        .map(|(i, &(p, _))| {
            let est = match first_constraint(plan, values, p) {
                Some((col, v)) => ports[p].probe(col, &v).len(),
                None => ports[p].live(),
            };
            (i, est)
        })
        .min_by_key(|&(_, est)| est)
        .expect("class has covering ports");
    let (p_min, ref cols_min) = covering[pick];

    // extend: distinct class values among the minimum port's candidates.
    seen.clear();
    let mut fresh: Vec<Value> = Vec::new();
    let mut consider = |cand: &[Value]| {
        let v = cand[cols_min[0]];
        if cols_min[1..].iter().any(|&c| cand[c] != v) {
            return;
        }
        if row_matches(plan, values, p_min, cand) && seen.insert(v) {
            fresh.push(v);
        }
    };
    match first_constraint(plan, values, p_min) {
        Some((col, v)) => {
            for &slot in ports[p_min].probe(col, &v) {
                if let Some(cand) = ports[p_min].get(slot) {
                    consider(cand);
                }
            }
        }
        None => {
            for (_, cand) in ports[p_min].iter_live() {
                consider(cand);
            }
        }
    }

    // intersect: a value survives only if every other covering port has at
    // least one row matching it together with the bindings so far.
    for v in fresh {
        values[class] = Some(v);
        let ok = covering.iter().all(|&(q, ref cols)| {
            q == p_min
                || ports[q].probe(cols[0], &v).iter().any(|&slot| {
                    ports[q]
                        .get(slot)
                        .is_some_and(|r| row_matches(plan, values, q, r))
                })
        });
        if ok {
            let mut child_seen = std::mem::take(seen);
            extend_classes(
                plan,
                ports,
                origin,
                prog,
                depth + 1,
                values,
                &mut child_seen,
                combos,
            );
            *seen = child_seen;
        }
        values[class] = None;
    }
}

/// The first `(indexed col, bound value)` constraint an already-bound class
/// places on `port`, if any. Every class-member column is a cross-predicate
/// endpoint, so it always carries a probe index.
fn first_constraint(
    plan: &WcojPlan,
    values: &[Option<Value>],
    port: usize,
) -> Option<(usize, Value)> {
    plan.classes.iter().zip(values).find_map(|(groups, v)| {
        let v = (*v)?;
        groups
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, cols)| (cols[0], v))
    })
}

/// Whether `row` of `port` agrees with every bound class on that port's
/// member columns.
fn row_matches(plan: &WcojPlan, values: &[Option<Value>], port: usize, row: &[Value]) -> bool {
    plan.classes.iter().zip(values).all(|(groups, v)| {
        let Some(v) = v else { return true };
        groups
            .iter()
            .filter(|(p, _)| *p == port)
            .all(|(_, cols)| cols.iter().all(|&c| row[c] == *v))
    })
}

/// Full assignment reached: every emit port's matching rows are the live
/// rows agreeing with all class values; their cross product (keyed by
/// per-port insertion sequences) is this assignment's result set.
fn assemble(
    plan: &WcojPlan,
    ports: &[PortState],
    prog: &PortProgram,
    values: &[Option<Value>],
    combos: &mut Vec<(Vec<u64>, Vec<usize>)>,
) {
    let mut matches: Vec<Vec<usize>> = Vec::with_capacity(prog.emit_ports.len());
    for &q in &prog.emit_ports {
        let (col, v) = first_constraint(plan, values, q).expect("connected: every port covered");
        let slots: Vec<usize> = ports[q]
            .probe(col, &v)
            .iter()
            .copied()
            .filter(|&slot| {
                ports[q]
                    .get(slot)
                    .is_some_and(|r| row_matches(plan, values, q, r))
            })
            .collect();
        if slots.is_empty() {
            return;
        }
        matches.push(slots);
    }
    // Odometer over the per-port match lists (each already seq-ascending).
    let mut idx = vec![0usize; matches.len()];
    loop {
        let combo: Vec<usize> = idx.iter().zip(&matches).map(|(&i, m)| m[i]).collect();
        let key: Vec<u64> = combo
            .iter()
            .zip(&prog.emit_ports)
            .map(|(&slot, &q)| ports[q].seq_of(slot))
            .collect();
        combos.push((key, combo));
        let mut d = matches.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < matches[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purge::{PurgeEngine, PurgeScope};
    use cjq_core::fixtures;
    use cjq_core::schema::StreamId;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    fn triangle_ops() -> (JoinOperator, JoinOperator) {
        let (q, r) = fixtures::fig5();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let spans = vec![vec![StreamId(0)], vec![StreamId(1)], vec![StreamId(2)]];
        let mjoin = JoinOperator::new(&q, &r, spans.clone(), PurgeScope::Operator, &engine);
        let mut wcoj = JoinOperator::new(&q, &r, spans, PurgeScope::Operator, &engine);
        wcoj.enable_wcoj(&q).expect("fig5 is flat and cyclic");
        (mjoin, wcoj)
    }

    #[test]
    fn wcoj_requires_cyclic_flat_shape() {
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let mut op = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(1)], vec![StreamId(2)]],
            PurgeScope::Operator,
            &engine,
        );
        assert!(op.enable_wcoj(&q).is_err(), "fig3 is acyclic");
        assert!(!op.wcoj_enabled());

        let (q, r) = fixtures::fig5();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let mut composite = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0), StreamId(1)], vec![StreamId(2)]],
            PurgeScope::Query,
            &engine,
        );
        assert!(composite.enable_wcoj(&q).is_err(), "composite port");
    }

    #[test]
    fn triangle_outputs_match_the_mjoin_byte_for_byte() {
        let (mut mjoin, mut wcoj) = triangle_ops();
        // Fig. 5: S1(A,B) S2(B,C) S3(A,C); a triangle closes when all three
        // sides agree. Feed a small mixed workload on all ports.
        let feed: Vec<(usize, Vec<Value>)> = vec![
            (0, vec![ival(1), ival(10)]),
            (1, vec![ival(10), ival(100)]),
            (2, vec![ival(1), ival(100)]), // closes (1,10,100)
            (1, vec![ival(10), ival(101)]),
            (2, vec![ival(1), ival(101)]), // closes (1,10,101)
            (0, vec![ival(1), ival(11)]),  // no S2 with B=11 yet
            (1, vec![ival(11), ival(100)]),
            (2, vec![ival(2), ival(100)]),  // A=2 has no S1 side
            (0, vec![ival(2), ival(11)]),   // closes (2,11,100)
            (1, vec![ival(10), ival(100)]), // duplicate: closes two more
        ];
        for (port, vals) in feed {
            let a = mjoin.process_one(port, &vals, 0);
            let b = wcoj.process_one(port, &vals, 0);
            assert_eq!(a, b, "same outputs in the same order");
        }
        assert!(mjoin.stats.outputs >= 4, "workload closes triangles");
        assert_eq!(mjoin.stats, wcoj.stats);
    }

    #[test]
    fn a_run_matches_the_mjoin_run() {
        let (mut mjoin, mut wcoj) = triangle_ops();
        // Preload state, then push one same-port run through both paths.
        for op in [&mut mjoin, &mut wcoj] {
            for b in 0..6i64 {
                op.process_one(1, &[ival(b % 3), ival(b)], 1);
            }
            for c in 0..6i64 {
                op.process_one(2, &[ival(c % 2), ival(c)], 2);
            }
        }
        let run: Vec<Vec<Value>> = (0..8i64).map(|a| vec![ival(a % 2), ival(a % 3)]).collect();
        let mut out_m = OutputBuffer::new(mjoin.out_layout().width());
        let mut out_w = OutputBuffer::new(wcoj.out_layout().width());
        mjoin.process_batch(0, run.iter().map(|r| (r.as_slice(), 3)), &mut out_m);
        wcoj.process_batch(0, run.iter().map(|r| (r.as_slice(), 3)), &mut out_w);
        assert!(!out_m.is_empty(), "the run closes triangles");
        assert_eq!(
            out_m.rows().collect::<Vec<_>>(),
            out_w.rows().collect::<Vec<_>>()
        );
        assert_eq!(mjoin.stats, wcoj.stats);
        assert_eq!(mjoin.live(), wcoj.live());
    }

    #[test]
    fn purge_totals_are_identical_across_probe_modes() {
        use crate::purge::PurgeStrategy;
        use cjq_core::punctuation::Punctuation;
        use cjq_core::schema::AttrId;
        let (q, r) = fixtures::fig5();
        let mut engine = PurgeEngine::new(&q, &r, None, 10_000);
        let spans = vec![vec![StreamId(0)], vec![StreamId(1)], vec![StreamId(2)]];
        let mut mjoin = JoinOperator::new(&q, &r, spans.clone(), PurgeScope::Operator, &engine);
        let mut wcoj = JoinOperator::new(&q, &r, spans, PurgeScope::Operator, &engine);
        wcoj.enable_wcoj(&q).unwrap();
        let tuples = [
            crate::tuple::Tuple::of(0, vec![ival(1), ival(10)]),
            crate::tuple::Tuple::of(1, vec![ival(10), ival(100)]),
            crate::tuple::Tuple::of(2, vec![ival(1), ival(100)]),
        ];
        for t in &tuples {
            engine.observe_tuple(t);
        }
        for op in [&mut mjoin, &mut wcoj] {
            for (port, t) in tuples.iter().enumerate() {
                op.process_one(port, &t.values, 0);
            }
        }
        // Fig. 5 schemes punctuate S1.B, S2.C, S3.A: close the triangle.
        for (s, a, v) in [(0, 1, 10), (1, 1, 100), (2, 0, 1)] {
            engine.observe_punctuation(
                &Punctuation::with_constants(StreamId(s), 9, &[(AttrId(a), ival(v))]),
                s as u64,
            );
        }
        let pm = mjoin.purge_pass(&engine, PurgeStrategy::Indexed);
        let pw = wcoj.purge_pass(&engine, PurgeStrategy::Indexed);
        assert_eq!(pm.purged, pw.purged, "same recipes, same purge totals");
        assert_eq!(mjoin.live(), wcoj.live());
    }
}
