//! The analysis passes behind [`crate::lint_query`] / [`crate::lint_plan`].
//!
//! Every pass works on the same static inputs the paper's theorems consume —
//! the query's join graph, the scheme set, and the derived PG/GPG/TPG — and
//! renders its findings with resolved stream/attribute names so diagnostics
//! read like the specification the user wrote.

use cjq_core::gpg::GeneralizedPunctuationGraph;
use cjq_core::join_graph::JoinGraph;
use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::safety::{self, SafetyReport};
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::tpg;

use crate::{repair, Code, Diagnostic, LintReport, Suggestion};

pub(crate) fn run(query: &Cjq, schemes: &SchemeSet, plan: Option<&Plan>) -> LintReport {
    let report = safety::check_query(query, schemes);
    let mut diags = Vec::new();
    if !report.safe {
        unsafe_query_pass(query, schemes, &report, &mut diags);
    }
    if let Some(p) = plan {
        unpurgeable_port_pass(query, schemes, p, &mut diags);
    }
    let unused = unused_scheme_indices(query, schemes);
    if report.safe {
        redundant_scheme_pass(query, schemes, &unused, &mut diags);
    }
    unused_scheme_pass(query, schemes, &unused, &mut diags);
    if !report.safe {
        // Dead predicates and isolated streams explain *why* purging fails;
        // in a safe query a punctuation-free predicate is a design choice
        // (it refines the join while other predicates guard the state — the
        // trades workload's `sym` equality is the canonical example), so
        // flagging it would be noise.
        dead_predicate_pass(query, schemes, &mut diags);
        repair_pass(query, schemes, &mut diags);
    }
    cyclic_join_graph_pass(query, &mut diags);
    LintReport {
        safe: report.safe,
        diagnostics: diags,
    }
}

fn name(query: &Cjq, s: StreamId) -> String {
    query
        .catalog()
        .schema(s)
        .map_or_else(|| s.to_string(), |sc| sc.name().to_owned())
}

fn attr_name(query: &Cjq, s: StreamId, a: AttrId) -> String {
    query
        .catalog()
        .schema(s)
        .and_then(|sc| sc.attr_name(a))
        .map_or_else(|| format!("#{}", a.0), str::to_owned)
}

/// Renders a set of streams as `{a, b}`.
fn stream_set(query: &Cjq, streams: &[StreamId]) -> String {
    let names: Vec<String> = streams.iter().map(|&s| name(query, s)).collect();
    format!("{{{}}}", names.join(", "))
}

/// The spec line (in the `parse` grammar) declaring `scheme`.
pub(crate) fn spec_line(query: &Cjq, scheme: &PunctuationScheme) -> String {
    let attrs: Vec<String> = scheme
        .punctuatable()
        .iter()
        .map(|&a| attr_name(query, scheme.stream, a))
        .collect();
    let keyword = if scheme.is_ordered() {
        "heartbeat"
    } else {
        "punctuate"
    };
    format!(
        "{keyword} {}({})",
        name(query, scheme.stream),
        attrs.join(", ")
    )
}

/// E001: one diagnostic per unreachable TPG pair, each carrying the exact
/// GPG blocking cut and the stuck TPG partition as the graph fragment.
fn unsafe_query_pass(
    query: &Cjq,
    schemes: &SchemeSet,
    report: &SafetyReport,
    diags: &mut Vec<Diagnostic>,
) {
    let gpg = GeneralizedPunctuationGraph::of_query(query, schemes);
    let all: Vec<StreamId> = gpg.streams().to_vec();
    let transformed = tpg::transform_query(query, schemes);
    let fragment = tpg_fragment(query, &transformed);
    for (from, to) in report.witnesses() {
        let reachable = gpg.reachable_from(from);
        let blocked: Vec<StreamId> = all
            .iter()
            .copied()
            .filter(|s| reachable.binary_search(s).is_err())
            .collect();
        let cut_note = format!(
            "blocking cut: {} ↛ {} — no promoted or virtual punctuation-graph \
             edge crosses the cut",
            stream_set(query, &reachable),
            stream_set(query, &blocked),
        );
        diags.push(Diagnostic {
            code: Code::UnsafeQuery,
            message: format!(
                "`{}` can never be fully purged: no punctuation chain guards \
                 its state against future `{}` data",
                name(query, from),
                name(query, to),
            ),
            notes: vec![cut_note, fragment.clone()],
            suggestion: None,
        });
    }
}

/// Renders the final (stuck) TPG partition and its edges.
fn tpg_fragment(query: &Cjq, transformed: &tpg::TransformedPunctuationGraph) -> String {
    let snap = transformed.final_snapshot();
    let node = |i: usize| stream_set(query, &snap.nodes[i]);
    let nodes: Vec<String> = (0..snap.nodes.len()).map(node).collect();
    let edges: Vec<String> = snap
        .edges
        .iter()
        .map(|&(f, t)| format!("{} → {}", node(f), node(t)))
        .collect();
    format!(
        "final TPG (stuck after {} round(s)): nodes {}; edges: {}",
        transformed.rounds,
        nodes.join(" "),
        if edges.is_empty() {
            "none".to_owned()
        } else {
            edges.join(", ")
        }
    )
}

/// E002: Corollary 1 applied to every operator port of the plan.
fn unpurgeable_port_pass(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    diags: &mut Vec<Diagnostic>,
) {
    for (op, span) in plan.operators() {
        let Plan::Join(children) = op else {
            continue;
        };
        let gpg = GeneralizedPunctuationGraph::over(query, schemes, &span);
        for child in children {
            let roots = child.span();
            let reached = gpg.reachable_from_set(&roots);
            let missing: Vec<StreamId> = span
                .iter()
                .copied()
                .filter(|s| reached.binary_search(s).is_err())
                .collect();
            if missing.is_empty() {
                continue;
            }
            diags.push(Diagnostic {
                code: Code::UnpurgeablePort,
                message: format!(
                    "port {} of the operator over {} is not purgeable \
                     (Corollary 1)",
                    stream_set(query, &roots),
                    stream_set(query, &span),
                ),
                notes: vec![format!(
                    "punctuations cannot guard the port's partial results \
                     against future data from {}",
                    stream_set(query, &missing),
                )],
                suggestion: None,
            });
        }
    }
}

/// Per scheme, whether the query does not read it ([`Cjq::reads_scheme`]):
/// it has a punctuatable attribute that is not a join attribute, and can
/// never license a PG/GPG edge.
fn unused_scheme_indices(query: &Cjq, schemes: &SchemeSet) -> Vec<bool> {
    let unread = |scheme| !query.reads_scheme(scheme);
    schemes.schemes().iter().map(unread).collect()
}

/// W101: schemes individually removable without losing safety (skipping ones
/// already flagged W102 — unused schemes are trivially removable).
fn redundant_scheme_pass(
    query: &Cjq,
    schemes: &SchemeSet,
    unused: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, scheme) in schemes.schemes().iter().enumerate() {
        if unused[i] {
            continue;
        }
        let mut keep = vec![true; schemes.len()];
        keep[i] = false;
        if safety::is_query_safe(query, &schemes.restricted(&keep)) {
            let line = spec_line(query, scheme);
            diags.push(Diagnostic {
                code: Code::RedundantScheme,
                message: format!("scheme `{line}` is redundant: the query stays safe without it"),
                notes: vec![
                    "each W101 scheme is removable on its own; removing several at once may \
                     lose safety — re-lint after each removal"
                        .to_owned(),
                ],
                suggestion: Some(Suggestion {
                    summary: "delete the redundant declaration".to_owned(),
                    add: Vec::new(),
                    remove: vec![line],
                }),
            });
        }
    }
}

/// W102: schemes punctuating non-join attributes.
fn unused_scheme_pass(
    query: &Cjq,
    schemes: &SchemeSet,
    unused: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for (scheme, &flag) in schemes.schemes().iter().zip(unused) {
        if !flag {
            continue;
        }
        let join_attrs = query.join_attrs(scheme.stream);
        let bad: Vec<String> = scheme
            .punctuatable()
            .iter()
            .filter(|a| !join_attrs.contains(a))
            .map(|&a| attr_name(query, scheme.stream, a))
            .collect();
        let line = spec_line(query, scheme);
        diags.push(Diagnostic {
            code: Code::UnusedScheme,
            message: format!(
                "scheme `{line}` punctuates non-join attribute(s) {}: it can never \
                 license a purge",
                bad.join(", "),
            ),
            notes: vec![
                "the punctuation graph only gains edges from schemes whose every \
                 punctuatable attribute is a join attribute (Defs. 7–10)"
                    .to_owned(),
                "while no query running reads it, the engine stores none of its \
                 punctuations (an ordered scheme keeps its one threshold), and a \
                 tuple that violates one is admitted"
                    .to_owned(),
            ],
            suggestion: Some(Suggestion {
                summary: "delete the unused declaration".to_owned(),
                add: Vec::new(),
                remove: vec![line],
            }),
        });
    }
}

/// W103: predicates with no punctuatable endpoint, and streams isolated in
/// the punctuation graph.
fn dead_predicate_pass(query: &Cjq, schemes: &SchemeSet, diags: &mut Vec<Diagnostic>) {
    for p in query.predicates() {
        let left_live = schemes.any_punctuatable(p.left.stream, p.left.attr);
        let right_live = schemes.any_punctuatable(p.right.stream, p.right.attr);
        if left_live || right_live {
            continue;
        }
        diags.push(Diagnostic {
            code: Code::DeadPredicate,
            message: format!(
                "predicate `{}` has no punctuatable endpoint: it contributes no \
                 punctuation-graph edge in either direction",
                query.display_predicate(p),
            ),
            notes: vec!["declare a scheme on either endpoint attribute to make the \
                 predicate purge-relevant"
                .to_owned()],
            suggestion: None,
        });
    }
    if query.n_streams() < 2 {
        return;
    }
    let gpg = GeneralizedPunctuationGraph::of_query(query, schemes);
    let pg = gpg.plain();
    for s in query.stream_ids() {
        let plain_touched = query
            .stream_ids()
            .any(|t| t != s && (pg.has_edge(s, t) || pg.has_edge(t, s)));
        let hyper_touched = gpg
            .hyper_edges()
            .iter()
            .any(|h| h.target == s || h.requirements.iter().any(|r| r.candidates.contains(&s)));
        if plain_touched || hyper_touched {
            continue;
        }
        diags.push(Diagnostic {
            code: Code::DeadPredicate,
            message: format!(
                "stream `{}` is isolated in the punctuation graph: it can neither \
                 be purged nor help purge another stream",
                name(query, s),
            ),
            notes: vec![
                "no declared scheme connects this stream to the rest of the \
                 punctuation graph"
                    .to_owned(),
            ],
            suggestion: None,
        });
    }
}

/// I201: informational notice that the join graph is cyclic, with the
/// detected cycle as the witness. Cyclic queries are the ones where a tree
/// plan materializes intermediates super-linearly; the flat MJoin stores
/// none.
fn cyclic_join_graph_pass(query: &Cjq, diags: &mut Vec<Diagnostic>) {
    let Some(cycle) = JoinGraph::of_query(query).cycle_witness() else {
        return;
    };
    let mut walk: Vec<String> = cycle.iter().map(|&s| name(query, s)).collect();
    walk.push(name(query, cycle[0]));
    diags.push(Diagnostic {
        code: Code::CyclicJoinGraph,
        message: "cyclic join graph: runs on the flat MJoin plan (a tree plan would store \
                  2-paths that may never close)"
            .to_owned(),
        notes: vec![format!("witness cycle: {}", walk.join(" → "))],
        suggestion: None,
    });
}

/// S001: the minimal-repair suggestion for unsafe queries.
fn repair_pass(query: &Cjq, schemes: &SchemeSet, diags: &mut Vec<Diagnostic>) {
    let Some(additional) = repair::minimal_repair(query, schemes) else {
        return; // not repairable with single-attribute schemes
    };
    if additional.is_empty() {
        return;
    }
    let lines: Vec<String> = additional.iter().map(|s| spec_line(query, s)).collect();
    diags.push(Diagnostic {
        code: Code::RepairSuggestion,
        message: format!(
            "adding {} punctuation scheme(s) makes the query safe",
            additional.len(),
        ),
        notes: vec![
            "with these schemes the transformed punctuation graph condenses to a \
             single node (Theorem 5)"
                .to_owned(),
        ],
        suggestion: Some(Suggestion {
            summary: format!(
                "append {} `punctuate` line(s) to the specification",
                lines.len()
            ),
            add: lines,
            remove: Vec::new(),
        }),
    });
}

/// The bound-analysis pass behind [`crate::lint_plan_with_bounds`]:
/// `E003` for provably unbounded ports/mirrors under declared contracts,
/// `W104` when the summed bound misses the budget, and one `I202` per
/// operator port, mirror, and punctuation store.
pub(crate) fn bounds_pass(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: &crate::BoundsConfig,
    diags: &mut Vec<Diagnostic>,
) {
    use cjq_core::bounds::{analyze_plan, BoundSubject, StateBound};

    let report = analyze_plan(query, schemes, plan);
    let contracts = &cfg.contracts;

    let subject_label = |subject: &BoundSubject| match subject {
        BoundSubject::Port {
            op,
            port,
            roots,
            span,
        } => format!(
            "op{op} port {} (port {port} of the operator over {})",
            stream_set(query, roots),
            stream_set(query, span),
        ),
        BoundSubject::Mirror { stream } => format!("mirror of `{}`", name(query, *stream)),
        BoundSubject::PunctStore { scheme } => {
            format!("punctuation store of `{}`", spec_line(query, scheme))
        }
    };

    // E003: contracts declared, yet some port or mirror provably unbounded.
    if !contracts.is_empty() {
        for row in report.rows.iter() {
            if !matches!(row.bound, StateBound::Unbounded) {
                continue;
            }
            diags.push(Diagnostic {
                code: Code::UnboundedPort,
                message: format!(
                    "{} is provably unbounded despite declared contracts",
                    subject_label(&row.subject)
                ),
                notes: vec![
                    "no purge recipe covers this state (Corollary 1), so no cadence \
                     contract can bound it — declare additional punctuation schemes"
                        .to_owned(),
                ],
                suggestion: None,
            });
        }
    }

    // W104: the summed per-port row bound vs. the memory budget. The runtime
    // budget caps live join-state rows, which is exactly the port sum.
    if let Some(budget) = cfg.budget {
        match report.port_total() {
            None => diags.push(Diagnostic {
                code: Code::BoundExceedsBudget,
                message: format!(
                    "total state bound cannot be certified within the memory budget \
                     of {budget} row(s)"
                ),
                notes: vec!["at least one port has no row-count bound (unbounded or \
                     window-bounded composite state)"
                    .to_owned()],
                suggestion: None,
            }),
            Some(total) => match total.eval(contracts) {
                None => diags.push(Diagnostic {
                    code: Code::BoundExceedsBudget,
                    message: format!(
                        "total state bound {} cannot be evaluated against the memory \
                         budget of {budget} row(s)",
                        total.render(query)
                    ),
                    notes: vec![
                        "declare `cadence` contracts for every scheme the bound mentions"
                            .to_owned(),
                    ],
                    suggestion: None,
                }),
                Some(v) if v > budget => diags.push(Diagnostic {
                    code: Code::BoundExceedsBudget,
                    message: format!(
                        "total state bound {} = {v} row(s) exceeds the memory budget \
                         of {budget} row(s)",
                        total.render(query)
                    ),
                    notes: vec!["tighten punctuation cadences or raise --memory-budget".to_owned()],
                    suggestion: None,
                }),
                Some(_) => {}
            },
        }
    }

    // I202: the per-subject bound report.
    for row in &report.rows {
        let (message, mut notes) = match &row.bound {
            StateBound::Bounded(e) => {
                let rendered = e.render(query);
                let msg = match e.eval(contracts) {
                    Some(v) => format!(
                        "{}: bounded by {rendered} = {v} row(s)",
                        subject_label(&row.subject)
                    ),
                    None => format!("{}: bounded by {rendered}", subject_label(&row.subject)),
                };
                (msg, Vec::new())
            }
            StateBound::WindowBounded(e) => (
                format!(
                    "{}: window-bounded (residency ≤ {} feed elements)",
                    subject_label(&row.subject),
                    e.render(query)
                ),
                vec![
                    "composite ports receive child-join fan-out, so residency is \
                     bounded but the per-element row count is not"
                        .to_owned(),
                ],
            ),
            StateBound::Unbounded => (
                format!("{}: unbounded", subject_label(&row.subject)),
                Vec::new(),
            ),
        };
        if matches!(row.subject, BoundSubject::PunctStore { .. })
            && row.bound.eval_rows(contracts).is_none()
        {
            notes
                .push("declare `domain` contracts to quantify punctuation-store growth".to_owned());
        }
        diags.push(Diagnostic {
            code: Code::StateBound,
            message,
            notes,
            suggestion: None,
        });
    }
}
