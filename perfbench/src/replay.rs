//! The traced run's child spans: each traced request is replayed
//! in-process through the public call of every layer it crossed.
//!
//! Requests replay in the order the client sent them against a
//! shadow: an in-memory engine (or sharded coordinator) built from the
//! same setup script that has applied every earlier write of the run,
//! so each replayed statement sees the state the served one saw, up to
//! the interleaving of concurrent connections. For a durable store the
//! shadow's WAL appends and checkpoints are replayed into a journal
//! of its own on the same filesystem.

use std::collections::BTreeSet;

use hrdm_core::cost::{optimize_with_cost, CostModel};
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::plan::LogicalPlan;
use hrdm_core::prelude::Truth;
use hrdm_hql::ast::{Derivation, Source};
use hrdm_hql::shard::{derivation_sources, statement_relation};
use hrdm_hql::{Engine, ExecutorHandle, ShardedEngine, Statement, World};
use hrdm_persist::Journal;
use hrdm_server::proto::encode_frame;
use hrdm_server::{FrameReader, Reply, Request};

use crate::stats::Class;
use crate::trace::{Recorder, SpanId};

/// Where statements execute: one engine, or the owning shard of a
/// sharded coordinator.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    Engine(&'a Engine),
    Sharded(&'a ShardedEngine),
}

impl<'a> Target<'a> {
    fn engine_for(&self, stmt: &Statement) -> &'a Engine {
        match self {
            Target::Engine(e) => e,
            Target::Sharded(s) => {
                let relation = match stmt {
                    Statement::Let { derivation, .. } => {
                        let mut sources = BTreeSet::new();
                        derivation_sources(derivation, &mut sources);
                        sources
                            .into_iter()
                            .next()
                            .expect("a derivation has a source")
                    }
                    other => statement_relation(other)
                        .expect("workload statements are relation-scoped")
                        .to_string(),
                };
                &s.shards()[s.owner_of(&relation)]
            }
        }
    }
}

/// Replays traced requests against a shadow of the served state.
pub struct Replayer<'a> {
    pub shadow: Target<'a>,
    /// A journal standing in for the live store's, if any.
    pub journal: Option<Journal>,
    /// Relations that live views read from.
    pub view_sources: &'a [String],
    /// Result sizes of replayed derivations.
    pub rows: Vec<u64>,
}

impl Replayer<'_> {
    /// Replay one request under `root`.
    pub fn replay(&mut self, rec: &mut Recorder, root: SpanId, text: &str, class: Class) {
        // Single-engine workloads are served over HRDM/1: replay the codec.
        let wire = matches!(self.shadow, Target::Engine(_));
        if wire {
            rec.time(root, "proto.encode", || {
                let mut buf = Vec::new();
                encode_frame(&Request::Query(text.to_string()).render(), &mut buf);
                buf
            });
        }
        // A read through the coordinator: the whole `execute_read` is
        // the shard layer's span, the owning shard's calls its children.
        let read_only = !matches!(class, Class::Write | Class::Derive);
        let parent = match self.shadow {
            Target::Sharded(s) if read_only => {
                rec.time(root, "shard.route", || {
                    s.execute_read(text, 0).expect("routed read")
                })
                .1
            }
            _ => root,
        };
        let (stmts, _) = rec.time(parent, "hql.parse", || hrdm_hql::parser::parse(text));
        let stmts = stmts.expect("workload statements parse");
        // A derive request runs LET and DROP on the shard of its LET.
        let mut derive_engine: Option<&Engine> = None;
        let mut parts = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            if stmt.is_read_only() {
                parts.push(self.read(rec, parent, stmt));
            } else {
                let engine = *derive_engine.get_or_insert_with(|| self.shadow.engine_for(&stmt));
                parts.push(self.write(rec, root, engine, stmt, class));
            }
        }
        if wire {
            let mut bytes = Vec::new();
            encode_frame(&Reply::Ok(parts).render(), &mut bytes);
            rec.time(root, "proto.decode", || {
                let mut fr = FrameReader::new();
                fr.push(&bytes);
                let f = fr.next_frame().expect("well-formed").expect("one frame");
                Reply::parse(&f).expect("a reply frame")
            });
        }
    }

    /// Apply a write to the shadow without timing anything.
    pub fn apply(&self, text: &str) {
        for stmt in hrdm_hql::parser::parse(text).expect("workload statements parse") {
            let engine = self.shadow.engine_for(&stmt);
            engine
                .execute_statement(stmt)
                .expect("workload writes succeed");
        }
    }

    fn read(&mut self, rec: &mut Recorder, root: SpanId, stmt: Statement) -> String {
        let engine = self.shadow.engine_for(&stmt);
        let (view, _) = rec.time(root, "hql.snapshot", || engine.read_view());
        let snap = engine.snapshot();
        let (resp, exec) = rec.time(root, "hql.exec", || view.execute_statement(stmt.clone()));
        let resp = resp
            .expect("a read statement")
            .expect("workload reads succeed");
        read_core(rec, exec, &snap, &stmt);
        rec.time(root, "hql.render", || resp.to_string()).0
    }

    fn write(
        &mut self,
        rec: &mut Recorder,
        root: SpanId,
        engine: &Engine,
        stmt: Statement,
        class: Class,
    ) -> String {
        let touched = statement_relation(&stmt).map(str::to_string);
        let name = if class == Class::Derive {
            "hql.write.derive"
        } else if touched
            .as_ref()
            .is_some_and(|r| self.view_sources.contains(r))
        {
            "hql.write.view"
        } else {
            "hql.write.plain"
        };
        let before = engine.snapshot();
        let (resp, w) = rec.time(root, name, || engine.execute_statement(stmt.clone()));
        let resp = resp.expect("workload writes succeed");
        rec.time(w, "hql.world_clone", || World::clone(&before));
        if let Statement::Let { derivation, .. } = &stmt {
            let rows = derive_core(rec, w, &before, derivation);
            self.rows.push(rows);
        }
        if let Some(journal) = self.journal.as_mut() {
            let after = engine.snapshot();
            let views_changed =
                after
                    .view_names()
                    .any(|v| match (before.relation(v), after.relation(v)) {
                        (Ok(a), Ok(b)) => !std::ptr::eq(a, b),
                        _ => true,
                    });
            if let Some(m) = mutation_of(&stmt) {
                rec.time(w, "persist.wal", || {
                    journal.record(&m).expect("replay WAL append")
                });
            }
            if views_changed || matches!(stmt, Statement::Let { .. }) {
                rec.time(w, "persist.image", || {
                    journal
                        .checkpoint(&after.to_image())
                        .expect("replay checkpoint")
                });
            }
        }
        resp.to_string()
    }
}

/// The WAL record a statement appends (statements outside the WAL
/// vocabulary checkpoint instead).
fn mutation_of(stmt: &Statement) -> Option<CatalogMutation> {
    match stmt {
        Statement::Assert {
            relation,
            negated,
            values,
        } => Some(CatalogMutation::Assert {
            relation: relation.clone(),
            values: values.iter().map(|v| v.name.clone()).collect(),
            truth: if *negated {
                Truth::Negative
            } else {
                Truth::Positive
            },
        }),
        Statement::Retract { relation, values } => Some(CatalogMutation::Retract {
            relation: relation.clone(),
            values: values.iter().map(|v| v.name.clone()).collect(),
        }),
        Statement::DropRelation { name } => {
            Some(CatalogMutation::DropRelation { name: name.clone() })
        }
        _ => None,
    }
}

/// The core call a read statement's handler makes, replayed under
/// `parent`.
fn read_core(rec: &mut Recorder, parent: SpanId, world: &World, stmt: &Statement) {
    let item_of = |relation: &str, values: &[hrdm_hql::ast::ValueRef]| {
        let rel = world.relation(relation).expect("known relation");
        let names: Vec<&str> = values.iter().map(|v| v.name.as_str()).collect();
        (rel, rel.item(&names).expect("known values"))
    };
    match stmt {
        Statement::Holds { relation, values } => {
            let (rel, item) = item_of(relation, values);
            rec.time(parent, "core.bind", || rel.bind(&item));
        }
        Statement::Holds3 { relation, values } => {
            let (rel, item) = item_of(relation, values);
            rec.time(parent, "core.bind", || {
                hrdm_core::three_valued::holds3(rel, &item)
            });
        }
        Statement::Why { relation, values } => {
            let (rel, item) = item_of(relation, values);
            rec.time(parent, "core.justify", || {
                hrdm_core::justify::justify(rel, &item)
            });
        }
        Statement::Check { relation } => {
            let rel = world.relation(relation).expect("known relation");
            rec.time(parent, "core.conflict", || {
                hrdm_core::conflict::find_conflicts(rel)
            });
        }
        Statement::Count { relation, by } => {
            let rel = world.relation(relation).expect("known relation");
            match by {
                None => {
                    rec.time(parent, "core.count", || hrdm_core::ops::cardinality(rel));
                }
                Some(attr) => {
                    rec.time(parent, "core.count", || {
                        hrdm_core::ops::group_count_by_name(rel, attr).expect("known attribute")
                    });
                }
            }
        }
        Statement::Show { relation } => {
            let rel = world.relation(relation).expect("known relation");
            rec.time(parent, "core.render", || {
                hrdm_core::render::render_table(rel)
            });
        }
        _ => {}
    }
}

/// The logical plan `World::derive` builds for a derivation over named
/// relations (the shapes the workloads send).
fn plan_of(world: &World, d: &Derivation) -> LogicalPlan {
    let scan = |s: &Source| match s {
        Source::Named(n) => LogicalPlan::scan(
            n.clone(),
            world.relation(n).expect("known relation").clone(),
        ),
        Source::Derived(inner) => plan_of(world, inner),
    };
    match d {
        Derivation::Union(a, b) => scan(a).union(scan(b)),
        Derivation::Join(a, b) => scan(a).join(scan(b)),
        Derivation::Select(a, conds) => {
            let mut p = scan(a);
            for (attr, value) in conds {
                p = p.select_eq(attr.clone(), value.name.clone());
            }
            p
        }
        Derivation::Consolidated(a) => scan(a).consolidate(),
        other => panic!("the workloads do not derive {other}"),
    }
}

/// The plan `World::derive` would choose now — cost-based optimization
/// against the live metrics registry — as its rendered tree with the
/// tuple counts masked, so data changes do not read as plan changes.
pub fn chosen_plan(world: &World, d: &Derivation) -> String {
    if matches!(d, Derivation::Explicated(..)) {
        return "explicate (lowered directly)".into();
    }
    let (optimized, _) = optimize_with_cost(&plan_of(world, d), &CostModel::from_registry());
    optimized
        .render()
        .chars()
        .filter(|c| !c.is_ascii_digit())
        .collect()
}

/// Replay the core calls `World::derive` makes; returns the result size.
fn derive_core(rec: &mut Recorder, parent: SpanId, world: &World, d: &Derivation) -> u64 {
    if let Derivation::Explicated(Source::Named(src), attrs) = d {
        let rel = world.relation(src).expect("known relation");
        let idx: Vec<usize> = if attrs.is_empty() {
            (0..rel.schema().arity()).collect()
        } else {
            attrs
                .iter()
                .map(|a| rel.schema().index_of(a).expect("known attribute"))
                .collect()
        };
        let (out, _) = rec.time(parent, "core.explicate", || {
            hrdm_core::explicate::explicate(rel, &idx).expect("explicable")
        });
        return out.len() as u64;
    }
    let plan = plan_of(world, d);
    let ((optimized, _), _) = rec.time(parent, "core.optimize", || {
        optimize_with_cost(&plan, &CostModel::from_registry())
    });
    let name = if matches!(d, Derivation::Consolidated(_)) {
        "core.batch.consolidate"
    } else {
        "core.batch"
    };
    let (out, _) = rec.time(parent, name, || {
        hrdm_core::batch::execute_batch(&optimized).expect("derivation executes")
    });
    out.relation.len() as u64
}
