//! `taxonomy_query`: a multiple-inheritance taxonomy over HRDM/1,
//! closed loop of two analyst connections.
//!
//! The taxonomy is `layered_dag(6, 200, 2, 7)` plus ten instances
//! per bottom class (about 3 400 nodes). `Trait` has exceptions at three
//! levels; `Hue` pairs the taxonomy with a small `Color` domain. Both
//! grow to a fixed size, and are made consistent before timing by
//! asserting every reported conflict item positively until none is
//! left. The mix is mostly
//! point reads by count and mostly scans and derives by time, so the
//! core operators and the hierarchy closure dominate and the wire is
//! noise. The working set fits the program's caches: one domain graph
//! against the closure cache, a handful of relations against the
//! subsumption-core cache.

use hrdm_hierarchy::gen::layered_dag;
use hrdm_hierarchy::HierarchyGraph;
use hrdm_hql::Engine;

use crate::harness::{
    check_against_reference, closed_loop_wire, end_to_end, setup_median, tally, Args, Tails,
    Window, SLICES,
};
use crate::layers::Extra;
use crate::replay::{chosen_plan, Replayer, Target};
use crate::run::{derivations, image_us, report_plans, start_server, traced_report, watch, Traced};
use crate::stats::{Class, Op, Outcome, Rec, Rng};
use crate::workloads::{shuffle_cycle, Cycle};

const CONNECTIONS: usize = 2;
/// Seed of the taxonomy and its facts. The world is the same on every
/// run so its size does not vary with `--seed`, which drives the
/// request stream: which nodes the point reads name, which class the
/// selection targets, and the order of every cycle. (With the world
/// seeded too, scan p50 ranged 605–1114 µs across five seeds.)
const WORLD_SEED: u64 = 7;
const CYCLES: usize = 40;
const INSTANCES_PER_LEAF: usize = 10;
/// Tail percentile per class (point, scan, derive, write); see [`Tails`].
const TAILS: Tails = [0.99, 0.99, 0.98, 0.99];

struct Taxonomy {
    script: String,
    /// Candidate facts of `Trait` and `Hue`, in the order [`grow`]
    /// asserts them.
    facts: [Vec<String>; 2],
    /// Every class and instance name (for point reads).
    nodes: Vec<String>,
    instances: Vec<String>,
    /// Classes of layer 1 (selection targets).
    layer1: Vec<String>,
}

fn name(g: &HierarchyGraph, id: hrdm_hierarchy::NodeId) -> String {
    if id == g.root() {
        "Tax".into()
    } else {
        g.name(id).to_string()
    }
}

/// The taxonomy, the relations and their candidate facts, seeded;
/// [`grow`] asserts the facts.
fn generate(seed: u64) -> Taxonomy {
    let g = layered_dag(6, 200, 2, seed);
    let mut rng = Rng::new(seed);
    let mut script = String::from("CREATE DOMAIN Tax;\n");
    let mut nodes = Vec::new();
    let mut instances = Vec::new();
    let mut layers: Vec<Vec<String>> = vec![Vec::new(); 6];
    for id in g.node_ids().filter(|&id| id != g.root()) {
        let n = name(&g, id);
        let parents: Vec<String> = g.parents(id).map(|p| name(&g, p)).collect();
        if g.is_instance(id) {
            script.push_str(&format!("CREATE INSTANCE {n} OF {};\n", parents.join(", ")));
            for k in 0..INSTANCES_PER_LEAF {
                let extra = format!("{n}_{k}");
                script.push_str(&format!("CREATE INSTANCE {extra} OF {};\n", parents[0]));
                nodes.push(extra.clone());
                instances.push(extra);
            }
            instances.push(n.clone());
        } else {
            script.push_str(&format!("CREATE CLASS {n} UNDER {};\n", parents.join(", ")));
            let layer: usize = n[1..n.find('_').expect("L<layer>_<k>")]
                .parse()
                .expect("layer index");
            layers[layer].push(n.clone());
        }
        nodes.push(n);
    }
    script.push_str(
        "CREATE DOMAIN Color;\n\
         CREATE CLASS Warm UNDER Color;\n\
         CREATE CLASS Cool UNDER Color;\n\
         CREATE INSTANCE Red OF Warm;\n\
         CREATE INSTANCE Orange OF Warm;\n\
         CREATE INSTANCE Blue OF Cool;\n\
         CREATE INSTANCE Green OF Cool;\n\
         CREATE RELATION Trait (Thing: Tax);\n\
         CREATE RELATION Hue (Thing: Tax, Shade: Color);\n",
    );
    for c in 0..CONNECTIONS {
        script.push_str(&format!("CREATE RELATION Notes{c} (Thing: Tax);\n"));
    }
    // Candidate facts, levels interleaved: Trait has exceptions at three
    // levels, Hue pairs three levels with the colours.
    let mut shuffled = |layer: usize| -> Vec<String> {
        let mut names = layers[layer].clone();
        rng.shuffle(&mut names);
        names
    };
    let (l0, l2, l3, l4) = (shuffled(0), shuffled(2), shuffled(3), shuffled(4));
    let mut trait_facts = Vec::new();
    let mut hue_facts = Vec::new();
    for k in 0..l0.len().min(l2.len()).min(l3.len()).min(l4.len()) {
        trait_facts.push(format!("ASSERT Trait (ALL {});", l0[k]));
        trait_facts.push(format!("ASSERT NOT Trait (ALL {});", l2[k]));
        trait_facts.push(format!("ASSERT Trait (ALL {});", l4[k]));
        hue_facts.push(format!(
            "ASSERT Hue (ALL {}, ALL Warm);",
            l0[l0.len() - 1 - k]
        ));
        hue_facts.push(format!(
            "ASSERT NOT Hue (ALL {}, Red);",
            l2[l2.len() - 1 - k]
        ));
        hue_facts.push(format!("ASSERT Hue (ALL {}, ALL Cool);", l3[k]));
    }
    Taxonomy {
        script,
        facts: [trait_facts, hue_facts],
        nodes,
        instances,
        layer1: layers[1].clone(),
    }
}

/// Final sizes of `Trait` and `Hue`, in stored tuples: fixed, so the
/// cost of a scan or a derive does not depend on the seed.
const SIZES: [usize; 2] = [160, 100];
/// Candidate facts asserted between two conflict resolutions.
const BATCH: usize = 2;

/// Grow `Trait` and `Hue` to [`SIZES`] and keep them consistent the
/// way `workloads::resolve_positively` does: after every batch of
/// candidate facts, CHECK and ASSERT every reported conflict item
/// until CHECK reports none. Every statement joins the setup script,
/// so the served engine and the reference are built from the same
/// text. Returns the number of conflict items asserted.
fn grow(t: &mut Taxonomy) -> usize {
    let engine = Engine::new();
    engine.execute(&t.script).expect("the taxonomy script runs");
    let mut resolved = 0;
    for (relation, (facts, size)) in ["Trait", "Hue"].into_iter().zip(t.facts.iter().zip(SIZES)) {
        for batch in facts.chunks(BATCH) {
            let len = engine.snapshot().relation(relation).expect("created").len();
            if len >= size {
                break;
            }
            let mut step = batch.join("\n");
            step.push('\n');
            engine.execute(&step).expect("candidate facts assert");
            t.script.push_str(&step);
            loop {
                let snap = engine.snapshot();
                let rel = snap.relation(relation).expect("created");
                let mut fix = String::new();
                for c in hrdm_core::conflict::find_conflicts(rel) {
                    let names: Vec<String> = c
                        .item
                        .components()
                        .iter()
                        .zip(rel.schema().attributes())
                        .map(|(id, a)| a.domain().name(*id).to_string())
                        .collect();
                    fix.push_str(&format!("ASSERT {relation} ({});\n", names.join(", ")));
                }
                if fix.is_empty() {
                    break;
                }
                resolved += fix.lines().count();
                engine.execute(&fix).expect("resolution asserts run");
                t.script.push_str(&fix);
            }
        }
    }
    resolved
}

const SCANS: [&str; 5] = [
    "COUNT Trait;",
    "COUNT Hue BY Shade;",
    "CHECK Trait;",
    "CHECK Hue;",
    "SHOW Hue;",
];

fn derive_texts(t: &Taxonomy, conn: usize, rng: &mut Rng) -> Vec<String> {
    let d = format!("D{conn}");
    let target = rng.pick(&t.layer1);
    [
        format!("LET {d} = CONSOLIDATE Trait;"),
        format!("LET {d} = EXPLICATE Trait;"),
        format!("LET {d} = SELECT Hue WHERE Shade IS ALL Warm;"),
        format!("LET {d} = JOIN Trait Hue;"),
        format!("LET {d} = SELECT Trait WHERE Thing IS ALL {target};"),
    ]
    .into_iter()
    .map(|l| format!("{l} DROP RELATION {d};"))
    .collect()
}

/// One analyst's op list: cycles of 40 — 34 point, 3 scan, 1 derive
/// and one assert/retract pair on the analyst's own `Notes` relation.
fn ops(t: &Taxonomy, conn: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64));
    let derives = derive_texts(t, conn, &mut rng);
    let colors = ["Red", "Orange", "Blue", "Green"];
    let mut out = Vec::new();
    for cycle in 0..CYCLES {
        let mut ops = Vec::new();
        for k in 0..34 {
            // Four in five point reads name an instance.
            let who = if k % 5 == 4 {
                rng.pick(&t.nodes)
            } else {
                rng.pick(&t.instances)
            };
            let color = rng.pick(&colors);
            let text = match k % 8 {
                0..=2 => format!("HOLDS Trait ({who});"),
                3 | 4 => format!("HOLDS Hue ({who}, {color});"),
                5 => format!("HOLDS3 Trait ({who});"),
                6 => format!("WHY Trait ({who});"),
                _ => format!("WHY Hue ({who}, {color});"),
            };
            ops.push(Op::new(Class::Point, text));
        }
        for k in 0..3 {
            ops.push(Op::new(Class::Scan, SCANS[(cycle * 3 + k) % SCANS.len()]));
        }
        ops.push(Op::new(
            Class::Derive,
            derives[cycle % derives.len()].clone(),
        ));
        let who = rng.pick(&t.instances);
        let write_pairs = vec![(
            format!("ASSERT Notes{conn} ({who});"),
            format!("RETRACT Notes{conn} ({who});"),
        )];
        out.extend(shuffle_cycle(
            &mut rng,
            Cycle {
                reads_and_derives: ops,
                write_pairs,
            },
        ));
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut t = generate(WORLD_SEED);
    let resolved = grow(&mut t);
    out.line(format!(
        "taxonomy: {} nodes ({} instances); Trait and Hue grown to at least {SIZES:?} tuples, \
         {resolved} conflict item(s) asserted positively on the way",
        t.nodes.len(),
        t.instances.len()
    ));
    let all_ops: Vec<Vec<Op>> = (0..CONNECTIONS).map(|c| ops(&t, c, args.seed)).collect();
    let ds = derivations(&all_ops);
    let script = &t.script;
    let ((engine, server), setup_s) = setup_median(5, || {
        let engine = Engine::new();
        engine.execute(script).expect("the taxonomy world builds");
        let server = start_server(engine.clone());
        (engine, server)
    });
    let win = Window::new(args);
    let plan = |d: &_| chosen_plan(&engine.snapshot(), d);
    let addr = server.addr();
    let (recs, marks) = std::thread::scope(|s| {
        let clients: Vec<_> = all_ops
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let win = &win;
                s.spawn(move || closed_loop_wire(addr, c as u16, ops, win))
            })
            .collect();
        let marks = watch(&win, &plan, &ds, None);
        let recs: Vec<Rec> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("analyst client"))
            .collect();
        (recs, marks)
    });
    let world = engine.snapshot();
    server.shutdown();

    let reference = Engine::new();
    reference
        .execute(script)
        .expect("the reference world builds");
    out.mismatched = check_against_reference(&reference, &all_ops, &recs);
    tally(&mut out, &recs);
    report_plans(&mut out, &ds, &marks);
    let class_of = |r: &Rec| all_ops[r.conn as usize][r.op as usize].class;
    if !args.trace {
        end_to_end(
            &mut out,
            &recs,
            &class_of,
            &TAILS,
            &win.slices(SLICES),
            setup_s,
        );
        return out;
    }
    let shadow = Engine::new();
    shadow.execute(script).expect("the shadow world builds");
    let mut replayer = Replayer {
        shadow: Target::Engine(&shadow),
        journal: None,
        view_sources: &[],
        rows: Vec::new(),
    };
    traced_report(
        &mut out,
        args,
        Traced {
            root: "server.request",
            ops: &all_ops,
            win: &win,
            marks: &marks,
            extra: Extra {
                image_us: image_us(&world),
                ..Extra::default()
            },
        },
        &recs,
        &mut replayer,
    );
    out
}
