//! The run skeleton the workloads share: server start, the watcher on
//! the main thread, the traced replay and the traced-run report.

use std::path::Path;
use std::time::{Duration, Instant};

use hrdm_hql::ast::Derivation;
use hrdm_hql::{Engine, Statement, World};
use hrdm_server::{Server, ServerConfig, ServerHandle};

use crate::harness::{work_dir, Args, Counters, Window};
use crate::layers::{per_layer, Extra, LayerInputs};
use crate::replay::Replayer;
use crate::stats::{digest, percentile, Class, Op, Outcome, Phase, Rec, Rng};
use crate::trace::Recorder;

/// Worker threads of the server: fixed, so the pool does not depend on
/// the machine.
pub const SERVER_WORKERS: usize = 2;

pub fn start_server(engine: Engine) -> ServerHandle {
    Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 8,
            read_timeout: Duration::from_secs(60),
            slowlog_threshold: Duration::from_secs(3600),
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("server binds a loopback port")
}

/// The LET derivations among `ops`, each once.
pub fn derivations(ops: &[Vec<Op>]) -> Vec<Derivation> {
    let mut out: Vec<Derivation> = Vec::new();
    for op in ops.iter().flatten().filter(|o| o.class == Class::Derive) {
        for stmt in hrdm_hql::parser::parse(&op.text).expect("workload scripts parse") {
            if let Statement::Let { derivation, .. } = stmt {
                if !out.contains(&derivation) {
                    out.push(derivation);
                }
            }
        }
    }
    out
}

/// What the main thread observed while the clients ran.
pub struct Marks {
    pub before: Counters,
    pub after: Counters,
    pub plans_start: Vec<String>,
    pub plans_end: Vec<String>,
    pub store_bytes: (u64, u64),
}

impl Marks {
    pub fn plan_flips(&self) -> u64 {
        self.plans_start
            .iter()
            .zip(&self.plans_end)
            .filter(|(a, b)| a != b)
            .count() as u64
    }
}

/// Runs on the main thread while the clients drive the load: records
/// the chosen plan of every derivation after warm-up and at the end,
/// and snapshots the program counters around the traced window (the
/// whole measured window in an untraced run).
pub fn watch(
    win: &Window,
    plan: &dyn Fn(&Derivation) -> String,
    ds: &[Derivation],
    store: Option<&Path>,
) -> Marks {
    win.sleep_until(win.warmup_end);
    let plans_start = ds.iter().map(plan).collect();
    let from = if win.traced_from < win.end {
        win.traced_from
    } else {
        win.warmup_end
    };
    win.sleep_until(from);
    let before = Counters::snap();
    let bytes_before = store.map_or(0, dir_bytes);
    win.sleep_until(win.end);
    let after = Counters::snap();
    let bytes_after = store.map_or(0, dir_bytes);
    Marks {
        before,
        after,
        plans_start,
        plans_end: ds.iter().map(plan).collect(),
        store_bytes: (bytes_before, bytes_after),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Print each derivation's chosen plan digest, once per run.
pub fn report_plans(out: &mut Outcome, ds: &[Derivation], marks: &Marks) {
    for (d, plan) in ds.iter().zip(&marks.plans_end) {
        out.line(format!(
            "plan {:016x}  LET … = {d}",
            digest(plan.as_bytes())
        ));
    }
    out.line(format!(
        "plan flips between warm-up and end: {}",
        marks.plan_flips()
    ));
}

/// Mean cost of checkpointing the live snapshot: `World::to_image`
/// plus its encoding, µs.
pub fn image_us(world: &World) -> f64 {
    const REPS: u32 = 3;
    let t = Instant::now();
    for _ in 0..REPS {
        let mut buf = Vec::new();
        world
            .to_image()
            .write(&mut buf)
            .expect("image encodes into memory");
        std::hint::black_box(buf);
    }
    t.elapsed().as_secs_f64() * 1e6 / REPS as f64
}

/// The point-class p50 of one phase, ns.
fn point_p50(recs: &[Rec], phase: Phase, class_of: &dyn Fn(&Rec) -> Class) -> u64 {
    let mut v: Vec<u64> = recs
        .iter()
        .filter(|r| r.phase == phase && r.ok && class_of(r) == Class::Point)
        .map(Rec::latency_ns)
        .collect();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Everything the traced half of a run needs to produce its report.
pub struct Traced<'a> {
    pub root: &'static str,
    pub ops: &'a [Vec<Op>],
    pub win: &'a Window,
    pub marks: &'a Marks,
    pub extra: Extra,
}

/// About this many traced requests of each class are replayed under
/// spans; the rest are skipped (writes are still applied to the
/// shadow, untimed, so it stays in step).
const REPLAYS_PER_CLASS: u64 = 3_000;

/// Replay the run's requests against the shadow, in the order they
/// were sent: writes before the traced window are applied untimed,
/// and a sample of each class of traced requests is replayed under a
/// root span carrying the client's own timing. Writes the spans next to
/// the results and reports the per-layer metrics.
pub fn traced_report(
    out: &mut Outcome,
    args: &Args,
    t: Traced<'_>,
    recs: &[Rec],
    replayer: &mut Replayer<'_>,
) {
    let class_of = |r: &Rec| t.ops[r.conn as usize][r.op as usize].class;
    let mut order: Vec<&Rec> = recs.iter().filter(|r| r.ok).collect();
    order.sort_by_key(|r| r.start);
    let mut traced = [0u64; 4];
    for r in order.iter().filter(|r| r.phase == Phase::Traced) {
        traced[class_of(r).index()] += 1;
    }
    let stride = traced.map(|n| n.div_ceil(REPLAYS_PER_CLASS).max(1) as usize);
    // Sample at random, not every n-th: op lists repeat with short
    // periods, and a fixed stride would keep only some statement kinds.
    let mut pick = Rng::new(args.seed);
    let mut rec = Recorder::new(t.win.base);
    let mut mutating = 0u64;
    let mut user_bytes = 0u64;
    let mut req = 0u64;
    for r in order {
        let op = &t.ops[r.conn as usize][r.op as usize];
        let sampled = r.phase == Phase::Traced && pick.below(stride[op.class.index()]) == 0;
        if r.phase == Phase::Traced && matches!(op.class, Class::Write | Class::Derive) {
            mutating += 1;
            user_bytes += op.text.len() as u64;
        }
        if sampled {
            let root = rec.root(t.root, req, op.class, r.start, r.end);
            replayer.replay(&mut rec, root, &op.text, op.class);
            req += 1;
        } else if op.class == Class::Write && r.phase != Phase::Ladder {
            // A derive's LET and DROP leave no state behind; a write does.
            replayer.apply(&op.text);
        }
    }
    let counters = t.marks.after.delta(&t.marks.before);
    let untraced = point_p50(recs, Phase::Measured, &class_of) as f64;
    let traced = point_p50(recs, Phase::Traced, &class_of) as f64;
    let path = work_dir().join(format!("{}-seed{}-spans.tsv", args.workload, args.seed));
    rec.write_tsv(&path).expect("write the span file");
    out.line(format!(
        "spans: {} written to {}",
        rec.span_count(),
        path.display()
    ));
    let summary = rec.summary();
    out.line(format!("layers traced: {}", summary.layers().join(", ")));
    per_layer(
        out,
        &LayerInputs {
            summary: &summary,
            root: t.root,
            counters: &counters,
            mutating,
            rows: &replayer.rows,
            trace_overhead: if untraced > 0.0 {
                (traced - untraced) / untraced
            } else {
                0.0
            },
            plan_flips: t.marks.plan_flips(),
            bytes_per_user_byte: if user_bytes == 0 {
                0.0
            } else {
                t.marks.store_bytes.1.saturating_sub(t.marks.store_bytes.0) as f64
                    / user_bytes as f64
            },
            extra: &t.extra,
        },
    );
}
