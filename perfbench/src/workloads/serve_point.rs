//! `serve_point`: the Fig. 1 world over HRDM/1, open loop.
//!
//! One sender thread releases pipelined requests on a fixed schedule
//! over one connection and one receiver thread matches the in-order
//! replies; latency runs from each request's due time. A request costs
//! about a microsecond in-process, so this is where the server and the
//! wire codec dominate. After the measured window a rate ladder finds
//! `max_rate_rps`: the highest step whose point tail stays under
//! [`LIMIT_US`] with no failures and a generator that kept up.

use hrdm_bench::fixtures::{serving_bootstrap, serving_queries, serving_writes};
use std::time::Instant;

use hrdm_hql::Engine;

use crate::harness::{
    check_against_reference, end_to_end, secs_ns, setup_median, tally, Args, Due, Tails, Window,
};
use crate::layers::Extra;
use crate::replay::{chosen_plan, Replayer, Target};
use crate::run::{derivations, image_us, report_plans, start_server, traced_report, watch, Traced};
use crate::stats::{percentile, Class, Op, Outcome, Phase, Rec, Rng};
use crate::workloads::{shuffle_cycle, Cycle};

/// Offered load of the measured window.
const RATE_RPS: u64 = 2_000;
/// The rate ladder run after the window, and the time spent on each step.
const LADDER_RPS: [u64; 6] = [4_000, 8_000, 12_000, 16_000, 24_000, 32_000];
const STEP_SECS: f64 = 0.5;
/// Point-tail limit a ladder step must meet (calibrated once on a
/// 2-CPU VM: about twice the median, over ten runs, of the point p99 at
/// `RATE_RPS`).
const LIMIT_US: f64 = 2_000.0;
/// A step whose sender ran this late at the median did not offer its
/// rate.
const LAG_LIMIT_US: f64 = 500.0;
/// Tail percentile per class (point, scan, derive, write); see [`Tails`].
const TAILS: Tails = [0.99, 0.99, 0.99, 0.99];
const CYCLES: usize = 16;
/// An untraced run measures in this many segments, each one of the
/// slices its figures are medians over. Each segment starts a fresh
/// engine, server and client threads, so the run samples where the
/// scheduler places them as often as it samples the host.
const SEGMENTS: usize = 15;
/// Load offered before the first segment, to a server of its own whose
/// replies are checked but not timed: at 2 000 rps the CPUs idle
/// between requests, and on a 2-CPU VM point p50 fell from ~160 µs to
/// ~110 µs over the first 7 to 11 s of load. With 4 s of warm-up on the
/// first segment's own server, the first third of a run's segments were
/// often still slow and a run's median flipped with how many; the first
/// segment stayed slow even after 12 s.
const WARMUP_SECS: f64 = 12.0;
/// Warm-up of each segment on its fresh server.
const SEGMENT_WARMUP_SECS: f64 = 0.3;

fn world_script() -> String {
    let mut script = String::from(serving_bootstrap());
    for w in serving_writes() {
        script.push_str(&w);
        script.push('\n');
    }
    script.push_str("CREATE RELATION Notes (Creature: Animal);\n");
    script
}

const CREATURES: [&str; 15] = [
    "Tweety", "Paul", "Patricia", "Pamela", "Peter", "P0", "P1", "P2", "P3", "P4", "P5", "P6",
    "P7", "P8", "P9",
];

/// The serving mix, plus WHY/HOLDS3 point reads, derives and writes to
/// a relation no read touches. 40 requests a cycle: 24 point, 8 scan,
/// 4 derive, 4 write.
fn ops(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let base = serving_queries();
    let mut out = Vec::new();
    for _ in 0..CYCLES {
        let mut ops = Vec::new();
        for q in &base {
            let class = if q.starts_with("HOLDS") {
                Class::Point
            } else {
                Class::Scan
            };
            ops.push(Op::new(class, *q));
        }
        // Fill to 24 point and 8 scan.
        for k in 0..18 {
            let who = rng.pick(&CREATURES);
            let text = match k % 3 {
                0 => format!("HOLDS Flies ({who});"),
                1 => format!("HOLDS3 Flies ({who});"),
                _ => format!("WHY Flies ({who});"),
            };
            ops.push(Op::new(Class::Point, text));
        }
        for q in [
            "COUNT Flies;",
            "CHECK Flies;",
            "SHOW Flies;",
            "COUNT Flies BY Creature;",
        ] {
            ops.push(Op::new(Class::Scan, q));
        }
        for d in [
            "LET Penguins = SELECT Flies WHERE Creature IS ALL Penguin;",
            "LET Canon = CONSOLIDATE Flies;",
            "LET Explicit = EXPLICATE Flies;",
            "LET Birds = SELECT Flies WHERE Creature IS ALL Bird;",
        ] {
            let name = d.split_whitespace().nth(1).expect("LET name");
            ops.push(Op::new(Class::Derive, format!("{d} DROP RELATION {name};")));
        }
        let a = *rng.pick(&CREATURES);
        let b = *rng.pick(&CREATURES[..5]);
        let b = if a == b { "P7" } else { b };
        let b = if a == b { "P8" } else { b };
        let write_pairs = [a, b]
            .iter()
            .map(|w| {
                (
                    format!("ASSERT Notes ({w});"),
                    format!("RETRACT Notes ({w});"),
                )
            })
            .collect();
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

/// The open-loop schedule of one segment: [`RATE_RPS`] through warm-up
/// and window, then (on the last segment) the rate ladder. Returns the
/// ladder steps as `(rate, from, to)`.
fn schedule(win: &Window, n_ops: usize, ladder: bool) -> (Vec<Due>, Vec<(u64, u64, u64)>) {
    let mut due = Vec::new();
    let mut k = 0usize;
    let mut push_rate = |from: u64, to: u64, rate: u64, due: &mut Vec<Due>| {
        let step = 1e9 / rate as f64;
        let mut t = from as f64;
        while (t as u64) < to {
            due.push(Due {
                due: t as u64,
                op: (k % n_ops) as u32,
            });
            k += 1;
            t += step;
        }
    };
    push_rate(win.start, win.end, RATE_RPS, &mut due);
    let mut steps = Vec::new();
    let mut from = win.end;
    for rate in LADDER_RPS.iter().copied().filter(|_| ladder) {
        let to = from + secs_ns(STEP_SECS);
        push_rate(from, to, rate, &mut due);
        steps.push((rate, from, to));
        from = to;
    }
    (due, steps)
}

/// The highest ladder step that met the limit, and each step's report.
fn max_rate(recs: &[Rec], steps: &[(u64, u64, u64)], ops: &[Op], out: &mut Outcome) -> u64 {
    let mut best = 0;
    for &(rate, from, to) in steps {
        let in_step: Vec<&Rec> = recs
            .iter()
            .filter(|r| r.due >= from && r.due < to)
            .collect();
        let failed = in_step.iter().filter(|r| !r.ok).count();
        let mut point: Vec<u64> = in_step
            .iter()
            .filter(|r| ops[r.op as usize].class == Class::Point)
            .map(|r| r.latency_ns())
            .collect();
        point.sort_unstable();
        let mut lag: Vec<u64> = in_step
            .iter()
            .map(|r| r.start.saturating_sub(r.due))
            .collect();
        lag.sort_unstable();
        let tail_us = percentile(&point, 0.99) as f64 / 1e3;
        let lag_us = percentile(&lag, 0.5) as f64 / 1e3;
        let pass = failed == 0 && tail_us <= LIMIT_US && lag_us <= LAG_LIMIT_US;
        out.line(format!(
            "ladder {rate:>6} rps: {} requests, point p99 {tail_us:.1} us, sender lag p50 {lag_us:.1} us, \
             {failed} failed -> {}",
            in_step.len(),
            if pass { "meets the limit" } else { "misses the limit" }
        ));
        if !pass {
            break;
        }
        best = rate;
    }
    best
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let script = world_script();
    let ops = ops(args.seed);
    let all_ops = vec![ops.clone()];
    let ds = derivations(&all_ops);
    let start = || {
        let engine = Engine::new();
        engine.execute(&script).expect("the serving world builds");
        let server = start_server(engine.clone());
        (engine, server)
    };
    let (_, setup_s) = setup_median(101, start);
    // A traced run is one segment; an untraced run measures in several,
    // each with a fresh engine, server and client threads.
    let segments = if args.trace { 1 } else { SEGMENTS };
    let seg_secs = args.seconds / segments as f64;
    let base = Instant::now();
    let mut recs = {
        let (_engine, server) = start();
        let win = Window::at(base, 0, WARMUP_SECS, 0.0, false);
        let (sched, _) = schedule(&win, ops.len(), false);
        let warm = crate::harness::open_loop_wire(server.addr(), &ops, &sched, &win);
        server.shutdown();
        warm
    };
    let mut slices = Vec::new();
    let mut last = None;
    for seg in 0..segments {
        let (engine, server) = start();
        let win = Window::at(
            base,
            base.elapsed().as_nanos() as u64,
            SEGMENT_WARMUP_SECS,
            seg_secs,
            args.trace,
        );
        let (sched, steps) = schedule(&win, ops.len(), seg + 1 == segments);
        let plan = |d: &_| chosen_plan(&engine.snapshot(), d);
        let (seg_recs, marks) = std::thread::scope(|s| {
            let client =
                s.spawn(|| crate::harness::open_loop_wire(server.addr(), &ops, &sched, &win));
            let marks = watch(&win, &plan, &ds, None);
            (client.join().expect("open-loop client"), marks)
        });
        server.shutdown();
        recs.extend(seg_recs);
        slices.push((win.warmup_end, win.traced_from));
        last = Some((engine, win, steps, marks));
    }
    let (engine, win, steps, marks) = last.expect("at least one segment");
    let world = engine.snapshot();

    let reference = Engine::new();
    reference
        .execute(&script)
        .expect("the reference world builds");
    out.mismatched = check_against_reference(&reference, &all_ops, &recs);
    tally(&mut out, &recs);
    let class_of = |r: &Rec| ops[r.op as usize].class;
    let mut lag: Vec<u64> = recs
        .iter()
        .filter(|r| matches!(r.phase, Phase::Measured | Phase::Traced))
        .map(|r| r.start.saturating_sub(r.due))
        .collect();
    lag.sort_unstable();
    let gen_lag_us = percentile(&lag, 0.5) as f64 / 1e3;
    out.line(format!(
        "open loop at {RATE_RPS} rps; sender lag p50 {gen_lag_us:.1} us, p99 {:.1} us",
        percentile(&lag, 0.99) as f64 / 1e3
    ));
    let best = max_rate(&recs, &steps, &ops, &mut out);
    out.line(format!("max_rate_rps: point p99 limit {LIMIT_US} us"));
    out.ungated("max_rate_rps", best as f64, "1/s");
    report_plans(&mut out, &ds, &marks);
    if !args.trace {
        end_to_end(&mut out, &recs, &class_of, &TAILS, &slices, setup_s);
        return out;
    }
    let shadow = Engine::new();
    shadow.execute(&script).expect("the shadow world builds");
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
                gen_lag_us,
                image_us: image_us(&world),
                ..Extra::default()
            },
        },
        &recs,
        &mut replayer,
    );
    out
}
