//! `sharded_mix`: the in-process `ShardedEngine` with 4 shards, driven
//! through `ExecutorHandle` by two closed-loop clients.
//!
//! The world is `loadgen`'s: the serving world plus 4 800 relations
//! hash-distributed over the shards. The shards are split between the
//! clients, two each: a client reads 16 relations its shards own and
//! lands one write (ASSERT/RETRACT) every 50 reads on other relations
//! of its shards, and a LET/DROP every 100, so the coordinator's
//! routing, its DDL path and the owning shard's copy-on-write
//! publication are all on the clock, and the two clients meet only in
//! the coordinator. It is the only workload through `hql::shard`.
//!
//! Why this shape, on a 2-CPU machine: with one client, the figures
//! flipped by 1.5x between the host's fast and slow spells, several
//! seconds each, and run medians spread by 0.3 of their median. With
//! two clients on the same shards, a write waited on the other
//! client's work on its shard (430 µs against 110 µs alone) and read
//! about 190 µs whenever the host ran the two clients one at a time,
//! so a set of runs spread by up to 0.27. Clients on disjoint shards
//! keep both CPUs busy without that swing.
//!
//! Check: no read touches a relation any write touches, and each
//! client's op list restores its relations when it wraps, so an op's
//! reply is the same on every pass; one single-engine pass over each
//! list gives the expected reply of every op, and every reply of the
//! run is compared with it.

use hrdm_bench::fixtures::{serving_bootstrap, serving_writes};
use hrdm_hql::shard::default_shard;
use hrdm_hql::{Engine, ExecutorHandle, ShardedEngine};

use crate::harness::{
    end_to_end, expected_frame, parts_frame, setup_median, Args, Tails, Window, SLICES,
};
use crate::layers::Extra;
use crate::replay::{chosen_plan, Replayer, Target};
use crate::run::{derivations, image_us, report_plans, traced_report, watch, Traced};
use crate::stats::{digest, Class, Op, Outcome, Phase, Rec, Rng};

const SHARDS: usize = 4;
const CLIENTS: usize = 2;
const RELATIONS: usize = 4_800;
const READ_SPAN: usize = 16;
const WRITE_EVERY: usize = 50;
const DERIVE_EVERY: usize = 100;
/// Relations each client's writes walk (spread over its two shards by
/// the hash).
const WRITE_SPAN: usize = 256;
/// One read in this many is recorded (and, in the traced half,
/// replayed); every write and derive is, to keep the shadow in step.
const MEASURE_EVERY: u32 = 8;
const TRACE_EVERY: u32 = 64;
/// Tail percentile per class (point, scan, derive, write); see [`Tails`].
const TAILS: Tails = [0.99, 0.99, 0.99, 0.99];

const CREATURES: [&str; 5] = ["Tweety", "Paul", "Patricia", "Pamela", "Peter"];

fn world_script() -> String {
    let mut script = String::from(serving_bootstrap());
    for w in serving_writes() {
        script.push_str(&w);
        script.push('\n');
    }
    for r in 0..RELATIONS {
        script.push_str(&format!("CREATE RELATION Part{r} (Creature: Animal);\n"));
    }
    script
}

/// One client's pass: a seeded read mix over `reads`, an
/// ASSERT/RETRACT every [`WRITE_EVERY`] reads walking the client's own
/// `targets` (each asserted, later retracted), and a LET/DROP every
/// [`DERIVE_EVERY`] reads.
fn ops(rng: &mut Rng, client: usize, reads: &[usize], targets: &[usize]) -> Vec<Op> {
    let writes: Vec<String> = targets
        .iter()
        .map(|r| format!("ASSERT Part{r} (Tweety);"))
        .chain(targets.iter().map(|r| format!("RETRACT Part{r} (Tweety);")))
        .collect();
    let mut out = Vec::new();
    for (w, write) in writes.into_iter().enumerate() {
        for k in 0..WRITE_EVERY {
            let r = reads[rng.below(reads.len())];
            let who = rng.pick(&CREATURES);
            let (class, text) = match k % 10 {
                0..=4 => (Class::Point, format!("HOLDS Part{r} ({who});")),
                5 => (Class::Point, format!("WHY Part{r} ({who});")),
                6 => (Class::Point, format!("HOLDS3 Part{r} ({who});")),
                7 => (Class::Scan, format!("COUNT Part{r};")),
                8 => (Class::Scan, format!("CHECK Part{r};")),
                _ => (Class::Scan, format!("SHOW Part{r};")),
            };
            out.push(Op::new(class, text));
        }
        out.push(Op::new(Class::Write, write));
        if w % (DERIVE_EVERY / WRITE_EVERY) == 0 {
            let r = reads[rng.below(reads.len())];
            out.push(Op::new(
                Class::Derive,
                format!(
                    "LET S{client} = SELECT Part{r} WHERE Creature IS ALL Penguin; \
                     DROP RELATION S{client};"
                ),
            ));
        }
    }
    out
}

/// Every client's op list. Client `c` keeps to the relations its
/// shards own (shard `k` belongs to client `k * CLIENTS / SHARDS`): it
/// reads the first [`READ_SPAN`] of them and writes a seeded choice of
/// the rest.
fn all_ops(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed);
    (0..CLIENTS)
        .map(|c| {
            let own: Vec<usize> = (0..RELATIONS)
                .filter(|r| default_shard(&format!("Part{r}"), SHARDS) * CLIENTS / SHARDS == c)
                .collect();
            let (reads, rest) = own.split_at(READ_SPAN);
            let mut targets = rest.to_vec();
            rng.shuffle(&mut targets);
            ops(&mut rng, c, reads, &targets[..WRITE_SPAN])
        })
        .collect()
}

fn execute(coordinator: &ShardedEngine, op: &Op) -> (u64, bool) {
    let result = if op.class == Class::Point || op.class == Class::Scan {
        coordinator.execute_read(&op.text, 0)
    } else {
        ExecutorHandle::execute(coordinator, &op.text)
    };
    match result {
        Ok(parts) => (digest(parts_frame(parts).as_bytes()), true),
        Err(_) => (0, false),
    }
}

/// One closed-loop client. Every reply is checked here; only a uniform
/// sample of reads is recorded, so a run's records stay small. Returns
/// the records and the counts of requests attempted, failed and
/// mismatched.
fn client(
    coordinator: &ShardedEngine,
    conn: u16,
    ops: &[Op],
    expected: &[u64],
    win: &Window,
    seed: u64,
) -> (Vec<Rec>, [u64; 3]) {
    let mut recs = Vec::new();
    let mut counts = [0u64; 3];
    let mut sample = Rng::new(seed);
    let mut i = 0usize;
    loop {
        let start = win.now();
        if start >= win.end {
            break;
        }
        let k = i % ops.len();
        let (reply, ok) = execute(coordinator, &ops[k]);
        let end = win.now();
        counts[0] += 1;
        counts[1] += u64::from(!ok);
        counts[2] += u64::from(ok && reply != expected[k]);
        let phase = win.phase(start);
        let mutates = matches!(ops[k].class, Class::Write | Class::Derive);
        let every = match phase {
            Phase::Measured => MEASURE_EVERY,
            Phase::Traced => TRACE_EVERY,
            _ => u32::MAX,
        };
        let keep = if mutates {
            phase == Phase::Measured || win.traced_from < win.end
        } else {
            // At random: a fixed stride would alias with the op list's
            // period and keep only some read kinds.
            sample.below(every as usize) == 0
        };
        if keep {
            recs.push(Rec {
                conn,
                op: k as u32,
                phase,
                due: start,
                start,
                end,
                reply,
                ok,
                weight: if mutates { 1 } else { every },
            });
        }
        i += 1;
    }
    (recs, counts)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let script = world_script();
    let all_ops = all_ops(args.seed);
    let ds = derivations(&all_ops);

    // The expected reply of every op, from one single-engine pass over
    // each client's list (the lists touch disjoint state).
    let reference = Engine::new();
    reference
        .execute(&script)
        .expect("the reference world builds");
    let expected: Vec<Vec<u64>> = all_ops
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| digest(expected_frame(reference.execute(&op.text)).as_bytes()))
                .collect()
        })
        .collect();
    drop(reference);

    let (coordinator, setup_s) = setup_median(15, || {
        let c = ShardedEngine::new(SHARDS);
        ExecutorHandle::execute(&c, &script).expect("the sharded world builds");
        c
    });
    let win = Window::new(args);
    let plan = |d: &hrdm_hql::ast::Derivation| {
        let mut sources = std::collections::BTreeSet::new();
        hrdm_hql::shard::derivation_sources(d, &mut sources);
        let first = sources.into_iter().next().expect("a source");
        chosen_plan(
            &coordinator.shards()[coordinator.owner_of(&first)].snapshot(),
            d,
        )
    };
    let (recs, marks) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (coordinator, ops, expected, win) =
                    (&coordinator, &all_ops[c], &expected[c], &win);
                let seed = args.seed.wrapping_add(c as u64);
                s.spawn(move || client(coordinator, c as u16, ops, expected, win, seed))
            })
            .collect();
        let marks = watch(&win, &plan, &ds, None);
        let mut recs = Vec::new();
        for h in clients {
            let (r, [attempted, failed, mismatched]) = h.join().expect("sharded client");
            recs.extend(r);
            out.attempted += attempted;
            out.failed += failed;
            out.mismatched += mismatched;
        }
        (recs, marks)
    });
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
    let mut per_shard = [0u64; SHARDS];
    for r in recs.iter().filter(|r| r.phase == Phase::Traced) {
        let text = &all_ops[r.conn as usize][r.op as usize].text;
        let relation = text
            .split(|c: char| c.is_whitespace() || c == ';' || c == '(')
            .find(|w| w.starts_with("Part"))
            .expect("every op names a Part relation");
        per_shard[coordinator.owner_of(relation)] += 1;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    let skew = *per_shard.iter().max().expect("shards") as f64 / mean.max(1.0);
    out.line(format!(
        "traced ops per shard {per_shard:?} (skew {skew:.3})"
    ));
    let image = coordinator
        .shards()
        .iter()
        .map(|s| image_us(&s.snapshot()))
        .sum::<f64>();
    let shadow = ShardedEngine::new(SHARDS);
    ExecutorHandle::execute(&shadow, &script).expect("the shadow world builds");
    let mut replayer = Replayer {
        shadow: Target::Sharded(&shadow),
        journal: None,
        view_sources: &[],
        rows: Vec::new(),
    };
    traced_report(
        &mut out,
        args,
        Traced {
            root: "handle.request",
            ops: &all_ops,
            win: &win,
            marks: &marks,
            extra: Extra {
                image_us: image,
                shard_skew: skew,
                ..Extra::default()
            },
        },
        &recs,
        &mut replayer,
    );
    out
}
