//! `durable_mixed`: writes beside reads on a durable store.
//!
//! The store is `OPEN`ed with `SYNC EVERY 8` in the working directory's
//! filesystem (the run prints its type), so every eighth WAL append
//! pays an fsync of whatever disk holds the checkout. The catalog is the serving world
//! plus 4 800 relations, of which the first 16 are hot, and 5 live
//! `LET` views over 2 of the hot ones. One writer connection cycles
//! ASSERT/RETRACT over the hot relations in a closed loop (with a
//! LET/DROP every 10 writes); one reader connection sends point reads
//! and scans on them. Every write gives a relation a new version, so
//! the caches that fit in `taxonomy_query` turn over here, and a write
//! into a view's source forces a full checkpoint image.
//!
//! Checks: every writer reply equals a reference engine's replaying
//! the same acknowledged sequence; every reader reply is a well-formed
//! success; after the run the store is reopened in a fresh engine and
//! its rendered state must equal the live engine's and the reference's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hrdm_bench::fixtures::{serving_bootstrap, serving_writes};
use hrdm_hql::Engine;
use hrdm_persist::Journal;

use crate::harness::{
    closed_loop_wire, end_to_end, expected_frame, setup_median, tally, work_dir, Args, Tails,
    Window, SLICES,
};
use crate::layers::Extra;
use crate::replay::{chosen_plan, Replayer, Target};
use crate::run::{derivations, image_us, report_plans, start_server, traced_report, watch, Traced};
use crate::stats::{digest, Class, Op, Outcome, Rec, Rng};

const RELATIONS: usize = 4_800;
const HOT: usize = 16;
/// The group-commit width the store is opened with.
const SYNC_EVERY: u32 = 8;
const WRITER_OPS: usize = 4_000;
const READER_CYCLES: usize = 200;
/// Tail percentile per class (point, scan, derive, write); see [`Tails`].
const TAILS: Tails = [0.99, 0.99, 0.98, 0.99];

const CREATURES: [&str; 15] = [
    "Tweety", "Paul", "Patricia", "Pamela", "Peter", "P0", "P1", "P2", "P3", "P4", "P5", "P6",
    "P7", "P8", "P9",
];

/// The relations the live views read from.
fn view_sources() -> Vec<String> {
    vec!["Part0".into(), "Part1".into()]
}

/// The catalog, facts and views after `OPEN` (also the reference's
/// script, which skips the cold relations).
fn world_script(rng: &mut Rng, cold: bool) -> String {
    let mut script = String::from(serving_bootstrap());
    for w in serving_writes() {
        script.push_str(&w);
        script.push('\n');
    }
    let n = if cold { RELATIONS } else { HOT };
    for r in 0..n {
        script.push_str(&format!("CREATE RELATION Part{r} (Creature: Animal);\n"));
    }
    // Class-level facts on the hot relations; instance-level writes on
    // top of them can never conflict.
    for r in 0..HOT {
        script.push_str(&format!("ASSERT Part{r} (ALL Bird);\n"));
        if rng.below(2) == 0 {
            script.push_str(&format!("ASSERT NOT Part{r} (ALL Penguin);\n"));
        }
    }
    script.push_str(
        "LET V0 = SELECT Part0 WHERE Creature IS ALL Penguin;\n\
         LET V1 = CONSOLIDATE Part0;\n\
         LET V2 = UNION Part0 Part1;\n\
         LET V3 = SELECT Part1 WHERE Creature IS ALL Bird;\n\
         LET V4 = EXPLICATE Part1;\n",
    );
    script
}

/// The writer's op list: a seeded walk of ASSERT/RETRACT toggles over
/// (hot relation, creature) items, closed so every item ends as it
/// started, with a LET/DROP every 10 writes.
fn writer_ops(rng: &mut Rng) -> Vec<Op> {
    let mut present = vec![[false; CREATURES.len()]; HOT];
    let mut out = Vec::new();
    let toggle = |present: &mut Vec<[bool; 15]>, r: usize, c: usize, out: &mut Vec<Op>| {
        let verb = if present[r][c] { "RETRACT" } else { "ASSERT" };
        present[r][c] = !present[r][c];
        out.push(Op::new(
            Class::Write,
            format!("{verb} Part{r} ({});", CREATURES[c]),
        ));
    };
    for k in 0..WRITER_OPS {
        toggle(
            &mut present,
            rng.below(HOT),
            rng.below(CREATURES.len()),
            &mut out,
        );
        if k % 10 == 9 {
            let r = 2 + rng.below(HOT - 2);
            out.push(Op::new(
                Class::Derive,
                format!("LET W = SELECT Part{r} WHERE Creature IS ALL Penguin; DROP RELATION W;"),
            ));
        }
    }
    for r in 0..HOT {
        for c in 0..CREATURES.len() {
            if present[r][c] {
                toggle(&mut present, r, c, &mut out);
            }
        }
    }
    out
}

/// The reader's op list: cycles of 18 point reads and 2 scans on the
/// hot relations and the views.
fn reader_ops(rng: &mut Rng) -> Vec<Op> {
    let mut out = Vec::new();
    for _ in 0..READER_CYCLES {
        for k in 0..18 {
            let who = rng.pick(&CREATURES);
            let text = match k % 6 {
                5 => format!("HOLDS V{} ({who});", rng.below(4)),
                4 => format!("WHY Part{} ({who});", rng.below(HOT)),
                _ => format!("HOLDS Part{} ({who});", rng.below(HOT)),
            };
            out.push(Op::new(Class::Point, text));
        }
        out.push(Op::new(
            Class::Scan,
            format!("COUNT Part{};", rng.below(HOT)),
        ));
        out.push(Op::new(
            Class::Scan,
            format!("CHECK Part{};", rng.below(HOT)),
        ));
    }
    out
}

fn fresh_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).expect("clear the previous store");
    }
}

fn open(engine: &Engine, dir: &Path) -> String {
    let reply = engine
        .execute(&format!(
            "OPEN \"{}\" SYNC EVERY {SYNC_EVERY};",
            dir.display()
        ))
        .expect("the store opens");
    reply[0].to_string()
}

/// Every relation of `engine`, rendered: the state two engines must
/// agree on.
fn rendered_state(engine: &Engine) -> Vec<(String, u64)> {
    let snap = engine.snapshot();
    let mut out: Vec<(String, u64)> = snap
        .relation_names()
        .map(|n| {
            let table = hrdm_core::render::render_table(snap.relation(n).expect("listed"));
            (n.to_string(), digest(table.as_bytes()))
        })
        .collect();
    out.sort();
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let script = world_script(&mut Rng::new(args.seed), true);
    let reference_script = world_script(&mut Rng::new(args.seed), false);
    let all_ops = vec![writer_ops(&mut rng), reader_ops(&mut rng)];
    let ds = derivations(&all_ops);
    let dir: PathBuf = work_dir().join("durable-store");
    let ((engine, server), setup_s) = setup_median(5, || {
        fresh_dir(&dir);
        let engine = Engine::new();
        open(&engine, &dir);
        engine.execute(&script).expect("the durable world builds");
        let server = start_server(engine.clone());
        (engine, server)
    });
    out.line(format!(
        "store {} on {}; OPEN … SYNC EVERY {SYNC_EVERY} (an fsync every {SYNC_EVERY} WAL appends); \
         fsync latency is this machine's disk as its kernel presents it, not a device's",
        dir.display(),
        filesystem_of(&dir)
    ));
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
        let marks = watch(&win, &plan, &ds, Some(&dir));
        let recs: Vec<Rec> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("durable client"))
            .collect();
        (recs, marks)
    });
    server.shutdown();
    engine.sync().expect("flush the WAL at shutdown");
    let world = engine.snapshot();
    let live_state = rendered_state(&engine);
    let image = image_us(&world);
    drop(world);
    drop(engine);
    tally(&mut out, &recs);

    // Writer replies against a reference replaying the acknowledged
    // sequence; reader replies must be well-formed successes.
    let reference = Engine::new();
    reference
        .execute(&reference_script)
        .expect("the reference world builds");
    let mut writer: Vec<&Rec> = recs.iter().filter(|r| r.conn == 0 && r.ok).collect();
    writer.sort_by_key(|r| r.start);
    for r in writer {
        let text = &all_ops[0][r.op as usize].text;
        if digest(expected_frame(reference.execute(text)).as_bytes()) != r.reply {
            out.mismatched += 1;
        }
    }

    // Recovery: a fresh engine reopens the store.
    let before = hrdm_obs::metrics::counter("recover.records_replayed").get();
    let reopened = Engine::new();
    let t = Instant::now();
    let opened = open(&reopened, &dir);
    let recover_s = t.elapsed().as_secs_f64();
    let records_replayed = hrdm_obs::metrics::counter("recover.records_replayed").get() - before;
    out.line(format!("recovery: {opened}"));
    out.ungated("recover_s", recover_s, "s");
    let recovered_state = rendered_state(&reopened);
    let lost = live_state
        .iter()
        .zip(&recovered_state)
        .filter(|(a, b)| a != b)
        .count()
        + live_state.len().abs_diff(recovered_state.len());
    let reference_state = rendered_state(&reference);
    let missing = reference_state
        .iter()
        .filter(|r| !recovered_state.contains(r))
        .count();
    out.line(format!(
        "reopened store: {} relations, {lost} differ from the live engine, \
         {missing} of the reference's {} hot relations and views differ",
        recovered_state.len(),
        reference_state.len(),
    ));
    out.mismatched += (lost + missing) as u64;
    drop(reopened);
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
    // The shadow holds the same catalog and views in memory; its WAL
    // appends and checkpoints are replayed into a store of its own.
    let shadow = Engine::new();
    shadow.execute(&script).expect("the shadow world builds");
    let replay_dir = work_dir().join("durable-replay-store");
    fresh_dir(&replay_dir);
    std::fs::create_dir_all(&replay_dir).expect("create the replay store");
    let journal = Journal::begin(
        &replay_dir,
        0,
        &shadow.snapshot().to_image(),
        SYNC_EVERY as usize,
    )
    .expect("the replay journal begins");
    let sources = view_sources();
    let mut replayer = Replayer {
        shadow: Target::Engine(&shadow),
        journal: Some(journal),
        view_sources: &sources,
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
                image_us: image,
                records_replayed,
                ..Extra::default()
            },
        },
        &recs,
        &mut replayer,
    );
    out
}

/// The filesystem type of the mount holding `dir`, from /proc/mounts.
fn filesystem_of(dir: &Path) -> String {
    let path = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} ({})", f[2], f[0])))
        })
        .max()
        .map_or_else(|| "an unknown filesystem".into(), |(_, fs)| fs)
}
