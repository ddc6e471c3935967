//! What every workload shares: arguments, the run window, the wire
//! clients, program counters, reply checks and the end-to-end metrics.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hrdm_hql::{render, Engine};
use hrdm_server::proto::{encode_frame, read_frame, write_frame};
use hrdm_server::{Client, FrameReader, Reply, Request};

use crate::stats::{digest, median_f64, percentile, Class, Op, Outcome, Phase, Rec, CLASSES};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where a run keeps its store directories and span files: inside the
/// directory it was started from.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_work");
    std::fs::create_dir_all(&dir).expect("create .perfbench_work in the working directory");
    dir
}

/// The run's time line, in ns since `base`: warm-up, then the measured
/// window. A traced run splits the window in two halves, untraced then
/// traced, so both halves share one process and one warm state.
#[derive(Clone, Copy)]
pub struct Window {
    pub base: Instant,
    pub start: u64,
    pub warmup_end: u64,
    pub traced_from: u64,
    pub end: u64,
}

impl Window {
    pub fn new(args: &Args) -> Window {
        Window::at(
            Instant::now(),
            0,
            warmup_secs(args.seconds),
            args.seconds,
            args.trace,
        )
    }

    /// A window of `seconds` measured after `warmup` seconds, starting
    /// `start` ns after `base` (a run in several segments shares one
    /// base).
    pub fn at(base: Instant, start: u64, warmup: f64, seconds: f64, trace: bool) -> Window {
        let warmup_end = start + secs_ns(warmup);
        let end = warmup_end + secs_ns(seconds);
        let traced_from = if trace {
            warmup_end + secs_ns(seconds / 2.0)
        } else {
            end
        };
        Window {
            base,
            start,
            warmup_end,
            traced_from,
            end,
        }
    }

    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn phase(&self, t: u64) -> Phase {
        if t < self.warmup_end {
            Phase::Warmup
        } else if t < self.traced_from {
            Phase::Measured
        } else if t < self.end {
            Phase::Traced
        } else {
            Phase::Ladder
        }
    }

    /// Sleep the calling (non-client) thread until `t`.
    pub fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// Warm-up before a window of `seconds`.
pub fn warmup_secs(seconds: f64) -> f64 {
    (seconds * 0.15).clamp(0.2, 1.5)
}

pub fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// The frame a correct server sends for `responses`: the bytes reply
/// checks compare.
pub fn expected_frame(result: hrdm_hql::Result<Vec<hrdm_hql::Response>>) -> String {
    match result {
        Ok(rs) => Reply::Ok(render(&rs)).render(),
        Err(e) => Reply::Err {
            kind: e.kind().to_string(),
            message: e.to_string(),
        }
        .render(),
    }
}

/// The frame a server would send for parts an `ExecutorHandle`
/// returned.
pub fn parts_frame(parts: Vec<String>) -> String {
    Reply::Ok(parts).render()
}

/// One closed-loop HRDM/1 client: sends `ops` in order, cycling, each
/// the moment the previous reply lands, until the window ends.
pub fn closed_loop_wire(addr: SocketAddr, conn: u16, ops: &[Op], win: &Window) -> Vec<Rec> {
    let mut client = Client::connect(addr).expect("client connects");
    let mut recs = Vec::new();
    let mut i = 0usize;
    loop {
        let start = win.now();
        if start >= win.end {
            break;
        }
        let k = i % ops.len();
        let reply = client.query(&ops[k].text);
        let end = win.now();
        let Ok(reply) = reply else {
            // The connection is gone: count the request as failed.
            recs.push(Rec {
                conn,
                op: k as u32,
                phase: win.phase(start),
                due: start,
                start,
                end,
                reply: 0,
                ok: false,
                weight: 1,
            });
            return recs;
        };
        recs.push(Rec {
            conn,
            op: k as u32,
            phase: win.phase(start),
            due: start,
            start,
            end,
            reply: digest(reply.render().as_bytes()),
            ok: reply.is_ok(),
            weight: 1,
        });
        i += 1;
    }
    client.quit().expect("client quits");
    recs
}

/// A request due at `due` ns since the window's base.
pub struct Due {
    pub due: u64,
    pub op: u32,
}

/// Open loop over one pipelined connection: a sender thread releases
/// each request at its due time (every overdue request in one write),
/// a receiver thread matches the in-order replies. Returns one record
/// per request; `start` is when the request actually left.
pub fn open_loop_wire(addr: SocketAddr, ops: &[Op], schedule: &[Due], win: &Window) -> Vec<Rec> {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    write_frame(&mut stream, &Request::Hello.render()).expect("HELLO");
    let hello = read_frame(&mut stream)
        .expect("HELLO reply")
        .expect("server answers HELLO");
    assert!(hello.starts_with("OK"), "handshake refused: {hello}");
    let mut reader = stream.try_clone().expect("clone the socket");
    let frames: Vec<String> = ops
        .iter()
        .map(|op| Request::Query(op.text.clone()).render())
        .collect();
    let (sent, replies) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(schedule.len());
            let mut buf = Vec::new();
            let mut k = 0;
            while k < schedule.len() {
                win.sleep_until(schedule[k].due);
                let now = win.now();
                buf.clear();
                while k < schedule.len() && schedule[k].due <= now {
                    encode_frame(&frames[schedule[k].op as usize], &mut buf);
                    sent.push(now);
                    k += 1;
                }
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            sent
        });
        let receiver = s.spawn(|| {
            let mut fr = FrameReader::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut replies: Vec<(u64, u64, bool)> = Vec::with_capacity(schedule.len());
            'replies: while replies.len() < schedule.len() {
                let frame = loop {
                    match fr.next_frame() {
                        Ok(Some(f)) => break f,
                        Ok(None) => {}
                        Err(_) => break 'replies,
                    }
                    match reader.read(&mut chunk) {
                        Ok(0) | Err(_) => break 'replies,
                        Ok(n) => fr.push(&chunk[..n]),
                    }
                };
                let end = win.now();
                let ok = frame.starts_with("OK");
                replies.push((end, digest(frame.as_bytes()), ok));
            }
            replies
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let _ = write_frame(&mut stream, &Request::Quit.render());
    schedule
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let (end, reply, ok) = replies.get(k).copied().unwrap_or((u64::MAX, 0, false));
            Rec {
                conn: 0,
                op: d.op,
                phase: win.phase(d.due),
                due: d.due,
                start: sent.get(k).copied().unwrap_or(d.due),
                end,
                reply,
                ok,
                weight: 1,
            }
        })
        .collect()
}

/// Reply check for workloads whose reads never observe their writes:
/// the expected reply of each distinct script comes from a reference
/// engine built from the same setup script. Writes go to relations no
/// read touches, each connection its own, and alternate ASSERT/RETRACT
/// per item, so a script's reply is the same every time it is sent
/// and the reference executes each distinct script once, in
/// first-sent order.
/// Returns the number of mismatched replies.
pub fn check_against_reference(reference: &Engine, ops: &[Vec<Op>], recs: &[Rec]) -> u64 {
    let mut expected: Vec<HashMap<&str, u64>> = vec![HashMap::new(); ops.len()];
    let mut mismatched = 0;
    for r in recs.iter().filter(|r| r.ok) {
        let text = ops[r.conn as usize][r.op as usize].text.as_str();
        let want = *expected[r.conn as usize]
            .entry(text)
            .or_insert_with(|| digest(expected_frame(reference.execute(text)).as_bytes()));
        if want != r.reply {
            mismatched += 1;
        }
    }
    mismatched
}

/// The registry counters and histograms the per-layer metrics read,
/// as a before/after snapshot.
#[derive(Clone, Default)]
pub struct Counters(HashMap<&'static str, u64>);

const COUNTERS: &[&str] = &[
    "server.loop.tick",
    "server.snapshot.shared_read",
    "server.snapshot.batch",
    "server.busy",
    "server.timeout",
    "server.protocol_error",
    "server.query",
    "server.bytes_in",
    "server.bytes_out",
    "core.subsumption.hits",
    "core.subsumption.misses",
    "batch.memo.hits",
    "batch.memo.misses",
    "hierarchy.closure.hits",
    "hierarchy.closure.misses",
    "hierarchy.closure.evictions",
    "hierarchy.closure.build_ns",
    "ivm.delta_rows",
    "ivm.fallback",
    "ivm.maintained",
    "ivm.nodes_reused",
    "ivm.nodes_recomputed",
    "ivm.nodes_localized",
    "wal.appends",
    "wal.fsyncs",
    "persist.checkpoints",
];

const HISTOGRAMS: &[(&str, &str, &str)] = &[
    (
        "server.loop.ready",
        "server.loop.ready#count",
        "server.loop.ready#sum",
    ),
    (
        "engine.write_wait",
        "engine.write_wait#count",
        "engine.write_wait#sum",
    ),
];

impl Counters {
    pub fn snap() -> Counters {
        let mut m = HashMap::new();
        for &name in COUNTERS {
            m.insert(name, hrdm_obs::metrics::counter(name).get());
        }
        for &(name, count, sum) in HISTOGRAMS {
            let h = hrdm_obs::metrics::histogram(name);
            m.insert(count, h.count());
            m.insert(sum, h.sum_ns());
        }
        Counters(m)
    }

    pub fn delta(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(before.0.get(k).copied().unwrap_or(0))))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `num / den`, 0 when the base is 0.
    pub fn ratio(&self, num: &str, den: &[&str]) -> f64 {
        let d: u64 = den.iter().map(|n| self.get(n)).sum();
        if d == 0 {
            0.0
        } else {
            self.get(num) as f64 / d as f64
        }
    }
}

/// Set the workload up `reps` times from nothing; keep the last one
/// and report the median set-up time.
pub fn setup_median<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up"),
        crate::stats::median_f64(&mut times),
    )
}

/// The tail percentile of each class, fixed per workload: the highest
/// of p99, p98, … that leaves at least ten samples beyond it in a
/// 10-second run at the workload's usual rates.
pub type Tails = [f64; 4];

/// A closed-loop window is cut into this many equal slices; every
/// gated figure is the median of its per-slice values, so a stall that
/// hits one slice moves the figure by at most one rank.
pub const SLICES: usize = 15;

impl Window {
    /// The measured window cut into `n` equal `[from, to)` ranges.
    pub fn slices(&self, n: usize) -> Vec<(u64, u64)> {
        let len = (self.traced_from - self.warmup_end) / n as u64;
        (0..n as u64)
            .map(|k| (self.warmup_end + k * len, self.warmup_end + (k + 1) * len))
            .collect()
    }
}

/// End-to-end metrics over the measured records. The gated ones are
/// medians over `slices` of each slice's own figure (records fall in
/// the slice holding their due time); each class's tail is taken over
/// the whole window.
pub fn end_to_end(
    out: &mut Outcome,
    recs: &[Rec],
    ops_of: &dyn Fn(&Rec) -> Class,
    tails: &Tails,
    slices: &[(u64, u64)],
    setup_s: f64,
) {
    let slice_of = |t: u64| slices.iter().position(|&(from, to)| t >= from && t < to);
    let mut samples: Vec<[Vec<u64>; 4]> = slices.iter().map(|_| Default::default()).collect();
    // Completions per slice, and the first and last completion time.
    let mut done = vec![(0u64, u64::MAX, 0u64); slices.len()];
    for r in recs.iter().filter(|r| r.ok && r.phase == Phase::Measured) {
        if let Some(k) = slice_of(r.due) {
            samples[k][ops_of(r).index()].push(r.latency_ns());
        }
        if let Some(k) = slice_of(r.end) {
            let d = &mut done[k];
            d.0 += u64::from(r.weight);
            d.1 = d.1.min(r.end);
            d.2 = d.2.max(r.end);
        }
    }
    out.metric("setup_s", setup_s, "s");
    for c in CLASSES {
        let mut all: Vec<u64> = Vec::new();
        let mut p50 = Vec::with_capacity(slices.len());
        for slice in &mut samples {
            let v = &mut slice[c.index()];
            v.sort_unstable();
            p50.push(percentile(v, 0.5) as f64 / 1e3);
            all.extend_from_slice(v);
        }
        all.sort_unstable();
        let q = tails[c.index()];
        let rank = (q * all.len().saturating_sub(1) as f64).round() as usize;
        let tail = percentile(&all, q) as f64 / 1e3;
        out.line(format!(
            "{:<7} {:>8} samples; per-slice p50 [{}] us; p{} {tail:.1} us ({} samples beyond it)",
            c.name(),
            all.len(),
            fmt_list(&p50),
            q * 100.0,
            all.len().saturating_sub(rank + 1),
        ));
        out.metric(format!("{}_p50_us", c.name()), median_f64(&mut p50), "us");
        out.ungated(format!("{}_tail_us", c.name()), tail, "us");
    }
    // Throughput between a slice's first and last completion, so an
    // open loop's figure moves with how its replies trail the schedule.
    let mut rates: Vec<f64> = done
        .iter()
        .filter(|d| d.2 > d.1)
        .map(|&(n, first, last)| (n - 1) as f64 / ((last - first) as f64 / 1e9))
        .collect();
    out.metric("ops_per_s", median_f64(&mut rates), "1/s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Count failures and attempts over every checked record.
pub fn tally(out: &mut Outcome, recs: &[Rec]) {
    out.attempted += recs.len() as u64;
    out.failed += recs.iter().filter(|r| !r.ok).count() as u64;
}
