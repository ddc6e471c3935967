//! Samples, percentiles and the result line.

use std::fmt::Write as _;

/// The four op classes every workload sends.
///
/// * `Point` — HOLDS / HOLDS3 / WHY;
/// * `Scan` — COUNT / CHECK / SHOW;
/// * `Derive` — one `LET … ; DROP RELATION …;` request;
/// * `Write` — one ASSERT or RETRACT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Scan,
    Derive,
    Write,
}

pub const CLASSES: [Class; 4] = [Class::Point, Class::Scan, Class::Derive, Class::Write];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Scan => "scan",
            Class::Derive => "derive",
            Class::Write => "write",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One statement script a workload sends, with its class.
#[derive(Clone, Debug)]
pub struct Op {
    pub text: String,
    pub class: Class,
}

impl Op {
    pub fn new(class: Class, text: impl Into<String>) -> Op {
        Op {
            text: text.into(),
            class,
        }
    }
}

/// Which part of a run an op was sent in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before the measured window; checked, never timed.
    Warmup,
    /// The measured window (the untraced half of a traced run).
    Measured,
    /// The traced half of a traced run.
    Traced,
    /// After the window (the open-loop rate ladder).
    Ladder,
}

/// One completed request as the client saw it. Times are nanoseconds
/// since the run's base instant; `due` is the scheduled send time of
/// an open-loop request and equals `start` in a closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    pub conn: u16,
    pub op: u32,
    pub phase: Phase,
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub reply: u64,
    pub ok: bool,
    /// Requests this record stands for (a sampled read stands for the
    /// unrecorded ones around it).
    pub weight: u32,
}

impl Rec {
    /// Latency as the user sees it: from the due time to the reply.
    pub fn latency_ns(&self) -> u64 {
        self.end.saturating_sub(self.due)
    }
}

/// FNV-1a over a reply's bytes: replies are compared by digest so a
/// run keeps one word per request instead of every reply body.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile over sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A metric for the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run plus the correctness verdict.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Figures printed with the report but left out of the result line:
    /// their run-to-run spread on a shared 2-CPU VM is wider than any
    /// bound a gate could hold them to.
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    /// Human-readable report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn ungated(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.ungated.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched == 0
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed + self.mismatched
        )
        .expect("string write");
        for (k, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if k == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            )
            .expect("string write");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// SplitMix64: the workload generator's seeded source of choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.below(k + 1));
        }
    }
}
