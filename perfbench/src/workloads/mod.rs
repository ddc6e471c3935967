//! The four workloads.

mod durable_mixed;
mod serve_point;
mod sharded_mix;
mod taxonomy_query;

use crate::harness::Args;
use crate::stats::{Class, Op, Outcome, Rng};

pub struct Workload {
    pub name: &'static str,
    pub client_threads: usize,
    pub connections: usize,
    pub run: fn(&Args) -> Outcome,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_point",
        client_threads: 2,
        connections: 1,
        run: serve_point::run,
    },
    Workload {
        name: "taxonomy_query",
        client_threads: 2,
        connections: 2,
        run: taxonomy_query::run,
    },
    Workload {
        name: "durable_mixed",
        client_threads: 2,
        connections: 2,
        run: durable_mixed::run,
    },
    Workload {
        name: "sharded_mix",
        client_threads: 2,
        connections: 0,
        run: sharded_mix::run,
    },
];

pub const NAMES: [&str; 4] = [
    WORKLOADS[0].name,
    WORKLOADS[1].name,
    WORKLOADS[2].name,
    WORKLOADS[3].name,
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One cycle's ingredients: statements per class, and the items the
/// cycle's writes toggle.
pub struct Cycle {
    pub reads_and_derives: Vec<Op>,
    /// `(assert, retract)` script pairs; each cycle asserts every item
    /// and retracts it again later in the same cycle, so the write
    /// targets are back where they started when the op list repeats.
    pub write_pairs: Vec<(String, String)>,
}

/// Shuffle a cycle into an op sequence. Write slots are filled in
/// order — all asserts, then all retracts — so every item is asserted
/// before it is retracted.
pub fn shuffle_cycle(rng: &mut Rng, cycle: Cycle) -> Vec<Op> {
    let writes = 2 * cycle.write_pairs.len();
    let mut slots: Vec<Option<Op>> = cycle.reads_and_derives.into_iter().map(Some).collect();
    slots.extend((0..writes).map(|_| None));
    rng.shuffle(&mut slots);
    let mut scripts = cycle
        .write_pairs
        .iter()
        .map(|(a, _)| a.clone())
        .chain(cycle.write_pairs.iter().map(|(_, r)| r.clone()));
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Op::new(Class::Write, scripts.next().expect("one script per slot"))
            })
        })
        .collect()
}
