//! `perfbench` — the repository's benchmark: four workloads over the
//! serving, query, durable-write and shard paths of HRDM.
//!
//! ```text
//! perfbench --workload <serve_point|taxonomy_query|durable_mixed|sharded_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run starts from cleared shared caches, sets its world up
//! several times (reporting the median as `setup_s`), warms up, then
//! measures for `--seconds`. Every reply is checked. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Lines before it are the human-readable report.

mod harness;
mod layers;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use harness::Args;

/// Client threads and client connections a workload may use: the
/// load generator shares the machine with the server it drives.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let usage = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    let args = Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads::find(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let cpus = nproc();
    assert!(
        workload.client_threads <= cpus && workload.connections <= cpus,
        "{}: {} client threads and {} connections exceed nproc = {cpus}",
        args.workload,
        workload.client_threads,
        workload.connections,
    );
    hrdm_bench::fixtures::clear_shared_caches();
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {cpus}, server workers {}, \
         client threads {}, connections {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run::SERVER_WORKERS,
        workload.client_threads,
        workload.connections,
    );
    let outcome = (workload.run)(&args);
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("not gated:");
    let fail_share = (outcome.failed + outcome.mismatched) as f64 / outcome.attempted.max(1) as f64;
    for m in outcome
        .ungated
        .iter()
        .chain(std::iter::once(&stats::Metric {
            name: "fail_share".into(),
            value: fail_share,
            unit: "ratio",
        }))
    {
        println!("{:<32} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {} mismatched {}",
        outcome.attempted, outcome.failed, outcome.mismatched
    );
    println!("{}", outcome.result_json());
}
