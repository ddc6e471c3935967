//! The traced run's per-layer metrics. Every workload reports the same
//! list; a layer a workload never crosses reads 0. Counter ratios are
//! followed by their base.

use crate::harness::Counters;
use crate::stats::{Class, Outcome};
use crate::trace::Summary;

const ALL: &[Class] = &[Class::Point, Class::Scan, Class::Derive, Class::Write];
const READS: &[Class] = &[Class::Point, Class::Scan];

/// What the traced run measured besides its spans.
pub struct LayerInputs<'a> {
    pub summary: &'a Summary,
    /// The root span's name: `server.request` over HRDM/1,
    /// `handle.request` through the in-process coordinator's
    /// `ExecutorHandle`.
    pub root: &'static str,
    /// Program counters over the traced window.
    pub counters: &'a Counters,
    /// Requests that mutate (writes and derives) in the traced window.
    pub mutating: u64,
    /// Rows per replayed derivation.
    pub rows: &'a [u64],
    /// Derivations whose chosen plan changed between warm-up and the end.
    pub plan_flips: u64,
    /// (traced − untraced) / untraced point p50.
    pub trace_overhead: f64,
    /// Store-directory growth over acknowledged statement bytes.
    pub bytes_per_user_byte: f64,
    pub extra: &'a Extra,
}

/// Per-layer figures a workload measures outside the replay.
#[derive(Default)]
pub struct Extra {
    /// p50 of the open-loop generator's lateness, µs (0 in a closed loop).
    pub gen_lag_us: f64,
    /// Mean `World::to_image` plus encode of the live snapshot, µs.
    pub image_us: f64,
    pub records_replayed: u64,
    /// Max over mean ops per shard.
    pub shard_skew: f64,
}

pub fn per_layer(out: &mut Outcome, i: &LayerInputs) {
    let s = i.summary;
    let c = i.counters;
    let wire = i.root == "server.request";
    let wire_or_0 = |v: f64| if wire { v } else { 0.0 };
    let per_mut = |name: &str| {
        if i.mutating == 0 {
            0.0
        } else {
            c.get(name) as f64 / i.mutating as f64
        }
    };

    out.metric(
        "server.rtt_us",
        wire_or_0(s.mean_us(i.root, &[Class::Point])),
        "us",
    );
    out.metric(
        "server.self_us",
        wire_or_0(s.mean_self_us(i.root, &[Class::Point])),
        "us",
    );
    out.metric(
        "server.ready_per_tick",
        c.ratio("server.loop.ready#sum", &["server.loop.tick"]),
        "ratio",
    );
    out.metric(
        "server.loop_ticks",
        c.get("server.loop.tick") as f64,
        "count",
    );
    out.metric(
        "server.shared_read_ratio",
        c.ratio("server.snapshot.shared_read", &["server.query"]),
        "ratio",
    );
    out.metric("server.queries", c.get("server.query") as f64, "count");
    out.metric("server.busy", c.get("server.busy") as f64, "count");
    out.metric("server.timeout", c.get("server.timeout") as f64, "count");
    out.metric(
        "server.protocol_error",
        c.get("server.protocol_error") as f64,
        "count",
    );

    out.metric("proto.encode_us", s.mean_us("proto.encode", ALL), "us");
    out.metric("proto.decode_us", s.mean_us("proto.decode", ALL), "us");
    let bytes = c.get("server.bytes_in") + c.get("server.bytes_out");
    let queries = c.get("server.query");
    out.metric(
        "proto.bytes_per_op",
        if queries == 0 {
            0.0
        } else {
            bytes as f64 / queries as f64
        },
        "bytes",
    );

    out.metric("hql.parse_us", s.mean_us("hql.parse", ALL), "us");
    out.metric("hql.snapshot_us", s.mean_us("hql.snapshot", READS), "us");
    out.metric(
        "hql.exec_us.point",
        s.mean_us("hql.exec", &[Class::Point]),
        "us",
    );
    out.metric(
        "hql.exec_us.scan",
        s.mean_us("hql.exec", &[Class::Scan]),
        "us",
    );
    out.metric("hql.render_us", s.mean_us("hql.render", READS), "us");
    out.metric(
        "hql.world_clone_us",
        s.mean_us("hql.world_clone", ALL),
        "us",
    );
    out.metric(
        "hql.write_us.plain",
        s.mean_us("hql.write.plain", ALL),
        "us",
    );
    out.metric("hql.write_us.view", s.mean_us("hql.write.view", ALL), "us");
    out.metric(
        "hql.write_us.derive",
        s.mean_us("hql.write.derive", ALL),
        "us",
    );
    out.metric(
        "engine.write_wait_us",
        c.ratio("engine.write_wait#sum", &["engine.write_wait#count"]) / 1e3,
        "us",
    );

    out.metric("core.bind_us", s.mean_us("core.bind", ALL), "us");
    out.metric("core.justify_us", s.mean_us("core.justify", ALL), "us");
    out.metric("core.conflict_us", s.mean_us("core.conflict", ALL), "us");
    out.metric("core.count_us", s.mean_us("core.count", ALL), "us");
    out.metric("core.explicate_us", s.mean_us("core.explicate", ALL), "us");
    out.metric(
        "core.consolidate_us",
        s.mean_us("core.batch.consolidate", ALL),
        "us",
    );
    out.metric("core.optimize_us", s.mean_us("core.optimize", ALL), "us");
    out.metric("core.batch_us", s.mean_us("core.batch", ALL), "us");
    out.metric(
        "core.rows_per_result",
        if i.rows.is_empty() {
            0.0
        } else {
            i.rows.iter().sum::<u64>() as f64 / i.rows.len() as f64
        },
        "rows",
    );
    let hit_ratio = |out: &mut Outcome, name: &str, hits: &'static str, misses: &'static str| {
        out.metric(
            format!("{name}.hit_ratio"),
            c.ratio(hits, &[hits, misses]),
            "ratio",
        );
        out.metric(
            format!("{name}.lookups"),
            (c.get(hits) + c.get(misses)) as f64,
            "count",
        );
    };
    hit_ratio(
        out,
        "core.subsumption",
        "core.subsumption.hits",
        "core.subsumption.misses",
    );
    hit_ratio(out, "batch.memo", "batch.memo.hits", "batch.memo.misses");
    hit_ratio(
        out,
        "hierarchy.closure",
        "hierarchy.closure.hits",
        "hierarchy.closure.misses",
    );
    out.metric(
        "hierarchy.closure.build_us",
        c.get("hierarchy.closure.build_ns") as f64 / 1e3,
        "us",
    );
    out.metric(
        "hierarchy.closure.evictions",
        c.get("hierarchy.closure.evictions") as f64,
        "count",
    );

    out.metric(
        "ivm.delta_rows_per_write",
        per_mut("ivm.delta_rows"),
        "rows",
    );
    out.metric(
        "ivm.fallback_ratio",
        c.ratio("ivm.fallback", &["ivm.maintained"]),
        "ratio",
    );
    out.metric(
        "ivm.nodes_reused_ratio",
        c.ratio(
            "ivm.nodes_reused",
            &[
                "ivm.nodes_reused",
                "ivm.nodes_recomputed",
                "ivm.nodes_localized",
            ],
        ),
        "ratio",
    );
    out.metric("ivm.maintained", c.get("ivm.maintained") as f64, "count");

    out.metric("wal.appends_per_write", per_mut("wal.appends"), "ratio");
    out.metric("wal.fsyncs_per_write", per_mut("wal.fsyncs"), "ratio");
    out.metric(
        "persist.checkpoints_per_write",
        per_mut("persist.checkpoints"),
        "ratio",
    );
    out.metric(
        "persist.bytes_per_user_byte",
        i.bytes_per_user_byte,
        "ratio",
    );
    out.metric("persist.image_us", i.extra.image_us, "us");
    out.metric(
        "recover.records_replayed",
        i.extra.records_replayed as f64,
        "count",
    );

    out.metric("shard.route_us", s.mean_self_us("shard.route", READS), "us");
    out.metric("shard.skew", i.extra.shard_skew, "ratio");

    for layer in ["proto", "hql", "core", "persist", "shard"] {
        out.metric(
            format!("self_us.{layer}"),
            s.layer_self_per_request_us(layer, ALL),
            "us",
        );
    }
    out.metric("unattributed_us", s.mean_self_us(i.root, ALL), "us");
    out.metric("bench.traced_requests", s.requests() as f64, "count");
    out.metric("bench.mutating_requests", i.mutating as f64, "count");
    out.metric("bench.gen_lag_us", i.extra.gen_lag_us, "us");
    out.metric("bench.trace_overhead", i.trace_overhead, "ratio");
    out.metric("bench.plan_flips", i.plan_flips as f64, "count");
}
