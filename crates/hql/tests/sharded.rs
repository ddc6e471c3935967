//! Sharded-coordinator integration: byte parity with the single
//! engine, renames onto names that hash to another shard, names taken
//! on every shard, the `DROP DOMAIN` in-use guard through the
//! coordinator, and writes racing scatter-gather reads under the epoch
//! floor.

use std::sync::Arc;

use hrdm_hql::{default_shard, Engine, ExecutorHandle, ShardedEngine};

/// Fig. 1-flavored fixture spanning two domains and two relations.
const BOOTSTRAP: &str = "
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Penguin UNDER Bird;
    CREATE INSTANCE Tweety OF Bird;
    CREATE INSTANCE Paul OF Penguin;
    CREATE DOMAIN Color;
    CREATE CLASS Dark UNDER Color;
    CREATE INSTANCE Black OF Dark;
    CREATE RELATION Flies (Creature: Animal);
    ASSERT Flies (ALL Bird);
    ASSERT NOT Flies (ALL Penguin);
    CREATE RELATION Colors (Creature: Animal, Hue: Color);
    ASSERT Colors (ALL Penguin, Black);
";

const READ_SUITE: &str = "
    HOLDS Flies (Tweety);
    HOLDS Flies (Paul);
    SHOW Flies;
    COUNT Flies;
    CHECK Flies;
    WHY Flies (Paul);
    SHOW Colors;
    COUNT Colors BY Creature;
    SHOW DOMAIN Animal;
";

#[test]
fn sharded_coordinator_is_byte_identical_to_the_single_engine() {
    for shards in [1, 2, 4] {
        let single = Engine::new();
        let sharded = ShardedEngine::new(shards);
        let a = single.execute(BOOTSTRAP).unwrap();
        let b = ExecutorHandle::execute(&sharded, BOOTSTRAP).unwrap();
        let rendered: Vec<String> = a.iter().map(ToString::to_string).collect();
        assert_eq!(rendered, b, "write responses diverged at {shards} shards");

        let a = ExecutorHandle::execute_read(&single, READ_SUITE, 0).unwrap();
        let b = sharded.execute_read(READ_SUITE, 0).unwrap();
        assert_eq!(a, b, "read responses diverged at {shards} shards");
    }
}

#[test]
fn statement_errors_keep_their_stable_kinds_through_the_coordinator() {
    let sharded = ShardedEngine::new(3);
    sharded.execute(BOOTSTRAP).unwrap();
    let cases = [
        ("CREATE DOMAIN Animal;", "duplicate"),
        ("CREATE RELATION Flies (X: Animal);", "duplicate"),
        ("SHOW Nothing;", "unknown"),
        ("ASSERT Nothing (Tweety);", "unknown"),
        ("DROP DOMAIN Missing;", "unknown"),
        ("OPEN \"/tmp/nope\";", "unsupported"),
        ("CHECKPOINT;", "unsupported"),
        ("SAVE \"/tmp/nope.img\";", "unsupported"),
        ("HOLDS Flies (Tweety;", "parse"),
    ];
    for (script, kind) in cases {
        let e = sharded.execute(script).unwrap_err();
        assert_eq!(e.kind(), kind, "script {script:?}");
    }
    // A mutating script through the read path is refused up front.
    let e = sharded
        .execute_read("ASSERT Flies (Tweety);", 0)
        .unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    let e = sharded.execute_read(READ_SUITE, u64::MAX).unwrap_err();
    assert_eq!(e.kind(), "stale");
}

/// A relation name whose default placement differs from `from`'s under
/// `shards` shards — guaranteed to exist for any shard count > 1.
fn name_on_another_shard(from: &str, shards: usize) -> String {
    let src = default_shard(from, shards);
    (0..)
        .map(|i| format!("Migrated{i}"))
        .find(|c| default_shard(c, shards) != src)
        .expect("unbounded candidate stream")
}

#[test]
fn rename_migrates_a_relation_across_shards() {
    let shards = 3;
    let sharded = ShardedEngine::new(shards);
    sharded.execute(BOOTSTRAP).unwrap();
    let to = name_on_another_shard("Flies", shards);
    let src = sharded.owner_of("Flies");

    let out = sharded
        .execute(&format!("RENAME RELATION Flies TO {to};"))
        .unwrap();
    assert_eq!(out, vec![format!("relation Flies renamed to {to}")]);
    assert_eq!(sharded.owner_of(&to), src, "the route moves; the rows stay");
    assert_eq!(sharded.route_of("Flies"), None);

    // The renamed relation answers byte-identically to a single
    // engine that performed the same rename.
    let single = Engine::new();
    single.execute(BOOTSTRAP).unwrap();
    single
        .execute(&format!("RENAME RELATION Flies TO {to};"))
        .unwrap();
    let reads =
        format!("HOLDS {to} (Tweety);\nHOLDS {to} (Paul);\nSHOW {to};\nCOUNT {to};\nCHECK {to};");
    let a = ExecutorHandle::execute_read(&single, &reads, 0).unwrap();
    let b = sharded.execute_read(&reads, 0).unwrap();
    assert_eq!(a, b, "migrated relation diverged from the single engine");

    // The old name is gone everywhere.
    let e = sharded.execute_read("SHOW Flies;", 0).unwrap_err();
    assert_eq!(e.kind(), "unknown");
    // Writes keep following the moved relation.
    sharded
        .execute(&format!(
            "CREATE INSTANCE Pia OF Penguin; ASSERT {to} (Pia);"
        ))
        .unwrap();
    let out = sharded
        .execute_read(&format!("HOLDS {to} (Pia);"), 0)
        .unwrap();
    assert!(out[0].ends_with("true"), "{:?}", out[0]);
}

/// A name placed by `LET` on its source's shard is taken on every
/// shard: creating it again, or renaming onto it, is the single
/// engine's `duplicate` error, and exactly one shard holds it.
#[test]
fn names_placed_by_let_are_taken_on_every_shard() {
    let shards = 4;
    let sharded = ShardedEngine::new(shards);
    let single = Engine::new();
    sharded.execute(BOOTSTRAP).unwrap();
    single.execute(BOOTSTRAP).unwrap();
    let home = sharded.owner_of("Flies");
    // A view name that hashes away from its source's shard, and a
    // relation that hashes to the same shard as the view name.
    let view = (0..)
        .map(|i| format!("V{i}"))
        .find(|c| default_shard(c, shards) != home)
        .unwrap();
    let other = (0..)
        .map(|i| format!("Other{i}"))
        .find(|c| default_shard(c, shards) == default_shard(&view, shards))
        .unwrap();
    let setup = format!(
        "LET {view} = SELECT Flies WHERE Creature IS ALL Bird;\
         CREATE RELATION {other} (Creature: Animal);"
    );
    assert_eq!(
        ExecutorHandle::execute(&single, &setup).unwrap(),
        sharded.execute(&setup).unwrap()
    );
    assert_eq!(
        sharded.owner_of(&view),
        home,
        "LET colocates with its source"
    );

    for script in [
        format!("CREATE RELATION {view} (Creature: Animal);"),
        format!("RENAME RELATION {other} TO {view};"),
    ] {
        let expected = ExecutorHandle::execute(&single, &script).unwrap_err();
        assert_eq!(expected.kind(), "duplicate", "{script}");
        assert_eq!(sharded.execute(&script).unwrap_err(), expected, "{script}");
    }
    let holders = sharded
        .shards()
        .iter()
        .filter(|shard| shard.snapshot().relation(&view).is_ok())
        .count();
    assert_eq!(holders, 1, "exactly one shard holds {view}");
    let reads = format!("SHOW {view}; SHOW {other};");
    assert_eq!(
        ExecutorHandle::execute_read(&single, &reads, 0).unwrap(),
        sharded.execute_read(&reads, 0).unwrap()
    );
}

#[test]
fn rename_to_an_existing_name_fails_without_losing_the_source() {
    let shards = 4;
    let sharded = ShardedEngine::new(shards);
    sharded.execute(BOOTSTRAP).unwrap();
    let e = sharded
        .execute("RENAME RELATION Flies TO Colors;")
        .unwrap_err();
    assert_eq!(e.kind(), "duplicate");
    // Both relations still answer.
    sharded
        .execute_read("COUNT Flies; COUNT Colors;", 0)
        .unwrap();
}

#[test]
fn drop_domain_in_use_guard_sees_every_shard() {
    let shards = 4;
    let sharded = ShardedEngine::new(shards);
    sharded.execute(BOOTSTRAP).unwrap();

    // Color is referenced only by Colors, wherever that shard is.
    let e = sharded.execute("DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use");
    assert!(e.message().contains("Colors"), "{}", e.message());
    // The failed probe must not have half-dropped the domain anywhere.
    for shard in sharded.shards() {
        shard.execute("SHOW DOMAIN Color;").unwrap();
    }

    sharded.execute("DROP RELATION Colors;").unwrap();
    let out = sharded.execute("DROP DOMAIN Color;").unwrap();
    assert_eq!(out, vec!["domain Color dropped".to_string()]);
    // And now it is gone from every shard.
    for shard in sharded.shards() {
        assert!(shard.execute("SHOW DOMAIN Color;").is_err());
    }
}

/// Extract `n` from `"<rel> has <n> atom(s) in its extension"`.
fn count_of(rendered: &str) -> u64 {
    rendered
        .split_whitespace()
        .nth(2)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable COUNT response {rendered:?}"))
}

#[test]
fn writes_racing_scatter_gather_reads_respect_the_epoch_floor() {
    let sharded = Arc::new(ShardedEngine::new(4));
    sharded.execute(BOOTSTRAP).unwrap();
    let baseline = count_of(&sharded.execute_read("COUNT Flies;", 0).unwrap()[0]);

    const WRITES: u64 = 40;
    let writer = {
        let sharded = Arc::clone(&sharded);
        std::thread::spawn(move || {
            for i in 0..WRITES {
                // A broadcast DDL write and a routed row write per turn.
                sharded
                    .execute(&format!(
                        "CREATE INSTANCE Racer{i} OF Bird; ASSERT Flies (Racer{i});"
                    ))
                    .unwrap();
            }
        })
    };

    // Racing reader: every read pinned at the coordinator's current
    // epoch must observe a cardinality at least as large as any earlier
    // pinned read — the floor forbids going back in time.
    let mut last = baseline;
    loop {
        let epoch = sharded.last_epoch().unwrap();
        let out = sharded.execute_read("COUNT Flies;", epoch).unwrap();
        let n = count_of(&out[0]);
        assert!(n >= last, "cardinality went backwards: {n} < {last}");
        last = n;
        if n >= baseline + WRITES {
            break;
        }
        std::thread::yield_now();
    }
    writer.join().unwrap();

    // Program order through the coordinator: a write followed by a
    // floor-pinned read always observes itself.
    sharded
        .execute("CREATE INSTANCE Last OF Penguin; ASSERT NOT Flies (Last);")
        .unwrap();
    let epoch = sharded.last_epoch().unwrap();
    let out = sharded.execute_read("HOLDS Flies (Last);", epoch).unwrap();
    assert!(out[0].ends_with("false"), "{:?}", out[0]);
}

#[test]
fn let_views_colocate_and_cross_shard_derivations_are_refused() {
    let shards = 4;
    let sharded = ShardedEngine::new(shards);
    sharded.execute(BOOTSTRAP).unwrap();

    // A view over one source lands on that source's shard.
    sharded
        .execute("LET Grounded = DIFFERENCE Flies Flies;")
        .unwrap();
    assert_eq!(
        sharded.route_of("Grounded"),
        Some(sharded.owner_of("Flies"))
    );
    let single = Engine::new();
    single.execute(BOOTSTRAP).unwrap();
    single
        .execute("LET Grounded = DIFFERENCE Flies Flies;")
        .unwrap();
    assert_eq!(
        ExecutorHandle::execute_read(&single, "SHOW Grounded;", 0).unwrap(),
        sharded.execute_read("SHOW Grounded;", 0).unwrap()
    );

    // Find two relations the hash separates, then ask for a join.
    let other = name_on_another_shard("Flies", shards);
    sharded
        .execute(&format!("CREATE RELATION {other} (Creature: Animal);"))
        .unwrap();
    let e = sharded
        .execute(&format!("LET Wide = JOIN Flies {other};"))
        .unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    assert!(
        sharded.route_of("Wide").is_none(),
        "failed LET left a route"
    );
}

#[test]
fn probe_reports_the_coordinator_epoch_shape() {
    let sharded = ShardedEngine::new(2);
    sharded.execute(BOOTSTRAP).unwrap();
    let probe = sharded.probe().unwrap();
    let first = probe.lines().next().unwrap();
    let epoch: u64 = first.strip_prefix("epoch: ").unwrap().parse().unwrap();
    assert_eq!(epoch, sharded.last_epoch().unwrap());
    assert!(probe.contains("shards: 2"));
    assert!(probe.contains("shard-0-epoch: "));
    assert!(probe.contains("shard-1-epoch: "));
}
