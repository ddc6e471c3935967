//! Location transparency over a real socket: the same program runs
//! unchanged against an embedded [`Engine`], a [`Client`] speaking
//! `HRDM/1` to a server, and a [`WireRouter`] fronting N shard servers
//! — all through [`ExecutorHandle`] — and every rendered byte agrees.
//! The coordinator's edge cases run through one generic driver against
//! both of its instantiations, `Coordinator<Engine>` and
//! `Coordinator<Client>`.

use std::time::Duration;

use hrdm::hql::{default_shard, Coordinator, ExecResult, ExecutorHandle, ShardedEngine};
use hrdm::prelude::Engine;
use hrdm_server::{Client, Server, ServerConfig, ServerHandle, WireRouter};

fn start() -> ServerHandle {
    Server::start(
        Engine::new(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

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

const READS: &str = "
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

/// Drive one backend through the trait alone and return every rendered
/// response, writes then reads.
fn drive(handle: &dyn ExecutorHandle) -> Vec<String> {
    let mut out = handle.execute(BOOTSTRAP).unwrap();
    let epoch = handle.last_epoch().unwrap();
    out.extend(handle.execute_read(READS, epoch).unwrap());
    // Every backend leads its probe with the epoch line.
    let probe = handle.probe().unwrap();
    assert!(probe.starts_with("epoch: "), "{probe:?}");
    out
}

#[test]
fn every_backend_renders_byte_identically_through_the_trait() {
    let embedded = Engine::new();

    let server = start();
    let wire = Client::connect(server.addr()).unwrap();

    let sharded = ShardedEngine::new(4);

    let shard_servers: Vec<ServerHandle> = (0..3).map(|_| start()).collect();
    let router = connect(&shard_servers);

    let reference = drive(&embedded);
    assert_eq!(reference, drive(&wire), "wire client diverged");
    assert_eq!(
        reference,
        drive(&sharded),
        "in-process coordinator diverged"
    );
    assert_eq!(reference, drive(&router), "wire router diverged");

    server.shutdown();
    for s in shard_servers {
        s.shutdown();
    }
}

#[test]
fn wire_client_enforces_the_read_contract() {
    let server = start();
    let client = Client::connect(server.addr()).unwrap();
    client.execute("CREATE DOMAIN D;").unwrap();

    // A mutating statement through the read path is refused before it
    // ever reaches the socket.
    let e = client.execute_read("CREATE DOMAIN E;", 0).unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    // An unreachable epoch floor reports stale rather than hanging.
    let e = client.execute_read("SHOW DOMAIN D;", u64::MAX).unwrap_err();
    assert_eq!(e.kind(), "stale");
    // Server-side error kinds pass through unchanged.
    let e = client.execute("SHOW Nothing;").unwrap_err();
    assert_eq!(e.kind(), "unknown");
    // A satisfied floor serves the read.
    let epoch = client.last_epoch().unwrap();
    client.execute_read("SHOW DOMAIN D;", epoch).unwrap();

    server.shutdown();
}

#[test]
fn wire_router_guards_mirror_the_in_process_coordinator() {
    let shard_servers: Vec<ServerHandle> = (0..4).map(|_| start()).collect();
    let router = connect(&shard_servers);
    let single = Engine::new();
    router.execute(BOOTSTRAP).unwrap();
    single.execute(BOOTSTRAP).unwrap();

    // DROP DOMAIN is guarded by every shard's relations, read back.
    let e = router.execute("DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use");
    router.execute("DROP RELATION Colors;").unwrap();
    router.execute("DROP DOMAIN Color;").unwrap();
    single
        .execute("DROP RELATION Colors; DROP DOMAIN Color;")
        .unwrap();

    // A rename onto a name that hashes to another shard runs where the
    // relation lives and answers like the single engine.
    let to = (0..)
        .map(|i| format!("Migrated{i}"))
        .find(|c| hrdm::hql::default_shard(c, 4) != hrdm::hql::default_shard("Flies", 4))
        .unwrap();
    let rename = format!("RENAME RELATION Flies TO {to};");
    assert_eq!(
        router.execute(&rename).unwrap(),
        ExecutorHandle::execute(&single, &rename).unwrap()
    );
    let reads = format!("HOLDS {to} (Tweety); HOLDS {to} (Paul); SHOW {to}; SHOW RELATIONS;");
    assert_eq!(
        router.execute_read(&reads, 0).unwrap(),
        ExecutorHandle::execute_read(&single, &reads, 0).unwrap()
    );

    // Same-shard renames route through and update placement.
    let same = (0..)
        .map(|i| format!("Renamed{i}"))
        .find(|c| hrdm::hql::default_shard(c, 4) == hrdm::hql::default_shard("Flies", 4))
        .unwrap();
    router
        .execute(&format!("RENAME RELATION {to} TO {same};"))
        .unwrap();
    assert_eq!(router.owner_of(&same), hrdm::hql::default_shard("Flies", 4));
    let out = router
        .execute_read(&format!("HOLDS {same} (Tweety);"), 0)
        .unwrap();
    assert!(out[0].ends_with("true"), "{:?}", out[0]);

    for s in shard_servers {
        s.shutdown();
    }
}

/// A router over one fresh connection per shard server, its placement
/// read back from the shards.
fn connect(servers: &[ServerHandle]) -> WireRouter {
    WireRouter::over(
        servers
            .iter()
            .map(|s| Client::connect(s.addr()).unwrap())
            .collect(),
    )
    .unwrap()
}

/// The first `{prefix}{i}` whose default placement over `shards`
/// satisfies `wanted`.
fn name_where(prefix: &str, shards: usize, wanted: impl Fn(usize) -> bool) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|c| wanted(default_shard(c, shards)))
        .expect("unbounded candidate stream")
}

/// Run `script` on the coordinator and on a single engine; the rendered
/// responses — or the errors, kind and message — must be byte-equal.
fn same<S: ExecutorHandle>(
    c: &Coordinator<S>,
    single: &Engine,
    script: &str,
) -> ExecResult<Vec<String>> {
    let out = c.execute(script);
    assert_eq!(out, ExecutorHandle::execute(single, script), "{script}");
    out
}

/// How many shards answer `script` without an error.
fn shards_answering<S: ExecutorHandle>(c: &Coordinator<S>, script: &str) -> usize {
    c.shards()
        .iter()
        .filter(|shard| shard.execute_read(script, 0).is_ok())
        .count()
}

/// The coordinator's edge cases, byte-compared with a single engine:
/// LET colocation and refusal, renames onto names hashing to another
/// shard (a live view included), duplicate names, the in-use guard, the
/// merged relation listing, and the shape of `probe`.
fn edge_cases<S: ExecutorHandle>(c: &Coordinator<S>) {
    let single = Engine::new();
    let n = c.shards().len();
    same(c, &single, BOOTSTRAP).unwrap();
    let home = c.owner_of("Flies");

    // A view over one source lands on that source's shard...
    same(
        c,
        &single,
        "LET Grounded = SELECT Flies WHERE Creature IS ALL Penguin;",
    )
    .unwrap();
    assert_eq!(c.route_of("Grounded"), Some(home));
    // ...and a derivation over two shards is refused, leaving no route.
    let apart = name_where("Apart", n, |k| k != home);
    same(
        c,
        &single,
        &format!("CREATE RELATION {apart} (Creature: Animal);"),
    )
    .unwrap();
    let e = c
        .execute(&format!("LET Wide = JOIN Flies {apart};"))
        .unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    assert_eq!(c.route_of("Wide"), None, "failed LET left a route");

    // Renames run where the relation lives, whatever the new name
    // hashes to: the live view first (renaming detaches it), then its
    // source. Writes and reads follow the moved routes.
    let view = name_where("Detached", n, |k| k != home);
    let moved = name_where("Migrated", n, |k| k != home);
    same(c, &single, &format!("RENAME RELATION Grounded TO {view};")).unwrap();
    same(c, &single, &format!("RENAME RELATION Flies TO {moved};")).unwrap();
    assert_eq!(c.owner_of(&view), home);
    assert_eq!(c.owner_of(&moved), home);
    assert_eq!(c.route_of("Flies"), None);
    same(
        c,
        &single,
        &format!("CREATE INSTANCE Pia OF Penguin; ASSERT {moved} (Pia);"),
    )
    .unwrap();
    same(
        c,
        &single,
        &format!("HOLDS {moved} (Pia); HOLDS {moved} (Tweety); SHOW {moved}; SHOW {view};"),
    )
    .unwrap();

    // A name placed by LET is taken on every shard.
    let taken = name_where("V", n, |k| k != home);
    let other = name_where("Other", n, |k| k == default_shard(&taken, n));
    same(
        c,
        &single,
        &format!(
            "LET {taken} = SELECT {moved} WHERE Creature IS ALL Bird;\
             CREATE RELATION {other} (Creature: Animal);"
        ),
    )
    .unwrap();
    for script in [
        format!("CREATE RELATION {taken} (Creature: Animal);"),
        format!("RENAME RELATION {other} TO {taken};"),
        format!("LET {taken} = SELECT {other} WHERE Creature IS ALL Bird;"),
    ] {
        let e = same(c, &single, &script).unwrap_err();
        assert_eq!(e.kind(), "duplicate", "{script}");
    }
    assert_eq!(shards_answering(c, &format!("SHOW {taken};")), 1);

    // The in-use guard sees every shard and leaves every shard intact.
    let e = same(c, &single, "DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use");
    assert_eq!(shards_answering(c, "SHOW DOMAIN Color;"), n);
    same(c, &single, "DROP RELATION Colors; DROP DOMAIN Color;").unwrap();
    assert_eq!(shards_answering(c, "SHOW DOMAIN Color;"), 0);

    // The relation listing gathers every shard's, in name order.
    same(c, &single, "SHOW RELATIONS;").unwrap();

    // Probe: the summed epoch first, one line per shard, the routes.
    let probe = c.probe().unwrap();
    let epoch: u64 = probe
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("epoch: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(epoch, c.last_epoch().unwrap());
    assert!(probe.contains(&format!("\nshards: {n}\n")), "{probe}");
    for k in 0..n {
        assert!(probe.contains(&format!("\nshard-{k}-epoch: ")), "{probe}");
    }
    let relations = single.snapshot().relation_count();
    assert!(
        probe.ends_with(&format!("\nrouted-relations: {relations}")),
        "{probe}"
    );
}

#[test]
fn coordinator_edge_cases_agree_on_every_backend() {
    edge_cases(&ShardedEngine::new(4));

    let servers: Vec<ServerHandle> = (0..4).map(|_| start()).collect();
    edge_cases(&connect(&servers));
    for s in servers {
        s.shutdown();
    }
}

/// A coordinator built over shards that already hold data reads their
/// placement back: the in-use guard, LET, HOLDS and RENAME behave as
/// they did through the coordinator that wrote the data.
fn restarted<S: ExecutorHandle>(first: &Coordinator<S>, restart: impl FnOnce() -> Coordinator<S>) {
    let single = Engine::new();
    let n = first.shards().len();
    same(first, &single, BOOTSTRAP).unwrap();
    // Placements the name hash does not predict: a view on its
    // source's shard, and a relation renamed onto another shard's name.
    let home = first.owner_of("Flies");
    let view = name_where("View", n, |k| k != home);
    let renamed = name_where("Hues", n, |k| k != first.owner_of("Colors"));
    same(
        first,
        &single,
        &format!(
            "LET {view} = SELECT Flies WHERE Creature IS ALL Bird;\
             RENAME RELATION Colors TO {renamed};"
        ),
    )
    .unwrap();

    let c = restart();
    for name in ["Flies", view.as_str(), renamed.as_str()] {
        assert_eq!(c.route_of(name), first.route_of(name), "{name}");
    }
    let e = same(&c, &single, "DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use");
    assert_eq!(shards_answering(&c, "SHOW DOMAIN Color;"), n);
    same(
        &c,
        &single,
        &format!("HOLDS {view} (Tweety); HOLDS {view} (Paul); HOLDS {renamed} (Paul, Black);"),
    )
    .unwrap();
    let again = name_where("Again", n, |k| k != home);
    same(&c, &single, &format!("RENAME RELATION {view} TO {again};")).unwrap();
    assert_eq!(c.owner_of(&again), home);
    let derived = name_where("Derived", n, |k| k != home);
    same(
        &c,
        &single,
        &format!("LET {derived} = SELECT {again} WHERE Creature IS ALL Penguin;"),
    )
    .unwrap();
    assert_eq!(c.owner_of(&derived), home);
    same(
        &c,
        &single,
        &format!("SHOW {again}; SHOW {derived}; SHOW RELATIONS;"),
    )
    .unwrap();
}

#[test]
fn a_restarted_coordinator_routes_by_what_the_shards_hold() {
    let sharded = ShardedEngine::new(4);
    restarted(&sharded, || {
        Coordinator::over(sharded.shards().to_vec()).unwrap()
    });

    let servers: Vec<ServerHandle> = (0..4).map(|_| start()).collect();
    restarted(&connect(&servers), || connect(&servers));
    for s in servers {
        s.shutdown();
    }
}
