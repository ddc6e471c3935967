//! One shard coordinator for every backend.
//!
//! A [`Coordinator`] hash-partitions one logical catalog by **relation
//! name** ([`default_shard`]) across N shards that are themselves
//! [`ExecutorHandle`]s: in-process engines ([`ShardedEngine`]) or
//! `HRDM/1` connections to shard servers (`hrdm_server::WireRouter`).
//! Domain hierarchies are replicated to every shard (domain DDL —
//! `CREATE DOMAIN`/`CLASS`/`INSTANCE`, `PREFER`, `DROP DOMAIN` —
//! broadcasts), so the name partition never splits a domain's
//! subsumption structure and a relation's inheritance and exceptions
//! resolve entirely on the one shard that holds it.
//!
//! * **A relation lives on the shard that created or derived it.**
//!   [`Coordinator::owner_of`] is a name's route if it has one, its hash
//!   otherwise, and every statement naming a relation goes through it —
//!   `CREATE RELATION`, the target of `LET` and the target of `RENAME`
//!   included. A name already held by one shard is therefore rejected
//!   with the `duplicate` error a single engine gives. `RENAME` runs on
//!   the owning shard and moves the route; rows never move.
//! * **`LET`, `EXPLAIN` and `TRACE`** run on the one shard holding all
//!   of their sources; derivations spanning shards report
//!   `"unsupported"`.
//! * **Placement is read back from the shards.** [`Coordinator::over`]
//!   fills the route table from each shard's `SHOW RELATIONS`, and the
//!   `DROP DOMAIN` in-use guard reads every shard's listing again under
//!   the DDL lock — so a coordinator started over populated shards
//!   routes and guards exactly like the one that populated them.
//! * **Errors keep their stable kinds**: a shard's error crosses
//!   unchanged, and the coordinator's own refusals are the single
//!   engine's errors (`duplicate`, `in-use`) or `"unsupported"`.
//!
//! Ordering needs no bookkeeping: an engine shard publishes each write
//! before [`Engine::execute_statement`] returns, and a wire shard takes
//! all of its statements in order down one connection, so a read that
//! follows a write through the coordinator always observes it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, RwLock};

use hrdm_core::prelude::CoreError;

use crate::ast::{Derivation, Source, Statement};
use crate::engine::Engine;
use crate::error::HqlError;
use crate::executor::{ExecError, ExecResult, ExecutorHandle};
use crate::parser::parse;

/// The default placement of a relation name: FNV-1a over the name,
/// modulo the shard count. Route-table entries (relations the shards
/// hold) override it.
pub fn default_shard(relation: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in relation.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The relation a statement is scoped to, when it names exactly one
/// (derivation-bearing statements route by their source set instead).
pub fn statement_relation(stmt: &Statement) -> Option<&str> {
    match stmt {
        Statement::CreateRelation { name, .. } | Statement::DropRelation { name } => Some(name),
        Statement::Assert { relation, .. }
        | Statement::Retract { relation, .. }
        | Statement::Holds { relation, .. }
        | Statement::Holds3 { relation, .. }
        | Statement::Why { relation, .. }
        | Statement::Check { relation }
        | Statement::Show { relation }
        | Statement::Consolidate { relation }
        | Statement::Explicate { relation, .. }
        | Statement::SetPreemption { relation, .. }
        | Statement::Count { relation, .. } => Some(relation),
        _ => None,
    }
}

/// Collect the named base relations a derivation scans (recursing into
/// nested derivations).
pub fn derivation_sources(derivation: &Derivation, out: &mut BTreeSet<String>) {
    let mut source = |s: &Source| match s {
        Source::Named(name) => {
            out.insert(name.clone());
        }
        Source::Derived(inner) => derivation_sources(inner, out),
    };
    match derivation {
        Derivation::Union(a, b)
        | Derivation::Intersect(a, b)
        | Derivation::Difference(a, b)
        | Derivation::Join(a, b) => {
            source(a);
            source(b);
        }
        Derivation::Project(a, _)
        | Derivation::Select(a, _)
        | Derivation::Consolidated(a)
        | Derivation::Explicated(a, _) => source(a),
    }
}

/// Where a statement runs.
enum Target<'a> {
    /// Every shard, shard 0 first.
    Broadcast,
    /// Every shard, once no shard's relation uses the domain.
    DropDomain(&'a str),
    /// The shard owning the named relation.
    Owner(&'a str),
    /// The one shard holding all of a derivation's sources.
    Sources(&'a Derivation),
    /// Any single shard: domain state is identical on all of them.
    AnyShard,
    /// Every shard's relation listing, merged in name order.
    Gather,
    /// Whole-catalog persistence, which does not route.
    Unsupported,
}

/// The coordinator's routing rule for one statement: where it runs, the
/// relation name it brings into being there, and the name it removes.
struct Rule<'a> {
    target: Target<'a>,
    claims: Option<&'a String>,
    releases: Option<&'a String>,
}

fn rule(stmt: &Statement) -> Rule<'_> {
    let (target, claims, releases) = match stmt {
        Statement::CreateDomain { .. }
        | Statement::CreateClass { .. }
        | Statement::CreateInstance { .. }
        | Statement::Prefer { .. } => (Target::Broadcast, None, None),
        Statement::DropDomain { name } => (Target::DropDomain(name), None, None),
        Statement::CreateRelation { name, .. } => (Target::Owner(name), Some(name), None),
        Statement::DropRelation { name } => (Target::Owner(name), None, Some(name)),
        Statement::RenameRelation { from, to } => (Target::Owner(from), Some(to), Some(from)),
        Statement::Let { name, derivation } => (Target::Sources(derivation), Some(name), None),
        Statement::Explain { derivation } | Statement::Trace { derivation } => {
            (Target::Sources(derivation), None, None)
        }
        Statement::ShowDomain { .. } => (Target::AnyShard, None, None),
        Statement::ShowRelations => (Target::Gather, None, None),
        Statement::Save { .. }
        | Statement::Load { .. }
        | Statement::Open { .. }
        | Statement::Checkpoint => (Target::Unsupported, None, None),
        other => {
            let relation =
                statement_relation(other).expect("all remaining statements are relation-scoped");
            (Target::Owner(relation), None, None)
        }
    };
    Rule {
        target,
        claims,
        releases,
    }
}

/// A relation's `(attribute, domain)` pairs, as `CREATE RELATION`
/// declares them.
type Signature = Vec<(String, String)>;

/// One shard's relations with their signatures, read back through
/// `SHOW RELATIONS`.
fn relations_on<S: ExecutorHandle>(shard: &S) -> ExecResult<Vec<(String, Signature)>> {
    let listing = shard.execute_parsed(Statement::ShowRelations)?;
    parse(&listing)?
        .into_iter()
        .map(|stmt| match stmt {
            Statement::CreateRelation { name, attributes } => Ok((name, attributes)),
            other => Err(ExecError::new(
                "protocol",
                format!("unexpected `{other}` in a relation listing"),
            )),
        })
        .collect()
}

/// A coordinator that partitions one logical catalog across N shards
/// behind the same [`ExecutorHandle`] surface as a single [`Engine`].
/// See the module docs for the routing rules.
///
/// Statements that are inherently whole-catalog (`SAVE`, `LOAD`,
/// `OPEN`, `CHECKPOINT`) report kind `"unsupported"` through the
/// coordinator — durability composes per shard instead (each shard can
/// be `OPEN`ed individually before serving).
pub struct Coordinator<S> {
    shards: Vec<S>,
    /// Relation name → the shard holding it, for every relation.
    routes: RwLock<BTreeMap<String, usize>>,
    /// Serializes statements that change domains or placement, so the
    /// `DROP DOMAIN` read-back can't race a `CREATE RELATION` into an
    /// inconsistent cross-shard state. Reads and row writes (`ASSERT`,
    /// …) do not take it.
    ddl: Mutex<()>,
}

/// The single-process coordinator over in-process engine shards.
pub type ShardedEngine = Coordinator<Engine>;

impl ShardedEngine {
    /// A coordinator over `shards` fresh, empty engine shards (at
    /// least one).
    pub fn new(shards: usize) -> ShardedEngine {
        Coordinator::over((0..shards.max(1)).map(|_| Engine::new()).collect())
            .expect("fresh engines hold no relations")
    }
}

impl<S: ExecutorHandle> Coordinator<S> {
    /// A coordinator over `shards` (in shard order, at least one),
    /// reading the placement of every relation they already hold back
    /// from them. Fails if a shard cannot list its relations, or with
    /// kind `"duplicate"` if two shards hold the same name.
    pub fn over(shards: Vec<S>) -> ExecResult<Coordinator<S>> {
        assert!(!shards.is_empty(), "a coordinator needs at least one shard");
        let mut routes = BTreeMap::new();
        for (k, shard) in shards.iter().enumerate() {
            for (name, _) in relations_on(shard)? {
                if let Some(j) = routes.insert(name.clone(), k) {
                    return Err(ExecError::new(
                        "duplicate",
                        format!("relation {name:?} is held by shards {j} and {k}"),
                    ));
                }
            }
        }
        Ok(Coordinator {
            shards,
            routes: RwLock::new(routes),
            ddl: Mutex::new(()),
        })
    }

    /// The shards, in shard order — e.g. to put each engine behind its
    /// own `hrdm-server` event loop.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The shard owning `relation`: its route if a shard holds it, the
    /// name hash otherwise.
    pub fn owner_of(&self, relation: &str) -> usize {
        self.route_of(relation)
            .unwrap_or_else(|| default_shard(relation, self.shards.len()))
    }

    /// The shard holding `relation`, if any does.
    pub fn route_of(&self, relation: &str) -> Option<usize> {
        let routes = self.routes.read().expect("routes lock poisoned");
        routes.get(relation).copied()
    }

    /// Execute one statement where its [`Rule`] places it.
    fn run(&self, stmt: Statement) -> ExecResult<String> {
        let Rule {
            target,
            claims,
            releases,
        } = rule(&stmt);
        let claims = claims.cloned();
        let releases = releases.cloned();
        let _ddl = (claims.is_some()
            || releases.is_some()
            || matches!(target, Target::Broadcast | Target::DropDomain(_)))
        .then(|| self.ddl.lock().expect("ddl lock poisoned"));
        let k = match target {
            Target::Owner(name) => self.owner_of(name),
            Target::Sources(derivation) => self.single_shard_of(derivation)?,
            Target::AnyShard => 0,
            Target::Broadcast => return self.broadcast(stmt),
            Target::DropDomain(name) => {
                self.refuse_in_use(name)?;
                return self.broadcast(stmt);
            }
            Target::Gather => {
                let lines: Vec<String> = self
                    .listing()?
                    .into_iter()
                    .map(|(name, attributes)| {
                        Statement::CreateRelation { name, attributes }.to_string()
                    })
                    .collect();
                return Ok(lines.join("\n"));
            }
            Target::Unsupported => {
                return Err(ExecError::new(
                    "unsupported",
                    format!(
                        "`{stmt}` is whole-catalog; it does not route through a shard \
                         coordinator (run it on each shard individually)"
                    ),
                ))
            }
        };
        if let Some(name) = &claims {
            if self.route_of(name).is_some_and(|j| j != k) {
                return Err(HqlError::Duplicate {
                    kind: "relation",
                    name: name.clone(),
                }
                .into());
            }
        }
        let response = self.shards[k].execute_parsed(stmt)?;
        if claims.is_some() || releases.is_some() {
            let mut routes = self.routes.write().expect("routes lock poisoned");
            if let Some(name) = releases {
                routes.remove(&name);
            }
            if let Some(name) = claims {
                routes.insert(name, k);
            }
        }
        Ok(response)
    }

    /// The single shard holding **all** of a derivation's sources.
    /// Cross-shard derivations are not evaluated; colocate the sources
    /// (they hash together or were `LET` on one shard) or run the
    /// derivation against one shard directly.
    fn single_shard_of(&self, derivation: &Derivation) -> ExecResult<usize> {
        let mut sources = BTreeSet::new();
        derivation_sources(derivation, &mut sources);
        let shards: BTreeSet<usize> = sources.iter().map(|s| self.owner_of(s)).collect();
        match shards.len() {
            0 => Err(ExecError::new("unsupported", "derivation has no sources")),
            1 => Ok(shards.into_iter().next().expect("len checked")),
            _ => Err(ExecError::new(
                "unsupported",
                format!(
                    "derivation spans shards {shards:?} (sources {sources:?}); \
                     cross-shard derivations are not supported"
                ),
            )),
        }
    }

    /// Apply a domain-scoped statement to every shard. Shard 0 goes
    /// first: since domain state is identical on every shard by
    /// induction, its verdict is the statement's verdict, and a failure
    /// there leaves all shards untouched. The caller holds the DDL
    /// lock.
    fn broadcast(&self, stmt: Statement) -> ExecResult<String> {
        let response = self.shards[0].execute_parsed(stmt.clone())?;
        for (k, shard) in self.shards.iter().enumerate().skip(1) {
            shard.execute_parsed(stmt.clone()).map_err(|e| {
                ExecError::new(
                    "execution",
                    format!("shard {k} diverged on broadcast of `{stmt}`: {e}"),
                )
            })?;
        }
        Ok(response)
    }

    /// Every shard's relations and signatures, merged in name order.
    fn listing(&self) -> ExecResult<BTreeMap<String, Signature>> {
        let mut all = BTreeMap::new();
        for shard in &self.shards {
            all.extend(relations_on(shard)?);
        }
        Ok(all)
    }

    /// The `DROP DOMAIN` guard over every shard: refuse with the error a
    /// single engine gives, naming the first relation (in name order)
    /// whose signature uses `domain`. The caller holds the DDL lock.
    fn refuse_in_use(&self, domain: &str) -> ExecResult<()> {
        let user = self
            .listing()?
            .into_iter()
            .find(|(_, attributes)| attributes.iter().any(|(_, d)| d == domain));
        match user {
            Some((by, _)) => Err(HqlError::from(CoreError::InUse {
                kind: "domain",
                name: domain.to_string(),
                by,
            })
            .into()),
            None => Ok(()),
        }
    }
}

impl<S: ExecutorHandle> ExecutorHandle for Coordinator<S> {
    fn execute(&self, script: &str) -> ExecResult<Vec<String>> {
        parse(script)?
            .into_iter()
            .map(|stmt| self.run(stmt))
            .collect()
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        let statements = parse(script)?;
        if !statements.iter().all(Statement::is_read_only) {
            return Err(ExecError::new(
                "unsupported",
                "script contains a mutating statement; route it through execute",
            ));
        }
        if min_epoch > 0 {
            let epoch = self.last_epoch()?;
            if epoch < min_epoch {
                return Err(ExecError::new(
                    "stale",
                    format!(
                        "coordinator at epoch {epoch} is below the requested floor {min_epoch}"
                    ),
                ));
            }
        }
        statements.into_iter().map(|stmt| self.run(stmt)).collect()
    }

    /// The sum of all shard epochs (monotone — every routed or
    /// broadcast write advances it by at least one).
    fn last_epoch(&self) -> ExecResult<u64> {
        self.shards.iter().map(S::last_epoch).sum()
    }

    fn probe(&self) -> ExecResult<String> {
        let epochs = self
            .shards
            .iter()
            .map(S::last_epoch)
            .collect::<ExecResult<Vec<u64>>>()?;
        let mut out = format!(
            "epoch: {}\nshards: {}",
            epochs.iter().sum::<u64>(),
            epochs.len()
        );
        for (k, epoch) in epochs.iter().enumerate() {
            out.push_str(&format!("\nshard-{k}-epoch: {epoch}"));
        }
        let routes = self.routes.read().expect("routes lock poisoned");
        out.push_str(&format!("\nrouted-relations: {}", routes.len()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shard_is_stable_and_in_range() {
        for n in 1..8 {
            for name in ["Flies", "Sizes", "Colors", "R1", "R2"] {
                let k = default_shard(name, n);
                assert!(k < n);
                assert_eq!(k, default_shard(name, n), "deterministic");
            }
        }
    }
}
