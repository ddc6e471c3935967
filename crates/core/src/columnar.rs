//! Sorted columnar runs of node ids, batch slicing, and the merge
//! spine — the physical layer behind [`crate::batch`].
//!
//! A [`ColumnarRelation`] re-represents a relation's stored tuples
//! column-major: one `Vec<NodeId>` per attribute, with a parallel truth
//! column.
//! Rows keep the exact order of [`HRelation::iter`] (items sort
//! lexicographically by node id), so rebuilding a `BTreeMap` from a run
//! round-trips byte-for-byte. Operators slice the columns into
//! [`BATCH_ROWS`]-row [`Batch`]es and emit per-batch sorted [`Run`]s of
//! candidate items; a [`Spine`] k-way-merges the runs back into one
//! globally sorted, duplicate-free stream.
//!
//! A process-global intersection cache (keyed by graph version, like
//! the subsumption cache) memoizes `maximal_intersection` calls across
//! batches and queries; `bench::fixtures::clear_shared_caches` resets
//! it.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use hrdm_hierarchy::{HierarchyGraph, NodeId};

use crate::item::Item;
use crate::relation::HRelation;
use crate::schema::Schema;
use crate::truth::Truth;

/// Rows per execution batch: operators process column slices of at most
/// this many rows at a time.
pub const BATCH_ROWS: usize = 1024;

/// One relation's stored tuples, column-major and sorted.
pub struct ColumnarRelation {
    schema: Arc<Schema>,
    /// Per attribute: the node-id sort keys, row-aligned.
    node_cols: Vec<Vec<NodeId>>,
    truths: Vec<Truth>,
}

impl ColumnarRelation {
    /// Re-represent `r` columnar. Row order is `HRelation::iter` order
    /// (lexicographic by node id), so the run is born sorted.
    pub fn from_relation(r: &HRelation) -> ColumnarRelation {
        let schema = r.schema().clone();
        let arity = schema.arity();
        let mut node_cols: Vec<Vec<NodeId>> = vec![Vec::with_capacity(r.len()); arity];
        let mut truths = Vec::with_capacity(r.len());
        for (item, truth) in r.iter() {
            for (i, col) in node_cols.iter_mut().enumerate() {
                col.push(item.component(i));
            }
            truths.push(truth);
        }
        ColumnarRelation {
            schema,
            node_cols,
            truths,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows (stored tuples).
    pub fn len(&self) -> usize {
        self.truths.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.truths.is_empty()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.node_cols.len()
    }

    /// Number of [`BATCH_ROWS`]-row batches covering the run.
    pub fn batch_count(&self) -> usize {
        self.len().div_ceil(BATCH_ROWS)
    }

    /// Iterate the run as column-slice batches.
    pub fn batches(&self) -> impl Iterator<Item = Batch<'_>> {
        (0..self.batch_count()).map(move |k| {
            let start = k * BATCH_ROWS;
            let len = BATCH_ROWS.min(self.len() - start);
            Batch {
                rel: self,
                start,
                len,
            }
        })
    }

    /// The full node-id column `i` (operators that prefetch over a
    /// column's distinct values read it whole; batch-local work goes
    /// through [`Batch::col`]).
    pub fn col(&self, i: usize) -> &[NodeId] {
        &self.node_cols[i]
    }

    /// Reassemble row `row` as an item (for tests and spot checks; the
    /// batch operators work on the column slices directly).
    pub fn item(&self, row: usize) -> Item {
        Item::new(self.node_cols.iter().map(|c| c[row]).collect())
    }

    /// The truth column.
    pub fn truths(&self) -> &[Truth] {
        &self.truths
    }
}

/// A contiguous ≤[`BATCH_ROWS`]-row window over a [`ColumnarRelation`]:
/// column slices, no copying.
#[derive(Clone, Copy)]
pub struct Batch<'a> {
    rel: &'a ColumnarRelation,
    start: usize,
    len: usize,
}

impl<'a> Batch<'a> {
    /// Rows in this batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the degenerate empty batch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node-id slice of column `i`.
    pub fn col(&self, i: usize) -> &'a [NodeId] {
        &self.rel.node_cols[i][self.start..self.start + self.len]
    }

    /// Truth slice, row-aligned with the columns.
    pub fn truths(&self) -> &'a [Truth] {
        &self.rel.truths[self.start..self.start + self.len]
    }

    /// Reassemble batch-local row `k` as an item.
    pub fn item(&self, k: usize) -> Item {
        self.rel.item(self.start + k)
    }
}

/// A sorted, duplicate-free run of items (one operator batch's
/// candidate output).
pub struct Run {
    items: Vec<Item>,
}

impl Run {
    /// Build from an already-sorted set.
    pub fn from_set(set: BTreeSet<Item>) -> Run {
        Run {
            items: set.into_iter().collect(),
        }
    }

    /// Build from arbitrary items: sorts and dedups.
    pub fn from_items(mut items: Vec<Item>) -> Run {
        items.sort();
        items.dedup();
        Run { items }
    }

    /// Items in order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the run carries nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The merge spine: collects per-batch runs and k-way-merges them into
/// one globally sorted, duplicate-free item stream.
#[derive(Default)]
pub struct Spine {
    runs: Vec<Run>,
}

impl Spine {
    /// An empty spine.
    pub fn new() -> Spine {
        Spine::default()
    }

    /// Add a run (empty runs are dropped).
    pub fn push(&mut self, run: Run) {
        if !run.is_empty() {
            self.runs.push(run);
        }
    }

    /// Number of live runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Merge all runs into one sorted, duplicate-free vector —
    /// identical to collecting every run into a `BTreeSet`.
    pub fn merge(self) -> Vec<Item> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        match self.runs.len() {
            0 => return Vec::new(),
            1 => return self.runs.into_iter().next().expect("one run").items,
            _ => {}
        }
        let mut heads: Vec<std::vec::IntoIter<Item>> =
            self.runs.into_iter().map(|r| r.items.into_iter()).collect();
        let mut heap: BinaryHeap<Reverse<(Item, usize)>> = BinaryHeap::new();
        for (k, it) in heads.iter_mut().enumerate() {
            if let Some(item) = it.next() {
                heap.push(Reverse((item, k)));
            }
        }
        let mut out: Vec<Item> = Vec::new();
        while let Some(Reverse((item, k))) = heap.pop() {
            if out.last() != Some(&item) {
                out.push(item);
            }
            if let Some(next) = heads[k].next() {
                heap.push(Reverse((next, k)));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Shared intersection cache
// ---------------------------------------------------------------------

type IntersectKey = (u64, u64, u32, u32);
type IntersectMap = HashMap<IntersectKey, Arc<Vec<NodeId>>>;

fn intersect_cache() -> &'static Mutex<IntersectMap> {
    static CACHE: OnceLock<Mutex<IntersectMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Bound on cached entries; past it the cache is dropped wholesale
/// (benchmark sweeps over many throwaway graphs must not grow it
/// without limit).
const INTERSECT_CACHE_CAP: usize = 1 << 16;

/// `graph.maximal_intersection(a, b)` through the process-global cache.
///
/// Keyed by the graph's `(id, generation)` version — the same
/// invalidation discipline as the reachability cache — so a mutated or
/// fresh graph can never observe another graph's entries. Returns the
/// cached vector and whether this call was a hit (for the `batch.*`
/// memo counters).
pub(crate) fn cached_intersection(
    graph: &HierarchyGraph,
    a: NodeId,
    b: NodeId,
) -> (Arc<Vec<NodeId>>, bool) {
    let (gid, generation) = graph.version();
    let key: IntersectKey = (gid, generation, a.index() as u32, b.index() as u32);
    {
        let cache = intersect_cache().lock().expect("intersect cache poisoned");
        if let Some(hit) = cache.get(&key) {
            return (hit.clone(), true);
        }
    }
    let computed = Arc::new(graph.maximal_intersection(a, b));
    let mut cache = intersect_cache().lock().expect("intersect cache poisoned");
    if cache.len() >= INTERSECT_CACHE_CAP {
        cache.clear();
    }
    let entry = cache.entry(key).or_insert_with(|| computed.clone());
    (entry.clone(), false)
}

/// A dictionary-encoded intersection matrix over one column pair: the
/// columns' distinct values are dense-indexed, and the full
/// `|lvals| × |rvals|` matrix of `maximal_intersection` results is
/// computed up front in parallel. The pairwise operators (join, set
/// ops) then resolve each row pair's axis with two array loads —
/// no hashing and no locks inside the row-pair loop.
pub(crate) struct IntersectionMatrix {
    /// Per left row: dense index into the matrix rows.
    l_dense: Vec<u32>,
    /// Per right row: dense index into the matrix columns.
    r_dense: Vec<u32>,
    /// Matrix width (`|rvals|`).
    width: usize,
    /// Row-major `|lvals| × |rvals|` intersection results.
    cells: Vec<Arc<Vec<NodeId>>>,
}

impl IntersectionMatrix {
    /// Encode `lcol`/`rcol` against their distinct values and compute
    /// every distinct-pair intersection under `graph` in parallel.
    pub(crate) fn build(graph: &HierarchyGraph, lcol: &[NodeId], rcol: &[NodeId]) -> Self {
        let mut lvals: Vec<NodeId> = lcol.to_vec();
        lvals.sort_unstable();
        lvals.dedup();
        let mut rvals: Vec<NodeId> = rcol.to_vec();
        rvals.sort_unstable();
        rvals.dedup();
        let dense = |vals: &[NodeId], col: &[NodeId]| -> Vec<u32> {
            col.iter()
                .map(|v| vals.binary_search(v).expect("value in its dictionary") as u32)
                .collect()
        };
        let width = rvals.len();
        let cells = crate::parallel::par_map_indexed(lvals.len() * width, |k| {
            Arc::new(graph.maximal_intersection(lvals[k / width], rvals[k % width]))
        });
        IntersectionMatrix {
            l_dense: dense(&lvals, lcol),
            r_dense: dense(&rvals, rcol),
            width,
            cells,
        }
    }

    /// The intersection axis for (left row `lrow`, right row `rrow`).
    pub(crate) fn axis(&self, lrow: usize, rrow: usize) -> &Arc<Vec<NodeId>> {
        &self.cells[self.l_dense[lrow] as usize * self.width + self.r_dense[rrow] as usize]
    }

    /// Number of distinct-pair cells computed (the operator's memo-miss
    /// count; every row-pair lookup beyond these is a hit).
    pub(crate) fn computed(&self) -> u64 {
        self.cells.len() as u64
    }
}

/// Drop every cached intersection (benchmark isolation; also keeps
/// throwaway property-test graphs from lingering).
pub fn clear_intersection_cache() {
    intersect_cache()
        .lock()
        .expect("intersect cache poisoned")
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_fixtures::*;

    #[test]
    fn columnar_round_trips_row_order() {
        let schema = animal_schema();
        let r = flying(&schema);
        let col = ColumnarRelation::from_relation(&r);
        assert_eq!(col.len(), r.len());
        assert_eq!(col.arity(), 1);
        assert!(!col.is_empty());
        let items: Vec<Item> = (0..col.len()).map(|k| col.item(k)).collect();
        let expected: Vec<Item> = r.iter().map(|(i, _)| i.clone()).collect();
        assert_eq!(items, expected);
        let truths: Vec<Truth> = r.iter().map(|(_, t)| t).collect();
        assert_eq!(col.truths(), &truths[..]);
    }

    #[test]
    fn batches_cover_the_run_without_overlap() {
        let schema = animal_schema();
        let r = flying(&schema);
        let col = ColumnarRelation::from_relation(&r);
        assert_eq!(col.batch_count(), 1); // 4 rows < BATCH_ROWS
        let total: usize = col.batches().map(|b| b.len()).sum();
        assert_eq!(total, col.len());
        let first = col.batches().next().unwrap();
        assert!(!first.is_empty());
        assert_eq!(first.truths().len(), first.len());
        assert_eq!(first.item(0), col.item(0));
    }

    #[test]
    fn spine_merge_equals_btreeset() {
        let schema = animal_schema();
        let r = flying(&schema);
        let items: Vec<Item> = r.iter().map(|(i, _)| i.clone()).collect();
        // Three overlapping runs sliced from the same item pool.
        let mut spine = Spine::new();
        spine.push(Run::from_items(items.clone()));
        spine.push(Run::from_items(items[1..].to_vec()));
        spine.push(Run::from_items(items[..2].to_vec()));
        spine.push(Run::from_set(BTreeSet::new())); // dropped
        assert_eq!(spine.run_count(), 3);
        let merged = spine.merge();
        let expected: Vec<Item> = items
            .iter()
            .cloned()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(merged, expected);
        // Degenerate spines.
        assert!(Spine::new().merge().is_empty());
        let mut one = Spine::new();
        one.push(Run::from_items(items.clone()));
        assert_eq!(one.merge().len(), items.len());
    }

    #[test]
    fn intersection_cache_hits_and_clears() {
        clear_intersection_cache();
        let g = animal_graph();
        let penguin = g.node("Penguin").unwrap();
        let bird = g.node("Bird").unwrap();
        let (first, hit1) = cached_intersection(&g, bird, penguin);
        assert!(!hit1, "fresh cache must miss");
        let (second, hit2) = cached_intersection(&g, bird, penguin);
        assert!(hit2, "second call must hit");
        assert_eq!(first, second);
        assert_eq!(*first, g.maximal_intersection(bird, penguin));
        clear_intersection_cache();
        let (_, hit3) = cached_intersection(&g, bird, penguin);
        assert!(!hit3, "cleared cache must miss");
    }
}
