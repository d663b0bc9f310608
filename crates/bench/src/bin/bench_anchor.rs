//! `bench_anchor`: the anchor-granularity ablation — batched operations
//! over the blocked map through the anchor-granular sorted-run path
//! (`BlockedHandle::execute_batch`: one resolution per block-group,
//! bulk-filled fresh blocks) versus the key-granular batched baseline
//! (`BatchedLayeredMap`: per-key hint chain, one node and one link CAS
//! per key).
//!
//! Both lanes carry identical populations and batch streams. Two
//! workloads and three measurements:
//!
//! * **fresh-load ops/s** (gated) — mixed batches, half lookups of the
//!   preloaded region, half inserts of ascending fresh keys; after the
//!   combiner's sort the inserts form maximal ascending runs, so the
//!   anchor lane takes the bulk block-fill path. Median of paired trials
//!   with alternating lane order.
//! * **windowed-churn ops/s** (informational) — batches drawn from a
//!   narrow key window (the shape replica replay produces: each log
//!   carries one key region), so consecutive sorted ops co-locate in
//!   blocks and the anchor lane groups them without bulk fills. This is
//!   the "anchor hints alone" column of the EXPERIMENTS ablation.
//! * **nodes/search for cache hits** (gated) — an instrumented lookup
//!   pass over a block-contiguous working set after a warm pass. The
//!   anchor cache covers the set with ~`WS / cap` entries and answers
//!   each probe from one cached block; the key-granular local maps only
//!   hold self-inserted keys, so the same pass pays a descent per probe.
//! * **bulk-fill occupancy** (gated) — `bulk_entries / (bulk_blocks x
//!   fill_target)` from the instrumented fresh-load pass: how full
//!   bulk-published blocks are born relative to the policy's target.
//!
//! Writes `BENCH_9.json` at the workspace root (`BENCH_OUT` overrides).
//! With `--check` the process exits non-zero unless fresh-load ops/s
//! reaches `MIN_OPS_RATIO`x the key-granular lane, hit-path
//! nodes/search stays under `MAX_NODES_RATIO`x of it, and bulk occupancy
//! reaches `MIN_BULK_OCCUPANCY`. All gates are in-process ratios, so
//! they hold on noisy shared runners. `--sweep` prints the
//! split-point/merge-threshold policy table for EXPERIMENTS.md.

use bench::gate::{self, key, Cli, Gate, Json};
use instrument::{AccessStats, ThreadCtx};
use skipgraph::{
    BatchConfig, BatchOp, BatchedLayeredMap, BlockPolicy, BlockedSkipMap, GraphConfig, LayeredMap,
};
use std::time::Instant;

/// Preloaded keys per lane (the read region, upper key half).
const KEYS: u64 = 40_000;
/// Batches per timed trial, at `BATCH` ops each.
const BATCHES: usize = 150;
const BATCH: usize = 256;
const TRIALS: usize = 5;
/// Default blocking factor of the anchor lane.
const BLOCK_CAP: usize = 8;
const CHUNK: usize = 1 << 12;
/// Working-set size of the instrumented hit pass (block-contiguous keys;
/// ~`WS / BLOCK_CAP` anchors, comfortably inside the 128-entry cache).
const WS: usize = 400;
/// Churn batches draw keys from a window this many sorted keys wide.
const WINDOW: usize = 512;
/// Preloaded keys carry the top bit; fresh-load inserts stay below it,
/// so the two regions never interleave in sort order.
const TOP: u64 = 1 << 63;

const MIN_OPS_RATIO: f64 = 1.25;
const MAX_NODES_RATIO: f64 = 0.5;
const MIN_BULK_OCCUPANCY: f64 = 0.75;

type Batches = Vec<Vec<BatchOp<u64, u64>>>;

fn xs(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn config() -> GraphConfig {
    // Full-height sparse lazy towers on both lanes (see bench_block for
    // why), reclamation on so split victims return to the free lists,
    // and *no* hash index: the ablation is hint granularity, and the
    // shared index would answer the read side of both lanes in O(1).
    GraphConfig::new(2)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .reclaim(true)
        .chunk_capacity(CHUNK)
}

/// Inserts the read region (`TOP | key(i)`) through thread 1.
fn preload(insert: &mut dyn FnMut(u64, u64) -> bool) {
    for i in 0..KEYS {
        assert!(insert(TOP | key(i), i));
    }
}

/// The anchor lane, preloaded: blocked map, sorted runs resolved per
/// block.
fn anchor_map(policy: Option<BlockPolicy>) -> BlockedSkipMap<u64, u64> {
    let map = match policy {
        Some(p) => BlockedSkipMap::with_policy(config(), BLOCK_CAP, p),
        None => BlockedSkipMap::new(config(), BLOCK_CAP),
    };
    let mut h = map.register(ThreadCtx::plain(1));
    preload(&mut |k, v| h.insert(k, v));
    drop(h);
    map
}

/// Runs `batches` on thread 0 of a freshly preloaded lane (lane 0 the
/// key-granular baseline — the flat-combining layered map with a per-key
/// hint chain in its combined runs — lane 1 the anchor lane), returning
/// ops/s.
fn run_batches(anchor: bool, batches: Batches) -> f64 {
    let ops = (batches.len() * BATCH) as f64;
    let begin;
    if anchor {
        let map = anchor_map(None);
        begin = Instant::now();
        let mut h = map.register(ThreadCtx::plain(0));
        for b in batches {
            h.execute_batch(b);
        }
    } else {
        let map = BatchedLayeredMap::new(config(), BatchConfig::uniform(2, 1));
        let mut h = map.register(ThreadCtx::plain(1));
        preload(&mut |k, v| h.direct().insert(k, v));
        drop(h);
        begin = Instant::now();
        let mut h = map.register(ThreadCtx::plain(0));
        for b in batches {
            h.execute_batch(b);
        }
    }
    ops / begin.elapsed().as_secs_f64()
}

/// Fresh-load batch: half lookups of the preloaded (upper) region, half
/// inserts of ascending fresh (lower) keys. Sorting inside the combiner
/// turns the inserts into one maximal ascending run per batch.
fn fresh_batches(seed: u64) -> Batches {
    let mut x = seed | 1;
    let mut serial = 0u64;
    (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|j| {
                    if j % 2 == 0 {
                        BatchOp::Get(TOP | key(xs(&mut x) % KEYS))
                    } else {
                        serial += 1;
                        BatchOp::Insert(serial, serial)
                    }
                })
                .collect()
        })
        .collect()
}

/// Windowed-churn batch: every op drawn from a `WINDOW`-wide slice of
/// the preloaded keys in sorted order — 50% lookups, 25% removes, 25%
/// re-inserts, so membership churns but the population stays put.
fn churn_batches(sorted: &[u64], seed: u64) -> Batches {
    let mut x = seed | 1;
    (0..BATCHES)
        .map(|_| {
            let w = (xs(&mut x) as usize) % (sorted.len() - WINDOW);
            (0..BATCH)
                .map(|_| {
                    let k = sorted[w + (xs(&mut x) as usize) % WINDOW];
                    match xs(&mut x) % 4 {
                        0 => BatchOp::Insert(k, 1),
                        1 => BatchOp::Remove(k),
                        _ => BatchOp::Get(k),
                    }
                })
                .collect()
        })
        .collect()
}

/// Paired trials of one batch stream; returns (key, anchor) medians.
fn timed_lanes(mk: &dyn Fn(u64) -> Batches, label: &str) -> [f64; 2] {
    let pairs = gate::paired::<_, 2>(TRIALS, |lane, trial| {
        run_batches(lane == 1, mk(trial as u64 + 1))
    });
    for (trial, [k, a]) in pairs.iter().enumerate() {
        eprintln!(
            "  [{label}] trial {trial}: key_hint {k:>12.0} ops/s, anchor {a:>12.0} ops/s ({:.2}x)",
            a / k
        );
    }
    [0, 1].map(|lane| gate::median(pairs.iter().map(|p| p[lane])))
}

/// Instrumented hit pass: warm the handle's cache over a
/// block-contiguous working set, then measure shared nodes per search on
/// repeated lookups through the same handle.
fn nodes_per_hit(ws: &[u64], anchor: bool) -> f64 {
    let stats = AccessStats::new(1);
    let ctx = ThreadCtx::recording(0, stats.clone());
    let delta = |m: &mut dyn FnMut(&u64)| {
        for k in ws {
            m(k);
        }
        let before = stats.totals();
        for _ in 0..10 {
            for k in ws {
                m(k);
            }
        }
        let t = stats.totals();
        (t.traversed - before.traversed) as f64 / (t.searches - before.searches).max(1) as f64
    };
    if anchor {
        let map = anchor_map(None);
        let mut h = map.register(ctx);
        delta(&mut |k| {
            h.get(k);
        })
    } else {
        let map: LayeredMap<u64, u64> = LayeredMap::new(config());
        let mut h = map.register(ThreadCtx::plain(1));
        preload(&mut |k, v| h.insert(k, v));
        drop(h);
        let mut h = map.register(ctx);
        delta(&mut |k| {
            h.get(k);
        })
    }
}

/// Instrumented fresh-load pass on the anchor lane: bulk-fill occupancy
/// and grouping width from the thread counters.
fn bulk_metrics() -> (f64, f64, u64, u64) {
    let map = anchor_map(None);
    let stats = AccessStats::new(1);
    let mut h = map.register(ThreadCtx::recording(0, stats.clone()));
    for b in fresh_batches(7) {
        h.execute_batch(b);
    }
    let t = stats.totals();
    let fill = map.policy().fill_target as f64;
    let occupancy = t.bulk_entries as f64 / (t.bulk_blocks as f64 * fill).max(1.0);
    let width = t.grouped_ops as f64 / t.anchor_groups.max(1) as f64;
    (occupancy, width, t.bulk_blocks, t.bulk_entries)
}

/// Split-point x merge-threshold policy sweep (windowed churn, one trial
/// per cell): the EXPERIMENTS.md table. Each cell times the churn stream
/// on one map and reports the post-churn shape of the same map.
fn sweep(sorted: &[u64]) {
    println!("split_left_pct | merge_threshold | ops/s | anchors | occupancy | bytes/key");
    for pct in [25u8, 50, 75] {
        for merge in [0usize, 1, 2] {
            let map = anchor_map(Some(BlockPolicy {
                split_left_pct: pct,
                merge_threshold: merge,
                fill_target: BLOCK_CAP,
            }));
            let batches = churn_batches(sorted, 3);
            let ops = (batches.len() * BATCH) as f64;
            let begin = Instant::now();
            let mut h = map.register(ThreadCtx::plain(0));
            for b in batches {
                h.execute_batch(b);
            }
            let ops = ops / begin.elapsed().as_secs_f64();
            drop(h);
            let ctx = ThreadCtx::plain(0);
            map.shared().reclaim_flush(&ctx);
            let s = map.stats(&ctx);
            let occ = s.entries as f64 / (s.anchors * BLOCK_CAP).max(1) as f64;
            println!(
                "{pct:>14} | {merge:>15} | {ops:>9.0} | {:>7} | {occ:>9.2} | {:>9.2}",
                s.anchors, s.bytes_per_key
            );
        }
    }
}

fn main() {
    let cli = Cli::parse(&["--sweep"]);
    let mut sorted: Vec<u64> = (0..KEYS).map(|i| TOP | key(i)).collect();
    sorted.sort_unstable();

    if cli.sweep {
        sweep(&sorted);
        return;
    }

    eprintln!(
        "# bench_anchor: {KEYS} preloaded keys, cap {BLOCK_CAP}, {BATCHES} batches x {BATCH} \
         ops, median of {TRIALS}"
    );

    let fresh = timed_lanes(&fresh_batches, "fresh-load");
    let churn = timed_lanes(&|s| churn_batches(&sorted, s), "windowed-churn");
    let ws = &sorted[sorted.len() / 2..sorted.len() / 2 + WS];
    let nps = [nodes_per_hit(ws, false), nodes_per_hit(ws, true)];
    let (occupancy, width, bulk_blocks, bulk_entries) = bulk_metrics();

    let fresh_ratio = fresh[1] / fresh[0];
    let churn_ratio = churn[1] / churn[0];
    let nodes_ratio = nps[1] / nps[0];
    eprintln!(
        "[fresh-load]     key_hint {:>12.0} ops/s, anchor {:>12.0} ops/s ({fresh_ratio:.2}x)",
        fresh[0], fresh[1]
    );
    eprintln!(
        "[windowed-churn] key_hint {:>12.0} ops/s, anchor {:>12.0} ops/s ({churn_ratio:.2}x, \
         informational)",
        churn[0], churn[1]
    );
    eprintln!(
        "[hit pass] key_hint {:.2} nodes/search, anchor {:.2}",
        nps[0], nps[1]
    );
    eprintln!(
        "[bulk] mean group width {width:.1} ops, {bulk_blocks} blocks / {bulk_entries} entries"
    );

    let mut lanes = Json::new();
    for (i, name) in ["key_hint", "anchor"].into_iter().enumerate() {
        lanes = lanes.obj(
            name,
            Json::new()
                .num("fresh_ops_per_s", fresh[i], 0)
                .num("churn_ops_per_s", churn[i], 0)
                .num("hit_nodes_per_search", nps[i], 2),
        );
    }
    let json = Json::new()
        .str("bench", "anchor_granularity_smoke")
        .raw("keys", KEYS)
        .raw("block_cap", BLOCK_CAP)
        .raw("batches", BATCHES)
        .raw("batch", BATCH)
        .obj("lanes", lanes)
        .num("fresh_ops_ratio", fresh_ratio, 2)
        .num("churn_ops_ratio", churn_ratio, 2)
        .num("hit_nodes_ratio", nodes_ratio, 2)
        .num("bulk_fill_occupancy", occupancy, 2)
        .num("mean_group_width", width, 1)
        .raw("bulk_blocks", bulk_blocks)
        .raw("bulk_entries", bulk_entries);
    let gates = [
        Gate::at_least(
            "fresh-load ops/s anchor / key_hint",
            fresh_ratio,
            MIN_OPS_RATIO,
        ),
        Gate::at_most(
            "hit-pass nodes/search anchor / key_hint",
            nodes_ratio,
            MAX_NODES_RATIO,
        ),
        Gate::at_least(
            "bulk-fill occupancy of fill target",
            occupancy,
            MIN_BULK_OCCUPANCY,
        ),
    ];
    gate::finish("BENCH_9.json", &json, &gates, cli.check);
}
