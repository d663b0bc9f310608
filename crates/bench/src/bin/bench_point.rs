//! `bench_point`: the Skip Hash fast-path ablation — one layered map
//! answering point reads through the shared lock-free hash index versus
//! the identical map descending the skip graph for every read.
//!
//! Both lanes carry the same population and workload. The keys another
//! thread preloaded are deliberately **not** in the readers' thread-local
//! hashtables, so every read pays the cross-thread path the index exists
//! for: local miss → shared index probe (indexed lane) or local miss →
//! full descent (descent lane).
//!
//! Three measurements per lane:
//!
//! * **ops/s** — a read-heavy phase (90% Zipf(0.99) point gets over the
//!   preload, 10% insert/remove churn on private keys), median of paired
//!   trials with lane order alternating inside each pair.
//! * **nodes/search** — shared nodes visited per search over a pure
//!   Zipf lookup pass; an index hit visits exactly one.
//! * **write ops/s** — a pure insert/remove churn phase: the index's
//!   publish/invalidate duty must stay within a few percent of the
//!   index-free write path.
//!
//! Writes `BENCH_7.json` at the workspace root (`BENCH_OUT` overrides).
//! With `--check` the process exits non-zero unless (a) the indexed lane
//! moves at least `MIN_OPS_RATIO`x the descent lane's read-heavy ops/s,
//! (b) its nodes/search is at most `MAX_NODES_PER_SEARCH` (near-O(1)),
//! and (c) its pure-write throughput is at least `MIN_WRITE_RATIO` of
//! the descent lane's. All gates compare medians from the same
//! in-process run. The CI `bench-smoke` point lane runs this.

use bench::gate::{self, key, Cli, Gate, Json};
use instrument::{AccessStats, ThreadCtx};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use skipgraph::{GraphConfig, LayeredMap};
use synchro::Zipf;

/// Preloaded keys: large enough that a descent costs real node hops.
const KEYS: u64 = 60_000;
/// Read-heavy-phase operations per thread per trial.
const OPS: u64 = 120_000;
/// Pure-write-phase operations per thread per trial.
const WRITE_OPS: u64 = 60_000;
/// Lookups of the instrumented nodes-per-search pass.
const PROBES: u64 = 60_000;
const CHUNK: usize = 1 << 12;
const TRIALS: usize = 5;
const WRITE_TRIALS: usize = 5;
/// YCSB-style skew.
const ZIPF_ALPHA: f64 = 0.99;

const MIN_OPS_RATIO: f64 = 2.0;
const MAX_NODES_PER_SEARCH: f64 = 2.0;
const MIN_WRITE_RATIO: f64 = 0.95;

/// Identical graph geometry on both lanes — full-height sparse towers,
/// the descent lane's best configuration — so the lanes differ only in
/// whether the shared index is installed. The keys are loaded
/// round-robin across every registered slot (one extra slot for the
/// preloader: measurement threads must start with cold thread-local
/// hashtables). The preload handles are dropped before measurement
/// begins — the handles the timed phases register are fresh, so their
/// thread-local hashtables start cold and every read pays the shared
/// path.
fn build(threads: u64, indexed: bool) -> LayeredMap<u64, u64> {
    let config = GraphConfig::new(threads as usize + 1)
        .max_level(7)
        .sparse(true)
        .chunk_capacity(CHUNK)
        .hash_index(indexed);
    let map = LayeredMap::new(config);
    gate::preload(&map, threads as usize + 1, KEYS);
    map
}

/// The timed read-heavy phase: 90% Zipf point gets over the preload,
/// 10% insert/remove churn on a per-thread private key range.
fn read_heavy_phase(map: &LayeredMap<u64, u64>, threads: u64) -> f64 {
    let zipf = Zipf::new(KEYS, ZIPF_ALPHA);
    let elapsed = gate::timed_threads(threads, |t, start| {
        let mut h = map.register(ThreadCtx::plain(t as u16));
        let mut rng = SmallRng::seed_from_u64(0x1234_5678 ^ t);
        start.wait();
        for i in 0..OPS {
            if i % 10 == 9 {
                let k = key(KEYS + t * OPS + i);
                h.insert(k, i);
                h.remove(&k);
            } else {
                let rank = zipf.sample(&mut rng);
                assert!(h.get(&key(rank)).is_some(), "preloaded key lost");
            }
        }
    });
    (threads * OPS) as f64 / elapsed.as_secs_f64()
}

/// The timed pure-write phase: insert/remove pairs over private ranges,
/// measuring what the index's inline maintenance costs writers.
fn write_phase(map: &LayeredMap<u64, u64>, threads: u64) -> f64 {
    let elapsed = gate::timed_threads(threads, |t, start| {
        let mut h = map.register(ThreadCtx::plain(t as u16));
        start.wait();
        for i in 0..WRITE_OPS / 2 {
            let k = key(KEYS + t * WRITE_OPS + i);
            h.insert(k, i);
            h.remove(&k);
        }
    });
    (threads * WRITE_OPS) as f64 / elapsed.as_secs_f64()
}

/// Nodes per search over a single-threaded instrumented Zipf lookup
/// pass from a cold (measurement-slot) handle. Index hits record one
/// visited node; descents record the real hop count.
fn nodes_per_search(map: &LayeredMap<u64, u64>) -> f64 {
    let stats = AccessStats::new(1);
    let mut h = map.register(ThreadCtx::recording(0, stats.clone()));
    let zipf = Zipf::new(KEYS, ZIPF_ALPHA);
    let mut rng = SmallRng::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..PROBES {
        let rank = zipf.sample(&mut rng);
        h.contains(&key(rank));
    }
    let t = stats.totals();
    t.traversed as f64 / t.searches.max(1) as f64
}

/// Paired trials of one phase (lane 0 descent-only, lane 1 indexed),
/// each on a freshly built and preloaded map. Returns the per-lane
/// medians and the median of the per-pair indexed/descent ratios — not
/// a ratio of cross-trial medians: a background-load spike that hits one
/// half of one pair skews that pair's ratio, and the median over pairs
/// absorbs it.
fn phase(
    label: &str,
    trials: usize,
    threads: u64,
    run: fn(&LayeredMap<u64, u64>, u64) -> f64,
) -> ([f64; 2], f64) {
    let pairs = gate::paired::<_, 2>(trials, |lane, _| run(&build(threads, lane == 1), threads));
    for (trial, [p, x]) in pairs.iter().enumerate() {
        eprintln!(
            "  {label} trial {trial}: descent {p:>12.0} ops/s, indexed {x:>12.0} ops/s ({:.2}x)",
            x / p
        );
    }
    (
        [0, 1].map(|lane| gate::median(pairs.iter().map(|p| p[lane]))),
        gate::median(pairs.iter().map(|[p, x]| x / p)),
    )
}

fn main() {
    let cli = Cli::parse(&[]);
    let threads = gate::threads_up_to(4);

    eprintln!(
        "# bench_point: {KEYS} keys, Zipf({ZIPF_ALPHA}) 90/10 reads, {threads} threads x {OPS} \
         ops, median of {TRIALS}"
    );

    // Structure metric: deterministic per lane, measured once.
    let nps = [false, true].map(|indexed| nodes_per_search(&build(threads, indexed)));
    let (reads, ops_ratio) = phase("read", TRIALS, threads, read_heavy_phase);
    let (writes, write_ratio) = phase("write", WRITE_TRIALS, threads, write_phase);

    let mut lanes = Json::new();
    for (i, name) in ["descent_only", "hash_indexed"].into_iter().enumerate() {
        eprintln!(
            "[{name}] {:>12.0} read ops/s | {:>12.0} write ops/s | {:.2} nodes/search",
            reads[i], writes[i], nps[i]
        );
        lanes = lanes.obj(
            name,
            Json::new()
                .num("ops_per_s", reads[i], 0)
                .num("write_ops_per_s", writes[i], 0)
                .num("nodes_per_search", nps[i], 2),
        );
    }

    let json = Json::new()
        .str("bench", "point_read_index_smoke")
        .raw("threads", threads)
        .raw("keys", KEYS)
        .raw("zipf_alpha", ZIPF_ALPHA)
        .raw("ops_per_thread", OPS)
        .obj("lanes", lanes)
        .num("ops_ratio", ops_ratio, 2)
        .num("write_ratio", write_ratio, 2)
        .num("indexed_nodes_per_search", nps[1], 2);
    let gates = [
        Gate::at_least("point reads indexed / descent", ops_ratio, MIN_OPS_RATIO),
        Gate::at_most("indexed nodes/search", nps[1], MAX_NODES_PER_SEARCH),
        Gate::at_least("writes indexed / index-free", write_ratio, MIN_WRITE_RATIO),
    ];
    gate::finish("BENCH_7.json", &json, &gates, cli.check);
}
