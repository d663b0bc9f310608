//! `bench_block`: the fat-level-0-block ablation — one sparse lazy skip
//! graph with one key per node versus the same graph blocked at
//! `BLOCK_CAP` keys per anchor (`skipgraph::BlockedSkipMap`).
//!
//! Both lanes carry the identical population and workload. Three
//! measurements per lane:
//!
//! * **ops/s** — a mixed read-mostly phase (90% lookups, 10%
//!   insert/remove churn), median of paired trials; within a pair the
//!   lane order alternates so background drift debiases across the
//!   median instead of always charging one lane. The timed maps are
//!   preloaded round-robin across the timed threads, so every thread's
//!   upper lists are populated and none walks level 0.
//! * **nodes/search** — shared nodes visited per search
//!   (`traversed / searches` from the instrumented context) over a pure
//!   lookup pass. Blocking covers `~occupancy x cap` keys per anchor, so
//!   the level-0 walk and the tower descent both shorten.
//! * **bytes/key** — arena bytes over live keys right after the preload,
//!   when allocated == live on both lanes.
//!
//! Writes `BENCH_6.json` at the workspace root (`BENCH_OUT` overrides).
//! With `--check` the process exits non-zero unless the blocked lane (a)
//! visits at most half the nodes per search of the unblocked lane and
//! (b) spends strictly fewer bytes per key. Both gates compare medians
//! of the same in-process run, not wall-clock-sensitive absolutes, so
//! they hold on noisy shared runners. The CI `bench-smoke` block lane
//! runs this.

use bench::gate::{self, key, Cli, Gate, Json};
use instrument::{AccessStats, ThreadCtx};
use skipgraph::{BlockedSkipMap, ConcurrentMap, GraphConfig, MapHandle, SkipGraph};

/// Keys per lane: large enough that tower descents dominate constant
/// overheads, small enough for a smoke lane.
const KEYS: u64 = 60_000;
/// Mixed-phase operations per thread per trial.
const OPS: u64 = 120_000;
/// Lookups of the instrumented nodes-per-search pass.
const PROBES: u64 = 60_000;
/// Default blocking factor; `--cap N` overrides (the EXPERIMENTS.md
/// ablation sweeps 2/4/8/16).
const BLOCK_CAP: usize = 8;
const CHUNK: usize = 1 << 12;
const TRIALS: usize = 5;
const MIN_NODES_RATIO: f64 = 2.0;
const MAX_BYTES_RATIO: f64 = 1.0;

fn config(threads: u64) -> GraphConfig {
    // Full-height sparse towers on both lanes: the default max level is
    // sized for thread partitioning (log2 of the thread count), which at
    // this population would leave level-0 walks O(keys) long and drown
    // the ablation in quadratic preloads. With identical tower geometry
    // the lanes differ only in blocking.
    // Epoch reclamation on both lanes: splits retire their frozen block
    // and a preload would otherwise count every dead block in
    // `allocated_bytes` forever (the unblocked lane never retires during
    // a preload, so it is unaffected).
    GraphConfig::new(threads as usize)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .reclaim(true)
        .chunk_capacity(CHUNK)
}

/// The structure pass: a single-handle preload, then nodes per search
/// over a single-threaded instrumented lookup pass.
fn nodes_per_search<M: ConcurrentMap<u64, u64>>(map: &M) -> f64 {
    gate::preload(map, 1, KEYS);
    let stats = AccessStats::new(1);
    let mut h = map.pin(ThreadCtx::recording(0, stats.clone()));
    let mut x = 0xDEAD_BEEF_0BAD_F00Du64;
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.contains(&key(x % KEYS));
    }
    let t = stats.totals();
    t.traversed as f64 / t.searches.max(1) as f64
}

/// The timed mixed phase on a map preloaded round-robin across the timed
/// threads: thread-disjoint op streams, 90% lookups and a 10%
/// insert/remove churn pair over a private upper key range.
fn mixed_phase<M: ConcurrentMap<u64, u64>>(map: &M, threads: u64) -> f64 {
    gate::preload(map, threads as usize, KEYS);
    let elapsed = gate::timed_threads(threads, |t, start| {
        let mut h = map.pin(ThreadCtx::plain(t as u16));
        let mut x = 0x1234_5678_9ABC_DEF0u64 ^ t;
        start.wait();
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 10 == 9 {
                // Churn a key private to this thread, well above the
                // preloaded index range.
                let k = key(KEYS + t * OPS + i);
                h.insert(k, i);
                h.remove(&k);
            } else {
                h.contains(&key(x % KEYS));
            }
        }
    });
    (threads * OPS) as f64 / elapsed.as_secs_f64()
}

fn main() {
    let cli = Cli::parse(&["--cap"]);
    let cap = cli.cap.unwrap_or(BLOCK_CAP);
    let threads = gate::threads_up_to(4);

    eprintln!(
        "# bench_block: {KEYS} keys, block cap {cap}, {threads} threads x {OPS} mixed ops, \
         median of {TRIALS}"
    );

    // Structure metrics are deterministic per lane (same preload every
    // time): measure them once on fresh maps. Bytes per key are arena
    // bytes over live keys right after the preload, limbo flushed, so
    // retired split victims are back on the free lists and only the
    // high-water allocation counts.
    let ctx = ThreadCtx::plain(0);
    let (un, bl) = (
        SkipGraph::new(config(threads)),
        BlockedSkipMap::new(config(threads), cap),
    );
    let nps = [nodes_per_search(&un), nodes_per_search(&bl)];
    un.reclaim_flush(&ctx);
    bl.shared().reclaim_flush(&ctx);
    let bpk = [
        un.memory_stats(&ctx).allocated_bytes as f64 / KEYS as f64,
        bl.stats(&ctx).bytes_per_key,
    ];
    drop((un, bl));

    let pairs = gate::paired::<_, 2>(TRIALS, |lane, _| match lane {
        0 => mixed_phase(&SkipGraph::<u64, u64>::new(config(threads)), threads),
        _ => mixed_phase(
            &BlockedSkipMap::<u64, u64>::new(config(threads), cap),
            threads,
        ),
    });
    for (trial, [u, b]) in pairs.iter().enumerate() {
        eprintln!(
            "  trial {trial}: unblocked {u:>12.0} ops/s, blocked {b:>12.0} ops/s ({:.2}x)",
            b / u
        );
    }
    let ops = [0, 1].map(|lane| gate::median(pairs.iter().map(|p| p[lane])));

    let names = ["unblocked_sparse", "blocked_sparse"];
    let mut lanes = Json::new();
    for i in 0..2 {
        eprintln!(
            "[{}] {:>12.0} ops/s | {:.2} nodes/search | {:.2} bytes/key",
            names[i], ops[i], nps[i], bpk[i]
        );
        lanes = lanes.obj(
            names[i],
            Json::new()
                .num("ops_per_s", ops[i], 0)
                .num("nodes_per_search", nps[i], 2)
                .num("bytes_per_key", bpk[i], 2),
        );
    }
    let nodes_ratio = nps[0] / nps[1];
    let bytes_ratio = bpk[1] / bpk[0];
    let ops_ratio = ops[1] / ops[0];
    eprintln!("throughput {ops_ratio:.2}x (informational)");

    let json = Json::new()
        .str("bench", "block_ablation_smoke")
        .raw("threads", threads)
        .raw("keys", KEYS)
        .raw("block_cap", cap)
        .raw("ops_per_thread", OPS)
        .obj("lanes", lanes)
        .num("nodes_per_search_ratio", nodes_ratio, 2)
        .num("bytes_per_key_ratio", bytes_ratio, 2)
        .num("ops_ratio", ops_ratio, 2);
    let gates = [
        Gate::at_least(
            "nodes/search shrink (unblocked / blocked)",
            nodes_ratio,
            MIN_NODES_RATIO,
        ),
        Gate::below(
            "bytes/key (blocked / unblocked)",
            bytes_ratio,
            MAX_BYTES_RATIO,
        ),
    ];
    gate::finish("BENCH_6.json", &json, &gates, cli.check);
}
