//! `bench_churn`: memory-footprint ablation of epoch-based reclamation
//! under sustained insert/remove churn.
//!
//! Worker threads each run a sliding-window workload over a private slice
//! of a uniformly scattered key space: insert the next key, remove the
//! one that fell out of the window. Every operation either allocates a
//! node or retires one, so the workload is the worst case for the
//! allocator: without reclamation the arenas grow by one slot per insert
//! forever; with the epoch reclaimer retired slots return to their
//! per-size-class, per-socket free lists and the very next inserts of
//! that height reuse them.
//!
//! The thread count is `min(8, available cores)`. Oversubscribing cores
//! would gate on the OS scheduler instead of the allocator: a thread
//! descheduled mid-operation stays *pinned* for its whole wait (tens of
//! milliseconds), the grace period cannot pass it, and the in-flight
//! limbo inventory grows to `retire rate x scheduling latency` — an
//! epoch-based-reclamation property, not a leak. On the paper's
//! dedicated multi-socket machines threads are pinned one per core and
//! that inventory is microseconds deep.
//!
//! Two lanes, identical workload (non-lazy protocol in both — the lazy
//! variant resurrects removed nodes in place and would mask the
//! allocator entirely):
//!
//! * **reclaim_off** — the never-free baseline. Retired nodes are simply
//!   leaked into the arenas (the repo's original behaviour).
//! * **reclaim_on** — epoch-based reclamation with NUMA-preserving slot
//!   recycling. This is the gated lane.
//!
//! Writes `BENCH_5.json` at the workspace root (`BENCH_OUT` overrides)
//! with median-of-3 ops/s, the end-of-run memory composition of both
//! lanes, and the two gate ratios. With `--check` the process exits
//! non-zero unless on the reclaiming lane (a) the steady-state mapped
//! footprint stays within 1.5x of the live set's bytes — i.e. the
//! footprint plateaus instead of scaling with total operations — and
//! (b) throughput holds at least 90% of the never-free baseline, so the
//! grace-period protocol's fences and free-list traffic stay in the
//! noise. The CI `bench-smoke` churn lane runs this.

use bench::gate::{self, Cli, Gate, Json};
use instrument::ThreadCtx;
use skipgraph::{GraphConfig, LayeredMap, MemoryStats};

/// Live keys per thread at steady state.
const WINDOW: u64 = 8192;
/// Churn iterations per thread; each is one insert plus one remove, so
/// the never-free lane allocates `WINDOW + OPS` slots per thread while
/// the live set stays at `WINDOW`. Sized so one trial runs well past a
/// scheduler rotation (~25 ms on shared boxes) — shorter trials let a
/// single preemption swing a pair's throughput ratio by tens of
/// percent.
const OPS: u64 = 200_000;
const CHUNK: usize = 512;
const TRIALS: usize = 9;
const MAX_FOOTPRINT_RATIO: f64 = 1.5;
const MIN_OPS_RATIO: f64 = 0.9;

/// Thread `t`'s `i`-th key: disjoint per-thread index ranges scattered
/// uniformly over the key space (an odd multiplier is a bijection on
/// `u64`, so keys stay unique and the structure interleaves all threads'
/// windows instead of holding contiguous per-thread runs).
fn key(t: u64, i: u64) -> u64 {
    ((t << 40) | i).wrapping_mul(0x9E37_79B1_85EB_CA87)
}

fn config(threads: u64, reclaim: bool) -> GraphConfig {
    GraphConfig::new(threads as usize)
        .reclaim(reclaim)
        .chunk_capacity(CHUNK)
}

/// One trial: preload the window, churn `OPS` iterations per thread,
/// then flush the limbo lists and snapshot the arenas. Returns ops/s of
/// the churn phase (2 operations per iteration) and the end state.
fn run_trial(threads: u64, reclaim: bool) -> (f64, MemoryStats) {
    let map = LayeredMap::<u64, u64>::new(config(threads, reclaim));
    let elapsed = gate::timed_threads(threads, |t, start| {
        let mut h = map.register(ThreadCtx::plain(t as u16));
        for i in 0..WINDOW {
            assert!(h.insert(key(t, i), i));
        }
        start.wait();
        for i in WINDOW..WINDOW + OPS {
            assert!(h.insert(key(t, i), i));
            assert!(h.remove(&key(t, i - WINDOW)));
        }
    });
    let ctx = ThreadCtx::plain(0);
    // Handle pins quiesce periodically on their own; the final flush just
    // empties whatever limbo remained at the instant the workload ended.
    map.shared().reclaim_flush(&ctx);
    let stats = map.shared().memory_stats(&ctx);
    let ops = (threads * OPS * 2) as f64;
    (ops / elapsed.as_secs_f64(), stats)
}

/// One lane's row: median throughput and the last trial's memory.
fn lane_json(name: &str, ops_per_s: f64, stats: &MemoryStats) -> (f64, Json) {
    // The live set's own bytes, at this lane's measured mean node size:
    // the denominator of the plateau gate.
    let live_bytes = stats.live as f64 * stats.bytes_per_node();
    let footprint_ratio = stats.resident_bytes as f64 / live_bytes;
    eprintln!(
        "[{name}] {ops_per_s:>12.0} ops/s | live {} nodes ({:.1} MiB), mapped {:.1} MiB \
         ({footprint_ratio:.2}x live) | allocated {} | recycled {} | epochs {} | limbo {} | free {}",
        stats.live,
        live_bytes / (1 << 20) as f64,
        stats.resident_bytes as f64 / (1 << 20) as f64,
        stats.allocated,
        stats.recycled_slots,
        stats.global_epoch,
        stats.limbo_nodes,
        stats.free_slots,
    );
    let json = Json::new()
        .num("ops_per_s", ops_per_s, 0)
        .raw("live", stats.live)
        .raw("allocated", stats.allocated)
        .raw("allocated_bytes", stats.allocated_bytes)
        .raw("resident_bytes", stats.resident_bytes)
        .num("footprint_ratio", footprint_ratio, 2)
        .raw("retired_nodes", stats.retired_nodes)
        .raw("recycled_slots", stats.recycled_slots)
        .raw("global_epoch", stats.global_epoch)
        .raw("limbo_nodes", stats.limbo_nodes)
        .raw("free_slots", stats.free_slots)
        .raw("free_bytes", stats.free_bytes);
    (footprint_ratio, json)
}

fn main() {
    let cli = Cli::parse(&[]);
    let threads = gate::threads_up_to(8);

    eprintln!(
        "# bench_churn: windowed uniform churn, {threads} threads x ({WINDOW} window + {OPS} \
         iterations), median of {TRIALS}"
    );

    // Back-to-back pairs gated on the median per-pair throughput ratio:
    // adjacent trials see the same background noise and frequency state,
    // so pairing cancels drift that lane-at-a-time measurement would fold
    // into the ratio.
    let pairs = gate::paired::<_, 2>(TRIALS, |lane, _| run_trial(threads, lane == 1));
    for (trial, [(off, _), (on, _)]) in pairs.iter().enumerate() {
        eprintln!(
            "  trial {trial}: baseline {off:>12.0} ops/s, reclaiming {on:>12.0} ops/s ({:.2}x)",
            on / off
        );
    }
    let ops_ratio = gate::median(pairs.iter().map(|[(off, _), (on, _)]| on / off));
    let [(_, off_stats), (_, on_stats)] = &pairs[TRIALS - 1];
    let (_, off) = lane_json(
        "reclaim_off",
        gate::median(pairs.iter().map(|p| p[0].0)),
        off_stats,
    );
    let (footprint_ratio, on) = lane_json(
        "reclaim_on",
        gate::median(pairs.iter().map(|p| p[1].0)),
        on_stats,
    );

    let json = Json::new()
        .str("bench", "churn_reclamation_smoke")
        .raw("threads", threads)
        .raw("window", WINDOW)
        .raw("ops_per_thread", OPS)
        .obj(
            "lanes",
            Json::new().obj("reclaim_off", off).obj("reclaim_on", on),
        )
        .str("gate_lane", "reclaim_on")
        .num("footprint_ratio", footprint_ratio, 2)
        .num("ops_ratio_vs_never_free", ops_ratio, 2);
    let gates = [
        Gate::at_most(
            "reclaim_on mapped footprint / live set",
            footprint_ratio,
            MAX_FOOTPRINT_RATIO,
        ),
        Gate::at_least(
            "reclaim_on throughput / never-free baseline",
            ops_ratio,
            MIN_OPS_RATIO,
        ),
    ];
    gate::finish("BENCH_5.json", &json, &gates, cli.check);
}
