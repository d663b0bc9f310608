//! `bench_batch`: batched vs unbatched layered-map throughput smoke.
//!
//! Mirrors the MC write-heavy smoke of `bench_smoke` / BENCH_2 (Zipf
//! α = 0.99 ranks scattered over a 2^14 key space, 20% preload, 50%
//! updates as matched insert/remove churn, 50% membership probes) at
//! 8 threads, and runs it in two configuration lanes:
//!
//! * **sparse** — the default eager protocol with sparse local indexing
//!   (the headline memory layout; BENCH_2 measures the per-op smokes at
//!   50-80 nodes/search here: half the operations are probes of
//!   mostly-absent keys, and each thread's local structures only warm
//!   up from its own 1/T share of the traffic, so per-op execution pays
//!   a real traversal most of the time). This lane is what the
//!   `--check` gate scores: the combiner executes the whole socket's
//!   traffic through one set of local structures (which therefore warm
//!   ~4× faster), and its key-sorted runs resolve duplicate hot keys
//!   from the hint chain.
//! * **lazy** — the lazy layered variant, whose denser local indexing
//!   absorbs more of the traffic into fast paths in both modes;
//!   reported for the ablation table (EXPERIMENTS.md), not gated (the
//!   batched win is real but inside run-to-run noise on small hosts).
//!
//! Each lane runs twice:
//!
//! * **unbatched** — one [`LayeredMap`] operation per call, the direct
//!   per-thread handle path (the `run_trial` loop of `synchro`);
//! * **batched** — the same op stream grouped into 64-operation batches
//!   published to the NUMA-local flat-combining executor
//!   ([`BatchedLayeredMap`]).
//!
//! Writes `BENCH_3.json` at the workspace root (`BENCH_OUT` overrides)
//! with median-of-3 ops/s for both modes of both lanes, nodes/search
//! from instrumented companion trials, the combiner's mean batch size,
//! and the mean hint-hit distance. With `--check` the process exits
//! non-zero unless, on the sparse lane, batched throughput is ≥ 1.3×
//! unbatched *and* the batched path cuts nodes/search by ≥ 25% — the CI
//! `bench-smoke` batch lane runs this.

use bench::gate::{self, Cli, Gate, Json};
use instrument::{AccessStats, ThreadCounterSnapshot, ThreadCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{BatchConfig, BatchOp, BatchedLayeredMap, GraphConfig, LayeredHandle, LayeredMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use synchro::Zipf;

const THREADS: usize = 8;
const KEY_SPACE: u64 = 1 << 14;
const ZIPF_ALPHA: f64 = 0.99;
const UPDATE_RATIO: f64 = 0.5;
const PRELOAD_FRACTION: f64 = 0.2;
const BATCH: usize = 64;
const TRIALS: usize = 3;
const TRIAL_LEN: Duration = Duration::from_millis(150);
const MIN_SPEEDUP: f64 = 1.3;
const MIN_NODES_REDUCTION: f64 = 0.25;

fn config(sparse: bool) -> GraphConfig {
    let cap = ((KEY_SPACE as usize / THREADS) * 2).clamp(1 << 10, 1 << 16);
    GraphConfig::new(THREADS)
        .lazy(!sparse)
        .sparse(sparse)
        .chunk_capacity(cap)
}

fn batch_config() -> BatchConfig {
    // Two synthetic slot banks: on the paper's real machines this would be
    // `BatchConfig::from_placement`, but the smoke must exercise the
    // cross-slot combining protocol even on the single-node CI host.
    BatchConfig::uniform(THREADS, 2)
}

/// The smoke's key draw: Zipf ranks scattered over the ordered key space
/// (an odd multiplier is a bijection modulo the power-of-two space), same
/// as `synchro::run_trial`.
fn draw_key(zipf: &Zipf, rng: &mut SmallRng) -> u64 {
    zipf.sample(rng).wrapping_mul(0x9E37_79B1) % KEY_SPACE
}

fn preload_target() -> u64 {
    (KEY_SPACE as f64 * PRELOAD_FRACTION) as u64
}

/// The measured mix: 50% updates as matched insert/remove churn (an
/// update removes the key the previous update inserted), 50%
/// membership probes.
fn next_op(zipf: &Zipf, rng: &mut SmallRng, last_inserted: &mut Option<u64>) -> BatchOp<u64, u64> {
    let p: f64 = rng.gen();
    if p < UPDATE_RATIO {
        match last_inserted.take() {
            None => {
                let k = draw_key(zipf, rng);
                *last_inserted = Some(k);
                BatchOp::Insert(k, k)
            }
            Some(k) => BatchOp::Remove(k),
        }
    } else {
        BatchOp::Get(draw_key(zipf, rng))
    }
}

/// One trial of either mode. Every thread preloads (Zipf-drawn inserts
/// until the shared cardinality target, warming its own local structures
/// exactly as the per-op smoke does), then runs the measured mix until the
/// deadline; `batch` groups the stream into combiner publications.
/// Returns completed operations.
fn run_trial(batched: bool, sparse: bool, stats: Option<&Arc<AccessStats>>) -> u64 {
    let unbatched_map; // keep whichever map alive for the scope below
    let batched_map;
    let (plain, combined) = if batched {
        batched_map = BatchedLayeredMap::<u64, u64>::new(config(sparse), batch_config());
        (None, Some(&batched_map))
    } else {
        unbatched_map = LayeredMap::<u64, u64>::new(config(sparse));
        (Some(&unbatched_map), None)
    };
    let preloaded = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        (0..THREADS as u16)
            .map(|t| {
                let (preloaded, barrier) = (&preloaded, &barrier);
                let ctx = match stats {
                    Some(st) => ThreadCtx::recording(t, Arc::clone(st)),
                    None => ThreadCtx::plain(t),
                };
                s.spawn(move || {
                    let zipf = Zipf::new(KEY_SPACE, ZIPF_ALPHA);
                    let mut rng = SmallRng::seed_from_u64(0x5eed ^ ((t as u64 + 1) * 0x9E37));
                    let mut ops = 0u64;
                    let mut last_inserted: Option<u64> = None;
                    // Preload through the direct per-thread path in both
                    // modes, so worker-local structures start equally warm.
                    let mut preload = |h: &mut LayeredHandle<'_, u64, u64>| {
                        while preloaded.load(Ordering::Relaxed) < preload_target() {
                            let k = draw_key(&zipf, &mut rng);
                            if h.insert(k, k) {
                                preloaded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        barrier.wait();
                        Instant::now() + TRIAL_LEN
                    };
                    if let Some(m) = combined {
                        let mut h = m.register(ctx);
                        let deadline = preload(h.direct());
                        while Instant::now() < deadline {
                            let batch = (0..BATCH)
                                .map(|_| next_op(&zipf, &mut rng, &mut last_inserted))
                                .collect();
                            ops += h.execute_batch(batch).len() as u64;
                        }
                    } else {
                        let mut h = plain.unwrap().register(ctx);
                        let deadline = preload(&mut h);
                        while Instant::now() < deadline {
                            // Check the clock once per 32 ops, not per op.
                            for _ in 0..32 {
                                match next_op(&zipf, &mut rng, &mut last_inserted) {
                                    BatchOp::Insert(k, v) => {
                                        if !h.insert(k, v) {
                                            last_inserted = None;
                                        }
                                    }
                                    BatchOp::Remove(k) => {
                                        let _ = h.remove(&k);
                                    }
                                    BatchOp::Get(k) => {
                                        let _ = h.contains(&k);
                                    }
                                }
                                ops += 1;
                            }
                        }
                    }
                    ops
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .sum()
    })
}

/// One mode of one lane: median ops/s over `TRIALS` fresh trials, then
/// one instrumented companion trial's counters (recording slows the
/// trial down, so it does not contribute to ops/s).
fn run_mode(batched: bool, sparse: bool) -> (f64, ThreadCounterSnapshot) {
    let ops_per_s = gate::median(
        (0..TRIALS).map(|_| run_trial(batched, sparse, None) as f64 / TRIAL_LEN.as_secs_f64()),
    );
    let stats = AccessStats::new(THREADS);
    let _ = run_trial(batched, sparse, Some(&stats));
    (ops_per_s, stats.totals())
}

fn nodes_per_search(t: &ThreadCounterSnapshot) -> f64 {
    t.traversed as f64 / t.searches.max(1) as f64
}

/// Runs both modes of one lane, lane-at-a-time; returns the lane's JSON
/// row and its (speedup, nodes/search reduction).
fn run_lane(name: &str, sparse: bool) -> (Json, f64, f64) {
    let (un_ops, un) = run_mode(false, sparse);
    eprintln!(
        "[{name}] unbatched: {un_ops:>12.0} ops/s, {:>6.2} nodes/search",
        nodes_per_search(&un)
    );
    let (ba_ops, ba) = run_mode(true, sparse);
    let mean_batch = ba.batched_ops as f64 / ba.batches.max(1) as f64;
    let hint_distance = ba.hinted_traversed as f64 / ba.hinted_searches.max(1) as f64;
    eprintln!(
        "[{name}]   batched: {ba_ops:>12.0} ops/s, {:>6.2} nodes/search, mean batch \
         {mean_batch:.1}, hint-hit distance {hint_distance:.2}",
        nodes_per_search(&ba)
    );
    let speedup = ba_ops / un_ops;
    let nodes_reduction = 1.0 - nodes_per_search(&ba) / nodes_per_search(&un);
    eprintln!(
        "[{name}] speedup {speedup:.2}x, nodes/search reduction {:.0}%",
        nodes_reduction * 100.0
    );
    let json = Json::new()
        .obj(
            "unbatched",
            Json::new().num("ops_per_s", un_ops, 0).num(
                "nodes_per_search",
                nodes_per_search(&un),
                2,
            ),
        )
        .obj(
            "batched",
            Json::new()
                .num("ops_per_s", ba_ops, 0)
                .num("nodes_per_search", nodes_per_search(&ba), 2)
                .num("mean_batch", mean_batch, 1)
                .num("hint_hit_distance", hint_distance, 2),
        )
        .num("speedup", speedup, 2)
        .num("nodes_per_search_reduction", nodes_reduction, 2);
    (json, speedup, nodes_reduction)
}

fn main() {
    let cli = Cli::parse(&[]);

    eprintln!(
        "# bench_batch: mc-wh + zipf({ZIPF_ALPHA}), {THREADS} threads, batch {BATCH}, \
         median of {TRIALS} x {TRIAL_LEN:?}"
    );

    let (sparse, speedup, nodes_reduction) = run_lane("sparse", true);
    let (lazy, _, _) = run_lane("lazy", false);

    let json = Json::new()
        .str("bench", "batch_combining_smoke")
        .raw("threads", THREADS)
        .raw("zipf_alpha", ZIPF_ALPHA)
        .raw("batch_size", BATCH)
        .obj("lanes", Json::new().obj("sparse", sparse).obj("lazy", lazy))
        .str("gate_lane", "sparse")
        .num("speedup", speedup, 2)
        .num("nodes_per_search_reduction", nodes_reduction, 2);
    let gates = [
        Gate::at_least("[sparse] batched speedup", speedup, MIN_SPEEDUP),
        Gate::at_least(
            "[sparse] nodes/search reduction",
            nodes_reduction,
            MIN_NODES_REDUCTION,
        ),
    ];
    gate::finish("BENCH_3.json", &json, &gates, cli.check);
}
