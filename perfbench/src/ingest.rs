//! The `blocked` subject and the `ingest_scan` workload.
//!
//! Subject: `GraphConfig::new(2).max_level(7).sparse(true).hash_index(true)
//! .reclaim(true).adapt(AdaptConfig::new())` under `BlockedSkipMap::new(cfg,
//! 8)`. Capacity 8 is the best of the block-capacity sweep. The tall sparse
//! anchor towers are what `bench_block` and `bench_anchor` use: at the
//! default height for a few threads (one or two levels) the anchor list
//! degenerates into a linked list, and a 100k-key preload took about ten
//! times longer.
//!
//! Each client owns the keys `BASE + 2·seq + client`: two producers stamping
//! events with one clock, `seq` being the event time. A write is one
//! `execute_batch` of [`BATCH`] ascending inserts, starting at the later of
//! the client's next time and the newest time either client has used, plus
//! removes of the client's oldest batch, so each client keeps a live window
//! of [`WINDOW`] keys. A read is a range scan over the client's newest
//! [`SPAN`] keys. The shared clock keeps the two streams interleaved key by
//! key; with a private clock per client, one client settled a whole window
//! ahead of the other, the two windows stopped overlapping, and throughput
//! moved by more than a quarter between runs.

use crate::gen::{self, Rng};
use crate::harness::{
    client_loop, drive, pin, Clock, Counts, Kind, Mode, ModelCalls, Phases, CLIENTS,
};
use crate::report::{SubRun, Telemetry};
use instrument::time::cycles;
use instrument::{AccessStats, ThreadCtx};
use skipgraph::{AdaptConfig, BatchOp, BlockedHandle, BlockedOutcome, BlockedSkipMap, GraphConfig};
use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

const CAP: usize = 8;
const BATCH: u64 = 32;
const WINDOW: u64 = 1 << 15;
const SPAN: u64 = 256;
const READ_PCT: u64 = 20;
/// Warm-up turns every client's window over once before settling.
const MIN_WARM_OPS: u64 = 2 * CLIENTS as u64 * WINDOW;
const MODEL: ModelCalls = ModelCalls {
    warm: 2 * WINDOW / BATCH,
    counted: 4000,
};
/// First event time: fixed, so the key set does not move with the seed.
const BASE: u64 = 1 << 40;

type Map = BlockedSkipMap<u64, u64>;
type Handle<'m> = BlockedHandle<'m, u64, u64>;

fn subject() -> Map {
    let cfg = GraphConfig::new(CLIENTS)
        .max_level(7)
        .sparse(true)
        .hash_index(true)
        .reclaim(true)
        .adapt(AdaptConfig::new());
    BlockedSkipMap::new(cfg, CAP)
}

/// One client's stream position and outcome tally.
struct Client<'a> {
    c: u64,
    rng: Rng,
    /// The newest event time either client has used.
    clock: &'a AtomicU64,
    /// First event time of each live batch, oldest first.
    live: VecDeque<u64>,
    /// The time after this client's newest batch.
    next: u64,
    attempted: u64,
    failed: u64,
}

impl Client<'_> {
    fn key(&self, seq: u64) -> u64 {
        BASE + 2 * seq + self.c
    }

    fn batch_keys(&self, start: u64) -> impl Iterator<Item = u64> + '_ {
        (start..start + BATCH).map(|s| self.key(s))
    }

    /// Appends the next batch, expiring the oldest batch once the window
    /// is full; every outcome is known in advance.
    fn write(&mut self, h: &mut Handle) -> u64 {
        let start = self.next.max(self.clock.load(Relaxed));
        let mut ops = Vec::with_capacity(2 * BATCH as usize);
        ops.extend(
            self.batch_keys(start)
                .map(|k| BatchOp::Insert(k, gen::value_of(k))),
        );
        if self.live.len() as u64 >= WINDOW / BATCH {
            let oldest = self.live.pop_front().expect("the window is full");
            ops.extend(self.batch_keys(oldest).map(BatchOp::Remove));
        }
        let n = ops.len() as u64;
        let out = h.execute_batch(ops);
        let bad = out
            .iter()
            .enumerate()
            .filter(|(i, o)| {
                let want = if (*i as u64) < BATCH {
                    BlockedOutcome::Inserted(true)
                } else {
                    BlockedOutcome::Removed(true)
                };
                **o != want
            })
            .count();
        self.failed += bad as u64;
        self.attempted += n;
        self.live.push_back(start);
        self.next = start + BATCH;
        self.clock.fetch_max(self.next, Relaxed);
        n
    }

    /// This client's live keys in `lo..=hi`, ascending.
    fn own_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .live
            .iter()
            .rev()
            .take_while(|&&b| self.key(b + BATCH - 1) >= lo)
            .flat_map(|&b| self.batch_keys(b))
            .filter(|k| (lo..=hi).contains(k))
            .collect();
        own.sort_unstable();
        own
    }

    /// Scans the newest `SPAN` keys: strictly ascending, inside the
    /// bounds, values intact, and every live key of this client's own in
    /// the span present (only this client removes them).
    fn scan(&mut self, map: &Map, h: &Handle) {
        let hi = self.key(self.next - 1);
        let lo = hi.saturating_sub(SPAN - 1).max(BASE);
        let own = self.own_keys(lo, hi);
        let mut seen = 0;
        let mut prev = None;
        let mut ok = true;
        for (k, v) in map.range(Bound::Included(&lo), Bound::Included(hi), h.ctx()) {
            ok &= k >= lo && k <= hi && prev.is_none_or(|p| k > p) && v == gen::value_of(k);
            prev = Some(k);
            if (k - BASE) % 2 == self.c {
                ok &= own.get(seen) == Some(&k);
                seen += 1;
            }
        }
        ok &= seen == own.len();
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn call(&mut self, map: &Map, h: &mut Handle) -> (Kind, u64) {
        if self.rng.below(100) < READ_PCT {
            self.scan(map, h);
            (Kind::Read, 1)
        } else {
            (Kind::Write, self.write(h))
        }
    }
}

/// Reads the map's public telemetry: blocks, index, reclamation and the
/// ascending-split controller.
fn telemetry(map: &Map) -> Telemetry {
    let ctx = ThreadCtx::plain(0);
    let bs = map.stats(&ctx);
    let g = map.shared();
    let ms = g.memory_stats(&ctx);
    let asc = map.asc_state().expect("the subject is adaptive");
    let mut t = Telemetry {
        live_keys: bs.entries as u64,
        index_bytes: ms.index_bytes as u64,
        index_probe_grows: g.index_probe_grows() as u64,
        limbo_nodes: ms.limbo_nodes as u64,
        bytes_per_key: bs.bytes_per_key,
        asc_switches: asc.switches,
        asc_engaged: asc.engaged,
        anchors: bs.anchors as u64,
        block_entries: bs.entries as u64,
        block_cap: CAP as u64,
        batch_keys: 2 * BATCH,
        ..Telemetry::default()
    };
    for seg in g.index_occupancy() {
        t.index_entries += seg.entries as u64;
        t.index_capacity += seg.capacity as u64;
        t.index_probe_sum += seg.entries as f64 * seg.mean_probe();
    }
    t
}

/// One set-up of the subject followed by `mode`'s phase, then the checks.
pub fn sub_run(seed: u64, sub: u64, mode: Mode, window: Duration, clock: Clock) -> SubRun {
    let started = cycles();
    let t0 = Instant::now();
    let map = subject();
    let build_s = t0.elapsed().as_secs_f64();
    let stats = mode.recording().then(|| AccessStats::new(CLIENTS));
    let ph = Phases::new(clock);
    let event_clock = AtomicU64::new(0);
    let mut counts = None;
    let mut tele = Telemetry::default();
    let preload_start = Instant::now();
    let (d, clients) = std::thread::scope(|sc| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (map, ph, stats, event_clock) = (&map, &ph, stats.clone(), &event_clock);
                sc.spawn(move || {
                    let pinned = pin(c);
                    let ctx = match stats {
                        Some(s) => ThreadCtx::recording(c as u16, s),
                        None => ThreadCtx::plain(c as u16),
                    };
                    let mut h = map.register(ctx);
                    let mut cl = Client {
                        c: c as u64,
                        rng: Rng::new(gen::derive(seed, 16 * sub + 1 + c as u64)),
                        clock: event_clock,
                        live: VecDeque::new(),
                        next: 0,
                        attempted: 0,
                        failed: 0,
                    };
                    while (cl.live.len() as u64) < WINDOW / BATCH {
                        ph.step(mode, c, || cl.write(&mut h));
                    }
                    let samples = client_loop(ph, c, mode, MODEL, || cl.call(map, &mut h));
                    (cl, samples, pinned)
                })
            })
            .collect();
        let d = drive(
            &ph,
            mode,
            preload_start,
            MIN_WARM_OPS,
            || map.asc_state().map(|a| a.switches),
            || stats.as_ref().map(|s| Counts::of(s)),
            window,
            |base| {
                counts = stats
                    .as_ref()
                    .zip(base)
                    .map(|(s, b)| Counts::of(s).minus(&b));
                tele = telemetry(&map);
            },
        );
        let clients: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        (d, clients)
    });

    // Correctness: the map holds exactly both clients' live windows.
    let mut attempted = 0;
    let mut failed = 0;
    let mut expected = Vec::new();
    for (cl, _, _) in &clients {
        attempted += cl.attempted;
        failed += cl.failed;
        expected.extend(cl.live.iter().flat_map(|&b| cl.batch_keys(b)));
    }
    expected.sort_unstable();
    let ctx = ThreadCtx::plain(0);
    let found: Vec<u64> = map.iter(&ctx).map(|(k, _)| k).collect();
    if found != expected {
        let missing = expected
            .iter()
            .filter(|k| found.binary_search(k).is_err())
            .count();
        let extra = found
            .iter()
            .filter(|k| expected.binary_search(k).is_err())
            .count();
        failed += (missing + extra).max(1) as u64;
    }
    if let Err(e) = map.check_invariants(&ctx) {
        eprintln!("blocked map: {e}");
        failed += 1;
    }
    SubRun {
        mode,
        started,
        build_s,
        preload_s: d.preload_s,
        warmup_s: d.warmup_s,
        settled: d.settled,
        pinned: clients.iter().filter(|(_, _, p)| *p).count(),
        attempted,
        failed,
        counts,
        tele,
        samples: clients.into_iter().map(|(_, s, _)| s).collect(),
    }
}
