//! The `replicated` subject and the `kv_read_mostly` workload: 95% point
//! reads over a skewed key set small enough that both replicas stay
//! cache-resident — the index fast path, the NR read rule and log replay.
//!
//! Subject: `GraphConfig::new(2).lazy(true).hash_index(true).reclaim(true)`
//! under `ReplicaConfig::uniform(2, 2).adapt(AdaptConfig::new())` — the
//! fullest composed stack: one replica per synthetic socket (one socket per
//! client), the sensed replication mode, and log replay through the batch
//! layer's sorted-run path. The paper's default height for two threads
//! (one level) is kept: the per-thread local structures are what jump a
//! search to its key.

use crate::gen::{self, Rng, Zipf};
use crate::harness::{
    client_loop, drive, pin, Clock, Counts, Kind, Mode, ModelCalls, Phases, Samples, CLIENTS,
};
use crate::report::{SubRun, Telemetry};
use instrument::time::cycles;
use instrument::{AccessStats, ThreadCtx};
use skipgraph::{
    AdaptConfig, AdaptSnapshot, GraphConfig, ReplicaConfig, ReplicatedHandle, ReplicatedLayeredMap,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The key space is `0..2^KEY_BITS` (before scrambling): 2^16 keys, half
/// preloaded, small enough that both replicas stay cache-resident.
const KEY_BITS: u32 = 16;
const N: u64 = 1 << KEY_BITS;
/// Percentage of calls that are point reads; the rest are inserts and
/// removes in equal shares.
const READ_PCT: u64 = 95;
/// Warm-up operations (both clients) before the settle test may pass.
const MIN_WARM_OPS: u64 = 800_000;
/// Calls per client in the lockstep model sub-run.
const MODEL: ModelCalls = ModelCalls {
    warm: 450_000,
    counted: 500_000,
};

type Map = ReplicatedLayeredMap<u64, u64>;
type Handle<'m> = ReplicatedHandle<'m, u64, u64>;

fn subject() -> Map {
    ReplicatedLayeredMap::new(
        GraphConfig::new(CLIENTS)
            .lazy(true)
            .hash_index(true)
            .reclaim(true),
        ReplicaConfig::uniform(CLIENTS, 2).adapt(AdaptConfig::new()),
    )
}

/// The key set — which indices exist, where they land in key order, which
/// are preloaded — and how calls pick them (Zipf(0.99) ranks). The key set
/// is fixed; the seed drives the call streams. (With a seeded key set, the
/// few hottest Zipf keys hashed onto different logs and index segments
/// from seed to seed, and the modeled cost moved between two levels 40%
/// apart.)
pub struct Inputs {
    salt: u64,
    zipf: Zipf,
}

impl Inputs {
    pub fn new() -> Self {
        Self {
            salt: gen::derive(u64::from(KEY_BITS), 0),
            zipf: Zipf::new(N as usize, 0.99),
        }
    }

    /// Index → key: a bijection that scatters hot ranks over the key order.
    fn key(&self, idx: u64) -> u64 {
        gen::mix(idx ^ self.salt)
    }

    fn preloaded(&self, idx: u64) -> bool {
        gen::mix(idx.wrapping_add(self.salt)) & 1 == 0
    }
}

/// One client's generator and its ledger of successful updates per key.
struct Client {
    rng: Rng,
    ledger: Vec<i32>,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            ledger: vec![0; N as usize],
            attempted: 0,
            failed: 0,
        }
    }

    /// Inserts this client's share of the preloaded keys.
    fn preload(&mut self, h: &mut Handle, inp: &Inputs, ph: &Phases, mode: Mode, c: usize) {
        for idx in (c as u64..N).step_by(CLIENTS) {
            ph.step(mode, c, || self.preload_one(h, inp, idx));
        }
    }

    fn preload_one(&mut self, h: &mut Handle, inp: &Inputs, idx: u64) {
        if !inp.preloaded(idx) {
            return;
        }
        let k = inp.key(idx);
        self.attempted += 1;
        if h.insert(k, gen::value_of(k)) {
            self.ledger[idx as usize] += 1;
        } else {
            self.failed += 1; // a fresh map holds no key yet
        }
    }

    fn call(&mut self, h: &mut Handle, inp: &Inputs) -> (Kind, u64) {
        let idx = inp.zipf.sample(&mut self.rng);
        let k = inp.key(idx);
        let r = self.rng.next_u64();
        self.attempted += 1;
        if r % 100 < READ_PCT {
            if r >> 63 == 0 {
                black_box(h.contains(&k));
            } else if let Some(v) = h.get(&k) {
                // Every insert of `k` stores `value_of(k)`.
                self.failed += u64::from(v != gen::value_of(k));
            }
            (Kind::Read, 1)
        } else {
            if r >> 63 == 0 {
                if h.insert(k, gen::value_of(k)) {
                    self.ledger[idx as usize] += 1;
                }
            } else if h.remove(&k) {
                self.ledger[idx as usize] -= 1;
            }
            (Kind::Write, 1)
        }
    }
}

/// What a client thread hands back when its sub-run ends.
struct Finished {
    client: Client,
    samples: Samples,
    pinned: bool,
    /// Membership of every key, as this client's socket reads it.
    present: Vec<bool>,
    sync_ns: f64,
}

/// `None` while a replication transition is in flight, else the count of
/// completed transitions.
fn fingerprint(map: &Map) -> Option<u64> {
    let a = map.adapt_state().expect("the subject is adaptive");
    matches!(a.mode, "replicated" | "single").then_some(a.downshifts + a.upshifts)
}

/// Reads the map's public telemetry: footprint and index state over every
/// replica, and the transitions since `setup`.
fn telemetry(map: &Map, setup: &AdaptSnapshot) -> Telemetry {
    let end = map.adapt_state().expect("the subject is adaptive");
    let ctx = ThreadCtx::plain(0);
    let mut t = Telemetry {
        downshifts: setup.downshifts,
        upshifts: setup.upshifts,
        measured_transitions: end.downshifts + end.upshifts - setup.downshifts - setup.upshifts,
        ..Telemetry::default()
    };
    let mut allocated = 0;
    for r in map.replicas() {
        let g = r.shared();
        let ms = g.memory_stats(&ctx);
        allocated += ms.allocated_bytes;
        t.index_bytes += ms.index_bytes as u64;
        t.limbo_nodes += ms.limbo_nodes as u64;
        t.index_probe_grows += g.index_probe_grows() as u64;
        for seg in g.index_occupancy() {
            t.index_entries += seg.entries as u64;
            t.index_capacity += seg.capacity as u64;
            t.index_probe_sum += seg.entries as f64 * seg.mean_probe();
        }
    }
    // Carved node-slot and index bytes over every replica per live key.
    // Replica 0 holds every completed write in either mode (in replicated
    // mode it may trail the log head by a few slots).
    let live = map.replicas()[0].shared().memory_stats(&ctx).live;
    t.bytes_per_key = allocated as f64 / live.max(1) as f64;
    t
}

/// One set-up of the subject followed by `mode`'s phase, then the checks.
pub fn sub_run(
    inp: &Inputs,
    seed: u64,
    sub: u64,
    mode: Mode,
    window: Duration,
    clock: Clock,
) -> SubRun {
    let started = cycles();
    let t0 = Instant::now();
    let map = subject();
    let build_s = t0.elapsed().as_secs_f64();
    let stats = mode.recording().then(|| AccessStats::new(CLIENTS));
    let ph = Phases::new(clock);
    let mut counts = None;
    let mut tele = Telemetry::default();
    let preload_start = Instant::now();
    let (d, clients) = std::thread::scope(|sc| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (map, ph, stats) = (&map, &ph, stats.clone());
                sc.spawn(move || {
                    let pinned = pin(c);
                    let ctx = match stats {
                        Some(s) => ThreadCtx::recording(c as u16, s),
                        None => ThreadCtx::plain(c as u16),
                    };
                    let mut h = map.register(ctx);
                    let mut cl = Client::new(gen::derive(seed, 16 * sub + 1 + c as u64));
                    cl.preload(&mut h, inp, ph, mode, c);
                    let samples = client_loop(ph, c, mode, MODEL, || cl.call(&mut h, inp));
                    // Final membership of every key, as this client's own
                    // socket reads it: in replicated mode each replica is
                    // checked against the whole ledger.
                    let t = Instant::now();
                    h.sync();
                    let sync_ns = t.elapsed().as_nanos() as f64;
                    let present: Vec<bool> = (0..N).map(|i| h.contains(&inp.key(i))).collect();
                    Finished {
                        client: cl,
                        samples,
                        pinned,
                        present,
                        sync_ns,
                    }
                })
            })
            .collect();
        let d = drive(
            &ph,
            mode,
            preload_start,
            MIN_WARM_OPS,
            || fingerprint(&map),
            || {
                let setup = map.adapt_state().expect("the subject is adaptive");
                (setup, stats.as_ref().map(|s| Counts::of(s)))
            },
            window,
            |(setup, base)| {
                counts = stats
                    .as_ref()
                    .zip(base)
                    .map(|(s, b)| Counts::of(s).minus(&b));
                tele = telemetry(&map, &setup);
            },
        );
        let clients: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        (d, clients)
    });

    // Correctness: per key, preload + successful inserts - successful
    // removes is 0 or 1 and equals the membership every client read after
    // `sync()`.
    let attempted = clients.iter().map(|f| f.client.attempted).sum();
    let mut failed = clients.iter().map(|f| f.client.failed).sum();
    tele.sync_ns = clients[0].sync_ns;
    for i in 0..N as usize {
        let net: i32 = clients.iter().map(|f| f.client.ledger[i]).sum();
        if !(0..=1).contains(&net) || clients.iter().any(|f| f.present[i] != (net == 1)) {
            failed += 1;
        }
        tele.live_keys += u64::from(net == 1);
    }
    for (r, replica) in map.replicas().iter().enumerate() {
        if let Err(e) = replica.shared().check_invariants() {
            eprintln!("replica {r}: {e}");
            failed += 1;
        }
    }
    SubRun {
        mode,
        started,
        build_s,
        preload_s: d.preload_s,
        warmup_s: d.warmup_s,
        settled: d.settled,
        pinned: clients.iter().filter(|f| f.pinned).count(),
        attempted,
        failed,
        counts,
        tele,
        samples: clients.into_iter().map(|f| f.samples).collect(),
    }
}
