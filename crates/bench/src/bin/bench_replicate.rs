//! `bench_replicate`: the per-socket replication ablation — the
//! replicated layered map (one replica per synthetic socket, reads
//! served replica-locally under the NR read rule, writes through
//! membership-vector-partitioned operation logs) versus the same
//! workload on the single-structure flat-combining batched path the
//! replicas replay through.
//!
//! # What is gated
//!
//! The machine running this gate has no NUMA topology (CI containers
//! are single-socket), so wall-clock throughput cannot see what
//! replication buys; what it *can* see — the repo's Table-1/Table-2
//! idiom — is every shared-node line touch, attributed to the owning
//! socket by the instrumentation layer. The gate is therefore on
//! **NUMA-modeled throughput**: operations per modeled line-cost,
//! where a local line access costs 1 unit and a remote one
//! [`REMOTE_COST`] units (a cross-socket cache-line transfer against a
//! local LLC hit — the factor is explicit in the JSON, so the model is
//! reproducible). Replica nodes are owner-tagged to their socket
//! (`GraphConfig::owner_tag`), and replayed work is charged to the
//! replaying thread, so helping a lagging remote replica is priced as
//! the cross-socket traffic it would be on hardware. Wall-clock ops/s
//! are reported per lane as well, ungated (they measure this host's
//! scheduler, not the design).
//!
//! # Lanes and phases
//!
//! Both lanes carry identical graph geometry (lazy + shared hash
//! index) and the same round-robin preload. Four measurement handles —
//! one per synthetic socket, plus a preloader slot — issue operations
//! in a fair round-robin interleave from a single driver thread, so
//! each socket performs its own combining and replica replay exactly as
//! concurrent per-socket threads would on real hardware (free-running
//! threads on this host would instead funnel all of that work through
//! whichever thread holds the CPU, polluting the attribution; see
//! `bench::gate::Sockets::interleave`):
//!
//! * **read-heavy** — 90% Zipf(0.99) membership reads over the
//!   preload, 10% insert/remove churn on private keys. A replicated
//!   read resolves entirely in the socket's replica; a batched read
//!   descends the single shared structure whose nodes are ~3/4
//!   remote to any reader. Gate: modeled throughput ratio
//!   ≥ [`MIN_READ_RATIO`].
//! * **pure-write** — insert/remove pairs on private ranges. The
//!   replicated lane pays every update once per replica (4x the
//!   applies, mostly socket-local, amortized by batch replay through
//!   the combiner's sorted-run path) against the batched lane's single
//!   mostly-remote apply. Gate: ratio ≥ [`MIN_WRITE_RATIO`].
//!
//! Trials are paired with lane order alternating inside each pair and
//! the gates take the median per-pair ratio (`bench_point` idiom).
//! Writes `BENCH_8.json` at the workspace root (`BENCH_OUT`
//! overrides); with `--check` the process exits non-zero when a gate
//! fails.

use bench::gate::{self, key, Cli, Gate, Json, Measure, Sockets, LOGS, REMOTE_COST};
use instrument::AccessStats;
use skipgraph::{BatchConfig, BatchedLayeredMap, ConcurrentMap, MapHandle, ReplicatedLayeredMap};
use synchro::Zipf;

/// Preloaded keys: enough that replica structures have real depth.
const KEYS: u64 = 20_000;
/// Read-heavy-phase operations per thread per trial.
const OPS: u64 = 20_000;
/// Pure-write-phase operations per thread per trial.
const WRITE_OPS: u64 = 8_000;
const TRIALS: usize = 3;
const WRITE_TRIALS: usize = 3;
/// YCSB-style skew.
const ZIPF_ALPHA: f64 = 0.99;
/// Synthetic sockets (replicas) — the acceptance geometry. Also the
/// measurement thread count: one reader/writer pinned per socket.
const SOCKETS: Sockets = Sockets(4);

const MIN_READ_RATIO: f64 = 2.0;
const MIN_WRITE_RATIO: f64 = 0.85;

/// Builds one lane, preloads it round-robin across every slot (so
/// single-structure node ownership spreads over all sockets), converges
/// the replicas, and measures one phase on it.
fn run_lane(replicated: bool, write: bool) -> Measure {
    if replicated {
        let map = ReplicatedLayeredMap::new(SOCKETS.graph_config(), SOCKETS.replica_config());
        gate::preload(&map, SOCKETS.slots(), KEYS);
        SOCKETS.sync(&map);
        measure(&map, write)
    } else {
        // One combining bank: the canonical single-structure
        // flat-combining configuration. (Per-socket bank partitioning is
        // itself a NUMA optimization from the same family as replication
        // — giving it to the baseline would measure partitioning against
        // partitioning, not replication against the single shared
        // structure.)
        let batch = BatchConfig::uniform(SOCKETS.slots(), 1);
        let map = BatchedLayeredMap::new(SOCKETS.graph_config(), batch);
        gate::preload(&map, SOCKETS.slots(), KEYS);
        measure(&map, write)
    }
}

/// One timed phase over the Zipf population. Read-heavy: 90% membership
/// reads, 10% updates (alternating remove/re-insert) — the NR-style
/// update mix, where writes mutate existing keys through the lazy
/// valid-bit protocol rather than growing the structure. Pure-write:
/// 100% updates of the same shape.
fn measure<M: ConcurrentMap<u64, u64>>(map: &M, write: bool) -> Measure {
    let zipf = Zipf::new(KEYS, ZIPF_ALPHA);
    let stats = AccessStats::new(SOCKETS.slots());
    let (seed, rounds) = if write {
        (0xABCD_EF01, WRITE_OPS)
    } else {
        (0x1234_5678, OPS)
    };
    let ops_per_s = SOCKETS.interleave(map, Some(&stats), seed, rounds, |h, rng, i| {
        let k = key(zipf.sample(rng));
        let update = if write {
            Some(i % 2 == 0)
        } else {
            (i % 10 == 9).then_some((i / 10) % 2 == 0)
        };
        match update {
            Some(true) => h.remove(&k),
            Some(false) => h.insert(k, i),
            None => h.contains(&k),
        };
    });
    SOCKETS.measure(&stats, ops_per_s, SOCKETS.0 as u64 * rounds)
}

/// Paired trials of one phase (lane 0 batched, lane 1 replicated): the
/// median per-pair modeled ratio (`bench_point` idiom: one noisy pair
/// skews one sample, and the median absorbs it) and each lane's trial
/// with the median cost (counts are near-deterministic; any trial is
/// representative).
fn phase(label: &str, trials: usize, write: bool) -> (f64, [Measure; 2]) {
    let pairs = gate::paired::<_, 2>(trials, |lane, _| run_lane(lane == 1, write));
    for (trial, [b, r]) in pairs.iter().enumerate() {
        eprintln!(
            "  {label} trial {trial}: batched {:>6.1} lines/op ({:>4.1}% local), replicated \
             {:>6.1} lines/op ({:>4.1}% local) -> modeled {:.2}x",
            b.lines(),
            b.locality() * 100.0,
            r.lines(),
            r.locality() * 100.0,
            b.cost() / r.cost(),
        );
    }
    let pick = |lane: usize| {
        let mut v: Vec<Measure> = pairs.iter().map(|p| p[lane]).collect();
        v.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
        v[v.len() / 2]
    };
    (
        gate::median(pairs.iter().map(|[b, r]| b.cost() / r.cost())),
        [pick(0), pick(1)],
    )
}

fn main() {
    let cli = Cli::parse(&[]);

    eprintln!(
        "# bench_replicate: {KEYS} keys, Zipf({ZIPF_ALPHA}) 90/10 reads, {} threads x {OPS} ops, \
         {} synthetic sockets x {LOGS} logs, remote line = {REMOTE_COST}x local, median of \
         {TRIALS}",
        SOCKETS.0, SOCKETS.0
    );

    let (read_ratio, read) = phase("read", TRIALS, false);
    let (write_ratio, write) = phase("write", WRITE_TRIALS, true);
    let mut lanes = Json::new();
    for (i, name) in ["batched_single", "replicated"].into_iter().enumerate() {
        let (r, w) = (read[i], write[i]);
        eprintln!(
            "[{name}] read {:>6.1} lines/op ({:>4.1}% local, cost {:>6.1}) | write {:>6.1} \
             lines/op ({:>4.1}% local, cost {:>6.1})",
            r.lines(),
            r.locality() * 100.0,
            r.cost(),
            w.lines(),
            w.locality() * 100.0,
            w.cost(),
        );
        lanes = lanes.obj(
            name,
            Json::new()
                .num("read_ops_per_s", r.ops_per_s, 0)
                .num("write_ops_per_s", w.ops_per_s, 0)
                .num("read_lines_per_op", r.lines(), 2)
                .num("read_locality", r.locality(), 3)
                .num("read_modeled_cost", r.cost(), 2)
                .num("write_lines_per_op", w.lines(), 2)
                .num("write_locality", w.locality(), 3)
                .num("write_modeled_cost", w.cost(), 2),
        );
    }

    let json = Json::new()
        .str("bench", "replicate_smoke")
        .raw("threads", SOCKETS.0)
        .raw("sockets", SOCKETS.0)
        .raw("logs", LOGS)
        .raw("keys", KEYS)
        .raw("zipf_alpha", ZIPF_ALPHA)
        .raw("ops_per_thread", OPS)
        .raw("remote_cost_factor", REMOTE_COST)
        .obj("lanes", lanes)
        .num("read_ratio", read_ratio, 2)
        .num("write_ratio", write_ratio, 2);
    let gates = [
        Gate::at_least(
            "modeled read throughput replicated / batched",
            read_ratio,
            MIN_READ_RATIO,
        ),
        Gate::at_least(
            "modeled write throughput replicated / batched",
            write_ratio,
            MIN_WRITE_RATIO,
        ),
    ];
    gate::finish("BENCH_8.json", &json, &gates, cli.check);
}
