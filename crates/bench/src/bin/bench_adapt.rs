//! `bench_adapt`: the adaptation ablation — the replicated layered map
//! with the `skipgraph::adapt` subsystem live, against the two static
//! policies it chooses between, across a phased workload whose best
//! static answer changes phase to phase.
//!
//! # Lanes
//!
//! All three lanes are the same [`ReplicatedLayeredMap`] geometry (lazy
//! + shared hash index, 8 synthetic sockets, membership-partitioned
//! logs); only the adaptation policy differs:
//!
//! * **adaptive** — the write-ratio gate live (512-op windows, one
//!   dwell window, the default 40/60 band): read-heavy phases hold it
//!   replicated, write-heavy phases downshift it to the single
//!   structure through the drain-then-redirect transition.
//! * **static_replicated** — no adaptation configured; always the
//!   per-socket replicas (the best static answer for reads, the worst
//!   for writes, which pay one apply per replica).
//! * **static_single** — adaptation pinned: `start_single` with an
//!   unclosable sensor window, so every operation takes the direct
//!   replica-0 path (the best static answer for writes, the worst for
//!   reads, which are ~7/8 remote).
//!
//! # Phases
//!
//! One map per lane per trial carries its state through four phases in
//! sequence, exactly as a long-running deployment would see them:
//!
//! * **read-heavy** — 90% Zipf(0.99) membership reads, 10% churn;
//! * **write-heavy** — 100% remove/re-insert updates over the preload;
//! * **ascending-load** — 100% inserts of strictly ascending fresh
//!   keys (a bulk-load tail: grows the structure and drives the index
//!   occupancy signal);
//! * **churn** — 70/30 updates/reads over the hot set: still on the
//!   engaged side of the 40/60 band, so the gate must *hold* the
//!   single mode through mixed traffic rather than thrash on window
//!   noise (dwell + the band's width are what absorb it).
//!
//! Each phase opens with an unmeasured **settle slice** of the same op
//! mix ([`SETTLE_ROUNDS`] rounds, every lane equally): enough windows
//! for the controller to sense the new shape, cross its dwell guard,
//! and complete any transition — including the upshift's replica
//! rebuild, a one-time cost proportional to the key count that no
//! finite measured slice amortizes honestly (a deployment pays it once
//! per regime change; a bench phase would charge it per 64k ops). The
//! measured slice is therefore each policy's *steady state* for the
//! phase; transition work happens in the settle slice, and the
//! transition **counts** are reported in the JSON so a controller that
//! thrashes mid-phase still shows up.
//!
//! # What is gated
//!
//! As in `bench_replicate`, CI hosts have no NUMA topology, so the gate
//! is on **NUMA-modeled throughput**: shared-node line touches split
//! local/remote by the owner tag, a remote line priced at
//! [`REMOTE_COST`]x a local one, modeled throughput = ops per modeled
//! line cost. Two gates:
//!
//! * per phase, adaptive ≥ [`MIN_VS_BEST`]x the *best* static lane for
//!   that phase (residual oscillation or a mode the controller chose
//!   wrongly would show here);
//! * over the whole phase sequence, adaptive ≥ [`MIN_VS_WORST`]x the
//!   *worst* static lane (the payoff: no single static policy survives
//!   a workload whose shape changes).
//!
//! Writes `BENCH_10.json` at the workspace root (`BENCH_OUT`
//! overrides); with `--check` the process exits non-zero on gate
//! failure.

use bench::gate::{self, key, Cli, Gate, Json, Measure, Sockets, LOGS, REMOTE_COST};
use instrument::AccessStats;
use rand::rngs::SmallRng;
use skipgraph::{AdaptConfig, ReplicatedHandle, ReplicatedLayeredMap};
use synchro::Zipf;

/// Preloaded keys: enough that replica structures have real depth.
const KEYS: u64 = 20_000;
/// Per-socket operations, per phase.
const READ_OPS: u64 = 8_000;
const WRITE_OPS: u64 = 4_000;
const ASC_OPS: u64 = 4_000;
const CHURN_OPS: u64 = 4_000;
/// Unmeasured settle rounds opening every phase (x [`SOCKETS`] ops):
/// ~23 sensor windows — sense + dwell + transition, rebuild included.
const SETTLE_ROUNDS: u64 = 1_500;
const TRIALS: usize = 3;
/// YCSB-style skew.
const ZIPF_ALPHA: f64 = 0.99;
/// Synthetic sockets (replicas) — the acceptance geometry.
const SOCKETS: Sockets = Sockets(8);

/// Adaptive must stay within 10% of the best static policy per phase.
const MIN_VS_BEST: f64 = 0.9;
/// And beat the worst static policy by 30% over the full sequence.
const MIN_VS_WORST: f64 = 1.3;

const PHASES: [&str; 4] = ["read_heavy", "write_heavy", "ascending", "churn"];
const PHASE_OPS: [u64; 4] = [READ_OPS, WRITE_OPS, ASC_OPS, CHURN_OPS];
const LANES: [&str; 3] = ["adaptive", "static_replicated", "static_single"];

/// Builds lane `lane` of [`LANES`]. The live controller uses windows
/// small enough that a phase transition is sensed within a few percent
/// of a phase, and one dwell window so a single outlier window cannot
/// flip the structure; the pinned-single policy starts single and its
/// sensor window never closes, so the gate never reconsiders.
fn build(lane: usize) -> ReplicatedLayeredMap<u64, u64> {
    let rcfg = match lane {
        0 => SOCKETS
            .replica_config()
            .adapt(AdaptConfig::new().window_ops(512).dwell_windows(1)),
        1 => SOCKETS.replica_config(),
        _ => SOCKETS
            .replica_config()
            .adapt(AdaptConfig::new().window_ops(u32::MAX).start_single(true)),
    };
    ReplicatedLayeredMap::new(SOCKETS.graph_config(), rcfg)
}

type Op = Box<dyn FnMut(&mut ReplicatedHandle<'_, u64, u64>, &mut SmallRng, u64)>;

/// The op mix of one phase. `asc_base` keys the ascending phase's fresh
/// range — settle and measured slices get disjoint ranges so the
/// measured stream is ascending inserts of genuinely new keys.
fn phase_mix(phase: usize, asc_base: u64) -> Op {
    let zipf = Zipf::new(KEYS, ZIPF_ALPHA);
    match phase {
        0 => Box::new(move |h, rng, i| {
            let k = key(zipf.sample(rng));
            if i % 10 == 9 {
                if (i / 10) % 2 == 0 {
                    h.remove(&k);
                } else {
                    h.insert(k, i);
                }
            } else {
                h.contains(&k);
            }
        }),
        1 => Box::new(move |h, rng, i| {
            let k = key(zipf.sample(rng));
            if i % 2 == 0 {
                h.remove(&k);
            } else {
                h.insert(k, i);
            }
        }),
        2 => {
            // One globally ascending stream: round-major, socket-minor
            // (rounds advance in lockstep, sockets within a round ascend).
            let mut slot = 0u64;
            Box::new(move |h, _rng, i| {
                let s = slot % SOCKETS.0 as u64;
                slot += 1;
                h.insert(asc_base + i * SOCKETS.0 as u64 + s, i);
            })
        }
        _ => Box::new(move |h, rng, i| {
            let k = key(zipf.sample(rng));
            match i % 10 {
                0..=2 => h.remove(&k),
                3..=6 => h.insert(k, i),
                _ => h.contains(&k),
            };
        }),
    }
}

/// Runs one phase on `map`: the unmeasured settle slice, then the
/// measured slice under fresh stats. The adaptive transitions happen
/// inline in the interleave, performed by whichever handle's sensor
/// window closed — exactly the thread that would pay the drain on real
/// hardware.
fn run_phase(map: &ReplicatedLayeredMap<u64, u64>, phase: usize, trial: usize) -> Measure {
    let seed = 0x5EED_0000 ^ ((phase as u64) << 8) ^ trial as u64;
    let per_socket = PHASE_OPS[phase];
    // Fresh ascending ranges, far above the scattered preload; the
    // settle and measured slices must not collide across phases' visits.
    let asc_settle = 1u64 << 48;
    let asc_measured = 1u64 << 52;
    SOCKETS.interleave(
        map,
        None,
        seed ^ 0xFFFF,
        SETTLE_ROUNDS,
        phase_mix(phase, asc_settle),
    );
    let stats = AccessStats::new(SOCKETS.slots());
    let mix = phase_mix(phase, asc_measured);
    let ops_per_s = SOCKETS.interleave(map, Some(&stats), seed, per_socket, mix);
    SOCKETS.measure(&stats, ops_per_s, SOCKETS.0 as u64 * per_socket)
}

struct LaneRun {
    phases: Vec<Measure>,
    downshifts: u64,
    upshifts: u64,
    final_mode: &'static str,
}

/// One full trial of one lane: build, preload round-robin across every
/// slot (so single-structure node ownership spreads over all sockets),
/// converge, then the four phases in sequence on the same map.
fn run_lane(lane: usize, trial: usize) -> LaneRun {
    let map = build(lane);
    gate::preload(&map, SOCKETS.slots(), KEYS);
    SOCKETS.sync(&map);
    let phases: Vec<Measure> = (0..PHASES.len())
        .map(|p| run_phase(&map, p, trial))
        .collect();
    let snap = map.adapt_state();
    LaneRun {
        phases,
        downshifts: snap.as_ref().map_or(0, |s| s.downshifts),
        upshifts: snap.as_ref().map_or(0, |s| s.upshifts),
        final_mode: snap.map_or("static", |s| s.mode),
    }
}

fn total_cost(lane: &LaneRun) -> f64 {
    lane.phases
        .iter()
        .zip(PHASE_OPS)
        .map(|(m, ops)| m.cost() * (SOCKETS.0 as u64 * ops) as f64)
        .sum()
}

fn lane_json(lane: &LaneRun) -> Json {
    let phases = lane
        .phases
        .iter()
        .zip(PHASES)
        .fold(Json::new(), |j, (m, name)| {
            j.obj(
                name,
                Json::new()
                    .num("lines_per_op", m.lines(), 2)
                    .num("locality", m.locality(), 3)
                    .num("modeled_cost", m.cost(), 2)
                    .num("ops_per_s", m.ops_per_s, 0),
            )
        });
    Json::new()
        .raw("downshifts", lane.downshifts)
        .raw("upshifts", lane.upshifts)
        .str("final_mode", lane.final_mode)
        .obj("phases", phases)
}

fn main() {
    let cli = Cli::parse(&[]);

    eprintln!(
        "# bench_adapt: {KEYS} keys, {} synthetic sockets x {LOGS} logs, phases \
         read/write/ascending/churn, remote line = {REMOTE_COST}x local, median of {TRIALS}",
        SOCKETS.0
    );

    // Per trial, rotate the lane order so no lane systematically runs on
    // a warmed allocator.
    let trials = gate::paired::<_, 3>(TRIALS, run_lane);
    let mut per_phase_ratios: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut overall_ratios: Vec<f64> = Vec::new();
    for (trial, [adaptive, replicated, single]) in trials.iter().enumerate() {
        // The sequence forces both transitions: the all-write preload
        // downshifts, the read-heavy settle slice upshifts, and the
        // write-heavy settle slice downshifts again.
        assert!(
            adaptive.downshifts >= 1,
            "the write-heavy load never downshifted the adaptive lane"
        );
        assert!(
            adaptive.upshifts >= 1,
            "the read-heavy load never upshifted the adaptive lane"
        );
        for p in 0..PHASES.len() {
            let best = replicated.phases[p].cost().min(single.phases[p].cost());
            let ratio = best / adaptive.phases[p].cost();
            eprintln!(
                "  trial {trial} {:>10}: adaptive {:>7.1} cost/op, static best {:>7.1} -> \
                 {ratio:.2}x",
                PHASES[p],
                adaptive.phases[p].cost(),
                best,
            );
            per_phase_ratios[p].push(ratio);
        }
        let worst_total = total_cost(replicated).max(total_cost(single));
        let overall = worst_total / total_cost(adaptive);
        eprintln!(
            "  trial {trial}    overall: adaptive vs worst static {overall:.2}x \
             ({} downshifts, {} upshifts, ends {})",
            adaptive.downshifts, adaptive.upshifts, adaptive.final_mode,
        );
        overall_ratios.push(overall);
    }

    let phase_ratio: Vec<f64> = per_phase_ratios.into_iter().map(gate::median).collect();
    let overall_ratio = gate::median(overall_ratios);

    let last = trials.last().expect("TRIALS > 0");
    let lanes = LANES
        .iter()
        .zip(last)
        .fold(Json::new(), |j, (name, run)| j.obj(*name, lane_json(run)));
    let mut ratios = Json::new();
    let mut gates = Vec::new();
    for (name, r) in PHASES.iter().zip(&phase_ratio) {
        ratios = ratios.num(*name, *r, 2);
        gates.push(Gate::at_least(
            format!("{name} adaptive / best static"),
            *r,
            MIN_VS_BEST,
        ));
    }
    gates.push(Gate::at_least(
        "overall adaptive / worst static",
        overall_ratio,
        MIN_VS_WORST,
    ));
    let json = Json::new()
        .str("bench", "adapt_smoke")
        .raw("threads", SOCKETS.0)
        .raw("sockets", SOCKETS.0)
        .raw("logs", LOGS)
        .raw("keys", KEYS)
        .raw("zipf_alpha", ZIPF_ALPHA)
        .raw("remote_cost_factor", REMOTE_COST)
        .raw("window_ops", 512)
        .obj("lanes", lanes)
        .obj("phase_ratio_vs_best_static", ratios)
        .num("overall_ratio_vs_worst_static", overall_ratio, 2);
    gate::finish("BENCH_10.json", &json, &gates, cli.check);
}
