//! What every workload shares: the two closed-loop clients and the phases
//! they step through, raw latency samples, call spans, and the counter
//! snapshots a recording sub-run is measured with.

use instrument::time::cycles;
use instrument::{AccessStats, ThreadCounterSnapshot};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::*};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop client threads; each is also one synthetic socket.
pub const CLIENTS: usize = 2;
/// Thread → synthetic socket, for the local/remote split of line counts.
pub const NUMA_OF: [usize; CLIENTS] = [0, 1];
/// Modeled cost of a remote line in local-line units (as `bench_replicate`).
pub const REMOTE_COST: f64 = 5.0;
/// A traced client keeps the span of one call in this many.
const SPAN_EVERY: u64 = 64;
/// Warm-up ends only after the settle fingerprint has held this long.
const SETTLE_OPS: u64 = 64 * 1024;
/// Warm-up gives up waiting for a settled state after this long.
const SETTLE_CAP: Duration = Duration::from_secs(20);

/// What a sub-run does after its set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Closed-loop clients timed for a window; `traced` sub-runs use
    /// recording contexts and keep call spans.
    Timed { traced: bool },
    /// Recording contexts; from preload to the end the two clients
    /// alternate one call at a time for fixed counts, so the map's state
    /// and the line counts do not depend on the scheduler.
    Model,
}

impl Mode {
    pub fn recording(self) -> bool {
        !matches!(self, Mode::Timed { traced: false })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One timed call, kept in memory and written out when the run ends.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub client: u8,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Call timestamps from the cycle counter (a fraction of the cost of
/// `Instant::now()` on virtual machines), converted to ns with a rate
/// calibrated against `Instant` once per run.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    ns_per_cycle: f64,
    epoch: u64,
}

impl Clock {
    pub fn calibrate() -> Self {
        let (c0, t0) = (cycles(), Instant::now());
        std::thread::sleep(Duration::from_millis(50));
        let (c1, dt) = (cycles(), t0.elapsed());
        Self {
            ns_per_cycle: dt.as_nanos() as f64 / (c1 - c0).max(1) as f64,
            epoch: c0,
        }
    }

    pub fn ns(&self, from: u64, to: u64) -> u64 {
        self.cycles_to_ns(to.saturating_sub(from) as f64) as u64
    }

    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * self.ns_per_cycle
    }

    /// Nanoseconds from the run's start to the stamp `c`.
    pub fn since_epoch(&self, c: u64) -> u64 {
        self.ns(self.epoch, c)
    }

    /// Mean cost of one stamp, in ns (a timed call pays two).
    pub fn stamp_ns(&self) -> f64 {
        const N: u64 = 1 << 20;
        let t = cycles();
        for _ in 0..N {
            black_box(cycles());
        }
        self.ns(t, cycles()) as f64 / N as f64
    }
}

/// Phase hand-offs between the main thread and the clients.
pub struct Phases {
    barrier: Barrier,
    warm_stop: AtomicBool,
    stop: AtomicBool,
    warm_ops: AtomicU64,
    turn: AtomicUsize,
    pub clock: Clock,
}

impl Phases {
    pub fn new(clock: Clock) -> Self {
        Self {
            barrier: Barrier::new(CLIENTS + 1),
            warm_stop: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            warm_ops: AtomicU64::new(0),
            turn: AtomicUsize::new(0),
            clock,
        }
    }

    /// Runs `f` as this client's next call: at once, or in `Model` mode on
    /// this client's turn, passing the turn on afterwards.
    pub fn step<R>(&self, mode: Mode, client: usize, f: impl FnOnce() -> R) -> R {
        if mode != Mode::Model {
            return f();
        }
        let mut spins = 0u32;
        while self.turn.load(Acquire) != client {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let r = f();
        self.turn.store((client + 1) % CLIENTS, Release);
        r
    }

    /// Client side of the post-phase hand-off: the main thread reads the
    /// counters and map telemetry while every client waits here, before
    /// the checks' reads can move them.
    pub fn hold_for_telemetry(&self) {
        self.barrier.wait();
        self.barrier.wait();
    }
}

/// One client's record of its measured (or model) phase.
#[derive(Debug)]
pub struct Samples {
    /// Raw per-call durations in cycles (see [`Clock::cycles_to_ns`]).
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
    /// Operations completed (a batch counts each of its keys).
    pub ops: u64,
    pub write_calls: u64,
    pub begin: Instant,
    pub end: Instant,
    pub spans: Vec<Span>,
}

/// Calls per client in a `Model` sub-run: lockstep warm-up, then the
/// counted pass (long enough for the footprint at its end to take in the
/// growth that churn brings).
#[derive(Clone, Copy, Debug)]
pub struct ModelCalls {
    pub warm: u64,
    pub counted: u64,
}

/// Runs one client from the end of its preload to the end of its phase:
/// warm-up until the main thread calls it settled (in `Model` mode, a
/// fixed lockstep count), then the timed window or the counted lockstep
/// pass. `call` issues one call and returns its kind and how many
/// operations it carried. Returns at [`Phases::hold_for_telemetry`].
pub fn client_loop(
    ph: &Phases,
    client: usize,
    mode: Mode,
    model: ModelCalls,
    mut call: impl FnMut() -> (Kind, u64),
) -> Samples {
    ph.barrier.wait(); // preload done
    if mode == Mode::Model {
        for _ in 0..model.warm {
            ph.step(mode, client, &mut call);
        }
    } else {
        let mut pending = 0;
        while !ph.warm_stop.load(Relaxed) {
            pending += call().1;
            if pending >= 256 {
                ph.warm_ops.fetch_add(pending, Relaxed);
                pending = 0;
            }
        }
    }
    ph.barrier.wait(); // warm-up done
    ph.barrier.wait(); // main thread has taken its baseline
    let mut s = Samples {
        reads: Vec::with_capacity(1 << 20),
        writes: Vec::with_capacity(1 << 20),
        ops: 0,
        write_calls: 0,
        begin: Instant::now(),
        end: Instant::now(),
        spans: Vec::new(),
    };
    match mode {
        Mode::Model => {
            s.begin = Instant::now();
            for _ in 0..model.counted {
                let (kind, ops) = ph.step(mode, client, &mut call);
                s.ops += ops;
                s.write_calls += u64::from(kind == Kind::Write);
            }
            s.end = Instant::now();
        }
        Mode::Timed { traced } => {
            let mut calls = 0u64;
            s.begin = Instant::now();
            while !ph.stop.load(Relaxed) {
                let t0 = cycles();
                let (kind, ops) = call();
                let t1 = cycles();
                let dc = t1.saturating_sub(t0).min(u32::MAX as u64) as u32;
                match kind {
                    Kind::Read => s.reads.push(dc),
                    Kind::Write => {
                        s.writes.push(dc);
                        s.write_calls += 1;
                    }
                }
                if traced && calls.is_multiple_of(SPAN_EVERY) {
                    s.spans.push(Span {
                        name: if kind == Kind::Read { "read" } else { "write" },
                        client: client as u8,
                        op: calls,
                        start_ns: ph.clock.since_epoch(t0),
                        end_ns: ph.clock.since_epoch(t1),
                    });
                }
                s.ops += ops;
                calls += 1;
            }
            s.end = Instant::now();
        }
    }
    ph.hold_for_telemetry();
    s
}

/// Main-thread side of one sub-run's set-up and measured phase.
pub struct Drive {
    pub preload_s: f64,
    pub warmup_s: f64,
    pub settled: bool,
}

/// Waits out the clients' preload, ends warm-up once `fingerprint` (the
/// controllers' state; `None` while a transition is in flight) has held
/// still for [`SETTLE_OPS`] operations past `min_warm_ops` (in `Model`
/// mode the clients end it themselves), runs `at_go` (baselines) while the
/// clients wait, holds the timed window of `Timed` modes open for
/// `window`, and hands the baselines to `at_end` (counters and telemetry)
/// once every client has finished its phase.
#[allow(clippy::too_many_arguments)]
pub fn drive<G>(
    ph: &Phases,
    mode: Mode,
    preload_start: Instant,
    min_warm_ops: u64,
    fingerprint: impl Fn() -> Option<u64>,
    at_go: impl FnOnce() -> G,
    window: Duration,
    at_end: impl FnOnce(G),
) -> Drive {
    ph.barrier.wait();
    let preload_s = preload_start.elapsed().as_secs_f64();
    let warm_start = Instant::now();
    let settled = mode == Mode::Model || settle(ph, min_warm_ops, &fingerprint);
    ph.warm_stop.store(true, Relaxed);
    ph.barrier.wait();
    let warmup_s = warm_start.elapsed().as_secs_f64();
    let settled = settled && fingerprint().is_some();
    let baseline = at_go();
    ph.barrier.wait();
    if mode != Mode::Model {
        std::thread::sleep(window);
        ph.stop.store(true, Relaxed);
    }
    ph.barrier.wait();
    at_end(baseline);
    ph.barrier.wait();
    Drive {
        preload_s,
        warmup_s,
        settled,
    }
}

/// Polls the clients' warm-up until `fingerprint` has held still, and
/// outside a transition, for [`SETTLE_OPS`] operations past
/// `min_warm_ops`; `false` if [`SETTLE_CAP`] ran out first.
fn settle(ph: &Phases, min_warm_ops: u64, fingerprint: impl Fn() -> Option<u64>) -> bool {
    let start = Instant::now();
    let mut last = fingerprint();
    let mut since = 0u64;
    while start.elapsed() < SETTLE_CAP {
        std::thread::sleep(Duration::from_millis(1));
        let ops = ph.warm_ops.load(Relaxed);
        let fp = fingerprint();
        if fp != last || fp.is_none() {
            last = fp;
            since = ops;
        } else if ops >= min_warm_ops && ops - since >= SETTLE_OPS {
            return true;
        }
    }
    false
}

/// Pins client `c` to CPU `c`; returns whether the pin took.
pub fn pin(c: usize) -> bool {
    numa::pin_to_cpu(c)
}

macro_rules! counts {
    ($($f:ident),* $(,)?) => {
        /// The recording sink's counters at one instant (or the difference
        /// of two instants), with line touches split local/remote.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counts {
            $(pub $f: u64,)*
            pub local_reads: u64,
            pub remote_reads: u64,
            pub local_cas: u64,
            pub remote_cas: u64,
        }

        impl Counts {
            pub fn of(stats: &AccessStats) -> Self {
                let t: ThreadCounterSnapshot = stats.totals();
                let (local_reads, remote_reads) = stats.reads().split_by_locality(&NUMA_OF);
                let (local_cas, remote_cas) = stats.cas().split_by_locality(&NUMA_OF);
                Self { $($f: t.$f,)* local_reads, remote_reads, local_cas, remote_cas }
            }

            pub fn minus(&self, o: &Self) -> Self {
                Self {
                    $($f: self.$f - o.$f,)*
                    local_reads: self.local_reads - o.local_reads,
                    remote_reads: self.remote_reads - o.remote_reads,
                    local_cas: self.local_cas - o.local_cas,
                    remote_cas: self.remote_cas - o.remote_cas,
                }
            }

            pub fn plus(&self, o: &Self) -> Self {
                Self {
                    $($f: self.$f + o.$f,)*
                    local_reads: self.local_reads + o.local_reads,
                    remote_reads: self.remote_reads + o.remote_reads,
                    local_cas: self.local_cas + o.local_cas,
                    remote_cas: self.remote_cas + o.remote_cas,
                }
            }
        }
    };
}

counts!(
    cas_attempts,
    cas_failures,
    traversed,
    searches,
    hinted_searches,
    hinted_traversed,
    retired,
    recycled,
    epoch_advances,
    index_hits,
    index_misses,
    index_stale,
    log_appends,
    log_lag_sum,
    replay_batches,
    replayed_ops,
    anchor_hits,
    anchor_groups,
    grouped_ops,
    bulk_blocks,
    bulk_entries,
    collapsed_ops,
);

impl Counts {
    pub fn lines(&self) -> u64 {
        self.local_reads + self.remote_reads + self.local_cas + self.remote_cas
    }

    /// NUMA-modeled line cost: local lines at 1, remote at [`REMOTE_COST`].
    pub fn modeled_cost(&self) -> f64 {
        (self.local_reads + self.local_cas) as f64
            + REMOTE_COST * (self.remote_reads + self.remote_cas) as f64
    }
}
