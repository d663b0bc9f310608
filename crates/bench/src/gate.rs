//! The measurement and gating harness shared by the eight `bench_*`
//! binaries.
//!
//! Every gate binary measures lanes of paired runs (layered vs. plain,
//! blocked vs. unblocked, replicated vs. single), reduces them to
//! medians and ratios, writes one `BENCH_*.json`, and with `--check`
//! fails when a ratio leaves its declared bound. The plumbing lives here
//! once:
//!
//! * [`Cli`] — the command line: `--check [path]`, `--cap N`, `--sweep`;
//! * [`paired`] and [`median`] — order-rotating paired trials and the
//!   median every gate reads;
//! * [`Json`] — a small JSON object writer;
//! * [`Gate`] and [`finish`] — the declarative bound table, the output
//!   file (`BENCH_OUT` overrides the workspace-root default), the
//!   `[gate]` / `FAIL:` lines and the exit code;
//! * [`timed_threads`], [`preload`], [`key`] — the free-running
//!   thread phases of the wall-clock gates;
//! * [`Sockets`] and [`Measure`] — the single-driver socket interleave
//!   and the modeled line cost of the replication gates.

use instrument::{AccessStats, ThreadCtx};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use skipgraph::{ConcurrentMap, GraphConfig, MapHandle, ReplicaConfig, ReplicatedLayeredMap};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A gate binary's command line. Every binary takes `--check`; `accepts`
/// names the extra forms it takes: `"--cap"`, `"--sweep"`, or
/// `"--check PATH"` when `--check` reads a baseline file. Any other
/// argument panics.
#[derive(Debug, Default, PartialEq)]
pub struct Cli {
    /// Enforce the gate table (exit non-zero on a failed bound).
    pub check: bool,
    /// The baseline file of `--check PATH`.
    pub baseline: Option<String>,
    /// `--cap N`: block capacity override.
    pub cap: Option<usize>,
    /// `--sweep`: print a policy sweep instead of gating.
    pub sweep: bool,
}

impl Cli {
    /// Parses the process arguments.
    pub fn parse(accepts: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), accepts)
    }

    fn from_args(args: impl IntoIterator<Item = String>, accepts: &[&str]) -> Self {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--check" => {
                    cli.check = true;
                    if accepts.contains(&"--check PATH") {
                        cli.baseline = Some(args.next().expect("--check needs a path"));
                    }
                }
                "--cap" if accepts.contains(&"--cap") => {
                    cli.cap = Some(args.next().expect("--cap N").parse().expect("block cap"));
                }
                "--sweep" if accepts.contains(&"--sweep") => cli.sweep = true,
                other => panic!("unknown flag {other}"),
            }
        }
        cli
    }
}

/// Runs `trials` rounds of `N` lanes; `run(lane, trial)` measures one
/// lane once. Trial `t` runs lanes `t % N, (t + 1) % N, ...`, so with two
/// lanes even trials run lane 0 first and odd trials lane 1 first: a
/// systematic second-position penalty (cooling turbo, allocator state)
/// debiases across the median instead of always charging one lane, and
/// adjacent runs of a pair see the same background noise. Returns each
/// trial's results in lane order.
pub fn paired<T, const N: usize>(
    trials: usize,
    mut run: impl FnMut(usize, usize) -> T,
) -> Vec<[T; N]> {
    (0..trials)
        .map(|trial| {
            let mut out: [Option<T>; N] = std::array::from_fn(|_| None);
            for i in 0..N {
                let lane = (trial + i) % N;
                out[lane] = Some(run(lane, trial));
            }
            out.map(|o| o.expect("every lane ran"))
        })
        .collect()
}

/// The median as every committed baseline defines it: `sorted[len / 2]`
/// (the upper median for even lengths).
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A JSON object under construction: keys in insertion order, leaf
/// values pre-rendered.
#[derive(Default)]
pub struct Json(Vec<(String, Value)>);

enum Value {
    Raw(String),
    Obj(Json),
}

impl Json {
    pub fn new() -> Self {
        Self::default()
    }

    /// A bare literal (integer, constant), rendered with `Display`.
    pub fn raw(mut self, key: impl Into<String>, value: impl Display) -> Self {
        self.0.push((key.into(), Value::Raw(value.to_string())));
        self
    }

    /// A float with `prec` decimals.
    pub fn num(self, key: impl Into<String>, value: f64, prec: usize) -> Self {
        self.raw(key, format!("{value:.prec$}"))
    }

    pub fn str(self, key: impl Into<String>, value: &str) -> Self {
        self.raw(key, format!("\"{value}\""))
    }

    pub fn obj(mut self, key: impl Into<String>, value: Json) -> Self {
        self.0.push((key.into(), Value::Obj(value)));
        self
    }

    /// Two-space indented, one key per line, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        out.push_str("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(&format!("{:1$}\"{key}\": ", "", 2 * depth + 2));
            match value {
                Value::Raw(s) => out.push_str(s),
                Value::Obj(o) => o.write(out, depth + 1),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str(&format!("{:1$}}}", "", 2 * depth));
    }
}

/// Reads `"<object>": { ... "<field>": <number> ... }` out of a committed
/// baseline file without a JSON dependency (the workspace is
/// offline-only).
pub fn baseline_value(json: &str, object: &str, field: &str) -> Option<f64> {
    let obj = &json[json.find(&format!("\"{object}\""))?..];
    let at = &obj[obj.find(&format!("\"{field}\""))?..];
    let val = at[at.find(':')? + 1..].trim_start();
    let end = val
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+')))
        .unwrap_or(val.len());
    val[..end].parse().ok()
}

#[derive(Clone, Copy)]
enum Bound {
    AtLeast,
    AtMost,
    Below,
    /// `at_least` against a floor derived from this baseline value.
    Baseline(f64),
    /// No baseline entry: reported, never fails.
    Skipped,
}

/// One row of a gate table: a measured value and its bound.
pub struct Gate {
    name: String,
    value: f64,
    bound: f64,
    kind: Bound,
}

impl Gate {
    fn new(name: impl Into<String>, value: f64, bound: f64, kind: Bound) -> Self {
        Self {
            name: name.into(),
            value,
            bound,
            kind,
        }
    }

    /// Fails when `value < min`.
    pub fn at_least(name: impl Into<String>, value: f64, min: f64) -> Self {
        Self::new(name, value, min, Bound::AtLeast)
    }

    /// Fails when `value > max`.
    pub fn at_most(name: impl Into<String>, value: f64, max: f64) -> Self {
        Self::new(name, value, max, Bound::AtMost)
    }

    /// Fails when `value >= limit` (a strict upper bound).
    pub fn below(name: impl Into<String>, value: f64, limit: f64) -> Self {
        Self::new(name, value, limit, Bound::Below)
    }

    /// Fails when `value` regresses more than `tolerance` (a fraction)
    /// under a positive `baseline`; skipped when there is none.
    pub fn vs_baseline(
        name: impl Into<String>,
        value: f64,
        baseline: Option<f64>,
        tolerance: f64,
    ) -> Self {
        match baseline {
            Some(base) if base > 0.0 => {
                Self::new(name, value, base * (1.0 - tolerance), Bound::Baseline(base))
            }
            _ => Self::new(name, value, 0.0, Bound::Skipped),
        }
    }

    /// Whether the value violates its bound. Each kind fails only on its
    /// own strict comparison (`at_least` on `value < min`), so a NaN
    /// value passes `at_least` / `at_most` and fails `below`.
    pub fn fails(&self) -> bool {
        match self.kind {
            Bound::AtLeast | Bound::Baseline(_) => self.value < self.bound,
            Bound::AtMost => self.value > self.bound,
            Bound::Below => self.value >= self.bound,
            Bound::Skipped => false,
        }
    }

    fn describe(&self) -> String {
        let (name, v, b) = (&self.name, self.value, self.bound);
        match self.kind {
            Bound::AtLeast => format!("{name} {v:.2} (min {b})"),
            Bound::AtMost => format!("{name} {v:.2} (max {b})"),
            Bound::Below => format!("{name} {v:.2} (must be < {b})"),
            Bound::Baseline(base) => {
                format!("{name} median {v:.0} vs baseline {base:.0} (floor {b:.0})")
            }
            Bound::Skipped => format!("{name} no baseline entry, skipping"),
        }
    }
}

/// Writes `json` to `BENCH_OUT` (or `<workspace root>/<file>`) and to
/// stdout, prints one `[gate]` line per gate, and exits 1 when the write
/// failed or — if `enforce` — any gate failed, after a `FAIL:` line per
/// failed gate.
pub fn finish(file: &str, json: &Json, gates: &[Gate], enforce: bool) {
    let json = json.render();
    let out = std::env::var("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
            manifest.ancestors().nth(2).unwrap_or(manifest).join(file)
        });
    let mut failed = false;
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("FAIL: could not write {}: {e}", out.display());
            failed = true;
        }
    }
    print!("{json}");
    for g in gates {
        let fails = g.fails();
        eprintln!(
            "[gate] {} {}",
            g.describe(),
            if fails { "FAIL" } else { "ok" }
        );
        if enforce && fails {
            eprintln!("FAIL: {}", g.describe());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Worker threads for a free-running gate: one per CPU, at most `max`.
pub fn threads_up_to(max: u64) -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
        .clamp(1, max)
}

/// Key `i`, scattered uniformly (odd multiplier: a bijection on `u64`).
pub fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B1_85EB_CA87)
}

/// Runs `work(t, start)` on `threads` scoped threads. Each worker does
/// its untimed setup, then calls `start.wait()`; the result is the wall
/// time from the moment every worker passed `start` until the last one
/// returned.
pub fn timed_threads(threads: u64, work: impl Fn(u64, &Barrier) + Sync) -> Duration {
    let start = Barrier::new(threads as usize + 1);
    let done = Barrier::new(threads as usize + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (work, start, done) = (&work, &start, &done);
            s.spawn(move || {
                work(t, start);
                done.wait();
            });
        }
        start.wait();
        let begin = Instant::now();
        done.wait();
        begin.elapsed()
    })
}

/// Loads `key(0..keys)` round-robin across the handles of thread slots
/// `0..slots`. A node's upper-level list membership comes from its
/// inserter's membership vector, so a single-slot preload would leave
/// the other threads' constituent lists empty and degrade their
/// descents to level-0 walks; it also spreads node ownership over every
/// slot's socket.
pub fn preload<M: ConcurrentMap<u64, u64>>(map: &M, slots: usize, keys: u64) {
    let mut handles: Vec<_> = (0..slots)
        .map(|t| map.pin(ThreadCtx::plain(t as u16)))
        .collect();
    for i in 0..keys {
        assert!(handles[i as usize % slots].insert(key(i), i));
    }
}

/// Modeled cost of a remote shared-node line access, in local-access
/// units: a cross-socket cache-line transfer (~200 cycles on current
/// 2–4 socket parts) against a local LLC hit (~40 cycles).
pub const REMOTE_COST: f64 = 5.0;

/// Independent operation logs of the replicated lanes (one per
/// membership-vector family pair).
pub const LOGS: usize = 4;

/// The synthetic-socket geometry of the replication gates: measurement
/// tids `1..=sockets` land one per socket under the uniform placement,
/// and tid 0, the preloader, shares socket 0.
#[derive(Clone, Copy)]
pub struct Sockets(pub usize);

impl Sockets {
    /// Registered thread slots: one per socket plus the preloader.
    pub fn slots(self) -> usize {
        self.0 + 1
    }

    /// Identical shared-structure geometry on every lane (lazy + shared
    /// hash index). The commission period is effectively disabled:
    /// physical unlink timing is TSC-based, and letting it fire mid-phase
    /// would make the line counts depend on the host's clock rather than
    /// on the structures.
    pub fn graph_config(self) -> GraphConfig {
        GraphConfig::new(self.slots())
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(1 << 12)
            .commission_cycles(u64::MAX)
    }

    /// A roomy log with a high lag bound lets replay batches grow, which
    /// is what amortizes the per-replica apply cost on the write side.
    pub fn replica_config(self) -> ReplicaConfig {
        ReplicaConfig::uniform(self.slots(), self.0)
            .logs(LOGS)
            .log_capacity(1 << 10)
            .max_lag(3 << 8)
    }

    /// Retires the preload's replay debt (uninstrumented): every socket
    /// catches its replica up to the log heads, as a deployment would
    /// after a bulk load, so measured phases start from converged
    /// replicas instead of paying the preload's applies inside the first
    /// reads. In single-class epochs this is a no-op.
    pub fn sync(self, map: &ReplicatedLayeredMap<u64, u64>) {
        for t in 1..=self.0 {
            map.register(ThreadCtx::plain(t as u16)).sync();
        }
    }

    /// Runs `rounds` rounds of `op(handle, rng, round)`, one op per
    /// socket handle per round, from a single driver thread; returns
    /// wall-clock ops/s. With `stats: None` nothing is recorded (a
    /// settle slice).
    ///
    /// The round-robin interleave is what makes the locality attribution
    /// scheduler-independent on a non-NUMA host: with free-running OS
    /// threads on few cores, whichever thread holds the CPU ends up doing
    /// *everyone's* combining (all touches self-attributed) or
    /// *everyone's* replica replay (all touches remote-attributed) — an
    /// artifact of the host's scheduler, not of either design. A fair
    /// interleave is what per-socket threads on real hardware provide:
    /// each socket's handle performs its own share of reads, appends,
    /// replica drains and adaptive transitions, and every shared-node
    /// touch lands in `stats` under the socket that would have issued it.
    pub fn interleave<'m, M: ConcurrentMap<u64, u64>>(
        self,
        map: &'m M,
        stats: Option<&Arc<AccessStats>>,
        seed: u64,
        rounds: u64,
        mut op: impl FnMut(&mut M::Handle<'m>, &mut SmallRng, u64),
    ) -> f64 {
        let mut handles: Vec<_> = (1..=self.0 as u16)
            .map(|tid| {
                map.pin(match stats {
                    Some(s) => ThreadCtx::recording(tid, Arc::clone(s)),
                    None => ThreadCtx::plain(tid),
                })
            })
            .collect();
        let mut rngs: Vec<SmallRng> = (0..self.0 as u64)
            .map(|t| SmallRng::seed_from_u64(seed ^ t))
            .collect();
        let begin = Instant::now();
        for i in 0..rounds {
            for (h, rng) in handles.iter_mut().zip(rngs.iter_mut()) {
                op(h, rng, i);
            }
        }
        (self.0 as u64 * rounds) as f64 / begin.elapsed().as_secs_f64()
    }

    /// Splits the line touches `stats` recorded into local and remote by
    /// the replica placement, per operation over `ops` operations.
    pub fn measure(self, stats: &AccessStats, ops_per_s: f64, ops: u64) -> Measure {
        let rcfg = self.replica_config();
        let numa_of: Vec<usize> = (0..self.slots())
            .map(|t| rcfg.socket_of(t as u16))
            .collect();
        let (lr, rr) = stats.reads().split_by_locality(&numa_of);
        let (lc, rc) = stats.cas().split_by_locality(&numa_of);
        Measure {
            ops_per_s,
            local_per_op: (lr + lc) as f64 / ops as f64,
            remote_per_op: (rr + rc) as f64 / ops as f64,
        }
    }
}

/// One phase measurement: wall throughput plus the locality-split line
/// touches per operation.
#[derive(Clone, Copy)]
pub struct Measure {
    pub ops_per_s: f64,
    pub local_per_op: f64,
    pub remote_per_op: f64,
}

impl Measure {
    /// Shared-node lines touched per operation.
    pub fn lines(&self) -> f64 {
        self.local_per_op + self.remote_per_op
    }

    /// Modeled line cost of one operation: local touches at unit cost,
    /// remote touches at [`REMOTE_COST`].
    pub fn cost(&self) -> f64 {
        self.local_per_op + REMOTE_COST * self.remote_per_op
    }

    /// Paper-style locality: local / (local + remote) touches.
    pub fn locality(&self) -> f64 {
        if self.lines() == 0.0 {
            1.0
        } else {
            self.local_per_op / self.lines()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median([2.0, 1.0]), 2.0);
        assert_eq!(median([7.0]), 7.0);
    }

    fn run_order<const N: usize>(trials: usize) -> (Vec<(usize, usize)>, Vec<[usize; N]>) {
        let mut order = Vec::new();
        let results = paired::<usize, N>(trials, |lane, trial| {
            order.push((trial, lane));
            lane
        });
        (order, results)
    }

    #[test]
    fn paired_alternates_two_lanes() {
        let (order, results) = run_order::<2>(4);
        assert_eq!(
            order,
            [
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 0),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 0)
            ]
        );
        assert!(results.iter().all(|r| *r == [0, 1]));
    }

    #[test]
    fn paired_rotates_three_lanes() {
        let (order, results) = run_order::<3>(4);
        let lanes: Vec<usize> = order.iter().map(|&(_, lane)| lane).collect();
        assert_eq!(lanes, [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        assert!(order
            .chunks(3)
            .enumerate()
            .all(|(t, c)| c.iter().all(|&(tr, _)| tr == t)));
        assert!(results.iter().all(|r| *r == [0, 1, 2]));
    }

    #[test]
    fn gate_bounds_at_inside_and_outside() {
        let eps = 1e-9;
        for (v, fails) in [(2.0, false), (2.0 + eps, false), (2.0 - eps, true)] {
            assert_eq!(Gate::at_least("x", v, 2.0).fails(), fails, "at_least {v}");
        }
        for (v, fails) in [(0.5, false), (0.5 - eps, false), (0.5 + eps, true)] {
            assert_eq!(Gate::at_most("x", v, 0.5).fails(), fails, "at_most {v}");
        }
        for (v, fails) in [(1.0, true), (1.0 - eps, false), (1.0 + eps, true)] {
            assert_eq!(Gate::below("x", v, 1.0).fails(), fails, "below {v}");
        }
        // Floor 100 * (1 - 0.25) = 75.
        for (v, fails) in [(75.0, false), (75.0 + eps, false), (75.0 - eps, true)] {
            assert_eq!(Gate::vs_baseline("x", v, Some(100.0), 0.25).fails(), fails);
        }
        assert!(!Gate::vs_baseline("x", 0.0, None, 0.25).fails());
        assert!(!Gate::vs_baseline("x", 0.0, Some(0.0), 0.25).fails());
    }

    /// Two structure rows as the committed BENCH_2.json writes them.
    const BENCH_2_SNIPPET: &str = r#"  "structures": {
    "lazy_layered_sg": { "ops_per_s": 786800, "best_ops_per_s": 1163920, "bytes_per_node": 56.00, "nodes_per_search": 69.30, "allocated_nodes": 31271, "resident_bytes": 1949696 },
    "layered_map_ssg": { "ops_per_s": 715200, "best_ops_per_s": 792000, "bytes_per_node": 46.00, "nodes_per_search": 35.03, "allocated_nodes": 27967, "resident_bytes": 3588096 }
  }"#;

    #[test]
    fn baseline_reader_reads_the_committed_layout() {
        let v = |o, f| baseline_value(BENCH_2_SNIPPET, o, f);
        assert_eq!(v("lazy_layered_sg", "ops_per_s"), Some(786800.0));
        assert_eq!(v("layered_map_ssg", "ops_per_s"), Some(715200.0));
        assert_eq!(v("layered_map_ssg", "nodes_per_search"), Some(35.03));
        assert_eq!(v("layered_map_sg", "ops_per_s"), None);
        // The writer's own layout reads back the same.
        let json = Json::new()
            .obj(
                "structures",
                Json::new().obj("s", Json::new().num("ops_per_s", 1234.4, 0)),
            )
            .render();
        assert_eq!(baseline_value(&json, "s", "ops_per_s"), Some(1234.0));
    }

    #[test]
    fn json_nests_with_two_space_indent() {
        let json = Json::new()
            .str("bench", "b")
            .raw("n", 3)
            .obj("lanes", Json::new().num("x", 1.256, 2))
            .render();
        assert_eq!(
            json,
            "{\n  \"bench\": \"b\",\n  \"n\": 3,\n  \"lanes\": {\n    \"x\": 1.26\n  }\n}\n"
        );
    }

    #[test]
    fn cli_takes_only_declared_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Cli::from_args(args(&[]), &[]), Cli::default());
        let c = Cli::from_args(args(&["--check", "--cap", "4"]), &["--cap"]);
        assert!(c.check && c.cap == Some(4) && c.baseline.is_none());
        let c = Cli::from_args(args(&["--check", "b.json"]), &["--check PATH"]);
        assert_eq!(c.baseline.as_deref(), Some("b.json"));
        let unknown = std::panic::catch_unwind(|| Cli::from_args(args(&["--sweep"]), &[]));
        assert!(unknown.is_err());
    }
}
