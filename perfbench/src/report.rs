//! Turns a run's sub-runs into the end-to-end metrics (untraced) or the
//! per-layer metrics (traced), and prints them.

use crate::harness::{Clock, Counts, Mode, Samples, Span};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Map state read through the program's public telemetry at the end of a
/// sub-run (zero where the subject has no such layer).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    pub live_keys: u64,
    pub index_bytes: u64,
    pub index_entries: u64,
    pub index_capacity: u64,
    /// Sum over index segments of entries × mean probe length.
    pub index_probe_sum: f64,
    pub index_probe_grows: u64,
    pub limbo_nodes: u64,
    /// Allocated bytes (every replica, index included) per live key.
    pub bytes_per_key: f64,
    /// Replication mode switches completed during set-up.
    pub downshifts: u64,
    pub upshifts: u64,
    /// Replication mode switches completed inside the measured phase.
    pub measured_transitions: u64,
    pub asc_switches: u64,
    pub asc_engaged: bool,
    pub anchors: u64,
    pub block_entries: u64,
    pub block_cap: u64,
    /// Keys per `execute_batch` call (blocked subject).
    pub batch_keys: u64,
    /// Duration of the first `sync()` after the measured phase.
    pub sync_ns: f64,
}

/// Everything one set-up (and what followed it) produced.
pub struct SubRun {
    pub mode: Mode,
    /// Cycle stamp at which the set-up began (build, preload, warm-up).
    pub started: u64,
    pub build_s: f64,
    pub preload_s: f64,
    pub warmup_s: f64,
    pub settled: bool,
    pub pinned: usize,
    pub samples: Vec<Samples>,
    pub attempted: u64,
    pub failed: u64,
    /// Counter difference over the measured window or the model pass.
    pub counts: Option<Counts>,
    pub tele: Telemetry,
}

impl SubRun {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.preload_s + self.warmup_s
    }

    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.ops).sum()
    }

    pub fn write_calls(&self) -> u64 {
        self.samples.iter().map(|s| s.write_calls).sum()
    }

    /// Wall time of the timed window or the model's counted pass.
    pub fn phase_s(&self) -> f64 {
        let begin = self.samples.iter().map(|s| s.begin).min().expect("clients");
        let end = self.samples.iter().map(|s| s.end).max().expect("clients");
        end.duration_since(begin).as_secs_f64()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.phase_s()
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of raw samples, in the samples' unit.
fn percentile(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1 as f64
}

/// The median over `runs` of each run's `q` percentile of the samples
/// `pick` selects (both clients pooled within a run), in ns.
fn median_percentile(
    runs: &[&SubRun],
    clock: &Clock,
    q: f64,
    pick: impl Fn(&Samples) -> &Vec<u32>,
) -> f64 {
    median(
        runs.iter()
            .map(|r| {
                let mut v: Vec<u32> = r
                    .samples
                    .iter()
                    .flat_map(|s| pick(s).iter().copied())
                    .collect();
                clock.cycles_to_ns(percentile(&mut v, q))
            })
            .collect(),
    )
}

fn sample_counts(runs: &[&SubRun], pick: impl Fn(&Samples) -> usize) -> Vec<usize> {
    runs.iter()
        .map(|r| r.samples.iter().map(&pick).sum())
        .collect()
}

/// A run's result: its metrics plus what the human-readable lines need.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Builds the metrics of one run. `untraced` timed sub-runs give the
/// end-to-end timings, the `Model` sub-run the NUMA-modeled cost, and
/// (with `trace`) the traced timed sub-runs the per-layer counters.
pub fn outcome(runs: &[SubRun], trace: bool, clock: &Clock, stamp_ns: f64) -> Outcome {
    let plain: Vec<&SubRun> = runs
        .iter()
        .filter(|r| r.mode == Mode::Timed { traced: false })
        .collect();
    let traced: Vec<&SubRun> = runs
        .iter()
        .filter(|r| r.mode == Mode::Timed { traced: true })
        .collect();
    let model = runs
        .iter()
        .find(|r| r.mode == Mode::Model)
        .expect("every run has a model sub-run");
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();
    let plain_ops_per_s = median(plain.iter().map(|r| r.ops_per_s()).collect());
    let mut notes = vec![
        format!(
            "sub-runs: {} (untraced timed {}, traced timed {}, model 1); settled warm-ups {}/{}",
            runs.len(),
            plain.len(),
            traced.len(),
            runs.iter().filter(|r| r.settled).count(),
            runs.len()
        ),
        format!(
            "latency percentiles: median over the untraced set-ups of each set-up's percentile of raw \
             per-call durations; samples per set-up: reads {:?}, writes {:?}; timer stamp {:.1} ns, two per call",
            sample_counts(&plain, |s| s.reads.len()),
            sample_counts(&plain, |s| s.writes.len()),
            stamp_ns
        ),
        format!(
            "setup transitions (down/up): {}; measured-phase transitions: {}",
            runs.iter()
                .map(|r| format!("{}/{}", r.tele.downshifts, r.tele.upshifts))
                .collect::<Vec<_>>()
                .join(" "),
            runs.iter()
                .map(|r| r.tele.measured_transitions.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "per timed sub-run (ops/s, setup s, B/key at window end): {}",
            runs.iter()
                .filter(|r| r.mode != Mode::Model)
                .map(|r| format!(
                    "({:.0}, {:.3}, {:.1})",
                    r.ops_per_s(),
                    r.setup_s(),
                    r.tele.bytes_per_key
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    let mut metrics = Vec::new();
    if !trace {
        let model_ops = model.ops();
        let cost = model.counts.as_ref().expect("model sub-run records");
        metrics.extend([
            m("ops_per_s", plain_ops_per_s, "1/s"),
            m(
                "read_p50_ns",
                median_percentile(&plain, clock, 0.50, |s| &s.reads),
                "ns",
            ),
            m(
                "read_p99_ns",
                median_percentile(&plain, clock, 0.99, |s| &s.reads),
                "ns",
            ),
            m(
                "write_p50_ns",
                median_percentile(&plain, clock, 0.50, |s| &s.writes),
                "ns",
            ),
            m(
                "write_p99_ns",
                median_percentile(&plain, clock, 0.99, |s| &s.writes),
                "ns",
            ),
            m("bytes_per_key", model.tele.bytes_per_key, "B"),
            m(
                "numa_cost_per_op",
                cost.modeled_cost() / model_ops as f64,
                "lines/op",
            ),
            m(
                "setup_s",
                median(plain.iter().map(|r| r.setup_s()).collect()),
                "s",
            ),
        ]);
        notes.push(format!(
            "numa_cost_per_op is NUMA-modeled (remote line = 5x local) over a lockstep pass of \
             {model_ops} ops ({:.2} s) after a fixed lockstep warm-up, and bytes_per_key is read \
             at its end: a fixed amount of work, so the footprint takes in churn's growth but not \
             how many operations a timed window happened to hold",
            model.phase_s()
        ));
        return Outcome {
            metrics,
            notes,
            attempted,
            failed,
        };
    }

    let c = traced
        .iter()
        .filter_map(|r| r.counts)
        .fold(Counts::default(), |a, b| a.plus(&b));
    let ops: u64 = traced.iter().map(|r| r.ops()).sum();
    let writes_n: u64 = traced.iter().map(|r| r.write_calls()).sum();
    let t = &traced
        .last()
        .expect("a traced run has traced sub-runs")
        .tele;
    let traced_ops_per_s = median(traced.iter().map(|r| r.ops_per_s()).collect());
    let spans: usize = traced
        .iter()
        .flat_map(|r| r.samples.iter())
        .map(|s| s.spans.len())
        .sum();
    let index_lookups = c.index_hits + c.index_misses + c.index_stale;
    let reads = c.local_reads + c.remote_reads;
    let cas = c.local_cas + c.remote_cas;
    let first = &runs[0];
    metrics.extend([
        m(
            "replicate.log_appends_per_write",
            ratio(c.log_appends, writes_n),
            "ratio",
        ),
        m(
            "replicate.replay_amplification",
            ratio(c.replayed_ops, c.log_appends),
            "ratio",
        ),
        m(
            "replicate.mean_replay_batch",
            ratio(c.replayed_ops, c.replay_batches),
            "ops",
        ),
        m(
            "replicate.collapse_share",
            ratio(c.collapsed_ops, c.replayed_ops),
            "ratio",
        ),
        m(
            "replicate.mean_log_lag",
            ratio(c.log_lag_sum, c.log_appends),
            "slots",
        ),
        m("replicate.sync_ns", t.sync_ns, "ns"),
        m("adapt.downshifts", t.downshifts as f64, "count"),
        m("adapt.upshifts", t.upshifts as f64, "count"),
        m(
            "adapt.measured_transitions",
            traced
                .iter()
                .map(|r| r.tele.measured_transitions)
                .sum::<u64>() as f64,
            "count",
        ),
        m("adapt.asc_switches", t.asc_switches as f64, "count"),
        m(
            "adapt.asc_engaged",
            f64::from(u8::from(t.asc_engaged)),
            "bool",
        ),
        m(
            "index.hit_share",
            ratio(c.index_hits, index_lookups),
            "ratio",
        ),
        m(
            "index.stale_share",
            ratio(c.index_stale, index_lookups),
            "ratio",
        ),
        m(
            "index.mean_probe",
            t.index_probe_sum / t.index_entries.max(1) as f64,
            "slots",
        ),
        m(
            "index.load_factor",
            ratio(t.index_entries, t.index_capacity),
            "ratio",
        ),
        m("index.probe_grows", t.index_probe_grows as f64, "count"),
        m(
            "index.bytes_per_key",
            ratio(t.index_bytes, t.live_keys),
            "B",
        ),
        m(
            "graph.nodes_per_search",
            ratio(c.traversed, c.searches),
            "nodes",
        ),
        m("graph.cas_per_op", ratio(cas, ops), "cas/op"),
        m(
            "graph.cas_failure_share",
            ratio(c.cas_failures, c.cas_attempts),
            "ratio",
        ),
        m(
            "graph.remote_read_share",
            ratio(c.remote_reads, reads),
            "ratio",
        ),
        m("graph.remote_cas_share", ratio(c.remote_cas, cas), "ratio"),
        m("graph.lines_per_op", ratio(c.lines(), ops), "lines/op"),
        m(
            "local.hinted_share",
            ratio(c.hinted_searches, c.searches),
            "ratio",
        ),
        m(
            "local.nodes_per_hinted_search",
            ratio(c.hinted_traversed, c.hinted_searches),
            "nodes",
        ),
        m(
            "block.anchor_hit_share",
            ratio(c.anchor_hits, c.searches),
            "ratio",
        ),
        m(
            "block.mean_group_width",
            ratio(c.grouped_ops, c.anchor_groups),
            "ops",
        ),
        m(
            "block.bulk_entries_per_block",
            ratio(c.bulk_entries, c.bulk_blocks),
            "keys",
        ),
        m(
            "block.fill",
            ratio(t.block_entries, t.anchors * t.block_cap),
            "ratio",
        ),
        m("batch.mean_batch", mean_batch(&c, t), "ops"),
        m("batch.batch_p99", t.batch_keys as f64, "ops"),
        m(
            "reclaim.recycle_share",
            ratio(c.recycled, c.retired),
            "ratio",
        ),
        m("reclaim.limbo_nodes", t.limbo_nodes as f64, "count"),
        m(
            "reclaim.epoch_advances_per_kop",
            ratio(c.epoch_advances * 1000, ops),
            "1/kop",
        ),
        m(
            "numa.pinned_threads",
            traced.iter().map(|r| r.pinned).min().unwrap_or(0) as f64,
            "count",
        ),
        m("setup.build_s", first.build_s, "s"),
        m("setup.preload_s", first.preload_s, "s"),
        m("setup.warmup_s", first.warmup_s, "s"),
        m("trace.ops_per_s", traced_ops_per_s, "1/s"),
        m(
            "trace.overhead",
            traced_ops_per_s / plain_ops_per_s,
            "ratio",
        ),
        m("trace.spans", spans as f64, "count"),
        m("timer.stamp_ns", stamp_ns, "ns"),
        m(
            "samples.read",
            sample_counts(&traced, |s| s.reads.len())
                .iter()
                .sum::<usize>() as f64,
            "count",
        ),
        m(
            "samples.write",
            sample_counts(&traced, |s| s.writes.len())
                .iter()
                .sum::<usize>() as f64,
            "count",
        ),
    ]);
    notes.push(
        "trace.overhead = traced ops/s / untraced ops/s of this run's own untraced sub-run; \
         setup.* decompose that untraced sub-run's setup_s"
            .to_string(),
    );
    if t.block_cap == 0 {
        notes.push(
            "absent (0): block.*, adapt.asc_* and batch.batch_p99 - the replicated subject has \
             no blocks, and its replay runs do not feed the batch-size histogram; \
             batch.mean_batch is the replay run length"
                .to_string(),
        );
    } else {
        notes.push(
            "absent (0): replicate.* and adapt.down/upshifts/measured_transitions - the blocked \
             subject has no replicas; batch.* are execute_batch keys per call (fixed by the workload)"
                .to_string(),
        );
    }
    Outcome {
        metrics,
        notes,
        attempted,
        failed,
    }
}

/// Keys per sorted run through the batch path: replay runs on the
/// replicated subject, `execute_batch` calls on the blocked one.
fn mean_batch(c: &Counts, t: &Telemetry) -> f64 {
    if t.batch_keys > 0 {
        t.batch_keys as f64
    } else {
        ratio(c.replayed_ops, c.replay_batches)
    }
}

/// Writes the kept call spans as CSV (`name,client,op,start_ns,end_ns`),
/// with each set-up's build, preload and warm-up as spans of client 255
/// whose op id is the sub-run's index.
pub fn write_spans(path: &Path, runs: &[SubRun], clock: &Clock) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,client,op,start_ns,end_ns")?;
    let mut setup = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let mut t = clock.since_epoch(r.started);
        for (name, secs) in [
            ("setup.build", r.build_s),
            ("setup.preload", r.preload_s),
            ("setup.warmup", r.warmup_s),
        ] {
            let end = t + (secs * 1e9) as u64;
            setup.push(Span {
                name,
                client: u8::MAX,
                op: i as u64,
                start_ns: t,
                end_ns: end,
            });
            t = end;
        }
    }
    let spans = runs
        .iter()
        .flat_map(|r| r.samples.iter())
        .flat_map(|s| s.spans.iter())
        .chain(&setup);
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.name, s.client, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The result line: one JSON object, the last line of standard output.
pub fn json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, mt) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            mt.name, mt.value, mt.unit
        );
    }
    s.push_str("}}");
    s
}
