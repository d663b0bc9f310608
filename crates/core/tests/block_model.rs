//! The differential/property test wall around the blocked map's
//! split/merge machinery.
//!
//! Three rings: (1) single-threaded differential checks against
//! `BTreeMap` over arbitrary op sequences (colliding keys included) at
//! the capacities that force constant splitting and merging; (2)
//! real-thread runs over disjoint key classes (`k % threads == t`) whose
//! final state is exactly predictable; (3) the same runs under the
//! deterministic scheduler's round-robin and PCT policies, where every
//! interleaving is replayable. The structural invariants (anchor order,
//! coverage, no frozen residue) are re-checked after every run.
#![cfg(not(feature = "bug-injection"))]

use instrument::{AccessStats, ThreadCtx};
use proptest::prelude::*;
use skipgraph::{BatchOp, BlockPolicy, BlockedOutcome, BlockedSkipMap, GraphConfig};
use std::collections::BTreeMap;
use std::ops::Bound;

fn bound_from(tag: u8, k: u64) -> Bound<u64> {
    match tag % 3 {
        0 => Bound::Unbounded,
        1 => Bound::Included(k),
        _ => Bound::Excluded(k),
    }
}

fn as_ref_bound(b: &Bound<u64>) -> Bound<&u64> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential: any op sequence on a blocked map behaves exactly
    /// like a `BTreeMap`, for the split-happy capacities and both tower
    /// regimes.
    #[test]
    fn behaves_like_btreemap(
        ops in proptest::collection::vec((0u8..4, 0u64..48, 0u64..1000), 1..350),
        cap_sel: bool,
        sparse: bool,
    ) {
        let cap = if cap_sel { 2 } else { 4 };
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(2).sparse(sparse).chunk_capacity(256),
            cap,
        );
        let ctx = ThreadCtx::plain(0);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(
                    map.insert(k, v, &ctx),
                    !model.contains_key(&k),
                    "insert {}", k
                ),
                1 => prop_assert_eq!(map.remove(&k, &ctx), model.remove(&k).is_some(), "remove {}", k),
                2 => prop_assert_eq!(map.get(&k, &ctx), model.get(&k).copied(), "get {}", k),
                _ => prop_assert_eq!(map.contains(&k, &ctx), model.contains_key(&k), "contains {}", k),
            }
            if op == 0 && !model.contains_key(&k) {
                model.insert(k, v);
            }
        }
        let got: Vec<(u64, u64)> = map.iter(&ctx).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        map.check_invariants(&ctx).map_err(TestCaseError::fail)?;
    }

    /// Differential range scans: arbitrary bounds against the model,
    /// after a mixed load that leaves tombstones in most blocks.
    #[test]
    fn ranges_match_btreemap(
        keys in proptest::collection::vec(0u64..64, 1..120),
        removes in proptest::collection::vec(0u64..64, 0..60),
        start in (0u8..3, 0u64..64),
        end in (0u8..3, 0u64..64),
    ) {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(2).chunk_capacity(256),
            4,
        );
        let ctx = ThreadCtx::plain(0);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in keys {
            map.insert(k, k * 3, &ctx);
            model.entry(k).or_insert(k * 3);
        }
        for k in removes {
            map.remove(&k, &ctx);
            model.remove(&k);
        }
        let (sb, eb) = (bound_from(start.0, start.1), bound_from(end.0, end.1));
        // An inverted range is a caller error for BTreeMap::range; give
        // the model the same guard the map's iterator applies naturally.
        let inverted = match (&sb, &eb) {
            (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e) | Bound::Excluded(e)) => s > e,
            _ => false,
        };
        if !inverted {
            let got = map.range_to_vec(as_ref_bound(&sb), eb, &ctx);
            let want: Vec<(u64, u64)> = model.range((sb, eb)).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "range {:?}..{:?}", sb, eb);
        }
        map.check_invariants(&ctx).map_err(TestCaseError::fail)?;
    }

    /// Anchor-cache differential: the same arbitrary-sequence contract as
    /// `behaves_like_btreemap`, but routed through a [`BlockedHandle`] so
    /// every point op resolves via the per-thread anchor cache first —
    /// under compacting policies (non-default merge threshold and biased
    /// split points, so splits *and* merges retire cached anchors
    /// constantly) and, in half the cases, with reclamation on and
    /// explicit grace-period flushes mid-sequence. A flush recycles the
    /// retired anchors the cache still references, so subsequent hits
    /// must die on the generation check; a cached anchor surviving past
    /// a split/merge/recycle would answer the very next op from the
    /// wrong block and diverge from the model immediately.
    #[test]
    fn anchor_cached_handle_behaves_like_btreemap(
        ops in proptest::collection::vec((0u8..9, 0u64..48, 0u64..1000), 1..350),
        policy_sel in 0u8..3,
        reclaim: bool,
    ) {
        let (cap, policy) = match policy_sel {
            0 => (2, BlockPolicy { split_left_pct: 50, merge_threshold: 1, fill_target: 2 }),
            1 => (4, BlockPolicy { split_left_pct: 25, merge_threshold: 2, fill_target: 3 }),
            _ => (4, BlockPolicy { split_left_pct: 75, merge_threshold: 1, fill_target: 4 }),
        };
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::with_policy(
            GraphConfig::new(2).reclaim(reclaim).chunk_capacity(256),
            cap,
            policy,
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0..=2 => {
                    let expect = !model.contains_key(&k);
                    prop_assert_eq!(h.insert(k, v), expect, "insert {}", k);
                    if expect {
                        model.insert(k, v);
                    }
                }
                3 | 4 => prop_assert_eq!(
                    h.remove(&k),
                    model.remove(&k).is_some(),
                    "remove {}",
                    k
                ),
                5 | 6 => prop_assert_eq!(h.get(&k), model.get(&k).copied(), "get {}", k),
                7 => prop_assert_eq!(h.contains(&k), model.contains_key(&k), "contains {}", k),
                _ => {
                    // Retire-and-recycle point: with reclamation on, every
                    // anchor a split or merge has retired so far is now
                    // recycled under a bumped generation while the handle
                    // still caches a reference to the old incarnation.
                    if reclaim {
                        map.shared().reclaim_flush(h.ctx());
                    }
                }
            }
        }
        // Final sweep through the (now maximally stale) anchor cache.
        for k in 0..48u64 {
            prop_assert_eq!(h.get(&k), model.get(&k).copied(), "final get {}", k);
        }
        let ctx = ThreadCtx::plain(1);
        let got: Vec<(u64, u64)> = map.iter(&ctx).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        map.check_invariants(&ctx).map_err(TestCaseError::fail)?;
    }
}

/// Seeded per-thread op plan over this thread's key class (`k % threads
/// == t`): a pure function of `(seed, t)`, so real-thread and
/// deterministic runs execute identical plans.
fn class_plan(seed: u64, t: u64, threads: u64, ops: usize, key_space: u64) -> Vec<(u8, u64)> {
    let mut x = seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    (0..ops)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x / 8 % (key_space / threads)) * threads + t;
            ((x % 8) as u8, k)
        })
        .collect()
}

/// Applies one plan through a hint-caching handle, mirroring it on a
/// model; returns the model (exact, because key classes are disjoint).
fn run_plan(
    map: &BlockedSkipMap<u64, u64>,
    t: u16,
    plan: &[(u8, u64)],
) -> BTreeMap<u64, u64> {
    let mut h = map.register(ThreadCtx::plain(t));
    let mut model = BTreeMap::new();
    for &(op, k) in plan {
        match op {
            0..=3 => {
                let expect = !model.contains_key(&k);
                assert_eq!(h.insert(k, k + 1), expect, "t{t} insert {k}");
                if expect {
                    model.insert(k, k + 1);
                }
            }
            4..=5 => {
                let expect = model.remove(&k).is_some();
                assert_eq!(h.remove(&k), expect, "t{t} remove {k}");
            }
            _ => {
                assert_eq!(h.get(&k), model.get(&k).copied(), "t{t} get {k}");
            }
        }
    }
    model
}

fn check_final_state(map: &BlockedSkipMap<u64, u64>, models: Vec<BTreeMap<u64, u64>>) {
    let ctx = ThreadCtx::plain(0);
    let mut want: BTreeMap<u64, u64> = BTreeMap::new();
    for m in models {
        want.extend(m);
    }
    for (&k, &v) in &want {
        assert_eq!(map.get(&k, &ctx), Some(v), "final get {k}");
    }
    let got: Vec<(u64, u64)> = map.iter(&ctx).collect();
    let want_vec: Vec<(u64, u64)> = want.into_iter().collect();
    assert_eq!(got, want_vec, "final scan mismatch");
    map.check_invariants(&ctx).unwrap();
}

/// Real threads, disjoint key classes: every per-thread op outcome and
/// the final state are exactly predictable even though splits and merges
/// interleave freely.
#[test]
fn real_threads_disjoint_classes_are_exact() {
    const THREADS: u64 = 3;
    for (cap, seed) in [(2usize, 11u64), (4, 22), (8, 33)] {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(THREADS as usize).chunk_capacity(1 << 10),
            cap,
        );
        let models = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let map = &map;
                    s.spawn(move || {
                        let plan = class_plan(seed, t, THREADS, 400, 60);
                        run_plan(map, t as u16, &plan)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        check_final_state(&map, models);
    }
}

/// A real-thread writer splits blocks while a reader iterates across
/// them: scans must stay strictly ascending and never lose a key that
/// was present before the scan began (satellite of the weak-snapshot
/// contract).
#[test]
fn iteration_crosses_blocks_under_concurrent_splits() {
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
        GraphConfig::new(2).chunk_capacity(1 << 10),
        4,
    );
    let setup = ThreadCtx::plain(0);
    let stable: Vec<u64> = (0..120).map(|i| i * 10).collect();
    for &k in &stable {
        map.insert(k, k, &setup);
    }
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let ctx = ThreadCtx::plain(1);
            // Odd keys only: the stable (even) keys are never touched, so
            // every scan must observe all of them.
            for round in 0..6u64 {
                for i in 0..120 {
                    map.insert(i * 10 + 1 + round, i, &ctx);
                }
                for i in 0..120 {
                    map.remove(&(i * 10 + 1 + round), &ctx);
                }
            }
        });
        let ctx = ThreadCtx::plain(0);
        for _ in 0..8 {
            let seen: Vec<u64> = map.iter(&ctx).map(|(k, _)| k).collect();
            let mut ascending = seen.clone();
            ascending.sort_unstable();
            ascending.dedup();
            assert_eq!(seen, ascending, "scan not strictly ascending");
            for &k in &stable {
                assert!(seen.binary_search(&k).is_ok(), "stable key {k} lost mid-scan");
            }
        }
        writer.join().unwrap();
    });
    map.check_invariants(&ThreadCtx::plain(0)).unwrap();
}

/// Split-storm liveness regression: a hot shared key space at the
/// smallest capacity makes every block freeze, split, and re-split while
/// replacements for the *same* anchor keys race their upper-level
/// linking. This is the workload that exposed the self-successor
/// livelock (a replacement's duplicate `link_upper` adopting itself as
/// its own level-1 successor, spinning every traversal) — a regression
/// hangs this test rather than failing an assert.
#[test]
fn split_storm_on_shared_keys_stays_live() {
    const KEY_SPACE: u64 = 512;
    for seed in [3u64, 71, 123] {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(6).chunk_capacity(1 << 12),
            2,
        );
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t as u16));
                    let mut x = seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                    for _ in 0..30_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x / 8 % KEY_SPACE;
                        // Write-heavy: blocks churn through fill,
                        // freeze, split, and merge continuously.
                        match x % 8 {
                            0..=4 => {
                                h.insert(k, k);
                            }
                            5 | 6 => {
                                h.remove(&k);
                            }
                            _ => {
                                h.get(&k);
                            }
                        }
                    }
                });
            }
        });
        let ctx = ThreadCtx::plain(0);
        for (k, v) in map.iter(&ctx) {
            assert!(k < KEY_SPACE && v == k, "stray entry {k} -> {v}");
        }
        map.check_invariants(&ctx).unwrap();
    }
}

/// Cost regression for sorted-run resolution and the split install: two
/// producers on one event clock (client `c` owns keys `2·seq + c`) append
/// alternating windowed batches — 32 ascending inserts at the tail plus
/// removes of the client's oldest 32 — over 2^16 live keys in a tall
/// sparse map. Block boundaries straddle the two clients' batches, so a
/// batch's removes leave a live block at the window's head. Each batch's
/// groups must start from a live anchor near their keys and each install
/// from a descent, so a batch touches a bounded number of node
/// references. Walking from the window's head to its tail (~8 000
/// anchors per batch) fails the bound by more than 10x.
#[test]
fn windowed_tail_append_cost_is_bounded() {
    const WINDOW: u64 = 1 << 15; // per client
    const BATCH: u64 = 32;
    const ROUNDS: u64 = 64;
    const MAX_REFS_PER_BATCH: u64 = 1_000;
    let sink = AccessStats::new(2);
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
        GraphConfig::new(2)
            .max_level(7)
            .sparse(true)
            .chunk_capacity(1 << 12),
        8,
    );
    let mut clients = [0u16, 1].map(|c| map.register(ThreadCtx::recording(c, sink.clone())));
    let key = |c: usize, seq: u64| 2 * seq + c as u64;
    // Batch `j` belongs to client `j % 2` and covers event times
    // `32·j ..`; once a client's window is full, it also expires the batch
    // it wrote `WINDOW / 32` batches of its own ago.
    let mut batch = |j: u64| {
        let c = (j % 2) as usize;
        let start = j * BATCH;
        let mut ops: Vec<BatchOp<u64, u64>> = (start..start + BATCH)
            .map(|s| BatchOp::Insert(key(c, s), s))
            .collect();
        let own_batches = WINDOW / BATCH;
        if j >= 2 * own_batches {
            let old = (j - 2 * own_batches) * BATCH;
            ops.extend((old..old + BATCH).map(|s| BatchOp::Remove(key(c, s))));
        }
        let n = ops.len();
        let out = clients[c].execute_batch(ops);
        for (i, o) in out.iter().enumerate() {
            let want = if i < BATCH as usize {
                BlockedOutcome::Inserted(true)
            } else {
                BlockedOutcome::Removed(true)
            };
            assert_eq!(*o, want, "batch {j} op {i} of {n}");
        }
    };
    let fill = 2 * WINDOW / BATCH;
    for j in 0..fill {
        batch(j);
    }
    let before = sink.reads().total();
    for j in fill..fill + ROUNDS {
        batch(j);
    }
    let per_batch = (sink.reads().total() - before) / ROUNDS;
    assert!(
        per_batch <= MAX_REFS_PER_BATCH,
        "{per_batch} node references read per windowed batch (bound {MAX_REFS_PER_BATCH})"
    );
    let ctx = ThreadCtx::plain(0);
    assert_eq!(map.len(&ctx), 2 * WINDOW as usize);
    map.check_invariants(&ctx).unwrap();
}

/// The same disjoint-class exactness under the deterministic scheduler:
/// every facade access is sequenced by the policy, so failures here come
/// with a replayable schedule.
#[cfg(feature = "deterministic")]
mod deterministic {
    use super::*;
    use skipgraph::det::{self, DetConfig, Policy};
    use std::sync::Mutex;

    const THREADS: u64 = 3;

    fn det_round(cap: usize, seed: u64, det: DetConfig) {
        let map: BlockedSkipMap<u64, u64> =
            BlockedSkipMap::new(GraphConfig::new(THREADS as usize).chunk_capacity(512), cap);
        det_plans(&map, seed, 60, det);
    }

    /// Runs one disjoint-class plan per thread under `det` and checks the
    /// final state exactly.
    fn det_plans(map: &BlockedSkipMap<u64, u64>, seed: u64, ops: usize, det: DetConfig) {
        let models = Mutex::new(Vec::new());
        let workers: Vec<Box<dyn FnOnce() + Send>> = (0..THREADS)
            .map(|t| {
                let models = &models;
                Box::new(move || {
                    let plan = class_plan(seed, t, THREADS, ops, 24);
                    let model = run_plan(map, t as u16, &plan);
                    models.lock().unwrap().push(model);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        det::run_threads(&det, workers);
        check_final_state(map, models.into_inner().unwrap());
    }

    #[test]
    fn round_robin_schedules_are_exact() {
        for (cap, seed, quantum) in [(2usize, 1u64, 1u32), (2, 2, 3), (4, 3, 2), (4, 4, 7)] {
            det_round(cap, seed, DetConfig::new(seed, Policy::RoundRobin { quantum }));
        }
    }

    #[test]
    fn pct_schedules_are_exact() {
        for (cap, seed) in [(2usize, 5u64), (2, 6), (4, 7), (4, 8)] {
            det_round(
                cap,
                seed,
                DetConfig::new(
                    seed,
                    Policy::Pct {
                        change_points: 10,
                        expected_steps: 30_000,
                    },
                ),
            );
        }
    }

    /// The split install's protocol edge: the install walk starts at a
    /// descended level-0 predecessor, and these schedules freeze and
    /// replace that predecessor before the walk reaches the anchor (the
    /// walk then meets the anchor behind a dying reference, helps the
    /// predecessor, and descends again). Sparse towers at cap 2 with a
    /// compacting merge threshold keep neighbouring blocks splitting and
    /// merging together. Every schedule must install each frozen block
    /// exactly once and leave an exact, live map; across the sweep the
    /// edge must actually be reached.
    #[test]
    fn install_survives_a_dying_descended_predecessor() {
        let mut redescents = 0;
        for seed in 0..12u64 {
            let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::with_policy(
                GraphConfig::new(THREADS as usize)
                    .max_level(3)
                    .sparse(true)
                    .chunk_capacity(512),
                2,
                BlockPolicy {
                    split_left_pct: 50,
                    merge_threshold: 1,
                    fill_target: 2,
                },
            );
            let policy = if seed % 2 == 0 {
                Policy::Pct {
                    change_points: 10,
                    expected_steps: 30_000,
                }
            } else {
                Policy::RoundRobin {
                    quantum: 1 + seed as u32 % 5,
                }
            };
            det_plans(&map, 100 + seed, 80, DetConfig::new(seed, policy));
            let c = map.install_counts();
            assert_eq!(
                c.freezes, c.installs,
                "seed {seed}: install not exactly once: {c:?}"
            );
            redescents += c.redescents;
        }
        assert!(
            redescents > 0,
            "no schedule froze a descended install predecessor"
        );
    }
}
