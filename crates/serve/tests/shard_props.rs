//! Property tests pinning the sharded cache to the single-shard cache.
//!
//! The contract (documented on `ujam_serve::shard`):
//!
//! 1. **Shard count 1 is bitwise the single [`DecisionCache`]** — an
//!    arbitrary operation stream produces identical get results,
//!    eviction counts (summed from `insert`'s return values), entry
//!    counts, and byte ledgers.
//! 2. **N shards behave as N independent `DecisionCache`s**, each fed
//!    the subsequence of keys hashing to it ([`shard_of`]) with
//!    `capacity.div_ceil(n)` entries — every get answer and every
//!    insert's eviction checked per shard.
//! 3. **In the no-eviction regime the shard count is unobservable**:
//!    any shard count yields identical get results, entry counts, and
//!    byte totals.
//!
//! Streams are seeded (`ujam-rng`'s SplitMix64), so every run replays
//! the same operations.

use ujam_rng::Rng;
use ujam_serve::shard_of;
use ujam_serve::{Decision, DecisionCache, ShardedDecisionCache};

/// A synthetic decision whose owned buffers vary with `tag`, so the
/// byte ledger exercises different entry costs.
fn decision(tag: u64) -> Decision {
    Decision {
        nest: format!("nest-{tag}"),
        unroll: vec![(tag % 7) as u32, (tag % 3) as u32],
        balance: 0.25 + (tag % 10) as f64,
        original_balance: 1.5 + (tag % 4) as f64,
        registers: (tag % 30) as i64,
    }
}

/// One seeded op stream: a mix of gets and inserts over a key pool
/// small enough (relative to `capacity`) to force plenty of hits and,
/// when the pool exceeds capacity, evictions.
#[derive(Clone, Copy)]
struct Stream {
    seed: u64,
    ops: usize,
    keys: usize,
}

impl Stream {
    /// Replays the stream into `get` / `insert` callbacks.
    fn replay(self, mut get: impl FnMut(&str), mut insert: impl FnMut(String, Decision)) {
        let mut rng = Rng::new(self.seed);
        for _ in 0..self.ops {
            let k = rng.index(self.keys);
            let key = format!("decision-key-{k:04}");
            if rng.chance(0.5) {
                get(&key);
            } else {
                insert(key, decision(k as u64));
            }
        }
    }
}

/// The observable state of a cache after a stream, for equality checks.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Entries evicted, summed over every insert's return value.
    evictions: u64,
    len: usize,
    bytes: usize,
    /// The sequence of get outcomes (`Some(nest)` or `None`), in
    /// stream order — the hits and misses, and the *answers*.
    gets: Vec<Option<String>>,
}

fn run_sharded(stream: Stream, capacity: usize, shards: usize) -> Observed {
    let cache = ShardedDecisionCache::new(capacity, shards);
    let mut gets = Vec::new();
    let mut evictions = 0;
    stream.replay(
        |key| gets.push(cache.get(key).1.map(|d| d.nest)),
        |key, d| evictions += cache.insert(key, d).evicted,
    );
    Observed {
        evictions,
        len: cache.len(),
        bytes: cache.approx_bytes(),
        gets,
    }
}

fn run_unsharded(stream: Stream, capacity: usize) -> Observed {
    let cache = std::cell::RefCell::new(DecisionCache::new(capacity));
    let mut gets = Vec::new();
    let mut evictions = 0;
    stream.replay(
        |key| gets.push(cache.borrow_mut().get(key).map(|d| d.nest)),
        |key, d| evictions += cache.borrow_mut().insert(key, d),
    );
    let cache = cache.into_inner();
    Observed {
        evictions,
        len: cache.len(),
        bytes: cache.approx_bytes(),
        gets,
    }
}

#[test]
fn one_shard_is_exactly_the_single_lock_cache() {
    // Capacity below the key-pool size, so LRU eviction is exercised
    // hard — the regime where a sharding bug would diverge.
    for seed in 0..24 {
        let stream = Stream {
            seed: 0xC0FFEE ^ seed,
            ops: 600,
            keys: 48,
        };
        for capacity in [0, 1, 7, 16, 64] {
            let sharded = run_sharded(stream, capacity, 1);
            let single = run_unsharded(stream, capacity);
            assert_eq!(
                sharded, single,
                "seed {seed} capacity {capacity}: shard count 1 must reproduce \
                 the single cache exactly"
            );
        }
    }
}

#[test]
fn n_shards_are_n_independent_caches_partitioned_by_content_hash() {
    for &shards in &[1usize, 2, 8] {
        for seed in 0..12 {
            let stream = Stream {
                seed: 0xBEEF ^ seed,
                ops: 500,
                keys: 40,
            };
            let capacity = 24; // forces eviction in at least some shards
            let cache = ShardedDecisionCache::new(capacity, shards);

            // The model: one DecisionCache per shard, each fed only the
            // keys that hash to it, each with the per-shard capacity.
            let per_shard = capacity.div_ceil(shards);
            let mut model: Vec<DecisionCache> =
                (0..shards).map(|_| DecisionCache::new(per_shard)).collect();

            // Replayed inline (not via `Stream::replay`) because both
            // arms need mutable access to the model caches.
            let mut rng = Rng::new(stream.seed);
            for _ in 0..stream.ops {
                let k = rng.index(stream.keys);
                let key = format!("decision-key-{k:04}");
                if rng.chance(0.5) {
                    let (shard, got) = cache.get(&key);
                    assert_eq!(shard, shard_of(&key, shards), "routing is the content hash");
                    let want = model[shard].get(&key);
                    assert_eq!(
                        got.map(|d| d.nest),
                        want.map(|d| d.nest),
                        "shards {shards} seed {seed}: shard {shard} answered differently"
                    );
                } else {
                    let d = decision(k as u64);
                    let shard = shard_of(&key, shards);
                    let want = model[shard].insert(key.clone(), d.clone());
                    let outcome = cache.insert(key, d);
                    assert_eq!(outcome.shard, shard);
                    assert_eq!(
                        outcome.evicted, want,
                        "shards {shards} seed {seed}: shard {shard} evicted differently"
                    );
                }
            }

            let total_bytes: usize = model.iter().map(DecisionCache::approx_bytes).sum();
            assert_eq!(
                cache.approx_bytes(),
                total_bytes,
                "byte ledger is the shard sum"
            );
            let total_len: usize = model.iter().map(DecisionCache::len).sum();
            assert_eq!(cache.len(), total_len);
        }
    }
}

#[test]
fn shard_count_is_unobservable_without_eviction_pressure() {
    for seed in 0..12 {
        let stream = Stream {
            seed: 0xF00D ^ seed,
            ops: 400,
            keys: 32,
        };
        // Capacity comfortably above the key pool: nothing ever evicts,
        // so hit/miss accounting must be independent of the shard map.
        let reference = run_sharded(stream, 256, 1);
        assert_eq!(reference.evictions, 0, "regime sanity: no evictions");
        for shards in [2, 3, 8, 16] {
            let observed = run_sharded(stream, 256, shards);
            assert_eq!(
                observed, reference,
                "seed {seed}: {shards} shards changed observable behavior \
                 despite zero evictions"
            );
        }
    }
}

#[test]
fn per_shard_capacity_never_shrinks_the_aggregate() {
    // 10 entries over 4 shards → ceil(10/4) = 3 per shard = 12 total:
    // an N-shard cache never holds fewer entries than the capacity it
    // was asked for (it may hold slightly more).
    let cache = ShardedDecisionCache::new(10, 4);
    for i in 0..200 {
        cache.insert(format!("k{i}"), decision(i));
    }
    assert!(
        (10..=12).contains(&cache.len()),
        "aggregate capacity should be 10..=ceil-rounded 12, got {}",
        cache.len()
    );
}
