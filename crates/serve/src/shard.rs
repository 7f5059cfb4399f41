//! An N-way sharded wrapper over the content-addressed decision cache.
//!
//! A single global LRU behind one mutex is exactly the contention point
//! a multi-connection daemon cannot afford: every worker serializes on
//! every lookup.  Sharding splits the key space by a stable content
//! hash ([`shard_of`]) so lookups for different shards never touch the
//! same lock, while lookups for the *same* content still always land on
//! the same shard — the cache stays content-addressed.
//!
//! Semantics are pinned to the single-shard cache (`shard_props.rs`):
//!
//! * **Shard count 1 is bitwise the single cache** — same answers,
//!   same evictions, same byte ledger, for any operation stream.
//! * **N shards behave as N independent [`DecisionCache`]s** fed the
//!   subsequence of operations whose keys hash to them, each with
//!   `capacity.div_ceil(n)` entries.  Every answer is therefore
//!   identical to the single cache's whenever nothing evicts; under
//!   eviction pressure each shard runs its own LRU (global recency is
//!   the one thing sharding gives up — by design, it is what the lock
//!   was serializing).
//! * **The byte ledger is preserved**: [`approx_bytes`] is the exact
//!   sum of the per-shard ledgers.
//!
//! [`approx_bytes`]: ShardedDecisionCache::approx_bytes

use std::sync::{Arc, Mutex};

use crate::cache::{Decision, DecisionCache};

/// FNV-1a, the same stable 64-bit content hash everywhere: no
/// per-process seed, so a key maps to one shard for the daemon's whole
/// life (and across daemons — the future shared cache tier relies on
/// this).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard index a key belongs to, for a cache of `shards` shards.
pub fn shard_of(key: &str, shards: usize) -> usize {
    (fnv1a(key) % shards.max(1) as u64) as usize
}

/// What an insert did: which shard took the entry and how many entries
/// that shard evicted to make room.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The shard the key hashed to.
    pub shard: usize,
    /// Entries evicted by this insert (0 or 1).
    pub evicted: u64,
}

/// A content-hash-sharded [`DecisionCache`]: per-shard locks, one byte
/// ledger summed across shards.  Like the single cache it keeps no
/// counters; [`ShardedDecisionCache::get`] and
/// [`ShardedDecisionCache::insert`] report the shard they used.
#[derive(Debug)]
pub struct ShardedDecisionCache {
    shards: Vec<Mutex<DecisionCache>>,
}

impl ShardedDecisionCache {
    /// A cache of `capacity` total entries split over `shards` shards
    /// (clamped to at least 1).  Each shard holds up to
    /// `capacity.div_ceil(shards)` entries, so a one-shard cache is
    /// exactly the unsharded cache and an N-shard cache never holds
    /// fewer than `capacity` entries in aggregate.  Capacity 0 disables
    /// storage in every shard.
    pub fn new(capacity: usize, shards: usize) -> ShardedDecisionCache {
        let n = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(n)
        };
        ShardedDecisionCache {
            shards: (0..n)
                .map(|_| Mutex::new(DecisionCache::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` belongs to.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Looks up a decision, returning the shard consulted alongside the
    /// result.  Only that shard's lock is taken.
    pub fn get(&self, key: &str) -> (usize, Option<Decision>) {
        let (shard, hit) = self.lookup(key);
        (shard, hit.map(|d| (*d).clone()))
    }

    /// [`DecisionCache::lookup`] on the key's shard: a hit shares the
    /// stored decision instead of copying it.
    pub(crate) fn lookup(&self, key: &str) -> (usize, Option<Arc<Decision>>) {
        let shard = self.shard_of(key);
        let hit = self.shards[shard].lock().expect("shard lock").lookup(key);
        (shard, hit)
    }

    /// Stores a decision in its key's shard, reporting the shard and
    /// any eviction it caused.
    pub fn insert(&self, key: String, decision: Decision) -> InsertOutcome {
        let shard = self.shard_of(&key);
        let evicted = self.shards[shard]
            .lock()
            .expect("shard lock")
            .insert(key, decision);
        InsertOutcome { shard, evicted }
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").len())
            .sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte ledger: exact sum of every shard's incremental ledger.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str) -> Decision {
        Decision {
            nest: name.into(),
            unroll: vec![2, 0],
            balance: 0.5,
            original_balance: 1.0,
            registers: 4,
        }
    }

    #[test]
    fn same_key_always_lands_on_the_same_shard() {
        let c = ShardedDecisionCache::new(64, 8);
        let shard = c.shard_of("some-content-key");
        for _ in 0..10 {
            assert_eq!(c.shard_of("some-content-key"), shard);
        }
        let (s, miss) = c.get("some-content-key");
        assert_eq!(s, shard);
        assert!(miss.is_none());
        let outcome = c.insert("some-content-key".into(), d("n"));
        assert_eq!(outcome.shard, shard);
        let (s, hit) = c.get("some-content-key");
        assert_eq!(s, shard);
        assert!(hit.is_some());
    }

    #[test]
    fn entries_and_bytes_sum_the_shards() {
        let c = ShardedDecisionCache::new(64, 4);
        for i in 0..16 {
            let key = format!("key-{i}");
            assert!(c.get(&key).1.is_none());
            assert_eq!(c.insert(key.clone(), d("n")).evicted, 0);
            assert!(c.get(&key).1.is_some());
        }
        assert_eq!(c.len(), 16);
        assert!(c.approx_bytes() > 0);
    }

    #[test]
    fn zero_capacity_disables_every_shard() {
        let c = ShardedDecisionCache::new(0, 4);
        c.insert("k".into(), d("n"));
        assert!(c.is_empty());
        assert_eq!(c.approx_bytes(), 0);
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let c = ShardedDecisionCache::new(8, 0);
        assert_eq!(c.shards(), 1);
        c.insert("k".into(), d("n"));
        assert_eq!(c.get("k").1.expect("hit").nest, "n");
    }
}
