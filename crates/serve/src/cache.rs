//! A content-addressed, LRU-evicting decision cache.
//!
//! The key is the *content* of the problem, not the request: the nest's
//! canonical rendering plus the machine model and cost model
//! ([`decision_key`]).  Two clients submitting the same loop under
//! different names or ids therefore share one entry, and an inline
//! `source` request hits the entry a `kernel` request warmed.
//!
//! Only successful decisions are stored.  Errors — parse failures,
//! invalid nests, and especially [`DeadlineExceeded`] — are never
//! inserted, so a request that was cancelled halfway cannot poison the
//! cache for a later caller with a looser deadline.
//!
//! [`DeadlineExceeded`]: ujam_core::OptimizeError::DeadlineExceeded

use std::collections::{BTreeMap, HashMap};
use std::fmt::{Display, Write as _};
use std::sync::Arc;
use ujam_core::pipeline::SearchOutcome;
use ujam_core::{BalanceModel, CostModelKind, Optimized, SearchConfig};
use ujam_ir::LoopNest;
use ujam_machine::MachineModel;

/// The cached part of a successful optimization: everything an
/// [`OkReply`](crate::proto::OkReply) needs except the request id.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The nest's name.
    pub nest: String,
    /// The chosen unroll vector.
    pub unroll: Vec<u32>,
    /// Predicted balance at the chosen vector.
    pub balance: f64,
    /// Predicted balance of the untransformed nest.
    pub original_balance: f64,
    /// Registers consumed by scalar replacement.
    pub registers: i64,
}

impl Decision {
    /// The cacheable decision for the nest named `nest`: the search's
    /// winner and the predictions at it and at the original loop.
    pub fn decided(nest: &str, found: &SearchOutcome) -> Decision {
        Decision {
            nest: nest.to_string(),
            unroll: found.unroll.clone(),
            balance: found.predicted.balance,
            original_balance: found.original.balance,
            registers: found.predicted.registers,
        }
    }

    /// Extracts the cacheable decision from an optimizer result: the
    /// decision of the search outcome the plan applied.
    pub fn from_plan(plan: &Optimized) -> Decision {
        let found = SearchOutcome {
            offset: plan.space.loops().iter().map(|&l| plan.unroll[l]).collect(),
            unroll: plan.unroll.clone(),
            predicted: plan.predicted,
            original: plan.original,
        };
        Decision::decided(plan.nest.name(), &found)
    }
}

/// Builds the content-addressed key for a problem instance.
///
/// The nest's `Display` rendering is canonical (loop order, bounds, and
/// statement text all appear), and the machine/model/cost-backend/
/// search-config `Debug` renderings pin every parameter that can change
/// the decision — including the register-tiling knobs
/// (`max_unroll_loops`, `code_budget`) and the cache-cost backend
/// (`cost_model`), since the same nest scored by a different backend
/// can pick a different vector.  Deadlines are deliberately *not* part
/// of the key: a decision is a pure function of the problem, so a cached
/// answer is valid however little time the next caller has.
pub fn decision_key(
    nest: &LoopNest,
    machine: &MachineModel,
    model: BalanceModel,
    cost: CostModelKind,
    config: SearchConfig,
) -> String {
    let mut key = String::new();
    write_decision_key(&mut key, nest, machine, model, cost, config);
    key
}

/// [`decision_key`] written into a caller-owned buffer (cleared first),
/// with the nest given by anything that renders as its canonical
/// `Display` text — the server passes a named kernel's pre-rendered
/// text, so a kernel hit never rebuilds the nest.
pub(crate) fn write_decision_key(
    key: &mut String,
    nest: &dyn Display,
    machine: &MachineModel,
    model: BalanceModel,
    cost: CostModelKind,
    config: SearchConfig,
) {
    key.clear();
    let _ = write!(
        key,
        "{nest}\u{0}{machine:?}\u{0}{model:?}\u{0}{cost:?}\u{0}{config:?}"
    );
}

/// A bounded LRU map from [`decision_key`] to [`Decision`].
///
/// Recency is a monotonic tick per entry; the eviction side keeps a
/// `BTreeMap<tick, key>` mirror so both lookup and eviction are
/// `O(log n)`.  Decisions are held behind an [`Arc`] so a hit hands
/// out a reference count, not a copy.
///
/// The cache keeps no counters: the server counts hits and misses off
/// each request's timeline, and evictions off [`DecisionCache::insert`]'s
/// return value.
#[derive(Debug)]
pub struct DecisionCache {
    capacity: usize,
    entries: HashMap<String, (u64, Arc<Decision>)>,
    recency: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
}

/// The approximate heap footprint one entry adds: the key text, the
/// decision struct, and its owned buffers.  Maintained incrementally on
/// insert/evict so [`DecisionCache::approx_bytes`] is O(1).
fn entry_cost(key: &str, d: &Decision) -> usize {
    key.len()
        + std::mem::size_of::<Decision>()
        + d.nest.len()
        + d.unroll.len() * std::mem::size_of::<u32>()
}

impl DecisionCache {
    /// An empty cache holding at most `capacity` decisions.  A zero
    /// capacity disables storage: every lookup misses, and inserts are
    /// dropped.
    pub fn new(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
        }
    }

    /// Looks up a decision, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Decision> {
        self.lookup(key).map(|d| (*d).clone())
    }

    /// [`DecisionCache::get`] without the copy: a hit refreshes recency
    /// and shares the stored decision.
    pub(crate) fn lookup(&mut self, key: &str) -> Option<Arc<Decision>> {
        let (tick, decision) = self.entries.get_mut(key)?;
        let owned = self.recency.remove(tick).expect("tick present");
        self.tick += 1;
        *tick = self.tick;
        self.recency.insert(self.tick, owned);
        Some(Arc::clone(decision))
    }

    /// Stores a decision, evicting the least recently used entry when
    /// full, and returns the number of entries evicted (0 or 1).
    /// Re-inserting an existing key refreshes it in place.
    pub fn insert(&mut self, key: String, decision: Decision) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        if let Some((old_tick, old)) = self.entries.get(&key) {
            self.bytes = self.bytes.saturating_sub(entry_cost(&key, old));
            self.recency.remove(old_tick);
        } else if self.entries.len() >= self.capacity {
            if let Some((&oldest, _)) = self.recency.iter().next() {
                let victim = self.recency.remove(&oldest).expect("tick present");
                if let Some((_, gone)) = self.entries.remove(&victim) {
                    self.bytes = self.bytes.saturating_sub(entry_cost(&victim, &gone));
                }
                evicted = 1;
            }
        }
        self.tick += 1;
        self.bytes += entry_cost(&key, &decision);
        self.recency.insert(self.tick, key.clone());
        self.entries.insert(key, (self.tick, Arc::new(decision)));
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap bytes held by live entries (keys, decision
    /// structs, and their owned buffers), maintained incrementally.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str) -> Decision {
        Decision {
            nest: name.into(),
            unroll: vec![1, 0],
            balance: 0.5,
            original_balance: 1.0,
            registers: 4,
        }
    }

    #[test]
    fn a_miss_then_an_insert_then_a_hit() {
        let mut c = DecisionCache::new(4);
        assert_eq!(c.get("k"), None);
        assert_eq!(c.insert("k".into(), d("k")), 0);
        assert_eq!(c.get("k").expect("hit").nest, "k");
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut c = DecisionCache::new(2);
        c.insert("a".into(), d("a"));
        c.insert("b".into(), d("b"));
        assert!(c.get("a").is_some()); // refresh a → b is now LRU
        assert_eq!(c.insert("c".into(), d("c")), 1);
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none(), "b should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = DecisionCache::new(2);
        c.insert("a".into(), d("a"));
        c.insert("b".into(), d("b"));
        assert_eq!(c.insert("a".into(), d("a2")), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").expect("a lives").nest, "a2");
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = DecisionCache::new(0);
        c.insert("a".into(), d("a"));
        assert!(c.is_empty());
        assert_eq!(c.get("a"), None);
        assert_eq!(c.approx_bytes(), 0);
    }

    #[test]
    fn byte_accounting_tracks_inserts_replacements_and_evictions() {
        let mut c = DecisionCache::new(2);
        assert_eq!(c.approx_bytes(), 0);
        c.insert("a".into(), d("a"));
        let one = c.approx_bytes();
        assert!(one > 0);
        // Replacing a key swaps its cost, it doesn't accumulate.
        c.insert("a".into(), d("a"));
        assert_eq!(c.approx_bytes(), one);
        c.insert("b".into(), d("b"));
        let two = c.approx_bytes();
        assert!(two > one);
        // Eviction releases the victim's bytes: still two entries' worth.
        c.insert("c".into(), d("c"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.approx_bytes(), two);
        // Lookups never move the ledger.
        c.get("c");
        c.get("missing");
        assert_eq!(c.approx_bytes(), two);
    }

    #[test]
    fn keys_are_content_addressed() {
        use ujam_ir::NestBuilder;
        let build = |name: &str| {
            NestBuilder::new(name)
                .array("A", &[32])
                .array("B", &[32])
                .loop_("J", 1, 8)
                .loop_("I", 1, 8)
                .stmt("A(J) = A(J) + B(I)")
                .build()
        };
        let alpha = MachineModel::dec_alpha();
        let dflt = SearchConfig::default();
        let analytic = CostModelKind::Analytic;
        // Same content, same name → same key; different machine, model,
        // cost backend, or search config → different key.
        assert_eq!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            )
        );
        assert_ne!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(&build("n"), &alpha, BalanceModel::AllHits, analytic, dflt)
        );
        assert_ne!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(
                &build("n"),
                &MachineModel::hp_parisc(),
                BalanceModel::CacheAware,
                analytic,
                dflt
            )
        );
        // The cache-cost backend is part of the problem content: an
        // analytic and a profiled decision must never share an entry.
        assert_ne!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                CostModelKind::Profiled,
                dflt
            )
        );
        // The register-tiling knobs are part of the problem content.
        assert_ne!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                SearchConfig {
                    max_unroll_loops: 3,
                    ..dflt
                }
            )
        );
        assert_ne!(
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                dflt
            ),
            decision_key(
                &build("n"),
                &alpha,
                BalanceModel::CacheAware,
                analytic,
                SearchConfig {
                    code_budget: Some(128),
                    ..dflt
                }
            )
        );
    }
}
