//! The serve layer's memo caches: canonical scenario key → serialized
//! report, and prefix key → decoded engine checkpoint.
//!
//! The engine is deterministic, and [`crate::ScenarioSpec::canonical_key`]
//! pins everything a run depends on, so caching the *serialized* report
//! body is sound: a hit returns the exact bytes the first computation
//! produced, which is the property the serve protocol promises (cache
//! status travels in a response header, never in the body). The same
//! argument covers checkpoints ([`CkptCache`]): a prefix key plus the
//! checkpoint instant pins the [`simmr_core::EngineCheckpoint`], so fork
//! scenarios sharing a prefix warm-start from one memoized prefix run.
//! Checkpoints are held decoded and shared by `Arc`: engines resume from
//! a borrowed checkpoint, so a hit costs no decode. Keys hash to one of
//! a fixed set of shards, each its own mutex, so concurrent requests
//! rarely contend.

use simmr_core::EngineCheckpoint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached reports currently resident.
    pub entries: usize,
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses.
    pub misses: u64,
}

serde::impl_serde_struct!(CacheStats { entries, hits, misses });

/// A sharded map from canonical key to an immutable memoized value.
///
/// Values are `Arc`s so a hit is a pointer clone, not a body copy.
/// Each shard is capped; a shard that fills up is wholesale cleared (the
/// cache is a pure memo — dropping entries only costs recomputation).
pub struct MemoCache<V: Clone> {
    shards: Vec<Mutex<HashMap<String, V>>>,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Canonical scenario key → serialized report body.
pub type ReportCache = MemoCache<Arc<str>>;

/// Prefix scenario key + checkpoint instant → decoded
/// [`simmr_core::EngineCheckpoint`].
pub type CkptCache = MemoCache<Arc<EngineCheckpoint>>;

impl<V: Clone> MemoCache<V> {
    /// A cache with `shards` independent shards of at most `shard_cap`
    /// entries each (both clamped to ≥ 1).
    pub fn new(shards: usize, shard_cap: usize) -> Self {
        MemoCache {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_cap: shard_cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks a key up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_if(key, |_| true)
    }

    /// Looks a key up and keeps the entry only if `fresh` accepts it; a
    /// rejected (stale) entry counts as a miss. `fresh` runs after the
    /// shard lock is released, so it may do I/O.
    pub(crate) fn get_if(&self, key: &str, fresh: impl FnOnce(&V) -> bool) -> Option<V> {
        let found = self.shard(key).lock().expect("cache shard poisoned").get(key).cloned();
        let found = found.filter(fresh);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a computed value under its key.
    pub fn insert(&self, key: String, body: V) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.len() >= self.shard_cap && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(key, body);
    }

    /// Total resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, V>> {
        // FNV-1a: cheap, stable, good enough to spread canonical keys
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_bytes() {
        let cache = ReportCache::new(4, 16);
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), Arc::from("{\"report\":1}"));
        let a = cache.get("k").unwrap();
        let b = cache.get("k").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share the stored allocation");
        assert_eq!(cache.stats(), CacheStats { entries: 1, hits: 2, misses: 1 });
    }

    #[test]
    fn full_shard_resets_instead_of_growing() {
        let cache = ReportCache::new(1, 2);
        cache.insert("a".into(), Arc::from("1"));
        cache.insert("b".into(), Arc::from("2"));
        // re-inserting a resident key never triggers the reset
        cache.insert("a".into(), Arc::from("1'"));
        assert_eq!(cache.len(), 2);
        cache.insert("c".into(), Arc::from("3"));
        assert_eq!(cache.len(), 1, "overflowing shard was cleared first");
        assert_eq!(cache.get("c").as_deref(), Some("3"));
    }

    #[test]
    fn stale_entries_count_as_misses() {
        let cache = ReportCache::new(2, 4);
        cache.insert("k".into(), Arc::from("old"));
        assert!(cache.get_if("k", |v| &**v == "new").is_none());
        assert_eq!(cache.get_if("k", |v| &**v == "old").as_deref(), Some("old"));
        assert_eq!(cache.stats(), CacheStats { entries: 1, hits: 1, misses: 1 });
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let cache = ReportCache::new(0, 0);
        cache.insert("a".into(), Arc::from("1"));
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert!(!cache.is_empty());
    }
}
