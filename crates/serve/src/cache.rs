//! Bounded, sharded LRU cache over query results.
//!
//! Social-media query traffic is heavy-tailed (the same reason the
//! synthetic generators draw users from a Zipf), so a small cache keyed
//! by the full query `(user, time, k)` absorbs a large share of load.
//! The cache is split into independently locked shards so concurrent
//! workers rarely contend; hit/miss counters are lock-free atomics and
//! feed the [`crate::ServingStats`] hit rate.
//!
//! A key is three `u32` words, so both hashes are word-wise: the shard
//! is an additive combination of the words modulo the shard count
//! (consecutive users land in consecutive shards), and each shard's map
//! hashes with `KeyHasher`, a fixed multiply-rotate mix. Query keys
//! come from outside the program, and a fixed hash has no per-process
//! seed to defend against keys crafted to collide. A shard holds at
//! most `capacity / num_shards` entries (256 at the serving default),
//! so such keys can slow a lookup to a scan of one shard, no more.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcam_math::topk::Scored;

/// Cache key: `(user, time, k)` of a temporal top-k query.
pub type CacheKey = (u32, u32, u32);

/// Sentinel slot index for "no neighbor" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// The shard map's hasher: one multiply-rotate step per key word
/// (`CacheKey` hashes as three `write_u32` calls).
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap = HashMap<CacheKey, usize, BuildHasherDefault<KeyHasher>>;

struct Slot {
    key: CacheKey,
    /// Snapshot epoch the value was computed against. A lookup only
    /// hits when the caller's epoch matches, so an insert racing a
    /// snapshot swap (computed against the old model, stored after
    /// `clear`) can never be served against the new one.
    epoch: u64,
    value: Arc<Vec<Scored>>,
    prev: usize,
    next: usize,
}

/// One independently locked LRU segment: a hash map from key to slot
/// plus an intrusive doubly linked recency list over the slot arena.
struct LruShard {
    capacity: usize,
    map: KeyMap,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the eviction victim.
    tail: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            capacity,
            map: KeyMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
        }
    }

    // tcam-lint: allow-fn(no-panic) -- `i` and every link it follows are live slot
    // indices < slots.len(), an invariant the map/list operations maintain
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    // tcam-lint: allow-fn(no-panic) -- same intrusive-list invariant: `i` and
    // `head` are live slot indices
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    // tcam-lint: allow-fn(no-panic) -- map values are live slot indices by the
    // shard's insertion invariant
    // tcam-lint: hot
    fn get(&mut self, key: &CacheKey, epoch: u64) -> Option<Arc<Vec<Scored>>> {
        let &i = self.map.get(key)?;
        if self.slots[i].epoch != epoch {
            // Stale entry from a pre-swap epoch: miss. The slot stays
            // until an insert overwrites it or the LRU evicts it; it
            // can never be served because epochs only move forward.
            return None;
        }
        self.detach(i);
        self.push_front(i);
        Some(Arc::clone(&self.slots[i].value))
    }

    // tcam-lint: allow-fn(no-panic) -- map values and `tail` are live slot indices
    // by the shard's insertion invariant
    fn insert(&mut self, key: CacheKey, epoch: u64, value: Arc<Vec<Scored>>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.slots[i].epoch = epoch;
            self.detach(i);
            self.push_front(i);
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Evict the LRU entry and reuse its slot.
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].epoch = epoch;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot { key, epoch, value, prev: NIL, next: NIL });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The sharded cache. Capacity is split evenly across shards; a total
/// capacity of zero disables caching entirely (every get is a miss,
/// inserts are dropped).
pub struct TopKCache {
    shards: Box<[Mutex<LruShard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TopKCache {
    /// Creates a cache holding at most roughly `capacity` entries
    /// across `num_shards` independently locked segments.
    pub fn new(capacity: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let per_shard = capacity.div_ceil(num_shards);
        let shards = (0..num_shards)
            .map(|_| Mutex::new(LruShard::new(if capacity == 0 { 0 } else { per_shard })))
            .collect();
        TopKCache { shards, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    // tcam-lint: allow-fn(no-panic) -- the index is reduced modulo shards.len(),
    // which `new` guarantees is >= 1
    fn shard(&self, key: &CacheKey) -> &Mutex<LruShard> {
        // Additive, so consecutive users (or intervals) cycle through
        // every shard; the odd multipliers keep `t` and `k` from
        // lining up with `u`. Shard counts are small, so modulo bias is
        // irrelevant.
        let h = u64::from(key.0)
            + u64::from(key.1).wrapping_mul(0x9e37_79b9)
            + u64::from(key.2).wrapping_mul(0x85eb_ca6b);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up a query result computed against snapshot `epoch`,
    /// counting the hit or miss. Entries tagged with a different epoch
    /// are treated as misses so a swap can never serve stale results.
    // tcam-lint: hot
    pub fn get(&self, key: &CacheKey, epoch: u64) -> Option<Arc<Vec<Scored>>> {
        // tcam-lint: allow(no-panic) -- a poisoned shard means a panic already happened
        let result = self.shard(key).lock().expect("cache shard poisoned").get(key, epoch);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores a query result computed against snapshot `epoch`,
    /// evicting the shard's LRU entry if full.
    pub fn insert(&self, key: CacheKey, epoch: u64, value: Arc<Vec<Scored>>) {
        // tcam-lint: allow(no-panic) -- a poisoned shard means a panic already happened
        self.shard(&key).lock().expect("cache shard poisoned").insert(key, epoch, value);
    }

    /// Drops every entry (used on snapshot swap); counters are kept.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            // tcam-lint: allow(no-panic) -- a poisoned shard means a panic already happened
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Current number of cached entries across all shards.
    pub fn len(&self) -> usize {
        // tcam-lint: allow(no-panic) -- a poisoned shard means a panic already happened
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the cache can hold.
    pub fn capacity(&self) -> usize {
        // tcam-lint: allow(no-panic) -- a poisoned shard means a panic already happened
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").capacity).sum()
    }

    /// Number of independently locked segments.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

impl std::fmt::Debug for TopKCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKCache")
            .field("shards", &self.num_shards())
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(score: f64) -> Arc<Vec<Scored>> {
        Arc::new(vec![Scored { index: 0, score }])
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache = TopKCache::new(8, 2);
        assert!(cache.get(&(1, 2, 3), 1).is_none());
        cache.insert((1, 2, 3), 1, entry(0.5));
        let got = cache.get(&(1, 2, 3), 1).expect("inserted");
        assert_eq!(got[0].score, 0.5);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        // One shard so the recency order is fully observable.
        let cache = TopKCache::new(2, 1);
        cache.insert((0, 0, 0), 1, entry(0.0));
        cache.insert((1, 0, 0), 1, entry(1.0));
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&(0, 0, 0), 1).is_some());
        cache.insert((2, 0, 0), 1, entry(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(1, 0, 0), 1).is_none(), "LRU entry evicted");
        assert!(cache.get(&(0, 0, 0), 1).is_some(), "recently used survives");
        assert!(cache.get(&(2, 0, 0), 1).is_some());
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let cache = TopKCache::new(2, 1);
        cache.insert((0, 0, 0), 1, entry(0.0));
        cache.insert((1, 0, 0), 1, entry(1.0));
        cache.insert((0, 0, 0), 1, entry(9.0));
        // Key 1 is now the LRU entry.
        cache.insert((2, 0, 0), 1, entry(2.0));
        assert!(cache.get(&(1, 0, 0), 1).is_none());
        assert_eq!(cache.get(&(0, 0, 0), 1).expect("kept")[0].score, 9.0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TopKCache::new(0, 4);
        cache.insert((0, 0, 0), 1, entry(0.0));
        assert!(cache.get(&(0, 0, 0), 1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = TopKCache::new(8, 4);
        for u in 0..8u32 {
            cache.insert((u, 0, 0), 1, entry(f64::from(u)));
        }
        assert!(cache.get(&(3, 0, 0), 1).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1, "counters survive a snapshot swap");
        assert!(cache.get(&(3, 0, 0), 1).is_none());
    }

    #[test]
    fn stale_epoch_entries_are_never_served() {
        let cache = TopKCache::new(8, 2);
        // Simulate the swap race: a result computed against epoch 1 is
        // inserted after the swap-to-epoch-2 already cleared the cache.
        cache.insert((7, 3, 5), 1, entry(0.25));
        assert!(cache.get(&(7, 3, 5), 2).is_none(), "pre-swap entry must miss");
        assert_eq!(cache.misses(), 1);
        // A fresh insert at the new epoch overwrites the stale slot.
        cache.insert((7, 3, 5), 2, entry(0.75));
        assert_eq!(cache.get(&(7, 3, 5), 2).expect("current epoch")[0].score, 0.75);
        assert!(cache.get(&(7, 3, 5), 1).is_none(), "old epoch can never hit again");
    }

    #[test]
    fn sharding_spreads_and_respects_total_capacity() {
        let cache = TopKCache::new(64, 8);
        assert_eq!(cache.num_shards(), 8);
        for u in 0..200u32 {
            cache.insert((u, u % 5, 10), 1, entry(f64::from(u)));
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.len() > 8, "entries land in multiple shards");
    }

    #[test]
    fn zipf_like_keys_spread_over_every_shard() {
        // Heavy-tailed traffic: users < 2000 drawn log-uniformly (a
        // Zipf-like skew toward small ids), intervals < 60, k in
        // {5, 10, 50}. The first 3,000 distinct keys must reach all 16
        // shards, each within 25% of its even share of 187. The
        // capacity leaves room for every key in any one shard, so
        // nothing is evicted.
        let cache = TopKCache::new(16 * 3_000, 16);
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        while cache.len() < 3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let uniform = (x >> 11) as f64 / (1u64 << 53) as f64;
            let user = (2000f64.powf(uniform) as u32 - 1).min(1999);
            let time = ((x >> 3) % 60) as u32;
            let k = [5, 10, 50][(x % 3) as usize];
            cache.insert((user, time, k), 1, entry(0.0));
        }
        let even = 3_000 / 16;
        for (i, shard) in cache.shards.iter().enumerate() {
            let n = shard.lock().unwrap().map.len();
            assert!((even * 3 / 4..=even * 5 / 4).contains(&n), "shard {i} holds {n} of 3000 keys");
        }
    }

    #[test]
    fn key_hasher_separates_nearby_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut hashes = std::collections::BTreeSet::new();
        for u in 0..50u32 {
            for t in 0..20u32 {
                for k in [5u32, 10, 50] {
                    hashes.insert(build.hash_one((u, t, k)));
                }
            }
        }
        assert_eq!(hashes.len(), 50 * 20 * 3, "no collisions among 3,000 nearby keys");
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = TopKCache::new(128, 8);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let key = (i % 50, t, 10);
                        if cache.get(&key, 1).is_none() {
                            cache.insert(key, 1, entry(f64::from(i)));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 2000);
        assert!(cache.len() <= cache.capacity());
    }
}
