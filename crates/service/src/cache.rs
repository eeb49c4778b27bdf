//! The content-addressed result cache: LRU order under a byte budget.
//!
//! Each entry stores the merged tally for some number of completed
//! *chunks* of a scenario's photon budget, plus the seed ledger that
//! makes the entry upgradable: `(chunk_photons, chunk_tasks, chunks)`
//! says exactly which RNG streams the tally consumed — streams
//! `0 .. chunks * chunk_tasks` of the scenario's seed — so a top-up can
//! continue on fresh streams with no bookkeeping beyond the chunk count.
//!
//! An entry is charged what its tally holds ([`wire::tally_held_len`]: the
//! encoding, with every grid or profile that holds storage counted at 8
//! bytes a cell), so the byte budget tracks what the entry holds in memory
//! — not a struct size guess, and not the encoded length alone: the wire
//! run-length compresses grids, and a 50³ grid with a few deposits ships in
//! a few hundred bytes but occupies a megabyte here. A grid nothing was
//! ever deposited in holds no cells and is charged its encoding. Eviction
//! is strict LRU, with one exception: the entry being inserted or
//! refreshed is never evicted by its own insertion, so a single result
//! larger than the whole budget still caches (and evicts everything
//! else).

use crate::hash::ScenarioKey;
use lumen_cluster::wire;
use lumen_core::tally::Tally;
use std::collections::{BTreeMap, HashMap};

/// One cached result and its upgrade ledger.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Left fold of the per-chunk tallies, in chunk order.
    pub tally: Tally,
    /// Chunks completed; the cached photon budget is
    /// `chunks * chunk_photons`.
    pub chunks: u64,
    /// Photons per chunk when this entry was traced.
    pub chunk_photons: u64,
    /// Internal task split of each chunk — with `chunks`, the seed
    /// ledger: streams `0 .. chunks * chunk_tasks` are consumed.
    pub chunk_tasks: u64,
    /// Held footprint of the tally plus key overhead.
    pub bytes: usize,
}

impl CacheEntry {
    /// Photons the cached tally covers.
    pub fn photons_done(&self) -> u64 {
        self.chunks * self.chunk_photons
    }
}

/// A stored entry and the tick of its last touch.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    tick: u64,
}

/// LRU + byte-budget cache keyed by canonical scenario hash.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<ScenarioKey, Slot>,
    /// Access order: last-touch tick → key, oldest first. Every hit and
    /// insert moves its key to a fresh, larger tick, so a touch and an
    /// eviction are O(log entries) — the service holds its state lock
    /// across both, on the daemon's poll thread.
    order: BTreeMap<u64, ScenarioKey>,
    next_tick: u64,
    total_bytes: usize,
    max_bytes: usize,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `max_bytes` of tallies.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
            total_bytes: 0,
            max_bytes,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &ScenarioKey) -> Option<&CacheEntry> {
        let slot = self.map.get_mut(key)?;
        self.order.remove(&slot.tick);
        slot.tick = self.next_tick;
        self.order.insert(slot.tick, *key);
        self.next_tick += 1;
        Some(&slot.entry)
    }

    /// Store (or upgrade) the entry for `key`, then evict least-recently
    /// used entries until the byte budget holds. The entry just written
    /// is exempt from its own insertion's eviction pass.
    pub fn insert(
        &mut self,
        key: ScenarioKey,
        tally: Tally,
        chunks: u64,
        chunk_photons: u64,
        chunk_tasks: u64,
    ) {
        let bytes = wire::tally_held_len(&tally) + std::mem::size_of::<ScenarioKey>();
        let entry = CacheEntry { tally, chunks, chunk_photons, chunk_tasks, bytes };
        if let Some(old) = self.map.insert(key, Slot { entry, tick: self.next_tick }) {
            self.total_bytes -= old.entry.bytes;
            self.order.remove(&old.tick);
        }
        self.total_bytes += bytes;
        self.order.insert(self.next_tick, key);
        self.next_tick += 1;
        // The entry just written holds the largest tick, so stopping at
        // one survivor is what exempts it.
        while self.total_bytes > self.max_bytes && self.order.len() > 1 {
            let Some((_, victim)) = self.order.pop_first() else { break };
            if let Some(slot) = self.map.remove(&victim) {
                self.total_bytes -= slot.entry.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently held (dense tally footprints plus key overhead).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The policy as first written, spelled out on a `Vec` in access
    /// order (oldest first): touch is remove-and-push, the victim is
    /// element 0, the last survivor is never evicted.
    #[derive(Default)]
    struct VecModel {
        lru: Vec<(ScenarioKey, usize)>,
        evictions: u64,
    }

    impl VecModel {
        fn total(&self) -> usize {
            self.lru.iter().map(|(_, bytes)| bytes).sum()
        }

        fn get(&mut self, key: &ScenarioKey) -> bool {
            let Some(at) = self.lru.iter().position(|(k, _)| k == key) else { return false };
            let hit = self.lru.remove(at);
            self.lru.push(hit);
            true
        }

        fn insert(&mut self, key: ScenarioKey, bytes: usize, max_bytes: usize) {
            self.lru.retain(|(k, _)| *k != key);
            self.lru.push((key, bytes));
            while self.total() > max_bytes && self.lru.len() > 1 {
                self.lru.remove(0);
                self.evictions += 1;
            }
        }
    }

    proptest! {
        /// Random get/insert traffic over a few keys, entry sizes that
        /// differ, budgets from "nothing fits" to "everything fits": after
        /// every step the cache holds the model's keys in the model's
        /// order — so every hit, every victim and the order victims went
        /// in are the model's — with the model's byte and eviction counts.
        #[test]
        fn order_index_evicts_exactly_like_the_vec_it_replaced(
            budget_entries in 0usize..6,
            ops in proptest::collection::vec((any::<bool>(), 0u8..8, 1usize..4), 1..120),
        ) {
            let sized = |layers: usize| Tally::new(layers, None, None);
            let charge = |layers: usize| wire::tally_held_len(&sized(layers)) + 32;
            let max_bytes = budget_entries * charge(2);
            let mut cache = ResultCache::new(max_bytes);
            let mut model = VecModel::default();
            for (is_get, tag, layers) in ops {
                if is_get {
                    prop_assert_eq!(cache.get(&key(tag)).is_some(), model.get(&key(tag)));
                } else {
                    cache.insert(key(tag), sized(layers), 1, 100, 4);
                    model.insert(key(tag), charge(layers), max_bytes);
                }
                let order: Vec<ScenarioKey> = cache.order.values().copied().collect();
                let expect: Vec<ScenarioKey> = model.lru.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(order, expect);
                prop_assert_eq!(cache.len(), model.lru.len());
                prop_assert_eq!(cache.total_bytes(), model.total());
                prop_assert_eq!(cache.evictions(), model.evictions);
            }
        }
    }

    fn key(tag: u8) -> ScenarioKey {
        [tag; 32]
    }

    fn tally() -> Tally {
        let mut t = Tally::new(1, None, None);
        t.launched = 100;
        t
    }

    #[test]
    fn get_refreshes_recency_and_insert_evicts_oldest() {
        let one = wire::encode_tally(&tally()).len() + 32;
        let mut cache = ResultCache::new(2 * one + 1); // room for two entries
        cache.insert(key(1), tally(), 1, 100, 4);
        cache.insert(key(2), tally(), 1, 100, 4);
        assert_eq!(cache.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), tally(), 1, 100, 4);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn an_entry_is_charged_what_it_holds_not_its_encoded_length() {
        use lumen_core::tally::GridSpec;
        use lumen_core::Vec3;
        let spec = GridSpec::cubic(50, Vec3::new(-6.0, -6.0, 0.0), Vec3::new(12.0, 6.0, 9.0));
        let empty_grid = Tally::new(1, Some(spec), None);
        let mut one_deposit = empty_grid.clone();
        one_deposit.path_grid.as_mut().unwrap().deposit(Vec3::new(0.0, 0.0, 1.0), 0.5);
        assert!(wire::encode_tally(&one_deposit).len() < 1024, "a sparse grid ships small");
        let mut cache = ResultCache::new(usize::MAX);
        cache.insert(key(1), one_deposit, 1, 100, 4);
        assert!(cache.total_bytes() >= 50 * 50 * 50 * 8, "but holds a megabyte of cells");
        // A grid nothing was deposited in holds no cells: its encoding.
        cache.insert(key(3), empty_grid.clone(), 1, 100, 4);
        let charged = cache.get(&key(3)).unwrap().bytes;
        assert_eq!(charged, wire::encode_tally(&empty_grid).len() + 32);
        // Without attachments the charge is the encoded length, to the
        // byte: eviction scripts are sized from that number.
        cache.insert(key(2), tally(), 1, 100, 4);
        assert_eq!(cache.get(&key(2)).unwrap().bytes, wire::encode_tally(&tally()).len() + 32);
    }

    #[test]
    fn oversized_entry_still_caches_alone() {
        let mut cache = ResultCache::new(1); // smaller than any entry
        cache.insert(key(1), tally(), 1, 100, 4);
        assert_eq!(cache.len(), 1, "the newest entry is never self-evicted");
        cache.insert(key(2), tally(), 1, 100, 4);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn upgrading_an_entry_replaces_bytes_not_duplicates() {
        let mut cache = ResultCache::new(usize::MAX);
        cache.insert(key(1), tally(), 1, 100, 4);
        let before = cache.total_bytes();
        cache.insert(key(1), tally(), 2, 100, 4);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.total_bytes(), before, "same tally shape, same bytes");
        assert_eq!(cache.get(&key(1)).unwrap().chunks, 2);
        assert_eq!(cache.get(&key(1)).unwrap().photons_done(), 200);
    }
}
