//! Runtime storage for stateful NF globals.
//!
//! Data-structure semantics follow the *SmartNIC-style* implementations
//! that Clara reverse-ports (Section 3.3 of the paper): hash maps use a
//! fixed set of buckets (no linear probing past the bucket, no dynamic
//! allocation) and vector deletion only tombstones entries.

use nf_ir::{EvictPolicy, FlowSpec, GlobalId, Module, StateKind};
use serde::{Deserialize, Serialize};

/// Slots per hash bucket (Netronome-style fixed bucket set).
pub const BUCKET_SLOTS: u64 = 4;

/// Seed mixed into each flow table's private eviction RNG stream.
const FLOW_RNG_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GlobalStorage {
    kind: StateKind,
    entry_bytes: u32,
    entries: u32,
    bytes: Vec<u8>,
    /// Occupancy/validity flags (hash maps, flow tables, and vectors).
    occupied: Vec<bool>,
    /// Stored keys (hash maps and flow tables).
    keys: Vec<u64>,
    /// Logical length (vectors) / live entry count (flow tables).
    count: u32,
    /// Flow-table behaviour (`Some` iff `kind == FlowTable`).
    flow: Option<FlowSpec>,
    /// Element-clock tick each entry was last touched (flow tables).
    last_seen: Vec<u64>,
    /// Element-clock tick each entry was created (flow tables).
    created: Vec<u64>,
    /// Lifetime insertions of new entries (flow tables).
    insertions: u64,
    /// Lifetime capacity evictions (flow tables).
    evictions: u64,
    /// Lifetime timeout expirations (flow tables).
    expirations: u64,
    /// Private xorshift state for `EvictPolicy::Random` victims; seeded
    /// deterministically per table so every layer evicts identically.
    rng: u64,
}

/// Lifetime churn counters of one flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowCounters {
    /// New entries inserted.
    pub insertions: u64,
    /// Entries sacrificed to make room in a full bucket.
    pub evictions: u64,
    /// Entries removed by idle/hard timeout.
    pub expirations: u64,
}

impl FlowCounters {
    /// The churn figure [`crate::interp`] returns for `flow_churn`:
    /// entries lost involuntarily (evicted or timed out).
    pub fn churn(&self) -> u64 {
        self.evictions + self.expirations
    }
}

/// Storage for every global of a module.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StateStore {
    globals: Vec<GlobalStorage>,
}

/// Result of a hash-map or vector operation, including the probe count
/// needed for faithful NIC costing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Slot index (entry number) the operation resolved to, if any.
    pub slot: Option<u64>,
    /// Number of slots examined.
    pub probes: u32,
    /// Whether the operation found what it was looking for.
    pub hit: bool,
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl StateStore {
    /// Allocates storage for every global in `module`.
    pub fn new(module: &Module) -> StateStore {
        let globals = module
            .globals
            .iter()
            .map(|g| {
                let n = g.entries.max(1);
                GlobalStorage {
                    kind: g.kind,
                    entry_bytes: g.entry_bytes.max(1),
                    entries: n,
                    bytes: vec![0; (g.entry_bytes.max(1) as usize) * n as usize],
                    occupied: vec![false; n as usize],
                    keys: vec![0; n as usize],
                    count: 0,
                    flow: g.flow,
                    last_seen: vec![0; n as usize],
                    created: vec![0; n as usize],
                    insertions: 0,
                    evictions: 0,
                    expirations: 0,
                    rng: mix64(u64::from(g.id.0).wrapping_add(1)) ^ FLOW_RNG_SEED,
                }
            })
            .collect();
        StateStore { globals }
    }

    /// Clears all state (between experiment runs).
    pub fn reset(&mut self) {
        for (i, g) in self.globals.iter_mut().enumerate() {
            g.bytes.iter_mut().for_each(|b| *b = 0);
            g.occupied.iter_mut().for_each(|o| *o = false);
            g.keys.iter_mut().for_each(|k| *k = 0);
            g.count = 0;
            g.last_seen.iter_mut().for_each(|t| *t = 0);
            g.created.iter_mut().for_each(|t| *t = 0);
            g.insertions = 0;
            g.evictions = 0;
            g.expirations = 0;
            g.rng = mix64((i as u64).wrapping_add(1)) ^ FLOW_RNG_SEED;
        }
    }

    fn storage(&self, g: GlobalId) -> Option<&GlobalStorage> {
        self.globals.get(g.index())
    }

    fn storage_mut(&mut self, g: GlobalId) -> Option<&mut GlobalStorage> {
        self.globals.get_mut(g.index())
    }

    /// True when the store has storage for `g`.
    pub fn has(&self, g: GlobalId) -> bool {
        self.storage(g).is_some()
    }

    /// Loads `width` bytes (little-endian) at `(index, offset)` of global
    /// `g`. Out-of-range accesses wrap to the structure size (NF code is
    /// expected to mask indices; wrapping keeps the interpreter total).
    pub fn load(&self, g: GlobalId, index: u64, offset: u32, width: u32) -> u64 {
        let Some(s) = self.storage(g) else {
            return 0;
        };
        let idx = (index % u64::from(s.entries)) as usize;
        let base = idx * s.entry_bytes as usize + (offset as usize % s.entry_bytes as usize);
        let mut v = 0u64;
        for i in 0..width.min(8) as usize {
            let b = s.bytes.get(base + i).copied().unwrap_or(0);
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    /// Stores `width` bytes (little-endian) at `(index, offset)`.
    pub fn store(&mut self, g: GlobalId, index: u64, offset: u32, width: u32, value: u64) {
        let Some(s) = self.storage_mut(g) else {
            return;
        };
        let idx = (index % u64::from(s.entries)) as usize;
        let base = idx * s.entry_bytes as usize + (offset as usize % s.entry_bytes as usize);
        for i in 0..width.min(8) as usize {
            if let Some(b) = s.bytes.get_mut(base + i) {
                *b = ((value >> (8 * i)) & 0xff) as u8;
            }
        }
    }

    fn bucket_range(s: &GlobalStorage, key: u64) -> (u64, u64) {
        let n = u64::from(s.entries);
        let nbuckets = (n / BUCKET_SLOTS).max(1);
        let start = (mix64(key) % nbuckets) * BUCKET_SLOTS;
        (start, (start + BUCKET_SLOTS).min(n))
    }

    /// Hash-map lookup with fixed-bucket semantics.
    pub fn map_find(&self, g: GlobalId, key: u64) -> OpResult {
        let Some(s) = self.storage(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let (start, end) = Self::bucket_range(s, key);
        let mut probes = 0;
        for slot in start..end {
            probes += 1;
            if s.occupied[slot as usize] && s.keys[slot as usize] == key {
                return OpResult {
                    slot: Some(slot),
                    probes,
                    hit: true,
                };
            }
        }
        OpResult {
            slot: None,
            probes,
            hit: false,
        }
    }

    /// Hash-map insert: reuses the key's slot, else the first free slot of
    /// the bucket, else evicts the first slot (fixed buckets can overflow).
    pub fn map_insert(&mut self, g: GlobalId, key: u64) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let (start, end) = Self::bucket_range(s, key);
        let mut probes = 0;
        let mut free: Option<u64> = None;
        for slot in start..end {
            probes += 1;
            let si = slot as usize;
            if s.occupied[si] && s.keys[si] == key {
                return OpResult {
                    slot: Some(slot),
                    probes,
                    hit: true,
                };
            }
            if !s.occupied[si] && free.is_none() {
                free = Some(slot);
            }
        }
        let slot = free.unwrap_or(start); // Evict on overflow.
        let si = slot as usize;
        if !s.occupied[si] {
            s.count += 1;
        } else {
            // Evicting: wipe the old entry's value bytes.
            let eb = s.entry_bytes as usize;
            s.bytes[si * eb..(si + 1) * eb]
                .iter_mut()
                .for_each(|b| *b = 0);
        }
        s.occupied[si] = true;
        s.keys[si] = key;
        OpResult {
            slot: Some(slot),
            probes,
            hit: false,
        }
    }

    /// Hash-map erase (tombstones the slot).
    pub fn map_erase(&mut self, g: GlobalId, key: u64) -> OpResult {
        let found = self.map_find(g, key);
        if let (Some(slot), Some(s)) = (found.slot, self.storage_mut(g)) {
            s.occupied[slot as usize] = false;
            s.keys[slot as usize] = 0;
            s.count = s.count.saturating_sub(1);
        }
        found
    }

    /// True when the entry at `si` has outlived its idle or hard timeout
    /// at element-clock tick `now` (a zero timeout disables that check).
    fn flow_expired(s: &GlobalStorage, spec: FlowSpec, si: usize, now: u64) -> bool {
        (spec.idle_timeout > 0
            && now.saturating_sub(s.last_seen[si]) > u64::from(spec.idle_timeout))
            || (spec.hard_timeout > 0
                && now.saturating_sub(s.created[si]) > u64::from(spec.hard_timeout))
    }

    /// Tombstones the entry at `si` and wipes its value bytes so a slot
    /// reclaimed later starts from zeroed state on every layer.
    fn flow_wipe(s: &mut GlobalStorage, si: usize) {
        let eb = s.entry_bytes as usize;
        s.bytes[si * eb..(si + 1) * eb]
            .iter_mut()
            .for_each(|b| *b = 0);
        s.occupied[si] = false;
        s.keys[si] = 0;
        s.last_seen[si] = 0;
        s.created[si] = 0;
        s.count = s.count.saturating_sub(1);
    }

    /// Walks the key's bucket, lazily expiring timed-out entries, and
    /// returns `(live key slot, first free slot, probes)`.
    fn flow_probe(
        s: &mut GlobalStorage,
        spec: FlowSpec,
        key: u64,
        now: u64,
    ) -> (Option<u64>, Option<u64>, u32) {
        let (start, end) = Self::bucket_range(s, key);
        let mut probes = 0;
        let mut free: Option<u64> = None;
        let mut found: Option<u64> = None;
        for slot in start..end {
            probes += 1;
            let si = slot as usize;
            if s.occupied[si] && Self::flow_expired(s, spec, si, now) {
                Self::flow_wipe(s, si);
                s.expirations += 1;
            }
            if s.occupied[si] {
                if s.keys[si] == key {
                    found = Some(slot);
                }
            } else if free.is_none() {
                free = Some(slot);
            }
        }
        (found, free, probes)
    }

    /// Flow-table lookup: probes the key's bucket (expiring stale entries
    /// in passing) and refreshes `last_seen` on a hit. Mutates — lazy
    /// expiry is how flow tables age without a background sweeper.
    pub fn flow_lookup(&mut self, g: GlobalId, key: u64, now: u64) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let Some(spec) = s.flow else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let (found, _, probes) = Self::flow_probe(s, spec, key, now);
        if let Some(slot) = found {
            s.last_seen[slot as usize] = now;
        }
        OpResult {
            slot: found,
            probes,
            hit: found.is_some(),
        }
    }

    /// Flow-table insert-or-refresh: refreshes a live entry for the key,
    /// else claims a free (or just-expired) bucket slot, else evicts per
    /// the table's [`EvictPolicy`]. Always lands the key somewhere.
    pub fn flow_upsert(&mut self, g: GlobalId, key: u64, now: u64) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let Some(spec) = s.flow else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let (found, free, probes) = Self::flow_probe(s, spec, key, now);
        if let Some(slot) = found {
            s.last_seen[slot as usize] = now;
            return OpResult {
                slot: Some(slot),
                probes,
                hit: true,
            };
        }
        let slot = match free {
            Some(slot) => slot,
            None => {
                // Full bucket: sacrifice a victim.
                let (start, end) = Self::bucket_range(s, key);
                let victim = match spec.evict {
                    EvictPolicy::Lru => (start..end)
                        .min_by_key(|&slot| (s.last_seen[slot as usize], slot))
                        .unwrap_or(start),
                    EvictPolicy::Random => {
                        // xorshift64: deterministic per-table stream.
                        let mut x = s.rng;
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        s.rng = x;
                        start + x % (end - start).max(1)
                    }
                };
                Self::flow_wipe(s, victim as usize);
                s.evictions += 1;
                victim
            }
        };
        let si = slot as usize;
        s.occupied[si] = true;
        s.keys[si] = key;
        s.last_seen[si] = now;
        s.created[si] = now;
        s.count += 1;
        s.insertions += 1;
        OpResult {
            slot: Some(slot),
            probes,
            hit: false,
        }
    }

    /// Flow-table removal: tombstones the key's live entry, if any.
    pub fn flow_remove(&mut self, g: GlobalId, key: u64, now: u64) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let Some(spec) = s.flow else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let (found, _, probes) = Self::flow_probe(s, spec, key, now);
        if let Some(slot) = found {
            Self::flow_wipe(s, slot as usize);
        }
        OpResult {
            slot: found,
            probes,
            hit: found.is_some(),
        }
    }

    /// Lifetime churn counters of a flow table (zeroes for non-flow
    /// globals).
    pub fn flow_counters(&self, g: GlobalId) -> FlowCounters {
        self.storage(g)
            .map_or(FlowCounters::default(), |s| FlowCounters {
                insertions: s.insertions,
                evictions: s.evictions,
                expirations: s.expirations,
            })
    }

    /// Vector element access: valid when `idx < len` and not tombstoned.
    pub fn vec_get(&self, g: GlobalId, idx: u64) -> OpResult {
        let Some(s) = self.storage(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        if idx < u64::from(s.count) && s.occupied[idx as usize] {
            OpResult {
                slot: Some(idx),
                probes: 1,
                hit: true,
            }
        } else {
            OpResult {
                slot: None,
                probes: 1,
                hit: false,
            }
        }
    }

    /// Vector push; wraps to slot 0 when full (pre-sized storage).
    pub fn vec_push(&mut self, g: GlobalId) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        let slot = if s.count < s.entries {
            let slot = u64::from(s.count);
            s.count += 1;
            slot
        } else {
            0 // Full: overwrite the head (no dynamic growth on NIC).
        };
        s.occupied[slot as usize] = true;
        OpResult {
            slot: Some(slot),
            probes: 1,
            hit: true,
        }
    }

    /// Vector delete: *tombstones only* (Netronome semantics — "deletion
    /// calls only mark the entries as invalid").
    pub fn vec_delete(&mut self, g: GlobalId, idx: u64) -> OpResult {
        let Some(s) = self.storage_mut(g) else {
            return OpResult {
                slot: None,
                probes: 0,
                hit: false,
            };
        };
        if idx < u64::from(s.count) {
            s.occupied[idx as usize] = false;
            OpResult {
                slot: Some(idx),
                probes: 1,
                hit: true,
            }
        } else {
            OpResult {
                slot: None,
                probes: 1,
                hit: false,
            }
        }
    }

    /// Current logical entry count of a structure.
    pub fn len_of(&self, g: GlobalId) -> u32 {
        self.storage(g).map_or(0, |s| s.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_ir::Module;

    fn store() -> (StateStore, GlobalId, GlobalId) {
        let mut m = Module::new("t");
        let map = m.add_global("map", StateKind::HashMap, 16, 64);
        let vec = m.add_global("vec", StateKind::Vector, 8, 8);
        (StateStore::new(&m), map, vec)
    }

    #[test]
    fn load_store_round_trip() {
        let (mut s, map, _) = store();
        s.store(map, 3, 8, 4, 0xdead_beef);
        assert_eq!(s.load(map, 3, 8, 4), 0xdead_beef);
        assert_eq!(s.load(map, 3, 8, 2), 0xbeef);
        assert_eq!(s.load(map, 4, 8, 4), 0);
    }

    #[test]
    fn map_insert_then_find() {
        let (mut s, map, _) = store();
        let ins = s.map_insert(map, 0x1234);
        assert!(ins.slot.is_some());
        assert!(!ins.hit); // New key.
        let find = s.map_find(map, 0x1234);
        assert_eq!(find.slot, ins.slot);
        assert!(find.hit);
        assert!(find.probes >= 1 && find.probes <= BUCKET_SLOTS as u32);
        // Re-insert is idempotent.
        let again = s.map_insert(map, 0x1234);
        assert_eq!(again.slot, ins.slot);
        assert!(again.hit);
        assert_eq!(s.len_of(map), 1);
    }

    #[test]
    fn map_miss_and_erase() {
        let (mut s, map, _) = store();
        assert!(!s.map_find(map, 7).hit);
        s.map_insert(map, 7);
        assert!(s.map_erase(map, 7).hit);
        assert!(!s.map_find(map, 7).hit);
        assert_eq!(s.len_of(map), 0);
    }

    #[test]
    fn bucket_overflow_evicts() {
        let mut m = Module::new("t");
        // 4 entries = exactly one bucket.
        let map = m.add_global("map", StateKind::HashMap, 16, 4);
        let mut s = StateStore::new(&m);
        for k in 1..=5u64 {
            s.map_insert(map, k);
        }
        // All five keys hashed to the single bucket; one was evicted.
        let hits = (1..=5u64).filter(|&k| s.map_find(map, k).hit).count();
        assert_eq!(hits, 4);
    }

    #[test]
    fn vector_push_get_delete_tombstones() {
        let (mut s, _, vec) = store();
        let a = s.vec_push(vec).slot.unwrap();
        let b = s.vec_push(vec).slot.unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(s.vec_get(vec, 0).hit);
        s.vec_delete(vec, 0);
        assert!(!s.vec_get(vec, 0).hit); // Tombstoned, not shifted.
        assert!(s.vec_get(vec, 1).hit);
        assert_eq!(s.len_of(vec), 2); // Length unchanged by delete.
    }

    #[test]
    fn vector_wraps_when_full() {
        let (mut s, _, vec) = store();
        for _ in 0..8 {
            s.vec_push(vec);
        }
        let wrapped = s.vec_push(vec);
        assert_eq!(wrapped.slot, Some(0));
    }

    #[test]
    fn reset_clears_everything() {
        let (mut s, map, vec) = store();
        s.map_insert(map, 9);
        s.vec_push(vec);
        s.store(map, 0, 0, 4, 77);
        s.reset();
        assert!(!s.map_find(map, 9).hit);
        assert_eq!(s.len_of(vec), 0);
        assert_eq!(s.load(map, 0, 0, 4), 0);
    }

    fn flow_store(
        idle: u32,
        hard: u32,
        evict: nf_ir::EvictPolicy,
        entries: u32,
    ) -> (StateStore, GlobalId) {
        let mut m = Module::new("t");
        let t = m.add_flow_table(
            "flows",
            16,
            entries,
            nf_ir::FlowSpec {
                idle_timeout: idle,
                hard_timeout: hard,
                evict,
            },
        );
        (StateStore::new(&m), t)
    }

    #[test]
    fn flow_upsert_then_lookup_and_remove() {
        let (mut s, t) = flow_store(0, 0, nf_ir::EvictPolicy::Lru, 64);
        let ins = s.flow_upsert(t, 0xabcd, 1);
        assert!(!ins.hit);
        let slot = ins.slot.unwrap();
        let find = s.flow_lookup(t, 0xabcd, 2);
        assert!(find.hit);
        assert_eq!(find.slot, Some(slot));
        // Upsert on a live key refreshes rather than inserting.
        let again = s.flow_upsert(t, 0xabcd, 3);
        assert!(again.hit);
        assert_eq!(s.flow_counters(t).insertions, 1);
        assert!(s.flow_remove(t, 0xabcd, 4).hit);
        assert!(!s.flow_lookup(t, 0xabcd, 5).hit);
    }

    #[test]
    fn flow_idle_timeout_expires_entries() {
        let (mut s, t) = flow_store(10, 0, nf_ir::EvictPolicy::Lru, 64);
        s.flow_upsert(t, 7, 0);
        let slot = s.flow_lookup(t, 7, 5).slot.unwrap();
        s.store(t, slot, 0, 4, 99);
        // Tick 10: age 10, not past the idle limit (refreshes last_seen).
        assert!(s.flow_lookup(t, 7, 10).hit);
        // Tick 21: age 11 since the refresh — expired.
        let miss = s.flow_lookup(t, 7, 21);
        assert!(!miss.hit);
        assert_eq!(s.flow_counters(t).expirations, 1);
        // A reclaimed slot starts zeroed.
        let re = s.flow_upsert(t, 7, 22);
        assert_eq!(s.load(t, re.slot.unwrap(), 0, 4), 0);
    }

    #[test]
    fn flow_hard_timeout_ignores_refreshes() {
        let (mut s, t) = flow_store(0, 10, nf_ir::EvictPolicy::Lru, 64);
        s.flow_upsert(t, 7, 0);
        for now in 1..=10 {
            assert!(s.flow_lookup(t, 7, now).hit, "tick {now}");
        }
        // Constant refreshes cannot save it past the hard limit.
        assert!(!s.flow_lookup(t, 7, 11).hit);
        assert_eq!(s.flow_counters(t).expirations, 1);
    }

    #[test]
    fn flow_lru_evicts_the_stalest_bucket_entry() {
        // 4 entries = one bucket; all keys collide.
        let (mut s, t) = flow_store(0, 0, nf_ir::EvictPolicy::Lru, 4);
        for k in 1..=4u64 {
            s.flow_upsert(t, k, k);
        }
        // Touch 1 so key 2 becomes the LRU victim.
        s.flow_lookup(t, 1, 5);
        s.flow_upsert(t, 99, 6);
        assert!(!s.flow_lookup(t, 2, 7).hit);
        assert!(s.flow_lookup(t, 1, 7).hit);
        assert!(s.flow_lookup(t, 99, 7).hit);
        assert_eq!(s.flow_counters(t).evictions, 1);
    }

    #[test]
    fn flow_random_eviction_is_deterministic() {
        let run = || {
            let (mut s, t) = flow_store(0, 0, nf_ir::EvictPolicy::Random, 4);
            for k in 1..=12u64 {
                s.flow_upsert(t, k, k);
            }
            (1..=12u64)
                .map(|k| s.flow_lookup(t, k, 13).hit)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // Reset replays the identical eviction stream.
        let (mut s, t) = flow_store(0, 0, nf_ir::EvictPolicy::Random, 4);
        for k in 1..=12u64 {
            s.flow_upsert(t, k, k);
        }
        let first: Vec<bool> = (1..=12u64).map(|k| s.flow_lookup(t, k, 13).hit).collect();
        s.reset();
        for k in 1..=12u64 {
            s.flow_upsert(t, k, k);
        }
        let second: Vec<bool> = (1..=12u64).map(|k| s.flow_lookup(t, k, 13).hit).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn flow_reset_clears_counters_and_entries() {
        let (mut s, t) = flow_store(5, 0, nf_ir::EvictPolicy::Lru, 4);
        for k in 0..20u64 {
            s.flow_upsert(t, k, k);
        }
        assert!(s.flow_counters(t).churn() > 0);
        s.reset();
        assert_eq!(s.flow_counters(t), FlowCounters::default());
        assert_eq!(s.len_of(t), 0);
    }
}
