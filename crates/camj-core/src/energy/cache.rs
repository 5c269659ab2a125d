//! The cross-point estimate cache: a sharded concurrent map from input
//! [`Fingerprint`]s to computed artifacts.
//!
//! One cache is shared by every design point of a sweep (and by every
//! worker thread of a parallel sweep). Four artifact families live in
//! its sharded map, all keyed content-addressed — by a hash of
//! *everything the computation reads* — so a hit is guaranteed to replay
//! a bit-identical result:
//!
//! * **elastic simulations** ([`ElasticSim`]): the expensive cycle-level
//!   digital simulation, keyed by the dataflow topology (stages, rates,
//!   buffer geometry, clock) and *not* by energy parameters — so points
//!   differing only in technology node, bit width, or memory energy
//!   share one simulation. Memory-only; counted in [`CacheStats`]; not
//!   byte-capped,
//! * **energy kernel outputs** (`Vec<EnergyItem>`): the per-domain
//!   energy bookings of the four kernels (one per
//!   [`super::KernelKind`]), keyed by component parameters + inferred
//!   access counts + the delay budget. The key is
//!   two-level — `H(kind tag, key domain, invariant digest, per-point
//!   input)`, built only in `kernel.rs` — where the invariant digest
//!   comes from the model's kernel plan (resolved once per model) and
//!   the per-point input is `T_A` (analog), the frame time (digital
//!   memory), or nothing (digital compute, interfaces). Persisted
//!   through the tier; counted in [`CacheStats`]; not byte-capped,
//! * **functional task metrics** ([`TaskMetrics`], behind
//!   [`EstimateCache::functional_or`]): the accuracy of one Monte-Carlo
//!   functional simulation, keyed by the functional fingerprint
//!   (exposure, noise chain, stimulus content, DAG, seeds).
//!   Memory-only; counted in [`CacheStats`]; not byte-capped,
//! * **stall verdicts**: the fastest per-stage readout time known to
//!   pass the constant-rate stall check for a given topology — stall
//!   freedom is monotone in the readout time, so one cached pass settles
//!   every slower point. Failures are never cached: each failing point
//!   re-simulates so its overflow diagnosis stays exact. Persisted
//!   through the tier; counted in [`CacheStats`]; not byte-capped.
//!
//! Beside the map sits the **frame-base store**: the exposure-free half
//! of a frame simulation (clean frame, DAG plan and reference pass, and
//! one set of reusable frame buffers), keyed by the algorithm DAG and
//! the stimulus content, behind `frame_base_or`. Its entries weigh
//! megabytes, so it is the one byte-capped family: memory-only, capped
//! at [`FRAME_BASE_BUDGET_BYTES`] with least-recently-used eviction, and
//! kept out of [`CacheStats`] (its `cache.frame.*` counters are the
//! only trace of it), so whether a base was reused never moves a
//! printed cache line.
//!
//! Locking: the map is split into [`SHARD_COUNT`] mutex-guarded shards
//! selected by the fingerprint's low half, and the shard lock is held
//! only for map bookkeeping — never across a computation. A missing
//! entry is claimed by inserting a per-entry **in-flight slot**
//! (an `Arc<OnceLock>`); the expensive computation then runs inside
//! `OnceLock::get_or_init` *outside* the shard critical section.
//! Duplicate requests for the same fingerprint still run the
//! computation exactly once (late arrivals block on the slot, not the
//! shard), while distinct fingerprints that merely hash to the same
//! shard proceed concurrently instead of convoying behind each other's
//! simulations.
//!
//! Panic safety: sweep drivers catch per-point panics
//! (`camj-explore`'s explorer wraps every evaluation in
//! `catch_unwind`), so the cache must survive a computation that
//! unwinds mid-flight. Two properties guarantee that:
//!
//! * a panic inside `get_or_init` leaves the slot **uninitialized**
//!   (std's `OnceLock` is unwind-safe by design), so the next request
//!   for the same fingerprint simply recomputes, and
//! * every `Mutex` acquisition recovers from poisoning via
//!   [`PoisonError::into_inner`] — safe here because shard maps are
//!   only ever mutated by whole-entry inserts and the scalar
//!   stall-pass minimum, both of which leave the map consistent even
//!   if the panicking thread died between them. A captured panic at
//!   one design point therefore can never manufacture a fake
//!   `"cache shard lock"` panic at a healthy neighbouring point (or in
//!   the final [`EstimateCache::stats`] call a CLI prints).

//!
//! Persistence: a cache can be backed by a [`PersistentTier`] — a
//! content-addressed byte store (typically `camj-serve`'s on-disk
//! tier) consulted on an in-memory miss and written through on every
//! compute. Only the **energy** and **stall** families persist: their
//! artifacts round-trip exactly (energy items through the
//! shortest-round-trip JSON codec, stall minima as raw `f64` bits), so
//! a tier-warmed cache replays byte-identical estimates. Elastic
//! simulations stay memory-only — post-arena they cost well under a
//! millisecond to recompute, less than a disk round-trip is worth —
//! and so do task metrics and frame bases.
//! Energy keys carry a key domain (`camj.kernel/v2`), so entries a
//! build with another key scheme wrote to the tier are never found:
//! each misses once, is recomputed, and is written through under the
//! current key — a one-time cost after an upgrade, never a wrong
//! replay.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use camj_tech::fingerprint::Fingerprint;

use crate::error::CamjError;
use crate::functional::TaskMetrics;

use super::breakdown::EnergyItem;
use super::pipeline::{ElasticSim, FrameBase};

/// Number of independent shards; a power of two keeps selection cheap.
pub const SHARD_COUNT: usize = 64;

/// Resident-size cap of the frame-base store, in bytes: room for a few
/// Ed-Gaze-sized bases (640×400 frames, about 12 MiB each with their
/// buffers). Past it the least recently used bases are dropped; a base
/// larger than the whole budget is built per call and never stored.
pub const FRAME_BASE_BUDGET_BYTES: u64 = 32 << 20;

/// A persistent content-addressed storage tier behind the in-memory
/// cache: a byte store keyed by `(family, fingerprint)`.
///
/// The cache consults the tier on an in-memory miss (`load`) and
/// writes every freshly computed artifact through (`store`), so warm
/// starts survive process restarts. Implementations own durability and
/// integrity: `load` must return `None` for entries it cannot prove
/// intact (truncated, corrupted, or written by an incompatible
/// version) — the cache then recomputes and re-`store`s, restoring the
/// entry. Both calls may run concurrently from many threads.
///
/// The payload encodings are the cache's business, not the tier's:
/// energy items travel as compact JSON (the workspace codec prints
/// floats shortest-round-trip, so `f64`s survive exactly) and stall
/// minima as 8 raw little-endian `f64` bits. A tier never needs to
/// understand them.
pub trait PersistentTier: Send + Sync + std::fmt::Debug {
    /// The payload stored for `(family, fp)`, or `None` when absent or
    /// not provably intact.
    fn load(&self, family: &'static str, fp: Fingerprint) -> Option<Vec<u8>>;
    /// Write-through store of `(family, fp) → payload`. Failures must
    /// be swallowed (a broken disk degrades to a smaller cache, never
    /// to a broken estimate).
    fn store(&self, family: &'static str, fp: Fingerprint, payload: &[u8]);
}

/// Tier family names (also the `key` of the `cache.tier.*` counters:
/// the family's index in this list).
const TIER_FAMILIES: [&str; 2] = ["energy", "stall"];

/// The `cache.tier.*` counter key for a family name.
fn tier_key(family: &'static str) -> u64 {
    TIER_FAMILIES.iter().position(|f| *f == family).unwrap_or(0) as u64
}

/// A point-in-time snapshot of cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored the result).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate resident payload size in bytes.
    pub bytes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero for an unused cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries, ~{} KiB)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.bytes / 1024
        )
    }
}

/// An in-flight-or-completed artifact slot. The slot is inserted into
/// the shard map *before* the computation runs; the value materialises
/// via `OnceLock::get_or_init` outside the shard lock.
type Slot<T> = Arc<OnceLock<T>>;

/// `obs_core` counter names for one artifact family, all keyed by the
/// fingerprint's shard index so a trace shows per-shard pressure.
/// `lookup` and `miss` are deterministic for a deterministic workload
/// (one miss per unique fingerprint — the slot creator); whether a
/// concurrent duplicate request lands as `wait` (blocked on the
/// in-flight slot) or `hit` (arrived after completion) is a race, and
/// `camj-obs` excludes those from its determinism digest.
struct FamilyCounters {
    lookup: &'static str,
    hit: &'static str,
    miss: &'static str,
    wait: &'static str,
}

const ELASTIC_COUNTERS: FamilyCounters = FamilyCounters {
    lookup: "cache.elastic.lookup",
    hit: "cache.elastic.hit",
    miss: "cache.elastic.miss",
    wait: "cache.elastic.wait",
};

const ENERGY_COUNTERS: FamilyCounters = FamilyCounters {
    lookup: "cache.energy.lookup",
    hit: "cache.energy.hit",
    miss: "cache.energy.miss",
    wait: "cache.energy.wait",
};

const FUNCTIONAL_COUNTERS: FamilyCounters = FamilyCounters {
    lookup: "cache.functional.lookup",
    hit: "cache.functional.hit",
    miss: "cache.functional.miss",
    wait: "cache.functional.wait",
};

/// One stored artifact.
#[derive(Debug, Clone)]
enum CacheEntry {
    Elastic(Slot<Arc<Result<ElasticSim, CamjError>>>),
    Energy(Slot<Arc<Vec<EnergyItem>>>),
    /// Task-accuracy metrics of one functional frame simulation, keyed
    /// by the functional fingerprint (noise chain + stimulus content +
    /// DAG structure + seeds). Memory-only, like the elastic family.
    Functional(Slot<Arc<Result<TaskMetrics, CamjError>>>),
    /// Fastest per-stage readout time (seconds) known to pass the stall
    /// check for this topology.
    StallPass(f64),
}

impl CacheEntry {
    /// Whether the entry holds a materialised value (an in-flight slot
    /// whose computation has not finished — or panicked — does not).
    fn is_resident(&self) -> bool {
        match self {
            CacheEntry::Elastic(slot) => slot.get().is_some(),
            CacheEntry::Energy(slot) => slot.get().is_some(),
            CacheEntry::Functional(slot) => slot.get().is_some(),
            CacheEntry::StallPass(_) => true,
        }
    }
}

/// Locks a shard, recovering from poisoning: entries are inserted
/// whole (never mutated in place mid-compute except the scalar stall
/// minimum), so the map is consistent even after a panicking holder.
fn lock_shard(
    shard: &Mutex<HashMap<Fingerprint, CacheEntry>>,
) -> MutexGuard<'_, HashMap<Fingerprint, CacheEntry>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded cross-point cache. Cheap to share: wrap it in an [`Arc`]
/// and hand clones to every model / worker of a sweep.
#[derive(Debug)]
pub struct EstimateCache {
    shards: Vec<Mutex<HashMap<Fingerprint, CacheEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
    /// Optional persistent tier, set at construction by
    /// [`Self::shared_with_tier`] and never replaced, so lookups need
    /// no lock.
    tier: Option<Arc<dyn PersistentTier>>,
    /// Exposure-free frame-simulation state: memory-only, byte-capped,
    /// and outside [`CacheStats`].
    frames: Mutex<FrameStore>,
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            tier: None,
            frames: Mutex::new(FrameStore::new(FRAME_BASE_BUDGET_BYTES)),
        }
    }

    /// An empty cache whose frame-base store holds `budget` bytes
    /// instead of [`FRAME_BASE_BUDGET_BYTES`].
    #[cfg(test)]
    pub(crate) fn with_frame_budget(budget: u64) -> Self {
        let cache = Self::new();
        lock_frames(&cache.frames).budget = budget;
        cache
    }

    /// An empty cache behind an [`Arc`], ready to thread through a sweep.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// An empty cache backed by a persistent tier: in-memory misses of
    /// the energy and stall families consult `tier` before computing,
    /// and every computed artifact is written through.
    #[must_use]
    pub fn shared_with_tier(tier: Arc<dyn PersistentTier>) -> Arc<Self> {
        Arc::new(Self {
            tier: Some(tier),
            ..Self::new()
        })
    }

    fn tier(&self) -> Option<&Arc<dyn PersistentTier>> {
        self.tier.as_ref()
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<Fingerprint, CacheEntry>> {
        &self.shards[fp.shard(SHARD_COUNT)]
    }

    /// The elastic simulation for topology `fp`, computing (and storing)
    /// it on first request. Concurrent requests for the same topology
    /// run `compute` exactly once (late arrivals block on the entry's
    /// slot); requests for *different* topologies never wait on each
    /// other, even when they share a shard.
    pub fn elastic_or(
        &self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Result<ElasticSim, CamjError>,
    ) -> Arc<Result<ElasticSim, CamjError>> {
        self.slot_or_compute(
            fp,
            |entry| match entry {
                CacheEntry::Elastic(slot) => Some(Arc::clone(slot)),
                _ => None,
            },
            CacheEntry::Elastic,
            || Arc::new(compute()),
            |value| approx_elastic_bytes(value.as_ref()),
            &ELASTIC_COUNTERS,
        )
    }

    /// The task-accuracy metrics for functional fingerprint `fp`,
    /// computing (and storing) them on first request. Same concurrency
    /// contract as [`Self::elastic_or`]; memory-only like the elastic
    /// family — a functional simulation is cheap to recompute relative
    /// to a disk round-trip and re-runs rarely within one process.
    pub fn functional_or(
        &self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Result<TaskMetrics, CamjError>,
    ) -> Arc<Result<TaskMetrics, CamjError>> {
        self.slot_or_compute(
            fp,
            |entry| match entry {
                CacheEntry::Functional(slot) => Some(Arc::clone(slot)),
                _ => None,
            },
            CacheEntry::Functional,
            || Arc::new(compute()),
            |_| std::mem::size_of::<TaskMetrics>() as u64 + 32,
            &FUNCTIONAL_COUNTERS,
        )
    }

    /// The frame base for content address `fp`, building (and storing)
    /// it on first request. Concurrent requests for the same content
    /// build it once (late arrivals block on the entry's slot, outside
    /// the store lock). A stored base is kept until the store's
    /// [`FRAME_BASE_BUDGET_BYTES`] forces the least recently used ones
    /// out; a base larger than the whole budget is handed back
    /// unstored. Lookups and builds count in the `cache.frame.*`
    /// counters only, never in [`CacheStats`].
    pub(crate) fn frame_base_or(
        &self,
        fp: Fingerprint,
        build: impl FnOnce() -> FrameBase,
    ) -> Arc<FrameBase> {
        let key = fp.shard(SHARD_COUNT) as u64;
        obs_core::counter("cache.frame.lookup", key, 1);
        let slot = lock_frames(&self.frames).slot(fp);
        let mut built = false;
        let base = Arc::clone(slot.get_or_init(|| {
            built = true;
            Arc::new(build())
        }));
        if built {
            obs_core::counter("cache.frame.miss", key, 1);
            let evicted = lock_frames(&self.frames).settle(fp, base.approx_bytes());
            if evicted > 0 {
                obs_core::counter("cache.frame.evict", key, evicted);
            }
        }
        base
    }

    /// The energy items for kernel input `fp`, computing (and storing)
    /// them on first request. Same concurrency contract as
    /// [`Self::elastic_or`].
    ///
    /// With a [`PersistentTier`] attached, an in-memory miss first
    /// consults the tier (a decodable payload replays without running
    /// `compute`), and a computed result is written through — so the
    /// items a warm restart replays are byte-identical to the cold
    /// computation that produced them.
    pub fn energy_or(
        &self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Vec<EnergyItem>,
    ) -> Arc<Vec<EnergyItem>> {
        self.slot_or_compute(
            fp,
            |entry| match entry {
                CacheEntry::Energy(slot) => Some(Arc::clone(slot)),
                _ => None,
            },
            CacheEntry::Energy,
            || Arc::new(self.energy_through_tier(fp, compute)),
            |value| approx_energy_bytes(value.as_ref()),
            &ENERGY_COUNTERS,
        )
    }

    /// The energy family's tier protocol, run inside the in-flight
    /// slot (so tier I/O and `compute` both happen exactly once per
    /// fingerprint): load-and-decode, else compute-and-write-through.
    fn energy_through_tier(
        &self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Vec<EnergyItem>,
    ) -> Vec<EnergyItem> {
        let Some(tier) = self.tier() else {
            return compute();
        };
        let key = tier_key("energy");
        if let Some(payload) = tier.load("energy", fp) {
            match std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| serde_json::from_str::<Vec<EnergyItem>>(text).ok())
            {
                Some(items) => {
                    obs_core::counter("cache.tier.hit", key, 1);
                    return items;
                }
                None => {
                    // The tier vouched for the bytes but they don't
                    // decode — a schema change, not corruption. Treat
                    // as a miss; the write-through below re-stamps the
                    // entry with the current encoding.
                    obs_core::counter("cache.tier.decode_drop", key, 1);
                }
            }
        }
        obs_core::counter("cache.tier.miss", key, 1);
        let items = compute();
        if let Ok(json) = serde_json::to_string(&items) {
            tier.store("energy", fp, json.as_bytes());
            obs_core::counter("cache.tier.store", key, 1);
        }
        items
    }

    /// The shared claim-slot protocol of [`Self::elastic_or`] and
    /// [`Self::energy_or`]: under the shard lock, reuse the entry's
    /// in-flight slot (`as_slot`) or insert a fresh one (`wrap`); then
    /// — outside the lock — materialise the value via `get_or_init`,
    /// booking its approximate size and one miss when this caller
    /// computed, one hit otherwise.
    fn slot_or_compute<T: Clone>(
        &self,
        fp: Fingerprint,
        as_slot: impl Fn(&CacheEntry) -> Option<Slot<T>>,
        wrap: impl FnOnce(Slot<T>) -> CacheEntry,
        compute: impl FnOnce() -> T,
        approx_bytes: impl FnOnce(&T) -> u64,
        counters: &FamilyCounters,
    ) -> T {
        let (slot, claimed) = {
            let mut shard = lock_shard(self.shard(fp));
            match shard.get(&fp).and_then(as_slot) {
                Some(slot) => (slot, false),
                None => {
                    let slot: Slot<T> = Arc::new(OnceLock::new());
                    shard.insert(fp, wrap(Arc::clone(&slot)));
                    (slot, true)
                }
            }
        };
        // A reused slot whose value has not materialised yet means the
        // computing claimant is still in flight: `get_or_init` below
        // will block on it. Sampled before the wait, for the trace only.
        let in_flight = !claimed && obs_core::enabled() && slot.get().is_none();
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                let value = compute();
                self.bytes
                    .fetch_add(approx_bytes(&value), Ordering::Relaxed);
                value
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        if obs_core::enabled() {
            let key = fp.shard(SHARD_COUNT) as u64;
            obs_core::counter(counters.lookup, key, 1);
            let outcome = if computed {
                counters.miss
            } else if in_flight {
                counters.wait
            } else {
                counters.hit
            };
            obs_core::counter(outcome, key, 1);
        }
        value
    }

    /// Whether a readout of `t_a_secs` per analog stage is already known
    /// to pass the stall check for topology `fp` (monotonicity: any
    /// readout at least as slow as a recorded pass also passes).
    ///
    /// Counts both outcomes: a settled lookup is a hit, an unsettled
    /// one (which the caller answers with a stall simulation) is a
    /// miss — so [`CacheStats::hit_rate`] stays honest across all three
    /// artifact families.
    #[must_use]
    pub fn stall_settled(&self, fp: Fingerprint, t_a_secs: f64) -> bool {
        let shard = lock_shard(self.shard(fp));
        let known = matches!(shard.get(&fp), Some(CacheEntry::StallPass(_)));
        let mut settled = matches!(
            shard.get(&fp),
            Some(CacheEntry::StallPass(pass_min)) if t_a_secs >= *pass_min
        );
        drop(shard);
        // With no in-memory verdict at all, a persisted pass minimum
        // from an earlier process may settle this point. Loaded minima
        // are adopted into the map so later lookups stay in memory.
        if !known {
            if let Some(pass_min) = self.tier_stall_load(fp) {
                let mut shard = lock_shard(self.shard(fp));
                match shard.entry(fp) {
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        if let CacheEntry::StallPass(existing) = slot.get_mut() {
                            *existing = existing.min(pass_min);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        self.bytes.fetch_add(48, Ordering::Relaxed);
                        slot.insert(CacheEntry::StallPass(pass_min));
                    }
                }
                settled = t_a_secs >= pass_min;
            }
        }
        if settled {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if obs_core::enabled() {
            let key = fp.shard(SHARD_COUNT) as u64;
            obs_core::counter("cache.stall.lookup", key, 1);
            obs_core::counter(
                if settled {
                    "cache.stall.hit"
                } else {
                    "cache.stall.miss"
                },
                key,
                1,
            );
        }
        settled
    }

    /// Records that readout `t_a_secs` passed the stall check for
    /// topology `fp`, keeping the fastest known pass (written through
    /// to the persistent tier whenever the minimum improves).
    pub fn record_stall_pass(&self, fp: Fingerprint, t_a_secs: f64) {
        let mut shard = lock_shard(self.shard(fp));
        let new_min = match shard.get_mut(&fp) {
            Some(CacheEntry::StallPass(pass_min)) => {
                if t_a_secs < *pass_min {
                    *pass_min = t_a_secs;
                    Some(t_a_secs)
                } else {
                    None
                }
            }
            Some(_) => None,
            None => {
                self.bytes.fetch_add(48, Ordering::Relaxed);
                shard.insert(fp, CacheEntry::StallPass(t_a_secs));
                Some(t_a_secs)
            }
        };
        drop(shard);
        if let (Some(pass_min), Some(tier)) = (new_min, self.tier()) {
            tier.store("stall", fp, &pass_min.to_bits().to_le_bytes());
            obs_core::counter("cache.tier.store", tier_key("stall"), 1);
        }
    }

    /// Loads a persisted stall-pass minimum (8 little-endian `f64`
    /// bits) for `fp`, if a tier is attached and holds a decodable
    /// entry.
    fn tier_stall_load(&self, fp: Fingerprint) -> Option<f64> {
        let tier = self.tier()?;
        let key = tier_key("stall");
        let Some(payload) = tier.load("stall", fp) else {
            obs_core::counter("cache.tier.miss", key, 1);
            return None;
        };
        let Ok(bits) = <[u8; 8]>::try_from(payload.as_slice()) else {
            obs_core::counter("cache.tier.decode_drop", key, 1);
            return None;
        };
        let pass_min = f64::from_bits(u64::from_le_bytes(bits));
        if pass_min.is_finite() && pass_min >= 0.0 {
            obs_core::counter("cache.tier.hit", key, 1);
            Some(pass_min)
        } else {
            obs_core::counter("cache.tier.decode_drop", key, 1);
            None
        }
    }

    /// A snapshot of the hit/miss counters and resident size. Counts
    /// only materialised entries — an in-flight (or panicked-and-
    /// abandoned) slot is not yet an entry.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| lock_shard(s).values().filter(|e| e.is_resident()).count() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Locks the frame-base store, recovering from poisoning: it is only
/// mutated by whole-entry pushes and removals.
fn lock_frames(store: &Mutex<FrameStore>) -> MutexGuard<'_, FrameStore> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The frame-base store: a short list of content-addressed slots with
/// least-recently-used eviction under a byte budget. It holds a handful
/// of multi-megabyte entries, so a linear scan is the whole index.
struct FrameStore {
    budget: u64,
    /// Bytes of the built entries.
    bytes: u64,
    /// Logical clock of the last lookups, for the LRU order.
    clock: u64,
    entries: Vec<FrameEntry>,
}

struct FrameEntry {
    fp: Fingerprint,
    slot: Slot<Arc<FrameBase>>,
    /// Zero while the base is being built.
    bytes: u64,
    used: u64,
}

impl std::fmt::Debug for FrameStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameStore")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl FrameStore {
    fn new(budget: u64) -> Self {
        Self {
            budget,
            bytes: 0,
            clock: 0,
            entries: Vec::new(),
        }
    }

    /// The slot for `fp` — the stored one, or a fresh in-flight one —
    /// marked as just used.
    fn slot(&mut self, fp: Fingerprint) -> Slot<Arc<FrameBase>> {
        self.clock += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.fp == fp) {
            entry.used = self.clock;
            return Arc::clone(&entry.slot);
        }
        let slot = Slot::default();
        self.entries.push(FrameEntry {
            fp,
            slot: Arc::clone(&slot),
            bytes: 0,
            used: self.clock,
        });
        slot
    }

    /// Books the size of `fp`'s freshly built base: drops the entry
    /// when the base alone exceeds the budget, else evicts the least
    /// recently used other built entries until everything fits.
    /// Returns the number of entries evicted.
    fn settle(&mut self, fp: Fingerprint, bytes: u64) -> u64 {
        let Some(index) = self.entries.iter().position(|e| e.fp == fp) else {
            return 0;
        };
        if bytes > self.budget {
            self.entries.swap_remove(index);
            return 0;
        }
        self.entries[index].bytes = bytes;
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > self.budget {
            let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.bytes > 0 && e.fp != fp)
                .min_by_key(|(_, e)| e.used)
                .map(|(i, _)| i)
            else {
                break;
            };
            self.bytes -= self.entries.swap_remove(victim).bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Rough resident size of an elastic-simulation entry. The arena the
/// engine steps through is dropped when the run finishes — what the
/// cache retains is the flat `SimReport` rows, so this counts the
/// row structs (stage: name + 2 counters, buffer: name + 3 counters)
/// plus their heap-resident name bytes, mirroring
/// [`approx_energy_bytes`].
fn approx_elastic_bytes(value: &Result<ElasticSim, CamjError>) -> u64 {
    match value {
        Ok(sim) => {
            96 + sim.report.as_ref().map_or(0, |r| {
                let stages: u64 = r.stages.iter().map(|s| 40 + s.name.len() as u64).sum();
                let buffers: u64 = r.buffers.iter().map(|b| 48 + b.name.len() as u64).sum();
                56 + stages + buffers
            })
        }
        Err(_) => 128,
    }
}

/// Rough resident size of an energy-kernel entry.
fn approx_energy_bytes(items: &[EnergyItem]) -> u64 {
    items
        .iter()
        .map(|i| 96 + i.unit.len() as u64 + i.stage.as_ref().map_or(0, |s| s.len() as u64))
        .sum::<u64>()
        + 48
}

#[cfg(test)]
mod tests {
    use super::*;
    use camj_tech::fingerprint::Fingerprintable;

    #[test]
    fn energy_entries_replay_identically() {
        let cache = EstimateCache::new();
        let fp = ("kernel", 1u32).fingerprint();
        let first = cache.energy_or(fp, Vec::new);
        let second = cache.energy_or(fp, || panic!("must not recompute"));
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn stall_passes_are_monotone() {
        let cache = EstimateCache::new();
        let fp = ("topology", 7u32).fingerprint();
        assert!(!cache.stall_settled(fp, 1.0));
        cache.record_stall_pass(fp, 0.5);
        assert!(cache.stall_settled(fp, 0.5));
        assert!(cache.stall_settled(fp, 2.0));
        assert!(!cache.stall_settled(fp, 0.1));
        cache.record_stall_pass(fp, 0.1);
        assert!(cache.stall_settled(fp, 0.1));
    }

    #[test]
    fn artifact_families_do_not_collide() {
        // Same base fingerprint, different derived domains.
        let cache = EstimateCache::new();
        let base = ("model", 3u32).fingerprint();
        cache.record_stall_pass(base.derive("stall"), 0.2);
        let energy = cache.energy_or(base.derive("energy"), Vec::new);
        assert!(energy.is_empty());
        assert_eq!(cache.stats().entries, 2);
    }

    /// `CacheStats.bytes` must track what an elastic entry actually
    /// retains: the report rows and their names, not the (dropped)
    /// simulation arena. A bigger report ⇒ strictly more bytes, and an
    /// empty (all-analog) entry still costs its fixed overhead.
    #[test]
    fn elastic_bytes_scale_with_report_content() {
        use camj_digital::sim::{BufferStats, SimReport, StageStats};
        use camj_tech::units::Time;

        let report = |stages: usize, buffers: usize| {
            Ok(ElasticSim {
                report: Some(Arc::new(SimReport {
                    total_cycles: 1,
                    stages: (0..stages)
                        .map(|i| StageStats {
                            name: format!("stage-{i}"),
                            active_cycles: 1,
                            stalled_cycles: 0,
                        })
                        .collect(),
                    buffers: (0..buffers)
                        .map(|i| BufferStats {
                            name: format!("buffer-{i}"),
                            pixels_written: 1.0,
                            pixels_read: 1.0,
                            peak_occupancy: 1.0,
                        })
                        .collect(),
                })),
                digital_latency: Time::from_secs(1e-3),
            })
        };

        let cache = EstimateCache::new();
        cache.elastic_or(("elastic", 1u32).fingerprint(), || report(2, 1));
        let small = cache.stats().bytes;
        cache.elastic_or(("elastic", 2u32).fingerprint(), || report(8, 4));
        let grown = cache.stats().bytes - small;
        assert!(
            grown > small,
            "8 stages + 4 buffers ({grown}B) must outweigh 2 + 1 ({small}B)"
        );
        // Per-row floor: each stage keeps its counters and name bytes.
        assert!(grown >= 8 * 40 + 4 * 48, "grown {grown}B");

        // All-analog designs cache a report-free marker at fixed cost.
        cache.elastic_or(("elastic", 3u32).fingerprint(), || {
            Ok(ElasticSim {
                report: None,
                digital_latency: Time::from_secs(0.0),
            })
        });
        assert_eq!(cache.stats().bytes - small - grown, 96);
    }

    /// An in-memory [`PersistentTier`] for the tests below: a plain
    /// byte map, plus a corruption knob.
    #[derive(Debug, Default)]
    struct MemTier {
        entries: Mutex<HashMap<(&'static str, Fingerprint), Vec<u8>>>,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl PersistentTier for MemTier {
        fn load(&self, family: &'static str, fp: Fingerprint) -> Option<Vec<u8>> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().get(&(family, fp)).cloned()
        }
        fn store(&self, family: &'static str, fp: Fingerprint, payload: &[u8]) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .insert((family, fp), payload.to_vec());
        }
    }

    fn item(unit: &str, pj: f64) -> EnergyItem {
        EnergyItem {
            unit: unit.to_owned(),
            stage: Some("stage".to_owned()),
            category: crate::energy::EnergyCategory::DigitalCompute,
            layer: crate::hw::Layer::Sensor,
            energy: camj_tech::units::Energy::from_picojoules(pj),
        }
    }

    /// Energy artifacts written through the tier replay bit-exactly in
    /// a fresh cache (the warm-restart contract), without recomputing.
    #[test]
    fn energy_entries_persist_through_the_tier() {
        let tier = Arc::new(MemTier::default());
        let fp = ("tiered-kernel", 1u32).fingerprint();
        // Awkward floats: must survive the JSON round trip exactly.
        let items = vec![item("adc", 0.1 + 0.2), item("mac", 1.0 / 3.0)];

        let cold = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        let first = cold.energy_or(fp, || items.clone());
        assert_eq!(*first, items);
        assert_eq!(tier.stores.load(Ordering::Relaxed), 1, "write-through");

        // A fresh cache over the same tier replays without computing.
        let warm = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        let replayed = warm.energy_or(fp, || panic!("must replay from the tier"));
        assert_eq!(*replayed, items);
        for (a, b) in replayed.iter().zip(items.iter()) {
            assert_eq!(
                a.energy.joules().to_bits(),
                b.energy.joules().to_bits(),
                "tier round trip must be bit-exact"
            );
        }
    }

    /// A payload the tier returns but the cache cannot decode (schema
    /// drift) falls back to computing and re-stores the fresh encoding.
    #[test]
    fn undecodable_tier_payloads_recompute_and_rewrite() {
        let tier = Arc::new(MemTier::default());
        let fp = ("drifted", 2u32).fingerprint();
        tier.store("energy", fp, b"not json at all");
        let cache = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        let value = cache.energy_or(fp, || vec![item("pix", 4.5)]);
        assert_eq!(value.len(), 1);
        // The bad payload was replaced by the fresh encoding…
        let warm = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        let replay = warm.energy_or(fp, || panic!("rewritten entry must replay"));
        assert_eq!(*replay, *value);
    }

    /// Stall minima persist: a pass recorded in one cache settles
    /// lookups in a fresh cache over the same tier.
    #[test]
    fn stall_passes_persist_through_the_tier() {
        let tier = Arc::new(MemTier::default());
        let fp = ("tiered-stall", 3u32).fingerprint();
        let cold = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        cold.record_stall_pass(fp, 0.25);
        // Worse passes don't rewrite; better ones do.
        let stores = tier.stores.load(Ordering::Relaxed);
        cold.record_stall_pass(fp, 0.5);
        assert_eq!(tier.stores.load(Ordering::Relaxed), stores);
        cold.record_stall_pass(fp, 0.125);
        assert_eq!(tier.stores.load(Ordering::Relaxed), stores + 1);

        let warm = EstimateCache::shared_with_tier(Arc::clone(&tier) as _);
        assert!(warm.stall_settled(fp, 0.125));
        assert!(warm.stall_settled(fp, 2.0));
        assert!(!warm.stall_settled(fp, 0.01));
    }

    #[test]
    fn stats_display_is_human_readable() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            bytes: 2048,
        };
        let text = s.to_string();
        assert!(text.contains("75.0%"), "{text}");
    }

    /// The ISSUE 5 poison regression: a computation that panics (and is
    /// caught per-point by a sweep driver) must not corrupt the shard —
    /// the same fingerprint recomputes cleanly, other fingerprints are
    /// untouched, and `stats()` keeps working.
    #[test]
    fn panicking_compute_does_not_poison_the_shard() {
        let cache = EstimateCache::new();
        let fp = ("poison", 1u32).fingerprint();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.energy_or(fp, || panic!("injected kernel panic"))
        }));
        assert!(boom.is_err(), "the injected panic must propagate");
        // The same fingerprint recovers: the abandoned slot recomputes.
        let value = cache.energy_or(fp, Vec::new);
        assert!(value.is_empty());
        // A different fingerprint in the same shard map is unaffected.
        let other = cache.energy_or(fp.derive("neighbour"), Vec::new);
        assert!(other.is_empty());
        // And the stats snapshot still works (the CLI calls it last).
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.misses >= 2);
    }

    /// Same for the elastic family: a panicked simulation must not take
    /// the shard down with it.
    #[test]
    fn panicking_elastic_compute_recovers() {
        let cache = EstimateCache::new();
        let fp = ("elastic-poison", 9u32).fingerprint();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.elastic_or(fp, || panic!("injected sim panic"))
        }));
        assert!(boom.is_err());
        let value = cache.elastic_or(fp, || {
            Ok(ElasticSim {
                report: None,
                digital_latency: camj_tech::units::Time::ZERO,
            })
        });
        assert!(value.is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    /// The convoying regression: computing one entry must not hold the
    /// shard-wide lock, so a computation that itself consults the cache
    /// for a *different* fingerprint on the same shard must not
    /// deadlock. (Under the old held-across-compute locking this test
    /// hangs on the re-entrant shard acquisition.)
    #[test]
    fn nested_compute_on_the_same_shard_does_not_deadlock() {
        let cache = EstimateCache::new();
        let a = ("nested", 1u32).fingerprint();
        // Find a sibling fingerprint landing on the same shard.
        let b = (2u32..)
            .map(|i| ("nested", i).fingerprint())
            .find(|fp| fp.shard(SHARD_COUNT) == a.shard(SHARD_COUNT))
            .expect("some sibling shares the shard");
        let value = cache.energy_or(a, || {
            let inner = cache.energy_or(b, Vec::new);
            assert!(inner.is_empty());
            Vec::new()
        });
        assert!(value.is_empty());
        assert_eq!(cache.stats().entries, 2);
    }

    /// Duplicate concurrent requests still compute exactly once: the
    /// in-flight slot, not the shard lock, serialises them.
    #[test]
    fn concurrent_requests_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(EstimateCache::new());
        let fp = ("race", 5u32).fingerprint();
        let runs = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                scope.spawn(move || {
                    cache.energy_or(fp, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window a little.
                        std::thread::yield_now();
                        Vec::new()
                    })
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "compute must run once");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.misses, 1);
    }
}
