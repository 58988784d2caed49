//! The tenant registry: who may submit work, under which defaults, and
//! how tenants share the machine.
//!
//! λ-NIC packs thousands of isolated lambdas onto one SmartNIC; this
//! module is the daemon-side half of that idea. Every request runs as a
//! tenant — the always-present [`DEFAULT_TENANT`] when it names none —
//! and `op:"register"` declares the rest: the tenant's NF set, its
//! default device backend and inference precision, and its admission
//! quota (the most jobs it may have queued at once).
//!
//! Tenants map onto **worker shards**: tenant *k* (in registration
//! order) is pinned to shard `k % workers`, and worker *i* services
//! shard `i % min(workers, tenants)`. With one tenant every worker
//! serves it (full utilization); as tenants register they spread across
//! workers, so one tenant's heavy jobs cannot occupy the whole pool.
//! The mapping is a pure function of registration order, so it never
//! moves a tenant (and its queued jobs) between shards after the fact.
//!
//! Registration also profiles the tenant's NF set (the heaviest NF
//! stands in, see [`clara_core::representative_profile`]) so the server
//! can answer "tenant A loses X% next to tenant B" from the paper's
//! §4.5 colocation model — surfaced per tenant pair in `stats` and the
//! run report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use clara_core::{coloc, NicConfig, PairInterference, PortConfig, Precision, WorkloadProfile};

/// The tenant every unattributed request runs as.
pub const DEFAULT_TENANT: &str = "default";

/// Per-tenant lifetime counters. Summed over all tenants these
/// reconcile exactly with the server's [`crate::ServeSummary`]: every
/// global tally is attributed to precisely one tenant (unattributable
/// failures — e.g. parse errors — count against [`DEFAULT_TENANT`]).
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Work requests answered successfully.
    pub served: AtomicU64,
    /// Rejections by the shared queue's global capacity.
    pub overloaded: AtomicU64,
    /// Rejections by this tenant's own admission quota.
    pub quota_exceeded: AtomicU64,
    /// Requests that failed for any other reason.
    pub errors: AtomicU64,
}

impl TenantStats {
    /// Relaxed snapshot of (served, overloaded, quota_exceeded, errors).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.served.load(Ordering::SeqCst),
            self.overloaded.load(Ordering::SeqCst),
            self.quota_exceeded.load(Ordering::SeqCst),
            self.errors.load(Ordering::SeqCst),
        )
    }
}

/// One registered tenant. Configuration is immutable per registration
/// (re-registering swaps the whole record); the shard pin and counters
/// survive re-registration.
pub struct Tenant {
    /// Registry key.
    pub name: String,
    /// Registered NF set, sorted; empty admits the whole corpus.
    pub nfs: Vec<String>,
    /// Default device backend for requests that name none.
    pub backend: Option<String>,
    /// Default inference precision for requests that name none.
    pub precision: Option<Precision>,
    /// Most jobs this tenant may have queued at once.
    pub quota: usize,
    /// Worker shard this tenant's queue is serviced by.
    pub shard: usize,
    /// Representative workload profile of the NF set (the heaviest
    /// registered NF); `None` when the set is empty (whole corpus).
    pub profile: Option<WorkloadProfile>,
    /// Lifetime counters (shared across re-registrations).
    pub stats: Arc<TenantStats>,
}

/// Interference prediction for one ordered tenant pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantColoc {
    /// The tenant losing throughput.
    pub a: String,
    /// The neighbour it is colocated with.
    pub b: String,
    /// Predicted pairwise loss.
    pub interference: PairInterference,
}

/// The tenant registry: name → tenant, plus the shard bookkeeping.
pub struct Registry {
    workers: usize,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// Creates a registry with the always-present [`DEFAULT_TENANT`]
    /// (whole corpus, server defaults, quota = the full queue capacity).
    pub fn new(workers: usize, default_quota: usize) -> Registry {
        let workers = workers.max(1);
        let mut map = BTreeMap::new();
        map.insert(
            DEFAULT_TENANT.to_string(),
            Arc::new(Tenant {
                name: DEFAULT_TENANT.to_string(),
                nfs: Vec::new(),
                backend: None,
                precision: None,
                quota: default_quota,
                shard: 0,
                profile: None,
                stats: Arc::new(TenantStats::default()),
            }),
        );
        Registry {
            workers,
            tenants: Mutex::new(map),
        }
    }

    /// Resolves a request's tenant: the named one, or the default when
    /// the request names none. `None` means the name is not registered.
    pub fn resolve(&self, name: Option<&str>) -> Option<Arc<Tenant>> {
        let map = self.tenants.lock().expect("registry poisoned");
        map.get(name.unwrap_or(DEFAULT_TENANT)).cloned()
    }

    /// The always-present default tenant.
    pub fn default_tenant(&self) -> Arc<Tenant> {
        self.resolve(None)
            .expect("default tenant is always present")
    }

    /// Registers (or re-registers) a tenant. The shard pin and lifetime
    /// counters of an existing registration are preserved; everything
    /// else is replaced. Returns the new record.
    pub fn register(
        &self,
        name: &str,
        mut nfs: Vec<String>,
        backend: Option<String>,
        precision: Option<Precision>,
        quota: usize,
        profile: Option<WorkloadProfile>,
    ) -> Arc<Tenant> {
        nfs.sort();
        nfs.dedup();
        let mut map = self.tenants.lock().expect("registry poisoned");
        let (shard, stats) = match map.get(name) {
            Some(old) => (old.shard, Arc::clone(&old.stats)),
            None => (map.len() % self.workers, Arc::new(TenantStats::default())),
        };
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            nfs,
            backend,
            precision,
            quota,
            shard,
            profile,
            stats,
        });
        map.insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }

    /// How many shards are live: one per tenant, capped at the worker
    /// count. Worker *i* services shard `i % shard_count()`.
    pub fn shard_count(&self) -> usize {
        let map = self.tenants.lock().expect("registry poisoned");
        map.len().min(self.workers).max(1)
    }

    /// Name-sorted snapshot of every registered tenant.
    pub fn snapshot(&self) -> Vec<Arc<Tenant>> {
        let map = self.tenants.lock().expect("registry poisoned");
        map.values().cloned().collect()
    }

    /// Colocation interference predictions for every unordered pair of
    /// tenants that registered an NF set, both directions reported
    /// ("a loses X% next to b"), name-sorted and deterministic.
    pub fn coloc_pairs(&self, nic: &NicConfig) -> Vec<TenantColoc> {
        let port = PortConfig::naive();
        let tenants: Vec<Arc<Tenant>> = self
            .snapshot()
            .into_iter()
            .filter(|t| t.profile.is_some())
            .collect();
        let mut out = Vec::new();
        for (i, a) in tenants.iter().enumerate() {
            for b in tenants.iter().skip(i + 1) {
                let pa = a.profile.as_ref().expect("filtered on profile");
                let pb = b.profile.as_ref().expect("filtered on profile");
                let interference = coloc::pair_interference(pa, pb, nic, &port);
                out.push(TenantColoc {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    interference,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_is_always_present_and_sharded_to_zero() {
        let reg = Registry::new(4, 64);
        let t = reg.resolve(None).expect("default present");
        assert_eq!(t.name, DEFAULT_TENANT);
        assert_eq!(t.shard, 0);
        assert_eq!(t.quota, 64);
        assert!(reg.resolve(Some("ghost")).is_none());
        assert_eq!(reg.shard_count(), 1);
    }

    #[test]
    fn registration_order_pins_shards_and_grows_shard_count() {
        let reg = Registry::new(2, 8);
        let a = reg.register("a", vec![], None, None, 4, None);
        let b = reg.register("b", vec![], None, None, 4, None);
        // default is index 0, so a → 1 % 2, b → 2 % 2.
        assert_eq!(a.shard, 1);
        assert_eq!(b.shard, 0);
        // Shards cap at the worker count.
        assert_eq!(reg.shard_count(), 2);
        // Re-registration keeps the shard pin and the counters.
        a.stats.served.fetch_add(3, Ordering::SeqCst);
        let a2 = reg.register("a", vec!["nat".into()], None, Some(Precision::Q16), 9, None);
        assert_eq!(a2.shard, 1);
        assert_eq!(a2.quota, 9);
        assert_eq!(a2.stats.served.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn coloc_pairs_cover_profiled_tenants_both_ways() {
        let reg = Registry::new(2, 8);
        let nic = NicConfig::default();
        let profile_of = |name: &str| {
            let module = click_model::extended_corpus()
                .into_iter()
                .find(|e| e.name() == name)
                .expect("corpus element")
                .module;
            clara_core::representative_profile(&[&module], &nic)
        };
        reg.register(
            "a",
            vec!["cmsketch".into()],
            None,
            None,
            4,
            profile_of("cmsketch"),
        );
        reg.register(
            "b",
            vec!["iplookup".into()],
            None,
            None,
            4,
            profile_of("iplookup"),
        );
        reg.register("noprofile", vec![], None, None, 4, None);
        let pairs = reg.coloc_pairs(&nic);
        assert_eq!(pairs.len(), 1, "one profiled pair");
        let p = &pairs[0];
        assert_eq!((p.a.as_str(), p.b.as_str()), ("a", "b"));
        assert!(p.interference.a_loss_pct >= 0.0 && p.interference.a_loss_pct <= 100.0);
        assert!(p.interference.b_loss_pct >= 0.0 && p.interference.b_loss_pct <= 100.0);
    }
}
