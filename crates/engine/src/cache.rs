//! An unbounded memo of materialized time-extended windows.
//!
//! No planning stage reads a materialized `G_T`: greedy, tree, the
//! certifier and the slack search all evaluate it virtually. The memo
//! survives only for callers that time materialization by hand
//! (through [`crate::Engine::cache`]); no engine or daemon code path
//! calls it.
// `flows[0]`: the key is per-flow by design.
#![allow(clippy::indexing_slicing)]

use chronus_net::{Flow, Network, TimeStep, UpdateInstance};
use chronus_timenet::{MaterializedTimeNet, TimeExtendedNetwork};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over 8-byte words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Structural hash of a topology: switch count plus every link's
/// endpoints, capacity and delay, in the network's canonical link
/// order.
pub fn topology_hash(net: &Network) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(net.switch_count() as u64);
    for l in net.links() {
        h.write_u64(u64::from(l.src.0));
        h.write_u64(u64::from(l.dst.0));
        h.write_u64(l.capacity);
        h.write_u64(l.delay);
    }
    h.finish()
}

/// Structural hash of a flow: id, demand and both paths hop by hop.
pub fn flow_signature(flow: &Flow) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(u64::from(flow.id.0));
    h.write_u64(flow.demand);
    for path in [&flow.initial, &flow.fin] {
        h.write_u64(path.hops().len() as u64);
        for hop in path.hops() {
            h.write_u64(u64::from(hop.0));
        }
    }
    h.finish()
}

/// The horizon of a request's time-extended window: the instance's
/// total path delay, the natural upper bound on how far into past and
/// future a consistent migration can reach.
pub fn planning_horizon(instance: &UpdateInstance) -> TimeStep {
    instance.total_path_delay().max(1) as TimeStep
}

/// Key of one memoized `G_T` window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// [`topology_hash`] of the instance's network.
    pub topo_hash: u64,
    /// [`flow_signature`] of the flow being migrated.
    pub flow_sig: u64,
    /// `t_max` of the window (its `t_min` is `-horizon`, mirroring
    /// [`TimeExtendedNetwork::initial_window`]).
    pub horizon: TimeStep,
}

impl CacheKey {
    /// The key for a single-flow instance with the given horizon.
    pub fn for_instance(instance: &UpdateInstance, horizon: TimeStep) -> Self {
        CacheKey {
            topo_hash: topology_hash(&instance.network),
            flow_sig: flow_signature(&instance.flows[0]),
            horizon,
        }
    }
}

/// Thread-safe, unbounded memoization of materialized `G_T` windows.
#[derive(Default)]
pub struct TimeNetCache {
    entries: Mutex<HashMap<CacheKey, Arc<MaterializedTimeNet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TimeNetCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        TimeNetCache::default()
    }

    /// Returns the memoized window for `key`, materializing it from
    /// `instance` on first use. The bool is `true` on a cache hit.
    pub fn get_or_materialize(
        &self,
        key: CacheKey,
        instance: &UpdateInstance,
    ) -> (Arc<MaterializedTimeNet>, bool) {
        if let Some(found) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (found.clone(), true);
        }
        // Materialize outside the lock: windows can be large, and two
        // threads racing on the same key simply build it twice, with
        // the second insert winning (both snapshots are identical).
        let reach = key.horizon.max(1);
        let te = TimeExtendedNetwork::new(&instance.network, -reach, reach);
        let built = Arc::new(te.materialize());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().insert(key, built.clone());
        (built, false)
    }

    /// Number of lookups that found a memoized window.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to materialize.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct memoized windows.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate heap footprint of the memoized windows.
    pub fn approx_bytes(&self) -> usize {
        self.entries.lock().values().map(|m| m.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    #[test]
    fn hashes_are_stable_and_discriminating() {
        let a = motivating_example();
        let b = motivating_example();
        assert_eq!(topology_hash(&a.network), topology_hash(&b.network));
        assert_eq!(flow_signature(&a.flows[0]), flow_signature(&b.flows[0]));
        let mut c = motivating_example();
        c.flows[0].demand += 1;
        assert_ne!(flow_signature(&a.flows[0]), flow_signature(&c.flows[0]));
    }

    #[test]
    fn memoizes_by_key() {
        let inst = motivating_example();
        let cache = TimeNetCache::new();
        let key = CacheKey::for_instance(&inst, 4);
        let (first, hit1) = cache.get_or_materialize(key, &inst);
        assert!(!hit1);
        let (second, hit2) = cache.get_or_materialize(key, &inst);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // A different horizon is a different window.
        let (third, hit3) = cache.get_or_materialize(CacheKey::for_instance(&inst, 6), &inst);
        assert!(!hit3);
        assert_ne!(third.t_max(), first.t_max());
        assert_eq!(cache.len(), 2);
        assert!(cache.approx_bytes() > 0);
    }
}
