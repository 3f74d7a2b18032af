//! The benchmark's own model of the live tenants and the correctness
//! check computed from it.
//!
//! The model records what the benchmark asked for (each tenant's load)
//! and what the program answered (the servers each tenant's replicas went
//! to). [`check`] recomputes every server's level and pairwise shared
//! load from the model alone and tests the paper's guarantees on those
//! numbers; it reads the program's [`Placement`] only to compare against
//! it, never to borrow its bookkeeping or its own checkers.

use cubefit_core::{BinId, Placement, TenantId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Slack for comparing a recomputed level with the program's incremental
/// one: both sum the same replica sizes in different orders.
const LEVEL_TOLERANCE: f64 = 1e-9;
/// Slack for Theorem 1. The program admits a replica when its own sum is
/// within `1 + 1e-9`; a from-scratch sum of the same terms may round a few
/// ulps higher.
const RESERVE_TOLERANCE: f64 = 1e-8;

/// Multiplicative hashing for integer keys (the default SipHash would
/// dominate a check over hundreds of thousands of tenants).
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub load: f64,
    pub servers: Vec<usize>,
}

#[derive(Debug, Clone, Default)]
pub struct Model {
    gamma: usize,
    tenants: IntMap<u64, Entry>,
}

impl Model {
    pub fn new(gamma: usize) -> Self {
        Model { gamma, tenants: IntMap::default() }
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn insert(&mut self, tenant: u64, load: f64, servers: Vec<usize>) {
        self.tenants.insert(tenant, Entry { load, servers });
    }

    pub fn remove(&mut self, tenant: u64) -> Option<Entry> {
        self.tenants.remove(&tenant)
    }

    pub fn set_load(&mut self, tenant: u64, load: f64) -> bool {
        self.tenants.get_mut(&tenant).map(|e| e.load = load).is_some()
    }

    /// Moves `tenant`'s replica from server `from` to `to`.
    pub fn move_replica(&mut self, tenant: u64, from: usize, to: usize) -> bool {
        let Some(entry) = self.tenants.get_mut(&tenant) else { return false };
        match entry.servers.iter_mut().find(|s| **s == from) {
            Some(slot) => {
                *slot = to;
                true
            }
            None => false,
        }
    }

    /// Tenants with a replica on any of `servers`.
    pub fn tenants_on(&self, servers: &[usize]) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .tenants
            .iter()
            .filter(|(_, e)| e.servers.iter().any(|s| servers.contains(s)))
            .map(|(&id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Replaces `tenant`'s servers with the ones `placement` now reports.
    pub fn refresh_servers(&mut self, tenant: u64, placement: &Placement) -> bool {
        let Some(bins) = placement.tenant_bins(TenantId::new(tenant)) else { return false };
        match self.tenants.get_mut(&tenant) {
            Some(entry) => {
                entry.servers = bins.iter().map(|b| b.index()).collect();
                true
            }
            None => false,
        }
    }

    /// Per-server levels recomputed from the model, over `servers` slots.
    pub fn levels(&self, servers: usize) -> Vec<f64> {
        let mut level = vec![0.0; servers];
        for entry in self.tenants.values() {
            let replica = entry.load / self.gamma as f64;
            for &s in &entry.servers {
                if s < servers {
                    level[s] += replica;
                }
            }
        }
        level
    }
}

/// What a passing check measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    pub tenants: usize,
    pub servers_used: usize,
    /// `⌈Σ load⌉`: no placement can use fewer servers.
    pub servers_lower_bound: usize,
}

/// Checks the program's placement against the model:
///
/// * the program hosts exactly the model's tenants, with the model's
///   loads and servers;
/// * every tenant sits on `γ` distinct servers;
/// * every server's level is the sum of its replica sizes and agrees with
///   [`Placement::level`];
/// * Theorem 1: level + the `γ − 1` largest loads shared with one other
///   server ≤ 1, so any `γ − 1` failures leave every survivor within
///   capacity;
/// * the servers used equal the servers the model fills and are at least
///   `⌈Σ load⌉`;
/// * every server in `failed` hosts nothing.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check(model: &Model, placement: &Placement, failed: &[usize]) -> Result<Checked, String> {
    let gamma = model.gamma;
    if placement.gamma() != gamma {
        return Err(format!("program has γ={}, model γ={gamma}", placement.gamma()));
    }
    if placement.tenant_count() != model.len() {
        return Err(format!(
            "program hosts {} tenants, model has {}",
            placement.tenant_count(),
            model.len()
        ));
    }
    let servers = placement.created_bins();
    let mut total_load = 0.0;
    for (&id, entry) in &model.tenants {
        if entry.servers.len() != gamma {
            return Err(format!("tenant {id} has {} replicas, γ={gamma}", entry.servers.len()));
        }
        for (i, &s) in entry.servers.iter().enumerate() {
            if s >= servers {
                return Err(format!("tenant {id} on server {s}, only {servers} exist"));
            }
            if entry.servers[..i].contains(&s) {
                return Err(format!("tenant {id} has two replicas on server {s}"));
            }
        }
        let program_bins = placement
            .tenant_bins(TenantId::new(id))
            .ok_or_else(|| format!("tenant {id} is missing from the program"))?;
        if program_bins.len() != gamma
            || !program_bins.iter().all(|b| entry.servers.contains(&b.index()))
        {
            return Err(format!(
                "tenant {id}: program has servers {:?}, model {:?}",
                program_bins.iter().map(|b| b.index()).collect::<Vec<_>>(),
                entry.servers
            ));
        }
        if placement.tenant_load(TenantId::new(id)) != Some(entry.load) {
            return Err(format!(
                "tenant {id}: program has load {:?}, model {}",
                placement.tenant_load(TenantId::new(id)),
                entry.load
            ));
        }
        total_load += entry.load;
    }

    let level = model.levels(servers);
    for (s, &mine) in level.iter().enumerate() {
        let theirs = placement.level(BinId::new(s));
        if (mine - theirs).abs() > LEVEL_TOLERANCE {
            return Err(format!("server {s}: level {mine} recomputed, program says {theirs}"));
        }
    }

    let mut shared: IntMap<u64, f64> = IntMap::default();
    for entry in model.tenants.values() {
        let replica = entry.load / gamma as f64;
        for (i, &a) in entry.servers.iter().enumerate() {
            for &b in &entry.servers[i + 1..] {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                *shared.entry((lo * servers + hi) as u64).or_default() += replica;
            }
        }
    }
    let mut peers: Vec<Vec<f64>> = vec![Vec::new(); servers];
    for (&key, &load) in &shared {
        peers[key as usize / servers].push(load);
        peers[key as usize % servers].push(load);
    }
    for (s, loads) in peers.iter_mut().enumerate() {
        loads.sort_unstable_by(|a, b| b.total_cmp(a));
        let reserve: f64 = loads.iter().take(gamma - 1).sum();
        if level[s] + reserve > 1.0 + RESERVE_TOLERANCE {
            return Err(format!(
                "Theorem 1 fails on server {s}: level {} + failover {reserve} > 1",
                level[s]
            ));
        }
    }

    let servers_used = level.iter().filter(|&&l| l > 0.0).count();
    if servers_used != placement.open_bins() {
        return Err(format!(
            "model fills {servers_used} servers, program reports {} open",
            placement.open_bins()
        ));
    }
    let servers_lower_bound = (total_load - LEVEL_TOLERANCE).ceil().max(0.0) as usize;
    if servers_used < servers_lower_bound {
        return Err(format!("{servers_used} servers hold load {total_load}"));
    }
    for &f in failed {
        if f < servers && (level[f] != 0.0 || !placement.bin(BinId::new(f)).is_empty()) {
            return Err(format!("failed server {f} still hosts replicas after recovery"));
        }
    }
    Ok(Checked { tenants: model.len(), servers_used, servers_lower_bound })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, Tenant};

    /// Places `(id, load, servers)` rows by hand, bypassing any algorithm.
    fn hand_built(
        gamma: usize,
        servers: usize,
        rows: &[(u64, f64, &[usize])],
    ) -> (Model, Placement) {
        let mut placement = Placement::new(gamma);
        let bins: Vec<BinId> = (0..servers).map(|_| placement.open_bin(None)).collect();
        let mut model = Model::new(gamma);
        for &(id, load, on) in rows {
            let tenant = Tenant::new(TenantId::new(id), Load::new(load).unwrap());
            let hosts: Vec<BinId> = on.iter().map(|&s| bins[s]).collect();
            placement.place_tenant(&tenant, &hosts).unwrap();
            model.insert(id, load, on.to_vec());
        }
        (model, placement)
    }

    #[test]
    fn accepts_a_robust_placement() {
        // γ=2: server 0 holds 0.2 + 0.2, shares 0.2 with each of servers
        // 1 and 2; 0.4 + 0.2 ≤ 1 everywhere.
        let (model, placement) =
            hand_built(2, 3, &[(0, 0.4, &[0, 1]), (1, 0.4, &[0, 2]), (2, 0.6, &[1, 2])]);
        let checked = check(&model, &placement, &[]).unwrap();
        assert_eq!(checked.servers_used, 3);
        assert_eq!(checked.servers_lower_bound, 2);
    }

    #[test]
    fn rejects_a_theorem_1_violation() {
        // Server 0 is at 0.9 and shares 0.45 with server 1: if server 1
        // fails, server 0 must absorb 0.45 and overflows.
        let (model, placement) = hand_built(2, 3, &[(0, 0.9, &[0, 1]), (1, 0.9, &[0, 2])]);
        let err = check(&model, &placement, &[]).unwrap_err();
        assert!(err.contains("Theorem 1"), "{err}");
    }

    #[test]
    fn rejects_a_model_the_program_disagrees_with() {
        let (mut model, placement) = hand_built(2, 3, &[(0, 0.4, &[0, 1])]);
        model.insert(0, 0.4, vec![0, 2]);
        assert!(check(&model, &placement, &[]).unwrap_err().contains("program has servers"));
        let (mut model, placement) = hand_built(2, 3, &[(0, 0.4, &[0, 1])]);
        model.set_load(0, 0.3);
        assert!(check(&model, &placement, &[]).unwrap_err().contains("load"));
    }

    #[test]
    fn rejects_a_failed_server_that_still_hosts_replicas() {
        let (model, placement) = hand_built(2, 3, &[(0, 0.4, &[0, 1])]);
        assert!(check(&model, &placement, &[2]).is_ok());
        assert!(check(&model, &placement, &[1]).unwrap_err().contains("failed server 1"));
    }

    #[test]
    fn rejects_duplicate_replicas_in_the_model() {
        let (mut model, placement) = hand_built(3, 4, &[(0, 0.3, &[0, 1, 2])]);
        model.insert(0, 0.3, vec![0, 1, 1]);
        assert!(check(&model, &placement, &[]).unwrap_err().contains("two replicas"));
    }
}
