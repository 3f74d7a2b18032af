//! The live population as the benchmark expects it: the tenants it placed
//! and has not removed, with the loads it last asked for. Workloads draw
//! departures and load re-estimates from it before the program sees them.

use crate::checker::IntMap;
use crate::rng::Rng;
use cubefit_core::{Tenant, TenantId};

#[derive(Debug, Default)]
pub struct Population {
    live: Vec<u64>,
    loads: IntMap<u64, f64>,
}

impl Population {
    pub fn new(tenants: &[Tenant]) -> Self {
        let mut population = Population::default();
        for tenant in tenants {
            population.arrive(tenant);
        }
        population
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub fn loads(&self) -> &IntMap<u64, f64> {
        &self.loads
    }

    pub fn arrive(&mut self, tenant: &Tenant) {
        self.live.push(tenant.id().get());
        self.loads.insert(tenant.id().get(), tenant.load().get());
    }

    /// A uniformly chosen live tenant departs.
    pub fn depart(&mut self, rng: &mut Rng) -> TenantId {
        let id = self.live.swap_remove(rng.below(self.live.len()));
        self.loads.remove(&id);
        TenantId::new(id)
    }

    /// A uniformly chosen live tenant's load is re-estimated to 50–95 % of
    /// its value. Only ever lower: an upward re-estimate may suspend
    /// Theorem 1 by design (see `Consolidator::update_load`), and the
    /// check must hold after every operation.
    pub fn lower(&mut self, rng: &mut Rng) -> (TenantId, f64) {
        let id = self.live[rng.below(self.live.len())];
        let load = self.loads.get_mut(&id).expect("live tenants have loads");
        *load *= 0.5 + 0.45 * rng.unit();
        (TenantId::new(id), *load)
    }
}
