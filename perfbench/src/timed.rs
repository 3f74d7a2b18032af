//! A [`Consolidator`] wrapper that records a span around every call into
//! the wrapped layer and otherwise forwards untouched.
//!
//! The benchmark builds two of them: one directly around CubeFit (the
//! algorithm layers), and one around the `JournaledConsolidator` that
//! wraps the first, so the journal's time is the outer span minus the
//! inner ones.

use crate::trace;
use cubefit_core::{
    BinId, Consolidator, LoadUpdateOutcome, Placement, PlacementOutcome, RecoveryReport,
    RemovalOutcome, Result, Tenant, TenantId,
};
use cubefit_telemetry::Recorder;

/// Span names for each call, and whether batch calls pass through.
#[derive(Debug)]
pub struct Names {
    place: &'static str,
    remove: &'static str,
    update_load: &'static str,
    migrate: &'static str,
    recover: &'static str,
    /// `None`: batch calls run as the trait's per-op loop, so every
    /// operation gets its own span and no batch-only fast path runs.
    batches: Option<[&'static str; 3]>,
}

/// Around the algorithm: placement decisions, the placement substrate's
/// mutations, and recovery.
pub const ALGORITHM: Names = Names {
    place: "cubefit.place",
    remove: "placement.remove",
    update_load: "placement.update_load",
    migrate: "placement.migrate",
    recover: "recovery.recover",
    batches: None,
};

/// Around the journal wrapper, whose batch calls append one frame each.
pub const JOURNAL: Names = Names {
    place: "journal.place",
    remove: "journal.remove",
    update_load: "journal.update_load",
    migrate: "journal.migrate",
    recover: "journal.recover",
    batches: Some(["journal.place_batch", "journal.remove_batch", "journal.update_load_batch"]),
};

pub struct Timed {
    inner: Box<dyn Consolidator>,
    names: &'static Names,
}

impl Timed {
    pub fn new(inner: Box<dyn Consolidator>, names: &'static Names) -> Self {
        Timed { inner, names }
    }
}

impl Consolidator for Timed {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        let _span = trace::enter(self.names.place);
        self.inner.place(tenant)
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let _span = trace::enter(self.names.remove);
        self.inner.remove(tenant)
    }

    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let _span = trace::enter(self.names.recover);
        self.inner.recover(failed)
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let _span = trace::enter(self.names.update_load);
        self.inner.update_load(tenant, new_load)
    }

    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        match self.names.batches {
            Some([name, _, _]) => {
                let _span = trace::enter(name);
                self.inner.place_batch(tenants)
            }
            None => tenants.into_iter().map(|tenant| self.place(tenant)).collect(),
        }
    }

    fn remove_batch(&mut self, tenants: &[TenantId]) -> Result<Vec<RemovalOutcome>> {
        match self.names.batches {
            Some([_, name, _]) => {
                let _span = trace::enter(name);
                self.inner.remove_batch(tenants)
            }
            None => tenants.iter().map(|tenant| self.remove(*tenant)).collect(),
        }
    }

    fn update_load_batch(&mut self, updates: &[(TenantId, f64)]) -> Result<Vec<LoadUpdateOutcome>> {
        match self.names.batches {
            Some([_, _, name]) => {
                let _span = trace::enter(name);
                self.inner.update_load_batch(updates)
            }
            None => updates.iter().map(|(tenant, load)| self.update_load(*tenant, *load)).collect(),
        }
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let _span = trace::enter(self.names.migrate);
        self.inner.migrate(tenant, from, to)
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(Timed { inner: self.inner.clone_box(), names: self.names })
    }

    fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    fn gamma(&self) -> usize {
        self.inner.gamma()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}
