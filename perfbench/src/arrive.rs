//! `arrive`: paper §V.C online placement into an empty system. Every
//! round places the same seeded sequence into a fresh CubeFit, one
//! closed-loop `place` call at a time.

use crate::checker::{self, Model};
use crate::phase::{self, Rounds, SegmentBest, SetupTimes};
use crate::report::Report;
use crate::stats::Latencies;
use crate::timed::{Timed, ALGORITHM};
use crate::{trace, Ctx};
use cubefit_core::{
    Consolidator, CubeFit, CubeFitConfig, PlacementOutcome, PlacementStage, Tenant,
};
use cubefit_workload::{LoadModel, SequenceBuilder, UniformClients};
use std::hash::{Hash, Hasher};
use std::time::Instant;

pub const GAMMA: usize = 2;
pub const CLASSES: usize = 10;
/// Tenants placed per round.
pub const TENANTS: usize = 100_000;
/// Placements per timed segment of a round (see [`SegmentBest`]).
pub const SEGMENT: usize = 5_000;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let config = CubeFitConfig::builder()
        .replication(GAMMA)
        .classes(CLASSES)
        .build()
        .map_err(|e| e.to_string())?;
    // Each round generates its inputs afresh, so that set-ups are timed
    // all through the run.
    let generate = || {
        let _span = trace::enter("workload.generate");
        let (tenants, gen_s) = phase::timed(|| {
            SequenceBuilder::new(UniformClients::new(1, 15), LoadModel::tpch_xeon())
                .count(TENANTS)
                .seed(ctx.seed)
                .build()
                .tenants()
                .collect::<Vec<Tenant>>()
        });
        Ok((tenants, vec![("workload.gen_s", gen_s), ("workload.prefill_s", 0.0)]))
    };
    let mut setups = SetupTimes::default();
    let mut input = Some(phase::repeated_setup(ctx, &mut setups, generate)?);

    let mut latencies = Latencies::with_capacity(TENANTS);
    let mut fastest = Latencies::default();
    let mut segments = SegmentBest::default();
    let mut rounds = Rounds::default();
    let mut first_round: Option<u64> = None;
    let mut last = None;
    while rounds.count == 0 || rounds.elapsed() < ctx.seconds {
        // The previous round is dropped first, so that only one placement
        // is ever alive and the peak memory does not depend on timing.
        drop(last.take());
        let tenants = match input.take() {
            Some(tenants) => tenants,
            None => setups.run(generate)?,
        };
        let traced = ctx.traced_round(rounds.count);
        let mut cubefit = Timed::new(Box::new(CubeFit::new(config)), &ALGORITHM);
        let mut outcomes: Vec<PlacementOutcome> = Vec::with_capacity(TENANTS);
        trace::set_active(traced);
        let start = Instant::now();
        {
            let _round = trace::enter("bench.round");
            for (position, segment) in tenants.chunks(SEGMENT).enumerate() {
                let segment_start = Instant::now();
                for (offset, tenant) in segment.iter().enumerate() {
                    if traced {
                        trace::set_op((position * SEGMENT + offset) as u64);
                    }
                    let t0 = Instant::now();
                    let outcome = cubefit.place(*tenant).map_err(|e| format!("place: {e}"))?;
                    latencies.push(t0.elapsed());
                    outcomes.push(outcome);
                }
                segments.add(position, segment_start.elapsed());
            }
        }
        let elapsed = start.elapsed();
        trace::set_active(false);
        rounds.add(traced, elapsed, TENANTS as u64);
        rounds.end_round();
        fastest.keep_min(&latencies);
        latencies.clear();

        // Same inputs into a fresh CubeFit must give the same decisions.
        let signature = signature(&outcomes, cubefit.placement().open_bins());
        match first_round {
            None => {
                first_round = Some(signature);
                report.set(
                    "cubefit.stage1_count",
                    outcomes.iter().filter(|o| o.stage == PlacementStage::MatureFit).count() as f64,
                );
                report.set(
                    "cubefit.bins_opened",
                    outcomes.iter().map(|o| o.opened).sum::<usize>() as f64,
                );
            }
            Some(first) if first != signature => {
                return Err(format!("round {} placed differently from round 0", rounds.count - 1));
            }
            Some(_) => {}
        }
        last = Some((cubefit, outcomes, tenants));
    }

    let (cubefit, outcomes, tenants) = last.ok_or("no round ran")?;
    let mut model = Model::new(GAMMA);
    for (tenant, outcome) in tenants.iter().zip(&outcomes) {
        if outcome.tenant != tenant.id() {
            return Err(format!("outcome for {:?} answers {:?}", tenant.id(), outcome.tenant));
        }
        model.insert(
            tenant.id().get(),
            tenant.load().get(),
            outcome.bins.iter().map(|b| b.index()).collect(),
        );
    }
    let checked = checker::check(&model, cubefit.placement(), &[])?;
    println!(
        "arrive: {} rounds of {TENANTS} placements; last round checked: {} tenants on {} servers \
         (lower bound {})",
        rounds.count, checked.tenants, checked.servers_used, checked.servers_lower_bound
    );

    report.attempted = rounds.ops();
    report.failed = 0;
    setups.report(&mut report);
    report.set("ops_per_s", TENANTS as f64 / segments.total_s());
    phase::report_fastest_latencies(&fastest, &mut report);
    report.set("servers_used", checked.servers_used as f64);
    if ctx.trace {
        phase::finish_trace(ctx, &mut report, &rounds)?;
    }
    Ok(report)
}

fn signature(outcomes: &[PlacementOutcome], open_bins: usize) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    open_bins.hash(&mut hasher);
    for outcome in outcomes {
        outcome.tenant.get().hash(&mut hasher);
        outcome.opened.hash(&mut hasher);
        for bin in &outcome.bins {
            bin.index().hash(&mut hasher);
        }
    }
    hasher.finish()
}
