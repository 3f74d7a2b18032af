//! `churn`: a large prefilled population under a closed loop of balanced
//! arrivals and departures, downward load re-estimates, a server failure
//! followed by `recover`, and a defragmentation.
//!
//! The timed phase repeats one round from the same prefilled state: a
//! fresh copy of it takes [`CLIENT_OPS`] client mutations in a seeded
//! order, then one failure event (1 to γ−1 open servers fail at once,
//! then one `recover` call), then one defrag `plan` and `apply`. Every
//! round must answer exactly as round 0 did. Outside the timed phase, the
//! benchmark's model takes in round 0's results and the checker runs
//! after each step of round 0, after every `recover`, and after the last
//! round.
//!
//! The round is repeated from one state, rather than the population left
//! to evolve, for two reasons. Every round then does the same work, so
//! the fastest run of each timed segment can be taken over the rounds
//! (see [`SegmentBest`]). And the defrag plan always sees that one state:
//! on an evolving population a later plan can find no bin left whose
//! replicas fit the remaining move budget exactly, and then tries every
//! open bin, at a cost cubic in their number (one plan took 114 s after
//! 14 rounds at seed 1), which no run length can absorb.

use crate::checker::{self, Model};
use crate::phase::{self, Rounds, SegmentBest, SetupTimes};
use crate::population::Population;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::Latencies;
use crate::timed::{Timed, ALGORITHM};
use crate::{trace, Ctx};
use cubefit_core::{BinId, Consolidator, CubeFit, CubeFitConfig, PlacementStage, Tenant, TenantId};
use cubefit_defrag::MigrationBudget;
use cubefit_telemetry::Recorder;
use cubefit_workload::{LoadModel, SequenceBuilder, ZipfClients};
use std::time::{Duration, Instant};

pub const GAMMA: usize = 3;
pub const CLASSES: usize = 10;
pub const ZIPF_EXPONENT: f64 = 3.0;
/// Tenants placed before the timed phase; the population stays at this
/// size at every round boundary.
pub const POPULATION: usize = 100_000;
/// Client mutations per round: arrivals, departures, load re-estimates.
pub const ARRIVALS: usize = 4_500;
pub const DEPARTURES: usize = 4_500;
pub const LOWERINGS: usize = 1_000;
pub const CLIENT_OPS: usize = ARRIVALS + DEPARTURES + LOWERINGS;
/// Replica moves one defrag plan may make.
pub const DEFRAG_MOVES: usize = 50;
/// Client mutations per timed segment (see [`SegmentBest`]).
pub const SEGMENT: usize = 1_000;
/// A run repeats the round at least this many times, however short
/// `--seconds`.
pub const MIN_ROUNDS: u64 = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Arrive(Tenant),
    Depart(TenantId),
    Lower(TenantId, f64),
}

fn arrivals(seed: u64, first_id: u64, count: usize) -> Vec<Tenant> {
    let model = LoadModel::tpch_xeon();
    SequenceBuilder::new(ZipfClients::new(ZIPF_EXPONENT, model.max_clients()), model)
        .count(count)
        .seed(seed)
        .first_id(first_id)
        .build()
        .tenants()
        .collect()
}

/// The client operations of a round, in order, as a seeded function of
/// the population the round starts from.
fn client_ops(rng: &mut Rng, seed: u64, next_id: &mut u64, expected: &mut Population) -> Vec<Op> {
    #[derive(Clone, Copy)]
    enum Kind {
        Arrive,
        Depart,
        Lower,
    }
    let mut kinds: Vec<Kind> = [Kind::Arrive; ARRIVALS]
        .into_iter()
        .chain([Kind::Depart; DEPARTURES])
        .chain([Kind::Lower; LOWERINGS])
        .collect();
    rng.shuffle(&mut kinds);
    let mut incoming =
        arrivals(seed.wrapping_add(1).wrapping_mul(0x2545_f491), *next_id, ARRIVALS).into_iter();
    *next_id += ARRIVALS as u64;
    kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Arrive => {
                let tenant = incoming.next().expect("one arrival per arrival slot");
                expected.arrive(&tenant);
                Op::Arrive(tenant)
            }
            Kind::Depart => Op::Depart(expected.depart(rng)),
            Kind::Lower => {
                let (id, load) = expected.lower(rng);
                Op::Lower(id, load)
            }
        })
        .collect()
}

/// Up to γ−1 distinct open servers, chosen from the model.
fn victims(rng: &mut Rng, model: &Model, servers: usize) -> Vec<usize> {
    let open: Vec<usize> = model
        .levels(servers)
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0.0)
        .map(|(s, _)| s)
        .collect();
    let count = 1 + rng.below(GAMMA - 1);
    let mut chosen = Vec::with_capacity(count);
    while chosen.len() < count.min(open.len()) {
        let s = open[rng.below(open.len())];
        if !chosen.contains(&s) {
            chosen.push(s);
        }
    }
    chosen
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let config = CubeFitConfig::builder()
        .replication(GAMMA)
        .classes(CLASSES)
        .build()
        .map_err(|e| e.to_string())?;

    let mut setups = SetupTimes::default();
    let (snapshot, start, mut expected) = phase::repeated_setup(ctx, &mut setups, || {
        let (tenants, gen_s) = phase::timed(|| {
            let _span = trace::enter("workload.generate");
            arrivals(ctx.seed, 0, POPULATION)
        });
        let (prefilled, prefill_s) = phase::timed(|| {
            let _span = trace::enter("workload.prefill");
            let mut cubefit = CubeFit::new(config);
            let mut outcomes = Vec::with_capacity(tenants.len());
            for tenant in &tenants {
                outcomes.push(cubefit.place(*tenant).map_err(|e| format!("prefill: {e}"))?);
            }
            Ok::<_, String>((cubefit, outcomes))
        });
        let (cubefit, outcomes) = prefilled?;
        let mut model = Model::new(GAMMA);
        for (tenant, outcome) in tenants.iter().zip(outcomes) {
            model.insert(
                tenant.id().get(),
                tenant.load().get(),
                outcome.bins.iter().map(|b| b.index()).collect(),
            );
        }
        let expected = Population::new(&tenants);
        let timings = vec![("workload.gen_s", gen_s), ("workload.prefill_s", prefill_s)];
        Ok(((cubefit, model, expected), timings))
    })?;
    checker::check(&start, snapshot.placement(), &[]).map_err(|e| format!("after prefill: {e}"))?;

    let mut rng = Rng::new(ctx.seed);
    let mut next_id = POPULATION as u64;
    let ops = client_ops(&mut rng, ctx.seed, &mut next_id, &mut expected);
    // What round 0 did, which every later round must repeat exactly.
    let mut first: Option<FirstRound> = None;
    let mut latencies = Latencies::with_capacity(CLIENT_OPS + 2);
    let mut fastest = Latencies::default();
    let mut segments = SegmentBest::default();
    let mut rounds = Rounds::default();
    let mut checks = 1u64;
    let mut last = None;
    while rounds.count < MIN_ROUNDS || rounds.elapsed() < ctx.seconds {
        drop(last.take());
        let index = rounds.count;
        let traced = ctx.traced_round(index);
        let mut cubefit = Timed::new(Box::new(snapshot.clone()), &ALGORITHM);

        // Client mutations, in segments.
        let mut placed: Vec<(Vec<usize>, PlacementStage, usize)> = Vec::with_capacity(ARRIVALS);
        trace::set_active(traced);
        let span = trace::enter("bench.round");
        let mut client_elapsed = Duration::ZERO;
        for (position, segment) in ops.chunks(SEGMENT).enumerate() {
            let segment_start = Instant::now();
            for (offset, op) in segment.iter().enumerate() {
                if traced {
                    trace::set_op(index * 1_000_000 + (position * SEGMENT + offset) as u64);
                }
                let t0 = Instant::now();
                match *op {
                    Op::Arrive(tenant) => {
                        let outcome = cubefit.place(tenant).map_err(|e| format!("place: {e}"))?;
                        latencies.push(t0.elapsed());
                        if outcome.tenant != tenant.id() {
                            return Err(format!(
                                "placing {:?} placed {:?}",
                                tenant.id(),
                                outcome.tenant
                            ));
                        }
                        placed.push((
                            outcome.bins.iter().map(|b| b.index()).collect(),
                            outcome.stage,
                            outcome.opened,
                        ));
                    }
                    Op::Depart(id) => {
                        let outcome = cubefit.remove(id).map_err(|e| format!("remove: {e}"))?;
                        latencies.push(t0.elapsed());
                        if outcome.tenant != id {
                            return Err(format!("removing {id:?} removed {:?}", outcome.tenant));
                        }
                    }
                    Op::Lower(id, load) => {
                        let outcome = cubefit
                            .update_load(id, load)
                            .map_err(|e| format!("update_load: {e}"))?;
                        latencies.push(t0.elapsed());
                        if outcome.new_load != load {
                            return Err(format!(
                                "{id:?} re-estimated to {} not {load}",
                                outcome.new_load
                            ));
                        }
                    }
                }
            }
            let took = segment_start.elapsed();
            client_elapsed += took;
            segments.add(position, took);
        }
        rounds.add(traced, client_elapsed, CLIENT_OPS as u64);
        drop(span);
        trace::set_active(false);

        if first.is_none() {
            // The model takes in round 0's results, outside the timed
            // phase, and fixes the failure victims of every round.
            let mut model = start.clone();
            let mut answers = placed.iter();
            for op in &ops {
                match *op {
                    Op::Arrive(tenant) => {
                        let (servers, _, _) = answers.next().ok_or("an arrival went missing")?;
                        model.insert(tenant.id().get(), tenant.load().get(), servers.clone());
                    }
                    Op::Depart(id) => {
                        model.remove(id.get()).ok_or_else(|| format!("{id:?} was not live"))?;
                    }
                    Op::Lower(id, load) => {
                        if !model.set_load(id.get(), load) {
                            return Err(format!("{id:?} was not live"));
                        }
                    }
                }
            }
            checker::check(&model, cubefit.placement(), &[])
                .map_err(|e| format!("after the client operations: {e}"))?;
            checks += 1;
            let failed = victims(&mut rng, &model, cubefit.placement().created_bins());
            first = Some(FirstRound {
                placed: placed.clone(),
                failed,
                after_clients: model,
                ..FirstRound::default()
            });
        }
        let round = first.as_mut().ok_or("round 0 left no record")?;
        if placed != round.placed {
            return Err(format!("round {index} placed differently from round 0"));
        }

        // One failure event: up to γ−1 open servers fail together.
        let failed_bins: Vec<BinId> = round.failed.iter().map(|&s| BinId::new(s)).collect();
        trace::set_active(traced);
        let span = trace::enter("bench.round");
        let t0 = Instant::now();
        let recovery = cubefit.recover(&failed_bins).map_err(|e| format!("recover: {e}"))?;
        let took = t0.elapsed();
        drop(span);
        trace::set_active(false);
        rounds.add_other(took, 1);
        latencies.push(took);
        segments.add(ops.len().div_ceil(SEGMENT), took);
        if index == 0 {
            let mut model = round.after_clients.clone();
            for tenant in model.tenants_on(&round.failed) {
                if !model.refresh_servers(tenant, cubefit.placement()) {
                    return Err(format!("tenant {tenant} vanished during recovery"));
                }
            }
            round.after_recover = model;
            round.recovery = (recovery.replicas_migrated, recovery.bins_opened);
        } else if (recovery.replicas_migrated, recovery.bins_opened) != round.recovery {
            return Err(format!("round {index} recovered differently from round 0"));
        }
        checker::check(&round.after_recover, cubefit.placement(), &round.failed)
            .map_err(|e| format!("after recover in round {index}: {e}"))?;
        checks += 1;

        // Defragmentation.
        trace::set_active(traced);
        let span = trace::enter("bench.round");
        let t0 = Instant::now();
        let plan = {
            let _span = trace::enter("defrag.plan");
            cubefit_defrag::plan(cubefit.placement(), MigrationBudget::moves(DEFRAG_MOVES))
        };
        let outcome = {
            let _span = trace::enter("defrag.apply");
            cubefit_defrag::apply(&mut cubefit, &plan, &Recorder::disabled())
                .map_err(|e| format!("defrag apply: {e}"))?
        };
        let took = t0.elapsed();
        drop(span);
        trace::set_active(false);
        rounds.add_other(took, 1);
        latencies.push(took);
        segments.add(ops.len().div_ceil(SEGMENT) + 1, took);
        let steps: Vec<(u64, usize, usize)> = plan
            .steps
            .iter()
            .filter(|_| !outcome.aborted)
            .map(|step| (step.tenant.get(), step.from.index(), step.to.index()))
            .collect();
        if index == 0 {
            let mut model = round.after_recover.clone();
            for &(tenant, from, to) in &steps {
                if !model.move_replica(tenant, from, to) {
                    return Err(format!("defrag moved {tenant} off a server it was not on"));
                }
            }
            checker::check(&model, cubefit.placement(), &[])
                .map_err(|e| format!("after defrag: {e}"))?;
            checks += 1;
            round.after_defrag = model;
            round.defrag = (steps, outcome.applied_steps, outcome.servers_closed);
        } else if (&steps, outcome.applied_steps, outcome.servers_closed)
            != (&round.defrag.0, round.defrag.1, round.defrag.2)
        {
            return Err(format!("round {index} defragmented differently from round 0"));
        }
        rounds.end_round();
        fastest.keep_min(&latencies);
        latencies.clear();
        last = Some(cubefit);
    }

    let round = first.ok_or("no round ran")?;
    let cubefit = last.ok_or("no round ran")?;
    let checked = checker::check(&round.after_defrag, cubefit.placement(), &[])
        .map_err(|e| format!("after the last round: {e}"))?;
    checks += 1;
    if checked.tenants != POPULATION {
        return Err(format!("population drifted to {}", checked.tenants));
    }
    println!(
        "churn: {} rounds, {} operations, {checks} checks passed; final: {} tenants on {} servers \
         (lower bound {})",
        rounds.count,
        rounds.ops(),
        checked.tenants,
        checked.servers_used,
        checked.servers_lower_bound
    );

    report.attempted = rounds.ops();
    report.failed = 0;
    setups.report(&mut report);
    report.set("ops_per_s", (CLIENT_OPS + 2) as f64 / segments.total_s());
    phase::report_fastest_latencies(&fastest, &mut report);
    report.set("servers_used", checked.servers_used as f64);
    let stage1 = round.placed.iter().filter(|p| p.1 == PlacementStage::MatureFit).count();
    report.set("cubefit.stage1_count", stage1 as f64);
    report.set("cubefit.bins_opened", round.placed.iter().map(|p| p.2).sum::<usize>() as f64);
    report.set("recovery.replicas_moved", round.recovery.0 as f64);
    report.set("recovery.bins_opened", round.recovery.1 as f64);
    report.set("defrag.moves", round.defrag.1 as f64);
    report.set("defrag.servers_closed", round.defrag.2 as f64);
    if ctx.trace {
        phase::finish_trace(ctx, &mut report, &rounds)?;
    }
    Ok(report)
}

/// Round 0's answers and the model after each of its steps.
#[derive(Debug, Default)]
struct FirstRound {
    placed: Vec<(Vec<usize>, PlacementStage, usize)>,
    failed: Vec<usize>,
    after_clients: Model,
    after_recover: Model,
    after_defrag: Model,
    /// Replicas migrated and servers opened by the `recover` call.
    recovery: (usize, usize),
    /// The applied (tenant, from, to) moves, the steps applied and the
    /// servers closed.
    defrag: (Vec<(u64, usize, usize)>, usize, usize),
}
