//! `serve`: the journaled placement service under an open loop of
//! Poisson arrivals at a fixed rate.
//!
//! The stack is built from the outside in: `PlacementService` over a
//! timing wrapper over `JournaledConsolidator` over a timing wrapper over
//! CubeFit, so the journal's time is the outer call minus the inner one
//! and the service's own time (dequeue, oracle audit) is `start_batch`
//! minus the journaled call. The benchmark takes the journal's
//! checkpoints itself, every [`CHECKPOINT_EVERY_MS`] of the round, between
//! two batches. Each request is timed from when it was due to the return
//! of the `complete_batch` call that acknowledged it.
//!
//! The timed phase repeats rounds of [`ROUND_SECONDS`]: each replays the
//! same schedule into a fresh service over the same prefilled population
//! and an empty journal. After each round the journal is sealed and
//! recovered, and the recovered placement must serialize byte for byte
//! like the live one.

use crate::checker::{self, Model};
use crate::phase::{self, Rounds, SetupTimes, Timings};
use crate::population::Population;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, p99, quantile};
use crate::timed::{Timed, ALGORITHM, JOURNAL};
use crate::{trace, Ctx};
use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Placement, Tenant, TenantId};
use cubefit_durability::{FsyncPolicy, Journal, JournaledConsolidator};
use cubefit_service::{LimiterSpec, PlacementService, Request, ServiceConfig};
use cubefit_telemetry::Recorder;
use cubefit_workload::{LoadModel, SequenceBuilder, UniformClients};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const GAMMA: usize = 2;
pub const CLASSES: usize = 10;
/// Tenants placed before the service starts.
pub const POPULATION: usize = 10_000;
/// Offered requests per second.
pub const RATE: f64 = 1000.0;
/// Admission limit and queue capacity: four seconds of requests.
pub const QUEUE: usize = 4_096;
/// The benchmark checkpoints the journal after the first batch to end
/// past each multiple of this many milliseconds of the round, so that the
/// checkpoints delay about the same requests in every round.
pub const CHECKPOINT_EVERY_MS: f64 = 125.0;
/// Appends are fsynced every this many frames; checkpoints and the seal
/// always fsync.
pub const FSYNC_EVERY: u64 = 64;
/// Seconds of requests in one round. Every round offers the same
/// schedule to a fresh service over the same prefilled population.
pub const ROUND_SECONDS: f64 = 2.0;
/// A run serves at least this many rounds, however short `--seconds`.
pub const MIN_ROUNDS: u64 = 2;

/// Shares of the request mix: place, remove, the rest lower a load.
const PLACE_SHARE: f64 = 0.4;
const REMOVE_SHARE: f64 = 0.4;

/// The service configuration: the defaults, with a fixed admission
/// limit, a queue, an SLO and a deadline wide enough that a stall of a
/// second on a busy machine neither sheds nor moves the audit ladder at
/// [`RATE`]. (An adaptive limiter starting at 130 sheds after a stall of
/// 130 ms, and a shed place fails the later requests for its tenant.)
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        limiter: LimiterSpec::Fixed { limit: QUEUE },
        queue_capacity: QUEUE,
        batch_max: 16,
        deadline_ms: 5_000.0,
        slo_p99_ms: 1_000.0,
        ..ServiceConfig::default()
    }
}

struct Scheduled {
    due_ms: f64,
    request: Request,
}

/// The requests of one run: `rate × seconds` Poisson arrivals over
/// `seconds` (uniform arrival times, sorted: a Poisson process given its
/// count, so every seed offers the same number of requests), each a
/// seeded choice over the population expected at that point.
fn schedule(seed: u64, rate: f64, seconds: f64, expected: &mut Population) -> Vec<Scheduled> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let count = (rate * seconds).round() as usize;
    let mut due_ms: Vec<f64> = (0..count).map(|_| rng.unit() * seconds * 1e3).collect();
    due_ms.sort_unstable_by(f64::total_cmp);
    let mut fresh = tenants(seed.wrapping_add(1), POPULATION as u64, count).into_iter();
    due_ms
        .into_iter()
        .map(|due_ms| {
            let pick = rng.unit();
            let request = if pick < PLACE_SHARE || expected.is_empty() {
                let tenant = fresh.next().expect("one fresh tenant per request at most");
                expected.arrive(&tenant);
                Request::Place(tenant)
            } else if pick < PLACE_SHARE + REMOVE_SHARE {
                Request::Remove(expected.depart(&mut rng))
            } else {
                let (id, load) = expected.lower(&mut rng);
                Request::UpdateLoad(id, load)
            };
            Scheduled { due_ms, request }
        })
        .collect()
}

fn tenants(seed: u64, first_id: u64, count: usize) -> Vec<Tenant> {
    SequenceBuilder::new(UniformClients::new(1, 15), LoadModel::tpch_xeon())
        .count(count)
        .seed(seed)
        .first_id(first_id)
        .build()
        .tenants()
        .collect()
}

struct Setup {
    service: PlacementService,
    journal: Journal,
    requests: Vec<Scheduled>,
    expected: Population,
}

fn journal_dir(ctx: &Ctx) -> PathBuf {
    ctx.work_dir.join(format!("perfbench-journal-{}-{}", ctx.workload, std::process::id()))
}

/// Removes the journal directory when the run ends, however it ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(ctx: &Ctx, dir: &Path) -> Result<(Setup, Timings), String> {
    let config = CubeFitConfig::builder()
        .replication(GAMMA)
        .classes(CLASSES)
        .build()
        .map_err(|e| e.to_string())?;
    let ((prefill, requests, expected), gen_s) = phase::timed(|| {
        let _span = trace::enter("workload.generate");
        let prefill = tenants(ctx.seed, 0, POPULATION);
        let mut expected = Population::new(&prefill);
        let requests = schedule(ctx.seed, RATE, ROUND_SECONDS, &mut expected);
        (prefill, requests, expected)
    });
    let (built, prefill_s) = phase::timed(|| {
        let _span = trace::enter("workload.prefill");
        let mut cubefit = CubeFit::new(config);
        for tenant in &prefill {
            cubefit.place(*tenant).map_err(|e| format!("prefill: {e}"))?;
        }
        let journal = Journal::create(dir, GAMMA, FsyncPolicy::Interval(FSYNC_EVERY))
            .map_err(|e| format!("journal: {e}"))?;
        journal.checkpoint(cubefit.placement()).map_err(|e| format!("checkpoint: {e}"))?;
        let inner = Timed::new(Box::new(cubefit), &ALGORITHM);
        let journaled = JournaledConsolidator::new(Box::new(inner), journal.clone());
        let outer = Timed::new(Box::new(journaled), &JOURNAL);
        let service =
            PlacementService::new(Box::new(outer), service_config(), Recorder::disabled())?;
        Ok::<_, String>((service, journal))
    });
    let (service, journal) = built?;
    let timings = vec![("workload.gen_s", gen_s), ("workload.prefill_s", prefill_s)];
    Ok((Setup { service, journal, requests, expected }, timings))
}

/// The benchmark's model of the final population: its own expected ids
/// and loads, on the servers the program reports.
fn model_of(expected: &Population, placement: &Placement) -> Result<Model, String> {
    let mut model = Model::new(GAMMA);
    for (&id, &load) in expected.loads() {
        let bins = placement
            .tenant_bins(TenantId::new(id))
            .ok_or_else(|| format!("tenant {id} is not placed"))?;
        model.insert(id, load, bins.iter().map(|b| b.index()).collect());
    }
    Ok(model)
}

/// What the rounds of a run observed, for the per-layer metrics.
#[derive(Debug, Default)]
struct Observed {
    queue_wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    frames_replayed: Vec<f64>,
    ops_per_s: Vec<f64>,
    bins_walked: u64,
    audits: u64,
    batches: u64,
    completed: u64,
    appended_bytes: u64,
    ladder_moves: u64,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = journal_dir(ctx);
    let _cleanup = Cleanup(dir.clone());
    let mut setups = SetupTimes::default();
    let mut first = Some(phase::repeated_setup(ctx, &mut setups, || setup(ctx, &dir))?);

    let mut observed = Observed::default();
    let mut batches = Rounds::default();
    // Each request's fastest latency over the rounds, which all offer the
    // same schedule (see `phase::SegmentBest` for why the fastest).
    let mut fastest: Vec<f64> = Vec::new();
    let mut rounds = 0u64;
    let mut offered = 0u64;
    let mut rejected = 0u64;
    let mut timed = Duration::ZERO;
    let mut servers_used = 0;
    while rounds < MIN_ROUNDS || timed < ctx.seconds {
        // Every round after the first starts from a fresh set-up: the same
        // population, schedule and an empty journal.
        let state = match first.take() {
            Some(state) => state,
            None => setups.run(|| setup(ctx, &dir))?,
        };
        let start = Instant::now();
        let end = serve_round(ctx, state, &mut batches, &mut observed)?;
        timed += start.elapsed();
        let stats = end.service.stats();
        offered += stats.offered;
        rejected += stats.rejected();
        servers_used = check_round(ctx, &end, &dir, rounds, &mut observed)?;

        if fastest.is_empty() {
            fastest.clone_from(&end.latencies);
        }
        for (kept, &latency_ms) in fastest.iter_mut().zip(&end.latencies) {
            *kept = kept.min(latency_ms);
        }
        rounds += 1;
    }

    report.attempted = offered;
    report.failed = rejected;
    setups.report(&mut report);
    report.set("ops_per_s", median(&observed.ops_per_s));
    report.set("lat_p50_ms", median(&fastest));
    report.set("lat_p90_ms", quantile(&fastest, 0.9));
    report.set("servers_used", servers_used as f64);
    let per_round = |total: u64| total as f64 / rounds as f64;
    report.set("oracle.audits", per_round(observed.audits));
    report.set("oracle.bins_walked", per_round(observed.bins_walked));
    report.set(
        "journal.bytes_per_op",
        observed.appended_bytes as f64 / observed.completed.max(1) as f64,
    );
    report.set("journal.checkpoint_ms_p50", median(&observed.checkpoint_ms));
    report.set("restart.restart_ms", median(&observed.restart_ms));
    report.set("restart.frames_replayed", median(&observed.frames_replayed));
    report.set("service.batch_ms_p50", median(&observed.batch_ms));
    report.set("service.batch_ms_p99", p99(&observed.batch_ms));
    report.set("service.queue_wait_ms_p50", median(&observed.queue_wait_ms));
    report.set("service.queue_wait_ms_p99", p99(&observed.queue_wait_ms));
    report
        .set("service.batch_size_mean", observed.completed as f64 / observed.batches.max(1) as f64);
    report.set("service.ladder_moves", observed.ladder_moves as f64);
    report.set("generator.late_ms_p99", p99(&observed.late_ms));
    if ctx.trace {
        phase::finish_trace(ctx, &mut report, &batches)?;
    }
    Ok(report)
}

/// The state one round leaves, for its checks.
struct RoundEnd {
    service: PlacementService,
    journal: Journal,
    expected: Population,
    scheduled: usize,
    /// The latency of each scheduled request, in schedule order, in
    /// milliseconds (infinite for a request that did not complete).
    latencies: Vec<f64>,
}

/// Drives one round's schedule through the service, open loop.
fn serve_round(
    ctx: &Ctx,
    state: Setup,
    batches: &mut Rounds,
    observed: &mut Observed,
) -> Result<RoundEnd, String> {
    let Setup { mut service, journal, requests, expected } = state;
    let epoch = Instant::now();
    let now_ms = || epoch.elapsed().as_secs_f64() * 1e3;
    // Schedule index and due time of each admitted request, by id.
    let mut due_of: Vec<(usize, f64)> = Vec::with_capacity(requests.len());
    let mut latencies = vec![f64::INFINITY; requests.len()];
    let mut next_checkpoint_ms = CHECKPOINT_EVERY_MS;
    let mut next = 0;
    let mut last_ack = 0.0;
    loop {
        let traced = ctx.traced_round(batches.count);
        if next < requests.len() && requests[next].due_ms <= now_ms() {
            trace::set_active(traced);
            let offers = trace::enter("generator.offer");
            while next < requests.len() && requests[next].due_ms <= now_ms() {
                let due = requests[next].due_ms;
                observed.late_ms.push(now_ms() - due);
                let offered = {
                    let _span = trace::enter("service.offer");
                    service.offer(requests[next].request.clone(), due)
                };
                if let Ok(id) = offered {
                    if id != due_of.len() as u64 {
                        return Err(format!(
                            "service answered id {id} for request {}",
                            due_of.len()
                        ));
                    }
                    due_of.push((next, due));
                }
                next += 1;
            }
            drop(offers);
            trace::set_active(false);
        }
        if service.queue_depth() > 0 {
            trace::set_active(traced);
            trace::set_op(batches.count);
            let span = trace::enter("bench.batch");
            let start = Instant::now();
            let started_ms = now_ms();
            let work = {
                let span = trace::enter("service.start_batch");
                let work =
                    service.start_batch(started_ms).map_err(|e| format!("start_batch: {e}"))?;
                if work.audited_bins > 0 {
                    span.rename("oracle.start_batch");
                }
                work
            };
            if work.ops == 0 {
                drop(span);
                trace::set_active(false);
                continue;
            }
            let completed = {
                let _span = trace::enter("service.complete_batch");
                service.complete_batch(now_ms())
            };
            let acked_ms = now_ms();
            let elapsed = start.elapsed();
            drop(span);
            trace::set_active(false);
            batches.add(traced, elapsed, work.ops as u64);
            observed.batch_ms.push(elapsed.as_secs_f64() * 1e3);
            observed.bins_walked += work.audited_bins as u64;
            last_ack = acked_ms;
            for op in completed {
                let (index, due) = due_of[op.id as usize];
                latencies[index] = acked_ms - due;
                observed.queue_wait_ms.push(started_ms - due);
            }
            batches.end_round();
            if acked_ms >= next_checkpoint_ms {
                while next_checkpoint_ms <= acked_ms {
                    next_checkpoint_ms += CHECKPOINT_EVERY_MS;
                }
                trace::set_active(traced);
                let (checkpointed, took) = {
                    let _root = trace::enter("bench.batch");
                    let _span = trace::enter("journal.checkpoint");
                    let t0 = Instant::now();
                    (journal.checkpoint(service.consolidator().placement()), t0.elapsed())
                };
                trace::set_active(false);
                checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
                batches.add_other(took, 0);
                observed.checkpoint_ms.push(took.as_secs_f64() * 1e3);
            }
            continue;
        }
        if next == requests.len() {
            break;
        }
        // Idle until the next request is due: sleep through most of the
        // gap, spin through the last two milliseconds (a sleep can
        // overshoot by that much).
        let gap = requests[next].due_ms - now_ms();
        if gap > 3.0 {
            std::thread::sleep(Duration::from_secs_f64((gap - 2.0) / 1e3));
        } else {
            std::hint::spin_loop();
        }
    }
    let completed = service.stats().completed;
    observed.ops_per_s.push(completed as f64 / (last_ack / 1e3));
    Ok(RoundEnd { service, journal, expected, scheduled: requests.len(), latencies })
}

/// Checks the end of round `round`: the service's accounting, every
/// request completed, the live placement, and a restart from the sealed
/// journal that must reproduce it byte for byte. Returns the servers used.
fn check_round(
    ctx: &Ctx,
    end: &RoundEnd,
    dir: &Path,
    round: u64,
    observed: &mut Observed,
) -> Result<usize, String> {
    let RoundEnd { service, journal, expected, scheduled, .. } = end;
    let stats = service.stats();
    println!(
        "{} round {round}: offered={} completed={} shed={} queue_full={} deadline_expired={} \
         pending={} batches={} audits={} divergences={} ladder_down={} ladder_up={}",
        ctx.workload,
        stats.offered,
        stats.completed,
        stats.shed,
        stats.queue_full,
        stats.deadline_expired,
        service.pending(),
        stats.batches,
        stats.audits,
        stats.audit_divergences,
        stats.ladder_down,
        stats.ladder_up
    );
    if !service.accounting_balanced()
        || stats.offered != stats.completed + stats.rejected() + service.pending()
    {
        return Err("service accounting does not balance".to_owned());
    }
    if stats.offered != *scheduled as u64 || stats.completed != stats.offered {
        return Err(format!(
            "{scheduled} requests scheduled, {} offered, {} completed: every offered request \
             must complete",
            stats.offered, stats.completed
        ));
    }
    if stats.audit_divergences > 0 {
        return Err(format!("{} oracle divergences", stats.audit_divergences));
    }
    observed.audits += stats.audits;
    observed.batches += stats.batches;
    observed.completed += stats.completed;
    observed.appended_bytes += journal.appended_bytes();
    observed.ladder_moves += stats.ladder_down + stats.ladder_up;

    let live = model_of(expected, service.consolidator().placement())?;
    let checked = checker::check(&live, service.consolidator().placement(), &[])
        .map_err(|e| format!("live placement: {e}"))?;

    // Restart: seal, recover, and compare with the live service.
    journal.seal().map_err(|e| format!("seal: {e}"))?;
    trace::set_active(ctx.trace);
    let root = trace::enter("bench.restart");
    let (recovered, restart_s) = phase::timed(|| {
        let _span = trace::enter("restart.recover");
        cubefit_durability::recover(dir)
    });
    drop(root);
    trace::set_active(false);
    let recovered = recovered.map_err(|e| format!("restart: {e}"))?;
    let live_dump = serde_json::to_string(&service.dump()).map_err(|e| e.to_string())?;
    let recovered_dump = serde_json::to_string(&recovered.dump()).map_err(|e| e.to_string())?;
    if live_dump != recovered_dump {
        return Err("the recovered placement differs from the live one".to_owned());
    }
    checker::check(&live, &recovered.placement, &[]).map_err(|e| format!("recovered: {e}"))?;
    println!(
        "{} round {round}: {} tenants on {} servers (lower bound {}); restart replayed {} \
         frames, dump identical ({} bytes)",
        ctx.workload,
        checked.tenants,
        checked.servers_used,
        checked.servers_lower_bound,
        recovered.frames_replayed,
        live_dump.len()
    );
    observed.restart_ms.push(restart_s * 1e3);
    observed.frames_replayed.push(recovered.frames_replayed as f64);
    Ok(checked.servers_used)
}
