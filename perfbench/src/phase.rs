//! Shared pieces of a workload run: repeated set-up, the traced/untraced
//! round accounting, and the per-layer numbers read off the spans.

use crate::report::{Report, LAYERS, PER_LAYER};
use crate::stats::{median, p99, Latencies};
use crate::trace::{self, Summary};
use crate::Ctx;
use std::time::{Duration, Instant};

/// Set-up runs at least this many times before the timed phase, and
/// until it has taken [`SETUP_MIN_SECONDS`] in all; `setup_s` is the
/// median over these and any set-ups the workload repeats between rounds.
pub const SETUPS: usize = 3;
pub const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPETITIONS: usize = 1_000;

/// Named set-up phase timings, in seconds.
pub type Timings = Vec<(&'static str, f64)>;

/// The timings of every set-up of a run.
#[derive(Debug, Default)]
pub struct SetupTimes {
    totals: Vec<f64>,
    phases: Vec<(&'static str, Vec<f64>)>,
}

impl SetupTimes {
    /// Runs and times one set-up, which reports its own phase timings.
    pub fn run<T>(
        &mut self,
        setup: impl FnOnce() -> Result<(T, Timings), String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let (value, timings) = {
            let _span = trace::enter("bench.setup");
            setup()?
        };
        self.totals.push(start.elapsed().as_secs_f64());
        for (name, seconds) in timings {
            match self.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(seconds),
                None => self.phases.push((name, vec![seconds])),
            }
        }
        Ok(value)
    }

    /// Reports the median total as `setup_s` and each phase's median.
    pub fn report(&self, report: &mut Report) {
        report.set("setup_s", median(&self.totals));
        for (name, samples) in &self.phases {
            report.set(name, median(samples));
        }
    }
}

/// Runs `setup` repeatedly (see [`SETUPS`]) and keeps the last result. In
/// a traced run only the first repetition is traced.
pub fn repeated_setup<T>(
    ctx: &Ctx,
    times: &mut SetupTimes,
    mut setup: impl FnMut() -> Result<(T, Timings), String>,
) -> Result<T, String> {
    let mut kept = None;
    let mut repetition = 0;
    let mut spent = 0.0;
    while repetition < SETUPS || (spent < SETUP_MIN_SECONDS && repetition < SETUP_MAX_REPETITIONS) {
        drop(kept.take());
        repetition += 1;
        trace::set_active(ctx.trace && repetition == 1);
        let start = Instant::now();
        kept = Some(times.run(&mut setup)?);
        spent += start.elapsed().as_secs_f64();
        trace::set_active(false);
    }
    kept.ok_or_else(|| "set-up never ran".to_owned())
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Timed-phase totals. The tracing overhead compares the per-operation
/// time of traced and untraced rounds of like work ([`Rounds::add`]);
/// work that comes in too few, too uneven pieces to compare
/// ([`Rounds::add_other`]) counts toward the totals only.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Rounds completed.
    pub count: u64,
    elapsed: Duration,
    ops: u64,
    traced: (Duration, u64),
    untraced: (Duration, u64),
}

impl Rounds {
    pub fn add(&mut self, traced: bool, elapsed: Duration, ops: u64) {
        self.add_other(elapsed, ops);
        let slot = if traced { &mut self.traced } else { &mut self.untraced };
        slot.0 += elapsed;
        slot.1 += ops;
    }

    pub fn add_other(&mut self, elapsed: Duration, ops: u64) {
        self.elapsed += elapsed;
        self.ops += ops;
    }

    pub fn end_round(&mut self) {
        self.count += 1;
    }

    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Extra time per operation in traced rounds over untraced ones, %.
    pub fn overhead_pct(&self) -> f64 {
        let per_op = |(time, ops): (Duration, u64)| time.as_secs_f64() / ops.max(1) as f64;
        if self.traced.1 == 0 || self.untraced.1 == 0 {
            return 0.0;
        }
        (per_op(self.traced) / per_op(self.untraced) - 1.0) * 100.0
    }
}

/// The fastest run of each segment of a round that repeats the same
/// work, over all rounds.
///
/// Outside load on a shared machine only ever adds time, and it comes and
/// goes within a fraction of a second. A whole round rarely runs free of
/// it, but each of its short segments does in some round, so the sum of
/// the segments' fastest runs is the steadiest estimate of what the
/// program itself costs.
#[derive(Debug, Default)]
pub struct SegmentBest {
    best: Vec<Duration>,
}

impl SegmentBest {
    /// Takes in one run of segment `position`.
    pub fn add(&mut self, position: usize, elapsed: Duration) {
        if position == self.best.len() {
            self.best.push(elapsed);
        }
        self.best[position] = self.best[position].min(elapsed);
    }

    /// The segments' fastest runs, summed, in seconds.
    pub fn total_s(&self) -> f64 {
        self.best.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Reports the latency percentiles of operations that every round repeats
/// in the same order, each taken at its fastest over the rounds
/// ([`Latencies::keep_min`]), for the reason given at [`SegmentBest`].
pub fn report_fastest_latencies(fastest: &Latencies, report: &mut Report) {
    report.set("lat_p50_ms", fastest.quantile_band_ms(0.5));
    report.set("lat_p90_ms", fastest.quantile_band_ms(0.9));
}

fn static_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(n, _)| *n).find(|n| *n == name)
}

/// Ends a traced run: summarizes and writes the spans, and fills in the
/// self times, the traced wall time, the overhead and the per-call
/// latencies of every layer.
pub fn finish_trace(ctx: &Ctx, report: &mut Report, rounds: &Rounds) -> Result<(), String> {
    trace::set_active(false);
    let spans = trace::take();
    let summary = trace::summarize(&spans);
    let path = ctx.work_dir.join(format!("perfbench-trace-{}.csv", ctx.workload));
    trace::write_csv(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    for (layer, seconds) in &summary.self_s {
        if !LAYERS.contains(layer) {
            return Err(format!("span layer {layer} is not a reported layer"));
        }
        let name = static_name(&format!("{layer}.self_s")).ok_or("unknown layer")?;
        report.set(name, *seconds);
    }
    report.set("trace.wall_s", summary.wall_s);
    report.set("trace.spans", spans.len() as f64);
    report.set("trace.overhead_pct", rounds.overhead_pct());
    call_times(report, &summary);
    Ok(())
}

fn call_times(report: &mut Report, summary: &Summary) {
    let us = |v: &[f64]| v.iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    let ms = |v: &[f64]| v.iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
    let place = us(summary.durations("cubefit.place"));
    report.set("cubefit.place_us_p50", median(&place));
    report.set("cubefit.place_us_p99", p99(&place));
    let remove = us(summary.durations("placement.remove"));
    report.set("placement.remove_us_p50", median(&remove));
    report.set("placement.remove_us_p99", p99(&remove));
    report.set("placement.update_us_p50", median(&us(summary.durations("placement.update_load"))));
    report.set("placement.migrate_us_p50", median(&us(summary.durations("placement.migrate"))));
    report.set("recovery.recover_ms_p50", median(&ms(summary.durations("recovery.recover"))));
    report.set("defrag.plan_ms_p50", median(&ms(summary.durations("defrag.plan"))));
    report.set("defrag.apply_ms_p50", median(&ms(summary.durations("defrag.apply"))));
    report.set("oracle.audit_ms_p50", median(&ms(summary.self_times("oracle.start_batch"))));
    let appends: Vec<f64> =
        ["journal.place_batch", "journal.remove_batch", "journal.update_load_batch"]
            .iter()
            .flat_map(|name| us(summary.self_times(name)))
            .collect();
    report.set("journal.append_us_p50", median(&appends));
    report.set("journal.append_us_p99", p99(&appends));
}
