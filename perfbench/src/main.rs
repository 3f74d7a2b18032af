//! Wall-clock benchmark of CubeFit: online placement (`arrive`), a churning
//! population with failures and defragmentation (`churn`), and the
//! journaled placement service under open-loop traffic (`serve`).
//!
//! ```text
//! perfbench --workload arrive|churn|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Progress and counts go to stdout; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: the end-to-end
//! ones when `--trace 0`, the per-layer ones when `--trace 1`. The exit
//! code is non-zero when any correctness check fails. See README.md.

mod arrive;
mod checker;
mod churn;
mod phase;
mod population;
mod report;
mod rng;
mod serve;
mod stats;
mod timed;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload arrive|churn|serve \
                     --seed N --seconds S --trace 0|1";

/// Most spans one traced run keeps. Once reached, the remaining rounds run
/// untraced; the per-layer numbers come from the rounds traced before.
pub const SPAN_CAP: usize = 250_000;

/// What every workload receives.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Where the run writes its journal and trace: beside the binary,
    /// inside the build directory.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Whether round `index` of the timed phase is traced: in a traced
    /// run every other round, until [`SPAN_CAP`] spans are kept, so that
    /// the untraced rounds in between measure the tracing overhead.
    pub fn traced_round(&self, index: u64) -> bool {
        self.trace && index % 2 == 1 && trace::span_count() < SPAN_CAP
    }
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let work_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .ok_or("cannot locate the build directory")?;
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match ctx.workload.as_str() {
        "arrive" => arrive::run(&ctx),
        "churn" => churn::run(&ctx),
        "serve" => serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(mut report) => {
            report.metrics.entry("peak_rss_mb").or_insert_with(report::peak_rss_mb);
            println!("{}: attempted={} failed={}", ctx.workload, report.attempted, report.failed);
            let table = if ctx.trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let value = report.metrics.get(name).copied().unwrap_or(0.0);
                println!("  {name:<28} {value:>14.6} {unit}");
            }
            println!("{}", report.json(true, table));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {}: {message}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
