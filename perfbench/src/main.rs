//! The OIL benchmark: one command runs a named workload at a seed for a
//! fixed wall-clock budget, checks every output against the golden
//! reference and prints its metrics, the last line a JSON object.
//!
//! ```text
//! oil-perfbench --workload <pal-1w|pal-2w|modal-switch|compile-scale>
//!               --seed <n> --seconds <s> --trace <0|1>
//! oil-perfbench --golden <first-seed> <last-seed>   # print golden lines
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics, timed from the benchmark's own
//! calls into each crate (see `METRICS.md` beside this package).

mod golden;
mod hostspeed;
mod inputs;
mod layers;
mod spans;
mod workload;

use std::process::ExitCode;
use workload::Workload;

pub const WORKLOADS: [&str; 4] = ["pal-1w", "pal-2w", "modal-switch", "compile-scale"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} takes a value"))
    };
    let workload = Workload::parse(value("--workload")?)?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn golden_lines(first: u64, last: u64) -> Result<(), String> {
    for w in WORKLOADS {
        let w = Workload::parse(w)?;
        for seed in first..=last {
            let entry = workload::reference_entry(w, seed)?;
            println!("{}", golden::line(w.name(), seed, &entry));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--golden") {
        let seed = |k: usize| args.get(i + k).and_then(|v| v.parse().ok());
        let (Some(first), Some(last)) = (seed(1), seed(2)) else {
            eprintln!("usage: oil-perfbench --golden <first-seed> <last-seed>");
            return ExitCode::from(2);
        };
        return match golden_lines(first, last) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: oil-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        workload::run(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(out) => {
            println!(
                "error_rate = {} failed / {} attempted = {}",
                out.failed,
                out.attempted,
                out.failed as f64 / out.attempted as f64
            );
            println!(
                "{}",
                result_json(out.correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The median of `xs` (midpoint of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, with its
/// value (nearest rank), or `None` below eleven samples.
pub fn tail_percentile(xs: &[f64], higher_is_worse: bool) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if !higher_is_worse {
        v.reverse();
    }
    let rank = ((p as usize * n).div_ceil(100)).clamp(1, n);
    Some((p, v[rank - 1]))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, true), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, true), Some((50, 10.0)));
        assert_eq!(tail_percentile(&xs, false), Some((50, 11.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bad_arguments_are_errors() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(parse_args(&args("x --workload pal-1w --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&args("x --workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("x --workload pal-1w --seed -1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("x --workload pal-1w --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("x --workload pal-1w --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("x --workload pal-1w --seed 1 --trace 0")).is_err());
    }
}
