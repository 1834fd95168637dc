//! The tgp benchmark: three workloads, end-to-end and per-layer
//! metrics, every answer checked. See README.md; `perfbench/run.py`
//! builds this binary and the `tgp` server and then runs it.
//!
//! ```text
//! perfbench --workload cold_solve|hot_wire|session_tune --seed N
//!           --seconds S --trace 0|1 --tgp PATH --work-dir DIR
//! perfbench --describe --seed N
//! ```
//!
//! The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod gen;
mod inproc;
mod json;
mod layers;
mod sys;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line settings.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tgp: PathBuf,
    pub work_dir: PathBuf,
}

/// What a run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers (a correct run has none), first few kept.
    pub errors: Vec<String>,
    pub wrong: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn wrong(&mut self, message: String) {
        self.wrong += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Timings of the operations of a run's timed phase, kept per window
/// (a round of the workload's operations) as well as per operation.
#[derive(Default)]
pub struct Timed {
    pub latencies: Vec<Duration>,
    windows: Vec<Window>,
    open: Window,
}

/// Operations, wall time and CPU time of one window. In-process wall
/// time is the sum of the operations' own intervals: inputs are made
/// and answers checked between them, off the clock.
#[derive(Default, Clone, Copy)]
struct Window {
    ops: u64,
    busy: Duration,
    cpu: Duration,
}

/// Times one set-up of the workload's state and books it in `setups`.
/// Workloads set up once before the timed phase and again after every
/// window, so `setup_s` samples the host over the whole run, as the
/// other metrics do, not only during its first second.
pub fn timed_setup<T>(setups: &mut Vec<f64>, set_up: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let built = set_up();
    setups.push(started.elapsed().as_secs_f64());
    built
}

/// Exact nearest-rank percentile; zero when there are no samples (a
/// run that failed before its first answer).
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median; zero for no values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => 0.0,
        len if len % 2 == 1 => values[mid],
        _ => (values[mid - 1] + values[mid]) / 2.0,
    }
}

impl Timed {
    /// Books one operation timed on its own: its latency, wall and CPU.
    pub fn op(&mut self, latency: Duration, cpu: Duration) {
        self.latencies.push(latency);
        self.open.ops += 1;
        self.open.busy += latency;
        self.open.cpu += cpu;
    }

    /// Books the latency of an operation timed as part of a window.
    pub fn sample(&mut self, latency: Duration) {
        self.latencies.push(latency);
    }

    /// Closes the open window; `busy`/`cpu` add time measured over the
    /// window as a whole (the wire workload's wall clock and server CPU).
    pub fn close_window(&mut self, ops: u64, busy: Duration, cpu: Duration) {
        let mut window = std::mem::take(&mut self.open);
        window.ops += ops;
        window.busy += busy;
        window.cpu += cpu;
        self.windows.push(window);
    }

    /// Wall time of the closed windows.
    pub fn busy(&self) -> Duration {
        self.windows.iter().map(|w| w.busy).sum()
    }

    /// The six end-to-end metrics every workload reports. Rates are the
    /// median over windows, so a burst of interference from outside the
    /// program moves one window, not the run's figure. `setup_s` is the
    /// median of the set-ups, which [`timed_setup`] takes between
    /// windows over the whole run.
    pub fn report(mut self, out: &mut Outcome, setups: &[f64], peak_rss_mb: f64) {
        self.latencies.sort_unstable();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let p = |q: f64| ms(percentile(&self.latencies, q));
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ops as f64 / w.busy.as_secs_f64())
            .collect();
        let mut cpu: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.cpu.as_secs_f64() * 1e6 / w.ops.max(1) as f64)
            .collect();
        out.metric("throughput_rps", median(&mut rates), "1/s");
        out.metric("latency_p50_ms", p(0.50), "ms");
        out.metric("latency_p90_ms", p(0.90), "ms");
        out.metric("cpu_us_per_op", median(&mut cpu), "us");
        out.metric("setup_s", median(&mut setups.to_vec()), "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MiB");
        // Reference figures (not gated): the tails the README quotes,
        // and how far the windows' rates spread within the run.
        eprintln!(
            "perfbench: {} samples in {} windows (rates {:.5}..{:.5}/s), p99 {:.4} ms, p999 {:.4} ms, max {:.4} ms",
            self.latencies.len(),
            self.windows.len(),
            rates.first().copied().unwrap_or(0.0),
            rates.last().copied().unwrap_or(0.0),
            p(0.99),
            p(0.999),
            p(1.0)
        );
    }
}

fn parse_args() -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        tgp: PathBuf::new(),
        work_dir: std::env::temp_dir(),
    };
    let mut describe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            describe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--tgp" => args.tgp = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !describe && args.seconds <= 0.0 {
        return Err("--seconds S (S > 0) is required".into());
    }
    Ok((args, describe))
}

fn main() {
    let (args, describe) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if describe {
        inproc::describe(args.seed);
        return;
    }
    let mut out = match args.workload.as_str() {
        "cold_solve" => inproc::cold_solve(&args),
        "session_tune" => inproc::session_tune(&args),
        "hot_wire" => wire::hot_wire(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (cold_solve, hot_wire, session_tune)");
            std::process::exit(2);
        }
    };
    // The checker proves itself on every run: a checker fault must not
    // pass wrong answers.
    if let Err(e) = check::self_test(400) {
        out.wrong(format!("checker self-test: {e}"));
    }
    if args.trace {
        let measured = std::mem::take(&mut out.metrics);
        out.metrics = layers::complete(measured);
    }
    for e in &out.errors {
        eprintln!("perfbench: WRONG: {e}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that fails before its first answer or window still reports
    /// every end-to-end metric instead of panicking.
    #[test]
    fn report_of_an_empty_run() {
        let mut out = Outcome::default();
        Timed::default().report(&mut out, &[], 0.0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            [
                "throughput_rps",
                "latency_p50_ms",
                "latency_p90_ms",
                "cpu_us_per_op",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        assert!(out.metrics.iter().all(|m| m.1 == 0.0));
    }

    #[test]
    fn setup_is_the_median_and_percentiles_are_nearest_rank() {
        let mut timed = Timed::default();
        for ms in 1..=10 {
            timed.op(Duration::from_millis(ms), Duration::ZERO);
        }
        timed.close_window(0, Duration::ZERO, Duration::ZERO);
        let mut out = Outcome::default();
        timed.report(&mut out, &[0.3, 0.1, 0.2, 0.7], 1.0);
        let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("setup_s"), 0.25);
        assert_eq!(value("latency_p50_ms"), 5.0);
        assert_eq!(value("latency_p90_ms"), 9.0);
        assert!((value("throughput_rps") - 10.0 / 0.055).abs() < 1e-9);
    }
}
