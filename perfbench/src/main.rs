//! The repository benchmark: drives the simulator's public API from
//! outside the program and reports host (simulator wall clock) and
//! modeled (simulated SoC cycles) metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_idle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the timed phase with tracing off and prints the
//! end-to-end metrics; `--trace 1` makes one untraced and one traced
//! pass and prints the per-layer metrics. Human-readable lines go first;
//! the last line of standard output is the JSON result. See `README.md`
//! for the workloads and what each metric should move.

mod layers;
mod serve;
mod stream;
mod verify;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["serve_idle", "serve_hot", "stream_scale", "verify"];

/// Timed runs per run at the least: a single-unit workload whose unit
/// outlasts `--seconds` still gets a median that one slow run cannot set.
const MIN_TIMED_RUNS: usize = 3;

/// Set-up is timed in batches of back-to-back repetitions, each batch
/// lasting at least [`SETUP_BATCH_SECONDS`], so that a set-up of a tenth
/// of a millisecond is not read off a single cache or allocator state.
/// `setup_s` is the median over at least [`SETUP_BATCHES`] batches.
const SETUP_BATCH_SECONDS: f64 = 0.05;
const SETUP_BATCHES: usize = 15;

/// Share of the timed phase spent timing set-up batches between the
/// timed runs. Host speed on a shared VM drifts by ±20% over stretches
/// of a second or more, so set-up is sampled across the whole phase, as
/// the timed runs are, instead of in one block at its start.
const SETUP_SHARE: f64 = 0.1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// The end-to-end metrics (`--trace 0`) and their units; every workload
/// reports each of them.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("makespan_cycles", "cycles"),
    ("p50_cycles", "cycles"),
    ("p99_cycles", "cycles"),
    ("slo_rate_req_per_kcycle", "req/kcycle"),
    ("bytes_per_kcycle", "B/kcycle"),
];

/// The per-layer metrics (`--trace 1`) and their units. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("engine.events", "count"),
    ("engine.handoffs", "count"),
    ("engine.peak_queue", "count"),
    ("engine.handoffs_per_req", "count"),
    ("engine.us_per_handoff", "us"),
    ("engine.spawn_us_per_tile", "us"),
    ("engine.empty_run_4096_s", "s"),
    ("mem.port_busy_frac_max", "fraction"),
    ("mem.port_busy_frac_min", "fraction"),
    ("mem.port_bursts", "count"),
    ("noc.link_busy_frac_max", "fraction"),
    ("noc.link_bursts", "count"),
    ("dma.transfers", "count"),
    ("dma.bytes", "bytes"),
    ("dma.bursts", "count"),
    ("dma.spurious_wakeups", "count"),
    ("cpu.stall_dma_wait", "cycles"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_frac", "fraction"),
    ("cpu.busy", "cycles"),
    ("cpu.instret", "count"),
    ("cpu.stall_shared_read", "cycles"),
    ("cpu.stall_write", "cycles"),
    ("cpu.stall_noc", "cycles"),
    ("cpu.flush_cycles", "cycles"),
    ("lock.acquires", "count"),
    ("lock.acquire_p50", "cycles"),
    ("lock.acquire_p99", "cycles"),
    ("lock.hold_p50", "cycles"),
    ("scope.count", "count"),
    ("scope.hold_p50", "cycles"),
    ("scope.hold_p99", "cycles"),
    ("fifo.useful_pop_frac", "fraction"),
    ("fifo.push_block_p99", "cycles"),
    ("serve.inject_lag_p99", "cycles"),
    ("serve.hot_shard_frac", "fraction"),
    ("serve.spare_served", "count"),
    ("loadgen.generate_s", "s"),
    ("host.system_new_s", "s"),
    ("host.app_build_s", "s"),
    ("host.metrics_s", "s"),
    ("trace.records", "count"),
    ("trace.extra_handoffs", "count"),
    ("trace.handoff_inflation", "ratio"),
    ("trace.overhead_frac", "fraction"),
    ("monitor.validate_s", "s"),
    ("monitor.records_per_s", "1/s"),
    ("interleave.states.memoized", "count"),
    ("interleave.states.por", "count"),
    ("interleave.states.por_memoized", "count"),
    ("interleave.states_per_s", "1/s"),
    ("interleave.enumerate_s", "s"),
    ("litmus.runs", "count"),
    ("litmus.ms_per_run", "ms"),
    ("verify.catalogue_s", "s"),
    ("verify.fuzz_s", "s"),
    ("fail_frac", "fraction"),
];

/// What a run reports: named metrics plus the operation tally behind
/// `attempted`/`failed`, and the invariant breaks that make it incorrect.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    nondeterministic: bool,
}

impl Report {
    /// Record a metric; the name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn put(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.metrics.iter().all(|(n, _)| n != name), "metric {name} reported twice");
        self.metrics.push((name, value));
    }

    /// Record a broken invariant (the run is then reported incorrect).
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Record a repeat that modeled something differently from its first
    /// run (the benchmark then exits with an error).
    fn nondeterminism(&mut self, msg: String) {
        self.nondeterministic = true;
        self.problem(msg);
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The declared metrics in order, with their values (0 where the
    /// workload produced none).
    fn rows(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        declared
            .iter()
            .map(|&(n, u)| {
                let v = self.metrics.iter().find(|(m, _)| *m == n).map_or(0.0, |&(_, v)| v);
                (n, if v.is_finite() { v } else { 0.0 }, u)
            })
            .collect()
    }

    fn json(&self, rows: &[(&str, f64, &str)]) -> String {
        let metrics: Vec<String> = rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `f`, converting a panic into `None` (the panic message is
/// printed by the default hook) so the rest of the run still reports.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Process peak resident set, in MiB (`VmHWM`; 0 where unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed phase shared by every workload. A workload is a list of
/// `units`, each one simulated schedule; the phase runs them round
/// robin until every unit has run, unit 0 has run twice (so the
/// determinism check always has a pair), at least [`MIN_TIMED_RUNS`]
/// runs are in and `seconds` have elapsed.
/// `run(i, report)` returns unit `i`'s host seconds and a fingerprint of
/// everything it modeled, or `None` if it panicked (the unit is then
/// dropped from later rounds). Every repeat must reproduce its unit's
/// first fingerprint. Between runs, set-up batches of `setup` take
/// [`SETUP_SHARE`] of the phase; their median is reported as `setup_s`.
/// Returns each unit's host seconds, by unit.
pub fn timed_units(
    args: &Args,
    report: &mut Report,
    units: usize,
    mut setup: impl FnMut() -> [f64; 2],
    mut run: impl FnMut(usize, &mut Report) -> Option<(f64, u64)>,
) -> Vec<Vec<f64>> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups = Setup::default();
    let mut setup_elapsed = Duration::ZERO;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); units];
    let mut first: Vec<Option<u64>> = vec![None; units];
    let mut dead = vec![false; units];
    for k in 0.. {
        let i = k % units;
        if (k > units && k >= MIN_TIMED_RUNS && start.elapsed() >= budget)
            || dead.iter().all(|&d| d)
        {
            break;
        }
        if dead[i] {
            continue;
        }
        let Some((wall, fp)) = run(i, report) else {
            dead[i] = true;
            continue;
        };
        match first[i] {
            None => first[i] = Some(fp),
            Some(f) if f != fp => report.nondeterminism(format!(
                "nondeterminism: unit {i} repeat {} modeled {fp:#018x}, first run {f:#018x}",
                walls[i].len()
            )),
            Some(_) => {}
        }
        walls[i].push(wall);
        while setup_elapsed < (start.elapsed() - setup_elapsed).mul_f64(SETUP_SHARE) {
            let t = Instant::now();
            setups.batch(&mut setup);
            setup_elapsed += t.elapsed();
        }
    }
    while setups.totals.len() < SETUP_BATCHES {
        setups.batch(&mut setup);
    }
    report.put("setup_s", setups.total());
    let all: Vec<f64> = walls.iter().flatten().copied().collect();
    let (lo, hi) = all.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    println!(
        "{} timed runs of {units} units: fastest {lo:.4} s, slowest {hi:.4} s; {} set-up batches",
        all.len(),
        setups.totals.len()
    );
    walls
}

/// One set-up: host seconds of `new`, which makes the empty system, and
/// of `build`, which builds the workload on it. What they return is
/// dropped outside the timing.
pub fn setup_once<S, A>(new: impl FnOnce() -> S, build: impl FnOnce(&mut S) -> A) -> [f64; 2] {
    let (mut sys, t_new) = timed(new);
    let (built, t_build) = timed(|| build(&mut sys));
    drop((sys, built));
    [t_new, t_build]
}

/// Set-up timings, one sample per batch of back-to-back set-ups (see
/// [`SETUP_BATCH_SECONDS`]), in total and by stage.
#[derive(Default)]
pub struct Setup {
    totals: Vec<f64>,
    news: Vec<f64>,
    builds: Vec<f64>,
}

impl Setup {
    /// [`SETUP_BATCHES`] batches of `once` back to back.
    pub fn time(mut once: impl FnMut() -> [f64; 2]) -> Setup {
        let mut setup = Setup::default();
        while setup.totals.len() < SETUP_BATCHES {
            setup.batch(&mut once);
        }
        setup
    }

    /// Time one batch; `once` runs one set-up and returns the host
    /// seconds of its two stages.
    fn batch(&mut self, once: &mut impl FnMut() -> [f64; 2]) {
        let (mut new, mut build, mut reps) = (0.0, 0.0, 0.0);
        while new + build < SETUP_BATCH_SECONDS {
            let [n, b] = once();
            new += n;
            build += b;
            reps += 1.0;
        }
        self.totals.push((new + build) / reps);
        self.news.push(new / reps);
        self.builds.push(build / reps);
    }

    /// Median seconds of one whole set-up.
    pub fn total(&self) -> f64 {
        median(self.totals.clone())
    }

    /// Median seconds of the second stage alone.
    pub fn build(&self) -> f64 {
        median(self.builds.clone())
    }

    /// The per-layer readings of the two stages.
    pub fn put_stages(&self, r: &mut Report) {
        r.put("host.system_new_s", median(self.news.clone()));
        r.put("host.app_build_s", self.build());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("serve_idle" | "serve_hot", false) => serve::end_to_end(&args, &mut report),
        ("serve_idle" | "serve_hot", true) => serve::per_layer(&args, &mut report),
        ("stream_scale", false) => stream::end_to_end(&args, &mut report),
        ("stream_scale", true) => stream::per_layer(&args, &mut report),
        ("verify", false) => verify::end_to_end(&args, &mut report),
        ("verify", true) => verify::per_layer(&args, &mut report),
        _ => unreachable!("workload names are checked by parse_args"),
    }
    let declared: &[(&str, &str)] = if args.trace {
        layers::spawn_probe(&mut report);
        let frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.put("fail_frac", frac);
        &PER_LAYER
    } else {
        report.put("peak_rss_mb", peak_rss_mb());
        for (name, _) in END_TO_END {
            if !report.metrics.iter().any(|(n, _)| *n == name) {
                report.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
        &END_TO_END
    };
    let rows = report.rows(declared);
    for (name, value, unit) in &rows {
        println!("{:<40} {value:>18.6} {unit}", format!("{}/{name}", args.workload));
    }
    println!("{}: {} of {} operations failed", args.workload, report.failed, report.attempted);
    println!("{}", report.json(&rows));
    if report.nondeterministic {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
