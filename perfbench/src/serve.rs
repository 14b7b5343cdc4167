//! The two serving workloads: the sharded KV service of
//! `pmc_apps::kvserve`, driven through `KvServe::build`, `frontend` and
//! `worker` under an open-loop `loadgen` schedule.

use std::collections::HashSet;

use pmc::apps::kvserve::{Req, HOT_SHARD};
use pmc::apps::loadgen::{self, ArrivalDist, Job, LoadGenParams};
use pmc::apps::{KvServe, KvServeParams};
use pmc::model::fuzz::SplitMix64;
use pmc::runtime::{BackendKind, LockKind, PmcCtx, Pod, Program, RunConfig, System};
use pmc::sim::telemetry::pair_spans;
use pmc::sim::trace::{span_kind, TraceRecord};
use pmc::sim::Topology;

use crate::layers::{self, fnv, SimStats};
use crate::{guarded, median, percentile, setup_once, timed, timed_units, Args, Report, Setup};

/// Requests per schedule: enough that ten lie beyond p99.
const REQUESTS: u32 = 1000;

/// Latency limit (cycles) on p99 and on the drain after the last arrival.
const LIMIT: u64 = 50_000;

struct Spec {
    backend: BackendKind,
    lock: LockKind,
    cols: usize,
    rows: usize,
    controllers: usize,
    load: LoadGenParams,
    migrate: bool,
    /// Schedules served at the reference rate. Over 20 seeds the
    /// interquartile range of one schedule's p99 was 13–16% of its
    /// median. Pooling six schedules' latencies left serve_idle's at 14%
    /// over ten seeds, as one schedule's burst at the hot shard sets the
    /// pooled tail; so `p99_cycles` is the median of the schedules' p99s.
    /// Over ten seeds that median spread 3% on serve_idle with six
    /// schedules and 9% on serve_hot with six, hence ten there.
    schedules: usize,
    /// Mean interarrival gaps in cycles, lightest load first. The first
    /// is the reference rate, whose latencies and makespan are reported.
    ladder: &'static [u64],
}

fn spec(workload: &str) -> Spec {
    let base = LoadGenParams {
        n_requests: REQUESTS,
        arrival: ArrivalDist::Exponential,
        ..LoadGenParams::default()
    };
    match workload {
        // 31 mostly idle shards polling their mailboxes.
        "serve_idle" => Spec {
            backend: BackendKind::Swcc,
            lock: LockKind::Sdram,
            cols: 4,
            rows: 8,
            controllers: 4,
            load: LoadGenParams { n_shards: 31, zipf_s: 0.9, ..base },
            migrate: false,
            schedules: 6,
            ladder: &[2000],
        },
        // 8 busy shards plus a spare that takes over the hot shard.
        "serve_hot" => Spec {
            backend: BackendKind::Spm,
            lock: LockKind::Distributed,
            cols: 2,
            rows: 5,
            controllers: 2,
            load: LoadGenParams {
                n_shards: 8,
                zipf_s: 2.0,
                put_fraction: 0.6,
                copy_fraction: 0.05,
                ..base
            },
            migrate: true,
            schedules: 10,
            ladder: &[1600, 800, 400],
        },
        other => unreachable!("{other} is not a serving workload"),
    }
}

impl Spec {
    /// The timed units: the schedules at the reference rate,
    /// then the first schedule's seed at every other rung, each as
    /// `(mean interarrival, loadgen seed)`.
    fn units(&self, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(seed);
        let seeds: Vec<u64> = (0..self.schedules).map(|_| rng.next_u64()).collect();
        let reference = seeds.iter().map(|&s| (self.ladder[0], s));
        let others = self.ladder[1..].iter().map(|&ia| (ia, seeds[0]));
        reference.chain(others).collect()
    }

    fn params(&self, interarrival: u64, seed: u64) -> KvServeParams {
        KvServeParams {
            load: LoadGenParams { mean_interarrival: interarrival, seed, ..self.load },
            mailbox_depth: 8,
            migrate_at: self.migrate.then_some(REQUESTS / 2),
        }
    }

    /// A fresh, empty system on the workload's machine.
    fn system(&self, traced: bool) -> System {
        let n_tiles = self.cols * self.rows;
        let session = RunConfig::new(self.backend)
            .lock(self.lock)
            .topology(Topology::Mesh { cols: self.cols, rows: self.rows })
            .mem_controllers(
                (0..self.controllers).map(|i| i * n_tiles / self.controllers).collect(),
            )
            .telemetry(traced)
            .trace(traced)
            .session();
        System::new(session.soc_config(n_tiles), self.backend, self.lock)
    }

    /// A fresh system with the service built on it.
    fn build(&self, interarrival: u64, seed: u64, traced: bool) -> (System, KvServe) {
        let mut sys = self.system(traced);
        let app = KvServe::build(&mut sys, self.params(interarrival, seed));
        (sys, app)
    }

    /// One set-up of the service for `params`: `System::new` and
    /// `KvServe::build`, which runs `loadgen::generate`. The benchmark
    /// sets up the first schedule at the reference rate.
    fn setup(&self, params: &KvServeParams) -> [f64; 2] {
        setup_once(|| self.system(false), |sys| KvServe::build(sys, params.clone()))
    }
}

/// One offered rate served to completion.
struct Rung {
    latencies: Vec<u64>,
    served: Vec<u32>,
    jobs: Vec<Job>,
    failed: u64,
    checksum: u64,
    stats: SimStats,
    trace: Vec<TraceRecord>,
    wall: f64,
}

impl Rung {
    fn fingerprint(&self) -> u64 {
        fnv(format!("{:?}{}{}", self.latencies, self.checksum, self.stats.fingerprint()).as_bytes())
    }
}

/// p99 over several schedules' latencies, a failed request (latency 0)
/// counting as missing every limit.
fn p99(rungs: &[&Rung]) -> u64 {
    let lat: Vec<u64> = rungs
        .iter()
        .flat_map(|r| &r.latencies)
        .map(|&l| if l == 0 { u64::MAX } else { l })
        .collect();
    percentile(&lat, 99.0)
}

/// Whether a rate meets the latency limit: nothing failed, the pooled
/// p99 is within it, and every schedule drained within it after its
/// last arrival (no growing backlog).
fn meets(rungs: &[&Rung]) -> bool {
    let drained = rungs.iter().all(|r| {
        let last_arrival = r.jobs.last().map_or(0, |j| j.start_time);
        r.stats.makespan.saturating_sub(last_arrival) <= LIMIT
    });
    !rungs.is_empty() && drained && rungs.iter().all(|r| r.failed == 0) && p99(rungs) <= LIMIT
}

fn serve(sys: &mut System, app: &KvServe) -> pmc::sim::RunReport {
    let mut programs: Vec<Program<'_>> = Vec::new();
    programs.push(Box::new(|ctx: &mut PmcCtx<'_, '_>| app.frontend(ctx)));
    for w in 0..app.n_servers() {
        programs.push(Box::new(move |ctx: &mut PmcCtx<'_, '_>| app.worker(ctx, w)));
    }
    sys.run(programs)
}

/// Build, serve and check one rung; `None` if the simulation panicked
/// (counted as failed requests).
fn run_rung(spec: &Spec, unit: (u64, u64), traced: bool, report: &mut Report) -> Option<Rung> {
    let (interarrival, seed) = unit;
    let rung = guarded(|| {
        let (mut sys, app) = spec.build(interarrival, seed, traced);
        let (run, wall) = timed(|| serve(&mut sys, &app));
        let stats = SimStats::read(&sys, &run);
        let latencies = app.latencies(&sys);
        let served = app.served_counts(&sys);
        let lost = u64::from(REQUESTS).saturating_sub(served.iter().map(|&s| u64::from(s)).sum());
        let unmeasured = latencies.iter().filter(|&&l| l == 0).count() as u64;
        Rung {
            checksum: app.checksum(&sys),
            jobs: app.jobs().to_vec(),
            failed: lost.max(unmeasured),
            latencies,
            served,
            stats,
            trace: if traced { sys.soc().take_trace() } else { Vec::new() },
            wall,
        }
    });
    match &rung {
        Some(r) => report.tally(u64::from(REQUESTS), r.failed),
        None => report.tally(u64::from(REQUESTS), u64::from(REQUESTS)),
    }
    rung
}

/// The timed run, tracing off: the pooled reference schedules and every
/// other rung of the ladder.
pub fn end_to_end(args: &Args, report: &mut Report) {
    let spec = spec(&args.workload);
    let units = spec.units(args.seed);
    let params = spec.params(units[0].0, units[0].1);
    let mut first: Vec<Option<Rung>> = units.iter().map(|_| None).collect();
    let setup = || spec.setup(&params);
    let walls = timed_units(args, report, units.len(), setup, |i, report| {
        let rung = run_rung(&spec, units[i], false, report)?;
        let out = (rung.wall, rung.fingerprint());
        first[i].get_or_insert(rung);
        Some(out)
    });
    // Host seconds to serve one schedule at every rung: each rung's
    // median over its timed runs.
    let at = |ia: u64| -> Vec<usize> { (0..units.len()).filter(|&i| units[i].0 == ia).collect() };
    let wall = spec
        .ladder
        .iter()
        .map(|&ia| median(at(ia).iter().flat_map(|&i| walls[i].clone()).collect()));
    report.put("wall_s", wall.sum());
    let rungs =
        |ia: u64| -> Vec<&Rung> { at(ia).iter().filter_map(|&i| first[i].as_ref()).collect() };
    let slo = spec
        .ladder
        .iter()
        .filter(|&&ia| meets(&rungs(ia)))
        .map(|&ia| 1000.0 / ia as f64)
        .fold(0.0, f64::max);
    report.put("slo_rate_req_per_kcycle", slo);
    let reference = rungs(spec.ladder[0]);
    if reference.is_empty() {
        return;
    }
    let makespans: Vec<f64> = reference.iter().map(|r| r.stats.makespan as f64).collect();
    report.put("makespan_cycles", median(makespans));
    let all: Vec<u64> = reference.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    report.put("p50_cycles", percentile(&all, 50.0) as f64);
    let p99s: Vec<f64> = reference.iter().map(|&r| p99(&[r]) as f64).collect();
    report.put("p99_cycles", median(p99s));
    // Request payload delivered through the mailboxes plus DMA payload
    // (COPY requests and the migration).
    let delivered: u64 = reference.iter().flat_map(|r| &r.served).map(|&s| u64::from(s)).sum();
    let dma: u64 = reference.iter().map(|r| r.stats.dma_bytes).sum();
    let kcycles: f64 = reference.iter().map(|r| r.stats.makespan as f64 / 1000.0).sum();
    let bytes = delivered * u64::from(<Req as Pod>::SIZE) + dma;
    report.put("bytes_per_kcycle", bytes as f64 / kcycles.max(1e-9));
}

/// The traced run: the first reference schedule untraced, then traced,
/// with the per-layer readings of both.
pub fn per_layer(args: &Args, report: &mut Report) {
    let spec = spec(&args.workload);
    let unit = spec.units(args.seed)[0];
    let params = spec.params(unit.0, unit.1);
    let generate = Setup::time(|| setup_once(|| (), |_| loadgen::generate(&params.load)));
    report.put("loadgen.generate_s", generate.build());
    Setup::time(|| spec.setup(&params)).put_stages(report);

    let (Some(plain), Some(mut traced)) =
        (run_rung(&spec, unit, false, report), run_rung(&spec, unit, true, report))
    else {
        return;
    };
    if (&plain.latencies, plain.checksum, plain.stats.makespan)
        != (&traced.latencies, traced.checksum, traced.stats.makespan)
    {
        report.problem(
            "tracing perturbed modeled time: latencies, checksum or makespan differ".into(),
        );
    }
    plain.stats.put_layers(report, u64::from(REQUESTS), plain.wall);

    let trace = std::mem::take(&mut traced.trace);
    layers::put_traced(
        report,
        &trace,
        (plain.wall, traced.wall),
        (plain.stats.engine.handoffs, traced.stats.engine.handoffs),
    );
    put_serving_layers(report, params.migrate_at, &traced, &trace);
}

/// Mailbox, frontend and load-balance readings from the traced rung's
/// spans and readback.
fn put_serving_layers(
    report: &mut Report,
    migrate_at: Option<u32>,
    rung: &Rung,
    trace: &[TraceRecord],
) {
    let spans = match pair_spans(trace) {
        Ok((spans, _open)) => spans,
        Err(e) => {
            report.problem(format!("trace spans do not pair: {e}"));
            return;
        }
    };
    // Every mailbox pop is identified by its FIFO's write-pointer object,
    // and every read scope on that object is one poll of the mailbox.
    let mailboxes: HashSet<u32> =
        spans.iter().filter(|s| s.kind == span_kind::FIFO_POP).map(|s| s.addr).collect();
    let polls = spans
        .iter()
        .filter(|s| s.kind == span_kind::SCOPE_RO && mailboxes.contains(&s.addr))
        .count();
    report.put("fifo.useful_pop_frac", f64::from(REQUESTS) / polls.max(1) as f64);
    let mut pushes: Vec<_> =
        spans.iter().filter(|s| s.kind == span_kind::FIFO_PUSH && s.tile == 0).collect();
    let blocks: Vec<u64> = pushes.iter().map(|s| s.end - s.start).collect();
    report.put("fifo.push_block_p99", percentile(&blocks, 99.0) as f64);

    // The frontend pushes each job in order, the two migration control
    // messages just before the job that triggers the migration, and one
    // STOP per server at the end.
    pushes.sort_by_key(|s| s.start);
    let mut lag = Vec::with_capacity(rung.jobs.len());
    let mut i = 0;
    for job in &rung.jobs {
        if Some(job.id) == migrate_at {
            i += 2;
        }
        match pushes.get(i) {
            Some(p) => lag.push(p.start.saturating_sub(job.start_time)),
            None => report.problem(format!("job {} has no frontend push span", job.id)),
        }
        i += 1;
    }
    if pushes.len() != i + rung.served.len() {
        report.problem(format!(
            "{} frontend pushes, expected {}",
            pushes.len(),
            i + rung.served.len()
        ));
    }
    report.put("serve.inject_lag_p99", percentile(&lag, 99.0) as f64);
    let hot = rung.jobs.iter().filter(|j| j.shard == HOT_SHARD).count();
    report.put("serve.hot_shard_frac", hot as f64 / rung.jobs.len().max(1) as f64);
    let spare = if migrate_at.is_some() { rung.served.last().copied().unwrap_or(0) } else { 0 };
    report.put("serve.spare_served", f64::from(spare));
}
