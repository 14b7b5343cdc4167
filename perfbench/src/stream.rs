//! The DMA streaming workload: `pmc_apps::stream::StreamCopy` in its
//! double-buffered mode on a 256-tile torus.

use pmc::apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc::runtime::{BackendKind, PmcCtx, Program, RunConfig, System};
use pmc::sim::trace::TraceRecord;
use pmc::sim::Topology;

use crate::layers::{self, fnv, SimStats};
use crate::{guarded, median, percentile, setup_once, timed, timed_units, Args, Report, Setup};

const SIDE: usize = 16;
const TILES: usize = SIDE * SIDE;
const CONTROLLERS: usize = 4;
const TASKS_PER_TILE: u32 = 6;
const PARAMS: StreamCopyParams = StreamCopyParams {
    n_tasks: TASKS_PER_TILE * TILES as u32,
    task_bytes: 4096,
    compute_per_word: 2,
};

/// A fresh, empty system. The seed places the controllers: the evenly
/// spread set shifted by `seed mod 64` tiles, so every seed streams the
/// same bytes over different routes and stripe-to-port owners.
fn system(seed: u64, traced: bool) -> System {
    let shift = (seed % (TILES / CONTROLLERS) as u64) as usize;
    let session = RunConfig::new(BackendKind::Spm)
        .topology(Topology::Torus { cols: SIDE, rows: SIDE })
        .mem_controllers((0..CONTROLLERS).map(|i| i * TILES / CONTROLLERS + shift).collect())
        .telemetry(traced)
        .trace(traced)
        .session();
    System::new(session.soc_config(TILES), BackendKind::Spm, session.lock())
}

/// One set-up: a fresh system with the stream's inputs seeded.
fn setup(seed: u64) -> [f64; 2] {
    setup_once(|| system(seed, false), |sys| StreamCopy::build(sys, PARAMS))
}

struct Pass {
    checksum: u64,
    /// Cycles each tile accounted for, in tile order.
    tile_cycles: Vec<u64>,
    stats: SimStats,
    trace: Vec<TraceRecord>,
    wall: f64,
}

/// Build, stream and verify every task's reduction; `None` if anything
/// panicked, which fails every task of the pass.
fn pass(seed: u64, traced: bool, report: &mut Report) -> Option<Pass> {
    let out = guarded(|| {
        let mut sys = system(seed, traced);
        let app = StreamCopy::build(&mut sys, PARAMS);
        let app = &app;
        let programs: Vec<Program<'_>> = (0..TILES)
            .map(|_| -> Program<'_> {
                Box::new(move |ctx: &mut PmcCtx<'_, '_>| app.worker(ctx, StreamMode::DmaDouble))
            })
            .collect();
        let (run, wall) = timed(|| sys.run(programs));
        Pass {
            checksum: app.checksum(&sys),
            tile_cycles: run.per_core.iter().map(|c| c.total()).collect(),
            stats: SimStats::read(&sys, &run),
            trace: if traced { sys.soc().take_trace() } else { Vec::new() },
            wall,
        }
    });
    let tasks = u64::from(PARAMS.n_tasks);
    report.tally(tasks, if out.is_some() { 0 } else { tasks });
    out
}

pub fn end_to_end(args: &Args, report: &mut Report) {
    let mut first = None;
    let walls = timed_units(
        args,
        report,
        1,
        || setup(args.seed),
        |_, report| {
            let p = pass(args.seed, false, report)?;
            let fp =
                fnv(format!("{}{:?}{}", p.checksum, p.tile_cycles, p.stats.fingerprint())
                    .as_bytes());
            let wall = p.wall;
            first.get_or_insert(p);
            Some((wall, fp))
        },
    );
    report.put("wall_s", median(walls.concat()));
    let Some(p) = first else { return };
    let kcycles = p.stats.makespan.max(1) as f64 / 1000.0;
    report.put("makespan_cycles", p.stats.makespan as f64);
    report.put("p50_cycles", percentile(&p.tile_cycles, 50.0) as f64);
    report.put("p99_cycles", percentile(&p.tile_cycles, 99.0) as f64);
    report.put("slo_rate_req_per_kcycle", f64::from(PARAMS.n_tasks) / kcycles);
    report.put("bytes_per_kcycle", p.stats.dma_bytes as f64 / kcycles);
}

pub fn per_layer(args: &Args, report: &mut Report) {
    Setup::time(|| setup(args.seed)).put_stages(report);
    let (Some(plain), Some(traced)) =
        (pass(args.seed, false, report), pass(args.seed, true, report))
    else {
        return;
    };
    if (plain.checksum, &plain.tile_cycles, plain.stats.makespan)
        != (traced.checksum, &traced.tile_cycles, traced.stats.makespan)
    {
        report.problem(
            "tracing perturbed modeled time: checksum, tile cycles or makespan differ".into(),
        );
    }
    plain.stats.put_layers(report, u64::from(PARAMS.n_tasks), plain.wall);
    layers::put_traced(
        report,
        &traced.trace,
        (plain.wall, traced.wall),
        (plain.stats.engine.handoffs, traced.stats.engine.handoffs),
    );
}
