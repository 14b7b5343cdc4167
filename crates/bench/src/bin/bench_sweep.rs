//! State-space sweep over the conformance catalogue: explored states and
//! wall time for each enumeration mode — plain DFS, memoized, partial-
//! order-reduced, and POR+memoized — per case and in total. This is the
//! measured justification for `Limits::reduced_memoized()` being the
//! fuzzing default: POR composes with memoization and shrinks the search
//! on every catalogue program without changing a single outcome set (the
//! preservation proof lives in `interleave::tests` and
//! `tests/fuzz.rs`; this binary measures the win).
//!
//! Usage:
//!
//! ```text
//! bench_sweep            # print the JSON report to stdout
//! bench_sweep --write    # also write it to BENCH_sweep.json
//! bench_sweep --smoke    # capped state budget, for CI sanity ticks
//! ```
//!
//! The report also carries a `scale` section: one 16×16-mesh (256-tile)
//! workload run on the discrete-event engine, pinning its wall time and
//! scheduler state counts (heap events, task handoffs, peak queue
//! depth) — the perf trajectory of the event-driven core at
//! MemPool-class scale.
//!
//! A `controller_scaling` section sweeps the scale-out memory system:
//! a transfer-bound DMA stream with 1/2/4 interleaved SDRAM controllers
//! on the mesh and the torus at 16 and 256 tiles. Aggregate SDRAM
//! bandwidth (payload bytes per kilocycle of makespan) must improve
//! with the controller count at 256 tiles — the single shared port is
//! the bottleneck the interleaving exists to remove.
//!
//! A `serving` section pins the KV-serving subsystem's headline
//! numbers: open-loop latency percentiles for a fixed seed and offered
//! load on two backend × topology points (the full grid lives in
//! `fig_serve`). Regressions in mailbox, scope, or DMA cost show up
//! here as percentile drift.
//!
//! The JSON is hand-rolled (no serde in the workspace): one object per
//! case with `{states, ms}` per mode, plus totals.

use std::fmt::Write as _;
use std::time::Instant;

use pmc_apps::kvserve::{run_serve_session, KvServe, KvServeParams};
use pmc_apps::loadgen::LoadGenParams;
use pmc_apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc_apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc_bench::spread_controllers;
use pmc_core::conformance;
use pmc_core::interleave::{outcomes_counted, Limits};
use pmc_runtime::{BackendKind, LockKind, RunConfig, System};
use pmc_soc_sim::{SocConfig, Topology};

/// The 256-tile scale smoke: MOTION-EST (tiny inputs) on a 16×16 mesh.
/// Returns the rendered JSON object.
fn scale_entry() -> String {
    let (cols, rows) = (16usize, 16usize);
    let t0 = Instant::now();
    let r = RunConfig::new(BackendKind::Swcc)
        .topology(Topology::Mesh { cols, rows })
        .session()
        .workload(Workload::MotionEst, WorkloadParams::Tiny);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = r.engine_stats;
    assert!(r.report.makespan > 0 && stats.events > 0);
    format!(
        "{{\"workload\": \"{}\", \"backend\": \"swcc\", \"tiles\": {}, \
         \"topology\": \"mesh{cols}x{rows}\", \"makespan\": {}, \
         \"events\": {}, \"handoffs\": {}, \"peak_queue\": {}, \"ms\": {ms:.2}}}",
        r.workload.name(),
        cols * rows,
        r.report.makespan,
        stats.events,
        stats.handoffs,
        stats.peak_queue,
    )
}

/// One controller-scaling cell: a transfer-bound double-buffered DMA
/// stream on `tiles` tiles with `k` interleaved controllers. Returns
/// `(makespan, dma_bytes, per-port busy cycles)`.
fn stream_cell(topology: Topology, tiles: usize, k: usize) -> (u64, u64, Vec<u64>) {
    let mut cfg = SocConfig { n_tiles: tiles, topology, ..SocConfig::default() };
    cfg.mem_controllers = spread_controllers(tiles, k);
    let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
    sys.set_dma_burst(1024);
    sys.set_dma_channels(2);
    let params =
        StreamCopyParams { n_tasks: 2 * tiles as u32, task_bytes: 4096, compute_per_word: 0 };
    let app = StreamCopy::build(&mut sys, params);
    let app_ref = &app;
    let report = sys.run(
        (0..tiles)
            .map(|_| -> pmc_runtime::Program<'_> {
                Box::new(move |ctx| app_ref.worker(ctx, StreamMode::DmaDouble))
            })
            .collect(),
    );
    let ports = sys.soc().port_report().iter().map(|p| p.busy).collect();
    (report.makespan, report.aggregate().dma_bytes, ports)
}

/// The `controller_scaling` section: 1/2/4 controllers × mesh/torus at
/// 16 (and, unless smoking, 256) tiles. Returns the rendered JSON array
/// and asserts the headline claim: at the largest tile count, aggregate
/// SDRAM bandwidth grows with the controller count.
fn controller_scaling_entry(smoke: bool) -> String {
    let grids: &[usize] = if smoke { &[4] } else { &[4, 16] };
    let mut rows = Vec::new();
    for &side in grids {
        let tiles = side * side;
        for topology in
            [Topology::Mesh { cols: side, rows: side }, Topology::Torus { cols: side, rows: side }]
        {
            let mut bw = Vec::new();
            for k in [1usize, 2, 4] {
                let t0 = Instant::now();
                let (makespan, bytes, ports) = stream_cell(topology, tiles, k);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let kbw = bytes as f64 * 1000.0 / makespan as f64;
                bw.push(kbw);
                assert!(
                    ports.iter().filter(|&&b| b > 0).count() == k.min(ports.len()),
                    "stripes must exercise every configured controller: {ports:?}"
                );
                rows.push(format!(
                    "{{\"topology\": \"{}{side}x{side}\", \"tiles\": {tiles}, \
                     \"controllers\": {k}, \"makespan\": {makespan}, \"dma_bytes\": {bytes}, \
                     \"bytes_per_kcycle\": {kbw:.1}, \"port_busy\": [{}], \"ms\": {ms:.2}}}",
                    topology.name(),
                    ports.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", "),
                ));
            }
            if tiles >= 64 {
                assert!(
                    bw[2] > bw[0],
                    "aggregate SDRAM bandwidth must improve with the controller count at \
                     {tiles} tiles on the {}: {bw:?}",
                    topology.name()
                );
            }
        }
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// The `serving` section: the KV subsystem at one pinned seed and
/// offered load, on two representative backend × topology points.
/// Every run must serve the whole schedule and pass the consistency
/// monitor — the percentiles are only worth pinning if the runs they
/// summarise are clean.
fn serving_entry(smoke: bool) -> String {
    let load = LoadGenParams {
        n_requests: if smoke { 24 } else { 64 },
        mean_interarrival: 600,
        ..LoadGenParams::default()
    };
    let params = KvServeParams { load, mailbox_depth: 8, migrate_at: None };
    let n_tiles = KvServe::tiles_needed(&params).next_multiple_of(2);
    let (cols, rows) = pmc_bench::mesh_dims(n_tiles);
    let mut out = Vec::new();
    for (backend, topology) in [
        (BackendKind::Swcc, Topology::Mesh { cols, rows }),
        (BackendKind::Spm, Topology::Torus { cols, rows }),
    ] {
        let t0 = Instant::now();
        let session = RunConfig::new(backend)
            .topology(topology)
            .n_tiles(n_tiles)
            .telemetry(true)
            .trace(true)
            .mem_controllers(spread_controllers(n_tiles, 2))
            .session();
        let r = run_serve_session(&session, &params);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.served.iter().sum::<u32>(), load.n_requests);
        let v = pmc_runtime::monitor::validate(&r.trace);
        assert!(v.is_empty(), "serving run must be monitor-clean: {v:?}");
        out.push(format!(
            "{{\"backend\": \"{}\", \"topology\": \"{}{cols}x{rows}\", \"tiles\": {n_tiles}, \
             \"controllers\": 2, \"mean_interarrival\": {}, \"p50\": {}, \"p99\": {}, \
             \"max\": {}, \"makespan\": {}, \"ms\": {ms:.2}}}",
            backend.name(),
            topology.name(),
            load.mean_interarrival,
            r.latency_percentile(50.0),
            r.latency_percentile(99.0),
            r.latencies.iter().max().copied().unwrap_or(0),
            r.report.makespan,
        ));
    }
    format!("[\n    {}\n  ]", out.join(",\n    "))
}

type ModeLimits = fn() -> Limits;

const MODES: [(&str, ModeLimits); 4] = [
    ("plain", || Limits { memoize: false, por: false, ..Limits::default() }),
    ("memoized", Limits::memoized),
    ("por", Limits::reduced),
    ("por_memoized", Limits::reduced_memoized),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(unknown) = args.iter().find(|a| *a != "--write" && *a != "--smoke") {
        eprintln!("unknown flag {unknown}; usage: bench_sweep [--write] [--smoke]");
        std::process::exit(2);
    }
    // The smoke tier caps the budget so a CI tick stays a tick; exhausted
    // cells are reported as null rather than failing.
    let max_states = if smoke { 200_000 } else { 50_000_000 };

    let mut json = String::new();
    json.push_str("{\n  \"cases\": [\n");
    let mut totals = [(0usize, 0.0f64); MODES.len()];
    let cases = conformance::cases();
    for (ci, case) in cases.iter().enumerate() {
        let lowered = conformance::lower(&case.program);
        let instrs: usize = lowered.threads.iter().map(|t| t.len()).sum();
        let _ = write!(json, "    {{\"name\": \"{}\", \"instrs\": {instrs}", case.name);
        let mut outcome_sets = Vec::new();
        for (mi, (mode, limits)) in MODES.iter().enumerate() {
            let lim = Limits { max_states, ..limits() };
            let t0 = Instant::now();
            match outcomes_counted(&lowered, lim) {
                Ok((outs, states)) => {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    totals[mi].0 += states;
                    totals[mi].1 += ms;
                    let _ = write!(json, ", \"{mode}\": {{\"states\": {states}, \"ms\": {ms:.2}}}");
                    outcome_sets.push(outs);
                }
                Err(_) => {
                    let _ = write!(json, ", \"{mode}\": null");
                    eprintln!("{}: {mode} exhausted {max_states} states", case.name);
                }
            }
        }
        // Belt and braces: every mode that completed must agree.
        for pair in outcome_sets.windows(2) {
            assert_eq!(pair[0], pair[1], "{}: outcome sets differ across modes", case.name);
        }
        json.push_str(if ci + 1 < cases.len() { "},\n" } else { "}\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"scale\": {},\n  \"controller_scaling\": {},\n  \"serving\": {},\n  \"totals\": {{",
        scale_entry(),
        controller_scaling_entry(smoke),
        serving_entry(smoke)
    );
    for (mi, (mode, _)) in MODES.iter().enumerate() {
        let (states, ms) = totals[mi];
        let sep = if mi == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{mode}\": {{\"states\": {states}, \"ms\": {ms:.2}}}");
    }
    json.push_str("}\n}\n");

    print!("{json}");
    if write {
        std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
        eprintln!("wrote BENCH_sweep.json");
    }
}
