//! **fig_serve** — latency percentiles vs offered load for the sharded
//! in-scratchpad KV service ([`pmc_apps::kvserve`]).
//!
//! An open-loop, seeded load generator ([`pmc_apps::loadgen`]) replays
//! the same request schedule against every cell of the sweep:
//!
//! 1. the **serving table** — p50/p90/p99/max request latency (cycles)
//!    at each offered load, across back-ends × {ring, mesh, torus} ×
//!    {1, 2} interleaved SDRAM controllers;
//! 2. a **rebalancing row** — under heavy Zipf skew, p99 with and
//!    without the mid-run hot-shard migration (tile-to-tile DMA copy to
//!    a spare tile).
//!
//! Every run records the annotation trace and must pass
//! [`pmc_runtime::monitor::validate`]; the report is deterministic at a
//! pinned seed, so `--json` output is byte-identical across repeated
//! runs (wall-clock times are deliberately kept out of the JSON).
//!
//! Usage: `fig_serve [--requests N] [--shards S] [--seed X] [--smoke]
//! [--json] [--trace FILE]`
//!
//! `--trace FILE` additionally exports one representative run (SWCC,
//! mesh, 2 controllers) as Perfetto JSON.

use pmc_apps::kvserve::{run_serve_session, KvServe, KvServeParams, ServeReport};
use pmc_apps::loadgen::LoadGenParams;
use pmc_bench::{arg_flag, arg_str, arg_u32, json, mesh_dims, spread_controllers};
use pmc_runtime::{monitor, BackendKind, RunConfig};
use pmc_soc_sim::telemetry::perfetto_json;
use pmc_soc_sim::Topology;

fn topo(name: &str, n_tiles: usize) -> Topology {
    let (cols, rows) = mesh_dims(n_tiles);
    match name {
        "ring" => Topology::Ring,
        "mesh" => Topology::Mesh { cols, rows },
        "torus" => Topology::Torus { cols, rows },
        other => panic!("unknown topology {other}"),
    }
}

struct Cell {
    backend: BackendKind,
    topology: &'static str,
    controllers: usize,
    mean_interarrival: u64,
    report: ServeReport,
}

fn run_cell(
    backend: BackendKind,
    topology: &'static str,
    controllers: usize,
    load: LoadGenParams,
    migrate_at: Option<u32>,
) -> Cell {
    let params = KvServeParams { load, mailbox_depth: 8, migrate_at };
    // Round up to an even tile count so mesh/torus cells get a real
    // 2-D factorisation rather than a 1×n line; the extra tile idles.
    let n_tiles = KvServe::tiles_needed(&params).next_multiple_of(2);
    let session = RunConfig::new(backend)
        .topology(topo(topology, n_tiles))
        .n_tiles(n_tiles)
        .telemetry(true)
        .trace(true)
        .mem_controllers(spread_controllers(n_tiles, controllers))
        .session();
    let report = run_serve_session(&session, &params);
    // Hard gates on every cell: nothing lost, nothing unmeasured,
    // nothing the consistency monitor objects to.
    let total: u32 = report.served.iter().sum();
    assert_eq!(total, load.n_requests, "{backend:?}/{topology}: lost requests");
    assert!(report.latencies.iter().all(|&l| l > 0), "{backend:?}/{topology}: unmeasured request");
    let violations = monitor::validate(&report.trace);
    assert!(violations.is_empty(), "{backend:?}/{topology}: {violations:?}");
    Cell { backend, topology, controllers, mean_interarrival: load.mean_interarrival, report }
}

fn cell_json(c: &Cell) -> String {
    let r = &c.report;
    let served: Vec<String> = r.served.iter().map(|s| s.to_string()).collect();
    // Offered load in requests per kilocycle, from the schedule knob.
    let offered = 1000.0 / c.mean_interarrival as f64;
    json::obj(&[
        ("backend", json::str(c.backend.name())),
        ("topology", json::str(c.topology)),
        ("tiles", c.report.cfg.n_tiles.to_string()),
        ("controllers", c.controllers.to_string()),
        ("mean_interarrival", c.mean_interarrival.to_string()),
        ("offered_req_per_kcycle", json::num((offered * 1000.0).round() / 1000.0)),
        ("p50", r.latency_percentile(50.0).to_string()),
        ("p90", r.latency_percentile(90.0).to_string()),
        ("p99", r.latency_percentile(99.0).to_string()),
        ("max", r.latencies.iter().copied().max().unwrap_or(0).to_string()),
        ("makespan", r.report.makespan.to_string()),
        ("served", format!("[{}]", served.join(","))),
        ("checksum", json::str(&format!("{:#018x}", r.checksum))),
    ])
}

fn main() {
    let smoke = arg_flag("--smoke");
    let as_json = arg_flag("--json");
    let seed = arg_u32("--seed", 0xC0FFEE) as u64;
    let n_requests = arg_u32("--requests", if smoke { 32 } else { 96 });
    let n_shards = arg_u32("--shards", 4);
    let trace_out = arg_str("--trace", "");

    let base = LoadGenParams {
        n_requests,
        n_shards,
        keys_per_shard: 32,
        mean_service: 80,
        seed,
        ..Default::default()
    };

    let backends: &[BackendKind] = if smoke {
        &[BackendKind::Swcc, BackendKind::Spm]
    } else {
        &[BackendKind::Uncached, BackendKind::Swcc, BackendKind::Dsm, BackendKind::Spm]
    };
    let loads: &[u64] = if smoke { &[600] } else { &[1200, 600, 300] };
    let topologies = ["ring", "mesh", "torus"];
    let controller_counts = [1usize, 2];

    // 1. The serving table.
    let mut cells = Vec::new();
    for &backend in backends {
        for topology in topologies {
            for controllers in controller_counts {
                for &ia in loads {
                    let load = LoadGenParams { mean_interarrival: ia, ..base };
                    cells.push(run_cell(backend, topology, controllers, load, None));
                }
            }
        }
    }

    // 2. Rebalancing under heavy skew: migrate the hot shard halfway.
    let skewed = LoadGenParams { zipf_s: 2.0, mean_interarrival: 400, ..base };
    let baseline = run_cell(BackendKind::Swcc, "mesh", 2, skewed, None);
    let migrated = run_cell(BackendKind::Swcc, "mesh", 2, skewed, Some(n_requests / 2));
    let spare_served = *migrated.report.served.last().unwrap();
    assert!(spare_served > 0, "rebalance must reroute traffic to the spare");

    // Optional Perfetto export of a representative run.
    if !trace_out.is_empty() {
        let c = cells
            .iter()
            .find(|c| c.backend == BackendKind::Swcc && c.topology == "mesh" && c.controllers == 2)
            .expect("representative cell");
        let ja = perfetto_json(&c.report.cfg, &c.report.telemetry, &c.report.trace);
        std::fs::write(&trace_out, &ja).expect("write trace file");
        eprintln!("wrote {trace_out}");
    }

    if as_json {
        let rows: Vec<String> = cells.iter().map(cell_json).collect();
        let doc = json::obj(&[
            ("seed", seed.to_string()),
            ("requests", n_requests.to_string()),
            ("shards", n_shards.to_string()),
            ("serving", format!("[\n  {}\n]", rows.join(",\n  "))),
            (
                "rebalance",
                json::obj(&[
                    ("zipf_s", json::num(2.0)),
                    ("baseline_p99", baseline.report.latency_percentile(99.0).to_string()),
                    ("migrated_p99", migrated.report.latency_percentile(99.0).to_string()),
                    ("spare_served", spare_served.to_string()),
                ]),
            ),
        ]);
        println!("{doc}");
        return;
    }

    println!("fig_serve — open-loop serving latency vs offered load (seed {seed})");
    println!(
        "\n{:<9} {:<6} {:>4} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "backend", "topo", "ctrl", "inter", "offered/k", "p50", "p90", "p99", "max"
    );
    for c in &cells {
        let r = &c.report;
        println!(
            "{:<9} {:<6} {:>4} {:>8} {:>10.3} {:>8} {:>8} {:>8} {:>8}",
            c.backend.name(),
            c.topology,
            c.controllers,
            c.mean_interarrival,
            1000.0 / c.mean_interarrival as f64,
            r.latency_percentile(50.0),
            r.latency_percentile(90.0),
            r.latency_percentile(99.0),
            r.latencies.iter().copied().max().unwrap_or(0),
        );
    }
    println!(
        "\nrebalance (zipf_s=2.0, swcc/mesh/2ctrl): baseline p99 {} → migrated p99 {} \
         ({} requests rerouted to the spare tile)",
        baseline.report.latency_percentile(99.0),
        migrated.report.latency_percentile(99.0),
        spare_served
    );
}
