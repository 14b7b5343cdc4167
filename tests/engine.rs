//! The execution engine pinned against its own past: determinism
//! between two runs in one process, and golden digests of every modeled
//! output against the committed tables in `tests/golden/`
//! (`catalogue.txt` for the litmus catalogue, `workloads.txt` for the
//! application-scale runs).
//!
//! Each digest is FNV-1a over the `Debug` text of a run's modeled
//! outputs: the outcome, every trace record, the `RunReport` counters
//! and makespan, and the checksum and per-request latencies where the
//! run has them. Host scheduling statistics (`EngineStats`) stay out of
//! the digest; they measure how the simulator got there, not what it
//! modeled. Any change to commit order, timing or the runtime's trace
//! protocol moves some digest.
//!
//! On a mismatch a test writes its full actual table to
//! `target/golden/<table>.actual.txt` and fails, listing the labels that
//! changed. When the change is intended, regenerate the table by copying
//! that file over `tests/golden/<table>.txt`.

use std::collections::BTreeMap;
use std::fmt::Debug;

use pmc::apps::kvserve::{run_serve, KvServeParams};
use pmc::apps::loadgen::LoadGenParams;
use pmc::apps::stream::{StreamCopy, StreamCopyParams, StreamMode};
use pmc::apps::workload::{SessionWorkload, Workload, WorkloadParams};
use pmc::model::conformance;
use pmc::runtime::litmus_exec::LitmusRun;
use pmc::runtime::{BackendKind, LockKind, RunConfig, System};
use pmc::sim::telemetry::perfetto_json;
use pmc::sim::{SocConfig, Topology};

const HEADER: &str = "# label digest (FNV-1a of the modeled outputs; see tests/engine.rs)\n";

const LOCK_KINDS: [LockKind; 2] = [LockKind::Sdram, LockKind::Distributed];

fn litmus(
    program: &pmc::model::litmus::Program,
    backend: BackendKind,
    telemetry: bool,
) -> LitmusRun {
    RunConfig::new(backend).lock(LockKind::Sdram).telemetry(telemetry).session().litmus(program)
}

/// Same session ⇒ byte-identical telemetry export and trace across two
/// runs.
#[test]
fn des_runs_are_byte_identical() {
    let cases = ["mp_annotated", "dma_mp_put"];
    for name in cases {
        let case = conformance::cases().into_iter().find(|c| c.name == name).unwrap();
        let (a, b) = (
            litmus(&case.program, BackendKind::Spm, true),
            litmus(&case.program, BackendKind::Spm, true),
        );
        assert_eq!(a.outcome, b.outcome, "{name}");
        assert_eq!(a.trace, b.trace, "{name}: traces must be byte-identical");
        assert_eq!(
            perfetto_json(&a.cfg, &a.telemetry, &a.trace),
            perfetto_json(&b.cfg, &b.telemetry, &b.trace),
            "{name}: telemetry export must be byte-identical"
        );
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report), "{name}");
    }
}

/// FNV-1a over `Debug` text, the same digest `perfbench` fingerprints
/// its runs with.
fn digest(outputs: impl Debug) -> u64 {
    format!("{outputs:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Topology shapes of the conformance sweep: two columns, at least two
/// rows.
fn topologies_for(threads: usize) -> [(&'static str, Topology); 3] {
    let rows = threads.div_ceil(2).max(2);
    [
        ("ring", Topology::Ring),
        ("mesh", Topology::Mesh { cols: 2, rows }),
        ("torus", Topology::Torus { cols: 2, rows }),
    ]
}

/// Every catalogue case × back-end × lock kind × topology × 1 and 2
/// memory controllers (clamped to the machine). The two-controller list
/// is reversed so the litmus objects, which all sit in the first 4 KiB
/// stripe, are served by tile 1 rather than by the default controller.
fn litmus_digests(case: &conformance::Case) -> Vec<(String, u64)> {
    let threads = case.program.threads.len().max(1);
    let mut out = Vec::new();
    for backend in BackendKind::ALL {
        for lock in LOCK_KINDS {
            for (topo_name, topo) in topologies_for(threads) {
                for ctrls in [1usize, 2] {
                    let run = RunConfig::new(backend)
                        .lock(lock)
                        .topology(topo)
                        .mem_controllers((0..ctrls.min(threads)).rev().collect())
                        .session()
                        .litmus(&case.program);
                    let label = format!(
                        "litmus/{}/{}/{lock:?}/{topo_name}/{ctrls}ctrl",
                        case.name,
                        backend.name()
                    );
                    out.push((label, digest((&run.outcome, &run.trace, &run.report))));
                }
            }
        }
    }
    out
}

/// Perfetto exports of an annotated and a DMA litmus, per back-end.
fn perfetto_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for name in ["mp_annotated", "dma_mp_put"] {
        let case = conformance::cases().into_iter().find(|c| c.name == name).unwrap();
        for backend in BackendKind::ALL {
            let run = litmus(&case.program, backend, true);
            let json = perfetto_json(&run.cfg, &run.telemetry, &run.trace);
            out.push((format!("perfetto/{name}/{}", backend.name()), digest(json)));
        }
    }
    out
}

/// Application scale: RAYTRACE Tiny on four tiles, traced.
fn raytrace_digest() -> Vec<(String, u64)> {
    let r = RunConfig::new(BackendKind::Swcc)
        .n_tiles(4)
        .trace(true)
        .session()
        .workload(Workload::Raytrace, WorkloadParams::Tiny);
    let stats = r.engine_stats;
    assert!(stats.events > 0 && stats.handoffs > 0 && stats.peak_queue >= 1, "{stats:?}");
    assert!(stats.handoffs <= stats.events, "a handoff only happens on a heap event: {stats:?}");
    vec![("raytrace/tiny/swcc/4tiles".into(), digest((&r.trace, &r.report, r.checksum)))]
}

/// One small serving cell per back-end.
fn serve_digests() -> Vec<(String, u64)> {
    let load = LoadGenParams {
        n_requests: 32,
        n_shards: 4,
        keys_per_shard: 16,
        mean_interarrival: 500,
        mean_service: 60,
        ..Default::default()
    };
    let params = KvServeParams { load, mailbox_depth: 8, migrate_at: None };
    BackendKind::ALL
        .into_iter()
        .map(|backend| {
            let r = run_serve(backend, &params);
            let outputs = (&r.latencies, &r.served, &r.trace, &r.report, r.checksum);
            (format!("serve/{}", backend.name()), digest(outputs))
        })
        .collect()
}

/// A double-buffered DMA stream on two channels, traced.
fn stream_digest() -> Vec<(String, u64)> {
    let mut cfg = SocConfig::small(4);
    cfg.local_mem_size = 128 << 10;
    cfg.trace = true;
    let mut sys = System::new(cfg, BackendKind::Spm, LockKind::Sdram);
    sys.set_dma_burst(1024);
    sys.set_dma_channels(2);
    let params = StreamCopyParams { n_tasks: 8, task_bytes: 2048, compute_per_word: 1 };
    let app = StreamCopy::build(&mut sys, params);
    let app_ref = &app;
    let report = sys.run(
        (0..4)
            .map(|_| -> pmc::runtime::Program<'_> {
                Box::new(move |ctx| app_ref.worker(ctx, StreamMode::DmaDouble))
            })
            .collect(),
    );
    let trace = sys.soc().take_trace();
    vec![("stream/dma-double/spm".into(), digest((&trace, &report, app.checksum(&sys))))]
}

fn parse_table(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, d) = l.rsplit_once(' ').unwrap_or_else(|| panic!("bad digest line `{l}`"));
            (label.to_string(), d.to_string())
        })
        .collect()
}

/// Compares `rows` with the committed golden table `name`; on a
/// mismatch writes the full actual table and fails with the changed
/// labels.
fn check_table(name: &str, rows: Vec<(String, u64)>) {
    let root = env!("CARGO_MANIFEST_DIR");
    let golden_path = format!("{root}/tests/golden/{name}.txt");
    let actual_path = format!("{root}/target/golden/{name}.actual.txt");
    let mut actual = BTreeMap::new();
    for (label, d) in rows {
        assert!(actual.insert(label.clone(), format!("{d:016x}")).is_none(), "{label}");
    }
    let golden = parse_table(&std::fs::read_to_string(&golden_path).unwrap_or_default());
    if actual == golden {
        return;
    }
    let mut text = HEADER.to_string();
    for (label, d) in &actual {
        text.push_str(&format!("{label} {d}\n"));
    }
    std::fs::create_dir_all(std::path::Path::new(&actual_path).parent().unwrap()).unwrap();
    std::fs::write(&actual_path, text).unwrap();
    let mut diffs = Vec::new();
    for (label, d) in &actual {
        match golden.get(label) {
            Some(g) if g == d => {}
            Some(g) => diffs.push(format!("changed {label}: {g} -> {d}")),
            None => diffs.push(format!("new     {label}: {d}")),
        }
    }
    for label in golden.keys().filter(|l| !actual.contains_key(*l)) {
        diffs.push(format!("missing {label}"));
    }
    panic!(
        "{} of {} golden digests differ (full table written to {actual_path}; copy it over \
         {golden_path} if the change is intended):\n{}",
        diffs.len(),
        actual.len().max(golden.len()),
        diffs.join("\n")
    );
}

/// Every litmus catalogue run and Perfetto export matches
/// `tests/golden/catalogue.txt`.
#[test]
fn catalogue_digests_match() {
    let mut rows: Vec<(String, u64)> =
        conformance::cases().iter().flat_map(litmus_digests).collect();
    rows.extend(perfetto_digests());
    check_table("catalogue", rows);
}

/// The application-scale runs (RAYTRACE, serving, DMA streaming) match
/// `tests/golden/workloads.txt`.
#[test]
fn workload_digests_match() {
    let mut rows = raytrace_digest();
    rows.extend(serve_digests());
    rows.extend(stream_digest());
    check_table("workloads", rows);
}
