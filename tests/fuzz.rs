//! Differential fuzzing of the portability claim: seeded random litmus
//! programs ([`pmc::model::fuzz`]) are enumerated by the PMC model and
//! then executed on every simulated back-end × both lock kinds × all
//! three topologies. Every simulator outcome must fall inside the
//! model's allowed set and every trace must pass
//! [`monitor::validate`] — the same two gates as the hand-written
//! conformance catalogue, but over an unbounded family of programs.
//!
//! Knobs (all optional, defaults give a fast deterministic smoke tier):
//!
//! * `PMC_FUZZ_SEED`  — base seed, decimal or `0x`-hex (default
//!   `0xC0FFEE`). Case `i` uses `base + i`, so a failure report's seed
//!   reproduces the exact program with `PMC_FUZZ_CASES=1`.
//! * `PMC_FUZZ_CASES` — number of generated programs (default 16; the
//!   nightly CI tier runs hundreds with the run id as seed).
//! * `PMC_TOPOLOGY`   — `ring` / `mesh` / `torus` restricts the topology
//!   axis, exactly as in `tests/conformance.rs`.
//! * `PMC_MEM_CONTROLLERS` — `<k>` (k ≥ 2) reruns every case with the
//!   SDRAM offset space interleaved over k controllers, exactly as in
//!   `tests/conformance.rs`; unset fuzzes the single-controller default.
//!
//! Each program is enumerated twice — memoized and POR+memoized — and
//! the two outcome sets are asserted equal, so partial-order reduction
//! is re-verified on every random program the fuzzer ever feeds through,
//! not just the fixed catalogue. Programs whose state space exceeds the
//! per-case budget are skipped and counted; the test fails if the
//! generator's cost model lets too many escape.
//!
//! On a divergence the failing program is delta-debugged with
//! [`fuzz::shrink`] (re-running the exact failing back-end/lock/topology
//! configuration as the oracle), rendered, and written to
//! `target/fuzz-divergence-<seed>.txt` — together with a Perfetto
//! timeline of the failing configuration
//! (`target/fuzz-divergence-<seed>.trace.json`) — so CI can upload both
//! as artifacts; the panic message carries the seed and the shrunk
//! program.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pmc::model::conformance::{self, render_outcomes};
use pmc::model::fuzz::{self, GenConfig};
use pmc::model::interleave::{outcomes_with, Limits, Outcome};
use pmc::model::litmus::Program;
use pmc::runtime::monitor::validate;
use pmc::runtime::{BackendKind, LockKind, RunConfig};
use pmc::sim::telemetry::perfetto_json;
use pmc::sim::Topology;

const LOCK_KINDS: [LockKind; 2] = [LockKind::Sdram, LockKind::Distributed];

/// Per-case enumeration budget. Generated programs are cost-bounded, but
/// floating DMA performs still blow up occasionally; those cases are
/// skipped (and counted) rather than letting one seed stall the suite.
const MAX_STATES: usize = 200_000;

/// Check budget for the shrinker: each check enumerates and re-runs the
/// simulator a few times, so keep it bounded.
const SHRINK_CHECKS: usize = 200;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("{name}={v}: not a u64"))
        }
        Err(_) => default,
    }
}

/// Mesh shape for a litmus run (same policy as `tests/conformance.rs`).
fn mesh_for(threads: usize) -> Topology {
    Topology::Mesh { cols: 2, rows: threads.div_ceil(2).max(2) }
}

/// Torus shape: the mesh grid with wraparound links live.
fn torus_for(threads: usize) -> Topology {
    Topology::Torus { cols: 2, rows: threads.div_ceil(2).max(2) }
}

fn topologies_for(threads: usize) -> Vec<(&'static str, Topology)> {
    let filter = std::env::var("PMC_TOPOLOGY").unwrap_or_default();
    [("ring", Topology::Ring), ("mesh", mesh_for(threads)), ("torus", torus_for(threads))]
        .into_iter()
        .filter(|(name, _)| {
            !matches!(filter.as_str(), "ring" | "mesh" | "torus") || filter == *name
        })
        .collect()
}

/// The memory-controller list for the sweep (`PMC_MEM_CONTROLLERS=<k>`,
/// same policy as `tests/conformance.rs`): tiles `0..k` clamped to the
/// smallest machine the case runs on; unset or `k < 2` keeps the
/// single-controller default.
fn controllers_for(threads: usize) -> Vec<usize> {
    match std::env::var("PMC_MEM_CONTROLLERS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(k) if k >= 2 => (0..k.min(threads.max(1))).collect(),
        _ => Vec::new(),
    }
}

/// One simulator run of a fuzz program on an explicit axis tuple.
fn run_on(
    p: &Program,
    backend: BackendKind,
    lock: LockKind,
    topo: Topology,
    telemetry: bool,
) -> pmc::runtime::litmus_exec::LitmusRun {
    RunConfig::new(backend)
        .lock(lock)
        .topology(topo)
        .mem_controllers(controllers_for(p.threads.len().max(1)))
        .telemetry(telemetry)
        .session()
        .litmus(p)
}

/// Model-allowed outcome set of a (raw, un-lowered) fuzz program, or
/// `None` if enumeration exceeds the budget.
fn model_allowed(p: &Program, limits: Limits) -> Option<BTreeSet<Outcome>> {
    outcomes_with(&conformance::lower(p), limits).ok()
}

/// One simulator execution diverges from the model: outcome outside the
/// allowed set, or a dirty trace. This is the shrinking oracle; the
/// simulator is deterministic per configuration, but we re-run a few
/// times anyway so an intermittently-scheduled divergence still
/// reproduces under shrinking.
fn diverges(
    p: &Program,
    backend: BackendKind,
    lock: LockKind,
    topo: Topology,
    limits: Limits,
) -> bool {
    let Some(allowed) = model_allowed(p, limits) else {
        return false; // un-enumerable candidates are useless as witnesses
    };
    for _ in 0..4 {
        let run = run_on(p, backend, lock, topo, false);
        if !allowed.contains(&run.outcome) || !validate(&run.trace).is_empty() {
            return true;
        }
    }
    false
}

/// Fuzz one seed end to end. Returns `Ok(true)` if the case ran,
/// `Ok(false)` if it was skipped as too large, `Err(report)` on a
/// divergence (already shrunk and rendered).
fn fuzz_one(seed: u64, cfg: &GenConfig) -> Result<bool, String> {
    let program = fuzz::generate(seed, cfg);
    let memo = Limits { max_states: MAX_STATES, ..Limits::memoized() };
    let reduced = Limits { max_states: MAX_STATES, ..Limits::reduced_memoized() };
    let (Some(plain_set), Some(por_set)) =
        (model_allowed(&program, memo), model_allowed(&program, reduced))
    else {
        return Ok(false);
    };
    // Differential POR check on the random program itself.
    if plain_set != por_set {
        return Err(format!(
            "seed {seed:#x}: POR changed the outcome set!\nprogram:\n{}\nmemoized:\n{}\nPOR+memoized:\n{}",
            fuzz::render_program(&program),
            render_outcomes(&plain_set),
            render_outcomes(&por_set),
        ));
    }
    let allowed = por_set;
    assert!(!allowed.is_empty(), "seed {seed:#x}: empty model outcome set");

    let topologies = topologies_for(program.threads.len());
    for backend in BackendKind::ALL {
        for lock in LOCK_KINDS {
            for &(topo_name, topo) in &topologies {
                let run = run_on(&program, backend, lock, topo, false);
                let violations = validate(&run.trace);
                if allowed.contains(&run.outcome) && violations.is_empty() {
                    continue;
                }
                // Divergence: shrink against the exact failing
                // config, render, persist an artifact, and report the
                // seed.
                let shrunk = fuzz::shrink(&program, SHRINK_CHECKS, |cand| {
                    diverges(cand, backend, lock, topo, reduced)
                });
                let shrunk_allowed = model_allowed(&shrunk, reduced)
                    .map(|s| render_outcomes(&s))
                    .unwrap_or_else(|| "<enumeration exhausted>".into());
                let report = format!(
                    "seed {seed:#x} diverges on {}/{lock:?}/{topo_name}:\n\
                     outcome {:?}, {} monitor violation(s)\n\
                     allowed:\n{}\n\
                     original program:\n{}\n\
                     shrunk program:\n{}\n\
                     shrunk allowed outcomes:\n{}\n\
                     reproduce with: PMC_FUZZ_SEED={seed:#x} PMC_FUZZ_CASES=1 \
                     cargo test --test fuzz",
                    backend.name(),
                    run.outcome,
                    violations.len(),
                    render_outcomes(&allowed),
                    fuzz::render_program(&program),
                    fuzz::render_program(&shrunk),
                    shrunk_allowed,
                );
                let path = format!("target/fuzz-divergence-{seed:#x}.txt");
                let _ = std::fs::write(&path, &report);
                // Also export a Perfetto timeline of the failing
                // configuration (telemetry re-run; the simulator is
                // deterministic per configuration) for the CI
                // artifact.
                let telem = run_on(&program, backend, lock, topo, true);
                let trace_path = format!("target/fuzz-divergence-{seed:#x}.trace.json");
                let _ = std::fs::write(
                    &trace_path,
                    perfetto_json(&telem.cfg, &telem.telemetry, &telem.trace),
                );
                return Err(format!("{report}\n(artifacts: {path}, {trace_path})"));
            }
        }
    }
    Ok(true)
}

/// The fuzz tier: `PMC_FUZZ_CASES` seeded programs, each model-enumerated
/// (memoized and POR+memoized, differentially) and swept over 4 back-ends
/// × 2 lock kinds × the topology axis. Cases are distributed over worker
/// threads; any divergence fails the test with a shrunk, reproducible
/// counterexample.
#[test]
fn seeded_programs_never_escape_the_model() {
    let base_seed = env_u64("PMC_FUZZ_SEED", 0xC0FFEE);
    let cases = env_u64("PMC_FUZZ_CASES", 16) as usize;
    let cfg = GenConfig::default();

    let next = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(cases.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cases {
                    return;
                }
                match fuzz_one(base_seed.wrapping_add(i as u64), &cfg) {
                    Ok(true) => {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    Err(report) => errors.lock().unwrap().push(report),
                }
            });
        }
    });

    let errors = errors.into_inner().unwrap();
    assert!(errors.is_empty(), "{} divergence(s):\n\n{}", errors.len(), errors.join("\n\n"));
    let ran = ran.load(Ordering::Relaxed);
    // The generator's cost model should keep the vast majority of seeds
    // enumerable within budget; a collapse here means the budget logic
    // regressed, and the suite would be fuzzing nothing.
    assert!(
        ran * 2 >= cases,
        "only {ran}/{cases} cases fit the enumeration budget — generator cost model regressed?"
    );
}
