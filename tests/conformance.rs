//! Differential conformance harness: the entire litmus catalogue swept
//! over every simulated back-end, both lock kinds and both interconnect
//! topologies, validated two ways against the PMC model:
//!
//! 1. **outcome membership** — each traced simulation's final registers
//!    must fall inside the model enumerator's allowed-outcome set for the
//!    canonically lowered program ([`conformance::lower`]: the runtime
//!    only writes under `entry_x`, so bare model writes become momentary
//!    acquire/write/release windows);
//! 2. **trace validity** — every run's annotation trace must satisfy
//!    [`monitor::validate`] (mutual exclusion, freshness under lock,
//!    slow-read monotonicity) with zero violations.
//!
//! The **topology axis** is the portability gate for the interconnect:
//! the model's outcome sets know nothing about rings, meshes or tori,
//! so a mesh or torus run escaping the set (or dirtying a trace) would
//! mean the consistency machinery silently depends on ring routing. Set
//! `PMC_TOPOLOGY=ring`, `PMC_TOPOLOGY=mesh` or `PMC_TOPOLOGY=torus` to
//! restrict the sweep to one topology (the CI matrix does); by default
//! all three are swept.
//!
//! The **memory-controller axis** gates the scale-out memory system:
//! set `PMC_MEM_CONTROLLERS=<k>` (k ≥ 2) to rerun the whole sweep with
//! the SDRAM offset space interleaved over k controllers — outcome sets
//! and traces must not notice where the bytes physically live. Unset
//! sweeps the single-controller default.
//!
//! Golden snapshots of the model-level outcome sets (the paper's
//! Figs. 1–6 ground truth) are pinned in [`conformance::cases`] and
//! re-verified here, so any model drift fails the same suite that checks
//! the back-ends.

use std::collections::BTreeSet;

use pmc::model::conformance::{self, render_outcomes, sweep_limits, verify_golden};
use pmc::model::interleave::{outcomes_with, Outcome};
use pmc::runtime::monitor::validate;
use pmc::runtime::{BackendKind, LockKind, RunConfig, System};
use pmc::sim::telemetry::perfetto_json;
use pmc::sim::{SocConfig, Topology};

const LOCK_KINDS: [LockKind; 2] = [LockKind::Sdram, LockKind::Distributed];

/// Mesh shape for a litmus run: two columns, at least two rows, so every
/// XY route can exercise both dimensions and surplus tiles idle.
fn mesh_for(threads: usize) -> Topology {
    Topology::Mesh { cols: 2, rows: threads.div_ceil(2).max(2) }
}

/// Torus shape for a litmus run: same grid as [`mesh_for`], with the
/// wraparound links live.
fn torus_for(threads: usize) -> Topology {
    Topology::Torus { cols: 2, rows: threads.div_ceil(2).max(2) }
}

/// The topologies to sweep, honouring the `PMC_TOPOLOGY` filter
/// (`ring` / `mesh` / `torus`; unset or anything else sweeps all three).
fn topologies_for(threads: usize) -> Vec<(&'static str, Topology)> {
    let filter = std::env::var("PMC_TOPOLOGY").unwrap_or_default();
    [("ring", Topology::Ring), ("mesh", mesh_for(threads)), ("torus", torus_for(threads))]
        .into_iter()
        .filter(|(name, _)| {
            !matches!(filter.as_str(), "ring" | "mesh" | "torus") || filter == *name
        })
        .collect()
}

/// The memory-controller list to sweep with, honouring
/// `PMC_MEM_CONTROLLERS=<k>`: tiles `0..k` (clamped to the smallest
/// machine the case can run on, so they are in range on every topology)
/// with the SDRAM offset space interleaved across them. Unset, anything
/// unparsable, or `k < 2` keeps the single-controller default.
fn controllers_for(threads: usize) -> (String, Vec<usize>) {
    match std::env::var("PMC_MEM_CONTROLLERS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(k) if k >= 2 => {
            let k = k.min(threads.max(1));
            (format!("{k}ctrl"), (0..k).collect())
        }
        _ => ("1ctrl".to_string(), Vec::new()),
    }
}

/// Sweep one case over 4 back-ends × 2 lock kinds × the topology axis,
/// returning every divergence as a message instead of
/// panicking (the sweep runs cases on worker threads and wants all
/// failures, not the first).
fn sweep_case(case: &conformance::Case) -> Vec<String> {
    let mut errors = Vec::new();
    let lowered = conformance::lower(&case.program);
    let allowed: BTreeSet<Outcome> = match outcomes_with(&lowered, sweep_limits()) {
        Ok(outs) => outs,
        Err(e) => return vec![format!("{}: {e}", case.name)],
    };
    if allowed.is_empty() {
        return vec![format!("{}: empty model outcome set", case.name)];
    }
    let threads = case.program.threads.len().max(1);
    let topologies = topologies_for(threads);
    let (ctrl_name, ctrls) = controllers_for(threads);
    for backend in BackendKind::ALL {
        for lock in LOCK_KINDS {
            for &(topo_name, topo) in &topologies {
                let session = RunConfig::new(backend)
                    .lock(lock)
                    .topology(topo)
                    .mem_controllers(ctrls.clone())
                    .session();
                let run = session.litmus(&case.program);
                let mut config_errors = Vec::new();
                if !allowed.contains(&run.outcome) {
                    config_errors.push(format!(
                        "{}/{}/{lock:?}/{topo_name}/{ctrl_name}: simulator \
                         outcome {:?} outside the model's allowed set:\n{}",
                        case.name,
                        backend.name(),
                        run.outcome,
                        render_outcomes(&allowed),
                    ));
                }
                let violations = validate(&run.trace);
                if !violations.is_empty() {
                    config_errors.push(format!(
                        "{}/{}/{lock:?}/{topo_name}/{ctrl_name}: monitor \
                         violations: {violations:#?}",
                        case.name,
                        backend.name(),
                    ));
                }
                if !config_errors.is_empty() {
                    // Re-run the exact failing configuration with
                    // telemetry and drop a Perfetto timeline next to
                    // the failure report, so CI uploads an openable
                    // trace.
                    let telem = RunConfig::new(backend)
                        .lock(lock)
                        .topology(topo)
                        .mem_controllers(ctrls.clone())
                        .telemetry(true)
                        .session()
                        .litmus(&case.program);
                    let path = format!(
                        "target/conformance-{}-{}-{lock:?}-{topo_name}\
                         -{ctrl_name}.trace.json",
                        case.name,
                        backend.name(),
                    );
                    let json = perfetto_json(&telem.cfg, &telem.telemetry, &telem.trace);
                    if std::fs::write(&path, json).is_ok() {
                        for e in &mut config_errors {
                            e.push_str(&format!("\n(trace artifact: {path})"));
                        }
                    }
                    errors.extend(config_errors);
                }
            }
        }
    }
    errors
}

/// The tentpole sweep: catalogue × 4 back-ends × 2 lock kinds × 3
/// topologies (× the controller axis). Every simulator outcome inside
/// the model set, every trace clean — on the mesh and torus exactly as
/// on the ring, with interleaved controllers exactly as with one. Cases
/// are independent (each run builds its own `System`), so they are spread
/// over worker threads and all divergences are reported together.
#[test]
fn catalogue_sweep_outcomes_within_model_and_traces_clean() {
    let cases = conformance::cases();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let errors: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let workers =
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(cases.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(case) = cases.get(i) else { return };
                let case_errors = sweep_case(case);
                if !case_errors.is_empty() {
                    errors.lock().unwrap().extend(case_errors);
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap();
    assert!(errors.is_empty(), "{} divergence(s):\n{}", errors.len(), errors.join("\n"));
}

/// The golden outcome-set snapshots (paper Figs. 1–6 programs) match the
/// enumerator bit-for-bit.
#[test]
fn golden_outcome_sets_are_pinned() {
    for case in conformance::cases() {
        if let Err(msg) = verify_golden(&case) {
            panic!("{msg}");
        }
    }
}

/// Repeated sweeps of a racy case accumulate only model-allowed outcomes:
/// perturbing the poll cadence via different lock kinds, back-ends and
/// topologies exercises different interleavings, and none may escape
/// the set.
#[test]
fn unfenced_mp_never_escapes_model_set() {
    let case = conformance::cases().into_iter().find(|c| c.name == "mp_unfenced").unwrap();
    let allowed = outcomes_with(&conformance::lower(&case.program), sweep_limits()).unwrap();
    let threads = case.program.threads.len().max(1);
    let (_, ctrls) = controllers_for(threads);
    let mut observed: BTreeSet<Outcome> = BTreeSet::new();
    for backend in BackendKind::ALL {
        for lock in LOCK_KINDS {
            for (topo_name, topo) in topologies_for(threads) {
                let run = RunConfig::new(backend)
                    .lock(lock)
                    .topology(topo)
                    .mem_controllers(ctrls.clone())
                    .session()
                    .litmus(&case.program);
                assert!(allowed.contains(&run.outcome), "{}/{lock:?}/{topo_name}", backend.name());
                observed.insert(run.outcome);
            }
        }
    }
    // Every observation is one of the two model outcomes (42 always; 0
    // additionally on back-ends where the flag outruns X).
    assert!(!observed.is_empty());
    for o in &observed {
        assert!(allowed.contains(o));
    }
}

/// The harness is falsifiable: a deliberately corrupted trace (exclusive
/// scopes overlapping) is flagged, so "zero violations" above is a real
/// guarantee, not a vacuous pass.
#[test]
fn monitor_still_catches_planted_violations() {
    let mut sys = System::new(
        {
            let mut cfg = SocConfig::small(2);
            cfg.trace = true;
            cfg
        },
        BackendKind::Uncached,
        LockKind::Sdram,
    );
    let x = sys.alloc::<u32>("x");
    sys.run(vec![
        Box::new(move |ctx| {
            ctx.scope_x(x).write(1);
        }),
        Box::new(move |_ctx| {}),
    ]);
    let mut trace = sys.soc().take_trace();
    assert!(validate(&trace).is_empty());
    // Plant a second, overlapping ENTRY_X from the other tile at time 0.
    let mut forged = trace[0];
    forged.tile = 1;
    trace.insert(1, forged);
    assert!(!validate(&trace).is_empty(), "forged overlap must be flagged");
}
