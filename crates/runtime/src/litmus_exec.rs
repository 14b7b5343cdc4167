//! Execute a model-level litmus program ([`pmc_core::litmus`]) on a
//! simulated back-end through the annotation API.
//!
//! This is the simulator half of the differential conformance harness:
//! the same program the model enumerator explores is lowered onto the
//! scope-guard annotation API exactly as [`pmc_core::conformance::lower`]
//! describes —
//!
//! * `Acquire`/`Release` windows become [`crate::scope::XScope`] guards
//!   held on a stack (released LIFO by explicit `close`), with reads and
//!   writes inside them going through the open guard;
//! * bare writes become momentary exclusive guards (the runtime only
//!   ever writes shared data under exclusive access);
//! * bare DMA transfers likewise become momentary exclusive windows,
//!   waited before they close — and because the model's `DmaWait`
//!   completes *every* open transfer of the thread, the window's drain
//!   waits all outstanding tickets, not just its own;
//! * bare reads become momentary read-only guards
//!   (`ctx.scope_ro(x).read()`) — on word-sized objects the scope takes
//!   no lock (Table II), i.e. the model's plain slow read;
//! * `WaitEq` becomes the paper's Fig. 6 polling loop with exponential
//!   back-off;
//! * `Fence` is the `fence()` annotation.
//!
//! The run is traced, so the caller can feed [`LitmusRun::trace`] to
//! [`crate::monitor::validate`] and check the observed outcome against
//! the model's allowed set.

use std::sync::Mutex;

use pmc_core::interleave::Outcome;
use pmc_core::litmus::{Instr, Program};
use pmc_core::{conformance, op::Value};
use pmc_soc_sim::{RunReport, SocConfig, TelemetryReport, TraceRecord};

use crate::run::{RunConfig, Session};
use crate::system::{BackendKind, LockKind, Obj, System};

/// Result of one litmus execution on a back-end.
pub struct LitmusRun {
    /// Final register values, per thread — directly comparable with the
    /// model enumerator's [`Outcome`]s.
    pub outcome: Outcome,
    /// The recorded annotation-level trace (tracing is always enabled;
    /// with telemetry on it also carries runtime span records).
    pub trace: Vec<TraceRecord>,
    /// Simulator counters and makespan.
    pub report: RunReport,
    /// Cycle-level telemetry streams (empty unless the session enabled
    /// telemetry: `RunConfig::telemetry(true)`).
    pub telemetry: TelemetryReport,
    /// The exact simulator configuration the run used — what
    /// [`pmc_soc_sim::telemetry::perfetto_json`] needs to lay out the
    /// exported timeline.
    pub cfg: SocConfig,
}

/// Run `program` on `backend`/`lock_kind` over the ring, sized to the
/// program's thread count — the common case of the unified
/// [`RunConfig`]/[`Session`] surface, kept as a convenience wrapper.
/// For the other axes (topology, telemetry, controllers) build the session
/// yourself.
///
/// Panics if the program deadlocks on the simulator (the SoC watchdog
/// fires) or holds a lock across a `WaitEq` (which could never
/// terminate: the awaited location cannot change while held).
///
/// ```
/// use pmc_core::litmus::catalogue;
/// use pmc_runtime::litmus_exec::run_litmus;
/// use pmc_runtime::{BackendKind, LockKind};
///
/// let run = run_litmus(&catalogue::mp_annotated(), BackendKind::Swcc, LockKind::Sdram);
/// assert_eq!(run.outcome, vec![vec![], vec![42]]);
/// ```
pub fn run_litmus(program: &Program, backend: BackendKind, lock_kind: LockKind) -> LitmusRun {
    RunConfig::new(backend).lock(lock_kind).session().litmus(program)
}

/// [`Session::litmus`]: lower `program` onto the annotation API and run
/// it on the session's axes. A mesh must cover at least one tile per
/// thread; surplus tiles idle (their local memories still serve
/// distributed-lock homes and DSM replicas), so the same program runs
/// unchanged while every posted write, flush write-back, remote atomic
/// and DMA burst routes over the extra links.
pub(crate) fn run_litmus_session(session: &Session, program: &Program) -> LitmusRun {
    let n_threads = program.threads.len().max(1);
    let n_tiles = session.tiles_for(n_threads);
    let cfg = session.litmus_soc_config(n_tiles);
    let mut sys = System::new(cfg.clone(), session.backend(), session.lock());

    let n_locs = conformance::loc_count(program).max(1);
    let locs = sys.alloc_vec::<Value>("loc", n_locs);
    for &(l, v) in &program.init {
        sys.init(locs.at(l.0), v);
    }

    let results: Vec<Mutex<Vec<Value>>> =
        (0..program.threads.len()).map(|t| Mutex::new(vec![0; program.reg_count(t)])).collect();
    let results_ref = &results;

    let report = sys.run(
        program
            .threads
            .iter()
            .enumerate()
            .map(|(t, instrs)| -> crate::Program<'_> {
                let instrs = instrs.clone();
                let n_regs = program.reg_count(t);
                Box::new(move |ctx| {
                    let ctx = &*ctx; // guards borrow the context shared
                    let mut regs = vec![0; n_regs];
                    // The held exclusive guards, as a stack: `Acquire`
                    // pushes, `Release` pops LIFO and closes explicitly.
                    let mut held: Vec<(u32, crate::scope::XScope<'_, '_, '_, Value>)> = Vec::new();
                    // Outstanding DMA state: every unwaited ticket
                    // (transfers rotate over engine channels, each FIFO
                    // per channel, so `DmaWait` waits them all) and the
                    // registers awaiting get completions.
                    let mut tickets: Vec<crate::scope::DmaTicket<'_, '_, '_>> = Vec::new();
                    let mut pending_gets: Vec<(pmc_core::op::LocId, pmc_core::litmus::Reg)> =
                        Vec::new();
                    // Locations touched by outstanding tickets: the model
                    // orders any later same-location access (and any
                    // fence) after a floating transfer's perform, so the
                    // executor drains before touching an overlap.
                    let mut dma_locs: Vec<u32> = Vec::new();
                    // Wait every outstanding ticket and land the awaited
                    // gets in their registers — the runtime counterpart
                    // of the model's `DmaWait`, which completes *all*
                    // open transfers of the thread. Also invoked inside
                    // bare-DMA momentary windows, whose canonical
                    // lowering ends in exactly such a wait.
                    macro_rules! drain_dma {
                        () => {
                            for t in tickets.drain(..) {
                                t.wait();
                            }
                            dma_locs.clear();
                            for (l, r) in pending_gets.drain(..) {
                                let i = held
                                    .iter()
                                    .position(|(id, _)| *id == l.0)
                                    .expect("awaited get outside its scope");
                                regs[r.0 as usize] = held[i].1.read();
                            }
                        };
                    }
                    // Wait outstanding transfers before an access that
                    // overlaps one of their locations — the runtime
                    // counterpart of the model's issue gating (`ready`
                    // requires every dependent earlier transfer to have
                    // *performed*). Draining more than strictly necessary
                    // only restricts the schedule, never widens it.
                    macro_rules! sync_dma {
                        ($($l:expr),+) => {
                            if [$($l),+].iter().any(|l: &u32| dma_locs.contains(l)) {
                                drain_dma!();
                            }
                        };
                    }
                    for i in &instrs {
                        let obj = |l: pmc_core::op::LocId| -> Obj<Value> { locs.at(l.0) };
                        match i {
                            Instr::Acquire(l) => {
                                held.push((l.0, ctx.scope_x(obj(*l))));
                            }
                            Instr::Release(l) => {
                                sync_dma!(l.0);
                                let (id, guard) = held.pop().expect("Release without Acquire");
                                assert_eq!(id, l.0, "scopes must nest (LIFO)");
                                guard.close();
                            }
                            Instr::Fence => {
                                // The model's fence issues only after
                                // every outstanding transfer performed.
                                if !tickets.is_empty() {
                                    drain_dma!();
                                }
                                ctx.fence();
                            }
                            Instr::Write(l, v) => {
                                sync_dma!(l.0);
                                if let Some(i) = held.iter().position(|(id, _)| *id == l.0) {
                                    held[i].1.write(*v);
                                } else {
                                    // Momentary exclusive window with an
                                    // eager visibility push (Fig. 6 lines
                                    // 6–9).
                                    let s = ctx.scope_x(obj(*l));
                                    s.write(*v);
                                    s.flush();
                                }
                            }
                            Instr::Read(l, r) => {
                                sync_dma!(l.0);
                                regs[r.0 as usize] =
                                    if let Some(i) = held.iter().position(|(id, _)| *id == l.0) {
                                        held[i].1.read()
                                    } else {
                                        ctx.scope_ro(obj(*l)).read()
                                    };
                            }
                            Instr::WaitEq(l, v) => {
                                sync_dma!(l.0);
                                assert!(
                                    !held.iter().any(|(id, _)| *id == l.0),
                                    "WaitEq on a held location cannot terminate"
                                );
                                let mut backoff = 8;
                                while ctx.scope_ro(obj(*l)).read() != *v {
                                    ctx.compute(backoff);
                                    backoff = (backoff * 2).min(512);
                                }
                            }
                            Instr::DmaPut(l, v) => {
                                sync_dma!(l.0);
                                if let Some(i) = held.iter().position(|(id, _)| *id == l.0) {
                                    // Stage the value in the scope's
                                    // local view, then hand the range to
                                    // the engine; floats until a wait.
                                    held[i].1.write(*v);
                                    tickets.push(held[i].1.dma_put_all());
                                    dma_locs.push(l.0);
                                } else {
                                    // Bare transfer: momentary exclusive
                                    // window, waited before it closes —
                                    // and the wait drains *everything*
                                    // outstanding, exactly like the
                                    // lowering's inserted `DmaWait`.
                                    let s = ctx.scope_x(obj(*l));
                                    s.write(*v);
                                    tickets.push(s.dma_put_all());
                                    drain_dma!();
                                }
                            }
                            Instr::DmaGet(l, r) => {
                                sync_dma!(l.0);
                                if let Some(i) = held.iter().position(|(id, _)| *id == l.0) {
                                    // Publish staged writes first: the
                                    // model's get observes the thread's
                                    // own program-earlier writes, so the
                                    // engine must fetch a current home
                                    // copy, not clobber the scope's dirty
                                    // view with a stale one.
                                    held[i].1.flush();
                                    tickets.push(held[i].1.dma_get_all());
                                    dma_locs.push(l.0);
                                    pending_gets.push((*l, *r));
                                } else {
                                    let s = ctx.scope_x(obj(*l));
                                    tickets.push(s.dma_get_all());
                                    drain_dma!();
                                    regs[r.0 as usize] = s.read();
                                }
                            }
                            Instr::DmaCopy(s, d) => {
                                sync_dma!(s.0, d.0);
                                let pos = |l: &pmc_core::op::LocId| {
                                    held.iter().position(|(id, _)| *id == l.0)
                                };
                                match (pos(s), pos(d)) {
                                    (Some(si), Some(di)) => {
                                        // Both endpoints held: the copy
                                        // floats until a wait (it reads
                                        // the source's *local* view, so
                                        // staged writes are included).
                                        tickets.push(held[di].1.copy_obj_from(&held[si].1));
                                        dma_locs.push(s.0);
                                        dma_locs.push(d.0);
                                    }
                                    (si, di) => {
                                        // Momentary windows for the bare
                                        // endpoints, opened in ascending
                                        // location order (the global lock
                                        // order), drained before closing.
                                        let mut need = [(*s, si.is_none()), (*d, di.is_none())]
                                            .into_iter()
                                            .filter(|&(_, bare)| bare)
                                            .map(|(l, _)| l)
                                            .collect::<Vec<_>>();
                                        need.sort_unstable_by_key(|l| l.0);
                                        need.dedup();
                                        let opened: Vec<(u32, _)> = need
                                            .into_iter()
                                            .map(|l| (l.0, ctx.scope_x(obj(l))))
                                            .collect();
                                        let find = |l: &pmc_core::op::LocId| {
                                            held.iter()
                                                .chain(opened.iter())
                                                .find(|(id, _)| *id == l.0)
                                                .map(|(_, g)| g)
                                                .expect("endpoint scope")
                                        };
                                        tickets.push(find(d).copy_obj_from(find(s)));
                                        drain_dma!();
                                    }
                                }
                            }
                            Instr::DmaWait => {
                                drain_dma!();
                            }
                        }
                    }
                    assert!(
                        tickets.is_empty() && pending_gets.is_empty(),
                        "litmus DMA transfers must be waited before the thread ends"
                    );
                    assert!(held.is_empty(), "litmus scopes must be released");
                    *results_ref[t].lock().unwrap() = regs;
                })
            })
            .collect(),
    );

    let outcome: Outcome = results.iter().map(|m| m.lock().unwrap().clone()).collect();
    let trace = sys.soc().take_trace();
    let telemetry = sys.soc().take_telemetry();
    LitmusRun { outcome, trace, report, telemetry, cfg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::validate;
    use pmc_core::litmus::catalogue;

    /// The annotated MP program reads 42 on a representative back-end and
    /// its trace validates — the executor wires scopes up correctly.
    #[test]
    fn executor_runs_annotated_mp() {
        let run = run_litmus(&catalogue::mp_annotated(), BackendKind::Swcc, LockKind::Sdram);
        assert_eq!(run.outcome, vec![vec![], vec![42]]);
        assert!(validate(&run.trace).is_empty());
        assert!(run.report.makespan > 0);
    }

    /// The same program on a 2×2 mesh (surplus tile idle) produces the
    /// annotated result with a clean trace — including under the
    /// distributed lock, whose mailbox round trips cross mesh links.
    #[test]
    fn executor_runs_annotated_mp_on_a_mesh() {
        let topo = pmc_soc_sim::Topology::Mesh { cols: 2, rows: 2 };
        for backend in [BackendKind::Dsm, BackendKind::Spm] {
            let run = RunConfig::new(backend)
                .lock(LockKind::Distributed)
                .topology(topo)
                .session()
                .litmus(&catalogue::mp_annotated());
            assert_eq!(run.outcome, vec![vec![], vec![42]], "{backend:?}");
            assert!(validate(&run.trace).is_empty(), "{backend:?}");
        }
    }

    /// Register-free threads produce empty outcome rows.
    #[test]
    fn executor_handles_reg_free_threads() {
        let run = run_litmus(&catalogue::iriw(), BackendKind::Uncached, LockKind::Sdram);
        assert_eq!(run.outcome.len(), 4);
        assert!(run.outcome[0].is_empty() && run.outcome[1].is_empty());
        assert_eq!(run.outcome[2].len(), 2);
    }

    /// Golden observability pin: the Perfetto export of the annotated MP
    /// litmus run on the SPM back-end is well-formed JSON whose span set
    /// (scope lifetimes, lock spans, link occupancy) is byte-identical
    /// across runs; the DMA-descriptor lifetime track is pinned the same
    /// way on a DMA-carrying program.
    #[test]
    fn mp_annotated_spm_perfetto_export_is_stable() {
        use pmc_soc_sim::telemetry::{pair_spans, perfetto_json, validate_json};
        use pmc_soc_sim::trace::span_kind;
        use pmc_soc_sim::EventKind;
        let export = |prog: &pmc_core::litmus::Program| {
            let r = RunConfig::new(BackendKind::Spm).telemetry(true).session().litmus(prog);
            let json = perfetto_json(&r.cfg, &r.telemetry, &r.trace);
            (r, json)
        };
        let (a, ja) = export(&catalogue::mp_annotated());
        let (_b, jb) = export(&catalogue::mp_annotated());
        assert_eq!(ja, jb, "telemetry export must be deterministic");
        validate_json(&ja).expect("exporter emits well-formed JSON");
        // Spans pair cleanly and the expected families are present.
        let (spans, dangling) = pair_spans(&a.trace).expect("span stream pairs");
        assert_eq!(dangling, 0, "no dangling span begins");
        assert!(spans.iter().any(|s| s.kind == span_kind::SCOPE_X), "{spans:?}");
        assert!(spans.iter().any(|s| s.kind == span_kind::SCOPE_RO), "{spans:?}");
        assert!(spans.iter().any(|s| s.kind == span_kind::LOCK_HOLD), "{spans:?}");
        // Link occupancy intervals reached the system stream and the
        // timeline names the runtime tracks.
        assert!(a.telemetry.system.iter().any(|e| matches!(e.kind, EventKind::LinkBusy { .. })));
        assert!(ja.contains("scope_x"), "runtime track named in the export");
        // The protocol trace is unchanged by telemetry: it still
        // validates and the outcome is the annotated one.
        assert_eq!(a.outcome, vec![vec![], vec![42]]);
        assert!(validate(&a.trace).is_empty());
        // DMA descriptor lifetimes: pinned on a program that transfers.
        let (d1, jd1) = export(&catalogue::dma_mp_put());
        let (_d2, jd2) = export(&catalogue::dma_mp_put());
        assert_eq!(jd1, jd2, "DMA telemetry export must be deterministic");
        validate_json(&jd1).expect("well-formed JSON");
        assert!(d1
            .telemetry
            .system
            .iter()
            .any(|e| matches!(e.kind, EventKind::DmaDescriptor { .. })));
        let (dspans, ddangling) = pair_spans(&d1.trace).expect("span stream pairs");
        assert_eq!(ddangling, 0);
        assert!(dspans.iter().any(|s| s.kind == span_kind::DMA_WAIT), "{dspans:?}");
    }
}
