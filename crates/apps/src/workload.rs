//! Common workload driver: build → run → checksum → report, for any
//! (workload, back-end) pair. This is the driver behind the Fig. 8
//! harness, the portability tests and the golden digests.

use pmc_runtime::{BackendKind, Program, RunConfig, Session, System};
use pmc_soc_sim::{EngineStats, LinkReport, RunReport, SocConfig, TelemetryReport, TraceRecord};

use crate::motion_est::{MotionEst, MotionEstParams};
use crate::radiosity::{Radiosity, RadiosityParams};
use crate::raytrace::{Raytrace, RaytraceParams};
use crate::volrend::{Volrend, VolrendParams};

/// The three SPLASH-2-style applications of the paper's Fig. 8, plus the
/// Fig. 10 SPM case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Radiosity,
    Raytrace,
    Volrend,
    MotionEst,
}

impl Workload {
    pub const FIG8: [Workload; 3] = [Workload::Radiosity, Workload::Raytrace, Workload::Volrend];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Radiosity => "RADIOSITY",
            Workload::Raytrace => "RAYTRACE",
            Workload::Volrend => "VOLREND",
            Workload::MotionEst => "MOTION-EST",
        }
    }

    /// Per-application I-cache pressure (misses per kilo-instruction).
    /// SPLASH-2 codes have non-trivial instruction footprints on the
    /// MicroBlaze; RADIOSITY's is the largest of the three.
    pub fn icache_mpki(self) -> u32 {
        match self {
            Workload::Radiosity => 6,
            Workload::Raytrace => 3,
            Workload::Volrend => 3,
            Workload::MotionEst => 1,
        }
    }
}

/// Size scaling for the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadParams {
    /// Tiny inputs for unit tests and the golden digests.
    Tiny,
    /// Default inputs for the figure harnesses.
    Full,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct AppReport {
    pub workload: Workload,
    pub backend: BackendKind,
    pub report: RunReport,
    /// Deterministic output checksum (bit-identical across back-ends for
    /// raytrace / volrend / motion-est; energy-conserving for radiosity).
    pub checksum: f64,
    /// Per-directed-link NoC occupancy with endpoints resolved against
    /// the run's topology (posted writes, write-backs, atomics and DMA
    /// bursts all route through the link model).
    pub links: Vec<LinkReport>,
    /// Cycle-level telemetry streams (empty unless the session enabled
    /// telemetry: `RunConfig::telemetry(true)`).
    pub telemetry: TelemetryReport,
    /// Annotation trace with runtime span records (empty unless the
    /// session enabled telemetry or tracing).
    pub trace: Vec<TraceRecord>,
    /// The exact simulator configuration the run used — what
    /// [`pmc_soc_sim::telemetry::perfetto_json`] needs to lay out the
    /// exported timeline.
    pub cfg: SocConfig,
    /// Discrete-event scheduler counters: heap events, task handoffs,
    /// peak queue depth — the state counts the scale benchmark pins.
    pub engine_stats: EngineStats,
}

/// The workload half of the unified [`RunConfig`]/[`Session`] surface.
/// An extension trait because [`Session`] lives in `pmc-runtime`, which
/// cannot know about the applications built on top of it.
pub trait SessionWorkload {
    /// Run `workload` on this session's axes — back-end, lock, topology,
    /// telemetry — and return the checksummed [`AppReport`].
    /// Workload runs need a tile count: either `RunConfig::n_tiles(..)`
    /// or a mesh topology (whose area is the count). Deterministic: the
    /// same session axes and arguments ⇒ a bit-identical report.
    fn workload(&self, workload: Workload, params: WorkloadParams) -> AppReport;
}

impl SessionWorkload for Session {
    fn workload(&self, workload: Workload, params: WorkloadParams) -> AppReport {
        run_workload_session(self, workload, params)
    }
}

/// Run `workload` on `backend` with `n_tiles` cores over the ring — the
/// common case of the unified surface, kept as a convenience wrapper.
/// For the other axes (topology, telemetry) build the
/// [`RunConfig`] yourself and use [`SessionWorkload::workload`].
///
/// ```
/// use pmc_apps::workload::{run_workload, Workload, WorkloadParams};
/// use pmc_runtime::BackendKind;
///
/// let r = run_workload(Workload::MotionEst, BackendKind::Swcc, 2, WorkloadParams::Tiny);
/// assert!(r.report.makespan > 0);
/// ```
pub fn run_workload(
    workload: Workload,
    backend: BackendKind,
    n_tiles: usize,
    params: WorkloadParams,
) -> AppReport {
    RunConfig::new(backend).n_tiles(n_tiles).session().workload(workload, params)
}

fn run_workload_session(
    session: &Session,
    workload: Workload,
    params: WorkloadParams,
) -> AppReport {
    let n_tiles = session
        .n_tiles()
        .expect("workload runs need a tile count: RunConfig::n_tiles(..) or a mesh topology");
    let mut cfg = session.soc_config(n_tiles);
    cfg.icache_mpki = workload.icache_mpki();
    let backend = session.backend();
    let mut sys = System::new(cfg.clone(), backend, session.lock());
    let (report, checksum) = match workload {
        Workload::Radiosity => {
            let p = match params {
                WorkloadParams::Tiny => {
                    RadiosityParams { n_patches: 48, iters: 2, ..Default::default() }
                }
                WorkloadParams::Full => RadiosityParams::default(),
            };
            let app = Radiosity::build(&mut sys, p, n_tiles as u32);
            let app_ref = &app;
            let programs: Vec<Program<'_>> = (0..n_tiles)
                .map(|t| -> Program<'_> { Box::new(move |ctx| app_ref.worker(ctx, t == 0)) })
                .collect();
            let report = sys.run(programs);
            let sum = app.checksum(&sys);
            (report, sum)
        }
        Workload::Raytrace => {
            let p = match params {
                WorkloadParams::Tiny => RaytraceParams {
                    width: 16,
                    height: 8,
                    n_spheres: 4,
                    rows_per_task: 2,
                    ..Default::default()
                },
                WorkloadParams::Full => RaytraceParams::default(),
            };
            let app = Raytrace::build(&mut sys, p);
            let app_ref = &app;
            let programs: Vec<Program<'_>> = (0..n_tiles)
                .map(|_| -> Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
                .collect();
            let report = sys.run(programs);
            let sum = app.checksum(&sys);
            (report, sum)
        }
        Workload::Volrend => {
            let p = match params {
                WorkloadParams::Tiny => {
                    VolrendParams { dim: 16, img: 16, rows_per_task: 2, ..Default::default() }
                }
                WorkloadParams::Full => VolrendParams::default(),
            };
            let app = Volrend::build(&mut sys, p);
            let app_ref = &app;
            let programs: Vec<Program<'_>> = (0..n_tiles)
                .map(|_| -> Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
                .collect();
            let report = sys.run(programs);
            let sum = app.checksum(&sys);
            (report, sum)
        }
        Workload::MotionEst => {
            let p = match params {
                WorkloadParams::Tiny => {
                    MotionEstParams { frame: 32, block: 16, range: 4, ..Default::default() }
                }
                WorkloadParams::Full => MotionEstParams::default(),
            };
            let app = MotionEst::build(&mut sys, p);
            let app_ref = &app;
            let programs: Vec<Program<'_>> = (0..n_tiles)
                .map(|_| -> Program<'_> { Box::new(move |ctx| app_ref.worker(ctx)) })
                .collect();
            let report = sys.run(programs);
            let sum = app.checksum(&sys);
            (report, sum)
        }
    };
    let links = sys.soc().link_report();
    let trace = if cfg.trace { sys.soc().take_trace() } else { Vec::new() };
    let telemetry = sys.soc().take_telemetry();
    let engine_stats = sys.soc().engine_stats().unwrap_or_default();
    AppReport { workload, backend, report, checksum, links, telemetry, trace, cfg, engine_stats }
}

/// Fig. 8 row: the stall breakdown of a run as fractions of total time.
/// The categories partition [`pmc_soc_sim::Counters::total`], so the
/// fractions sum to 1 — including `dma_wait`, the time cores sleep in
/// event-based DMA completion waits (before those waits were events,
/// that time was busy polling inside `busy`).
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    pub busy: f64,
    pub priv_read: f64,
    pub shared_read: f64,
    pub write: f64,
    pub icache: f64,
    pub noc: f64,
    pub dma_wait: f64,
    pub utilization: f64,
    pub flush_overhead: f64,
    pub makespan: u64,
}

impl AppReport {
    pub fn breakdown(&self) -> Breakdown {
        let agg = self.report.aggregate();
        let t = agg.total().max(1) as f64;
        Breakdown {
            busy: agg.busy as f64 / t,
            priv_read: agg.stall_priv_read as f64 / t,
            shared_read: agg.stall_shared_read as f64 / t,
            write: agg.stall_write as f64 / t,
            icache: agg.stall_icache as f64 / t,
            noc: agg.stall_noc as f64 / t,
            dma_wait: agg.stall_dma_wait as f64 / t,
            utilization: agg.utilization(),
            flush_overhead: self.report.flush_overhead(),
            makespan: self.report.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 8 headline on tiny inputs: SWCC beats the uncached
    /// baseline for every application, and results are identical.
    #[test]
    fn swcc_beats_uncached_on_every_app() {
        for w in Workload::FIG8 {
            let base = run_workload(w, BackendKind::Uncached, 4, WorkloadParams::Tiny);
            let swcc = run_workload(w, BackendKind::Swcc, 4, WorkloadParams::Tiny);
            if w != Workload::Radiosity {
                assert_eq!(base.checksum, swcc.checksum, "{w:?} output differs");
            }
            assert!(
                swcc.report.makespan < base.report.makespan,
                "{w:?}: SWCC {} !< uncached {}",
                swcc.report.makespan,
                base.report.makespan
            );
        }
    }

    /// The portability claim along the topology axis: the same workload
    /// produces bit-identical output on the ring and on a mesh, while
    /// the mesh's link report shows traffic on real mesh links.
    #[test]
    fn outputs_are_topology_independent() {
        let mesh = pmc_soc_sim::Topology::Mesh { cols: 2, rows: 2 };
        let ring = run_workload(Workload::Volrend, BackendKind::Swcc, 4, WorkloadParams::Tiny);
        let meshed = RunConfig::new(BackendKind::Swcc)
            .topology(mesh)
            .session()
            .workload(Workload::Volrend, WorkloadParams::Tiny);
        assert_eq!(ring.checksum, meshed.checksum, "output must not depend on the topology");
        assert!(
            meshed.links.iter().map(|l| l.busy).sum::<u64>() > 0,
            "posted traffic must be accounted on mesh links"
        );
        for l in &meshed.links {
            assert!(mesh.is_valid_link(4, l.link), "{l:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_workload(Workload::Raytrace, BackendKind::Swcc, 2, WorkloadParams::Tiny);
        let b = run_workload(Workload::Raytrace, BackendKind::Swcc, 2, WorkloadParams::Tiny);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(format!("{:?}", a.report.per_core), format!("{:?}", b.report.per_core));
    }
}
