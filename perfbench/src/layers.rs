//! Per-layer readings shared by the workloads: the simulator's own
//! counters after a run (engine, memory ports, NoC links, DMA engines,
//! caches and cores), the span histograms of a traced run, and the
//! fixed per-tile engine cost probe.

use pmc::runtime::{monitor, BackendKind, LockKind, Program, System};
use pmc::sim::telemetry::MetricsRegistry;
use pmc::sim::trace::TraceRecord;
use pmc::sim::{Counters, EngineStats, LinkReport, PortReport, RunReport, SocConfig};

use crate::{median, timed, Report};

/// Everything one `System::run` modeled, read back from the counters the
/// simulator exposes.
#[derive(Debug, Default)]
pub struct SimStats {
    pub makespan: u64,
    pub cpu: Counters,
    pub engine: EngineStats,
    pub ports: Vec<PortReport>,
    pub links: Vec<LinkReport>,
    pub dma_transfers: u64,
    pub dma_bytes: u64,
    pub dma_bursts: u64,
}

impl SimStats {
    pub fn read(sys: &System, run: &RunReport) -> SimStats {
        let soc = sys.soc();
        let dma = soc.dma_stats();
        SimStats {
            makespan: run.makespan,
            cpu: run.aggregate(),
            engine: soc.engine_stats().unwrap_or_default(),
            ports: soc.port_report(),
            links: soc.link_report(),
            dma_transfers: dma.iter().map(|d| d.transfers).sum(),
            dma_bytes: dma.iter().map(|d| d.bytes).sum(),
            dma_bursts: dma.iter().map(|d| d.bursts).sum(),
        }
    }

    /// Add a litmus run's readings: makespan, core counters and DMA
    /// payload. The litmus API exposes no engine, port or link readings.
    pub fn add_litmus(&mut self, run: &RunReport) {
        let c = run.aggregate();
        self.makespan += run.makespan;
        self.dma_transfers += c.dma_transfers;
        self.dma_bytes += c.dma_bytes;
        self.cpu.add(&c);
    }

    /// Stable digest of every modeled number and engine count.
    pub fn fingerprint(&self) -> u64 {
        fnv(format!("{self:?}").as_bytes())
    }

    /// The engine, memory, NoC, DMA, cache and core metrics. `items` is
    /// the number of work items (requests, tasks) the handoffs serve and
    /// `wall` the untraced host seconds the run took.
    pub fn put_layers(&self, r: &mut Report, items: u64, wall: f64) {
        let e = &self.engine;
        r.put("engine.events", e.events as f64);
        r.put("engine.handoffs", e.handoffs as f64);
        r.put("engine.peak_queue", e.peak_queue as f64);
        r.put("engine.handoffs_per_req", e.handoffs as f64 / items.max(1) as f64);
        let us = if e.handoffs == 0 { 0.0 } else { wall * 1e6 / e.handoffs as f64 };
        r.put("engine.us_per_handoff", us);
        let span = self.makespan.max(1) as f64;
        let port_fracs: Vec<f64> = self.ports.iter().map(|p| p.busy as f64 / span).collect();
        r.put("mem.port_busy_frac_max", port_fracs.iter().copied().fold(0.0, f64::max));
        let min = port_fracs.iter().copied().fold(f64::INFINITY, f64::min);
        r.put("mem.port_busy_frac_min", if min.is_finite() { min } else { 0.0 });
        r.put("mem.port_bursts", self.ports.iter().map(|p| p.bursts).sum::<u64>() as f64);
        let link_max = self.links.iter().map(|l| l.busy).max().unwrap_or(0);
        r.put("noc.link_busy_frac_max", link_max as f64 / span);
        r.put("noc.link_bursts", self.links.iter().map(|l| l.bursts).sum::<u64>() as f64);
        let c = &self.cpu;
        r.put("dma.transfers", self.dma_transfers as f64);
        r.put("dma.bytes", self.dma_bytes as f64);
        r.put("dma.bursts", self.dma_bursts as f64);
        r.put("dma.spurious_wakeups", c.dma_spurious_wakeups as f64);
        r.put("cpu.stall_dma_wait", c.stall_dma_wait as f64);
        r.put("cache.hits", c.dcache_hits as f64);
        r.put("cache.misses", c.dcache_misses as f64);
        let accesses = (c.dcache_hits + c.dcache_misses).max(1) as f64;
        r.put("cache.hit_frac", c.dcache_hits as f64 / accesses);
        r.put("cpu.busy", c.busy as f64);
        r.put("cpu.instret", c.instret as f64);
        r.put("cpu.stall_shared_read", c.stall_shared_read as f64);
        r.put("cpu.stall_write", c.stall_write as f64);
        r.put("cpu.stall_noc", c.stall_noc as f64);
        r.put("cpu.flush_cycles", c.flush_cycles as f64);
    }
}

/// Lock and scope histograms of a traced run.
pub fn put_spans(r: &mut Report, m: &MetricsRegistry) {
    r.put("lock.acquires", m.lock_acquire.count() as f64);
    r.put("lock.acquire_p50", m.lock_acquire.p50() as f64);
    r.put("lock.acquire_p99", m.lock_acquire.p99() as f64);
    r.put("lock.hold_p50", m.lock_hold.p50() as f64);
    r.put("scope.count", m.scope_hold.count() as f64);
    r.put("scope.hold_p50", m.scope_hold.p50() as f64);
    r.put("scope.hold_p99", m.scope_hold.p99() as f64);
}

/// What tracing costs: the traced pass against the untraced one.
pub fn put_trace_overhead(r: &mut Report, records: usize, walls: (f64, f64), handoffs: (u64, u64)) {
    let (untraced, traced) = walls;
    r.put("trace.records", records as f64);
    r.put("trace.extra_handoffs", handoffs.1 as f64 - handoffs.0 as f64);
    let inflation = if handoffs.0 == 0 { 0.0 } else { handoffs.1 as f64 / handoffs.0 as f64 };
    r.put("trace.handoff_inflation", inflation);
    r.put("trace.overhead_frac", (traced - untraced) / untraced.max(1e-9));
}

/// The monitor, span and tracing-overhead readings of a traced pass
/// against its untraced twin.
pub fn put_traced(r: &mut Report, trace: &[TraceRecord], walls: (f64, f64), handoffs: (u64, u64)) {
    let (violations, t_validate) = timed(|| monitor::validate(trace));
    r.tally(1, u64::from(!violations.is_empty()));
    if let Some(v) = violations.first() {
        r.problem(format!("{} monitor violations, first: {v:?}", violations.len()));
    }
    r.put("monitor.validate_s", t_validate);
    r.put("monitor.records_per_s", trace.len() as f64 / t_validate.max(1e-9));
    let (metrics, t_metrics) = timed(|| MetricsRegistry::from_trace(trace));
    r.put("host.metrics_s", t_metrics);
    put_spans(r, &metrics);
    put_trace_overhead(r, trace.len(), walls, handoffs);
}

/// Time of one `System::run` of `n` no-op programs on the small machine.
fn empty_run(n: usize) -> f64 {
    let mut sys = System::new(SocConfig::small(n), BackendKind::Swcc, LockKind::Sdram);
    let programs: Vec<Program<'_>> = (0..n).map(|_| -> Program<'_> { Box::new(|_| {}) }).collect();
    timed(|| sys.run(programs)).1
}

/// The fixed per-tile engine cost: the slope of an empty run's wall time
/// between 256 and 4096 tiles, which is what spawning and tearing down
/// one tile's task costs.
pub fn spawn_probe(r: &mut Report) {
    const SMALL: usize = 256;
    const LARGE: usize = 4096;
    let small = median((0..3).map(|_| empty_run(SMALL)).collect());
    let large = median((0..3).map(|_| empty_run(LARGE)).collect());
    r.put("engine.spawn_us_per_tile", (large - small) * 1e6 / (LARGE - SMALL) as f64);
    r.put("engine.empty_run_4096_s", large);
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
