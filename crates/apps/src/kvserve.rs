//! Sharded in-scratchpad key-value serving — the request-serving
//! workload of the serving subsystem.
//!
//! One frontend tile replays an open-loop [`crate::loadgen`] schedule;
//! each serving tile owns one shard (a [`Slab`] of values, staged into
//! its scratchpad by the scope machinery on the SPM back-end) and a
//! tile-to-tile DMA mailbox built on the paper's Fig. 9 [`MFifo`].
//! Handlers are written against the PMC annotations and therefore run
//! unmodified on every back-end:
//!
//! * **GET** — lookup under an [`pmc_runtime::RoScope`] on the shard
//!   slab;
//! * **PUT** — update under an [`pmc_runtime::XScope`];
//! * **COPY** — cross-shard op: pull one element from another shard's
//!   slab with a local-to-local DMA copy
//!   ([`pmc_runtime::XScope::dma_copy_from`]), skipping the SDRAM round
//!   trip;
//! * **rebalance** — mid-run, the hot shard is migrated to a spare tile:
//!   the frontend drains the old owner (mailbox-ordered `DRAIN` marker →
//!   flag handshake), the spare pulls the whole slab with
//!   [`pmc_runtime::XScope::copy_obj_from`], and subsequent hot-shard traffic is
//!   rerouted to the spare's mailbox.
//!
//! Per-request latency is measured *open-loop*: from the request's
//! intended injection time (which rides in the trace record's value
//! operand and in the request itself) to handler completion, so
//! frontend and mailbox queueing are charged to the request. Latencies
//! are published twice — as `REQUEST` spans in the telemetry trace
//! (Perfetto-visible, histogrammed by
//! [`pmc_soc_sim::telemetry::MetricsRegistry`]) and as per-request
//! words in an [`ObjVec`] the host reads back.
//!
//! A COPY that sources a migrated shard reads that shard's
//! pre-migration home — the synthetic workload tolerates the stale
//! read; what matters here is that every back-end computes
//! the *same* deterministic outcome.

use pmc_runtime::{MFifo, Obj, ObjVec, PmcCtx, Pod, Program, RunConfig, Session, Slab, System};
use pmc_soc_sim::telemetry::{MetricsRegistry, TelemetryReport};
use pmc_soc_sim::trace::{span_begin, span_end, span_kind, TraceRecord};
use pmc_soc_sim::{EngineStats, LinkReport, RunReport, SocConfig};

use crate::loadgen::{self, Job, LoadGenParams, ReqOp};

/// The hot shard (Zipf rank 0) — the one the rebalancing scenario
/// migrates.
pub const HOT_SHARD: u32 = 0;

/// Request opcodes as they travel through the mailbox.
const OP_GET: u32 = 0;
const OP_PUT: u32 = 1;
const OP_COPY: u32 = 2;
const OP_MIGRATE: u32 = 3;
const OP_DRAIN: u32 = 4;
const OP_STOP: u32 = 5;

/// The wire format of one mailbox request (32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub id: u32,
    pub op: u32,
    pub key: u32,
    pub val: u32,
    pub src_shard: u32,
    /// Synthetic service time in cycles.
    pub service: u32,
    /// Intended (open-loop) injection time.
    pub start: u64,
}

impl Pod for Req {
    const SIZE: u32 = 32;
    fn to_bytes(&self, out: &mut [u8]) {
        self.id.to_bytes(&mut out[0..4]);
        self.op.to_bytes(&mut out[4..8]);
        self.key.to_bytes(&mut out[8..12]);
        self.val.to_bytes(&mut out[12..16]);
        self.src_shard.to_bytes(&mut out[16..20]);
        self.service.to_bytes(&mut out[20..24]);
        self.start.to_bytes(&mut out[24..32]);
    }
    fn from_bytes(bytes: &[u8]) -> Self {
        Req {
            id: u32::from_bytes(&bytes[0..4]),
            op: u32::from_bytes(&bytes[4..8]),
            key: u32::from_bytes(&bytes[8..12]),
            val: u32::from_bytes(&bytes[12..16]),
            src_shard: u32::from_bytes(&bytes[16..20]),
            service: u32::from_bytes(&bytes[20..24]),
            start: u64::from_bytes(&bytes[24..32]),
        }
    }
}

impl Req {
    fn control(op: u32) -> Req {
        Req { id: u32::MAX, op, key: 0, val: 0, src_shard: 0, service: 0, start: 0 }
    }

    fn from_job(j: &Job) -> Req {
        let op = match j.op {
            ReqOp::Get => OP_GET,
            ReqOp::Put => OP_PUT,
            ReqOp::Copy => OP_COPY,
        };
        Req {
            id: j.id,
            op,
            key: j.key,
            val: j.val,
            src_shard: j.src_shard,
            service: j.service_time as u32,
            start: j.start_time,
        }
    }
}

/// Serving-subsystem knobs on top of the load-generator schedule.
#[derive(Debug, Clone)]
pub struct KvServeParams {
    pub load: LoadGenParams,
    /// Slots per shard mailbox.
    pub mailbox_depth: u32,
    /// When set, the shard-rebalancing scenario runs: after this many
    /// injected requests the hot shard migrates to a spare tile.
    pub migrate_at: Option<u32>,
}

impl Default for KvServeParams {
    fn default() -> Self {
        KvServeParams { load: LoadGenParams::default(), mailbox_depth: 8, migrate_at: None }
    }
}

/// The built serving instance: shard slabs, mailboxes, result vectors.
pub struct KvServe {
    pub params: KvServeParams,
    jobs: Vec<Job>,
    /// One mailbox per serving tile (shards, then the spare when the
    /// rebalancing scenario is on). Single reader each.
    mailboxes: Vec<MFifo<Req>>,
    /// One value slab per serving tile (the spare's starts empty and is
    /// filled by the migration copy).
    shards: Vec<Slab<u32>>,
    /// Per-request latency words (intended start → handler completion),
    /// independently locked so shards commit replies without contending.
    lat: ObjVec<u64>,
    /// Requests served per serving tile.
    served: ObjVec<u32>,
    /// Migration handshake: the old hot-shard owner sets this after
    /// applying everything that was mailbox-ordered before the drain
    /// marker; the spare polls it before copying.
    drained: Obj<u32>,
}

/// Deterministic initial value of `shards[s][k]`.
fn seed_value(shard: u32, key: u32) -> u32 {
    (shard.wrapping_mul(0x9e37_79b9) ^ key.wrapping_mul(0x85eb_ca6b)) | 1
}

impl KvServe {
    /// Number of serving tiles (shard owners plus the spare).
    pub fn n_servers(&self) -> u32 {
        self.mailboxes.len() as u32
    }

    /// Tiles the workload needs: frontend + servers.
    pub fn tiles_needed(params: &KvServeParams) -> usize {
        1 + params.load.n_shards as usize + params.migrate_at.is_some() as usize
    }

    pub fn build(sys: &mut System, params: KvServeParams) -> KvServe {
        let jobs = loadgen::generate(&params.load);
        let n_shards = params.load.n_shards;
        let n_servers = n_shards + params.migrate_at.is_some() as u32;
        let mut mailboxes = Vec::new();
        let mut shards = Vec::new();
        for s in 0..n_servers {
            mailboxes.push(sys.alloc_fifo::<Req>(&format!("kv.mbox{s}"), params.mailbox_depth, 1));
            let slab = sys.alloc_slab::<u32>(&format!("kv.shard{s}"), params.load.keys_per_shard);
            for k in 0..params.load.keys_per_shard {
                // The spare starts zeroed; real shards get seeded values.
                let v = if s < n_shards { seed_value(s, k) } else { 0 };
                sys.init_at(slab, k, v);
            }
            shards.push(slab);
        }
        let lat = sys.alloc_vec::<u64>("kv.lat", params.load.n_requests);
        for i in 0..params.load.n_requests {
            sys.init(lat.at(i), 0u64);
        }
        let served = sys.alloc_vec::<u32>("kv.served", n_servers);
        for i in 0..n_servers {
            sys.init(served.at(i), 0u32);
        }
        let drained = sys.alloc::<u32>("kv.drained");
        sys.init(drained, 0u32);
        KvServe { params, jobs, mailboxes, shards, lat, served, drained }
    }

    /// The frontend program (tile 0): replay the schedule open-loop.
    pub fn frontend(&self, ctx: &PmcCtx<'_, '_>) {
        let n_shards = self.params.load.n_shards;
        let spare = (self.n_servers() > n_shards).then_some(n_shards);
        let migrate_at = self.params.migrate_at.filter(|_| spare.is_some());
        let mut migrated = false;
        for job in &self.jobs {
            if let (Some(at), Some(spare)) = (migrate_at, spare) {
                if !migrated && job.id >= at {
                    // Mailbox order gives the handshake its causality:
                    // the old owner sees DRAIN after every pre-migration
                    // hot-shard request, the spare sees MIGRATE before
                    // any rerouted one.
                    self.mailboxes[HOT_SHARD as usize].push(ctx, Req::control(OP_DRAIN));
                    self.mailboxes[spare as usize].push(ctx, Req::control(OP_MIGRATE));
                    migrated = true;
                }
            }
            // Open-loop pacing: wait for the intended injection time,
            // never for replies.
            loop {
                let now = ctx.with_cpu(|c| c.now());
                if now >= job.start_time {
                    break;
                }
                ctx.compute((job.start_time - now).min(64));
            }
            let dest = match (migrated, spare) {
                (true, Some(spare)) if job.shard == HOT_SHARD => spare,
                _ => job.shard,
            };
            self.mailboxes[dest as usize].push(ctx, Req::from_job(job));
        }
        for mbox in &self.mailboxes {
            mbox.push(ctx, Req::control(OP_STOP));
        }
    }

    /// A serving tile's program: drain the mailbox until STOP. `w` is
    /// the server index (shard id, or `n_shards` for the spare).
    pub fn worker(&self, ctx: &PmcCtx<'_, '_>, w: u32) {
        let mbox = &self.mailboxes[w as usize];
        let my_slab = self.shards[w as usize];
        let mut served = 0u32;
        loop {
            let req = mbox.pop(ctx, 0);
            match req.op {
                OP_STOP => break,
                OP_DRAIN => {
                    let f = ctx.scope_x(self.drained);
                    f.write(1);
                    f.flush();
                    f.close();
                }
                OP_MIGRATE => {
                    // Wait for the old owner's drain flag (the paper's
                    // poll idiom), then pull the whole shard with one
                    // local-to-local DMA copy.
                    let mut backoff = 16u64;
                    while ctx.scope_ro(self.drained).read() == 0 {
                        ctx.compute(backoff);
                        backoff = (backoff * 2).min(256);
                    }
                    ctx.fence();
                    // Exclusive scopes on both endpoints — the litmus
                    // `DmaCopy` mapping — so the copy is monitor-clean
                    // on every back-end.
                    let src = ctx.scope_x(self.shards[HOT_SHARD as usize].obj());
                    let dst = ctx.scope_x(my_slab.obj());
                    dst.copy_obj_from(&src).wait();
                    dst.close();
                    src.close();
                }
                OP_GET => {
                    self.begin(ctx, &req);
                    ctx.compute(req.service as u64);
                    let _v = ctx.scope_ro(my_slab.obj()).read_at(req.key);
                    self.finish(ctx, &req);
                    served += 1;
                }
                OP_PUT => {
                    self.begin(ctx, &req);
                    ctx.compute(req.service as u64);
                    let s = ctx.scope_x(my_slab.obj());
                    s.write_at(req.key, req.val);
                    s.close();
                    self.finish(ctx, &req);
                    served += 1;
                }
                OP_COPY => {
                    self.begin(ctx, &req);
                    ctx.compute(req.service as u64);
                    // Exclusive scopes on both endpoints (the litmus
                    // `DmaCopy` mapping), acquired in ascending shard
                    // order — the global lock order that keeps two
                    // shards copying from each other deadlock-free.
                    let src_slab = self.shards[req.src_shard as usize];
                    let (src, dst) = if req.src_shard < w {
                        let s = ctx.scope_x(src_slab.obj());
                        (s, ctx.scope_x(my_slab.obj()))
                    } else {
                        let d = ctx.scope_x(my_slab.obj());
                        (ctx.scope_x(src_slab.obj()), d)
                    };
                    // Touch the element before transporting it: the
                    // handler serves the value it copies, and the traced
                    // read is what lets the consistency monitor attribute
                    // the bytes the DMA lands in the destination (a
                    // host-seeded value it never observed would otherwise
                    // look out-of-thin-air to later readers).
                    let _ = src.read_at(req.key);
                    dst.dma_copy_from(&src, req.key, req.key, 1).wait();
                    dst.close();
                    src.close();
                    self.finish(ctx, &req);
                    served += 1;
                }
                other => panic!("kvserve: unknown opcode {other}"),
            }
        }
        let c = ctx.scope_x(self.served.at(w));
        c.write(served);
        c.flush();
        c.close();
    }

    fn begin(&self, ctx: &PmcCtx<'_, '_>, req: &Req) {
        // The begin record commits at pop time but carries the intended
        // injection time in `value`; span pairing charges the earlier
        // timestamp (open-loop latency).
        ctx.with_cpu(|cpu| cpu.trace_event(span_begin(span_kind::REQUEST), req.id, 0, req.start));
    }

    fn finish(&self, ctx: &PmcCtx<'_, '_>, req: &Req) {
        let done = ctx.with_cpu(|c| c.now());
        ctx.with_cpu(|cpu| cpu.trace_event(span_end(span_kind::REQUEST), req.id, 0, 0));
        let l = ctx.scope_x(self.lat.at(req.id));
        l.write(done.saturating_sub(req.start));
        l.flush();
        l.close();
    }

    /// Host-side readback of per-request latencies (indexed by request
    /// id).
    pub fn latencies(&self, sys: &System) -> Vec<u64> {
        (0..self.params.load.n_requests).map(|i| sys.read_back(self.lat.at(i))).collect()
    }

    /// Host-side readback of per-server served-request counts.
    pub fn served_counts(&self, sys: &System) -> Vec<u32> {
        (0..self.n_servers()).map(|i| sys.read_back(self.served.at(i))).collect()
    }

    /// Deterministic run checksum: latencies folded with the final
    /// shard contents.
    pub fn checksum(&self, sys: &System) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for l in self.latencies(sys) {
            mix(l);
        }
        for slab in &self.shards {
            for k in 0..slab.len() {
                mix(sys.read_back_at(*slab, k) as u64);
            }
        }
        h
    }

    /// The generated schedule (for tests and reporting).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}

/// The outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub report: RunReport,
    /// Per-request open-loop latency in cycles, indexed by request id.
    pub latencies: Vec<u64>,
    /// Requests served per serving tile (spare last when rebalancing).
    pub served: Vec<u32>,
    /// The injected schedule.
    pub jobs: Vec<Job>,
    /// Span-derived histograms (`request` row populated when the
    /// session enabled telemetry).
    pub metrics: MetricsRegistry,
    pub trace: Vec<TraceRecord>,
    pub telemetry: TelemetryReport,
    pub links: Vec<LinkReport>,
    pub cfg: SocConfig,
    pub engine_stats: EngineStats,
    pub checksum: u64,
}

impl ServeReport {
    /// Latency percentile over the per-request readback (cycles).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut v = self.latencies.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[rank.min(v.len() - 1)]
    }
}

/// Run the serving workload on a [`Session`]'s axes (backend, lock,
/// topology, telemetry, controllers). Deterministic: the same
/// session axes and parameters give a bit-identical [`ServeReport`].
pub fn run_serve_session(session: &Session, params: &KvServeParams) -> ServeReport {
    let need = KvServe::tiles_needed(params);
    let n_tiles = session.tiles_for(need);
    let cfg = session.soc_config(n_tiles);
    let mut sys = System::new(cfg.clone(), session.backend(), session.lock());
    let app = KvServe::build(&mut sys, params.clone());
    let app_ref = &app;
    let mut programs: Vec<Program<'_>> = Vec::new();
    programs.push(Box::new(move |ctx: &mut PmcCtx<'_, '_>| app_ref.frontend(ctx)));
    for w in 0..app.n_servers() {
        programs.push(Box::new(move |ctx: &mut PmcCtx<'_, '_>| app_ref.worker(ctx, w)));
    }
    let report = sys.run(programs);
    let latencies = app.latencies(&sys);
    let served = app.served_counts(&sys);
    let checksum = app.checksum(&sys);
    let links = sys.soc().link_report();
    let trace =
        if cfg.trace || cfg.telemetry.enabled { sys.soc().take_trace() } else { Vec::new() };
    let telemetry = sys.soc().take_telemetry();
    let engine_stats = sys.soc().engine_stats().unwrap_or_default();
    let metrics = MetricsRegistry::from_trace(&trace);
    ServeReport {
        report,
        latencies,
        served,
        jobs: app.jobs,
        metrics,
        trace,
        telemetry,
        links,
        cfg,
        engine_stats,
        checksum,
    }
}

/// Ring-topology convenience wrapper mirroring
/// [`crate::workload::run_workload`].
pub fn run_serve(backend: pmc_runtime::BackendKind, params: &KvServeParams) -> ServeReport {
    let session =
        RunConfig::new(backend).n_tiles(KvServe::tiles_needed(params)).trace(true).session();
    run_serve_session(&session, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_runtime::{monitor, BackendKind};

    fn tiny() -> KvServeParams {
        KvServeParams {
            load: LoadGenParams {
                n_requests: 24,
                n_shards: 2,
                keys_per_shard: 8,
                mean_interarrival: 400,
                mean_service: 50,
                ..Default::default()
            },
            mailbox_depth: 4,
            migrate_at: None,
        }
    }

    /// Every backend serves every request, passes the monitor, and the
    /// per-request latency vector is fully populated.
    #[test]
    fn serves_all_requests_clean_on_every_backend() {
        for backend in BackendKind::ALL {
            let r = run_serve(backend, &tiny());
            let total: u32 = r.served.iter().sum();
            assert_eq!(total, 24, "{backend:?}");
            assert!(r.latencies.iter().all(|&l| l > 0), "{backend:?}");
            let violations = monitor::validate(&r.trace);
            assert!(violations.is_empty(), "{backend:?}: {violations:?}");
        }
    }

    /// The rebalancing scenario reroutes hot-shard traffic to the spare
    /// and loses no request.
    #[test]
    fn migration_reroutes_hot_shard_traffic() {
        let params = KvServeParams { migrate_at: Some(8), ..tiny() };
        for backend in [BackendKind::Swcc, BackendKind::Spm] {
            let r = run_serve(backend, &params);
            let total: u32 = r.served.iter().sum();
            assert_eq!(total, 24, "{backend:?}");
            // The spare (last server) took over the post-migration hot
            // traffic.
            let hot_after =
                r.jobs.iter().filter(|j| j.shard == HOT_SHARD && j.id >= 8).count() as u32;
            assert_eq!(*r.served.last().unwrap(), hot_after, "{backend:?}");
            let violations = monitor::validate(&r.trace);
            assert!(violations.is_empty(), "{backend:?}: {violations:?}");
        }
    }
}
