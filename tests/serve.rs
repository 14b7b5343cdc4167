//! End-to-end gates for the serving subsystem: seeded determinism, skew
//! behaviour, and monitor-cleanliness across the arrival distributions —
//! the serving half of the acceptance criteria, at test scale. The
//! golden digests in `tests/engine.rs` pin one cell per back-end.

use pmc::apps::kvserve::{run_serve, run_serve_session, KvServe, KvServeParams};
use pmc::apps::loadgen::{self, ArrivalDist, LoadGenParams};
use pmc::runtime::{monitor, BackendKind, RunConfig};

fn small_load() -> LoadGenParams {
    LoadGenParams {
        n_requests: 32,
        n_shards: 4,
        keys_per_shard: 16,
        mean_interarrival: 500,
        mean_service: 60,
        ..Default::default()
    }
}

/// Same seed ⇒ byte-identical schedule and byte-identical run report
/// (latencies, served counts, trace, checksum); a different seed moves
/// the schedule.
#[test]
fn serving_runs_are_deterministic_in_the_seed() {
    let load = small_load();
    assert_eq!(loadgen::generate(&load), loadgen::generate(&load));
    let other = LoadGenParams { seed: load.seed + 1, ..load };
    assert_ne!(loadgen::generate(&load), loadgen::generate(&other));

    let params = KvServeParams { load, mailbox_depth: 8, migrate_at: None };
    let a = run_serve(BackendKind::Swcc, &params);
    let b = run_serve(BackendKind::Swcc, &params);
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.served, b.served);
    assert_eq!(a.trace, b.trace, "repeat runs must be byte-identical");
    assert_eq!(a.checksum, b.checksum);
    let c = run_serve(BackendKind::Swcc, &KvServeParams { load: other, ..params });
    assert_ne!(a.checksum, c.checksum, "a different seed must move the run");
}

/// The Zipf knob reaches the served-count level: under heavy skew the
/// hot shard serves the most requests; with the knob flat, no shard
/// starves.
#[test]
fn zipf_skew_shows_up_in_served_counts() {
    let skewed = LoadGenParams { zipf_s: 2.0, ..small_load() };
    let params = KvServeParams { load: skewed, mailbox_depth: 8, migrate_at: None };
    let r = run_serve(BackendKind::Uncached, &params);
    let hot = r.served[0];
    assert_eq!(r.served.iter().sum::<u32>(), skewed.n_requests);
    assert!(
        r.served.iter().skip(1).all(|&s| s <= hot),
        "hot shard must serve the most: {:?}",
        r.served
    );
    // The generator's own jobs say exactly how many each shard gets.
    let per_shard: Vec<u32> = (0..skewed.n_shards)
        .map(|s| r.jobs.iter().filter(|j| j.shard == s).count() as u32)
        .collect();
    assert_eq!(r.served, per_shard);
}

/// Every arrival distribution drives a clean run: all requests served,
/// all latencies measured, and the trace passes the consistency
/// monitor.
#[test]
fn all_arrival_distributions_serve_clean() {
    for arrival in ArrivalDist::ALL {
        let load = LoadGenParams { arrival, ..small_load() };
        let params = KvServeParams { load, mailbox_depth: 8, migrate_at: None };
        let r = run_serve(BackendKind::Spm, &params);
        assert_eq!(r.served.iter().sum::<u32>(), load.n_requests, "{arrival:?}");
        assert!(r.latencies.iter().all(|&l| l > 0), "{arrival:?}");
        let v = monitor::validate(&r.trace);
        assert!(v.is_empty(), "{arrival:?}: {v:?}");
    }
}

/// The request histogram rides the telemetry span path: a
/// telemetry-enabled session histograms exactly one `request` span per
/// request, and the histogram's extremes bracket the exact readback.
#[test]
fn request_latencies_reach_the_metrics_registry() {
    let params = KvServeParams { load: small_load(), mailbox_depth: 8, migrate_at: None };
    let session = RunConfig::new(BackendKind::Swcc)
        .n_tiles(KvServe::tiles_needed(&params))
        .telemetry(true)
        .trace(true)
        .session();
    let r = run_serve_session(&session, &params);
    assert_eq!(r.metrics.request.count(), params.load.n_requests as u64);
    let max_exact = *r.latencies.iter().max().unwrap();
    assert_eq!(r.metrics.request.max(), max_exact, "histogram max is the exact latency");
}
