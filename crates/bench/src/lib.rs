//! # pmc-bench — harness utilities
//!
//! Shared formatting helpers for the figure/table binaries. Each binary
//! regenerates one artefact of the paper:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1` | Table I (ordering rules) |
//! | `fig1_litmus` | Fig. 1 (message passing breaks on distributed memories) |
//! | `table2_portability` | Table II (one program, four architectures) |
//! | `fig8` | Fig. 8 (SPLASH-2 under no-CC vs SWCC, stall breakdown) |
//! | `fig9_fifo` | Fig. 9 (multi-reader/multi-writer FIFO) |
//! | `fig10_spm` | Fig. 10 (motion estimation on scratch-pads) |
//! | `fig_dma` | extension: DMA bursts vs word-copy, per-link NoC contention |
//! | `ablation_locks` | extension: SDRAM lock vs asymmetric distributed lock |

use pmc_apps::workload::Breakdown;

/// Render a Fig. 8-style percentage bar row (the stall columns sum to
/// 100%: `dma-wait` is the time cores sleep in event-based DMA
/// completion waits).
pub fn breakdown_row(label: &str, b: &Breakdown) -> String {
    format!(
        "{label:<24} {:>7.1}% {:>9.1}% {:>9.1}% {:>7.1}% {:>8.1}% {:>7.1}% {:>8.1}% {:>12} {:>8.2}%",
        b.busy * 100.0,
        b.priv_read * 100.0,
        b.shared_read * 100.0,
        b.write * 100.0,
        b.icache * 100.0,
        b.noc * 100.0,
        b.dma_wait * 100.0,
        b.makespan,
        b.flush_overhead * 100.0,
    )
}

/// Header matching [`breakdown_row`].
pub fn breakdown_header() -> String {
    format!(
        "{:<24} {:>8} {:>10} {:>10} {:>8} {:>9} {:>8} {:>9} {:>12} {:>9}",
        "run",
        "busy",
        "priv-read",
        "shrd-read",
        "write",
        "icache",
        "noc",
        "dma-wait",
        "makespan",
        "flush"
    )
}

/// Simple `--flag value` argument scraping for the harness binaries.
pub fn arg_u32(name: &str, default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// String-valued `--flag value` argument (e.g. `--topology mesh`).
pub fn arg_str(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Parse a `--topology` argument (`ring` | `mesh` | `torus`) into a
/// topology for `n_tiles` tiles. Meshes and tori use the most nearly
/// square factorisation of the tile count (8 → 2×4, 16 → 4×4; primes
/// degenerate to a 1×n line).
pub fn arg_topology(n_tiles: usize) -> pmc_soc_sim::Topology {
    match arg_str("--topology", "ring").as_str() {
        "ring" => pmc_soc_sim::Topology::Ring,
        "mesh" => {
            let (cols, rows) = mesh_dims(n_tiles);
            pmc_soc_sim::Topology::Mesh { cols, rows }
        }
        "torus" => {
            let (cols, rows) = mesh_dims(n_tiles);
            pmc_soc_sim::Topology::Torus { cols, rows }
        }
        other => panic!("--topology must be `ring`, `mesh` or `torus`, got `{other}`"),
    }
}

/// `k` memory-controller tiles spread evenly over `n_tiles` (`k = 1` →
/// tile 0, the single-controller default). The spread keeps the average
/// tile-to-controller distance flat as controllers are added, so
/// controller-scaling tables measure port parallelism, not placement.
pub fn spread_controllers(n_tiles: usize, k: usize) -> Vec<usize> {
    (0..k.max(1)).map(|i| i * n_tiles / k.max(1)).collect()
}

/// The most nearly square `cols × rows` factorisation of `n`.
pub fn mesh_dims(n: usize) -> (usize, usize) {
    let mut cols = (n as f64).sqrt() as usize;
    while cols > 1 && !n.is_multiple_of(cols) {
        cols -= 1;
    }
    let cols = cols.max(1);
    (cols, n / cols)
}

/// The `n` busiest links of a report (non-idle only, descending busy) —
/// the shared selection behind every contention table.
pub fn top_links(links: &[pmc_soc_sim::LinkReport], n: usize) -> Vec<&pmc_soc_sim::LinkReport> {
    let mut busiest: Vec<_> = links.iter().filter(|l| l.busy > 0).collect();
    busiest.sort_by_key(|l| std::cmp::Reverse(l.busy));
    busiest.truncate(n);
    busiest
}

/// Minimal JSON emission for the figure binaries' `--json` mode (the
/// workspace carries no serde; the documents are assembled by hand and
/// checked against [`pmc_soc_sim::telemetry::validate_json`] in tests).
pub mod json {
    /// A JSON string literal, quoted and escaped.
    pub fn str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A JSON number. JSON has no NaN/Infinity; those become `null`.
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        }
    }

    /// A JSON object from rendered `(key, value)` pairs.
    pub fn obj(pairs: &[(&str, String)]) -> String {
        let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}:{v}", str(k))).collect();
        format!("{{{}}}", body.join(","))
    }

    /// A JSON array from rendered values.
    pub fn arr(items: &[String]) -> String {
        format!("[{}]", items.join(","))
    }
}

/// A [`Breakdown`] as a JSON object. Stall categories are fractions of
/// total time (not percentages), exactly as the struct stores them.
pub fn breakdown_json(b: &Breakdown) -> String {
    json::obj(&[
        ("busy", json::num(b.busy)),
        ("priv_read", json::num(b.priv_read)),
        ("shared_read", json::num(b.shared_read)),
        ("write", json::num(b.write)),
        ("icache", json::num(b.icache)),
        ("noc", json::num(b.noc)),
        ("dma_wait", json::num(b.dma_wait)),
        ("utilization", json::num(b.utilization)),
        ("flush_overhead", json::num(b.flush_overhead)),
        ("makespan", b.makespan.to_string()),
    ])
}

/// The `n` busiest links as a JSON array of
/// `{link, from, to, busy, bursts}` objects (same selection and order as
/// [`top_links`]).
pub fn top_links_json(links: &[pmc_soc_sim::LinkReport], n: usize) -> String {
    let items: Vec<String> = top_links(links, n)
        .iter()
        .map(|l| {
            json::obj(&[
                ("link", l.link.to_string()),
                ("from", l.from.to_string()),
                ("to", l.to.to_string()),
                ("busy", l.busy.to_string()),
                ("bursts", l.bursts.to_string()),
            ])
        })
        .collect();
    json::arr(&items)
}
