//! Simulator configuration: platform shape and timing parameters.
//!
//! Defaults approximate the paper's platform: a 32-core MicroBlaze system
//! on a Xilinx ML605 (in-order cores, small write-back data caches,
//! single-cycle local memories, tens-of-cycles SDRAM, a low-latency
//! connectionless NoC with write-only remote access). Absolute numbers are
//! not calibrated against the FPGA — the reproduction targets the *shape*
//! of the paper's results, and every knob here is sweepable.

use crate::telemetry::TelemetryConfig;

/// Interconnect topology: how tiles are wired and how packets route.
///
/// Links are *directed* and identified by a dense `usize` id so the NoC
/// can keep busy-until / occupancy state per link
/// ([`crate::noc::Noc::reserve_path`], [`crate::noc::Noc::link_stats`]).
/// The numbering is topology-specific:
///
/// * **Ring** (`2 * n_tiles` ids): link `i` carries `i → (i+1) % n`
///   (clockwise), link `n + i` carries `(i+1) % n → i`
///   (counterclockwise). Routes take the shortest arc, clockwise on
///   ties.
/// * **Mesh** (`4 * n_tiles` ids, boundary ids unused): tile
///   `t = y * cols + x` owns up to four outgoing links — east `t → t+1`
///   at id `t`, west `t → t-1` at id `n + t`, south `t → t+cols` at id
///   `2n + t`, north `t → t-cols` at id `3n + t`. Routes are
///   deterministic dimension-ordered **XY**: the full X leg first, then
///   the Y leg — cycle-free and exactly Manhattan-distance long.
/// * **Torus** (`4 * n_tiles` ids): the mesh numbering with wraparound —
///   the east link of a rightmost tile exists and lands on column 0 of
///   the same row (and so on for each direction), so every tile owns
///   all four links unless a dimension is degenerate (`cols == 1` makes
///   east/west self-loops, which are invalid ids; likewise `rows == 1`
///   for south/north). Routes are wrap-aware XY: each leg takes the
///   shorter way around its dimension, east/south on ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Bidirectional ring (the original stand-in for the paper's
    /// connectionless NoC \[16\]).
    #[default]
    Ring,
    /// 2-D mesh of `cols × rows` tiles with XY (dimension-ordered)
    /// routing. `cols * rows` must equal `SocConfig::n_tiles`
    /// ([`SocConfig::validate`]).
    Mesh { cols: usize, rows: usize },
    /// 2-D torus of `cols × rows` tiles: the mesh with wraparound links
    /// in both dimensions and wrap-aware XY routing, halving the worst-
    /// case hop count. `cols * rows` must equal `SocConfig::n_tiles`
    /// ([`SocConfig::validate`]).
    Torus { cols: usize, rows: usize },
}

impl Topology {
    pub fn name(self) -> &'static str {
        match self {
            Topology::Ring => "ring",
            Topology::Mesh { .. } => "mesh",
            Topology::Torus { .. } => "torus",
        }
    }

    /// Number of directed-link id slots (some mesh slots are boundary
    /// ids that no route ever uses; see [`Topology::is_valid_link`]).
    pub fn link_count(self, n_tiles: usize) -> usize {
        match self {
            Topology::Ring => 2 * n_tiles,
            Topology::Mesh { .. } | Topology::Torus { .. } => 4 * n_tiles,
        }
    }

    /// Whether `link` names a physical link of the topology (mesh
    /// boundary slots — e.g. the east link of a rightmost tile — do
    /// not exist).
    pub fn is_valid_link(self, n_tiles: usize, link: usize) -> bool {
        match self {
            Topology::Ring => link < 2 * n_tiles,
            Topology::Mesh { cols, rows } => {
                let n = cols * rows;
                if link >= 4 * n {
                    return false;
                }
                let (dir, t) = (link / n, link % n);
                let (x, y) = (t % cols, t / cols);
                match dir {
                    0 => x + 1 < cols, // east
                    1 => x > 0,        // west
                    2 => y + 1 < rows, // south
                    _ => y > 0,        // north
                }
            }
            Topology::Torus { cols, rows } => {
                let n = cols * rows;
                if link >= 4 * n {
                    return false;
                }
                // Wraparound gives every tile all four links; only a
                // degenerate dimension (a self-loop) is not a link.
                match link / n {
                    0 | 1 => cols > 1, // east / west
                    _ => rows > 1,     // south / north
                }
            }
        }
    }

    /// The `(from, to)` tiles of a directed link (must be valid for the
    /// topology).
    pub fn link_endpoints(self, n_tiles: usize, link: usize) -> (usize, usize) {
        assert!(self.is_valid_link(n_tiles, link), "link {link} is not part of the {self:?}");
        match self {
            Topology::Ring => {
                let n = n_tiles;
                if link < n {
                    (link, (link + 1) % n)
                } else {
                    ((link - n + 1) % n, link - n)
                }
            }
            Topology::Mesh { cols, rows } => {
                let n = cols * rows;
                let (dir, t) = (link / n, link % n);
                match dir {
                    0 => (t, t + 1),
                    1 => (t, t - 1),
                    2 => (t, t + cols),
                    _ => (t, t - cols),
                }
            }
            Topology::Torus { cols, rows } => {
                let n = cols * rows;
                let (dir, t) = (link / n, link % n);
                let (x, y) = (t % cols, t / cols);
                match dir {
                    0 => (t, y * cols + (x + 1) % cols),
                    1 => (t, y * cols + (x + cols - 1) % cols),
                    2 => (t, (y + 1) % rows * cols + x),
                    _ => (t, (y + rows - 1) % rows * cols + x),
                }
            }
        }
    }

    /// Directed link ids along the route `from → to`. Deterministic,
    /// cycle-free, and minimal: the shortest arc on the ring (clockwise
    /// on ties), the XY path (X leg then Y leg) on the mesh, the
    /// wrap-aware XY path (shorter way around each dimension, east/south
    /// on ties) on the torus.
    ///
    /// Endpoint ranges are checked by [`SocConfig::validate`] before a
    /// run starts (every routed endpoint is a tile or a configured
    /// memory controller), so this hot path only `debug_assert!`s them.
    pub fn route(self, n_tiles: usize, from: usize, to: usize) -> Vec<usize> {
        debug_assert!(from < n_tiles && to < n_tiles, "route endpoints out of range");
        if from == to {
            return Vec::new();
        }
        match self {
            Topology::Ring => {
                let n = n_tiles;
                let cw = (to + n - from) % n;
                let ccw = n - cw;
                if cw <= ccw {
                    (0..cw).map(|k| (from + k) % n).collect()
                } else {
                    (0..ccw).map(|k| n + (from + n - 1 - k) % n).collect()
                }
            }
            Topology::Mesh { cols, rows } => {
                let n = cols * rows;
                let (mut x, y0) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                let mut links = Vec::new();
                while x < tx {
                    links.push(y0 * cols + x); // east of (x, y0)
                    x += 1;
                }
                while x > tx {
                    links.push(n + y0 * cols + x); // west of (x, y0)
                    x -= 1;
                }
                let mut y = y0;
                while y < ty {
                    links.push(2 * n + y * cols + x); // south of (x, y)
                    y += 1;
                }
                while y > ty {
                    links.push(3 * n + y * cols + x); // north of (x, y)
                    y -= 1;
                }
                links
            }
            Topology::Torus { cols, rows } => {
                let n = cols * rows;
                let (mut x, mut y) = (from % cols, from / cols);
                let (tx, ty) = (to % cols, to / cols);
                let mut links = Vec::new();
                // X leg: the shorter way around the row ring, east on
                // ties.
                let east = (tx + cols - x) % cols;
                if east <= cols - east {
                    for _ in 0..east {
                        links.push(y * cols + x); // east of (x, y)
                        x = (x + 1) % cols;
                    }
                } else {
                    for _ in 0..cols - east {
                        links.push(n + y * cols + x); // west of (x, y)
                        x = (x + cols - 1) % cols;
                    }
                }
                // Y leg: the shorter way around the column ring, south
                // on ties.
                let south = (ty + rows - y) % rows;
                if south <= rows - south {
                    for _ in 0..south {
                        links.push(2 * n + y * cols + x); // south of (x, y)
                        y = (y + 1) % rows;
                    }
                } else {
                    for _ in 0..rows - south {
                        links.push(3 * n + y * cols + x); // north of (x, y)
                        y = (y + rows - 1) % rows;
                    }
                }
                links
            }
        }
    }

    /// Hop count of the route `from → to` (shortest arc on the ring,
    /// Manhattan distance on the mesh, wrap-aware Manhattan distance on
    /// the torus).
    pub fn hops(self, n_tiles: usize, from: usize, to: usize) -> u64 {
        match self {
            Topology::Ring => {
                if from == to {
                    return 0;
                }
                let d = from.abs_diff(to);
                d.min(n_tiles - d) as u64
            }
            Topology::Mesh { cols, .. } => {
                let dx = (from % cols).abs_diff(to % cols);
                let dy = (from / cols).abs_diff(to / cols);
                (dx + dy) as u64
            }
            Topology::Torus { cols, rows } => {
                let dx = (from % cols).abs_diff(to % cols);
                let dy = (from / cols).abs_diff(to / cols);
                (dx.min(cols - dx) + dy.min(rows - dy)) as u64
            }
        }
    }
}

/// Data-cache geometry (per core).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_size: u32,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    pub fn size_bytes(&self) -> u32 {
        self.line_size * self.sets * self.ways
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 8 KiB, 2-way, 32-byte lines — MicroBlaze-ish.
        CacheConfig { line_size: 32, sets: 128, ways: 2 }
    }
}

/// Timing parameters, in core clock cycles.
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    /// Extra stall for a load that hits the data cache (0 = single-cycle).
    pub cache_hit: u64,
    /// Access to the own tile's local memory (LMB-attached BRAM).
    pub local_mem: u64,
    /// Fixed part of an SDRAM transaction (controller + row activation).
    pub sdram_fixed: u64,
    /// Per-32-bit-word transfer cost on the SDRAM bus.
    pub sdram_per_word: u64,
    /// Stall charged for an uncached/posted write (store buffer drain).
    pub posted_write: u64,
    /// Fixed NoC route setup cost.
    pub noc_fixed: u64,
    /// Per-hop NoC cost.
    pub noc_per_hop: u64,
    /// Per-32-bit-word NoC payload cost.
    pub noc_per_word: u64,
    /// I-cache miss penalty.
    pub icache_miss: u64,
    /// Cycles for one cache-management instruction (`wdc`-style).
    pub cache_op: u64,
    /// Per-transfer DMA-engine programming/setup cost (descriptor write
    /// plus channel arbitration) before the first burst can start.
    pub dma_setup: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            cache_hit: 0,
            local_mem: 1,
            sdram_fixed: 14,
            sdram_per_word: 2,
            posted_write: 2,
            noc_fixed: 4,
            noc_per_hop: 2,
            noc_per_word: 1,
            icache_miss: 22,
            cache_op: 2,
            dma_setup: 16,
        }
    }
}

/// Whole-platform configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Number of tiles (cores). The paper's system has 32.
    pub n_tiles: usize,
    /// Per-tile local memory size in bytes.
    pub local_mem_size: u32,
    /// Shared SDRAM size in bytes.
    pub sdram_size: u32,
    pub dcache: CacheConfig,
    pub lat: Latencies,
    /// Average I-cache misses per 1000 instructions (deterministic
    /// Bresenham-style accounting; see `icache` module). The paper's
    /// applications have non-trivial instruction footprints.
    pub icache_mpki: u32,
    /// A core may run at most this many cycles on core-local state before
    /// being forced to synchronise its published clock (bounds how far
    /// other tiles can conservatively lag).
    pub max_local_run: u64,
    /// Hard virtual-time limit; exceeding it aborts the simulation (a
    /// lost-flag / livelock watchdog).
    pub time_limit: u64,
    /// Record an annotation-level event trace (for model validation).
    pub trace: bool,
    /// Cycle-accurate telemetry recording (stall/DMA/link/port spans
    /// and runtime-level span records; see [`crate::telemetry`]).
    /// Disabled by default and strictly observational: toggling it
    /// changes no counter, checksum, or trace outcome.
    pub telemetry: TelemetryConfig,
    /// The tile the SDRAM controller is attached to: DMA bursts and
    /// posted writes traverse the links between the issuing tile and
    /// this tile, so distance (and shared links) shape bulk-transfer
    /// bandwidth. When [`SocConfig::mem_controllers`] is non-empty it
    /// takes precedence and this field is ignored.
    pub mem_tile: usize,
    /// The tiles the SDRAM controllers are attached to. Empty (the
    /// default) means the single controller at [`SocConfig::mem_tile`];
    /// with N > 1 entries the SDRAM address space is striped across the
    /// controllers ([`crate::addr::controller_for`]) and each controller
    /// serialises its own port, so aggregate SDRAM bandwidth scales with
    /// the controller count. Entries must be distinct in-range tiles
    /// ([`SocConfig::validate`]).
    pub mem_controllers: Vec<usize>,
    /// Interconnect topology ([`Topology::Ring`] by default). Everything
    /// that reserves link bandwidth routes through
    /// [`Topology::route`], so the consistency machinery above is
    /// topology-agnostic — the conformance sweep re-proves it per
    /// topology.
    pub topology: Topology,
    /// Independent DMA channels per tile engine. Transfers on one channel
    /// serialise in issue order; transfers on different channels overlap
    /// and contend only for the shared SDRAM port and NoC links.
    /// Completion words and sequence numbers are per-channel.
    pub dma_channels: usize,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            n_tiles: 32,
            local_mem_size: 128 << 10,
            sdram_size: 16 << 20,
            dcache: CacheConfig::default(),
            lat: Latencies::default(),
            icache_mpki: 4,
            max_local_run: 8_192,
            time_limit: 2_000_000_000,
            trace: false,
            telemetry: TelemetryConfig::default(),
            mem_tile: 0,
            mem_controllers: Vec::new(),
            topology: Topology::Ring,
            dma_channels: 1,
        }
    }
}

impl SocConfig {
    /// A small configuration for unit tests (fast, 4 tiles).
    pub fn small(n_tiles: usize) -> Self {
        SocConfig {
            n_tiles,
            local_mem_size: 64 << 10,
            sdram_size: 1 << 20,
            time_limit: 200_000_000,
            ..Default::default()
        }
    }

    /// A small mesh configuration for unit tests (`cols × rows` tiles).
    pub fn small_mesh(cols: usize, rows: usize) -> Self {
        SocConfig { topology: Topology::Mesh { cols, rows }, ..Self::small(cols * rows) }
    }

    /// A small torus configuration for unit tests (`cols × rows` tiles).
    pub fn small_torus(cols: usize, rows: usize) -> Self {
        SocConfig { topology: Topology::Torus { cols, rows }, ..Self::small(cols * rows) }
    }

    /// The resolved SDRAM controller placement: `mem_controllers` when
    /// non-empty, else the single controller at `mem_tile`. Index `i` of
    /// the returned list is controller id `i` in the interleaving map
    /// ([`crate::addr::controller_for`]).
    pub fn controllers(&self) -> Vec<usize> {
        if self.mem_controllers.is_empty() {
            vec![self.mem_tile]
        } else {
            self.mem_controllers.clone()
        }
    }

    /// Check the configuration for inconsistencies that would otherwise
    /// surface as index panics or silent deadlocks deep inside a run: a
    /// mesh or torus whose shape has a zero dimension or does not cover
    /// `n_tiles`, a memory controller placed on a tile that does not
    /// exist (or listed twice), a DMA subsystem with no channels, or
    /// scheduler/telemetry parameters the engines cannot honour.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_tiles == 0 {
            return Err("n_tiles must be at least 1".to_string());
        }
        if self.mem_tile >= self.n_tiles {
            return Err(format!(
                "mem_tile {} out of range: the platform has {} tiles",
                self.mem_tile, self.n_tiles
            ));
        }
        if let Topology::Mesh { cols, rows } | Topology::Torus { cols, rows } = self.topology {
            let name = self.topology.name();
            if cols == 0 || rows == 0 {
                // Checked before the area: a 0x0 shape on an n_tiles == 0
                // config would otherwise pass `cols * rows == n_tiles`
                // and panic deep inside `route`.
                return Err(format!(
                    "{name} topology {cols}x{rows} has a zero dimension: \
                     cols and rows must both be at least 1"
                ));
            }
            if cols * rows != self.n_tiles {
                return Err(format!(
                    "{name} topology {cols}x{rows} does not cover n_tiles {}: \
                     cols * rows must equal the tile count",
                    self.n_tiles
                ));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &c in &self.mem_controllers {
            if c >= self.n_tiles {
                return Err(format!(
                    "mem_controllers entry {c} out of range: the platform has {} tiles",
                    self.n_tiles
                ));
            }
            if !seen.insert(c) {
                return Err(format!(
                    "mem_controllers lists tile {c} twice: controllers must be distinct tiles"
                ));
            }
        }
        if self.dma_channels == 0 {
            return Err("dma_channels must be at least 1 (every tile has a DMA engine)".to_string());
        }
        if self.time_limit == 0 {
            return Err("time_limit must be non-zero: it is the livelock watchdog, and the \
                 discrete-event engine relies on it to bound runaway tasks"
                .to_string());
        }
        if self.max_local_run == 0 {
            return Err("max_local_run must be at least 1: a zero local-run budget would force a \
                 scheduler sync on every cycle of pure compute"
                .to_string());
        }
        if self.telemetry.enabled && self.telemetry.ring_capacity == 0 {
            return Err("telemetry ring_capacity must be at least 1 when telemetry is enabled \
                 (every event would be dropped at recording time)"
                .to_string());
        }
        if self.telemetry.enabled {
            // One ring per tile plus the interconnect ring: reject
            // configurations whose telemetry footprint cannot be
            // allocated (a 4096-tile mesh with the default capacity is
            // fine; usize overflow of the total is not).
            if self.telemetry.ring_capacity.checked_mul(self.n_tiles + 1).is_none() {
                return Err(format!(
                    "telemetry ring_capacity {} x {} tiles overflows the total ring budget",
                    self.telemetry.ring_capacity, self.n_tiles
                ));
            }
        }
        Ok(())
    }

    /// NoC hop count between two tiles on the configured topology
    /// (nearby tiles are cheaper than far ones).
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        self.topology.hops(self.n_tiles, from, to)
    }

    /// End-to-end NoC latency for a payload of `bytes` bytes.
    pub fn noc_latency(&self, from: usize, to: usize, bytes: u32) -> u64 {
        let words = bytes.div_ceil(4) as u64;
        self.lat.noc_fixed
            + self.lat.noc_per_hop * self.hops(from, to)
            + self.lat.noc_per_word * words
    }

    /// SDRAM service time for a transfer of `bytes` bytes (excluding
    /// queueing, which the scheduler adds).
    pub fn sdram_service(&self, bytes: u32) -> u64 {
        self.lat.sdram_fixed + self.lat.sdram_per_word * bytes.div_ceil(4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size() {
        assert_eq!(CacheConfig::default().size_bytes(), 8 << 10);
    }

    #[test]
    fn ring_hops_are_symmetric_and_shortest() {
        let c = SocConfig::small(8);
        assert_eq!(c.hops(0, 0), 0);
        assert_eq!(c.hops(0, 1), 1);
        assert_eq!(c.hops(1, 0), 1);
        assert_eq!(c.hops(0, 7), 1, "ring wraps");
        assert_eq!(c.hops(0, 4), 4);
    }

    #[test]
    fn latencies_monotone_in_distance_and_size() {
        let c = SocConfig::small(8);
        assert!(c.noc_latency(0, 1, 4) < c.noc_latency(0, 4, 4));
        assert!(c.noc_latency(0, 1, 4) < c.noc_latency(0, 1, 64));
        assert!(c.sdram_service(4) < c.sdram_service(32));
    }

    #[test]
    fn ring_route_picks_shortest_direction() {
        let t = Topology::Ring;
        // 8-tile ring: 0 → 2 clockwise over links 0, 1.
        assert_eq!(t.route(8, 0, 2), vec![0, 1]);
        // 0 → 7 counterclockwise over link 8 + 7.
        assert_eq!(t.route(8, 0, 7), vec![15]);
        // 2 → 0 counterclockwise over links 8+1, 8+0.
        assert_eq!(t.route(8, 2, 0), vec![9, 8]);
        assert_eq!(t.route(8, 3, 3), Vec::<usize>::new());
        // Antipodal ties go clockwise.
        assert_eq!(t.route(4, 0, 2), vec![0, 1]);
    }

    #[test]
    fn mesh_xy_route_goes_x_then_y() {
        // 4×4 mesh, tile t = y*4 + x, n = 16.
        let t = Topology::Mesh { cols: 4, rows: 4 };
        // 0 (0,0) → 10 (2,2): east links of tiles 0, 1 then south links
        // of tiles 2, 6.
        assert_eq!(t.route(16, 0, 10), vec![0, 1, 2 * 16 + 2, 2 * 16 + 6]);
        // The reverse path mirrors it: west of 10, 9 then north of 8, 4.
        assert_eq!(t.route(16, 10, 0), vec![16 + 10, 16 + 9, 3 * 16 + 8, 3 * 16 + 4]);
        // Same row: pure X leg.
        assert_eq!(t.route(16, 4, 7), vec![4, 5, 6]);
        // Same column: pure Y leg.
        assert_eq!(t.route(16, 1, 13), vec![2 * 16 + 1, 2 * 16 + 5, 2 * 16 + 9]);
        assert_eq!(t.route(16, 9, 9), Vec::<usize>::new());
    }

    #[test]
    fn mesh_hops_is_manhattan_distance_and_links_chain() {
        let t = Topology::Mesh { cols: 4, rows: 2 };
        assert_eq!(t.hops(8, 0, 7), 4); // (0,0) → (3,1)
        assert_eq!(t.hops(8, 5, 6), 1);
        assert_eq!(t.hops(8, 2, 2), 0);
        let route = t.route(8, 7, 0);
        assert_eq!(route.len() as u64, t.hops(8, 7, 0));
        let mut at = 7;
        for &l in &route {
            assert!(t.is_valid_link(8, l));
            let (from, to) = t.link_endpoints(8, l);
            assert_eq!(from, at);
            at = to;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn mesh_boundary_link_slots_are_invalid() {
        let t = Topology::Mesh { cols: 3, rows: 2 };
        // Tile 2 = (2, 0): no east (boundary), no north (top row).
        assert!(!t.is_valid_link(6, 2));
        assert!(!t.is_valid_link(6, 3 * 6 + 2));
        // But it has west and south links.
        assert!(t.is_valid_link(6, 6 + 2));
        assert!(t.is_valid_link(6, 2 * 6 + 2));
        // Out-of-range slots are invalid on both topologies.
        assert!(!t.is_valid_link(6, 4 * 6));
        assert!(!Topology::Ring.is_valid_link(6, 12));
    }

    #[test]
    fn torus_route_wraps_the_shorter_way() {
        // 4×4 torus, tile t = y*4 + x, n = 16.
        let t = Topology::Torus { cols: 4, rows: 4 };
        // 0 (0,0) → 3 (3,0): one west hop around the wraparound, not
        // three east hops.
        assert_eq!(t.route(16, 0, 3), vec![16]);
        assert_eq!(t.hops(16, 0, 3), 1);
        // 0 (0,0) → 12 (0,3): one north hop around the wraparound.
        assert_eq!(t.route(16, 0, 12), vec![3 * 16]);
        // 0 → 15 (3,3): wraps both dimensions — west of (0,0), then
        // north of (3,0).
        assert_eq!(t.route(16, 0, 15), vec![16, 3 * 16 + 3]);
        assert_eq!(t.hops(16, 0, 15), 2);
        // Interior routes match the mesh: 0 → 10 goes east, east, south,
        // south (antipodal ties go east/south).
        assert_eq!(t.route(16, 0, 10), vec![0, 1, 2 * 16 + 2, 2 * 16 + 6]);
        assert_eq!(t.route(16, 9, 9), Vec::<usize>::new());
    }

    #[test]
    fn torus_links_wrap_and_degenerate_dims_are_invalid() {
        let t = Topology::Torus { cols: 3, rows: 2 };
        // Tile 2 = (2,0): its east link wraps to (0,0) = tile 0, its
        // north link wraps to (2,1) = tile 5.
        assert!(t.is_valid_link(6, 2));
        assert_eq!(t.link_endpoints(6, 2), (2, 0));
        assert!(t.is_valid_link(6, 3 * 6 + 2));
        assert_eq!(t.link_endpoints(6, 3 * 6 + 2), (2, 5));
        assert!(!t.is_valid_link(6, 4 * 6));
        // A 1-wide torus has no east/west links (self-loops), but keeps
        // south/north.
        let narrow = Topology::Torus { cols: 1, rows: 4 };
        assert!(!narrow.is_valid_link(4, 0));
        assert!(!narrow.is_valid_link(4, 4));
        assert!(narrow.is_valid_link(4, 2 * 4));
        assert_eq!(narrow.route(4, 0, 3), vec![3 * 4]);
    }

    #[test]
    fn validate_rejects_mesh_shape_mismatch() {
        let mut cfg = SocConfig::small(8);
        cfg.topology = Topology::Mesh { cols: 3, rows: 2 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("3x2") && err.contains("8"), "{err}");
        cfg.topology = Topology::Mesh { cols: 4, rows: 2 };
        assert!(cfg.validate().is_ok());
        cfg.topology = Topology::Mesh { cols: 0, rows: 0 };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_mem_tile_out_of_range() {
        let mut cfg = SocConfig::small(4);
        cfg.mem_tile = 4;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("mem_tile 4"), "{err}");
        cfg.mem_tile = 3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_dim_shapes() {
        // A zero dimension is its own clear error, not an area mismatch
        // (a 0x0 shape would otherwise only be caught by the area check,
        // which an n_tiles == 0 config sails past into `route` panics).
        let mut cfg = SocConfig::small(4);
        cfg.topology = Topology::Mesh { cols: 0, rows: 4 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("mesh topology 0x4 has a zero dimension"), "{err}");
        cfg.topology = Topology::Torus { cols: 4, rows: 0 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("torus topology 4x0 has a zero dimension"), "{err}");
    }

    #[test]
    fn validate_rejects_torus_shape_mismatch() {
        let mut cfg = SocConfig::small(8);
        cfg.topology = Topology::Torus { cols: 3, rows: 2 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("torus topology 3x2") && err.contains('8'), "{err}");
        cfg.topology = Topology::Torus { cols: 4, rows: 2 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_controller_lists() {
        let mut cfg = SocConfig::small(4);
        cfg.mem_controllers = vec![0, 4];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("mem_controllers entry 4 out of range"), "{err}");
        cfg.mem_controllers = vec![1, 3, 1];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("lists tile 1 twice"), "{err}");
        cfg.mem_controllers = vec![1, 3];
        assert!(cfg.validate().is_ok());
        // Empty means the single mem_tile controller.
        cfg.mem_controllers = Vec::new();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.controllers(), vec![cfg.mem_tile]);
    }

    #[test]
    fn validate_rejects_zero_dma_channels() {
        let mut cfg = SocConfig::small(4);
        cfg.dma_channels = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("dma_channels must be at least 1"), "{err}");
        cfg.dma_channels = 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_time_limit() {
        let mut cfg = SocConfig::small(4);
        cfg.time_limit = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("time_limit must be non-zero"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_local_run_budget() {
        let mut cfg = SocConfig::small(4);
        cfg.max_local_run = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("max_local_run must be at least 1"), "{err}");
    }

    #[test]
    fn validate_rejects_enabled_telemetry_with_empty_rings() {
        let mut cfg = SocConfig::small(4);
        cfg.telemetry.enabled = true;
        cfg.telemetry.ring_capacity = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("ring_capacity must be at least 1"), "{err}");
        // A disabled recorder does not care about its capacity.
        cfg.telemetry.enabled = false;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_overflowing_telemetry_budget() {
        let mut cfg = SocConfig::small(4);
        cfg.telemetry.enabled = true;
        cfg.telemetry.ring_capacity = usize::MAX / 2;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("overflows the total ring budget"), "{err}");
    }

    #[test]
    fn small_mesh_builds_a_valid_config() {
        let cfg = SocConfig::small_mesh(4, 4);
        assert_eq!(cfg.n_tiles, 16);
        assert_eq!(cfg.topology, Topology::Mesh { cols: 4, rows: 4 });
        assert!(cfg.validate().is_ok());
        // hops follows the topology: 0 → 15 is 6 mesh hops, not 1 ring
        // wrap.
        assert_eq!(cfg.hops(0, 15), 6);
    }

    #[test]
    fn small_torus_builds_a_valid_config() {
        let cfg = SocConfig::small_torus(4, 4);
        assert_eq!(cfg.n_tiles, 16);
        assert_eq!(cfg.topology, Topology::Torus { cols: 4, rows: 4 });
        assert!(cfg.validate().is_ok());
        // The wraparound halves the corner-to-corner distance: 2 torus
        // hops where the mesh needs 6.
        assert_eq!(cfg.hops(0, 15), 2);
    }
}
