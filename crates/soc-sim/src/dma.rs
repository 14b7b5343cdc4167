//! Per-tile asynchronous DMA engines: multi-channel, descriptor-based,
//! with scatter/gather element lists and tile-to-tile transfers.
//!
//! Each tile owns one engine with `SocConfig::dma_channels` independent
//! channels. A transfer is programmed as a [`DmaDescriptor`] — a
//! scatter/gather list of [`DmaSeg`] segments (contiguous ranges; the
//! [`DmaDescriptor::strided_2d`] constructor builds the row lists used
//! for 2-D tiles and strided volume slices) — on one channel
//! ([`crate::soc::Cpu::dma_issue`]). Each segment is split into bursts of
//! a programmable size and scheduled *at issue time* against busy-until
//! resources:
//!
//! 1. the owning channel (transfers on one channel serialise in issue
//!    order; transfers on different channels overlap);
//! 2. for SDRAM transfers, the SDRAM port of the controller owning the
//!    burst's stripe ([`crate::mem::SdramPorts`] — the same queues CPU
//!    misses use) — concurrent channels' bursts are granted a port in
//!    issue order, which under the engine's global time order acts as
//!    the round-robin arbitration of a real multi-channel engine;
//! 3. every directed NoC link on the transfer's route
//!    ([`crate::noc::Noc::reserve_path`]; the route follows the
//!    configured [`crate::config::Topology`] — shortest arc on the ring,
//!    XY on the mesh and torus). SDRAM transfers route between the tile
//!    and the controller owning each burst's stripe
//!    ([`crate::mem::SdramPorts::tile_for`]);
//!    **tile-to-tile transfers** ([`DmaKind::Copy`]) route directly
//!    between the two scratchpads and never touch the memory controller —
//!    the local-to-local path that makes producer/consumer staging cheap.
//!
//! The memory effects travel as [`crate::noc::PacketKind::DmaBurst`]
//! packets applied lazily at their arrival times, so data is read when a
//! burst actually crosses the machine, not when the descriptor is
//! written. The final burst also writes the transfer's sequence number to
//! a caller-chosen *completion word* in the issuing tile's local memory;
//! software waits by polling that word. Sequence numbers are
//! **per-channel** monotone and transfers complete in issue order *per
//! channel*, so `done >= seq` on the channel's word is the completion
//! test (transfers on different channels complete independently).
//!
//! Everything is computed at the issuing tile's commit turn from
//! deterministic state: runs remain bit-identical.

use crate::config::SocConfig;
use crate::mem::SdramPorts;
use crate::noc::{Noc, PacketKind};
use crate::telemetry::EventKind;

/// Transfer direction of an SDRAM transfer, from the issuing tile's point
/// of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// SDRAM → the issuing tile's local memory (a *get*).
    Get,
    /// The issuing tile's local memory → SDRAM (a *put*).
    Put,
}

/// What kind of transfer a descriptor programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaKind {
    /// Bulk transfer between SDRAM and the issuing tile's local memory.
    /// Bursts contend for the SDRAM port and the NoC links between the
    /// tile and the memory controller.
    Sdram(DmaDir),
    /// Tile-to-tile transfer: the issuing tile's local memory →
    /// `dst_tile`'s local memory. Reserves only the directed links on
    /// the route between the two tiles — no SDRAM port, no controller
    /// round trip.
    /// `dst_tile` may equal the issuing tile (a pure local-to-local copy
    /// at link serialisation rate, e.g. between two staging areas).
    Copy { dst_tile: usize },
}

/// One contiguous element of a scatter/gather list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaSeg {
    /// Far-side start offset: SDRAM offset for [`DmaKind::Sdram`],
    /// destination-tile local-memory offset for [`DmaKind::Copy`].
    pub far_offset: u32,
    /// Near-side start offset in the issuing tile's local memory.
    pub local_offset: u32,
    /// Payload bytes of this segment.
    pub bytes: u32,
}

/// One programmed transfer: kind, scatter/gather list, burst size and
/// completion word.
#[derive(Debug, Clone)]
pub struct DmaDescriptor {
    pub kind: DmaKind,
    /// Scatter/gather element list, processed in order. An empty list (or
    /// all-zero segment bytes) programs a *null* transfer: no data moves,
    /// only the completion word is written after the setup delay — the
    /// portable runtime uses this on back-ends where a transfer has no
    /// physical counterpart, keeping ticket/wait semantics identical.
    pub segs: Vec<DmaSeg>,
    /// Burst size in bytes (clamped to at least 4); segments are split
    /// into bursts independently.
    pub burst: u32,
    /// Local-memory offset of the completion word.
    pub done_offset: u32,
}

impl DmaDescriptor {
    /// A single contiguous transfer.
    pub fn contiguous(
        kind: DmaKind,
        far_offset: u32,
        local_offset: u32,
        bytes: u32,
        burst: u32,
        done_offset: u32,
    ) -> Self {
        DmaDescriptor {
            kind,
            segs: vec![DmaSeg { far_offset, local_offset, bytes }],
            burst,
            done_offset,
        }
    }

    /// A strided 2-D transfer: `rows` rows of `row_bytes` each, with the
    /// far side advancing by `far_stride` bytes per row and the local
    /// side by `local_stride` (both ≥ `row_bytes`; equal strides of
    /// exactly `row_bytes` describe a contiguous block). This is the
    /// motion-estimation window / volume-slice shape.
    #[allow(clippy::too_many_arguments)]
    pub fn strided_2d(
        kind: DmaKind,
        far_start: u32,
        local_start: u32,
        row_bytes: u32,
        rows: u32,
        far_stride: u32,
        local_stride: u32,
        burst: u32,
        done_offset: u32,
    ) -> Self {
        assert!(far_stride >= row_bytes && local_stride >= row_bytes, "rows must not overlap");
        let segs = (0..rows)
            .map(|r| DmaSeg {
                far_offset: far_start + r * far_stride,
                local_offset: local_start + r * local_stride,
                bytes: row_bytes,
            })
            .collect();
        DmaDescriptor { kind, segs, burst, done_offset }
    }

    /// A null transfer: completion word only.
    pub fn null(done_offset: u32) -> Self {
        DmaDescriptor { kind: DmaKind::Sdram(DmaDir::Get), segs: Vec::new(), burst: 4, done_offset }
    }

    /// Total payload bytes over all segments.
    pub fn total_bytes(&self) -> u32 {
        self.segs.iter().map(|s| s.bytes).sum()
    }
}

/// One engine channel (lives in the simulator's global state).
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaChannel {
    /// Sequence number of the most recently programmed transfer on this
    /// channel (1-based; 0 = none yet).
    pub seq: u32,
    /// The channel queue's busy-until time.
    pub free_at: u64,
}

/// Per-tile engine state: `SocConfig::dma_channels` independent channels
/// plus whole-engine totals.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    pub channels: Vec<DmaChannel>,
    /// Totals, for reports.
    pub transfers: u64,
    pub bytes: u64,
    pub bursts: u64,
}

/// Aggregated engine statistics for one tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    pub transfers: u64,
    pub bytes: u64,
    pub bursts: u64,
}

impl DmaEngine {
    pub fn new(n_channels: usize) -> Self {
        DmaEngine {
            channels: vec![DmaChannel::default(); n_channels.max(1)],
            ..DmaEngine::default()
        }
    }

    /// Program a transfer at `now` on channel `chan` of tile `tile`:
    /// reserve the channel, SDRAM port and route per burst, enqueue one
    /// `DmaBurst` packet per burst (the last carrying the completion-word
    /// write), and return the transfer's per-channel sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &mut self,
        cfg: &SocConfig,
        noc: &mut Noc,
        ports: &mut SdramPorts,
        now: u64,
        tile: usize,
        chan: usize,
        desc: &DmaDescriptor,
    ) -> u32 {
        assert!(chan < self.channels.len(), "channel {chan} out of range");
        if let DmaKind::Copy { dst_tile } = desc.kind {
            assert!(
                dst_tile < cfg.n_tiles,
                "tile-to-tile destination {dst_tile} out of range (n_tiles {})",
                cfg.n_tiles
            );
        }
        let ch = &mut self.channels[chan];
        ch.seq += 1;
        let seq = ch.seq;
        self.transfers += 1;
        let total = desc.total_bytes();
        self.bytes += u64::from(total);
        let mut cursor = now.max(ch.free_at) + cfg.lat.dma_setup;
        if total == 0 {
            // Null transfer: completion word only.
            ch.free_at = cursor;
            noc.telem.span(tile, now, cursor, EventKind::DmaDescriptor { chan, seq });
            noc.send(
                cursor,
                tile,
                tile,
                PacketKind::DmaBurst {
                    kind: desc.kind,
                    far_offset: 0,
                    local_offset: 0,
                    len: 0,
                    done: Some((desc.done_offset, seq)),
                },
            );
            return seq;
        }
        let burst = desc.burst.max(4);
        let mut last_arrive = cursor;
        let mut remaining = total;
        for seg in &desc.segs {
            let mut off = 0u32;
            while off < seg.bytes {
                let len = burst.min(seg.bytes - off);
                self.bursts += 1;
                remaining -= len;
                let burst_ready = cursor;
                // Resource legs, ordered by data-flow direction. The
                // channel pipelines bursts: the next burst may claim its
                // first resource as soon as this one's leg drains, while
                // later legs are still in flight.
                let sdram_offset = seg.far_offset + off;
                let arrive = match desc.kind {
                    DmaKind::Sdram(DmaDir::Get) => {
                        let port_done =
                            noc.reserve_sdram(ports, cfg, tile, sdram_offset, cursor, len);
                        cursor = port_done;
                        let ctrl = ports.tile_for(sdram_offset);
                        noc.reserve_path(cfg, port_done, ctrl, tile, len)
                    }
                    DmaKind::Sdram(DmaDir::Put) => {
                        let ctrl = ports.tile_for(sdram_offset);
                        let net_done = noc.reserve_path(cfg, cursor, tile, ctrl, len);
                        cursor = net_done;
                        noc.reserve_sdram(ports, cfg, tile, sdram_offset, net_done, len)
                    }
                    DmaKind::Copy { dst_tile } => {
                        let arrive = noc.reserve_path(cfg, cursor, tile, dst_tile, len);
                        // The engine drains the source scratchpad at link
                        // serialisation rate; the next burst may start
                        // injecting once this one has left the engine.
                        cursor += cfg.lat.noc_per_word * u64::from(len.div_ceil(4).max(1));
                        arrive
                    }
                };
                noc.telem.span(tile, burst_ready, arrive, EventKind::DmaBurst { len });
                last_arrive = last_arrive.max(arrive);
                let done = (remaining == 0).then_some((desc.done_offset, seq));
                noc.send(
                    last_arrive,
                    tile,
                    tile,
                    PacketKind::DmaBurst {
                        kind: desc.kind,
                        far_offset: seg.far_offset + off,
                        local_offset: seg.local_offset + off,
                        len,
                        done,
                    },
                );
                off += len;
            }
        }
        self.channels[chan].free_at = last_arrive;
        // Descriptor lifetime: doorbell write → final burst (whose
        // arrival carries the completion-word write).
        noc.telem.span(tile, now, last_arrive, EventKind::DmaDescriptor { chan, seq });
        seq
    }

    pub fn stats(&self) -> DmaStats {
        DmaStats { transfers: self.transfers, bytes: self.bytes, bursts: self.bursts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_desc(bytes: u32, burst: u32) -> DmaDescriptor {
        DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 0, 0, bytes, burst, 64)
    }

    fn one_port() -> SdramPorts {
        SdramPorts::new(vec![0])
    }

    fn issue(
        engine: &mut DmaEngine,
        noc: &mut Noc,
        ports: &mut SdramPorts,
        bytes: u32,
        burst: u32,
    ) -> u32 {
        let cfg = SocConfig::small(4);
        engine.issue(&cfg, noc, ports, 0, 1, 0, &get_desc(bytes, burst))
    }

    #[test]
    fn sequences_are_monotone_and_bursts_split() {
        let mut e = DmaEngine::new(1);
        let mut noc = Noc::with_ring(4);
        let mut ports = one_port();
        assert_eq!(issue(&mut e, &mut noc, &mut ports, 256, 64), 1);
        assert_eq!(issue(&mut e, &mut noc, &mut ports, 256, 64), 2);
        assert_eq!(e.stats(), DmaStats { transfers: 2, bytes: 512, bursts: 8 });
        // 8 data packets in flight.
        assert_eq!(noc.in_flight(), 8);
    }

    #[test]
    fn channels_number_independently() {
        let cfg = SocConfig::small(4);
        let mut e = DmaEngine::new(2);
        let mut noc = Noc::with_ring(4);
        let mut ports = one_port();
        assert_eq!(e.issue(&cfg, &mut noc, &mut ports, 0, 1, 0, &get_desc(64, 64)), 1);
        assert_eq!(e.issue(&cfg, &mut noc, &mut ports, 0, 1, 1, &get_desc(64, 64)), 1);
        assert_eq!(e.issue(&cfg, &mut noc, &mut ports, 0, 1, 0, &get_desc(64, 64)), 2);
        assert_eq!(e.stats().transfers, 3);
    }

    /// A second transfer on another channel starts its port legs without
    /// waiting for the first channel's NoC tail to land — the engine-side
    /// overlap multi-channel exists for.
    #[test]
    fn second_channel_overlaps_first_channels_tail() {
        let cfg = SocConfig::small(8);
        let finish_two = |channels: usize| {
            let mut e = DmaEngine::new(channels);
            let mut noc = Noc::with_ring(8);
            let mut ports = one_port();
            e.issue(&cfg, &mut noc, &mut ports, 0, 4, 0, &get_desc(1024, 256));
            let c2 = if channels > 1 { 1 } else { 0 };
            e.issue(&cfg, &mut noc, &mut ports, 0, 4, c2, &get_desc(1024, 256));
            e.channels.iter().map(|c| c.free_at).max().unwrap()
        };
        assert!(
            finish_two(2) < finish_two(1),
            "two channels must finish the pair sooner: {} vs {}",
            finish_two(2),
            finish_two(1)
        );
    }

    #[test]
    fn larger_bursts_amortise_the_per_burst_port_cost() {
        // Per-burst SDRAM fixed cost dominates small bursts (the
        // word-at-a-time end of the spectrum); the curve flattens once
        // bursts are large enough to amortise it.
        let finish = |burst: u32| {
            let mut e = DmaEngine::new(1);
            let mut noc = Noc::with_ring(4);
            let mut ports = one_port();
            issue(&mut e, &mut noc, &mut ports, 1024, burst);
            e.channels[0].free_at
        };
        assert!(finish(256) < finish(64));
        assert!(finish(64) < finish(16));
        assert!(finish(16) < finish(4));
    }

    #[test]
    fn null_transfer_completes_after_setup_only() {
        let cfg = SocConfig::small(4);
        let mut e = DmaEngine::new(1);
        let mut noc = Noc::with_ring(4);
        let mut ports = one_port();
        let seq = e.issue(&cfg, &mut noc, &mut ports, 100, 2, 0, &DmaDescriptor::null(8));
        assert_eq!(seq, 1);
        assert_eq!(e.channels[0].free_at, 100 + cfg.lat.dma_setup);
        assert_eq!(ports.report()[0].bursts, 0, "null transfers never touch the port");
        assert_eq!(noc.in_flight(), 1, "only the completion-word packet");
    }

    /// A strided 2-D descriptor produces one segment per row and the
    /// same byte total as the equivalent contiguous transfer.
    #[test]
    fn strided_2d_builds_row_segments() {
        let d = DmaDescriptor::strided_2d(
            DmaKind::Sdram(DmaDir::Get),
            1000,
            0,
            32,  // row bytes
            4,   // rows
            128, // far stride
            32,  // local stride (packed)
            64,
            8,
        );
        assert_eq!(d.segs.len(), 4);
        assert_eq!(d.total_bytes(), 128);
        assert_eq!(d.segs[2], DmaSeg { far_offset: 1256, local_offset: 64, bytes: 32 });
    }

    /// On a mesh the engine's bursts reserve exactly the XY route of the
    /// transfer — an SDRAM get charges the controller→tile path, nothing
    /// else.
    #[test]
    fn mesh_get_reserves_exactly_the_controller_route() {
        let cfg = SocConfig::small_mesh(4, 4);
        let mut e = DmaEngine::new(1);
        let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
        let mut ports = SdramPorts::new(cfg.controllers());
        // Tile 10 gets 256 B in 64 B bursts: 4 bursts over route 0 → 10.
        e.issue(&cfg, &mut noc, &mut ports, 0, 10, 0, &get_desc(256, 64));
        let route = cfg.topology.route(cfg.n_tiles, cfg.mem_tile, 10);
        assert_eq!(route, vec![0, 1, 34, 38]);
        for (i, s) in noc.link_stats().iter().enumerate() {
            if route.contains(&i) {
                assert_eq!(s.bursts, 4, "route link {i}");
                assert_eq!(s.busy, 4 * cfg.lat.noc_per_word * 16, "route link {i}");
            } else {
                assert_eq!(s.bursts, 0, "off-route link {i}");
            }
        }
        assert!(ports.report()[0].busy > 0, "SDRAM gets occupy the port on every topology");
    }

    /// With two interleaved controllers, a burst routes to and occupies
    /// the controller owning its 4 KiB stripe — not `mem_tile`.
    #[test]
    fn interleaved_get_routes_to_the_owning_controller() {
        let mut cfg = SocConfig::small_mesh(4, 4);
        cfg.mem_controllers = vec![0, 5];
        let mut e = DmaEngine::new(1);
        let mut noc = Noc::with_topology(cfg.topology, cfg.n_tiles);
        let mut ports = SdramPorts::new(cfg.controllers());
        // far_offset 4096 lands in stripe 1 → controller 1 at tile 5.
        let desc = DmaDescriptor::contiguous(DmaKind::Sdram(DmaDir::Get), 4096, 0, 64, 64, 8);
        e.issue(&cfg, &mut noc, &mut ports, 0, 10, 0, &desc);
        let rep = ports.report();
        assert_eq!((rep[0].bursts, rep[1].bursts), (0, 1), "stripe 1 owns offset 4096");
        // The data leg runs 5 → 10, not 0 → 10.
        let route = cfg.topology.route(cfg.n_tiles, 5, 10);
        let stats = noc.link_stats();
        for l in &route {
            assert!(stats[*l].bursts > 0, "owning controller's route link {l}");
        }
        for l in cfg.topology.route(cfg.n_tiles, 0, 10) {
            if !route.contains(&l) {
                assert_eq!(stats[l].bursts, 0, "mem_tile's route link {l} must stay idle");
            }
        }
    }

    /// A tile-to-tile copy never touches the SDRAM port and reserves only
    /// the links between the two tiles.
    #[test]
    fn tile_to_tile_copy_skips_the_port() {
        let cfg = SocConfig::small(8);
        let mut e = DmaEngine::new(1);
        let mut noc = Noc::with_ring(8);
        let mut ports = one_port();
        let desc = DmaDescriptor::contiguous(DmaKind::Copy { dst_tile: 3 }, 0, 0, 512, 128, 64);
        e.issue(&cfg, &mut noc, &mut ports, 0, 1, 0, &desc);
        assert_eq!(ports.report()[0].bursts, 0, "copies must not occupy the SDRAM port");
        // Route 1 → 3 crosses links 1 and 2 and nothing else.
        let stats = noc.link_stats();
        assert!(stats[1].bursts > 0 && stats[2].bursts > 0);
        for (i, s) in stats.iter().enumerate() {
            if i != 1 && i != 2 {
                assert_eq!(s.bursts, 0, "link {i} must stay idle");
            }
        }
    }
}
