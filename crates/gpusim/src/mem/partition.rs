//! One memory partition: an L2 slice, its DRAM channel and the partition's
//! pair of interconnect ports, bundled into one unit.
//!
//! Line-granular addresses interleave across partitions, and nothing a
//! partition computes depends on another partition's state.
//! [`MemoryHierarchy`](super::MemoryHierarchy) owns a `Vec<MemPartition>`
//! and calls into it inline.

use crate::config::GpuConfig;

use super::cache::{Cache, Probe};
use super::dram::DramChannel;

/// Cycles an L2 slice's tag pipeline is occupied per access (throughput
/// limit creating backpressure under load).
const L2_SERVICE_CYCLES: u64 = 2;

/// Bytes of a read-request packet (address + metadata).
const REQUEST_BYTES: u32 = 8;

/// Timing outcome of one partition-side read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartitionRead {
    /// Whether the L2 slice hit.
    pub l2_hit: bool,
    /// Cycle the line is back at the requesting SM (after the response
    /// crossing).
    pub data_ready: u64,
    /// DRAM completion cycle; meaningful only when `l2_hit` is false.
    pub dram_done: u64,
}

/// The timing state of one memory partition.
#[derive(Debug, Clone)]
pub struct MemPartition {
    l2: Cache,
    l2_next_free: u64,
    dram: DramChannel,
    /// Next-free time of the partition's request (towards-memory) port.
    request_port: u64,
    /// Next-free time of the partition's response (from-memory) port.
    response_port: u64,
    icnt_transfers: u64,
    icnt_busy_cycles: u64,
    icnt_latency: u32,
    icnt_bytes_per_cycle: f32,
    l1_latency: u32,
    l2_latency: u32,
    line_bytes: u32,
}

impl MemPartition {
    /// Builds one partition of `config`'s memory system.
    pub(crate) fn new(config: &GpuConfig) -> Self {
        MemPartition {
            l2: Cache::new("L2", config.l2_slice()),
            l2_next_free: 0,
            dram: DramChannel::new(config.dram_bytes_per_cycle, config.dram_latency),
            request_port: 0,
            response_port: 0,
            icnt_transfers: 0,
            icnt_busy_cycles: 0,
            icnt_latency: config.interconnect_latency,
            icnt_bytes_per_cycle: config.interconnect_bytes_per_cycle,
            l1_latency: config.l1d.latency,
            l2_latency: config.l2.latency,
            line_bytes: config.l1d.line_bytes,
        }
    }

    /// Crosses the interconnect through one of this partition's ports:
    /// per-direction port serialization plus a fixed traversal latency.
    fn cross(&mut self, response: bool, now: u64, bytes: u32) -> u64 {
        let occupancy = ((bytes as f32 / self.icnt_bytes_per_cycle).ceil() as u64).max(1);
        let port = if response {
            &mut self.response_port
        } else {
            &mut self.request_port
        };
        let start = now.max(*port);
        *port = start + occupancy;
        self.icnt_transfers += 1;
        self.icnt_busy_cycles += occupancy;
        start + occupancy + self.icnt_latency as u64
    }

    /// Services an L1-miss read of `line` issued by an SM at `now`: request
    /// crossing, L2 tag pipeline, L2 probe, DRAM on a miss, response
    /// crossing.
    pub(crate) fn read(&mut self, line: u64, now: u64) -> PartitionRead {
        let arrive_l2 = self.cross(false, now + self.l1_latency as u64, REQUEST_BYTES);
        let slot = arrive_l2.max(self.l2_next_free);
        self.l2_next_free = slot + L2_SERVICE_CYCLES;
        let queue_delay = slot - arrive_l2;
        match self.l2.probe(line, arrive_l2) {
            Probe::Hit { valid_from } => {
                // The configured L2 latency is end-to-end from the SM, so
                // the response departs such that an uncontended crossing
                // arrives at exactly `now + l2_latency (+ queueing)`;
                // response-port contention adds on top.
                let depart = (now + self.l2_latency as u64 + queue_delay)
                    .saturating_sub(self.icnt_latency as u64)
                    .max(valid_from);
                PartitionRead {
                    l2_hit: true,
                    data_ready: self.cross(true, depart, self.line_bytes),
                    dram_done: 0,
                }
            }
            Probe::Miss => {
                // Request continues to DRAM after the L2 pipeline.
                let arrive_dram = slot + L2_SERVICE_CYCLES;
                let done = self.dram.service_at(
                    arrive_dram,
                    line * self.line_bytes as u64,
                    self.line_bytes,
                );
                self.l2.fill(line, done);
                PartitionRead {
                    l2_hit: false,
                    data_ready: self.cross(true, done, self.line_bytes),
                    dram_done: done,
                }
            }
        }
    }

    /// Services a write-through store of `line` issued at `now`; returns
    /// the DRAM completion cycle (the warp itself never waits on it).
    pub(crate) fn write(&mut self, line: u64, now: u64) -> u64 {
        let arrive_l2 = self.cross(false, now + self.l1_latency as u64, self.line_bytes);
        let slot = arrive_l2.max(self.l2_next_free);
        self.l2_next_free = slot + L2_SERVICE_CYCLES;
        // Writes drain through the L2 to DRAM; they occupy bus bandwidth.
        self.dram.service_at(
            slot + L2_SERVICE_CYCLES,
            line * self.line_bytes as u64,
            self.line_bytes,
        )
    }

    /// The partition's L2 slice (for statistics export).
    pub(crate) fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The partition's DRAM channel (for statistics export).
    pub(crate) fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// Packets that crossed this partition's interconnect ports.
    pub(crate) fn icnt_transfers(&self) -> u64 {
        self.icnt_transfers
    }

    /// Port-occupancy cycles on this partition's interconnect ports.
    pub(crate) fn icnt_busy_cycles(&self) -> u64 {
        self.icnt_busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn part() -> MemPartition {
        MemPartition::new(&GpuConfig::mobile_soc())
    }

    #[test]
    fn cold_read_misses_l2_and_pays_dram() {
        let mut p = part();
        let r = p.read(0, 0);
        assert!(!r.l2_hit);
        assert!(r.dram_done > 0);
        assert!(r.data_ready > r.dram_done, "response crossing adds time");
    }

    #[test]
    fn warm_read_hits_l2() {
        let mut p = part();
        let cold = p.read(0, 0);
        let warm = p.read(0, cold.data_ready);
        assert!(warm.l2_hit);
        assert!(warm.data_ready < cold.data_ready * 2 + 400);
    }

    /// Cycles a `bytes`-sized packet occupies a port of [`part`].
    fn occupancy(bytes: u32) -> u64 {
        let config = GpuConfig::mobile_soc();
        ((bytes as f32 / config.interconnect_bytes_per_cycle).ceil() as u64).max(1)
    }

    #[test]
    fn uncontended_transfer_takes_latency_plus_serialization() {
        let mut p = part();
        let latency = GpuConfig::mobile_soc().interconnect_latency as u64;
        assert_eq!(p.cross(false, 100, 128), 100 + occupancy(128) + latency);
        assert_eq!(p.icnt_transfers(), 1);
        assert_eq!(p.icnt_busy_cycles(), occupancy(128));
    }

    #[test]
    fn small_packets_take_one_cycle() {
        let mut p = part();
        let latency = GpuConfig::mobile_soc().interconnect_latency as u64;
        assert_eq!(occupancy(1), 1);
        assert_eq!(p.cross(false, 0, 1), 1 + latency);
    }

    #[test]
    fn same_port_serializes() {
        let mut p = part();
        let a = p.cross(false, 0, 128);
        let b = p.cross(false, 0, 128);
        assert_eq!(b, a + occupancy(128), "second packet waits for the port");
        let c = p.cross(true, 0, 128);
        let d = p.cross(true, 0, 128);
        assert_eq!(d, c + occupancy(128), "so does a second response");
    }

    #[test]
    fn request_and_response_ports_are_independent() {
        let mut p = part();
        let request = p.cross(false, 0, 128);
        let response = p.cross(true, 0, 128);
        assert_eq!(request, response, "directions have separate ports");
    }

    #[test]
    fn writes_consume_bandwidth() {
        let mut p = part();
        let done = p.write(5, 10);
        assert!(done > 10);
        assert!(p.dram().busy_cycles() > 0);
        assert_eq!(p.icnt_transfers(), 1, "one request crossing, no response");
    }
}
