//! DRAM channel model: bandwidth-limited FIFO service with efficiency
//! accounting.

/// Geometry and timing of a channel's row buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowBufferConfig {
    /// Bytes covered by one open row (page) per channel.
    pub row_bytes: u32,
    /// Extra cycles to precharge + activate on a row-buffer miss.
    pub miss_penalty: u32,
}

impl Default for RowBufferConfig {
    fn default() -> Self {
        RowBufferConfig {
            row_bytes: 2048,
            miss_penalty: 20,
        }
    }
}

/// One off-chip DRAM channel with an open-row scheduler.
///
/// Transactions are serviced in arrival order at a fixed peak bandwidth;
/// accesses that miss the currently open row pay an extra
/// precharge/activate penalty (the "DRAM scheduler" of the paper's Fig. 2,
/// simplified to open-page FCFS). Two utilization statistics are kept,
/// matching Table I:
///
/// * **busy cycles** — cycles the data bus transfers data or the bank
///   switches rows on behalf of a request;
/// * **active cycles** — cycles with at least one request pending
///   (arrived but not yet completed).
///
/// `busy / active` is the paper's *DRAM efficiency*; `busy / total` is its
/// *bandwidth utilization*.
///
/// `new` and `service_at` are called by the repository's benchmark and stay
/// source-compatible.
#[derive(Debug, Clone)]
pub struct DramChannel {
    bytes_per_cycle: f32,
    fixed_latency: u32,
    row: RowBufferConfig,
    open_row: Option<u64>,
    next_free: u64,
    busy_cycles: u64,
    active_cycles: u64,
    active_until: u64,
    transactions: u64,
    row_hits: u64,
}

impl DramChannel {
    /// Creates an idle channel with the default row-buffer geometry.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f32, fixed_latency: u32) -> Self {
        Self::with_row_buffer(bytes_per_cycle, fixed_latency, RowBufferConfig::default())
    }

    /// Creates an idle channel with an explicit row-buffer configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive or `row_bytes` is zero.
    pub(crate) fn with_row_buffer(
        bytes_per_cycle: f32,
        fixed_latency: u32,
        row: RowBufferConfig,
    ) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(row.row_bytes > 0, "row size must be positive");
        DramChannel {
            bytes_per_cycle,
            fixed_latency,
            row,
            open_row: None,
            next_free: 0,
            busy_cycles: 0,
            active_cycles: 0,
            active_until: 0,
            transactions: 0,
            row_hits: 0,
        }
    }

    /// Services a `bytes`-sized transaction of byte address `addr` arriving
    /// at cycle `arrival`; returns the cycle its data is available.
    ///
    /// Row-buffer misses add the activate penalty to the transaction's
    /// *latency* but not to bus occupancy: with many banks per channel,
    /// activates overlap other banks' transfers, so the data bus stays the
    /// throughput limit.
    pub fn service_at(&mut self, arrival: u64, addr: u64, bytes: u32) -> u64 {
        let row = addr / self.row.row_bytes as u64;
        let switch = match self.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                0
            }
            _ => {
                self.open_row = Some(row);
                self.row.miss_penalty as u64
            }
        };
        let transfer = (bytes as f32 / self.bytes_per_cycle).ceil().max(1.0) as u64;
        let start = arrival.max(self.next_free);
        let done = start + transfer;
        self.next_free = done;
        self.busy_cycles += transfer;
        self.transactions += 1;
        // Active interval bookkeeping: the channel is "active" from the
        // request's arrival until its completion; overlapping intervals are
        // merged so concurrent requests are not double counted.
        let completion = done + switch + self.fixed_latency as u64;
        let active_start = arrival.max(self.active_until);
        if completion > active_start {
            self.active_cycles += completion - active_start;
            self.active_until = completion;
        }
        completion
    }

    /// Row-buffer hits so far.
    pub(crate) fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// The cycle at which the data bus becomes free (all scheduled
    /// transfers done); the GPU is not finished until every channel drains.
    pub(crate) fn drain_time(&self) -> u64 {
        self.next_free
    }

    /// Cycles spent transferring data.
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Cycles with pending requests.
    pub(crate) fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Transactions serviced.
    pub(crate) fn transactions(&self) -> u64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(bytes_per_cycle: f32, latency: u32) -> DramChannel {
        DramChannel::with_row_buffer(
            bytes_per_cycle,
            latency,
            RowBufferConfig {
                row_bytes: 2048,
                miss_penalty: 0,
            },
        )
    }

    #[test]
    fn single_transaction_timing() {
        let mut ch = flat(16.0, 100);
        let done = ch.service_at(10, 0, 128);
        assert_eq!(done, 10 + 8 + 100);
        assert_eq!(ch.busy_cycles(), 8);
        assert_eq!(ch.active_cycles(), 108);
        assert_eq!(ch.transactions(), 1);
    }

    #[test]
    fn row_misses_pay_activation() {
        let mut ch = DramChannel::with_row_buffer(
            16.0,
            0,
            RowBufferConfig {
                row_bytes: 2048,
                miss_penalty: 20,
            },
        );
        // Same row: first access pays the activate, second does not.
        let d1 = ch.service_at(0, 0, 128);
        assert_eq!(d1, 8 + 20);
        let d2 = ch.service_at(d1, 128, 128);
        assert_eq!(d2, d1 + 8, "row hit skips activation");
        // Different row: pays again (as latency, not bus occupancy).
        let d3 = ch.service_at(d2, 4096, 128);
        assert_eq!(d3, d2 + 8 + 20);
        assert_eq!(ch.busy_cycles(), 24, "activates do not occupy the bus");
        assert_eq!(ch.row_hits(), 1);
        assert_eq!(ch.transactions(), 3);
    }

    #[test]
    fn streaming_same_row_is_mostly_hits() {
        let mut ch = DramChannel::new(16.0, 0);
        for i in 0..16u64 {
            ch.service_at(i * 100, i * 128, 128);
        }
        assert_eq!(ch.row_hits(), 15, "2KB row holds 16 consecutive lines");
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut ch = flat(16.0, 0);
        let d1 = ch.service_at(0, 0, 128);
        let d2 = ch.service_at(0, 0, 128);
        assert_eq!(d1, 8);
        assert_eq!(d2, 16, "second must wait for the bus");
        assert_eq!(ch.busy_cycles(), 16);
        // Fully back-to-back: active == busy → efficiency 1.0.
        assert_eq!(ch.active_cycles(), ch.busy_cycles());
    }

    #[test]
    fn sparse_requests_have_unit_efficiency_but_low_busy() {
        let mut ch = flat(16.0, 0);
        ch.service_at(0, 0, 128);
        ch.service_at(1000, 0, 128);
        assert_eq!(ch.busy_cycles(), 16);
        assert_eq!(ch.active_cycles(), 16, "idle gaps are not active");
    }

    #[test]
    fn queueing_with_latency_lowers_efficiency() {
        let mut ch = flat(16.0, 50);
        // Two overlapping requests: total active window exceeds busy time
        // because of the fixed latency tail.
        ch.service_at(0, 0, 128);
        ch.service_at(0, 0, 128);
        assert!(ch.active_cycles() > ch.busy_cycles());
        assert!(ch.busy_cycles() * 10 > ch.active_cycles());
    }

    #[test]
    fn tiny_transfer_takes_at_least_one_cycle() {
        let mut ch = flat(64.0, 0);
        let done = ch.service_at(0, 0, 4);
        assert_eq!(done, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        DramChannel::new(0.0, 0);
    }
}
