//! Worker shards: affinity-routed bounded queues with single-flight
//! dedup.
//!
//! The server owns N shards. The router assigns every `/v1/predict` and
//! `/v1/sweep` request to a shard by its *affinity fingerprint* (a
//! stable hash of the stage-graph prefix — scene, config, res, spp,
//! seed), so requests that share cached upstream artifacts land on the
//! shard whose private memory tier already holds them. All shards share
//! one persistent [`zatel::DiskTier`] when `--cache-dir` is configured.
//!
//! Each shard runs one worker thread. When the worker pulls a job it
//! also *collapses* every queued job carrying the same dedup
//! fingerprint (single-flight dedup): the pipeline executes once and
//! the response body fans out to every coalesced connection. This is
//! sound because the dedup fingerprint covers every result-affecting
//! request field — coalesced responses are byte-identical to what a
//! dedicated execution would have produced (pinned by the serve e2e
//! dedup tests).
//!
//! This module owns no clocks: admission instants and service times are
//! measured by the server and passed in, so queue ordering and dedup
//! grouping can never become wall-clock-dependent.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use zatel::ArtifactCache;
use zatel_proto::{PredictRequest, SweepRequest};

/// How many recent service wall times feed the `Retry-After` estimate.
const SERVICE_RING_CAPACITY: usize = 64;

/// A parsed request body awaiting execution on a shard.
pub(crate) enum Payload {
    /// `POST /v1/predict`.
    Predict(PredictRequest),
    /// `POST /v1/sweep`.
    Sweep(SweepRequest),
}

impl Payload {
    /// The request's client deadline budget (`hints.deadline_ms`), if
    /// any.
    pub(crate) fn deadline_ms(&self) -> Option<u64> {
        self.hints().and_then(|h| h.deadline_ms)
    }

    /// Whether the request opted out of single-flight dedup
    /// (`hints.no_dedup`). An opted-out request never coalesces onto
    /// another execution and no other request coalesces onto it.
    pub(crate) fn no_dedup(&self) -> bool {
        self.hints().is_some_and(|h| h.no_dedup)
    }

    /// The request's execution hints, if any.
    pub(crate) fn hints(&self) -> Option<&zatel_proto::ExecutionHints> {
        match self {
            Payload::Predict(req) => req.hints.as_ref(),
            Payload::Sweep(req) => req.hints.as_ref(),
        }
    }

    /// The shard-selection fingerprint (stage-graph prefix).
    pub(crate) fn affinity_fingerprint(&self) -> u64 {
        match self {
            Payload::Predict(req) => req.affinity_fingerprint(),
            Payload::Sweep(req) => req.affinity_fingerprint(),
        }
    }

    /// The single-flight fingerprint (every result-affecting field).
    pub(crate) fn dedup_fingerprint(&self) -> u64 {
        match self {
            Payload::Predict(req) => req.dedup_fingerprint(),
            Payload::Sweep(req) => req.dedup_fingerprint(),
        }
    }
}

/// One parsed, routed request queued on a shard.
pub(crate) struct ShardJob {
    /// The connection awaiting the response.
    pub stream: TcpStream,
    /// Admission instant — the deadline clock starts here.
    pub admitted: Instant,
    /// The request's trace ID (echoed on its own response even when the
    /// job coalesces onto another's execution).
    pub request_id: String,
    /// `"METHOD /path"` for the request log line.
    pub route_label: String,
    /// Single-flight key: jobs with equal fingerprints coalesce.
    pub dedup_fp: u64,
    /// The parsed request.
    pub payload: Payload,
}

struct ShardQueue {
    jobs: VecDeque<ShardJob>,
    closed: bool,
}

/// One worker shard: a bounded queue, a private artifact cache (its
/// memory tier is the shard's locality win) and the shard's share of
/// the observability counters.
pub(crate) struct Shard {
    /// Shard index, echoed in `x-zatel-shard` response headers.
    pub id: usize,
    /// Shard-private cache (memory tier private, disk tier shared).
    pub cache: Arc<ArtifactCache>,
    capacity: usize,
    queue: Mutex<ShardQueue>,
    available: Condvar,
    /// Jobs currently queued on this shard (scrape-time gauge).
    pub depth: AtomicUsize,
    /// Requests answered from another request's execution.
    pub coalesced: AtomicU64,
    /// Pipeline executions this shard actually ran.
    pub executed: AtomicU64,
}

impl Shard {
    pub(crate) fn new(id: usize, cache: Arc<ArtifactCache>, capacity: usize) -> Shard {
        Shard {
            id,
            cache,
            capacity,
            queue: Mutex::new(ShardQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            coalesced: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardQueue> {
        // Poison recovery: queue mutations are single push/pop operations,
        // so a panicking holder cannot leave a torn queue.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a job, or returns it when the shard is saturated (the
    /// router answers 429 with a computed `Retry-After`) or closed.
    #[expect(
        clippy::result_large_err,
        reason = "the Err variant hands the whole job back so the refusal path keeps the stream \
                  and request id; it is a move either way, never a copy"
    )]
    pub(crate) fn try_push(&self, job: ShardJob) -> Result<(), ShardJob> {
        let mut queue = self.lock();
        if queue.closed || queue.jobs.len() >= self.capacity {
            return Err(job);
        }
        queue.jobs.push_back(job);
        self.depth.store(queue.jobs.len(), Ordering::SeqCst);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job, collapsing every queued job that shares
    /// its dedup fingerprint. A job whose request hinted `no_dedup`
    /// neither leads a batch of followers nor rides another job's
    /// execution. Returns `None` once the shard is closed and drained.
    pub(crate) fn next_batch(&self) -> Option<(ShardJob, Vec<ShardJob>)> {
        let mut queue = self.lock();
        loop {
            if let Some(leader) = queue.jobs.pop_front() {
                let mut followers = Vec::new();
                if !leader.payload.no_dedup() {
                    let mut rest = VecDeque::with_capacity(queue.jobs.len());
                    for job in queue.jobs.drain(..) {
                        if job.dedup_fp == leader.dedup_fp && !job.payload.no_dedup() {
                            followers.push(job);
                        } else {
                            rest.push_back(job);
                        }
                    }
                    queue.jobs = rest;
                }
                self.depth.store(queue.jobs.len(), Ordering::SeqCst);
                return Some((leader, followers));
            }
            if queue.closed {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes fail, and the worker exits once the
    /// remaining jobs are drained.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

/// Selects the shard for an affinity fingerprint: a plain modulo over
/// the already well-mixed FNV-1a hash, so the mapping is stable across
/// processes and shard-count changes only move keys between shards —
/// they never reorder or perturb any request's result (pinned by the
/// sharding identity e2e test).
pub(crate) fn shard_of(affinity_fp: u64, shards: usize) -> usize {
    (affinity_fp % shards.max(1) as u64) as usize
}

/// Estimates a `Retry-After` (seconds) for a 429 from the refused
/// queue's depth and the recent average service time: roughly how long
/// until the backlog ahead of a retry has been served, clamped to
/// `1..=60`.
pub(crate) fn retry_after_secs(queued: usize, avg_service_ms: Option<u64>) -> u64 {
    let per_request_ms = avg_service_ms.unwrap_or(1000).max(1);
    let backlog_ms = (queued as u64)
        .saturating_add(1)
        .saturating_mul(per_request_ms);
    backlog_ms.div_ceil(1000).clamp(1, 60)
}

/// A fixed-size ring of recent request service wall times, feeding the
/// [`retry_after_secs`] estimate. Times are measured by the caller
/// (this module owns no clocks).
#[derive(Debug, Default)]
pub(crate) struct ServiceRing {
    recent_ms: Mutex<VecDeque<u64>>,
}

impl ServiceRing {
    /// Records one completed request's service time.
    pub(crate) fn record(&self, service_ms: u64) {
        let mut ring = self
            .recent_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() == SERVICE_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(service_ms);
    }

    /// The average of the recorded service times, `None` before the
    /// first completion.
    pub(crate) fn average_ms(&self) -> Option<u64> {
        let ring = self
            .recent_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.is_empty() {
            return None;
        }
        Some(ring.iter().sum::<u64>() / ring.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_scales_with_backlog_and_service_rate() {
        // No history: assume ~1s per queued request.
        assert_eq!(retry_after_secs(0, None), 1);
        assert_eq!(retry_after_secs(4, None), 5);
        // Fast service rates shrink the estimate to the 1s floor.
        assert_eq!(retry_after_secs(4, Some(50)), 1);
        // Slow rates grow it, clamped to a minute.
        assert_eq!(retry_after_secs(9, Some(2000)), 20);
        assert_eq!(retry_after_secs(1000, Some(60_000)), 60);
    }

    #[test]
    fn service_ring_averages_recent_times() {
        let ring = ServiceRing::default();
        assert_eq!(ring.average_ms(), None);
        ring.record(100);
        ring.record(300);
        assert_eq!(ring.average_ms(), Some(200));
        for _ in 0..SERVICE_RING_CAPACITY {
            ring.record(500);
        }
        assert_eq!(ring.average_ms(), Some(500));
    }

    #[test]
    fn shard_selection_is_stable_modulo() {
        assert_eq!(shard_of(13, 4), 1);
        assert_eq!(shard_of(13, 1), 0);
        assert_eq!(shard_of(u64::MAX, 3), (u64::MAX % 3) as usize);
        // Degenerate shard counts never divide by zero.
        assert_eq!(shard_of(13, 0), 0);
    }
}
