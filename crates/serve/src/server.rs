//! The fleet-shaped HTTP server: bounded admission, router threads,
//! affinity-sharded workers with single-flight dedup, a tiered
//! process-lifetime artifact cache (shard-private memory tiers over one
//! shared disk tier), Prometheus metrics, request tracing
//! (`x-zatel-request-id` + `zatel-log-v1` JSONL lines + the
//! `/v1/debug/slow` ring) and graceful drain.
//!
//! ## Topology
//!
//! ```text
//! accept → admission gauge (429 + computed Retry-After when full)
//!        → router threads: parse → admin routes answered inline
//!        → predict/sweep: affinity fingerprint % shards → shard queue
//!        → shard worker: coalesce same-fingerprint jobs (single-flight)
//!          → deadline check (504) → execute once → fan out the body
//! ```

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use minijson::{FromJson, Map, ToJson, Value};
use obs::{LogLevel, Logger, MetricKind, MetricsRegistry, SpanRecord};
use zatel::{ArtifactCache, DiskTier};
use zatel_proto::{
    DebugSlowResponse, ErrorKind, ErrorResponse, PredictRequest, ScenesResponse, SlowRequestEntry,
    SweepRequest, API_SCHEMA,
};

use crate::http::{self, HttpError, Request};
use crate::service;
use crate::shard::{retry_after_secs, shard_of, Payload, ServiceRing, Shard, ShardJob};
use crate::signal;

/// How long the accept loop sleeps between polls of the (non-blocking)
/// listener and the shutdown flags.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection socket read timeout: a stalled client may not pin a
/// router forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Completed requests retained for `GET /v1/debug/slow` (newest win;
/// older entries are evicted from the front of the ring).
const SLOW_RING_CAPACITY: usize = 32;
/// Threads that read sockets, answer admin routes inline and dispatch
/// predictions/sweeps onto shards. Two is enough because routing is
/// parse-only; a stalled client can pin a router for at most
/// [`READ_TIMEOUT`].
const ROUTER_THREADS: usize = 2;

/// Server configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker shards executing requests. Each shard owns a private
    /// in-memory cache tier and a bounded queue slice; requests route to
    /// shards by affinity fingerprint, so the shard count never changes
    /// any response's deterministic subset.
    pub workers: usize,
    /// Bounded admission depth across all shards; requests beyond it are
    /// refused with 429 and a computed `Retry-After`.
    pub queue: usize,
    /// Default worker-thread cap for each request's group simulation,
    /// applied when the request itself does not set `options.jobs`.
    /// `None` lets each request size itself to the host.
    pub sim_jobs: Option<usize>,
    /// Default request deadline, applied when a request carries no
    /// `deadline_ms` of its own. `None` means queued requests never
    /// expire.
    pub default_deadline_ms: Option<u64>,
    /// Persist stage artifacts on disk, surviving restarts. The disk
    /// tier is shared by every shard's cache.
    pub cache_dir: Option<String>,
    /// Size budget for the shared disk tier in MiB; least-recently-used
    /// entries are evicted once the tier outgrows it. `None` means
    /// unbounded. Ignored without [`ServeConfig::cache_dir`].
    pub cache_budget_mb: Option<u64>,
    /// Where the `zatel-log-v1` JSONL event log goes: `None`, `"-"` or
    /// `"stderr"` mean standard error, anything else is a file path
    /// (appended, created if absent).
    pub log_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            queue: 64,
            sim_jobs: None,
            default_deadline_ms: None,
            cache_dir: None,
            cache_budget_mb: None,
            log_out: None,
        }
    }
}

/// What a completed [`Server::run`] observed, for the caller's log line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections admitted into the queue.
    pub admitted: u64,
    /// Connections refused with 429 (admission full or target shard
    /// saturated).
    pub refused: u64,
    /// Requests still queued when the drain began — all of them were
    /// served before shutdown completed.
    pub drained_in_flight: u64,
    /// Requests answered from another identical request's execution.
    pub coalesced: u64,
    /// Responses answered with a 2xx status.
    pub responses_2xx: u64,
    /// Responses answered with a 4xx status (including queue refusals).
    pub responses_4xx: u64,
    /// Responses answered with a 5xx status.
    pub responses_5xx: u64,
    /// The deepest the admission queue ever got.
    pub peak_queue_depth: u64,
}

/// Shared mutable server state (behind one `Arc`).
struct ServerState {
    /// The worker shards, indexed by `affinity_fingerprint % len`.
    shards: Vec<Arc<Shard>>,
    /// The disk tier every shard cache shares, when `--cache-dir` is set.
    disk: Option<Arc<DiskTier>>,
    registry: Mutex<MetricsRegistry>,
    /// Admitted requests not yet picked up for execution (spans the
    /// router channel and every shard queue).
    queue_depth: AtomicUsize,
    peak_queue_depth: AtomicUsize,
    refused: AtomicU64,
    draining: AtomicBool,
    sim_jobs: Option<usize>,
    default_deadline_ms: Option<u64>,
    /// Recent request service times feeding `Retry-After` estimates.
    service_ring: ServiceRing,
    /// The `zatel-log-v1` event sink every worker writes request lines to.
    logger: Logger,
    /// The `GET /v1/debug/slow` ring: the most recent completed requests,
    /// oldest first.
    slow: Mutex<VecDeque<SlowRequestEntry>>,
}

impl ServerState {
    fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        let mut registry = self
            .registry
            .lock()
            // Poison recovery: metrics writes are single insertions; a
            // panicking holder cannot leave a half-written registry.
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut registry);
    }

    /// Sums the coalesced-request counters across shards.
    fn coalesced_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.coalesced.load(Ordering::SeqCst))
            .sum()
    }

    /// A point-in-time snapshot for `/metrics`: the accumulated request
    /// metrics plus scrape-time gauges, per-shard queue/coalesce
    /// telemetry and the tiered cache counters (per-cache hit counters
    /// summed across shards, disk-tier counters taken once from the
    /// shared tier).
    fn prometheus_snapshot(&self) -> String {
        let mut snapshot = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        snapshot.gauge_set(
            "queue_depth",
            self.queue_depth.load(Ordering::SeqCst) as f64,
        );
        let (mut memory_hits, mut disk_hits, mut misses) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let stats = shard.cache.stats();
            memory_hits += stats.memory_hits;
            disk_hits += stats.disk_hits;
            misses += stats.misses;
            snapshot.gauge_set(
                &format!("shard{}_queue_depth", shard.id),
                shard.depth.load(Ordering::SeqCst) as f64,
            );
            snapshot.counter_add(
                &format!("shard{}_coalesced", shard.id),
                shard.coalesced.load(Ordering::SeqCst),
            );
            snapshot.counter_add(
                &format!("shard{}_executed", shard.id),
                shard.executed.load(Ordering::SeqCst),
            );
        }
        snapshot.counter_add("coalesced_requests", self.coalesced_total());
        snapshot.counter_add("cache_memory_hits", memory_hits);
        snapshot.counter_add("cache_disk_hits", disk_hits);
        snapshot.counter_add("cache_misses", misses);
        if let Some(disk) = &self.disk {
            let stats = disk.stats();
            snapshot.counter_add("cache_disk_evictions", stats.evictions);
            snapshot.counter_add("cache_disk_corrupt", stats.corrupt);
            snapshot.gauge_set("cache_disk_bytes", stats.bytes as f64);
            snapshot.gauge_set("cache_disk_entries", stats.entries as f64);
        }
        snapshot.to_prometheus("zatel_serve")
    }

    /// Sums the accumulated `http_responses_{status}` counters into
    /// status classes, so the shutdown summary is self-contained.
    fn status_classes(&self) -> (u64, u64, u64) {
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut c2, mut c4, mut c5) = (0u64, 0u64, 0u64);
        for (name, kind) in registry.iter() {
            let Some(code) = name
                .strip_prefix("http_responses_")
                .and_then(|s| s.parse::<u16>().ok())
            else {
                continue;
            };
            if let MetricKind::Counter(n) = kind {
                match code / 100 {
                    2 => c2 += n,
                    4 => c4 += n,
                    5 => c5 += n,
                    _ => {}
                }
            }
        }
        (c2, c4, c5)
    }

    /// Records a completed request: the `zatel-log-v1` request line
    /// (leveled by status class) and its `/v1/debug/slow` ring entry.
    fn finish_request(
        &self,
        request_id: String,
        route: String,
        status: u16,
        queue_wait_ms: u64,
        wall_ms: f64,
        artifacts: RouteArtifacts,
    ) {
        let level = match status {
            500.. => LogLevel::Error,
            400.. => LogLevel::Warn,
            _ => LogLevel::Info,
        };
        let mut fields = Map::new();
        fields.insert("request_id".into(), Value::from(request_id.as_str()));
        fields.insert("route".into(), Value::from(route.as_str()));
        fields.insert("status".into(), Value::from(u64::from(status)));
        fields.insert("queue_wait_ms".into(), Value::from(queue_wait_ms));
        fields.insert("wall_ms".into(), Value::from(wall_ms));
        if let Some(slack) = artifacts.deadline_slack_ms {
            fields.insert("deadline_slack_ms".into(), Value::from(slack));
        }
        if artifacts.coalesced {
            fields.insert("coalesced".into(), Value::from(true));
        }
        if !artifacts.cache.is_empty() {
            fields.insert("cache_hits".into(), Value::from(artifacts.cache_hits));
            fields.insert(
                "cache_stages".into(),
                Value::from(artifacts.cache.len() as u64),
            );
        }
        let line = obs::log::event_line(level, "request", fields);
        self.logger.log_line(level, &line);

        let entry = SlowRequestEntry {
            request_id,
            route,
            status,
            queue_wait_ms,
            wall_ms,
            deadline_slack_ms: artifacts.deadline_slack_ms,
            spans: artifacts.spans,
            cache: artifacts.cache,
            log: line,
        };
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if slow.len() == SLOW_RING_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(entry);
    }
}

/// Observational artifacts a route hands back for the request's log line
/// and debug-ring entry. Never part of the HTTP response body.
#[derive(Default)]
struct RouteArtifacts {
    /// The run's span sheet (request span first), when the route ran one.
    spans: Vec<SpanRecord>,
    /// Per-stage cache-outcome records, when the route produced them.
    cache: Vec<Value>,
    /// How many of those stages were cache hits (memory or disk).
    cache_hits: u64,
    /// Deadline budget left when execution started, when one applied.
    deadline_slack_ms: Option<i64>,
    /// Whether this request rode another request's execution.
    coalesced: bool,
}

/// One queued connection: the socket plus its admission instant (the
/// deadline clock starts at admission, not at parse).
struct Job {
    stream: TcpStream,
    admitted: Instant,
}

/// A bound, not-yet-running server. Binding and running are split so
/// callers (and tests) can learn the ephemeral port before the first
/// request races in.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listen socket and builds the shard fleet over the
    /// process-lifetime tiered cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound or the cache
    /// directory cannot be created.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        if config.workers == 0 {
            return Err("serve needs at least one worker".into());
        }
        if config.queue == 0 {
            return Err("serve needs a queue depth of at least 1".into());
        }
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let disk = match &config.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating cache dir '{dir}': {e}"))?;
                Some(Arc::new(match config.cache_budget_mb {
                    Some(mb) => DiskTier::with_budget(dir, mb.saturating_mul(1024 * 1024)),
                    None => DiskTier::new(dir),
                }))
            }
            None => None,
        };
        // Each shard's queue slice; the global admission bound is
        // enforced separately at accept time.
        let shard_capacity = (config.queue / config.workers).max(1);
        let shards = (0..config.workers)
            .map(|id| {
                let cache = match &disk {
                    Some(tier) => ArtifactCache::with_disk_tier(Arc::clone(tier)),
                    None => ArtifactCache::in_memory(),
                };
                Arc::new(Shard::new(id, Arc::new(cache), shard_capacity))
            })
            .collect();
        let logger = Logger::for_destination(config.log_out.as_deref(), LogLevel::Info)
            .map_err(|e| format!("opening log destination: {e}"))?;
        let state = Arc::new(ServerState {
            shards,
            disk,
            registry: Mutex::new(MetricsRegistry::new()),
            queue_depth: AtomicUsize::new(0),
            peak_queue_depth: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            sim_jobs: config.sim_jobs,
            default_deadline_ms: config.default_deadline_ms,
            service_ring: ServiceRing::default(),
            logger,
            slow: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAPACITY)),
        });
        Ok(Server {
            listener,
            config,
            state,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns a message if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("reading bound address: {e}"))
    }

    /// Runs the accept loop until SIGINT/SIGTERM or `POST /v1/shutdown`,
    /// then drains: stops accepting, serves every queued request, joins
    /// the routers and shard workers.
    ///
    /// # Errors
    ///
    /// Returns a message only for listener-level failures; per-connection
    /// errors are answered over HTTP and never stop the server.
    pub fn run(self) -> Result<ServeReport, String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("configuring listener: {e}"))?;
        // Routers pull admitted connections from this channel; the global
        // admission bound is the queue_depth gauge, checked at accept.
        #[expect(
            clippy::disallowed_methods,
            reason = "the fleet topology seam: the accept loop, router threads, admission-refusal \
                      writers and shard workers all live here; requests route by affinity fingerprint \
                      and execute on exactly one shard, so thread count never reaches a response's \
                      deterministic subset — pinned by the shard-count and dedup identity tests"
        )]
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut routers = Vec::with_capacity(ROUTER_THREADS);
        for _ in 0..ROUTER_THREADS {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            #[expect(
                clippy::disallowed_methods,
                reason = "the fleet topology seam: the accept loop, router threads, admission-refusal \
                          writers and shard workers all live here; requests route by affinity fingerprint \
                          and execute on exactly one shard, so thread count never reaches a response's \
                          deterministic subset — pinned by the shard-count and dedup identity tests"
            )]
            routers.push(std::thread::spawn(move || router_loop(&rx, &state)));
        }
        let mut shard_workers = Vec::with_capacity(self.state.shards.len());
        for shard in &self.state.shards {
            let shard = Arc::clone(shard);
            let state = Arc::clone(&self.state);
            #[expect(
                clippy::disallowed_methods,
                reason = "the fleet topology seam: the accept loop, router threads, admission-refusal \
                          writers and shard workers all live here; requests route by affinity fingerprint \
                          and execute on exactly one shard, so thread count never reaches a response's \
                          deterministic subset — pinned by the shard-count and dedup identity tests"
            )]
            shard_workers.push(std::thread::spawn(move || shard_loop(&shard, &state)));
        }

        let mut admitted = 0u64;
        loop {
            if signal::requested() || self.state.draining.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The gauge rises before the handoff publishes the
                    // job: otherwise an idle router can pull it and
                    // decrement first, wrapping the unsigned depth below
                    // zero.
                    let depth = self.state.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
                    if depth > self.config.queue {
                        self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                        self.state.refused.fetch_add(1, Ordering::SeqCst);
                        self.state
                            .with_registry(|r| r.counter_add("http_responses_429", 1));
                        // Refusing drains the request off the socket
                        // first, which can wait on a slow client — do it
                        // off the accept loop so admission stays live.
                        let avg_ms = self.state.service_ring.average_ms();
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the fleet topology seam: the accept loop, router threads, admission-refusal \
                                      writers and shard workers all live here; requests route by affinity fingerprint \
                                      and execute on exactly one shard, so thread count never reaches a response's \
                                      deterministic subset — pinned by the shard-count and dedup identity tests"
                        )]
                        std::thread::spawn(move || {
                            refuse_overloaded(stream, depth - 1, avg_ms, None, true);
                        });
                        continue;
                    }
                    self.state
                        .peak_queue_depth
                        .fetch_max(depth, Ordering::SeqCst);
                    let job = Job {
                        stream,
                        admitted: Instant::now(),
                    };
                    if tx.send(job).is_err() {
                        self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                    admitted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Graceful drain, in dependency order: dropping the sender lets
        // the routers finish parsing and dispatching every admitted
        // connection, then closing the shard queues lets each worker
        // serve its remaining jobs and exit. Shards close only after the
        // routers have joined, so no dispatch can race a closed queue.
        let drained_in_flight = self.state.queue_depth.load(Ordering::SeqCst) as u64;
        drop(tx);
        for router in routers {
            // A router that panicked already lost its connection; there
            // is nothing useful to add by propagating.
            let _ = router.join();
        }
        for shard in &self.state.shards {
            shard.close();
        }
        for worker in shard_workers {
            let _ = worker.join();
        }
        let (responses_2xx, responses_4xx, responses_5xx) = self.state.status_classes();
        let report = ServeReport {
            admitted,
            refused: self.state.refused.load(Ordering::SeqCst),
            drained_in_flight,
            coalesced: self.state.coalesced_total(),
            responses_2xx,
            responses_4xx,
            responses_5xx,
            peak_queue_depth: self.state.peak_queue_depth.load(Ordering::SeqCst) as u64,
        };
        let mut fields = Map::new();
        fields.insert("admitted".into(), Value::from(report.admitted));
        fields.insert("refused".into(), Value::from(report.refused));
        fields.insert(
            "drained_in_flight".into(),
            Value::from(report.drained_in_flight),
        );
        fields.insert("coalesced".into(), Value::from(report.coalesced));
        fields.insert("responses_2xx".into(), Value::from(report.responses_2xx));
        fields.insert("responses_4xx".into(), Value::from(report.responses_4xx));
        fields.insert("responses_5xx".into(), Value::from(report.responses_5xx));
        fields.insert(
            "peak_queue_depth".into(),
            Value::from(report.peak_queue_depth),
        );
        self.state
            .logger
            .log(LogLevel::Info, "serve_drained", fields);
        Ok(report)
    }

    /// Signals a graceful drain programmatically (same effect as
    /// SIGTERM). Exposed for tests and embedding callers.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            state: Arc::clone(&self.state),
        }
    }
}

/// A cheap clone-free trigger for a running server's drain flag.
pub struct ServeHandle {
    state: Arc<ServerState>,
}

impl ServeHandle {
    /// Begins a graceful drain.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }
}

/// Answers a connection the server could not admit (global queue or a
/// shard slice full). `Retry-After` is computed from the refused queue's
/// depth and the recent average service time; `shard` is echoed as
/// `x-zatel-shard` when the refusal came from a saturated shard.
/// `drain` must be true when the request has not been read off the
/// socket yet (admission-level refusals).
fn refuse_overloaded(
    mut stream: TcpStream,
    queued: usize,
    avg_service_ms: Option<u64>,
    shard: Option<usize>,
    drain: bool,
) {
    if drain {
        // Drain the request first (best effort, bounded by a short
        // timeout): closing a socket with unread bytes in its receive
        // buffer resets the connection, which can destroy the 429
        // before the client reads it.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = Request::read_from(&mut stream);
    }
    let retry_after = retry_after_secs(queued, avg_service_ms);
    // The refusal is machine-readable end to end: the same estimate
    // rides the Retry-After header (seconds, for generic HTTP clients)
    // and the envelope's retry_after_ms field (for zatel-api-v1 ones).
    let body = ErrorResponse::new(
        ErrorKind::Overloaded,
        "request queue is full; retry shortly",
    )
    .with_retry_after_ms(retry_after.saturating_mul(1000))
    .to_json()
    .to_string();
    let mut headers = vec![("Retry-After", retry_after.to_string())];
    if let Some(id) = shard {
        headers.push(("x-zatel-shard", id.to_string()));
    }
    let _ = http::write_response(
        &mut stream,
        429,
        "application/json",
        &headers,
        body.as_bytes(),
    );
}

/// One router: pull an admitted connection, parse it, answer admin
/// routes inline and dispatch predictions/sweeps to their affinity
/// shard — until the admission channel closes.
fn router_loop(rx: &Arc<Mutex<Receiver<Job>>>, state: &Arc<ServerState>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else {
            return; // Sender dropped and channel drained: shutdown.
        };
        route_connection(job, state);
    }
}

/// The routed outcome of one request: status + JSON (or Prometheus text).
enum Routed {
    Json(u16, Value),
    Text(u16, &'static str, String),
}

impl Routed {
    /// Renders into `(status, content_type, body)`.
    fn render(self) -> (u16, &'static str, String) {
        match self {
            Routed::Json(status, value) => (status, "application/json", value.to_string()),
            Routed::Text(status, content_type, text) => (status, content_type, text),
        }
    }
}

/// Writes a response and records its counters, request line and debug
/// ring entry. The single exit path for every answered request.
#[expect(
    clippy::too_many_arguments,
    reason = "the single exit path takes everything the log line and debug ring record"
)]
fn write_and_finish(
    state: &ServerState,
    mut stream: TcpStream,
    routed: Routed,
    shard: Option<usize>,
    request_id: String,
    route_label: String,
    queue_wait_ms: u64,
    handled: Instant,
    artifacts: RouteArtifacts,
) {
    let (status, content_type, body) = routed.render();
    state.with_registry(|r| r.counter_add(&format!("http_responses_{status}"), 1));
    let mut headers = vec![("x-zatel-request-id", request_id.clone())];
    if let Some(id) = shard {
        headers.push(("x-zatel-shard", id.to_string()));
    }
    let _ = http::write_response(&mut stream, status, content_type, &headers, body.as_bytes());
    state.finish_request(
        request_id,
        route_label,
        status,
        queue_wait_ms,
        handled.elapsed().as_secs_f64() * 1000.0,
        artifacts,
    );
}

fn route_connection(job: Job, state: &Arc<ServerState>) {
    let Job {
        mut stream,
        admitted,
    } = job;
    let queue_wait_ms = elapsed_ms(admitted);
    let handled = Instant::now();
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match Request::read_from(&mut stream) {
        Ok(request) => request,
        Err(err) => {
            state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let (status, message) = match err {
                HttpError::TooLarge => (413, "request exceeds size limits".to_owned()),
                other => (400, other.to_string()),
            };
            let request_id = obs::log::request_id();
            let routed = Routed::Json(
                status,
                ErrorResponse::new(ErrorKind::BadRequest, message).to_json(),
            );
            write_and_finish(
                state,
                stream,
                routed,
                None,
                request_id,
                "-".into(),
                queue_wait_ms,
                handled,
                RouteArtifacts::default(),
            );
            return;
        }
    };

    // The caller's x-zatel-request-id is accepted and echoed; otherwise
    // a process-unique ID is minted. Either way the same ID lands in the
    // response header, the JSONL request line, the run's span sheet and
    // the /v1/debug/slow ring.
    let request_id = request
        .header("x-zatel-request-id")
        .map(str::to_owned)
        .unwrap_or_else(obs::log::request_id);
    let route_label = format!("{} {}", request.method, request.path);
    state.with_registry(|r| r.counter_add("http_requests_total", 1));

    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict" | "/v1/sweep") => dispatch_to_shard(
            stream,
            admitted,
            &request,
            request_id,
            route_label,
            queue_wait_ms,
            handled,
            state,
        ),
        _ => {
            state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let routed = route_admin(&request, state);
            write_and_finish(
                state,
                stream,
                routed,
                None,
                request_id,
                route_label,
                queue_wait_ms,
                handled,
                RouteArtifacts::default(),
            );
        }
    }
}

/// Answers every route the routers serve inline (no execution, no
/// deadline handling).
fn route_admin(request: &Request, state: &Arc<ServerState>) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let mut m = Map::new();
            m.insert("schema".into(), Value::from(API_SCHEMA));
            m.insert("status".into(), Value::from("ok"));
            m.insert(
                "draining".into(),
                Value::from(state.draining.load(Ordering::SeqCst)),
            );
            Routed::Json(200, Value::Object(m))
        }
        ("GET", "/v1/scenes") => Routed::Json(200, ScenesResponse::current().to_json()),
        ("GET", "/metrics") => Routed::Text(
            200,
            "text/plain; version=0.0.4",
            state.prometheus_snapshot(),
        ),
        ("GET", "/v1/debug/slow") => {
            let entries = {
                let slow = state.slow.lock().unwrap_or_else(PoisonError::into_inner);
                slow.iter().cloned().collect()
            };
            Routed::Json(200, DebugSlowResponse { entries }.to_json())
        }
        ("POST", "/v1/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            let mut m = Map::new();
            m.insert("schema".into(), Value::from(API_SCHEMA));
            m.insert("status".into(), Value::from("draining"));
            Routed::Json(202, Value::Object(m))
        }
        ("GET" | "POST", _) => error_json(
            ErrorKind::BadRequest,
            format!("no route for {} {}", request.method, request.path),
        ),
        (method, _) => error_json(
            ErrorKind::BadRequest,
            format!("unsupported method {method}"),
        ),
    }
}

/// Parses a predict/sweep body into a typed payload, routes it to its
/// affinity shard and enqueues it; parse errors and saturated shards are
/// answered here.
#[expect(
    clippy::too_many_arguments,
    reason = "carries the per-request context the router already holds on to the shard job"
)]
fn dispatch_to_shard(
    stream: TcpStream,
    admitted: Instant,
    request: &Request,
    request_id: String,
    route_label: String,
    queue_wait_ms: u64,
    handled: Instant,
    state: &Arc<ServerState>,
) {
    let payload = match parse_payload(request) {
        Ok(payload) => payload,
        Err(routed) => {
            state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            write_and_finish(
                state,
                stream,
                routed,
                None,
                request_id,
                route_label,
                queue_wait_ms,
                handled,
                RouteArtifacts::default(),
            );
            return;
        }
    };
    let shard = &state.shards[shard_of(payload.affinity_fingerprint(), state.shards.len())];
    let job = ShardJob {
        stream,
        admitted,
        request_id,
        route_label,
        dedup_fp: payload.dedup_fingerprint(),
        payload,
    };
    if let Err(job) = shard.try_push(job) {
        // The shard's queue slice is saturated (or closing): refuse with
        // a Retry-After sized to that shard's backlog.
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        state.refused.fetch_add(1, Ordering::SeqCst);
        state.with_registry(|r| r.counter_add("http_responses_429", 1));
        let queued = shard.depth.load(Ordering::SeqCst);
        refuse_overloaded(
            job.stream,
            queued,
            state.service_ring.average_ms(),
            Some(shard.id),
            false,
        );
        state.finish_request(
            job.request_id,
            job.route_label,
            429,
            queue_wait_ms,
            handled.elapsed().as_secs_f64() * 1000.0,
            RouteArtifacts::default(),
        );
    }
}

/// Parses the body as a JSON document.
fn parse_body(request: &Request) -> Result<Value, Routed> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error_json(ErrorKind::BadRequest, "body is not UTF-8"))?;
    Value::parse(text).map_err(|e| error_json(ErrorKind::BadRequest, format!("body: {e}")))
}

/// Parses a predict or sweep body into its typed payload.
fn parse_payload(request: &Request) -> Result<Payload, Routed> {
    let body = parse_body(request)?;
    match request.path.as_str() {
        "/v1/predict" => PredictRequest::from_json(&body)
            .map(Payload::Predict)
            .map_err(|e| error_json(ErrorKind::BadRequest, e.to_string())),
        _ => SweepRequest::from_json(&body)
            .map(Payload::Sweep)
            .map_err(|e| error_json(ErrorKind::BadRequest, e.to_string())),
    }
}

/// One shard worker: pull the next batch (a leader plus every queued job
/// with the same dedup fingerprint), execute once and fan the response
/// out — until the shard closes.
fn shard_loop(shard: &Arc<Shard>, state: &Arc<ServerState>) {
    while let Some((leader, followers)) = shard.next_batch() {
        state
            .queue_depth
            .fetch_sub(1 + followers.len(), Ordering::SeqCst);
        if !followers.is_empty() {
            shard
                .coalesced
                .fetch_add(followers.len() as u64, Ordering::SeqCst);
        }
        execute_batch(shard, state, leader, followers);
    }
}

/// Saturating milliseconds since `since`.
fn elapsed_ms(since: Instant) -> u64 {
    since.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
}

/// Executes one dedup batch: expired jobs are answered 504 individually,
/// the first surviving job's request runs once through the shard's
/// cache, and the rendered body fans out to every survivor (each under
/// its own request ID). Coalescing never changes response bytes: the
/// dedup fingerprint covers every result-affecting field, so the shared
/// body is exactly what each follower's own execution would have
/// produced.
fn execute_batch(
    shard: &Arc<Shard>,
    state: &Arc<ServerState>,
    leader: ShardJob,
    followers: Vec<ShardJob>,
) {
    let picked = Instant::now();
    // (job, deadline slack, queue wait) for every job still worth serving.
    let mut live = Vec::with_capacity(1 + followers.len());
    for job in std::iter::once(leader).chain(followers) {
        let queue_wait_ms = elapsed_ms(job.admitted);
        match check_deadline(job.payload.deadline_ms(), job.admitted, state) {
            Ok(slack) => live.push((job, slack, queue_wait_ms)),
            Err(routed) => write_and_finish(
                state,
                job.stream,
                routed,
                Some(shard.id),
                job.request_id,
                job.route_label,
                queue_wait_ms,
                picked,
                RouteArtifacts::default(),
            ),
        }
    }
    let mut live = live.into_iter();
    let Some((lead_job, lead_slack, lead_wait)) = live.next() else {
        return;
    };
    let ShardJob {
        stream,
        request_id,
        route_label,
        mut payload,
        ..
    } = lead_job;
    let jobs = payload.hints().and_then(|h| h.jobs).or(state.sim_jobs);
    match &mut payload {
        Payload::Predict(req) => apply_default_jobs(&mut req.options, jobs),
        Payload::Sweep(req) => apply_default_jobs(&mut req.options, jobs),
    }
    let started = Instant::now();
    let (routed, mut artifacts) = match &payload {
        Payload::Predict(req) => run_predict(shard, state, req, &request_id),
        Payload::Sweep(req) => run_sweep(shard, state, req),
    };
    shard.executed.fetch_add(1, Ordering::SeqCst);
    state.service_ring.record(elapsed_ms(started));
    artifacts.deadline_slack_ms = lead_slack;

    let (status, content_type, body) = routed.render();
    // Followers share the leader's rendered bytes but keep their own
    // request IDs, log lines and deadline slack.
    let fan_out: Vec<_> = live.collect();
    let shared_cache = if fan_out.is_empty() {
        Vec::new()
    } else {
        artifacts.cache.clone()
    };
    write_and_finish(
        state,
        stream,
        Routed::Text(status, content_type, body.clone()),
        Some(shard.id),
        request_id,
        route_label,
        lead_wait,
        picked,
        artifacts,
    );
    for (job, slack, queue_wait_ms) in fan_out {
        let artifacts = RouteArtifacts {
            spans: Vec::new(),
            cache: shared_cache.clone(),
            cache_hits: count_cache_hits(&shared_cache),
            deadline_slack_ms: slack,
            coalesced: true,
        };
        write_and_finish(
            state,
            job.stream,
            Routed::Text(status, content_type, body.clone()),
            Some(shard.id),
            job.request_id,
            job.route_label,
            queue_wait_ms,
            picked,
            artifacts,
        );
    }
}

/// Maps a [`ServiceError`] (or a deadline expiry) onto the wire.
fn error_json(kind: ErrorKind, message: impl Into<String>) -> Routed {
    Routed::Json(
        kind.http_status(),
        ErrorResponse::new(kind, message).to_json(),
    )
}

/// Enforces the request's (or the server's default) deadline against the
/// time already spent in the admission queue. On success returns the
/// remaining budget in milliseconds (`None` when no deadline applies),
/// which the request line reports as `deadline_slack_ms`.
fn check_deadline(
    deadline_ms: Option<u64>,
    admitted: Instant,
    state: &ServerState,
) -> Result<Option<i64>, Routed> {
    let Some(budget) = deadline_ms.or(state.default_deadline_ms) else {
        return Ok(None);
    };
    let waited = admitted.elapsed();
    let waited_ms = waited.as_millis().min(u128::from(u64::MAX)) as i64;
    let slack = i64::try_from(budget).unwrap_or(i64::MAX) - waited_ms;
    if waited > Duration::from_millis(budget) {
        // The 504 envelope mirrors the 429's machine-readable shape:
        // deadline_slack_ms reports how far past the budget the request
        // was when dropped (always negative here).
        let body = ErrorResponse::new(
            ErrorKind::DeadlineExceeded,
            format!(
                "deadline of {budget} ms elapsed after {} ms in queue",
                waited.as_millis()
            ),
        )
        .with_deadline_slack_ms(slack.min(-1));
        return Err(Routed::Json(
            ErrorKind::DeadlineExceeded.http_status(),
            body.to_json(),
        ));
    }
    Ok(Some(slack))
}

/// Fills the job cap a request runs its group simulations with.
/// Precedence: an explicit `options.jobs` wins, then `hints.jobs`, then
/// the server's `--sim-jobs` default (`default_jobs` is the latter two,
/// resolved). The cap is execution-only, so applying it never changes
/// what the request computes — which is why the dedup fingerprint may
/// ignore hints.
fn apply_default_jobs(options: &mut Option<zatel::ZatelOptions>, default_jobs: Option<usize>) {
    if default_jobs.is_none() {
        return;
    }
    let options = options.get_or_insert_with(zatel::ZatelOptions::default);
    if options.jobs.is_none() {
        options.jobs = default_jobs;
    }
}

/// Counts the cache-outcome records whose `outcome` is a hit (memory or
/// disk).
fn count_cache_hits(cache: &[Value]) -> u64 {
    cache
        .iter()
        .filter(|record| {
            matches!(
                record.get("outcome").and_then(Value::as_str),
                Some("memory" | "disk")
            )
        })
        .count() as u64
}

/// Runs one prediction through the shard's cache and accumulates its
/// request metrics.
fn run_predict(
    shard: &Arc<Shard>,
    state: &Arc<ServerState>,
    req: &PredictRequest,
    request_id: &str,
) -> (Routed, RouteArtifacts) {
    let mut artifacts = RouteArtifacts::default();
    let started = Instant::now();
    match service::execute_predict_traced(req, &shard.cache, Some(request_id)) {
        Ok(out) => {
            state.with_registry(|r| {
                r.counter_add("predict_requests", 1);
                r.observe("predict_latency_ms", elapsed_ms(started));
            });
            artifacts.spans = out.response.spans.clone();
            artifacts.cache = out.response.cache.clone();
            artifacts.cache_hits = count_cache_hits(&artifacts.cache);
            (Routed::Json(200, out.response.to_json()), artifacts)
        }
        Err(err) => {
            state.with_registry(|r| r.counter_add("predict_errors", 1));
            (error_json(err.kind(), err.to_string()), artifacts)
        }
    }
}

/// Runs one sweep through the shard's cache and accumulates its request
/// metrics.
fn run_sweep(
    shard: &Arc<Shard>,
    state: &Arc<ServerState>,
    req: &SweepRequest,
) -> (Routed, RouteArtifacts) {
    let artifacts = RouteArtifacts::default();
    let started = Instant::now();
    match service::execute_sweep(req, &shard.cache) {
        Ok(out) => {
            state.with_registry(|r| {
                r.counter_add("sweep_requests", 1);
                r.observe("sweep_latency_ms", elapsed_ms(started));
            });
            (Routed::Json(200, out.response.to_json()), artifacts)
        }
        Err(err) => {
            state.with_registry(|r| r.counter_add("sweep_errors", 1));
            (error_json(err.kind(), err.to_string()), artifacts)
        }
    }
}
