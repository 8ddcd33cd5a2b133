//! The counter table: every scalar counter and gauge the service reports,
//! declared once.
//!
//! Each [`Descriptor`] row names its `/v1/stats` location, its Prometheus
//! family (name, type, HELP text), and how to read its value off one
//! [`Snapshot`]. The stats and metrics operations are two walks over
//! [`DESCRIPTORS`]; only the non-scalar surfaces (latency histograms, the
//! slow-request ring, build info, uptime, and the engine configuration)
//! are written by hand. The metrics inventory in `docs/OBSERVABILITY.md`
//! lists the same families, and a test keeps the two in step.

use mani_engine::{CacheStats, EngineStats};

use crate::metrics::TransportStats;
use crate::response_cache::ResponseCacheStats;
use Kind::{Counter, Gauge, Nanos};

/// Every counter source, read once per render so one document never mixes
/// two reads of the same source.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub engine: EngineStats,
    pub precedence: CacheStats,
    pub responses: ResponseCacheStats,
    pub transport: TransportStats,
    pub datasets: usize,
    pub jobs: usize,
}

/// Prometheus type of a row, and the scale its value is exported at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// A monotonic count.
    Counter,
    /// A point-in-time level.
    Gauge,
    /// A monotonic nanosecond total: `/v1/stats` reports nanoseconds,
    /// `/metrics` a `_seconds_total` counter.
    Nanos,
}

/// One scalar counter or gauge, rendered on both surfaces.
#[derive(Debug)]
pub(crate) struct Descriptor {
    /// `/v1/stats` location: `"section.key"`, a bare top-level `"key"`, or
    /// `""` for a family only `/metrics` carries.
    pub stat: &'static str,
    /// Prometheus family name.
    pub family: &'static str,
    /// Prometheus type and scale.
    pub kind: Kind,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Reads the raw value.
    pub read: fn(&Snapshot) -> u64,
}

impl Descriptor {
    /// The Prometheus `# TYPE`.
    pub fn prom_type(&self) -> &'static str {
        match self.kind {
            Kind::Gauge => "gauge",
            Kind::Counter | Kind::Nanos => "counter",
        }
    }

    /// The value as exported to Prometheus.
    pub fn prom_value(&self, snapshot: &Snapshot) -> f64 {
        let raw = (self.read)(snapshot) as f64;
        match self.kind {
            Kind::Nanos => raw / 1e9,
            Kind::Counter | Kind::Gauge => raw,
        }
    }
}

/// One table row, with arguments in the table's column order.
const fn row(
    stat: &'static str,
    family: &'static str,
    kind: Kind,
    read: fn(&Snapshot) -> u64,
    help: &'static str,
) -> Descriptor {
    Descriptor {
        stat,
        family,
        kind,
        help,
        read,
    }
}

/// Every scalar counter, in `/v1/stats` order: a section appears where its
/// first row does, and bare top-level keys follow the latency histograms.
#[rustfmt::skip]
pub(crate) const DESCRIPTORS: &[Descriptor] = &[
    row("engine.queue_depth", "mani_engine_queue_depth", Gauge, |s| s.engine.queue_depth as u64,
        "Configured engine job-queue bound."),
    row("engine.in_flight", "mani_engine_jobs_in_flight", Gauge, |s| s.engine.in_flight as u64,
        "Jobs admitted and not yet completed."),
    row("engine.submitted", "mani_engine_jobs_submitted_total", Counter, |s| s.engine.submitted,
        "Jobs admitted to the engine queue."),
    row("engine.completed", "mani_engine_jobs_completed_total", Counter, |s| s.engine.completed,
        "Jobs that finished solving."),
    row("engine.rejected", "mani_engine_jobs_rejected_total", Counter, |s| s.engine.rejected,
        "Jobs refused because the queue was full."),
    row("kernels.matrix_build_ns", "mani_engine_matrix_build_seconds_total", Nanos,
        |s| s.precedence.build_ns, "Cumulative time spent building precedence matrices."),
    row("kernels.solve_ns", "mani_engine_solve_seconds_total", Nanos, |s| s.engine.solve_ns,
        "Cumulative time spent inside method solvers."),
    row("kernels.nodes_expanded", "mani_engine_nodes_expanded_total", Counter,
        |s| s.engine.nodes_expanded, "Exact-solver search nodes expanded."),
    row("kernels.fw_blocked_solves", "mani_kernel_fw_blocked_solves_total", Counter,
        |s| s.engine.fw_blocked_solves, "Blocked (tiled) Floyd-Warshall solves, process-wide."),
    row("kernels.fw_tiles_relaxed", "mani_kernel_fw_tiles_relaxed_total", Counter,
        |s| s.engine.fw_tiles_relaxed,
        "Tiles relaxed by blocked Floyd-Warshall solves, process-wide."),
    row("kernels.pair_shard_tasks", "mani_kernel_pair_shard_tasks_total", Counter,
        |s| s.engine.pair_shard_tasks,
        "Candidate-pair shard tasks spawned by matrix/scoring kernels, process-wide."),
    row("kernels.ranking_shard_tasks", "mani_kernel_ranking_shard_tasks_total", Counter,
        |s| s.engine.ranking_shard_tasks,
        "Ranking shard tasks spawned by matrix build kernels, process-wide."),
    row("streaming.batches_opened", "mani_engine_batches_opened_total", Counter,
        |s| s.engine.batches_opened, "Streaming batches opened."),
    row("streaming.batches_drained", "mani_engine_batches_drained_total", Counter,
        |s| s.engine.batches_drained, "Streaming batches fully drained."),
    row("streaming.results_yielded", "mani_engine_batch_results_yielded_total", Counter,
        |s| s.engine.batch_results_yielded, "Streaming results yielded in as-completed order."),
    row("precedence_cache.lookups", "mani_precedence_cache_lookups_total", Counter,
        |s| s.precedence.lookups, "Precedence-cache lookups."),
    row("precedence_cache.hits", "mani_precedence_cache_hits_total", Counter, |s| s.precedence.hits,
        "Precedence-cache hits (matrix reused)."),
    row("precedence_cache.builds", "mani_precedence_cache_builds_total", Counter,
        |s| s.precedence.builds, "Precedence matrices built."),
    row("precedence_cache.delta_appends", "mani_precedence_cache_delta_appends_total", Counter,
        |s| s.precedence.delta_appends,
        "Ranking appends folded into delta-derived precedence matrices."),
    row("precedence_cache.delta_retracts", "mani_precedence_cache_delta_retracts_total", Counter,
        |s| s.precedence.delta_retracts,
        "Ranking retracts folded into delta-derived precedence matrices."),
    row("precedence_cache.delta_rebuild_fallbacks", "mani_precedence_cache_delta_rebuilds_total",
        Counter, |s| s.precedence.delta_rebuild_fallbacks,
        "Delta derivations that fell back to a full matrix rebuild."),
    row("precedence_cache.entries", "mani_precedence_cache_entries", Gauge,
        |s| s.precedence.entries as u64, "Precedence-cache resident entries."),
    row("response_cache.capacity", "mani_response_cache_capacity", Gauge,
        |s| s.responses.capacity as u64, "Response-cache entry bound."),
    row("response_cache.entries", "mani_response_cache_entries", Gauge,
        |s| s.responses.entries as u64, "Response-cache resident entries."),
    row("response_cache.hits", "mani_response_cache_hits_total", Counter, |s| s.responses.hits,
        "Response-cache hits."),
    row("response_cache.misses", "mani_response_cache_misses_total", Counter,
        |s| s.responses.misses, "Response-cache misses."),
    row("response_cache.insertions", "mani_response_cache_insertions_total", Counter,
        |s| s.responses.insertions, "Response-cache insertions."),
    row("response_cache.evictions", "mani_response_cache_evictions_total", Counter,
        |s| s.responses.evictions, "Response-cache LRU evictions."),
    row("server.max_connections", "mani_connections_max", Gauge, |s| s.transport.max_connections,
        "Configured concurrent-connection bound."),
    row("server.conn_threads", "mani_connection_threads", Gauge, |s| s.transport.conn_threads,
        "Configured connection worker threads."),
    row("server.connections_accepted", "mani_connections_accepted_total", Counter,
        |s| s.transport.accepted, "Connections handed to the worker pool."),
    row("server.connections_rejected", "mani_connections_rejected_total", Counter,
        |s| s.transport.rejected_busy, "Connections turned away at the accept path."),
    row("server.requests_served", "mani_requests_served_total", Counter, |s| s.transport.requests,
        "HTTP exchanges served across all connections."),
    row("server.keepalive_reuses", "mani_keepalive_reuses_total", Counter,
        |s| s.transport.keepalive_reuses,
        "Exchanges served on an already-used keep-alive connection."),
    row("datasets_registered", "mani_datasets_registered", Gauge, |s| s.datasets as u64,
        "Datasets resident in the registry."),
    row("jobs_tracked", "mani_jobs_tracked", Gauge, |s| s.jobs as u64,
        "Async jobs tracked for polling."),
    row("", "mani_pool_queued", Gauge, |s| s.engine.pool_queued as u64,
        "Engine worker-pool jobs waiting for a thread."),
    row("", "mani_pool_busy", Gauge, |s| s.engine.pool_busy as u64,
        "Engine worker-pool threads currently running a job."),
    row("", "mani_pool_tasks_executed_total", Counter, |s| s.engine.pool_tasks_executed,
        "Engine worker-pool jobs executed to completion."),
];
