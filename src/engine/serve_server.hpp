// Serving of the decode protocol: one connection pipeline for every
// transport.
//
// `pooled_cli serve --listen <addr>` runs one of these around a
// BatchEngine and gives each accepted socket connection a request
// pipeline of its own. Stdin serve (`pooled_cli serve`, serve_stream)
// runs the very same pipeline as connection 0 over an istream/ostream
// pair, on the caller's thread via serve(): no accept loop, no reaper.
//
//   reader thread --- load_request() ---> job queue (<= one window)
//   handler thread <-- pops a window -- engine.run() --> result frames
//
// so frame parsing overlaps with decoding up to the window bound below,
// and stats frames, answered on the reader thread out of band of the job
// pipeline, never wait behind a decode. Result frames are rebased by the
// connection-global job index, and v1/v2 frames mix freely on one
// connection because protocol version negotiation is per frame.
//
// Window policy. A connection holds at most one window of parsed-but-
// unanswered jobs (queued plus in flight, the window clamped to
// limits::kMaxJobsPerWindow); the reader waits for room *before* reading
// the next frame. The handler starts a window when it holds a full one,
// when the reader has finished, or when no input is ready at a frame
// boundary (nothing but blank lines buffered: in_avail() <= 0). There is
// deliberately no read-ahead: a closed-loop client over a pipe sees a
// latency of about (frames in the pipe + jobs the server holds) /
// throughput, so read-ahead only lets the writer send earlier without
// finishing anything sooner. Measured on batch_cold (4-vCPU AVX2, seed
// 3), two windows of read-ahead raised p50 latency 37% and one window
// 23%; this policy matched the old no-read-ahead stdin loop within
// noise. The idle rule is what answers an interactive client, which
// sends one frame and waits, without a full window or EOF; it needs a
// streambuf whose in_avail() reports pending bytes (std::cin must not be
// synced with stdio, and must not be tied to the stream it answers on).
//
// Connection lifecycle:
//   - End of input (a socket client's half-close, EOF on a stream) means
//     "no more requests": queued jobs finish, their results flush, and
//     the connection winds down (a socket half-closes its write side).
//   - A *dropped* socket connection is detected by the reaper thread,
//     which probes every live connection with an out-of-band blank line
//     (frame readers skip blank lines) every probe period. A probe that
//     fails with a dead-peer error sets the connection's cancel token --
//     the same std::atomic that every in-flight DecodeContext::cancel
//     points at -- so round-based decodes stop at the next round boundary
//     and the workers go back to serving live connections instead of
//     decoding for a ghost. Per-job deadlines (`deadline-ms`) ride the
//     normal DecodeContext::deadline_seconds path and stop with
//     `stop deadline`.
//   - A malformed frame loses framing for good, so the reader stops, the
//     jobs parsed before it are still answered, and the connection ends
//     with a final `status error protocol error: ...` frame. serve()
//     then throws the parse error.
//   - A `pooled-drain` frame (or begin_drain(), the SIGTERM path) flips
//     the server into draining: new connections are refused, every live
//     connection's read side is shut down so its queued jobs finish and
//     flush, and once the fleet of handlers has quiesced the draining
//     connection receives one `pooled-drain-result` summary. The caller
//     (pooled_cli serve) watches draining() + active connections and
//     exits; nothing in-flight is cancelled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <optional>
#include <thread>

#include "engine/protocol.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

class TraceRecorder;

struct ServeServerOptions {
  /// Jobs per scheduling window (0 = the engine's window), clamped to
  /// limits::kMaxJobsPerWindow. A connection holds at most one window of
  /// parsed-but-unanswered jobs.
  std::size_t chunk = 0;
  /// Reaper probe period. A dropped connection is detected within about
  /// two periods (the first probe after the drop may still buffer).
  double probe_seconds = 0.05;
  /// Per-send cap on result writes (SO_SNDTIMEO; 0 = unbounded). A
  /// connected client that stops reading stalls its writer at most this
  /// long before the connection errors out and its jobs cancel.
  double write_timeout_seconds = 30.0;
  /// Per-round progress lines tagged with connection-global job indices
  /// (`serve --progress`; connection 0 is untagged); may be null. Must
  /// outlive the server.
  ProgressStream* progress = nullptr;
  /// Metrics registry holding every serve.* and drain.* metric the
  /// server keeps (null = a registry the server owns); build_snapshot()
  /// is this registry's snapshot plus the values other modules own: the
  /// engine cache's cache.* counters, arena.live_bytes and build.kernels.
  /// Sharing it with the engine (EngineOptions::metrics) adds engine.*.
  /// A registry serves at most one ServeServer: two would add into the
  /// same counters. Must outlive the server.
  MetricsRegistry* metrics = nullptr;
  /// Optional per-job trace recorder (`serve --trace`); one JSONL span
  /// per job, tagged with the connection serial. Must outlive the
  /// server's stop().
  TraceRecorder* trace = nullptr;
  /// Periodic cache-snapshot cadence in seconds (0 = off). When set
  /// together with on_snapshot, the reaper thread invokes the callback
  /// about every snapshot_seconds; the callback must not throw.
  double snapshot_seconds = 0.0;
  /// Invoked from the reaper thread on the snapshot cadence
  /// (`serve --cache-file` wires it to ResultCache::spill). Must not
  /// throw; must outlive the server's stop().
  std::function<void()> on_snapshot;
  /// Invoked exactly once per answered drain frame, after the fleet of
  /// handlers has quiesced and before the summary is written: fills the
  /// cache_entries / snapshot_written fields (jobs_served and
  /// write_failures are the server's own counters). Must not throw;
  /// must outlive the server's stop().
  std::function<void(DrainSummary&)> on_drain;
};

/// Counter snapshot (monotonic except active_connections).
struct ServeServerStats {
  std::uint64_t connections_accepted = 0;  ///< serve() streams included
  std::uint64_t connections_reaped = 0;   ///< dropped by the liveness probe
  std::uint64_t connections_errored = 0;  ///< lost to a transport error (not
                                          ///< a clean half-close)
  std::uint64_t active_connections = 0;
  std::uint64_t jobs_served = 0;     ///< result frames delivered to the peer
  std::uint64_t jobs_cancelled = 0;  ///< served jobs that stopped on cancel
  std::uint64_t jobs_failed = 0;     ///< `status error` frames, parse errors included
  std::uint64_t write_failures = 0;  ///< frames lost to a dead/stalled peer
};

class ServeServer {
 public:
  /// Takes ownership of a bound listener, or none for a server that only
  /// runs serve(). The engine (and its pool, cache, and the options'
  /// progress stream) must outlive the server.
  ServeServer(std::optional<ListenSocket> listener, const BatchEngine& engine,
              ServeServerOptions options = {});
  ~ServeServer();  ///< stop() if still running

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Spawns the accept loop and the reaper; returns immediately. Needs a
  /// listener.
  void start();

  /// Serves one request stream as connection 0 on the caller's thread
  /// (plus one reader thread) until end of input or a drain frame, and
  /// returns the number of jobs answered. The pipeline is a socket
  /// connection's, minus the socket-only steps (reaper probes, shutdowns,
  /// lingering close). Throws ContractError once the connection is over
  /// if it ended on a malformed frame (after answering the jobs before it
  /// and writing the error frame) or on a failed write.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Stops accepting, cancels every in-flight decode, unblocks and joins
  /// every connection thread. Idempotent.
  void stop();

  /// Starts a graceful drain: new connections are refused, live
  /// connections get their read side shut down (queued jobs still finish
  /// and flush), nothing in-flight is cancelled. The `pooled-drain`
  /// frame takes this path too. Idempotent; callable from any thread.
  /// Callers watch draining() + stats().active_connections reaching 0,
  /// then call stop().
  void begin_drain();

  /// True once a drain has started (frame or begin_drain()).
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// The resolved listen address (real port when bound with port 0).
  /// Needs a listener.
  [[nodiscard]] const SocketAddress& address() const;

  [[nodiscard]] ServeServerStats stats() const;

  /// The machine-readable snapshot behind the `stats` protocol frame and
  /// the `--metrics` endpoint: the registry's metrics in registration
  /// order, then the cache counters (when the engine has a cache), arena
  /// bytes and the kernel tier. Callable from any thread.
  [[nodiscard]] MetricsSnapshot build_snapshot() const;

 private:
  struct Connection;

  void accept_loop();
  void reaper_loop();
  /// Admission accounting shared by accepted and stream connections;
  /// returns the 1-based accept serial.
  std::uint64_t admit();
  /// Runs one connection to its end; returns the jobs answered.
  std::size_t handle_connection(Connection& connection);
  void read_requests(Connection& connection);

  std::optional<ListenSocket> listener_;
  const BatchEngine& engine_;
  ServeServerOptions options_;
  const std::size_t window_;  ///< options_.chunk resolved and clamped

  std::atomic<bool> stop_{false};
  /// The synchronisation flag; the drain.draining gauge mirrors it.
  std::atomic<bool> draining_{false};
  /// Set with draining_; the accept loop consumes it and shuts down the
  /// read side of every live connection (readers must never touch
  /// connections_mutex_, so the sweep cannot run on the reader thread
  /// that parsed the drain frame).
  std::atomic<bool> drain_sweep_pending_{false};
  /// Admission-ordered handler census for the drain barrier: bumped by
  /// the accept loop when a connection is admitted, dropped when its
  /// handler finishes. A drain-owning handler waits until every live
  /// handler is a drain owner before writing its summary -- via these
  /// two atomics only, because stop() joins handlers while holding
  /// connections_mutex_ (a handler touching that mutex would deadlock).
  std::atomic<std::uint64_t> handlers_active_{0};
  std::atomic<std::uint64_t> drain_owners_active_{0};
  std::thread accept_thread_;
  std::thread reaper_thread_;
  // Wakes the reaper out of its inter-probe wait so stop() is prompt
  // even when probe_seconds is long.
  AnnotatedMutex reaper_mutex_;
  std::condition_variable_any reaper_cv_;

  mutable AnnotatedMutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_
      POOLED_GUARDED_BY(connections_mutex_);

  // Metrics: resolved once in the constructor into options_.metrics, or
  // into own_registry_ when none is wired (as ShardRouter does).
  MetricsRegistry own_registry_;
  MetricsRegistry* registry_ = nullptr;
  Counter* connections_accepted_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Counter* connections_reaped_ = nullptr;
  Counter* connections_errored_ = nullptr;
  Counter* jobs_served_ = nullptr;
  Counter* jobs_cancelled_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* write_failures_ = nullptr;
  Gauge* queue_gauge_ = nullptr;
  LatencyHistogram* job_seconds_ = nullptr;
  Counter* drains_requested_ = nullptr;
  Gauge* draining_gauge_ = nullptr;
};

}  // namespace pooled
