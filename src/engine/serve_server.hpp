// Serving of the decode protocol: one connection pipeline for every
// transport and both executors.
//
// `pooled_cli serve --listen <addr>` runs one of these around a
// BatchEngine and gives each accepted socket connection a request
// pipeline of its own. Stdin serve (`pooled_cli serve`, serve_stream)
// runs the very same pipeline as connection 0 over an istream/ostream
// pair, on the caller's thread via serve(): no accept loop, no reaper.
// `pooled_cli route` runs it too, as connection 0 over a ShardRouter
// instead of a BatchEngine: the pipeline is generic over its executor,
// which only has to start jobs, hand their reports back in submission
// order, and snapshot.
//
//   reader thread --- load_request() ---> job queue (<= one window)
//   handler thread <-- pops jobs -- executor --> result frames
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
// the next frame. The executors differ only in when work starts:
//   - BatchEngine runs a whole window per engine.run() and delivers it
//     all-or-nothing. The handler starts a window when it holds a full
//     one, when the reader has finished, or when no input is ready at a
//     frame boundary (nothing but blank lines buffered: in_avail() <= 0).
//     There is deliberately no read-ahead: a closed-loop client over a
//     pipe sees a latency of about (frames in the pipe + jobs the server
//     holds) / throughput, so read-ahead only lets the writer send
//     earlier without finishing anything sooner. Measured on batch_cold
//     (4-vCPU AVX2, seed 3), two windows of read-ahead raised p50
//     latency 37% and one window 23%; this policy matched the old
//     no-read-ahead stdin loop within noise. The idle rule is what
//     answers an interactive client, which sends one frame and waits,
//     without a full window or EOF; it needs a streambuf whose
//     in_avail() reports pending bytes (std::cin must not be synced with
//     stdio, and must not be tied to the stream it answers on).
//   - A ShardRouter gets each job from the reader thread the moment it
//     is parsed, and the handler writes the head job's report the moment
//     it has merged, so the window only bounds jobs in flight.
//     Holding results back for a fuller window would only add waiting
//     for later arrivals to every result.
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
//     exits; nothing in-flight is cancelled. Over a router the summary
//     is the fleet's: `pooled_cli route` wires on_drain to drain every
//     shard once the connection's jobs are all written.
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

class ShardRouter;
class TraceRecorder;

struct ServeServerOptions {
  /// Jobs per scheduling window (0 = the executor's window: the engine's,
  /// or 4x the router's shard count), clamped to
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
  /// server keeps (null = a registry the server owns). Over an engine,
  /// build_snapshot() is this registry's snapshot plus the values other
  /// modules own: the engine cache's cache.* counters, arena.live_bytes
  /// and build.kernels; sharing it with the engine
  /// (EngineOptions::metrics) adds engine.*. Over a router,
  /// build_snapshot() is the router's fleet snapshot; sharing it with the
  /// router (ShardRouterOptions::metrics) adds serve.* and drain.* to it.
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
  /// handlers has quiesced and before the summary is written, with
  /// jobs_served and write_failures preset from the server's own
  /// counters: fills the cache_entries / snapshot_written fields (a
  /// router's drain replaces the whole summary with its fleet's). Must
  /// not throw; must outlive the server's stop().
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
  /// The same pipeline over a started ShardRouter, which must outlive
  /// the server. Each job is submitted as soon as it is parsed and its
  /// result written as soon as it merges; ServeServerOptions::trace and
  /// ::progress observe nothing (the decodes run on the shards).
  ServeServer(std::optional<ListenSocket> listener, ShardRouter& router,
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
  /// the `--metrics` endpoint. Over an engine: the registry's metrics in
  /// registration order, then the cache counters (when the engine has a
  /// cache), arena bytes and the kernel tier. Over a router: its fleet
  /// snapshot (ShardRouter::build_snapshot). Callable from any thread.
  [[nodiscard]] MetricsSnapshot build_snapshot() const;

  /// What a connection's jobs run on. Its two implementations, over a
  /// BatchEngine and over a ShardRouter, live in serve_server.cpp.
  class Executor;

 private:
  struct Connection;

  ServeServer(std::optional<ListenSocket> listener,
              std::unique_ptr<Executor> executor, ServeServerOptions options);
  void accept_loop();
  void reaper_loop();
  /// Admission accounting shared by accepted and stream connections;
  /// returns the 1-based accept serial.
  std::uint64_t admit();
  /// Runs one connection to its end; returns the jobs answered.
  std::size_t handle_connection(Connection& connection);
  void read_requests(Connection& connection);

  std::optional<ListenSocket> listener_;
  std::unique_ptr<Executor> executor_;
  ServeServerOptions options_;
  const std::size_t window_;  ///< options_.chunk resolved and clamped
  /// Jobs per executor run: the window, or 1 when the executor starts
  /// each job at parse and answers it alone (a router).
  const std::size_t batch_;

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
