#include "engine/serve_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_cache.hpp"
#include "engine/shard_router.hpp"
#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pooled {

/// Per-connection state shared by the handler thread, its reader thread,
/// and the reaper. A socket connection owns its SocketStream; a stream
/// connection (serve(), connection 0) borrows the caller's streams and
/// has no socket, so the socket-only steps skip it.
struct ServeServer::Connection {
  Connection(Socket socket, std::uint64_t serial_)
      : transport(std::in_place, std::move(socket)),
        in(transport->in()),
        out(transport->out()),
        serial(serial_) {}
  Connection(std::istream& in_, std::ostream& out_)
      : in(in_), out(out_), serial(0) {}

  std::optional<SocketStream> transport;  ///< empty for a stream connection
  /// The read side belongs to the reader thread alone; the write side is
  /// shared (handler, reaper, stats answers) and every writer takes
  /// write_mutex. Both deliberately unannotated: a reference cannot be
  /// PT_GUARDED_BY.
  std::istream& in;
  std::ostream& out;
  const std::uint64_t serial;  ///< 1-based accept order (0 = stream); tags
                               ///< progress lines and trace spans

  /// Serializes result frames and liveness probes so a probe newline
  /// never lands inside a frame (frames are always flushed whole under
  /// this mutex).
  AnnotatedMutex write_mutex;

  /// The connection's cancel token; every in-flight DecodeContext points
  /// here. Set by the reaper (dropped peer), a failed write, or stop().
  std::atomic<bool> cancel{false};
  std::atomic<bool> done{false};

  /// One parsed job on its way from the reader to the handler.
  struct Queued {
    DecodeJob job;
    std::uint64_t ticket = 0;         ///< Executor::submit's handle
    std::unique_ptr<TraceSpan> span;  ///< null when tracing is off
  };

  // Reader -> handler pipeline, bounded at one window of parsed-but-
  // unanswered jobs (see the window policy in the header).
  AnnotatedMutex queue_mutex;
  std::condition_variable_any queue_cv;
  std::deque<Queued> queue POOLED_GUARDED_BY(queue_mutex);
  /// Jobs the handler has taken for its executor, until they are answered.
  std::size_t in_flight POOLED_GUARDED_BY(queue_mutex) = 0;
  /// No input was ready at the reader's last frame boundary.
  bool input_idle POOLED_GUARDED_BY(queue_mutex) = false;
  bool reader_done POOLED_GUARDED_BY(queue_mutex) = false;
  /// This connection sent `pooled-drain` and is owed the summary frame
  /// once the fleet quiesces. Reader sets it, handler reads it after the
  /// queue drains.
  bool drain_owed POOLED_GUARDED_BY(queue_mutex) = false;
  std::string parse_error POOLED_GUARDED_BY(queue_mutex);
  std::uint64_t jobs_parsed = 0;  ///< reader-only span index

  std::thread handler;  ///< socket connections only
};

/// The seam between a connection's pipeline and what decodes its jobs.
class ServeServer::Executor {
 public:
  virtual ~Executor() = default;
  /// The window when ServeServerOptions::chunk is 0.
  [[nodiscard]] virtual std::size_t window() const = 0;
  /// True when submit() starts each job and run() answers one at a time.
  [[nodiscard]] virtual bool streams() const = 0;
  /// Reader thread, as soon as `job` is parsed; returns the ticket run()
  /// redeems. A streaming executor starts the job here and may empty it.
  virtual std::uint64_t submit(DecodeJob& job) = 0;
  /// Handler thread: the reports of `jobs` (and their parallel
  /// `tickets`), indexed 0..jobs.size()-1 in submission order.
  virtual std::vector<DecodeReport> run(
      const std::vector<DecodeJob>& jobs,
      const std::vector<std::uint64_t>& tickets) = 0;
  /// The stats frame: `registry` is the server's own.
  virtual MetricsSnapshot snapshot(const MetricsRegistry& registry) = 0;
};

namespace {

/// Runs a window of jobs per engine.run(); nothing starts at parse.
class EngineExecutor final : public ServeServer::Executor {
 public:
  explicit EngineExecutor(const BatchEngine& engine) : engine_(engine) {}

  std::size_t window() const override { return engine_.window(); }
  bool streams() const override { return false; }
  std::uint64_t submit(DecodeJob&) override { return 0; }
  std::vector<DecodeReport> run(const std::vector<DecodeJob>& jobs,
                                const std::vector<std::uint64_t>&) override {
    return engine_.run(jobs);
  }

  MetricsSnapshot snapshot(const MetricsRegistry& registry) override {
    MetricsSnapshot snapshot = registry.snapshot();
    auto& values = snapshot.values;
    if (const ResultCache* cache = engine_.result_cache()) {
      const CacheStats stats = cache->stats();
      values.push_back(MetricValue::of_counter("cache.hits", stats.hits));
      values.push_back(MetricValue::of_counter("cache.misses", stats.misses));
      values.push_back(
          MetricValue::of_counter("cache.insertions", stats.insertions));
      values.push_back(
          MetricValue::of_counter("cache.evictions", stats.evictions));
      values.push_back(MetricValue::of_counter("cache.snapshot_writes",
                                               stats.snapshot_writes));
      values.push_back(MetricValue::of_counter("cache.snapshot_restores",
                                               stats.snapshot_restores));
      values.push_back(MetricValue::of_counter("cache.snapshot_rejected",
                                               stats.snapshot_rejected));
      values.push_back(MetricValue::of_counter("cache.snapshot_failures",
                                               stats.snapshot_failures));
      const auto size = static_cast<std::int64_t>(stats.size);
      const auto capacity = static_cast<std::int64_t>(stats.capacity);
      values.push_back(MetricValue::of_gauge("cache.size", size, size));
      values.push_back(
          MetricValue::of_gauge("cache.capacity", capacity, capacity));
    }
    const ArenaStats arena = arena_stats();
    values.push_back(MetricValue::of_gauge(
        "arena.live_bytes", static_cast<std::int64_t>(arena.live_bytes),
        static_cast<std::int64_t>(arena.peak_bytes)));
    values.push_back(MetricValue::of_label(
        "build.kernels", kernel_isa_name(active_kernels().isa)));
    return snapshot;
  }

 private:
  const BatchEngine& engine_;
};

/// Submits each job to the router as it is parsed and hands back one
/// merged report at a time, in submission order (ShardRouter::wait).
class RouterExecutor final : public ServeServer::Executor {
 public:
  explicit RouterExecutor(ShardRouter& router) : router_(router) {}

  std::size_t window() const override { return 4 * router_.shard_count(); }
  bool streams() const override { return true; }
  std::uint64_t submit(DecodeJob& job) override {
    const std::uint64_t ticket = router_.submit(job);
    job = DecodeJob{};  // the router keeps the serialized frame it sent
    return ticket;
  }
  std::vector<DecodeReport> run(
      const std::vector<DecodeJob>&,
      const std::vector<std::uint64_t>& tickets) override {
    std::vector<DecodeReport> reports;
    reports.reserve(tickets.size());
    for (const std::uint64_t ticket : tickets) {
      reports.push_back(router_.wait(ticket));
      reports.back().index = reports.size() - 1;
    }
    return reports;
  }
  MetricsSnapshot snapshot(const MetricsRegistry&) override {
    return router_.build_snapshot();
  }

 private:
  ShardRouter& router_;
};

/// True when no further request bytes are buffered: blank lines (liveness
/// probes, separators) already in the buffer are consumed first, so a
/// trailing probe cannot hold a window back. Never blocks.
bool no_input_ready(std::istream& in) {
  std::streambuf* buffer = in.rdbuf();
  while (buffer->in_avail() > 0) {
    const int ch = buffer->sgetc();
    if (ch != '\n' && ch != '\r' && ch != ' ' && ch != '\t') return false;
    buffer->sbumpc();
  }
  return true;
}

}  // namespace

ServeServer::ServeServer(std::optional<ListenSocket> listener,
                         const BatchEngine& engine, ServeServerOptions options)
    : ServeServer(std::move(listener), std::make_unique<EngineExecutor>(engine),
                  std::move(options)) {}

ServeServer::ServeServer(std::optional<ListenSocket> listener,
                         ShardRouter& router, ServeServerOptions options)
    : ServeServer(std::move(listener), std::make_unique<RouterExecutor>(router),
                  std::move(options)) {}

ServeServer::ServeServer(std::optional<ListenSocket> listener,
                         std::unique_ptr<Executor> executor,
                         ServeServerOptions options)
    : listener_(std::move(listener)),
      executor_(std::move(executor)),
      options_(std::move(options)),
      window_(std::min(
          options_.chunk > 0 ? options_.chunk : executor_->window(),
          limits::kMaxJobsPerWindow)),
      batch_(executor_->streams() ? 1 : window_) {
  POOLED_REQUIRE(!listener_ || listener_->valid(),
                 "serve server needs a bound listener");
  POOLED_REQUIRE(options_.probe_seconds > 0.0,
                 "reaper probe period must be positive");
  // Registration order is the order of the stats frame.
  registry_ = options_.metrics != nullptr ? options_.metrics : &own_registry_;
  connections_accepted_ = &registry_->counter("serve.connections_accepted");
  active_gauge_ = &registry_->gauge("serve.connections_active");
  connections_reaped_ = &registry_->counter("serve.connections_reaped");
  connections_errored_ = &registry_->counter("serve.connections_errored");
  jobs_served_ = &registry_->counter("serve.jobs_served");
  jobs_cancelled_ = &registry_->counter("serve.jobs_cancelled");
  jobs_failed_ = &registry_->counter("serve.jobs_failed");
  write_failures_ = &registry_->counter("serve.write_failures");
  queue_gauge_ = &registry_->gauge("serve.queue_depth");
  job_seconds_ = &registry_->histogram("serve.job_seconds");
  drains_requested_ = &registry_->counter("drain.requests");
  draining_gauge_ = &registry_->gauge("drain.draining");
}

ServeServer::~ServeServer() { stop(); }

const SocketAddress& ServeServer::address() const {
  POOLED_REQUIRE(listener_.has_value(), "serve server has no listener");
  return listener_->local_address();
}

void ServeServer::start() {
  POOLED_REQUIRE(listener_.has_value(), "serve server has no listener");
  POOLED_REQUIRE(!accept_thread_.joinable(), "serve server already started");
  accept_thread_ = std::thread([this] { accept_loop(); });
  reaper_thread_ = std::thread([this] { reaper_loop(); });
}

void ServeServer::stop() {
  stop_.store(true);
  reaper_cv_.notify_all();
  // Join the accept loop *before* closing the listener: accept() polls
  // with a 100ms timeout and rechecks stop_, so the join is prompt, and
  // closing an fd another thread is still polling is a data race (worse,
  // the kernel can reuse the fd number mid-poll). TSan caught the old
  // close-then-join order.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_) listener_->close();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  // Handlers never take connections_mutex_, so joining under it is
  // deadlock-free. Only accepted (socket) connections are listed.
  const LockGuard lock(connections_mutex_);
  for (const auto& connection : connections_) {
    connection->cancel.store(true);
    connection->transport->socket().shutdown_both();  // unblocks the reader
    connection->queue_cv.notify_all();
  }
  for (const auto& connection : connections_) {
    if (connection->handler.joinable()) connection->handler.join();
  }
  connections_.clear();
}

void ServeServer::begin_drain() {
  // Atomic stores only: this is called from reader threads (on a drain
  // frame) and from signal-handling CLI loops, neither of which may
  // touch connections_mutex_ (stop() joins handlers while holding it).
  // The accept loop performs the actual read-shutdown sweep.
  draining_.store(true);
  draining_gauge_->set(1);
  drain_sweep_pending_.store(true);
}

ServeServerStats ServeServer::stats() const {
  ServeServerStats stats;
  stats.connections_accepted = connections_accepted_->value();
  stats.connections_reaped = connections_reaped_->value();
  stats.connections_errored = connections_errored_->value();
  stats.jobs_served = jobs_served_->value();
  stats.jobs_cancelled = jobs_cancelled_->value();
  stats.jobs_failed = jobs_failed_->value();
  stats.write_failures = write_failures_->value();
  stats.active_connections =
      static_cast<std::uint64_t>(std::max<std::int64_t>(active_gauge_->value(), 0));
  return stats;
}

MetricsSnapshot ServeServer::build_snapshot() const {
  return executor_->snapshot(*registry_);
}

std::uint64_t ServeServer::admit() {
  active_gauge_->add(1);
  // Counted at admission (not inside the handler) so the drain barrier
  // can never observe a connection whose handler has not started yet.
  handlers_active_.fetch_add(1);
  return connections_accepted_->add(1);
}

void ServeServer::accept_loop() {
  while (!stop_.load()) {
    std::optional<Socket> socket = listener_->accept(/*timeout_ms=*/100);
    // Reap finished connections on every wakeup so a long-lived server
    // does not accumulate one thread + fd per past client.
    {
      const LockGuard lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->handler.joinable()) (*it)->handler.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      if (drain_sweep_pending_.exchange(false)) {
        // Drain: half-close the read side of every live connection so
        // blocked readers see a clean EOF, queued jobs finish, and the
        // results still flush out the intact write side. A connection
        // admitted after the drain flag flipped (the accept below runs
        // outside this lock) is caught by the next sweep, because the
        // flag stays pending until consumed here. A connection whose
        // reader already finished (the drain owner's, typically) is
        // skipped: there is no blocked reader to unblock, and flagging
        // its receive side shut would make the kernel answer any
        // late-arriving peer bytes (liveness probes) after our FIN with
        // an RST that can destroy the drain summary in flight.
        for (const auto& connection : connections_) {
          if (connection->done.load()) continue;
          bool reader_done = false;
          {
            const LockGuard queue_lock(connection->queue_mutex);
            reader_done = connection->reader_done;
          }
          if (!reader_done) connection->transport->socket().shutdown_read();
        }
      }
    }
    if (!socket) continue;
    if (draining_.load()) continue;  // refused: the fleet is going down
    socket->set_send_timeout(options_.write_timeout_seconds);
    auto connection = std::make_unique<Connection>(std::move(*socket), admit());
    Connection& ref = *connection;
    {
      const LockGuard lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    ref.handler = std::thread([this, &ref] { (void)handle_connection(ref); });
  }
}

void ServeServer::reaper_loop() {
  Timer snapshot_timer;
  while (!stop_.load()) {
    {
      // Interruptible inter-probe wait: stop() must not block for up to
      // a full probe period behind a plain sleep.
      LockGuard lock(reaper_mutex_);
      reaper_cv_.wait_for(lock,
                          std::chrono::duration<double>(options_.probe_seconds),
                          [this] { return stop_.load(); });
    }
    if (stop_.load()) break;
    if (options_.snapshot_seconds > 0.0 && options_.on_snapshot &&
        snapshot_timer.seconds() >= options_.snapshot_seconds) {
      // Periodic cache spill, outside connections_mutex_ so a slow disk
      // never stalls accepts or probes behind this thread.
      options_.on_snapshot();
      snapshot_timer.reset();
    }
    const LockGuard lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (connection->done.load() || connection->cancel.load()) continue;
      bool alive;
      {
        // try_lock, not lock: a handler mid-write (possibly blocked in
        // send against a stalled reader) must not wedge the reaper --
        // and with it connections_mutex_, accepts, and stop().
        if (!connection->write_mutex.try_lock()) continue;  // next period
        const LockGuard write_lock(connection->write_mutex, std::adopt_lock);
        alive = send_liveness_probe(connection->transport->socket());
      }
      if (alive) continue;
      // Peer is gone: reclaim the workers. The cancel token stops every
      // in-flight round-based decode at its next round boundary, and the
      // shutdown unblocks a reader waiting in recv. The reap counter is
      // bumped *before* the token: every observable effect of this
      // cancellation (a Cancelled report, jobs_cancelled) then implies
      // the reap is already counted, so a stats reader can reconcile
      // jobs_cancelled against connections_reaped at any instant.
      connections_reaped_->add(1);
      connection->cancel.store(true);
      connection->transport->socket().shutdown_both();
      connection->queue_cv.notify_all();
    }
  }
}

void ServeServer::read_requests(Connection& connection) {
  try {
    while (true) {
      {
        // Room first: at most one window parsed-but-unanswered, so the
        // next frame stays unread (and the peer's writer waits) until the
        // handler has answered enough to make space. Explicit wait loop
        // (not the predicate overload): the condition reads guarded
        // fields, which the analysis can only check when the read is
        // visibly under the lock, not inside a lambda.
        LockGuard lock(connection.queue_mutex);
        while (connection.queue.size() + connection.in_flight >= window_ &&
               !connection.cancel.load()) {
          connection.queue_cv.wait(lock);
        }
      }
      if (connection.cancel.load()) break;
      const Timer parse_timer;
      std::optional<ServeRequest> request = load_request(connection.in);
      if (!request) {
        // A clean end of input means "no more requests": the handler
        // finishes the queue and answers. A transport error means the
        // peer is gone -- decoding its queued jobs would spend engine
        // time on frames nobody can read.
        if (connection.transport && connection.transport->read_errno() != 0 &&
            !connection.cancel.load()) {
          connections_errored_->add(1);
          connection.cancel.store(true);
        }
        break;
      }
      if (std::holds_alternative<DrainRequest>(*request)) {
        // This connection owns the drain: remember that it is owed the
        // summary, flip the server into draining, and stop reading --
        // the handler drains the queue, waits for the fleet, answers.
        drains_requested_->add(1);
        {
          const LockGuard lock(connection.queue_mutex);
          connection.drain_owed = true;
        }
        begin_drain();
        break;
      }
      std::optional<Connection::Queued> queued;
      if (std::holds_alternative<StatsRequest>(*request)) {
        // Answered immediately on the reader thread, out of band of the
        // job pipeline: a stats probe must not wait behind a window of
        // decodes (that latency is exactly what it is trying to observe).
        try {
          const MetricsSnapshot snapshot = build_snapshot();
          const LockGuard lock(connection.write_mutex);
          save_stats_snapshot(connection.out, snapshot);
          connection.out.flush();
          POOLED_REQUIRE(static_cast<bool>(connection.out),
                         "stats frame write failed");
        } catch (const std::exception&) {
          write_failures_->add(1);
          connection.cancel.store(true);
          break;
        }
      } else {
        queued.emplace();
        queued->job = std::get<DecodeJob>(std::move(*request));
        if (options_.trace != nullptr) {
          queued->span = std::make_unique<TraceSpan>(
              *options_.trace, connection.serial, connection.jobs_parsed);
          queued->span->stage(TraceStage::Parse, parse_timer.seconds());
          queued->job.trace = queued->span.get();
        }
        ++connection.jobs_parsed;
        queued->ticket = executor_->submit(queued->job);
      }
      const bool idle = no_input_ready(connection.in);
      {
        const LockGuard lock(connection.queue_mutex);
        connection.input_idle = idle;
        if (queued) {
          if (queued->span != nullptr) queued->span->mark_enqueued();
          connection.queue.push_back(std::move(*queued));
        }
      }
      if (queued) queue_gauge_->add(1);
      connection.queue_cv.notify_all();
    }
  } catch (const std::exception& e) {
    // Framing is lost after a parse error; the handler reports it as the
    // connection's final frame. A cancelled connection's read errors are
    // teardown noise, not protocol errors -- and a frame truncated by a
    // transport error is the transport's fault, not the client's, so it
    // counts as an errored connection, not a protocol violation.
    const LockGuard lock(connection.queue_mutex);
    if (!connection.cancel.load()) {
      if (connection.transport && connection.transport->read_errno() != 0) {
        connections_errored_->add(1);
        connection.cancel.store(true);
      } else {
        connection.parse_error = e.what();
      }
    }
  }
  {
    const LockGuard lock(connection.queue_mutex);
    connection.reader_done = true;
  }
  connection.queue_cv.notify_all();
}

std::size_t ServeServer::handle_connection(Connection& connection) {
  std::thread reader([this, &connection] { read_requests(connection); });
  std::ostream& out = connection.out;
  std::size_t served = 0;
  bool peer_writable = true;
  while (true) {
    std::vector<DecodeJob> jobs;
    std::vector<std::uint64_t> tickets;             // parallel to jobs
    std::vector<std::unique_ptr<TraceSpan>> spans;  // parallel to jobs
    {
      // A batch starts when it is full, when the reader has finished, or
      // when no more input is ready (see the window policy). A streaming
      // executor's batch is its head job, so that starts at once.
      LockGuard lock(connection.queue_mutex);
      while (!connection.cancel.load() && !connection.reader_done &&
             (connection.queue.empty() ||
              (connection.queue.size() < batch_ && !connection.input_idle))) {
        connection.queue_cv.wait(lock);
      }
      if (connection.cancel.load() || connection.queue.empty()) break;
      while (!connection.queue.empty() && jobs.size() < batch_) {
        Connection::Queued& head = connection.queue.front();
        jobs.push_back(std::move(head.job));
        tickets.push_back(head.ticket);
        spans.push_back(std::move(head.span));
        connection.queue.pop_front();
      }
      connection.in_flight = jobs.size();
    }
    queue_gauge_->add(-static_cast<std::int64_t>(jobs.size()));
    // Every job shares the connection's cancel token; progress sinks
    // carry the connection-global index the result frame will use.
    std::vector<ProgressStream::JobSink> sinks;
    sinks.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].cancel = &connection.cancel;
      DecodeStatsSink* sink = nullptr;
      if (options_.progress != nullptr) {
        // conn-tagged: every connection numbers its jobs from zero, so
        // the bare index would be ambiguous across clients.
        sinks.push_back(options_.progress->connection_sink(connection.serial,
                                                           served + j));
        sink = &sinks.back();
      }
      if (spans[j] != nullptr) {
        spans[j]->mark_dequeued();
        // The span observes the decoder's rounds and forwards them, so
        // tracing never silences --progress.
        spans[j]->set_chain(sink);
        jobs[j].stats = spans[j].get();
      } else {
        jobs[j].stats = sink;
      }
    }
    std::vector<DecodeReport> reports = executor_->run(jobs, tickets);
    // Account the window before touching the peer: cancelled/failed
    // counts and latencies describe the decode, not the delivery.
    for (DecodeReport& report : reports) {
      report.index += served;  // global index across the connection
      if (report.stop == StopReason::Cancelled) {
        jobs_cancelled_->add(1);
      }
      if (!report.ok()) jobs_failed_->add(1);
      job_seconds_->record(report.seconds);
    }
    // Delivery is all-or-nothing per batch: a write exception leaves
    // the frame boundary unknown, so nothing after it can be salvaged.
    std::size_t delivered = 0;
    try {
      const LockGuard lock(connection.write_mutex);
      for (std::size_t j = 0; j < reports.size(); ++j) {
        const Timer serialize_timer;
        save_report(out, reports[j]);
        if (spans[j] != nullptr) {
          spans[j]->stage(TraceStage::Serialize, serialize_timer.seconds());
        }
      }
      out.flush();
      POOLED_REQUIRE(static_cast<bool>(out), "result frame write failed");
      delivered = reports.size();
    } catch (const std::exception&) {
      // The peer stopped reading mid-stream: nothing left to deliver.
      peer_writable = false;
      connection.cancel.store(true);
    }
    jobs_served_->add(delivered);
    if (delivered < reports.size()) {
      write_failures_->add(reports.size() - delivered);
    }
    served += jobs.size();
    spans.clear();  // emits the JSONL trace lines
    {
      const LockGuard lock(connection.queue_mutex);
      connection.in_flight = 0;
    }
    connection.queue_cv.notify_all();  // the reader may be waiting on room
    if (!peer_writable) break;
  }
  // A parse error ends the connection with one final error frame so the
  // client learns why its later requests were never answered.
  std::string parse_error;
  {
    const LockGuard lock(connection.queue_mutex);
    parse_error = connection.parse_error;
  }
  if (!parse_error.empty() && peer_writable && !connection.cancel.load()) {
    DecodeReport failure;
    failure.index = served;
    failure.error = "protocol error: " + parse_error;
    jobs_failed_->add(1);
    try {
      const LockGuard lock(connection.write_mutex);
      save_report(out, failure);
      out.flush();
      POOLED_REQUIRE(static_cast<bool>(out), "error frame write failed");
    } catch (const std::exception&) {
      // The peer is gone too; jobs_failed_ above still records the job,
      // and the lost frame shows up as a write failure.
      write_failures_->add(1);
    }
  }
  bool drain_owed = false;
  {
    const LockGuard lock(connection.queue_mutex);
    drain_owed = connection.drain_owed;
  }
  bool summary_sent = false;
  if (drain_owed && peer_writable && !connection.cancel.load()) {
    // The summary promises every in-flight job was answered, so wait
    // until every live handler is itself a drain owner (its queue is
    // already flushed by then). Atomics only: taking connections_mutex_
    // here would deadlock against stop(), which joins handlers while
    // holding it.
    drain_owners_active_.fetch_add(1);
    while (handlers_active_.load() > drain_owners_active_.load() &&
           !stop_.load() && !connection.cancel.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    drain_owners_active_.fetch_sub(1);
    DrainSummary summary;
    summary.jobs_served = jobs_served_->value();
    summary.write_failures = write_failures_->value();
    if (options_.on_drain) options_.on_drain(summary);
    try {
      const LockGuard lock(connection.write_mutex);
      save_drain_summary(out, summary);
      out.flush();
      POOLED_REQUIRE(static_cast<bool>(out), "drain summary write failed");
      summary_sent = true;
    } catch (const std::exception&) {
      write_failures_->add(1);
    }
  }
  if (!connection.transport) {
    // A stream has no lever to unblock a reader waiting for input; it
    // stops at the next frame boundary (cancel) or at end of input.
    reader.join();
  } else if (summary_sent) {
    // Lingering close: a router liveness probe racing the drain frame
    // can land after our reader stopped, and close() with those bytes
    // unread makes the kernel RST the connection -- destroying the
    // summary queued just above. Send our FIN, then discard late bytes
    // until the peer reads the summary and closes (bounded wait).
    connection.transport->socket().shutdown_write();
    reader.join();
    connection.transport->socket().discard_until_eof(5.0);
  } else {
    connection.transport->socket().shutdown_both();  // unblocks the reader
    reader.join();
  }
  {
    // Jobs still queued at teardown (cancel path) are never answered;
    // settle the depth gauge and emit their spans as-is.
    const LockGuard lock(connection.queue_mutex);
    queue_gauge_->add(-static_cast<std::int64_t>(connection.queue.size()));
    connection.queue.clear();
  }
  active_gauge_->add(-1);
  handlers_active_.fetch_sub(1);
  connection.done.store(true);
  return served;
}

std::size_t ServeServer::serve(std::istream& in, std::ostream& out) {
  Connection connection(in, out);
  (void)admit();
  const std::size_t served = handle_connection(connection);
  std::string parse_error;
  {
    const LockGuard lock(connection.queue_mutex);
    parse_error = connection.parse_error;
  }
  if (!parse_error.empty()) throw ContractError(parse_error);
  POOLED_REQUIRE(!connection.cancel.load(), "result stream write failed");
  return served;
}

std::size_t serve_stream(std::istream& is, std::ostream& os,
                         const BatchEngine& engine, std::size_t chunk,
                         ProgressStream* progress) {
  ServeServerOptions options;
  options.chunk = chunk;
  options.progress = progress;
  ServeServer server(std::nullopt, engine, options);
  return server.serve(is, os);
}

}  // namespace pooled
