// Socket serve server: concurrent connections, overlapping parse/decode,
// connection reaper, and the v2 seed field end to end.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/result_cache.hpp"
#include "engine/serve_server.hpp"
#include "engine/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"
#include "pipe_streambuf.hpp"

namespace pooled {
namespace {

using std::chrono::steady_clock;

/// Spec-backed job over a fresh teacher instance; truth returned via out.
DecodeJob sample_job(std::uint64_t seed, std::vector<std::uint32_t>* truth_out,
                     const std::string& decoder = "mn", std::uint32_t n = 300,
                     std::uint32_t k = 5, std::uint32_t m = 220) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = n;
  params.seed = seed;
  const Signal truth = Signal::random(n, k, seed ^ 0x51D);
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool);
  job.decoder = decoder;
  job.k = k;
  if (truth_out) truth_out->assign(truth.support().begin(), truth.support().end());
  return job;
}

/// A noisy round-by-round job that can never converge (the estimate
/// cannot explain perturbed observations), so it grinds through rounds
/// until exhausted/cancelled/deadline -- the cancellation test fixture.
DecodeJob long_running_job(std::uint64_t seed) {
  DecodeJob job = sample_job(seed, nullptr, "adaptive:mn:L=1", /*n=*/600,
                             /*k=*/6, /*m=*/600);
  job.noise = NoiseModel::symmetric(0.3, 11);
  return job;
}

ListenSocket loopback_listener() {
  return ListenSocket::bind_and_listen(SocketAddress::parse("127.0.0.1:0"));
}

std::vector<DecodeReport> drain_reports(std::istream& is) {
  std::vector<DecodeReport> reports;
  while (auto report = load_report(is)) reports.push_back(std::move(*report));
  return reports;
}

/// Polls until `predicate` holds; fails the test on timeout.
template <typename Predicate>
void wait_until(Predicate predicate, const char* what,
                double timeout_seconds = 30.0) {
  const auto deadline = steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (!predicate()) {
    ASSERT_LT(steady_clock::now(), deadline) << "timed out waiting for " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(SocketTransport, ParsesAndFormatsAddresses) {
  const SocketAddress tcp = SocketAddress::parse("10.1.2.3:7733");
  EXPECT_EQ(tcp.family, SocketAddress::Family::Tcp);
  EXPECT_EQ(tcp.host, "10.1.2.3");
  EXPECT_EQ(tcp.port, 7733);
  EXPECT_EQ(tcp.to_string(), "10.1.2.3:7733");

  const SocketAddress bare_port = SocketAddress::parse(":8080");
  EXPECT_EQ(bare_port.host, "127.0.0.1");  // loopback default
  EXPECT_EQ(bare_port.port, 8080);

  const SocketAddress unix_addr = SocketAddress::parse("unix:/tmp/pooled.sock");
  EXPECT_EQ(unix_addr.family, SocketAddress::Family::Unix);
  EXPECT_EQ(unix_addr.path, "/tmp/pooled.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/tmp/pooled.sock");

  EXPECT_THROW((void)SocketAddress::parse(""), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("no-port"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("host:99999"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("host:abc"), ContractError);
  EXPECT_THROW((void)SocketAddress::parse("unix:"), ContractError);
}

TEST(SocketTransport, DialFailsWhenNothingListens) {
  // Bind-then-close guarantees the port is allocated but dead.
  SocketAddress address;
  {
    ListenSocket listener = loopback_listener();
    address = listener.local_address();
  }
  EXPECT_THROW((void)Socket::dial(address), ContractError);
}

TEST(SocketTransport, TryDialTimesOutInsteadOfHanging) {
  // A zero-backlog listener that never accepts: once its queue fills,
  // the kernel drops further SYNs and a blocking connect would sit in
  // retransmission for minutes -- the exact hang try_dial exists to
  // bound. (A blackhole IP would be flakier: some sandboxes answer it.)
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in sin = {};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const struct sockaddr*>(&sin),
                   sizeof(sin)),
            0);
  ASSERT_EQ(::listen(fd, 0), 0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&sin), &len),
            0);
  const SocketAddress address = SocketAddress::parse(
      "127.0.0.1:" + std::to_string(ntohs(sin.sin_port)));

  std::vector<Socket> queue_fill;  // completed connects stay open
  bool timed_out = false;
  const Timer timer;
  for (int attempt = 0; attempt < 16 && !timed_out; ++attempt) {
    std::optional<Socket> socket = Socket::try_dial(address, 0.3);
    if (socket.has_value()) {
      queue_fill.push_back(std::move(*socket));
    } else {
      timed_out = true;
    }
  }
  EXPECT_TRUE(timed_out) << "the accept queue never filled";
  EXPECT_LT(timer.seconds(), 30.0);  // bounded, unlike a blocking connect
  ::close(fd);
}

TEST(SocketTransport, TryDialReachesALiveListener) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  // The returned socket must be back in blocking mode: a blocking read
  // on the server side sees the client's bytes, no EAGAIN surprises.
  SocketStream client_stream(std::move(*client));
  SocketStream server_stream(std::move(*served));
  client_stream.out() << "ping\n" << std::flush;
  std::string line;
  std::getline(server_stream.in(), line);
  EXPECT_EQ(line, "ping");
}

TEST(SocketTransport, CleanEofIsNotATransportError) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  SocketStream server_stream(std::move(*served));
  client.reset();  // orderly close: FIN, not RST
  std::string line;
  EXPECT_FALSE(std::getline(server_stream.in(), line));
  EXPECT_TRUE(server_stream.saw_eof());
  EXPECT_EQ(server_stream.read_errno(), 0);
}

TEST(SocketTransport, ResetConnectionReportsReadErrno) {
  ListenSocket listener = loopback_listener();
  std::optional<Socket> client =
      Socket::try_dial(listener.local_address(), 5.0);
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> served = listener.accept(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.has_value());
  SocketStream server_stream(std::move(*served));
  // SO_LINGER{on, 0} turns close() into an abortive RST -- the shape of
  // a crashed peer, as opposed to the clean FIN above.
  const struct linger abort_on_close = {1, 0};
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                         sizeof(abort_on_close)),
            0);
  client.reset();
  std::string line;
  EXPECT_FALSE(std::getline(server_stream.in(), line));
  EXPECT_NE(server_stream.read_errno(), 0);  // ECONNRESET on Linux
  EXPECT_FALSE(server_stream.saw_eof());
}

TEST(SocketTransport, BindRefusesToClobberLiveUnixSocket) {
  const std::string path =
      "/tmp/pooled_bind_guard_" + std::to_string(::getpid()) + ".sock";
  const SocketAddress address = SocketAddress::parse("unix:" + path);
  ListenSocket first = ListenSocket::bind_and_listen(address);
  try {
    ListenSocket second = ListenSocket::bind_and_listen(address);
    FAIL() << "binding over a live unix socket must throw, not clobber it";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should name the contested address: " << e.what();
  }
  // The loser must not have unlinked the winner's socket out from under
  // it: the path still answers.
  EXPECT_TRUE(Socket::try_dial(address, 5.0).has_value());
}

TEST(SocketTransport, StaleUnixSocketFileIsReclaimed) {
  const std::string path =
      "/tmp/pooled_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  // A crashed server's leftovers: a bound socket file nobody listens on.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const struct sockaddr*>(&sun),
                   sizeof(sun)),
            0);
  ::close(fd);  // the file stays behind
  ListenSocket listener =
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path));
  EXPECT_TRUE(listener.valid());
}

TEST(ServeServer, StartsOnEphemeralPortAndStopsCleanly) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  EXPECT_NE(server.address().port, 0);  // the kernel's pick was resolved
  server.start();
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.stats().connections_accepted, 0u);
}

TEST(ServeServer, ServesOneConnectionEndToEnd) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  std::vector<std::uint32_t> truth;
  DecodeJob scored = sample_job(21, &truth);
  scored.truth_support = truth;
  save_job(client.out(), scored);
  DecodeJob seeded = sample_job(21, nullptr, "random");
  seeded.rng_seed = 7;
  save_job(client.out(), seeded);
  client.out().flush();
  client.socket().shutdown_write();  // no more requests

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].index, 0u);
  EXPECT_TRUE(reports[0].exact);
  EXPECT_TRUE(reports[1].ok()) << reports[1].error;
  EXPECT_EQ(reports[1].index, 1u);
  EXPECT_EQ(reports[1].decoder_name, "random-guess");

  // The seed must round-trip through the wire: the same seeded job via
  // the local engine reproduces the socket-served support.
  const DecodeReport local = engine.run_one(seeded);
  EXPECT_EQ(reports[1].support, local.support);

  server.stop();
  const ServeServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.jobs_served, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.connections_reaped, 0u);
}

TEST(ServeServer, ServesConcurrentClientsWithIndependentIndices) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  options.chunk = 2;  // force multiple windows per connection
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        SocketStream client(Socket::dial(server.address()));
        std::vector<std::uint32_t> truth;
        for (int j = 0; j < kJobsPerClient; ++j) {
          DecodeJob job = sample_job(1000 + 10 * c + j, &truth);
          job.truth_support = truth;
          save_job(client.out(), job);
        }
        client.out().flush();
        client.socket().shutdown_write();
        const auto reports = drain_reports(client.in());
        if (reports.size() != kJobsPerClient) {
          failures[c] = "expected " + std::to_string(kJobsPerClient) +
                        " reports, got " + std::to_string(reports.size());
          return;
        }
        for (int j = 0; j < kJobsPerClient; ++j) {
          // Indices are connection-global, independent of other clients.
          if (reports[j].index != static_cast<std::size_t>(j)) {
            failures[c] = "bad index " + std::to_string(reports[j].index);
            return;
          }
          if (!reports[j].ok()) {
            failures[c] = reports[j].error;
            return;
          }
          if (!reports[j].exact) {
            failures[c] = "job " + std::to_string(j) + " not exact";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  server.stop();
  const ServeServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.jobs_served, kClients * kJobsPerClient);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(ServeServer, MixedV1AndV2FramesShareOneConnection) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  std::vector<std::uint32_t> truth;
  const DecodeJob job = sample_job(31, &truth);
  // Hand-written v1 frame (the PR-2 format) followed by a v2 frame with
  // v2-only options: version negotiation is per frame.
  std::ostringstream v1_frame;
  v1_frame << "pooled-job v1\ndecoder mn\nk " << job.k << "\ninstance\n";
  save_instance(v1_frame, *job.spec);
  v1_frame << "end\n";

  SocketStream client(Socket::dial(server.address()));
  client.out() << v1_frame.str();
  DecodeJob v2_job = job;
  v2_job.decoder = "adaptive:mn:L=16";
  v2_job.rounds = 12;
  save_job(client.out(), v2_job);
  client.out().flush();
  client.socket().shutdown_write();

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].decoder_name, "mn");
  EXPECT_TRUE(reports[1].ok()) << reports[1].error;
  EXPECT_EQ(reports[1].decoder_name, "adaptive-mn-L16");
  EXPECT_GE(reports[1].rounds, 1u);
  // Same instance, same estimate, either protocol version.
  EXPECT_EQ(reports[0].support, reports[1].support);
  server.stop();
}

TEST(ServeServer, RejectsV2FieldsInsideV1FramesWithAnErrorFrame) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  {
    SocketStream client(Socket::dial(server.address()));
    // `seed` is v2-only: inside a v1 frame the parse must fail loudly
    // and come back as the connection's final error frame.
    client.out() << "pooled-job v1\ndecoder random\nk 4\nseed 7\n";
    client.out().flush();
    client.socket().shutdown_write();
    const auto reports = drain_reports(client.in());
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_FALSE(reports[0].ok());
    EXPECT_NE(reports[0].error.find("protocol error"), std::string::npos)
        << reports[0].error;
    EXPECT_NE(reports[0].error.find("v2"), std::string::npos)
        << reports[0].error;
  }

  // The parse error poisoned one connection, not the server.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(32, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;

  server.stop();
  EXPECT_GE(server.stats().jobs_failed, 1u);
}

TEST(ServeServer, ClientDisconnectMidDecodeCancelsInFlightJobs) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  options.probe_seconds = 0.02;  // detect the drop fast
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  {
    // Send a long noisy round-by-round decode, then vanish without
    // reading anything -- the abandoned-client scenario.
    SocketStream client(Socket::dial(server.address()));
    save_job(client.out(), long_running_job(41));
    client.out().flush();
  }  // full close, no shutdown_write handshake

  // The dead peer must be noticed and the connection's cancel token
  // flipped; the in-flight adaptive decode then stops at its next round
  // boundary instead of grinding through 600 rounds. Two detection
  // paths race, both valid: the reaper's probe write fails (reaped), or
  // that same probe provokes an RST that fails the reader's recv first
  // (errored). Which one wins is pure scheduling -- under TSan the
  // reader regularly loses its clean EOF to the probe's RST.
  wait_until([&] { return server.stats().jobs_cancelled >= 1; },
             "the in-flight decode to be cancelled");
  EXPECT_GE(server.stats().connections_reaped +
                server.stats().connections_errored,
            1u);

  // The workers are back: a live client is served promptly.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(42, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;

  // The observability snapshot agrees with the raw counters: the reaped
  // connection and the cancelled (still-delivered-or-dropped) job are
  // visible to a stats consumer, and nothing counted as a clean failure.
  const MetricsSnapshot snapshot = server.build_snapshot();
  EXPECT_GE(snapshot.counter_value("serve.connections_reaped") +
                snapshot.counter_value("serve.connections_errored"),
            1u);
  EXPECT_GE(snapshot.counter_value("serve.jobs_cancelled"), 1u);
  EXPECT_EQ(snapshot.counter_value("serve.jobs_failed"), 0u);
  // `next` may or may not have finished winding down by now, so only the
  // gauge's bounds are deterministic, not its instantaneous value.
  const MetricValue* active = snapshot.find("serve.connections_active");
  ASSERT_NE(active, nullptr);
  EXPECT_GE(active->value, 0);
  EXPECT_LE(active->value, 1);
  EXPECT_GE(active->peak, 1);

  server.stop();  // must not hang on the torn-down connection
}

TEST(ServeServer, ResetPeerCountsAsErroredNotCleanHalfClose) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  {
    // Send a long decode, then RST (a crashed client, not an orderly
    // half-close). The reader must see the transport error, cancel the
    // connection's queued work, and count it as errored.
    SocketStream client(Socket::dial(server.address()));
    save_job(client.out(), long_running_job(43));
    client.out().flush();
    const struct linger abort_on_close = {1, 0};
    ::setsockopt(client.socket().fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
  }  // close -> RST

  wait_until([&] { return server.stats().connections_errored >= 1; },
             "errored-connection accounting");
  EXPECT_GE(server.build_snapshot().counter_value("serve.connections_errored"),
            1u);

  // A clean half-close stays a clean half-close: served, not errored.
  SocketStream next(Socket::dial(server.address()));
  save_job(next.out(), sample_job(44, nullptr));
  next.out().flush();
  next.socket().shutdown_write();
  const auto reports = drain_reports(next.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(server.stats().connections_errored, 1u);
  server.stop();
}

TEST(ServeServer, StatsFrameAnswersUnderConcurrentLoad) {
  ThreadPool pool(4);
  MetricsRegistry registry;
  ResultCache cache(64);
  EngineOptions engine_options;
  engine_options.cache = &cache;
  engine_options.metrics = &registry;
  const BatchEngine engine(pool, engine_options);
  ServeServerOptions options;
  options.metrics = &registry;
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  // Three closed-loop clients, each sending the same spec repeatedly
  // (so the cache engages) while the main thread fires stats frames.
  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 8;
  std::atomic<int> jobs_done{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SocketStream stream(Socket::dial(server.address()));
      for (int j = 0; j < kJobsPerClient; ++j) {
        save_job(stream.out(), sample_job(70 + c % 2, nullptr));
        stream.out().flush();
        const auto report = load_report(stream.in());
        ASSERT_TRUE(report.has_value());
        EXPECT_TRUE(report->ok()) << report->error;
        jobs_done.fetch_add(1);
      }
      stream.socket().shutdown_write();
      (void)drain_reports(stream.in());
    });
  }

  // A separate connection interrogates the server mid-load. The answer
  // must parse, reconcile with completed work (monotonic counters can
  // only trail jobs_done, never exceed what clients observed + inflight)
  // and never consume a job index on the probing connection.
  wait_until([&] { return jobs_done.load() >= kClients; },
             "the first window of jobs");
  SocketStream probe(Socket::dial(server.address()));
  save_stats_request(probe.out());
  probe.out().flush();
  const auto midload = load_stats_snapshot(probe.in());
  ASSERT_TRUE(midload.has_value());
  EXPECT_GE(midload->counter_value("serve.jobs_served"), 1u);
  EXPECT_GE(midload->gauge_value("serve.connections_active"), 1);
  EXPECT_NE(midload->find("serve.job_seconds"), nullptr);
  EXPECT_NE(midload->find("build.kernels"), nullptr);

  for (std::thread& client : clients) client.join();

  // A second frame on the same probing connection: the final snapshot
  // reconciles exactly with the work the clients drove.
  save_stats_request(probe.out());
  probe.out().flush();
  const auto final_snapshot = load_stats_snapshot(probe.in());
  ASSERT_TRUE(final_snapshot.has_value());
  EXPECT_EQ(final_snapshot->counter_value("serve.jobs_served"),
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
  EXPECT_EQ(final_snapshot->counter_value("serve.jobs_failed"), 0u);
  EXPECT_EQ(final_snapshot->counter_value("serve.write_failures"), 0u);
  const CacheStats cache_stats = cache.stats();
  EXPECT_EQ(final_snapshot->counter_value("cache.hits"), cache_stats.hits);
  EXPECT_GE(cache_stats.hits, 1u);  // repeated specs really did hit
  EXPECT_EQ(final_snapshot->counter_value("engine.jobs_completed"),
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
  probe.socket().shutdown_write();
  server.stop();
  EXPECT_EQ(server.stats().jobs_served,
            static_cast<std::uint64_t>(kClients) * kJobsPerClient);
}

TEST(ServeServer, LostPeerCountsWriteFailuresNotServedJobs) {
  const std::string path =
      "/tmp/pooled_serve_wf_" + std::to_string(::getpid()) + ".sock";
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  // Keep the reaper out of the race: the peer vanishes *after* sending a
  // complete job, and we want the result write (not a probe) to trip on
  // the dead socket so the write_failures path is what gets exercised.
  options.probe_seconds = 10.0;
  ServeServer server(
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path)),
      engine, options);
  server.start();

  {
    SocketStream client(Socket::dial(SocketAddress::parse("unix:" + path)));
    save_job(client.out(), sample_job(81, nullptr));
    client.out().flush();
  }  // full close: the result frame has nowhere to go

  wait_until([&] { return server.stats().write_failures >= 1; },
             "the result write to fail");
  const ServeServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_served, 0u);  // a dropped frame is not "served"
  server.stop();
}

TEST(ServeServer, DeadlineExpiredJobReportsStopDeadline) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  DecodeJob job = long_running_job(43);
  job.deadline_seconds = 0.1;  // far below the full decode's wall time
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();

  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_EQ(reports[0].stop, StopReason::Deadline);
  EXPECT_LT(reports[0].rounds, 600u);  // it really stopped early
  server.stop();
}

TEST(ServeServer, ServesOverUnixDomainSockets) {
  const std::string path =
      "/tmp/pooled_serve_test_" + std::to_string(::getpid()) + ".sock";
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServer server(
      ListenSocket::bind_and_listen(SocketAddress::parse("unix:" + path)),
      engine);
  server.start();

  SocketStream client(Socket::dial(SocketAddress::parse("unix:" + path)));
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(51, &truth);
  job.truth_support = truth;
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();
  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  EXPECT_TRUE(reports[0].exact);
  server.stop();
}

TEST(ServeServer, ProgressSinkEmitsUnderTheSocketServer) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::ostringstream progress_lines;
  ProgressStream progress(progress_lines);
  ServeServerOptions options;
  options.progress = &progress;
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  SocketStream client(Socket::dial(server.address()));
  DecodeJob job = sample_job(61, nullptr, "adaptive:mn:L=16");
  save_job(client.out(), job);
  client.out().flush();
  client.socket().shutdown_write();
  const auto reports = drain_reports(client.in());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok()) << reports[0].error;
  server.stop();

  // One line per round, tagged with the connection serial and the
  // connection-global job index (bare job indices would collide across
  // concurrent clients, which all number from zero).
  const std::string text = progress_lines.str();
  EXPECT_NE(text.find("progress conn=1 job=0 round=1 queries=16"),
            std::string::npos)
      << text;
}

TEST(ServeServer, DrainAnswersInFlightJobsThenSendsTheSummary) {
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  std::atomic<int> snapshots{0};
  options.on_drain = [&](DrainSummary& summary) {
    summary.cache_entries = 17;
    summary.snapshot_written = true;
    snapshots.fetch_add(1);
  };
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  // Jobs first, the drain frame after: both must be answered, results
  // before the summary.
  SocketStream client(Socket::dial(server.address()));
  std::vector<std::uint32_t> truth;
  DecodeJob job = sample_job(77, &truth);
  job.truth_support = truth;
  save_job(client.out(), job);
  save_job(client.out(), sample_job(78, nullptr, "random"));
  save_drain_request(client.out());
  client.out().flush();

  std::optional<DecodeReport> first = load_report(client.in());
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok()) << first->error;
  EXPECT_EQ(first->index, 0u);
  std::optional<DecodeReport> second = load_report(client.in());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->index, 1u);

  const std::optional<DrainSummary> summary =
      load_drain_summary(client.in());
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->jobs_served, 2u);
  EXPECT_EQ(summary->cache_entries, 17u);  // on_drain's edit round-trips
  EXPECT_TRUE(summary->snapshot_written);
  EXPECT_EQ(summary->write_failures, 0u);
  EXPECT_EQ(snapshots.load(), 1);
  EXPECT_TRUE(server.draining());

  // The summary is the connection's last frame.
  EXPECT_FALSE(load_report(client.in()).has_value());

  // A draining server refuses new connections: the handshake may still
  // complete (the kernel accepts before the server refuses), but the
  // connection closes without ever serving a job.
  wait_until([&] { return server.stats().active_connections == 0; },
             "drain to quiesce");
  SocketStream late(Socket::dial(server.address()));
  save_job(late.out(), sample_job(79, nullptr, "random"));
  late.out().flush();
  late.socket().shutdown_write();
  EXPECT_TRUE(drain_reports(late.in()).empty());

  server.stop();
  EXPECT_EQ(server.stats().jobs_served, 2u);
}

TEST(ServeServer, BeginDrainWithoutAConnectionQuiescesTheServer) {
  // The SIGTERM path: no drain frame, no summary owed -- the flag flips
  // and live connections (none here) are swept.
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  ServeServer server(loopback_listener(), engine);
  server.start();
  EXPECT_FALSE(server.draining());
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  wait_until([&] { return server.stats().active_connections == 0; },
             "idle server to quiesce");
  server.stop();
}

TEST(ServeServer, HugeWindowIsClampedToTheJobWindowLimit) {
  // `serve --listen --batch <huge>`: a slow first job holds the handler
  // while more than a window of tiny frames arrives, and the connection
  // must still hold no more than limits::kMaxJobsPerWindow parsed jobs.
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  ServeServerOptions options;
  options.chunk = std::numeric_limits<std::size_t>::max();
  ServeServer server(loopback_listener(), engine, options);
  server.start();

  // long_running_job's grind, on an instance big enough that the
  // deadline, not the round budget, ends it.
  DecodeJob slow = sample_job(44, nullptr, "adaptive:mn:L=1", /*n=*/3000,
                              /*k=*/6, /*m=*/3000);
  slow.noise = NoiseModel::symmetric(0.3, 11);
  slow.deadline_seconds = 2.0;
  std::ostringstream frames;
  save_job(frames, slow);
  std::ostringstream tiny;
  save_job(tiny, sample_job(45, nullptr, "mn", /*n=*/40, /*k=*/2, /*m=*/30));
  const std::size_t tiny_jobs = limits::kMaxJobsPerWindow + 1024;
  for (std::size_t j = 0; j < tiny_jobs; ++j) frames << tiny.str();

  SocketStream client(Socket::dial(server.address()));
  // Written from a second thread: once the server holds a window it
  // stops reading until the results it writes back are read here.
  std::thread writer([&] {
    client.out() << frames.str();
    client.out().flush();
    client.socket().shutdown_write();
  });
  const auto reports = drain_reports(client.in());
  writer.join();
  ASSERT_EQ(reports.size(), tiny_jobs + 1);
  EXPECT_EQ(reports[0].stop, StopReason::Deadline);
  for (const DecodeReport& report : reports) {
    EXPECT_TRUE(report.ok()) << report.error;
  }
  const MetricsSnapshot snapshot = server.build_snapshot();
  const MetricValue* depth = snapshot.find("serve.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->peak, 1);
  EXPECT_LE(depth->peak, static_cast<std::int64_t>(limits::kMaxJobsPerWindow));
  server.stop();
}

TEST(ServeStream, AnswersAnInteractiveClientBeforeEndOfInput) {
  // A client writes one job into a pipe and waits for the answer with
  // its write end still open: the window must start because no more
  // input is ready, not wait for a full window or end of input.
  int requests[2];
  int responses[2];
  ASSERT_EQ(::pipe(requests), 0);
  ASSERT_EQ(::pipe(responses), 0);
  ThreadPool pool(2);
  const BatchEngine engine(pool);
  std::size_t served = 0;
  std::thread serving([&] {
    PipeStreambuf in_buffer(requests[0]);
    PipeStreambuf out_buffer(responses[1]);
    std::istream in(&in_buffer);
    std::ostream out(&out_buffer);
    served = serve_stream(in, out, engine);
    ::close(responses[1]);
  });
  std::ostringstream frame;
  save_job(frame, sample_job(91, nullptr));
  const std::string bytes = frame.str();
  ASSERT_EQ(::write(requests[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));

  // Collect one whole result frame, for at most 10 s.
  const std::string answer =
      read_one_frame(responses[0], std::chrono::seconds(10));
  ::close(requests[1]);  // end of input: the server returns either way
  serving.join();
  ::close(requests[0]);
  ::close(responses[0]);

  std::istringstream result_stream(answer);
  const auto report = load_report(result_stream);
  ASSERT_TRUE(report.has_value()) << "no result frame before end of input";
  EXPECT_TRUE(report->ok()) << report->error;
  EXPECT_EQ(served, 1u);
}

TEST(ServeStream, StatsFrameCarriesTheSocketMetricNames) {
  // Stream serve and socket connections share one pipeline, so a stats
  // answer names the same metrics on either transport.
  ThreadPool pool(1);
  const BatchEngine engine(pool);
  std::stringstream requests;
  save_job(requests, sample_job(93, nullptr));
  save_stats_request(requests);
  std::stringstream responses;
  EXPECT_EQ(serve_stream(requests, responses, engine), 1u);
  std::optional<MetricsSnapshot> stream_stats;
  while (auto response = load_response(responses)) {
    if (auto* snapshot = std::get_if<MetricsSnapshot>(&*response)) {
      stream_stats = *snapshot;
    }
  }
  ASSERT_TRUE(stream_stats.has_value());

  ServeServer server(loopback_listener(), engine);
  server.start();
  SocketStream client(Socket::dial(server.address()));
  save_stats_request(client.out());
  client.out().flush();
  client.socket().shutdown_write();
  const std::optional<MetricsSnapshot> socket_stats =
      load_stats_snapshot(client.in());
  ASSERT_TRUE(socket_stats.has_value());
  server.stop();

  const auto names = [](const MetricsSnapshot& snapshot) {
    std::set<std::string> out;
    for (const MetricValue& value : snapshot.values) out.insert(value.name);
    return out;
  };
  EXPECT_EQ(names(*stream_stats), names(*socket_stats));
  for (const char* name : {"serve.queue_depth", "serve.job_seconds",
                           "serve.jobs_failed", "drain.requests",
                           "drain.draining"}) {
    EXPECT_NE(stream_stats->find(name), nullptr) << name;
  }
}

TEST(ServeServer, StatsFrameNamesEachMetricOnceOverStreamAndSocket) {
  // One registry for the server and its engine, plus a cache: every
  // source of the frame is present, and no name may come from two.
  ThreadPool pool(1);
  MetricsRegistry registry;
  ResultCache cache(8);
  EngineOptions engine_options;
  engine_options.cache = &cache;
  engine_options.metrics = &registry;
  const BatchEngine engine(pool, engine_options);
  ServeServerOptions options;
  options.metrics = &registry;
  ServeServer server(loopback_listener(), engine, options);

  std::stringstream requests;
  save_job(requests, sample_job(95, nullptr));
  save_stats_request(requests);
  std::stringstream responses;
  EXPECT_EQ(server.serve(requests, responses), 1u);
  std::optional<MetricsSnapshot> stream_stats;
  while (auto response = load_response(responses)) {
    if (auto* snapshot = std::get_if<MetricsSnapshot>(&*response)) {
      stream_stats = *snapshot;
    }
  }
  ASSERT_TRUE(stream_stats.has_value());

  server.start();
  SocketStream client(Socket::dial(server.address()));
  save_stats_request(client.out());
  client.out().flush();
  client.socket().shutdown_write();
  const std::optional<MetricsSnapshot> socket_stats =
      load_stats_snapshot(client.in());
  ASSERT_TRUE(socket_stats.has_value());
  server.stop();

  using Kind = MetricKind;
  const std::map<std::string, Kind> expected = {
      {"serve.connections_accepted", Kind::Counter},
      {"serve.connections_active", Kind::Gauge},
      {"serve.connections_reaped", Kind::Counter},
      {"serve.connections_errored", Kind::Counter},
      {"serve.jobs_served", Kind::Counter},
      {"serve.jobs_cancelled", Kind::Counter},
      {"serve.jobs_failed", Kind::Counter},
      {"serve.write_failures", Kind::Counter},
      {"serve.queue_depth", Kind::Gauge},
      {"serve.job_seconds", Kind::Histogram},
      {"drain.requests", Kind::Counter},
      {"drain.draining", Kind::Gauge},
      {"cache.hits", Kind::Counter},
      {"cache.misses", Kind::Counter},
      {"cache.insertions", Kind::Counter},
      {"cache.evictions", Kind::Counter},
      {"cache.snapshot_writes", Kind::Counter},
      {"cache.snapshot_restores", Kind::Counter},
      {"cache.snapshot_rejected", Kind::Counter},
      {"cache.snapshot_failures", Kind::Counter},
      {"cache.size", Kind::Gauge},
      {"cache.capacity", Kind::Gauge},
      {"arena.live_bytes", Kind::Gauge},
      {"build.kernels", Kind::Label},
      {"engine.jobs_completed", Kind::Counter},
      {"engine.jobs_failed", Kind::Counter},
      {"engine.build_seconds", Kind::Histogram},
      {"engine.decode_seconds", Kind::Histogram},
      {"engine.verify_seconds", Kind::Histogram},
  };
  for (const MetricsSnapshot& snapshot : {*stream_stats, *socket_stats}) {
    std::map<std::string, Kind> seen;
    for (const MetricValue& value : snapshot.values) {
      EXPECT_TRUE(seen.emplace(value.name, value.kind).second)
          << value.name << " repeats";
    }
    EXPECT_EQ(seen, expected);
  }
  // The socket frame comes after serve() returned: it counts the stream's
  // job through the one registry both share.
  EXPECT_EQ(socket_stats->counter_value("serve.jobs_served"), 1u);
  EXPECT_EQ(socket_stats->counter_value("engine.jobs_completed"), 1u);
}

}  // namespace
}  // namespace pooled
