// perfbench_tool: the compiled half of the repository benchmark.
//
//   perfbench_tool gen    --workload W --seed S --dir D [--conns N]
//       Draws the workload's job frames, request schedule and reference
//       results from the seed. The reference comes from the in-process
//       BatchEngine::run_one with the scalar kernel tier forced.
//   perfbench_tool load   --dir D --mode pipe|socket|open [...]
//       The load generator: drives a running pooled_cli serve/route
//       fleet with the generated frames, checks every result against the
//       reference, and prints one JSON summary line.
//   perfbench_tool replay --dir D --shape tasks|threads --lanes L [...]
//       Sends one cycle of the same requests through each layer's public
//       function in pipeline order, with a span around every call, and
//       prints per-layer self times, per-size totals and the split over
//       lanes as one JSON line.
//
// run.py (same directory) orchestrates these; see README.md for the
// workloads and the metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/serialize.hpp"
#include "core/signal.hpp"
#include "core/thresholds.hpp"
#include "engine/batch_engine.hpp"
#include "engine/protocol.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "kernels/kernel_set.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"

namespace {

using namespace pooled;
using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(2);
}

// -- command line ---------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) die("expected --flag, got " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) die("missing --" + key);
    return fallback;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// -- deterministic randomness ---------------------------------------------
// pooled::SplitMix64 with the library's own distributions, so a seed draws
// the same workload on every standard library (std:: distributions are
// implementation-defined).

/// FNV-1a 64: a fixed hash, unlike std::hash. It mixes workload names into
/// seeds, and it is the hash the router folds an instance digest with.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// -- workload files --------------------------------------------------------
// frames.txt     every distinct job frame, in frame-id order
// requests.txt   "<phase> <conn> <due_us> <frame>" per request; phase w =
//                prewarm (before measurement), m = measured
// reference.txt  "<frame> <consistent> <scored> <exact> <support...>"

struct Request {
  char phase = 'm';
  std::uint32_t conn = 0;
  std::uint64_t due_us = 0;
  std::uint32_t frame = 0;
};

struct Reference {
  bool consistent = false;
  bool scored = false;
  bool exact = false;
  std::vector<std::uint32_t> support;
};

std::string path_in(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

std::vector<std::string> read_frames(const std::string& dir) {
  std::ifstream is(path_in(dir, "frames.txt"));
  if (!is) die("cannot read frames.txt in " + dir);
  std::vector<std::string> frames;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("pooled-job ", 0) == 0) frames.emplace_back();
    if (frames.empty()) die("frames.txt does not start with a job frame");
    frames.back() += line;
    frames.back() += '\n';
  }
  return frames;
}

std::vector<Request> read_requests(const std::string& dir) {
  std::ifstream is(path_in(dir, "requests.txt"));
  if (!is) die("cannot read requests.txt in " + dir);
  std::vector<Request> requests;
  Request r;
  while (is >> r.phase >> r.conn >> r.due_us >> r.frame) requests.push_back(r);
  return requests;
}

std::vector<Reference> read_reference(const std::string& dir) {
  std::ifstream is(path_in(dir, "reference.txt"));
  if (!is) die("cannot read reference.txt in " + dir);
  std::vector<Reference> refs;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream fields(line);
    std::size_t id = 0;
    int consistent = 0, scored = 0, exact = 0;
    fields >> id >> consistent >> scored >> exact;
    if (id != refs.size()) die("reference.txt is out of order");
    Reference ref;
    ref.consistent = consistent != 0;
    ref.scored = scored != 0;
    ref.exact = exact != 0;
    std::uint32_t index = 0;
    while (fields >> index) ref.support.push_back(index);
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// The checks every served or replayed result must pass: the same
/// support, consistency and scoring bits as the scalar-tier reference.
bool matches(const DecodeReport& report, const Reference& ref) {
  return report.ok() && report.support == ref.support &&
         report.consistent == ref.consistent && report.scored == ref.scored &&
         report.exact == ref.exact;
}

// -- gen -------------------------------------------------------------------

struct FrameDraw {
  std::uint32_t n = 0;
  double m_factor = 1.0;  ///< m as a multiple of m_MN(finite)
};

DecodeJob draw_job(const FrameDraw& draw, SplitMix64& rng, ThreadPool& pool) {
  const std::uint32_t k = thresholds::k_of(draw.n, 0.3);
  const double m_star =
      thresholds::m_mn_finite(draw.n, std::max<std::uint32_t>(k, 2));
  const auto m = static_cast<std::uint32_t>(std::lround(draw.m_factor * m_star));
  const Signal truth = Signal::random(draw.n, k, rng());
  DesignParams params;
  params.n = draw.n;
  params.seed = rng();
  DecodeJob job;
  job.spec = simulate_spec(DesignKind::RandomRegular, params, m, truth, pool);
  job.decoder = "mn";
  job.k = k;
  job.truth_support =
      std::vector<std::uint32_t>(truth.support().begin(), truth.support().end());
  return job;
}

int cmd_gen(const Args& args) {
  const std::string workload = args.str("workload");
  const std::string dir = args.str("dir");
  SplitMix64 rng(static_cast<std::uint64_t>(args.num("seed", 1)) *
                     0x2545F4914F6CDD1Dull +
                 fnv1a(workload));
  ThreadPool pool;
  std::vector<FrameDraw> draws;
  std::vector<Request> requests;

  if (workload == "batch_cold") {
    // Distinct n=5000 jobs sweeping m across the MN threshold, in a
    // seeded order; a fresh serve process per cycle keeps every one cold.
    constexpr std::uint32_t jobs = 480;  // 30 windows of serve --batch 16
    for (std::uint32_t i = 0; i < jobs; ++i) {
      draws.push_back({5000, 0.8 + 0.8 * (i + uniform_real(rng)) / jobs});
    }
    std::vector<std::uint32_t> order(jobs);
    std::iota(order.begin(), order.end(), 0u);
    shuffle(rng, order);
    for (std::uint32_t frame : order) requests.push_back({'m', 0, 0, frame});
  } else if (workload == "socket_hot") {
    // A prewarmed hot pool plus fresh unique specs, in a fixed share per
    // connection: every hot request hits and every fresh one misses.
    const auto conns = static_cast<std::uint32_t>(args.num("conns", 4));
    constexpr std::uint32_t per_conn = 10000;
    constexpr std::uint32_t hot = 64;
    constexpr double hot_share = 0.95;
    for (std::uint32_t i = 0; i < hot; ++i) {
      draws.push_back({200, 2.2 + 0.6 * uniform_real(rng)});
      requests.push_back({'w', 0, 0, i});
    }
    const auto hot_per_conn =
        static_cast<std::uint32_t>(std::lround(hot_share * per_conn));
    for (std::uint32_t c = 0; c < conns; ++c) {
      std::vector<std::uint32_t> slots;
      for (std::uint32_t j = 0; j < per_conn; ++j) {
        if (j < hot_per_conn) {
          slots.push_back(static_cast<std::uint32_t>(uniform_index(rng, hot)));
        } else {
          slots.push_back(static_cast<std::uint32_t>(draws.size()));
          draws.push_back({200, 2.2 + 0.6 * uniform_real(rng)});
        }
      }
      shuffle(rng, slots);
      for (std::uint32_t frame : slots) requests.push_back({'m', c, 0, frame});
    }
  } else if (workload == "routed_mixed") {
    // Open-loop Poisson arrivals (a Poisson process conditioned on its
    // count: sorted uniform times over the span), mixed sizes, half Zipf
    // repeats from a shared pool, half fresh. Shares are stratified, not
    // drawn, so every seed offers the same mix of work.
    //
    // No recorded traffic stands behind this mix. The rate was checked
    // against the fleet's measured capacity; the size split, the Zipf
    // exponent, the pool size, the rank-size pattern and the m range are
    // assumptions that fill in "mostly small, about half repeats". The
    // traced run reports the CPU share each size takes (README.md).
    constexpr double rate = 300;  // about 40% of the 2-shard fleet's capacity
    constexpr double span_s = 8.0;
    constexpr std::uint32_t pool_size = 48;
    const auto requests_total =
        static_cast<std::uint32_t>(std::lround(rate * span_s));
    const auto stratified_sizes = [&rng](std::uint32_t count) {
      std::vector<std::uint32_t> sizes(count, 200u);
      const auto large = static_cast<std::uint32_t>(std::lround(0.08 * count));
      const auto medium = static_cast<std::uint32_t>(std::lround(0.22 * count));
      std::fill_n(sizes.begin(), large, 5000u);
      std::fill_n(sizes.begin() + large, medium, 1000u);
      shuffle(rng, sizes);
      return sizes;
    };
    // The pool's sizes follow its popularity ranks in a fixed pattern
    // (8% n=5000, 24% n=1000), so no seed makes a large spec the hot one.
    constexpr std::string_view kRankSizes = "SMSSLSMSSSMSSSMSLSSMSSSSM";
    for (std::uint32_t r = 0; r < pool_size; ++r) {
      const char size = kRankSizes[r % kRankSizes.size()];
      draws.push_back(
          {size == 'L' ? 5000u : (size == 'M' ? 1000u : 200u), 1.6 + 0.6 * uniform_real(rng)});
    }
    std::vector<double> zipf(pool_size);
    double total = 0.0;
    for (std::uint32_t r = 0; r < pool_size; ++r) {
      total += 1.0 / std::pow(r + 1.0, 1.1);
      zipf[r] = total;
    }
    std::vector<char> repeat(requests_total, 0);
    std::fill_n(repeat.begin(), requests_total / 2, 1);
    shuffle(rng, repeat);
    const std::vector<std::uint32_t> fresh_sizes =
        stratified_sizes(requests_total - requests_total / 2);
    std::vector<double> due(requests_total);
    for (double& t : due) t = uniform_real(rng) * span_s;
    std::sort(due.begin(), due.end());
    std::size_t fresh = 0;
    for (std::uint32_t j = 0; j < requests_total; ++j) {
      std::uint32_t frame = 0;
      if (repeat[j]) {
        const double u = uniform_real(rng) * total;
        frame = static_cast<std::uint32_t>(
            std::lower_bound(zipf.begin(), zipf.end(), u) - zipf.begin());
      } else {
        frame = static_cast<std::uint32_t>(draws.size());
        draws.push_back({fresh_sizes[fresh++], 1.6 + 0.6 * uniform_real(rng)});
      }
      requests.push_back(
          {'m', 0, static_cast<std::uint64_t>(std::llround(due[j] * 1e6)), frame});
    }
  } else {
    die("unknown workload '" + workload + "'");
  }

  // Frames first (the draws consume the seed in a fixed order), then the
  // reference: each frame is parsed back exactly as a server would see it
  // and decoded on the scalar kernel tier.
  std::vector<std::string> frames;
  frames.reserve(draws.size());
  for (const FrameDraw& draw : draws) {
    std::ostringstream os;
    save_job(os, draw_job(draw, rng, pool));
    frames.push_back(os.str());
  }
  const KernelSet* scalar = kernels_for(KernelIsa::Scalar);
  if (scalar == nullptr) die("scalar kernel tier unavailable");
  set_active_kernels(*scalar);
  const BatchEngine engine(pool);
  std::vector<DecodeReport> reports(frames.size());
  pool.run_tasks(frames.size(), [&](std::size_t i) {
    std::istringstream is(frames[i]);
    std::optional<DecodeJob> job = load_job(is);
    if (!job) die("generated frame does not parse");
    reports[i] = engine.run_one(*job, i);
  });

  std::ofstream frames_os(path_in(dir, "frames.txt"));
  for (const std::string& frame : frames) frames_os << frame;
  std::ofstream requests_os(path_in(dir, "requests.txt"));
  for (const Request& r : requests) {
    requests_os << r.phase << ' ' << r.conn << ' ' << r.due_us << ' ' << r.frame
                << '\n';
  }
  std::ofstream reference_os(path_in(dir, "reference.txt"));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DecodeReport& report = reports[i];
    if (!report.ok()) die("reference decode failed: " + report.error);
    reference_os << i << ' ' << report.consistent << ' ' << report.scored << ' '
                 << report.exact;
    for (std::uint32_t s : report.support) reference_os << ' ' << s;
    reference_os << '\n';
  }
  if (!frames_os || !requests_os || !reference_os) die("cannot write " + dir);
  std::printf("{\"frames\": %zu, \"requests\": %zu}\n", frames.size(),
              requests.size());
  return 0;
}

// -- transport helpers -------------------------------------------------------

/// Unbuffered-fd istream source for the protocol's frame readers.
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t got = 0;
    do {
      got = ::read(fd_, buffer_, sizeof buffer_);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  char buffer_[1 << 16];
};

/// Writes all of `data` to a pipe or socket (SIGPIPE is ignored, so a
/// vanished peer shows up as a failed write).
bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t wrote = ::write(fd, data.data() + done, data.size() - done);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

int dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    die("connect to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::uint64_t cpu_ticks(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 0; i < 11; ++i) fields >> skip;
  std::uint64_t utime = 0, stime = 0;
  fields >> utime >> stime;
  return utime + stime;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

std::vector<int> parse_pids(const std::string& list) {
  std::vector<int> pids;
  std::istringstream is(list);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) pids.push_back(std::stoi(item));
  }
  return pids;
}

// -- load ----------------------------------------------------------------------

/// One measured request as the client saw it (times in seconds since the
/// measurement started).
struct Record {
  std::uint32_t frame = 0;
  double due = 0.0;
  double send_start = 0.0;
  double send_end = 0.0;
  double recv = -1.0;  ///< < 0 until the result arrives
  double served_seconds = 0.0;
  bool ok = false;
  bool exact = false;
  bool scored = false;
};

struct Verdicts {
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> out_of_order{0};
};

class LoadRun {
 public:
  LoadRun(const Args& args)
      : dir_(args.str("dir")),
        frames_(read_frames(dir_)),
        requests_(read_requests(dir_)),
        refs_(read_reference(dir_)) {
    if (refs_.size() != frames_.size()) die("reference/frames size mismatch");
  }

  /// Checks one result against the reference for `frame`, expecting
  /// stream index `index`; fills the record when given one. Returns
  /// whether the result passed.
  bool check(const DecodeReport& report, std::uint32_t frame, std::size_t index,
             Record* record) {
    if (!report.ok()) {
      verdicts_.errors.fetch_add(1);
    } else if (!matches(report, refs_[frame])) {
      verdicts_.mismatches.fetch_add(1);
    }
    if (report.index != index) verdicts_.out_of_order.fetch_add(1);
    const bool ok = matches(report, refs_[frame]) && report.index == index;
    if (record != nullptr) {
      record->ok = ok;
      record->served_seconds = report.seconds;
      record->exact = report.exact;
      record->scored = report.scored;
    }
    return ok;
  }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Reads responses until a job report arrives; a stats frame on the
  /// way is kept in `stats_`. Returns nullopt at end of stream.
  std::optional<DecodeReport> next_report(std::istream& in) {
    while (true) {
      std::optional<ServeResponse> response;
      try {
        response = load_response(in);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_tool: bad response: %s\n", e.what());
        return std::nullopt;
      }
      if (!response) return std::nullopt;
      if (auto* report = std::get_if<DecodeReport>(&*response)) {
        return std::move(*report);
      }
      if (auto* snapshot = std::get_if<MetricsSnapshot>(&*response)) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_ = std::move(*snapshot);
        continue;
      }
      return std::nullopt;  // drain summary: not expected here
    }
  }

  /// Reads responses until the stats answer arrives (kept in `stats_`).
  void await_stats(std::istream& in) {
    while (true) {
      std::optional<ServeResponse> response;
      try {
        response = load_response(in);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_tool: bad response: %s\n", e.what());
        return;
      }
      if (!response) return;
      if (auto* snapshot = std::get_if<MetricsSnapshot>(&*response)) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_ = std::move(*snapshot);
        return;
      }
      ++unexpected_;
    }
  }

  int run(const Args& args) {
    const std::string mode = args.str("mode");
    pids_ = parse_pids(args.str("pids", ","));
    for (const Request& r : requests_) {
      if (r.phase == 'm') {
        measured_.push_back(r);
      } else {
        prewarm_.push_back(r);
      }
    }
    records_.resize(measured_.size());
    for (std::size_t i = 0; i < measured_.size(); ++i) {
      records_[i].frame = measured_[i].frame;
      records_[i].due = 1e-6 * static_cast<double>(measured_[i].due_us);
    }
    if (mode == "socket") {
      run_socket(static_cast<int>(args.num("port", 0)));
    } else if (mode == "pipe" || mode == "open") {
      open_loop_ = mode == "open";
      run_stream(static_cast<int>(args.num("wfd", -1)),
                 static_cast<int>(args.num("rfd", -1)));
    } else {
      die("unknown load mode '" + mode + "'");
    }
    write_stats(args.str("stats-out"));
    const std::string spans = args.str("spans", "-");
    if (spans != "-") write_spans(spans);
    print_summary();
    return 0;
  }

 private:
  void mark_start() {
    for (int pid : pids_) cpu_start_.push_back(cpu_ticks(pid));
    cpu_gen_start_ = process_cpu_seconds();
    start_ = Clock::now();
  }

  void run_stream(int wfd, int rfd) {
    if (wfd < 0 || rfd < 0) die("pipe/open modes need --wfd and --rfd");
    FdInBuf inbuf(rfd);
    std::istream in(&inbuf);
    mark_start();
    std::thread writer([&] {
      double previous_end = 0.0;
      for (std::size_t i = 0; i < measured_.size(); ++i) {
        Record& rec = records_[i];
        if (open_loop_) {
          std::this_thread::sleep_until(
              start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(rec.due)));
        } else {
          rec.due = previous_end;  // a pipe takes the next frame at once
        }
        rec.send_start = now();
        const std::string& frame = frames_[rec.frame];
        if (!write_all(wfd, frame)) break;
        rec.send_end = previous_end = now();
      }
      // The stats frame rides behind the last job; closing the stream
      // then lets the server flush its final window.
      (void)write_all(wfd, "pooled-stats v2\nend\n");
      ::close(wfd);
    });
    for (std::size_t i = 0; i < measured_.size(); ++i) {
      std::optional<DecodeReport> report = next_report(in);
      if (!report) break;
      records_[i].recv = now();
      check(*report, records_[i].frame, i, &records_[i]);
      ++received_;
    }
    end_ = now();
    // Whatever follows (the stats answer, if it was not interleaved) is
    // read to end of stream.
    while (next_report(in)) ++unexpected_;
    writer.join();
  }

  void run_socket(int port) {
    std::map<std::uint32_t, std::vector<std::size_t>> by_conn;
    for (std::size_t i = 0; i < measured_.size(); ++i) {
      by_conn[measured_[i].conn].push_back(i);
    }
    const std::size_t conns = by_conn.empty() ? 1 : by_conn.rbegin()->first + 1;
    std::vector<int> fds(conns);
    std::vector<std::unique_ptr<FdInBuf>> bufs;
    std::vector<std::unique_ptr<std::istream>> ins;
    for (std::size_t c = 0; c < conns; ++c) {
      fds[c] = dial(port);
      bufs.push_back(std::make_unique<FdInBuf>(fds[c]));
      ins.push_back(std::make_unique<std::istream>(bufs.back().get()));
    }
    // Prewarm on connection 0, sequentially, before the clock starts.
    std::vector<std::size_t> next_index(conns, 0);
    for (const Request& r : prewarm_) {
      if (!write_all(fds[r.conn], frames_[r.frame])) die("prewarm send failed");
      std::optional<DecodeReport> report = next_report(*ins[r.conn]);
      if (!report) die("prewarm lost its result");
      if (!check(*report, r.frame, next_index[r.conn]++, nullptr)) ++prewarm_failed_;
    }
    mark_start();
    std::atomic<std::size_t> received{0};
    // Closed loop: a connection sends its next request only when the
    // reply to the previous one has arrived.
    const auto drive = [&](std::size_t c) {
      double previous_recv = 0.0;
      std::size_t index = next_index[c];
      for (std::size_t i : by_conn[static_cast<std::uint32_t>(c)]) {
        Record& rec = records_[i];
        rec.due = previous_recv;
        rec.send_start = now();
        const std::string& frame = frames_[rec.frame];
        if (!write_all(fds[c], frame)) return;
        rec.send_end = now();
        std::optional<DecodeReport> report = next_report(*ins[c]);
        if (!report) return;
        rec.recv = previous_recv = now();
        check(*report, rec.frame, index++, &rec);
        received.fetch_add(1);
      }
    };
    std::vector<std::thread> threads;  // connection 0 runs on this thread
    for (std::size_t c = 1; c < conns; ++c) threads.emplace_back(drive, c);
    drive(0);
    for (std::thread& t : threads) t.join();
    end_ = now();
    received_ = received.load();
    if (write_all(fds[0], "pooled-stats v2\nend\n")) await_stats(*ins[0]);
    for (std::size_t c = 0; c < conns; ++c) {
      ::shutdown(fds[c], SHUT_WR);
      while (next_report(*ins[c])) ++unexpected_;
      ::close(fds[c]);
    }
  }

  void write_stats(const std::string& path) {
    std::ofstream os(path);
    if (stats_) write_snapshot_text(os, *stats_);
  }

  void write_spans(const std::string& path) {
    // Client-side spans: one root per request with its send and wait
    // children; the served frame's `seconds` rides on the root so the
    // server-side share of the wait can be joined in.
    std::ofstream os(path);
    const auto us = [](double s) { return std::llround(s * 1e6); };
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (r.recv < 0) continue;
      os << "{\"req\":" << i << ",\"span\":\"request\",\"parent\":null,\"start_us\":"
         << us(r.send_start) << ",\"end_us\":" << us(r.recv)
         << ",\"frame\":" << r.frame << ",\"served_us\":" << us(r.served_seconds)
         << "}\n";
      os << "{\"req\":" << i << ",\"span\":\"transport.send\",\"parent\":\"request\","
         << "\"start_us\":" << us(r.send_start) << ",\"end_us\":" << us(r.send_end)
         << "}\n";
      os << "{\"req\":" << i << ",\"span\":\"transport.wait\",\"parent\":\"request\","
         << "\"start_us\":" << us(r.send_end) << ",\"end_us\":" << us(r.recv)
         << "}\n";
    }
  }

  void print_summary() {
    const double gen_cpu = process_cpu_seconds() - cpu_gen_start_;
    std::ostringstream lat, late;
    lat.precision(9);
    late.precision(9);
    double send_sum = 0.0, wait_sum = 0.0, rtt_over_sum = 0.0, due_over_sum = 0.0;
    double served_sum = 0.0;
    std::uint64_t ok = 0, exact = 0, scored = 0, done = 0;
    for (const Record& r : records_) {
      if (r.recv < 0) continue;
      ++done;
      if (done > 1) {
        lat << ',';
        late << ',';
      }
      // Closed loop and pipe: round trip from the send; open loop: from
      // when the job was due, so a stalled send counts against it.
      lat << 1e3 * (r.recv - (open_loop_ ? r.due : r.send_start));
      late << 1e3 * std::max(0.0, r.send_start - r.due);
      send_sum += r.send_end - r.send_start;
      wait_sum += r.recv - r.send_end;
      rtt_over_sum += (r.recv - r.send_start) - r.served_seconds;
      due_over_sum += (r.recv - r.due) - r.served_seconds;
      served_sum += r.served_seconds;
      ok += r.ok ? 1 : 0;
      scored += r.scored ? 1 : 0;
      exact += r.scored && r.exact ? 1 : 0;
    }
    const double n = done > 0 ? static_cast<double>(done) : 1.0;
    std::printf(
        "{\"attempted\": %zu, \"received\": %zu, \"ok\": %llu, "
        "\"prewarm\": %zu, \"prewarm_failed\": %zu, "
        "\"mismatches\": %llu, \"errors\": %llu, \"out_of_order\": %llu, "
        "\"unexpected\": %zu, \"stats_frame\": %s, \"wall_s\": %.9f, "
        "\"scored\": %llu, \"exact\": %llu, \"send_us\": %.6f, "
        "\"wait_us\": %.6f, \"rtt_overhead_us\": %.6f, "
        "\"due_overhead_us\": %.6f, \"served_seconds_sum\": %.9f, "
        "\"gen_cpu_s\": %.6f, "
        "\"cpu_start_ticks\": [",
        records_.size(), received_, static_cast<unsigned long long>(ok),
        prewarm_.size(), prewarm_failed_,
        static_cast<unsigned long long>(verdicts_.mismatches.load()),
        static_cast<unsigned long long>(verdicts_.errors.load()),
        static_cast<unsigned long long>(verdicts_.out_of_order.load()),
        unexpected_, stats_ ? "true" : "false", end_,
        static_cast<unsigned long long>(scored),
        static_cast<unsigned long long>(exact), 1e6 * send_sum / n,
        1e6 * wait_sum / n, 1e6 * rtt_over_sum / n, 1e6 * due_over_sum / n,
        served_sum, gen_cpu);
    for (std::size_t i = 0; i < cpu_start_.size(); ++i) {
      std::printf("%s%llu", i ? ", " : "",
                  static_cast<unsigned long long>(cpu_start_[i]));
    }
    std::printf("], \"latency_ms\": [%s], \"late_ms\": [%s]}\n",
                lat.str().c_str(), late.str().c_str());
  }

  std::string dir_;
  std::vector<std::string> frames_;
  std::vector<Request> requests_;
  std::vector<Reference> refs_;
  std::vector<Request> measured_;
  std::vector<Request> prewarm_;
  std::vector<Record> records_;
  std::vector<int> pids_;
  std::vector<std::uint64_t> cpu_start_;
  double cpu_gen_start_ = 0.0;
  Clock::time_point start_ = Clock::now();
  double end_ = 0.0;
  bool open_loop_ = false;
  std::size_t received_ = 0;
  std::size_t unexpected_ = 0;
  std::size_t prewarm_failed_ = 0;
  Verdicts verdicts_;
  std::mutex stats_mutex_;
  std::optional<MetricsSnapshot> stats_;
};

int cmd_load(const Args& args) {
  LoadRun run(args);
  return run.run(args);
}

// -- replay ----------------------------------------------------------------------

/// One timed call into a layer. Spans of one request share `req`; every
/// layer span's parent is the request's root span.
struct Span {
  std::uint32_t req = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The layers a request passes through, in pipeline order. The first
/// kExecuteFirst..kExecuteLast entries are the ones the served frame's
/// `seconds` covers (the engine's job timer).
constexpr const char* kLayers[] = {
    "protocol.parse",        "result_cache.key", "result_cache.lookup",
    "build.instance",        "registry.make_decoder", "decode",
    "verify",                "result_cache.insert",   "protocol.serialize"};
constexpr std::size_t kLayerCount = std::size(kLayers);
constexpr std::size_t kExecuteFirst = 1;  // result_cache.key
constexpr std::size_t kExecuteLast = 6;   // verify

/// Replayed totals of the requests whose instance has one size n.
struct SizeClass {
  std::uint64_t requests = 0;
  std::uint64_t decoded = 0;
  double execute_s = 0.0;  ///< key through verify, as in kExecute*
};

struct LaneTotals {
  std::vector<Span> spans;
  double self_s[kLayerCount] = {};
  std::uint64_t calls[kLayerCount] = {};
  std::uint64_t queries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mismatches = 0;
  std::map<std::uint32_t, SizeClass> classes;  ///< by instance size n
};

/// The shard a routed fleet of `shards` sends `frame` to: the router's
/// rendezvous pick (ShardRouter::shard_for_digest with every shard alive)
/// over the FNV-1a of the frame's instance digest.
std::size_t routed_shard(const std::string& frame, std::size_t shards) {
  std::istringstream is(frame);
  const std::optional<DecodeJob> job = load_job(is);
  if (!job || !job->spec) die("routed frame has no instance spec");
  const std::uint64_t hash = fnv1a(instance_digest(*job->spec));
  std::size_t best = 0;
  std::uint64_t best_score = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::uint64_t score = splitmix64_mix(hash ^ splitmix64_mix(shard + 1));
    if (shard == 0 || score > best_score) {
      best = shard;
      best_score = score;
    }
  }
  return best;
}

/// The replay mirrors how the served fleet runs jobs, so each layer sees
/// the same contention:
///   --shape tasks    jobs as tasks of one pool of --lanes, each job on one
///                    thread (stdin serve runs a window's jobs as pool
///                    tasks; socket serve runs one job per connection)
///   --shape threads  one thread per shard, --lanes of them, each with its
///                    own pool of --pool-width and its own cache, running
///                    the frames the router sends that shard, each when it
///                    is due (a routed shard serves its one connection's
///                    jobs in order, as they arrive)
/// The split of requests over lanes is printed, so the caller can check it
/// against the fleet's observed per-shard split.
class Replay {
 public:
  Replay(const Args& args)
      : frames_(read_frames(args.str("dir"))),
        refs_(read_reference(args.str("dir"))),
        shape_(args.str("shape")),
        lane_count_(static_cast<std::size_t>(args.num("lanes", 1))) {
    for (const Request& r : read_requests(args.str("dir"))) {
      (r.phase == 'm' ? measured_ : prewarm_).push_back(r);
    }
    const bool tasks = shape_ == "tasks";
    const auto width =
        static_cast<unsigned>(tasks ? lane_count_ : args.num("pool-width", 1));
    const auto capacity = static_cast<std::size_t>(args.num("cache", 1024));
    for (std::size_t i = 0; i < (tasks ? 1 : lane_count_); ++i) {
      pools_.push_back(std::make_unique<ThreadPool>(width));
      caches_.push_back(std::make_unique<ResultCache>(capacity));
    }
    lanes_.resize(std::max<std::size_t>(lane_count_, pools_[0]->size()) + 1);
    if (!tasks) {
      for (const std::string& frame : frames_) {
        shard_of_.push_back(routed_shard(frame, lane_count_));
      }
    }
  }

  int run(const Args& args) {
    // Prewarm is sequential and untimed, as in the served cycle.
    LaneTotals discard;
    for (std::size_t i = 0; i < prewarm_.size(); ++i) {
      replay_one(static_cast<std::uint32_t>(i), prewarm_[i].frame, 0, discard);
    }
    origin_ = Clock::now();
    if (shape_ == "tasks") {
      pools_[0]->run_tasks(measured_.size(), [&](std::size_t i) {
        replay_one(static_cast<std::uint32_t>(i), measured_[i].frame, 0,
                   lanes_[ThreadPool::current_lane()]);
      });
    } else {
      std::vector<std::thread> threads;
      for (std::size_t lane = 0; lane < lane_count_; ++lane) {
        threads.emplace_back([this, lane] {
          for (std::size_t i = 0; i < measured_.size(); ++i) {
            const Request& r = measured_[i];
            if (shard_of_[r.frame] != lane) continue;
            std::this_thread::sleep_until(origin_ + std::chrono::microseconds(r.due_us));
            replay_one(static_cast<std::uint32_t>(i), r.frame, lane, lanes_[lane]);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    std::vector<std::uint64_t> split(lane_count_, 0);
    for (const Request& r : measured_) {
      if (!shard_of_.empty()) ++split[shard_of_[r.frame]];
    }
    LaneTotals total;
    total.mismatches = discard.mismatches;  // the prewarm is checked too
    for (LaneTotals& lane : lanes_) {
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        total.self_s[l] += lane.self_s[l];
        total.calls[l] += lane.calls[l];
      }
      total.queries += lane.queries;
      total.bytes += lane.bytes;
      total.mismatches += lane.mismatches;
      for (const auto& [n, size_class] : lane.classes) {
        SizeClass& sum = total.classes[n];
        sum.requests += size_class.requests;
        sum.decoded += size_class.decoded;
        sum.execute_s += size_class.execute_s;
      }
    }
    const std::string spans = args.str("spans", "-");
    if (spans != "-") write_spans(spans);
    double execute_s = 0.0;
    for (std::size_t l = kExecuteFirst; l <= kExecuteLast; ++l) {
      execute_s += total.self_s[l];
    }
    std::printf("{\"requests\": %zu, \"mismatches\": %llu, \"queries\": %llu, "
                "\"bytes\": %llu, \"execute_s\": %.9f, \"layers\": {",
                measured_.size(), static_cast<unsigned long long>(total.mismatches),
                static_cast<unsigned long long>(total.queries),
                static_cast<unsigned long long>(total.bytes), execute_s);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::printf("%s\"%s\": {\"self_s\": %.9f, \"calls\": %llu}", l ? ", " : "",
                  kLayers[l], total.self_s[l],
                  static_cast<unsigned long long>(total.calls[l]));
    }
    std::printf("}, \"sizes\": {");
    bool first = true;
    for (const auto& [n, size_class] : total.classes) {
      std::printf("%s\"%u\": {\"requests\": %llu, \"decoded\": %llu, "
                  "\"execute_s\": %.9f}",
                  first ? "" : ", ", n,
                  static_cast<unsigned long long>(size_class.requests),
                  static_cast<unsigned long long>(size_class.decoded),
                  size_class.execute_s);
      first = false;
    }
    std::printf("}, \"split\": [");
    for (std::size_t lane = 0; lane < split.size() && !shard_of_.empty(); ++lane) {
      std::printf("%s%llu", lane ? ", " : "",
                  static_cast<unsigned long long>(split[lane]));
    }
    std::printf("]}\n");
    return 0;
  }

 private:
  std::int64_t stamp() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Times `call` as layer `layer` of request `req` into `lane`.
  template <typename Call>
  decltype(auto) timed(LaneTotals& lane, std::uint32_t req, std::size_t layer,
                       Call&& call) {
    struct Closer {
      Replay* self;
      LaneTotals& lane;
      std::uint32_t req;
      std::size_t layer;
      std::int64_t start;
      ~Closer() {
        const std::int64_t end = self->stamp();
        lane.spans.push_back({req, kLayers[layer], start, end});
        lane.self_s[layer] += 1e-9 * static_cast<double>(end - start);
        ++lane.calls[layer];
      }
    } closer{this, lane, req, layer, stamp()};
    return call();
  }

  void replay_one(std::uint32_t req, std::uint32_t frame, std::size_t slot,
                  LaneTotals& lane) {
    ThreadPool& pool = *pools_[slot];
    ResultCache& cache = *caches_[slot];
    const std::int64_t root_start = stamp();
    const auto execute_s = [&lane] {
      return std::accumulate(lane.self_s + kExecuteFirst,
                             lane.self_s + kExecuteLast + 1, 0.0);
    };
    const double execute_before = execute_s();
    const std::uint64_t decoded_before = lane.calls[5];
    DecodeJob job = timed(lane, req, 0, [&] {
      std::istringstream is(frames_[frame]);
      std::optional<DecodeJob> parsed = load_job(is);
      if (!parsed) die("replayed frame does not parse");
      return std::move(*parsed);
    });
    const std::optional<std::string> key =
        timed(lane, req, 1, [&] { return ResultCache::job_key(job); });
    if (!key) die("replayed job has no cache key");
    std::optional<DecodeReport> report =
        timed(lane, req, 2, [&] { return cache.lookup(*key); });
    if (!report) {
      const std::unique_ptr<StreamedInstance> instance =
          timed(lane, req, 3, [&] { return job.spec->to_instance(); });
      const std::shared_ptr<const Decoder> decoder =
          timed(lane, req, 4, [&] { return make_decoder(job.decoder); });
      DecodeContext context(job.k, pool);
      context.noise = job.noise;
      context.max_rounds = job.rounds;
      context.query_budget = job.budget;
      context.rng_seed = job.rng_seed;
      const DecodeOutcome outcome =
          timed(lane, req, 5, [&] { return decoder->decode(*instance, context); });
      report.emplace();
      report->decoder_name = decoder->name();
      report->n = instance->n();
      report->k = job.k;
      report->support.assign(outcome.estimate.support().begin(),
                             outcome.estimate.support().end());
      report->consistent = timed(
          lane, req, 6, [&] { return instance->is_consistent(outcome.estimate); });
      report->rounds = outcome.rounds;
      report->queries = outcome.queries;
      report->stop = outcome.stop;
      if (job.truth_support) {
        const Signal truth(instance->n(), *job.truth_support);
        report->scored = true;
        report->exact = exact_recovery(outcome.estimate, truth);
        report->overlap = overlap_fraction(outcome.estimate, truth);
      }
      lane.queries += outcome.queries;
      timed(lane, req, 7, [&] { cache.insert(*key, *report); });
    }
    const std::string response = timed(lane, req, 8, [&] {
      std::ostringstream os;
      save_report(os, *report);
      return os.str();
    });
    SizeClass& size_class = lane.classes[report->n];
    ++size_class.requests;
    size_class.decoded += lane.calls[5] - decoded_before;
    size_class.execute_s += execute_s() - execute_before;
    if (!matches(*report, refs_[frame])) ++lane.mismatches;
    lane.bytes += frames_[frame].size() + response.size();
    lane.spans.push_back({req, "request", root_start, stamp()});
  }

  void write_spans(const std::string& path) {
    std::ofstream os(path);
    for (const LaneTotals& lane : lanes_) {
      for (const Span& span : lane.spans) {
        const bool root = std::strcmp(span.name, "request") == 0;
        os << "{\"req\":" << span.req << ",\"span\":\"" << span.name
           << "\",\"parent\":" << (root ? "null" : "\"request\"")
           << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
           << "}\n";
      }
    }
  }

  std::vector<std::string> frames_;
  std::vector<Reference> refs_;
  std::vector<Request> measured_;
  std::vector<Request> prewarm_;
  std::string shape_;
  std::size_t lane_count_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::vector<std::unique_ptr<ResultCache>> caches_;
  std::vector<LaneTotals> lanes_;
  std::vector<std::size_t> shard_of_;  ///< by frame, threads shape only
  Clock::time_point origin_ = Clock::now();
};

int cmd_replay(const Args& args) {
  Replay replay(args);
  return replay.run(args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_tool <gen|load|replay> --flag value ...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "load") return cmd_load(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command '" + command + "'");
}
