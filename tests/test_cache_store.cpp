// On-disk cache snapshots: round trip, recency preservation, the
// rejection battery for corrupt files, and crash safety (a writer
// SIGKILLed mid-spill must never leave a loadable-but-wrong snapshot).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "engine/batch_engine.hpp"
#include "engine/cache_store.hpp"
#include "engine/protocol.hpp"
#include "engine/result_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

/// A distinct, fully populated ok() report per seed so field-level
/// corruption in a round trip cannot hide behind identical entries.
DecodeReport sample_report(std::uint32_t seed) {
  DecodeReport report;
  report.index = seed;
  report.decoder_name = "mn";
  report.n = 300 + seed;
  report.k = 5;
  report.support = {seed, seed + 7, seed + 19};
  report.consistent = true;
  report.scored = (seed % 2) == 0;
  report.exact = report.scored;
  report.overlap = report.scored ? 1.0 : 0.0;
  report.seconds = 0.25;
  report.rounds = 2 + seed % 3;
  report.queries = 100 + seed;
  report.stop = StopReason::Completed;
  return report;
}

std::vector<CacheSnapshotEntry> sample_entries(std::size_t count) {
  std::vector<CacheSnapshotEntry> entries;
  for (std::size_t i = 0; i < count; ++i) {
    CacheSnapshotEntry entry;
    entry.key = "digest" + std::to_string(i) + "|mn|5|1|sym:0.0:0|8|0|7|-";
    entry.report = sample_report(static_cast<std::uint32_t>(i));
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string render(const std::vector<CacheSnapshotEntry>& entries) {
  std::ostringstream os;
  write_cache_snapshot(os, entries);
  return os.str();
}

std::vector<CacheSnapshotEntry> parse(const std::string& text) {
  std::istringstream is(text);
  return read_cache_snapshot(is);
}

/// Rebuilds a snapshot around a hand-crafted entry section with a
/// *valid* checksum, so reader tests past the checksum line are
/// reachable (FNV-1a 64, mirroring the writer).
std::string wrap_section(const std::string& body, std::size_t claimed) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : body) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  std::ostringstream os;
  os << "pooled-cache v1\nschema " << kCacheKeySchema << "\nentries "
     << claimed << '\n'
     << body << "checksum " << std::hex << std::setw(16) << std::setfill('0')
     << hash << "\nend\n";
  return os.str();
}

std::string temp_path(const char* tag) {
  return "/tmp/pooled_cache_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".snap";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

TEST(CacheStore, RoundTripPreservesEveryFieldAndOrder) {
  const std::vector<CacheSnapshotEntry> entries = sample_entries(5);
  const std::vector<CacheSnapshotEntry> loaded = parse(render(entries));
  ASSERT_EQ(loaded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(loaded[i].key, entries[i].key);
    EXPECT_EQ(loaded[i].report.decoder_name, entries[i].report.decoder_name);
    EXPECT_EQ(loaded[i].report.n, entries[i].report.n);
    EXPECT_EQ(loaded[i].report.k, entries[i].report.k);
    EXPECT_EQ(loaded[i].report.support, entries[i].report.support);
    EXPECT_EQ(loaded[i].report.consistent, entries[i].report.consistent);
    EXPECT_EQ(loaded[i].report.scored, entries[i].report.scored);
    EXPECT_EQ(loaded[i].report.exact, entries[i].report.exact);
    EXPECT_EQ(loaded[i].report.rounds, entries[i].report.rounds);
    EXPECT_EQ(loaded[i].report.queries, entries[i].report.queries);
    EXPECT_TRUE(loaded[i].report.ok());
  }
}

TEST(CacheStore, ReserializeIsByteIdentical) {
  const std::string first = render(sample_entries(4));
  EXPECT_EQ(render(parse(first)), first);
}

TEST(CacheStore, EmptySnapshotRoundTrips) {
  EXPECT_TRUE(parse(render({})).empty());
}

TEST(CacheStore, WriterRefusesFailedReportsAndBadKeys) {
  std::vector<CacheSnapshotEntry> failed = sample_entries(1);
  failed[0].report.error = "decode exploded";
  EXPECT_THROW(render(failed), ContractError);

  std::vector<CacheSnapshotEntry> newline = sample_entries(1);
  newline[0].key = "half\nkey";
  EXPECT_THROW(render(newline), ContractError);

  std::vector<CacheSnapshotEntry> empty_key = sample_entries(1);
  empty_key[0].key.clear();
  EXPECT_THROW(render(empty_key), ContractError);
}

TEST(CacheStore, RejectionBattery) {
  const std::string good = render(sample_entries(3));

  // Wrong magic, wrong version, wrong key schema.
  {
    std::string bad = good;
    bad.replace(0, 12, "pooled-trash");
    EXPECT_THROW(parse(bad), ContractError);
  }
  {
    std::string bad = good;
    bad.replace(bad.find(" v1\n"), 4, " v9\n");
    EXPECT_THROW(parse(bad), ContractError);
  }
  {
    std::string bad = good;
    bad.replace(bad.find("schema digest"), 13, "schema  digest");
    EXPECT_THROW(parse(bad), ContractError);
  }

  // Truncation at every frame boundary is loud, not a shorter cache.
  for (const char* marker : {"entries ", "entry ", "pooled-result",
                             "checksum ", "end\n"}) {
    const std::size_t at = good.rfind(marker);
    ASSERT_NE(at, std::string::npos) << marker;
    EXPECT_THROW(parse(good.substr(0, at)), ContractError) << marker;
  }

  // A flipped payload byte breaks the checksum.
  {
    std::string bad = good;
    const std::size_t at = bad.find("job ");
    ASSERT_NE(at, std::string::npos);
    bad[at + 4] = bad[at + 4] == '0' ? '1' : '0';
    EXPECT_THROW(parse(bad), ContractError);
  }

  // Claimed entry count disagreeing with the body.
  {
    std::string bad = good;
    bad.replace(bad.find("entries 3"), 9, "entries 9");
    EXPECT_THROW(parse(bad), ContractError);
  }
  {
    std::string bad = good;
    bad.replace(bad.find("entries 3"), 9, "entries 2");
    EXPECT_THROW(parse(bad), ContractError);
  }

  // An implausible count is rejected before any allocation.
  {
    std::istringstream is("pooled-cache v1\nschema " +
                          std::string(kCacheKeySchema) +
                          "\nentries 99999999999\n");
    EXPECT_THROW(read_cache_snapshot(is), ContractError);
  }
}

TEST(CacheStore, ReaderRefusesDuplicateKeysAndFailedReports) {
  // Hand-crafted sections with *valid* checksums, so the targeted
  // REQUIRE (not the checksum) is what fires.
  DecodeReport report = sample_report(1);
  std::ostringstream dup;
  dup << "entry same-key\n";
  save_report(dup, report);
  dup << "entry same-key\n";
  save_report(dup, report);
  EXPECT_THROW(parse(wrap_section(dup.str(), 2)), ContractError);

  DecodeReport failed;
  failed.index = 0;
  failed.error = "boom";
  std::ostringstream bad;
  bad << "entry failed-key\n";
  save_report(bad, failed);
  EXPECT_THROW(parse(wrap_section(bad.str(), 1)), ContractError);
}

TEST(CacheStore, TrailingGarbageAfterTerminatorRejects) {
  const std::string path = temp_path("trailing");
  write_file(path, render(sample_entries(2)) + "one more line\n");
  EXPECT_THROW(load_cache_snapshot(path), ContractError);
  ::unlink(path.c_str());
}

TEST(CacheStore, MissingFileIsAColdStartNotAnError) {
  EXPECT_FALSE(load_cache_snapshot("/tmp/pooled_cache_never_written.snap")
                   .has_value());
  ResultCache cache(4);
  EXPECT_EQ(cache.restore("/tmp/pooled_cache_never_written.snap"), 0u);
  EXPECT_EQ(cache.stats().snapshot_restores, 0u);
  EXPECT_EQ(cache.stats().snapshot_rejected, 0u);
}

TEST(CacheStore, SpillRestoreKeepsRecencyOrder) {
  const std::string path = temp_path("recency");
  ResultCache cache(8);
  for (std::uint32_t i = 0; i < 6; ++i) {
    cache.insert("key" + std::to_string(i), sample_report(i));
  }
  // Touch 1 and 4: recency is now 4,1,5,3,2,0 (most recent first).
  (void)cache.lookup("key1");
  (void)cache.lookup("key4");
  ASSERT_EQ(cache.spill(path), 6u);

  // Same-capacity restore: every entry survives, hits come from the
  // restored copies.
  ResultCache same(8);
  EXPECT_EQ(same.restore(path), 6u);
  EXPECT_EQ(same.stats().size, 6u);
  EXPECT_EQ(same.stats().snapshot_restores, 1u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same.lookup("key" + std::to_string(i)).has_value()) << i;
  }

  // Smaller-capacity restore keeps exactly the hottest prefix (restore
  // reports entries *read*; eviction trims to capacity as it loads).
  ResultCache smaller(3);
  EXPECT_EQ(smaller.restore(path), 6u);
  EXPECT_EQ(smaller.stats().size, 3u);
  EXPECT_TRUE(smaller.lookup("key4").has_value());
  EXPECT_TRUE(smaller.lookup("key1").has_value());
  EXPECT_TRUE(smaller.lookup("key5").has_value());
  EXPECT_FALSE(smaller.lookup("key3").has_value());
  ::unlink(path.c_str());
}

TEST(CacheStore, RestoredHitIsFieldIdenticalToTheOriginal) {
  const std::string path = temp_path("identical");
  ResultCache cache(4);
  const DecodeReport original = sample_report(9);
  cache.insert("the-key", original);
  cache.spill(path);

  ResultCache restored(4);
  restored.restore(path);
  const std::optional<DecodeReport> hit = restored.lookup("the-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->decoder_name, original.decoder_name);
  EXPECT_EQ(hit->n, original.n);
  EXPECT_EQ(hit->k, original.k);
  EXPECT_EQ(hit->support, original.support);
  EXPECT_EQ(hit->consistent, original.consistent);
  EXPECT_EQ(hit->rounds, original.rounds);
  EXPECT_EQ(hit->queries, original.queries);
  ::unlink(path.c_str());
}

TEST(CacheStore, CorruptRestoreRejectsLoudlyWithoutPoisoningTheCache) {
  const std::string path = temp_path("corrupt");
  std::string bad = render(sample_entries(2));
  bad[bad.size() / 2] ^= 0x20;
  write_file(path, bad);

  ResultCache cache(4);
  cache.insert("survivor", sample_report(3));
  EXPECT_THROW(cache.restore(path), ContractError);
  EXPECT_EQ(cache.stats().snapshot_rejected, 1u);
  EXPECT_EQ(cache.stats().snapshot_restores, 0u);
  EXPECT_TRUE(cache.lookup("survivor").has_value());
  EXPECT_EQ(cache.stats().size, 1u);
  ::unlink(path.c_str());
}

TEST(CacheStore, SaveLeavesPreviousSnapshotIntactOnFailure) {
  const std::string path = temp_path("previous");
  save_cache_snapshot(path, sample_entries(2));
  // An unwritable temp location: the target is a directory, so the
  // final rename must fail -- and the old snapshot must survive.
  const std::string dir_path = temp_path("asdir");
  ::mkdir(dir_path.c_str(), 0755);
  EXPECT_THROW(save_cache_snapshot(dir_path, sample_entries(1)),
               ContractError);
  const auto survived = load_cache_snapshot(path);
  ASSERT_TRUE(survived.has_value());
  EXPECT_EQ(survived->size(), 2u);
  ::rmdir(dir_path.c_str());
  ::unlink(path.c_str());
}

TEST(CacheStore, FailedSpillIsCountedAndExportedInTheStatsFrame) {
  const std::string path = temp_path("nodir") + "/missing/cache.snap";
  ResultCache cache(4);
  cache.insert("entry", sample_report(1));
  EXPECT_THROW(cache.spill(path), ContractError);
  EXPECT_EQ(cache.stats().snapshot_failures, 1u);
  EXPECT_EQ(cache.stats().snapshot_writes, 0u);

  // A stats probe sees that durability failed: the counter lives with
  // the cache, so every server over it exports it.
  ThreadPool pool(1);
  EngineOptions options;
  options.cache = &cache;
  const BatchEngine engine(pool, options);
  std::stringstream requests;
  save_stats_request(requests);
  std::stringstream responses;
  EXPECT_EQ(serve_stream(requests, responses, engine), 0u);
  EXPECT_NE(responses.str().find("\ncounter cache.snapshot_failures 1\n"),
            std::string::npos)
      << responses.str();
}

/// The crash-safety contract: SIGKILL a child mid-spill, at every point
/// of its write sequence, and the snapshot at `path` must either be the
/// previous valid generation or the new valid generation -- never a
/// torn file the loader accepts or a torn file at the final path.
TEST(CacheStore, SigkillMidSpillNeverLeavesACorruptSnapshot) {
  const std::string path = temp_path("sigkill");
  save_cache_snapshot(path, sample_entries(1));  // generation 0

  for (int round = 0; round < 8; ++round) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Child: spill new generations as fast as possible until killed.
      for (std::uint32_t gen = 2;; ++gen) {
        save_cache_snapshot(path, sample_entries(gen));
      }
      ::_exit(0);  // unreachable
    }
    // Parent: let the child race ahead a little, then kill it cold at a
    // different phase each round.
    ::usleep(static_cast<useconds_t>(1000 + 700 * round));
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Whatever generation survived, it must parse whole.
    const auto entries = load_cache_snapshot(path);
    ASSERT_TRUE(entries.has_value()) << "round " << round;
    EXPECT_GE(entries->size(), 1u) << "round " << round;
    ResultCache cache(64);
    EXPECT_GE(cache.restore(path), 1u) << "round " << round;
  }
  ::unlink(path.c_str());
  // Stray temp files from killed children are bounded garbage with the
  // child's pid in the name; sweep the ones this test produced.
  ::system(("rm -f " + path + ".tmp.*").c_str());
}

/// The acceptance scenario in miniature: a process builds a hot cache,
/// spills, and dies; its successor restores warm and answers the same
/// jobs from memory. Cross-process through the real file format.
TEST(CacheStore, RollingRestartKeepsTheWarmSetAcrossProcesses) {
  const std::string path = temp_path("rolling");
  ::unlink(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // "Old server": warm cache, spill on the way out (the drain path).
    ResultCache cache(16);
    for (std::uint32_t i = 0; i < 10; ++i) {
      cache.insert("job" + std::to_string(i), sample_report(i));
    }
    (void)cache.lookup("job2");  // hottest
    const std::size_t spilled = cache.spill(path);
    ::_exit(spilled == 10 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // "New server": restores the predecessor's hot set and serves repeats
  // as hits, hottest entry included.
  ResultCache cache(16);
  EXPECT_EQ(cache.restore(path), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(cache.lookup("job" + std::to_string(i)).has_value()) << i;
  }
  EXPECT_EQ(cache.stats().hits, 10u);

  // And a shrunken successor still keeps the hottest entry.
  ResultCache small(2);
  EXPECT_EQ(small.restore(path), 10u);
  EXPECT_EQ(small.stats().size, 2u);
  EXPECT_TRUE(small.lookup("job2").has_value());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace pooled
