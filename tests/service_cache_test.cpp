// ScenarioCache: LRU behaviour, crash-safe filesystem persistence through
// binary_io, corruption quarantine, and absorbed store failures.
#include "service/scenario_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "reference/fault_injection.hpp"
#include "service/protocol.hpp"

namespace qs::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("qs_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

CacheEntry sample_entry(double eigenvalue = 7.5) {
  CacheEntry entry;
  entry.eigenvalue = eigenvalue;
  entry.residual = 1.5e-12;
  entry.iterations = 321;
  entry.class_concentrations = {0.625, 0.25, 0.125};
  entry.fingerprint = {0xde, 0xad, 0xbe, 0xef, 0x01};
  return entry;
}

void expect_bit_identical(const CacheEntry& a, const CacheEntry& b) {
  EXPECT_EQ(std::memcmp(&a.eigenvalue, &b.eigenvalue, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.residual, &b.residual, sizeof(double)), 0);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.class_concentrations.size(), b.class_concentrations.size());
  EXPECT_EQ(std::memcmp(a.class_concentrations.data(), b.class_concentrations.data(),
                        a.class_concentrations.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(CacheEntryPacking, RoundTripsBitExactly) {
  const CacheEntry entry = sample_entry();
  expect_bit_identical(entry, unpack_cache_entry(pack_cache_entry(entry)));

  CacheEntry no_fingerprint = sample_entry();
  no_fingerprint.fingerprint.clear();
  expect_bit_identical(no_fingerprint,
                       unpack_cache_entry(pack_cache_entry(no_fingerprint)));
}

TEST(CacheEntryPacking, StructurallyInvalidPayloadsThrow) {
  EXPECT_THROW(unpack_cache_entry({1.0, 2.0}), std::runtime_error);
  std::vector<double> bad = pack_cache_entry(sample_entry());
  bad[3] = 99.0;  // declared count disagrees with actual length
  EXPECT_THROW(unpack_cache_entry(bad), std::runtime_error);
}

TEST(CacheEntryPacking, AbsurdCountFieldsThrowInsteadOfUndefinedCasts) {
  // A validly-checksummed file can still carry garbage doubles in its count
  // fields; casting NaN / negative / huge values to size_t is UB, so the
  // unpacker must reject them as corruption first.
  const std::vector<double> good = pack_cache_entry(sample_entry());
  for (const double poison :
       {std::nan(""), -1.0, 0.5, 1e300,
        std::numeric_limits<double>::infinity()}) {
    std::vector<double> bad = good;
    bad[3] = poison;  // concentration count
    EXPECT_THROW(unpack_cache_entry(bad), std::runtime_error);
    bad = good;
    bad[2] = poison;  // iteration count
    EXPECT_THROW(unpack_cache_entry(bad), std::runtime_error);
    bad = good;
    bad[4 + sample_entry().class_concentrations.size()] = poison;  // fp length
    EXPECT_THROW(unpack_cache_entry(bad), std::runtime_error);
  }
}

TEST(ScenarioCacheMemory, FingerprintMismatchIsAMissNotAWrongAnswer) {
  // Two different scenarios colliding on the same 64-bit key must never
  // serve each other's answer.
  ScenarioCache cache(8);
  cache.store(1, sample_entry(1.0));
  const std::vector<std::uint8_t> other_scenario = {0x99, 0x99};
  EXPECT_FALSE(cache.lookup(1, other_scenario).has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);
  // The rightful owner still hits.
  auto hit = cache.lookup(1, sample_entry().fingerprint);
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(sample_entry(1.0), *hit);
}

TEST(ScenarioCacheFs, DiskFingerprintMismatchIsAMissAndRecomputeOverwrites) {
  TempDir dir;
  {
    ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
    cache.store(3, sample_entry(1.0));
  }
  // "Restart": a colliding scenario looks up the same key with a different
  // fingerprint — miss (counted as a collision), then its own store
  // overwrites the file and the new fingerprint is served thereafter.
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  CacheEntry collider = sample_entry(2.0);
  collider.fingerprint = {0x42};
  EXPECT_FALSE(cache.lookup(3, collider.fingerprint).has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);
  cache.store(3, collider);

  ScenarioCache reopened(8, std::make_unique<FsCacheStorage>(dir.path()));
  auto hit = reopened.lookup(3, collider.fingerprint);
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(collider, *hit);
}

/// A fingerprint as the daemon wrote it before kSolverRevision led the
/// bytes: the scenario fields alone (a single-peak request has no seed).
std::vector<std::uint8_t> revisionless_fingerprint(const SolveRequest& r) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](const auto& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes.insert(bytes.end(), p, p + sizeof value);
  };
  put(r.nu);
  put(static_cast<std::uint32_t>(r.landscape));
  put(r.param0);
  put(r.param1);
  put(r.p);
  put(r.tolerance);
  put(r.max_iterations);
  return bytes;
}

/// FNV-1a64, the hash scenario_key takes over the fingerprint bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(ScenarioCacheFs, AnswerCachedBeforeTheSolverRevisionIsAMiss) {
  // A disk cache written by a daemon that predates kSolverRevision holds
  // answers from the old stopping rule.  After an upgrade the same request
  // must recompute: neither its key nor its fingerprint reaches the entry.
  SolveRequest request;
  request.nu = 6;
  request.landscape = LandscapeKind::single_peak;
  request.param0 = 8.0;
  request.param1 = 1.0;
  request.p = 0.02;
  const std::vector<std::uint8_t> old_fingerprint = revisionless_fingerprint(request);
  const std::vector<std::uint8_t> fingerprint = scenario_fingerprint(request);
  ASSERT_EQ(fingerprint.size(), old_fingerprint.size() + sizeof kSolverRevision);
  ASSERT_TRUE(std::equal(old_fingerprint.begin(), old_fingerprint.end(),
                         fingerprint.begin() + sizeof kSolverRevision));

  TempDir dir;
  {
    ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
    CacheEntry stale = sample_entry();
    stale.fingerprint = old_fingerprint;
    cache.store(fnv1a(old_fingerprint), stale);
  }
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  EXPECT_FALSE(cache.lookup(scenario_key(request), fingerprint).has_value());
  EXPECT_FALSE(cache.lookup(fnv1a(old_fingerprint), fingerprint).has_value());
  EXPECT_EQ(cache.stats().collisions, 1u);
}

TEST(ScenarioCacheMemory, LruHitsMissesAndEvicts) {
  ScenarioCache cache(2);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.store(1, sample_entry(1.0));
  cache.store(2, sample_entry(2.0));
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 is now most recent
  cache.store(3, sample_entry(3.0));         // evicts 2 (least recent)
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ScenarioCacheFs, PersistsAcrossCacheInstances) {
  TempDir dir;
  const CacheEntry entry = sample_entry();
  {
    ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
    cache.store(42, entry);
  }
  // A new cache over the same directory: the entry survives the "restart".
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(entry, *hit);
}

TEST(ScenarioCacheFs, EvictedEntriesFallThroughToDisk) {
  TempDir dir;
  ScenarioCache cache(1, std::make_unique<FsCacheStorage>(dir.path()));
  cache.store(1, sample_entry(1.0));
  cache.store(2, sample_entry(2.0));  // evicts key 1 from memory
  auto hit = cache.lookup(1);         // disk still has it
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(sample_entry(1.0), *hit);
}

TEST(ScenarioCacheFs, TruncatedEntryIsQuarantinedAndRecomputable) {
  TempDir dir;
  auto storage = std::make_unique<FsCacheStorage>(dir.path());
  const fs::path entry_file = storage->entry_path(7);
  {
    ScenarioCache cache(8, std::move(storage));
    cache.store(7, sample_entry());
  }
  // Crash mid-sector: chop the file.  binary_io's length check must refuse
  // it, and the cache must quarantine rather than serve garbage.
  {
    const auto size = fs::file_size(entry_file);
    fs::resize_file(entry_file, size / 2);
  }
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  EXPECT_FALSE(cache.lookup(7).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(entry_file));
  fs::path bad = entry_file;
  bad += ".bad";
  EXPECT_TRUE(fs::exists(bad)) << "corrupt entry must be preserved as evidence";

  // Recompute path: a fresh store overwrites cleanly and serves again.
  cache.store(7, sample_entry());
  ScenarioCache reopened(8, std::make_unique<FsCacheStorage>(dir.path()));
  EXPECT_TRUE(reopened.lookup(7).has_value());
}

TEST(ScenarioCacheFs, BitFlippedEntryFailsTheChecksumAndIsQuarantined) {
  TempDir dir;
  auto storage = std::make_unique<FsCacheStorage>(dir.path());
  const fs::path entry_file = storage->entry_path(9);
  {
    ScenarioCache cache(8, std::move(storage));
    cache.store(9, sample_entry());
  }
  {
    // Flip one payload byte in place — the FNV checksum must catch it.
    std::fstream file(entry_file, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(40);
    char byte;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(40);
    file.write(&byte, 1);
  }
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  EXPECT_FALSE(cache.lookup(9).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(ScenarioCacheFs, SemanticCorruptionPastTheChecksumIsStillRejected) {
  // The injected corrupt-at-store writes a checksum-consistent file whose
  // *content* is garbage: unpack_cache_entry's structural checks are the
  // last line, and the cache must quarantine on them too.
  TempDir dir;
  testing::FaultInjectingCacheStorage::Config config;
  config.corrupt_at_store = 1;
  {
    ScenarioCache cache(8, std::make_unique<testing::FaultInjectingCacheStorage>(
                               std::make_unique<FsCacheStorage>(dir.path()), config));
    cache.store(5, sample_entry());
  }
  ScenarioCache cache(8, std::make_unique<FsCacheStorage>(dir.path()));
  EXPECT_FALSE(cache.lookup(5).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(ScenarioCache, StoreFailuresAreAbsorbedAndCounted) {
  testing::FaultInjectingCacheStorage::Config config;
  config.throw_at_store = 1;
  config.throw_forever = true;
  ScenarioCache cache(8, std::make_unique<testing::FaultInjectingCacheStorage>(
                             nullptr, config));
  // A sick disk must not fail the request: the answer stays served from
  // memory and the failure is visible in the stats.
  cache.store(1, sample_entry());
  EXPECT_TRUE(cache.lookup(1).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.store_failures, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(ScenarioCache, LoadFailuresQuarantineAndMiss) {
  testing::FaultInjectingCacheStorage::Config config;
  config.throw_at_load = 1;
  auto storage = std::make_unique<testing::FaultInjectingCacheStorage>(nullptr, config);
  auto* injector = storage.get();
  ScenarioCache cache(8, std::move(storage));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(injector->quarantine_count(), 1u);
}

}  // namespace
}  // namespace qs::service
