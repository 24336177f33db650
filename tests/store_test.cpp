// Tests for the content-addressed certificate store: request keys, the
// spiv-cert v1 format (exact round-trip including rational exact_p),
// corruption handling (miss, never crash), the LRU tiers, and the JobPool
// concurrency contract (N workers racing one key produce exactly one entry
// and identical results).
#include "store/cert_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "core/parallel.hpp"

namespace spiv::store {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("spiv_store_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  fs::path dir_;
};

CertRequest sample_request(double seed = 1.0) {
  CertRequest req;
  req.a = numeric::Matrix{{-2.0 * seed, 1.0}, {0.25, -3.0}};
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  req.engine = smt::Engine::Sylvester;
  req.digits = 10;
  return req;
}

/// A record with every optional field populated: exact_p with non-trivial
/// rationals, an Invalid verdict carrying a witness.
CertRecord sample_record() {
  CertRecord rec;
  rec.candidate.method = lyap::Method::EqSmt;
  rec.candidate.p = numeric::Matrix{{0.30000000000000004, -1e-17},
                                    {-1e-17, 12345.678901234567}};
  rec.candidate.synth_seconds = 0.012345678901234567;
  exact::RatMatrix ep{2, 2};
  ep(0, 0) = exact::Rational{exact::BigInt{"123456789012345678901234567890"},
                             exact::BigInt{"987654321098765432109876543217"}};
  ep(0, 1) = exact::Rational{-7, 3};
  ep(1, 0) = exact::Rational{-7, 3};
  ep(1, 1) = exact::Rational::from_double_exact(0.1);
  rec.candidate.exact_p = std::move(ep);
  rec.validation.positivity.outcome = smt::Outcome::Valid;
  rec.validation.positivity.seconds = 0.001220703125;
  rec.validation.decrease.outcome = smt::Outcome::Invalid;
  rec.validation.decrease.seconds = 7.0000000000000001e-05;
  rec.validation.decrease.witness = std::vector<exact::Rational>{
      exact::Rational{1, 1}, exact::Rational{-355, 113}};
  return rec;
}

void expect_records_equal(const CertRecord& a, const CertRecord& b) {
  EXPECT_EQ(a.candidate.method, b.candidate.method);
  EXPECT_EQ(a.candidate.p.rows(), b.candidate.p.rows());
  EXPECT_EQ(a.candidate.p.data(), b.candidate.p.data());  // bit-exact doubles
  EXPECT_EQ(a.candidate.synth_seconds, b.candidate.synth_seconds);
  ASSERT_EQ(a.candidate.exact_p.has_value(), b.candidate.exact_p.has_value());
  if (a.candidate.exact_p) {
    EXPECT_EQ(*a.candidate.exact_p, *b.candidate.exact_p);  // exact rationals
  }
  EXPECT_EQ(a.validation.positivity.outcome, b.validation.positivity.outcome);
  EXPECT_EQ(a.validation.positivity.seconds, b.validation.positivity.seconds);
  EXPECT_EQ(a.validation.decrease.outcome, b.validation.decrease.outcome);
  EXPECT_EQ(a.validation.decrease.seconds, b.validation.decrease.seconds);
  ASSERT_EQ(a.validation.decrease.witness.has_value(),
            b.validation.decrease.witness.has_value());
  if (a.validation.decrease.witness) {
    EXPECT_EQ(*a.validation.decrease.witness, *b.validation.decrease.witness);
  }
}

// ---------------------------------------------------------------- keys

TEST(CertKey, DeterministicAndSensitiveToEveryField) {
  const CertRequest base = sample_request();
  const std::string key = request_key(base);
  EXPECT_EQ(key.size(), 32u);
  EXPECT_EQ(key, request_key(base));  // deterministic

  CertRequest other = base;
  other.digits = 6;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.engine = smt::Engine::Ldlt;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.method = lyap::Method::Lmi;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.backend = std::nullopt;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.a(0, 0) = std::nextafter(other.a(0, 0), 0.0);  // one ulp
  EXPECT_NE(request_key(other), key);
  // Synthesis parameters shape LMI results and must shape the key: a
  // different-alpha certificate replayed for this request would be wrong.
  other = base;
  other.alpha = 0.2;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.nu = 1e-4;
  EXPECT_NE(request_key(other), key);
  other = base;
  other.kappa = 2.0;
  EXPECT_NE(request_key(other), key);
}

TEST(CertKey, NonLmiMethodsShareCertificatesAcrossSynthesisParams) {
  // eq-smt/eq-num/modal results do not depend on alpha/nu/kappa, so an
  // alpha sweep must keep hitting the same certificate.
  CertRequest req = sample_request();
  req.method = lyap::Method::EqNum;
  req.backend = std::nullopt;
  const std::string key = request_key(req);
  req.alpha = 0.5;
  req.nu = 1.0;
  req.kappa = 3.0;
  EXPECT_EQ(request_key(req), key);
}

TEST(CertKey, GoldenBytesAndKeysAreStable) {
  // Pinned literals: certificates already on disk are addressed by these
  // keys, so the canonical bytes (17-significant-digit %.17g doubles) and
  // the two FNV-1a lanes must never drift.  The entries cover signed zero,
  // non-representable decimals, integers, the exponent switch on both
  // sides, the smallest subnormal and DBL_MAX.
  CertRequest eq;
  eq.a = numeric::Matrix{
      {-0.0, 0.1, 3.0},
      {1e21, 1e-5, 123456789012345680.0},
      {std::numeric_limits<double>::denorm_min(), DBL_MAX, -1.0 / 3.0}};
  eq.method = lyap::Method::EqSmt;
  eq.engine = smt::Engine::Sylvester;
  eq.digits = 10;
  EXPECT_EQ(canonical_request_bytes(eq),
            "spiv-req v2\n"
            "method eq-smt backend - engine sylvester digits 10\n"
            "a 3 3\n"
            "-0 0.10000000000000001 3\n"
            "1e+21 1.0000000000000001e-05 1.2345678901234568e+17\n"
            "4.9406564584124654e-324 1.7976931348623157e+308 "
            "-0.33333333333333331\n");
  EXPECT_EQ(request_key(eq), "73397793b9a051c5632dad2ea27c06f6");

  CertRequest lmi;
  lmi.a = numeric::Matrix{{-2.0, 1.0}, {0.25, -3.0}};
  lmi.method = lyap::Method::LmiAlphaPlus;
  lmi.backend = sdp::Backend::FastInteriorPoint;
  lmi.engine = smt::Engine::Ldlt;
  lmi.digits = 6;
  lmi.alpha = 0.05;
  lmi.nu = 1e-3;
  lmi.kappa = 1.0;
  EXPECT_EQ(canonical_request_bytes(lmi),
            "spiv-req v2\n"
            "method LMIa+ backend fast-ipm engine ldlt digits 6\n"
            "alpha 0.050000000000000003 nu 0.001 kappa 1\n"
            "a 2 2\n"
            "-2 1\n"
            "0.25 -3\n");
  EXPECT_EQ(request_key(lmi), "e385c1dae4761f7916d6ae6a3fb96b7c");
}

// -------------------------------------------------------------- format

TEST(CertFormat, ExactRoundTripIncludingRationalExactP) {
  const CertRecord rec = sample_record();
  const std::string key = request_key(sample_request());
  const std::string text = cert_to_string(key, rec);
  const CertRecord back = cert_from_string(text, key);
  expect_records_equal(rec, back);
}

TEST(CertFormat, RoundTripWithoutOptionalFields) {
  CertRecord rec;
  rec.candidate.method = lyap::Method::Modal;
  rec.candidate.p = numeric::Matrix{{1.0}};
  rec.validation.positivity.outcome = smt::Outcome::Valid;
  rec.validation.decrease.outcome = smt::Outcome::Valid;
  const std::string text = cert_to_string("k", rec);
  const CertRecord back = cert_from_string(text, "k");
  expect_records_equal(rec, back);
}

TEST(CertFormat, GoldenBytesAndChecksumAreStable) {
  // Pinned literal: certificates already on disk must keep parsing and
  // their checksums must keep matching.
  const std::string key = "0123456789abcdef0123456789abcdef";
  const std::string text = cert_to_string(key, sample_record());
  EXPECT_EQ(text,
            "spiv-cert v1\n"
            "key 0123456789abcdef0123456789abcdef\n"
            "method eq-smt\n"
            "synth_seconds 0.012345678901234567\n"
            "p 2 2\n"
            "0.30000000000000004 -1.0000000000000001e-17\n"
            "-1.0000000000000001e-17 12345.678901234567\n"
            "exact_p 2 2\n"
            "17636684144620811271604938270/141093474442680776015696649031 "
            "-7/3\n"
            "-7/3 3602879701896397/36028797018963968\n"
            "positivity valid seconds 0.001220703125 witness none\n"
            "decrease invalid seconds 7.0000000000000007e-05 witness 2\n"
            "1/1 -355/113\n"
            "checksum 51b59245ccd147a6\n");
  expect_records_equal(sample_record(), cert_from_string(text, key));
}

TEST(CertFormat, RejectsDamage) {
  const std::string key = request_key(sample_request());
  const std::string good = cert_to_string(key, sample_record());

  // Truncation (checksum line gone entirely).
  EXPECT_THROW(cert_from_string(good.substr(0, good.size() / 2), key),
               std::runtime_error);
  // Flipped payload byte: checksum mismatch.
  std::string corrupt = good;
  corrupt[good.find("method") + 1] = 'X';
  EXPECT_THROW(cert_from_string(corrupt, key), std::runtime_error);
  // Wrong key.
  EXPECT_THROW(cert_from_string(good, "deadbeef"), std::runtime_error);
  // Version mismatch (re-checksummed so only the version is wrong).
  std::string v2 = good;
  v2.replace(v2.find("spiv-cert v1"), 12, "spiv-cert v2");
  const std::string body = v2.substr(0, v2.rfind("checksum "));
  std::ostringstream sum;
  sum << "checksum " << std::hex << std::setfill('0') << std::setw(16)
      << fnv1a64(body) << "\n";
  EXPECT_THROW(cert_from_string(body + sum.str(), key), std::runtime_error);
}

// --------------------------------------------------------------- store

TEST(CertStore, DiskRoundTripAcrossInstances) {
  TempDir dir{"roundtrip"};
  const std::string key = request_key(sample_request());
  {
    CertStore store{dir.path()};
    EXPECT_EQ(store.lookup(key), nullptr);
    store.insert(key, sample_record());
    EXPECT_EQ(store.stats().writes, 1u);
  }
  CertStore fresh{dir.path()};  // cold memory tier: must come from disk
  auto rec = fresh.lookup(key);
  ASSERT_NE(rec, nullptr);
  expect_records_equal(sample_record(), *rec);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  // Second lookup is served from memory — and shares the cached record
  // instead of deep-copying it.
  auto again = fresh.lookup(key);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again.get(), rec.get());
  EXPECT_EQ(fresh.stats().memory_hits, 1u);
}

TEST(CertStore, CorruptTruncatedAndMismatchedEntriesAreMisses) {
  TempDir dir{"corrupt"};
  const std::string key = request_key(sample_request());
  CertStore writer{dir.path()};
  writer.insert(key, sample_record());
  const std::string path = writer.path_for(key);

  const auto damaged_lookup = [&](const std::string& contents) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << contents;
    out.close();
    CertStore fresh{dir.path()};  // bypass the memory tier
    return fresh.lookup(key);
  };

  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string good = buf.str();
  in.close();

  EXPECT_EQ(damaged_lookup(good.substr(0, good.size() - 7)), nullptr);
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_EQ(damaged_lookup(flipped), nullptr);
  EXPECT_EQ(damaged_lookup("spiv-cert v7 garbage\n"), nullptr);
  EXPECT_EQ(damaged_lookup(""), nullptr);

  // A fresh insert repairs the damaged entry.
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << "garbage";
  }
  CertStore repair{dir.path()};
  EXPECT_EQ(repair.lookup(key), nullptr);
  repair.insert(key, sample_record());
  auto rec = repair.lookup(key);
  ASSERT_NE(rec, nullptr);
  expect_records_equal(sample_record(), *rec);
}

TEST(CertStore, LruEvictionFallsBackToDisk) {
  TempDir dir{"lru"};
  // Capacity 16 total = 1 per shard: inserting several keys that land in
  // one shard evicts all but the newest from memory, but disk still serves.
  CertStore store{dir.path(), /*memory_capacity=*/16};
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i)
    keys.push_back(request_key(sample_request(1.0 + i)));
  for (const auto& k : keys) store.insert(k, sample_record());
  for (const auto& k : keys) EXPECT_NE(store.lookup(k), nullptr) << k;
  const StoreStats s = store.stats();
  EXPECT_EQ(s.memory_hits + s.disk_hits, keys.size());
  EXPECT_EQ(s.misses, 0u);
}

TEST(CertStore, UppercaseAndGarbageKeysShardSafely) {
  TempDir dir{"oddkeys"};
  CertStore store{dir.path()};
  // Keys normally end in a lowercase-hex nibble; the shard picker must
  // still behave for caller-supplied keys ending in uppercase hex or
  // arbitrary bytes (the old arithmetic wrapped `c - '0'` negative).
  const CertRecord rec = sample_record();
  for (const std::string key :
       {"0123456789ABCDEF", "oddkeyZ", "oddkey!", "oddkey~", "K"}) {
    EXPECT_EQ(store.lookup(key), nullptr) << key;
    store.insert(key, rec);
    auto hit = store.lookup(key);
    ASSERT_NE(hit, nullptr) << key;
    expect_records_equal(rec, *hit);
  }
}

TEST(CertStore, MemoryOnlyLookupNeverReadsDiskAndCountsOnlyHits) {
  TempDir dir{"memonly"};
  const std::string key = request_key(sample_request());
  {
    CertStore writer{dir.path()};
    writer.insert(key, sample_record());
  }
  // A fresh store over the populated directory: the certificate is on disk
  // only.  The memory-only probe misses without counting anything, so the
  // full lookup that follows counts the request once.
  CertStore store{dir.path()};
  EXPECT_EQ(store.lookup_memory(key), nullptr);
  StoreStats s = store.stats();
  EXPECT_EQ(s.memory_hits + s.disk_hits + s.misses, 0u);
  ASSERT_NE(store.lookup(key), nullptr);
  s = store.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  // The disk hit warmed the memory tier, which now answers alone.
  const auto hit = store.lookup_memory(key);
  ASSERT_NE(hit, nullptr);
  expect_records_equal(sample_record(), *hit);
  EXPECT_EQ(store.stats().memory_hits, 1u);
  EXPECT_EQ(store.lookup_memory("not-a-key"), nullptr);
  EXPECT_EQ(store.stats().misses, 0u);
}

// ------------------------------------------------------- negative tier

TEST(CertStoreNegative, RemembersReasonWithTtlAndCountsPerTier) {
  TempDir dir{"neg"};
  CertStore store{dir.path()};
  EXPECT_FALSE(store.lookup_negative("k", 1.0).has_value());
  store.insert_negative("k", "synth-failed", /*budget_seconds=*/0.0,
                        /*ttl_seconds=*/60.0);
  const auto hit = store.lookup_negative("k", 123.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reason, "synth-failed");
  const StoreStats s = store.stats();
  EXPECT_EQ(s.negative_writes, 1u);
  EXPECT_EQ(s.negative_hits, 1u);
  // Negatives never become certificates: the positive tiers are untouched.
  EXPECT_EQ(s.writes, 0u);
  EXPECT_EQ(s.memory_entries, 0u);
}

TEST(CertStoreNegative, EntriesExpireAfterTheTtl) {
  TempDir dir{"negttl"};
  CertStore store{dir.path()};
  store.insert_negative("gone", "timeout-synthesis", 5.0, /*ttl=*/0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(store.lookup_negative("gone", 1.0).has_value());
  // TTL <= 0 disables the write entirely.
  store.insert_negative("noop", "synth-failed", 0.0, 0.0);
  EXPECT_FALSE(store.lookup_negative("noop", 1.0).has_value());
  EXPECT_EQ(store.stats().negative_writes, 1u);
}

TEST(CertStoreNegative, HugeTtlsSaturateInsteadOfExpiringAtOnce) {
  // --neg-ttl accepts up to 1e18 s; a TTL past the steady_clock range must
  // mean "effectively never expires", not overflow into a past expiry.
  TempDir dir{"neghuge"};
  CertStore store{dir.path()};
  for (double ttl : {1e10, 1e18}) {
    const std::string key = "huge" + std::to_string(ttl);
    store.insert_negative(key, "synth-failed", 0.0, ttl);
    EXPECT_TRUE(store.lookup_negative(key, 1.0).has_value()) << "ttl " << ttl;
  }
}

TEST(CertStoreNegative, TimeoutEntriesShieldOnlySmallerOrEqualBudgets) {
  TempDir dir{"negbudget"};
  CertStore store{dir.path()};
  store.insert_negative("t", "timeout-validation", /*budget=*/10.0, 60.0);
  // A run that timed out at 10 s shields retries with <= 10 s of budget...
  EXPECT_TRUE(store.lookup_negative("t", 10.0).has_value());
  EXPECT_TRUE(store.lookup_negative("t", 1.0).has_value());
  // ...but a bigger budget deserves a fresh attempt.
  EXPECT_FALSE(store.lookup_negative("t", 30.0).has_value());
  // budget_seconds == 0 marks a budget-independent failure (synth-failed):
  // it shields any budget, and a budget-bound entry never replaces it.
  store.insert_negative("s", "synth-failed", 0.0, 60.0);
  store.insert_negative("s", "timeout-synthesis", 10.0, 60.0);
  const auto hit = store.lookup_negative("s", 1e9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reason, "synth-failed");
}

TEST(CertStoreNegative, ACertificateSupersedesARememberedFailure) {
  // A run that timed out at 1 s, then a bigger budget that produced a
  // certificate: the certificate answers every budget from then on, even
  // once the memory tier has evicted it, so a memory-only probe (memory
  // tier, then negative tier) answers what a full lookup would.
  TempDir dir{"negcert"};
  CertStore store{dir.path(), /*memory_capacity=*/16};
  const std::string key = request_key(sample_request());
  store.insert_negative(key, "timeout-synthesis", /*budget=*/1.0, 60.0);
  ASSERT_TRUE(store.lookup_negative(key, 0.5).has_value());
  store.insert(key, sample_record());
  EXPECT_FALSE(store.lookup_negative(key, 0.5).has_value());
  // A disk hit drops it too (the failure was remembered after the write).
  CertStore fresh{dir.path()};
  fresh.insert_negative(key, "timeout-synthesis", 1.0, 60.0);
  ASSERT_NE(fresh.lookup(key), nullptr);
  EXPECT_FALSE(fresh.lookup_negative(key, 0.5).has_value());
}

TEST(CertStoreNegative, MemoryEntriesGaugeTracksTheLruExactly) {
  TempDir dir{"negentries"};
  CertStore store{dir.path(), /*memory_capacity=*/16};  // 1 per shard
  EXPECT_EQ(store.stats().memory_entries, 0u);
  const std::string key = request_key(sample_request());
  store.insert(key, sample_record());
  EXPECT_EQ(store.stats().memory_entries, 1u);
  store.insert(key, sample_record());  // replace, not grow
  EXPECT_EQ(store.stats().memory_entries, 1u);
  // Keys colliding in one shard evict (capacity 1 per shard): the gauge
  // follows the evictions instead of counting monotonically.
  std::size_t inserted = 1;
  for (int i = 0; i < 6; ++i) {
    store.insert(request_key(sample_request(2.0 + i)), sample_record());
    ++inserted;
  }
  const std::size_t entries = store.stats().memory_entries;
  EXPECT_LE(entries, inserted);
  EXPECT_GE(entries, 1u);
}

// ---------------------------------------------------------- concurrency

TEST(CertStore, WorkersRacingOneKeyProduceOneEntryAndIdenticalResults) {
  TempDir dir{"race"};
  CertStore store{dir.path()};
  const std::string key = request_key(sample_request());
  const CertRecord record = sample_record();
  const std::string expected = cert_to_string(key, record);

  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kRounds = 25;
  std::atomic<int> failures{0};
  core::JobPool pool{kWorkers};
  for (std::size_t w = 0; w < kWorkers; ++w)
    pool.submit([&] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        auto hit = store.lookup(key);
        if (!hit) {
          store.insert(key, record);  // racing inserts of identical bytes
          hit = store.lookup(key);
        }
        if (!hit || cert_to_string(key, *hit) != expected)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  pool.wait_idle();
  EXPECT_EQ(failures.load(), 0);

  // Exactly one store entry: every tmp file was renamed or removed.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    ++files;
    EXPECT_EQ(entry.path().filename().string(), key + ".spivcert");
  }
  EXPECT_EQ(files, 1u);

  auto final_rec = store.lookup(key);
  ASSERT_NE(final_rec, nullptr);
  expect_records_equal(record, *final_rec);
}

}  // namespace
}  // namespace spiv::store
