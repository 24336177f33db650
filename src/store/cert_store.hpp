// spiv::store — persistent, content-addressed certificate store.
//
// Layout: one `spiv-cert v1` file per request key under a cache directory
// (`<dir>/<32-hex-key>.spivcert`).  Writes go through a temp file in the
// same directory followed by an atomic rename, so concurrent writers and
// crashed runs can never leave a half-written certificate under a live key.
// Reads verify the checksum and the embedded key; any damage — truncation,
// corruption, version mismatch — is a cache miss that triggers recompute,
// never a crash.
//
// An in-memory sharded-mutex LRU fronts the disk: JobPool workers hammering
// the store concurrently only contend on their key's shard, and repeated
// hits on hot certificates skip the filesystem entirely.
// A negative tier rides alongside: failures worth remembering (synthesis
// infeasible, budget exhausted) are cached in memory with a TTL so a storm
// of identical hopeless requests stops re-burning the synthesis budget.
// Negative entries are deliberately NOT persisted — a failure is a claim
// about this process's kernels and budgets, not a portable certificate.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "store/cert_format.hpp"
#include "store/cert_key.hpp"

namespace spiv::store {

/// Hit/miss counters (monotonic, relaxed; exact under any interleaving).
struct StoreStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t negative_writes = 0;
  /// Certificates currently resident in the memory LRU tier.
  std::uint64_t memory_entries = 0;
  [[nodiscard]] std::uint64_t hits() const { return memory_hits + disk_hits; }
};

/// A remembered failure: why it failed and, for budget-bound failures, the
/// budget that was exhausted (0 = failure independent of budget).
struct NegativeEntry {
  std::string reason;           ///< e.g. "synth-failed", "timeout-synthesis"
  double budget_seconds = 0.0;  ///< 0 = shields any budget
  std::chrono::steady_clock::time_point expires{};
};

class CertStore {
 public:
  /// Opens (and creates, if needed) the cache directory.  `memory_capacity`
  /// bounds the total number of certificates kept in RAM across all shards.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit CertStore(std::string dir, std::size_t memory_capacity = 1024);

  CertStore(const CertStore&) = delete;
  CertStore& operator=(const CertStore&) = delete;

  /// Look a certificate up by key: memory first, then disk (which also
  /// warms the memory tier).  Returns nullptr on miss or damaged entry.
  /// Hits share the cached record instead of deep-copying it — exact
  /// rational P matrices can be large, and hot keys are hit per job.
  [[nodiscard]] std::shared_ptr<const CertRecord> lookup(
      const std::string& key);

  /// The memory tier of lookup() alone: never touches the disk.  A hit
  /// counts exactly as lookup()'s memory hit; a miss counts nothing, so a
  /// caller may follow it with lookup() and the request is counted once.
  [[nodiscard]] std::shared_ptr<const CertRecord> lookup_memory(
      const std::string& key);

  /// Persist a certificate (atomic write) and warm the memory tier.
  /// Concurrent inserts under one key are safe: renames are atomic and all
  /// writers of a key serialize identical bytes.
  void insert(const std::string& key, const CertRecord& record);

  /// Convenience: request_key + lookup/insert.
  [[nodiscard]] std::shared_ptr<const CertRecord> lookup(
      const CertRequest& request) {
    return lookup(request_key(request));
  }
  void insert(const CertRequest& request, const CertRecord& record) {
    insert(request_key(request), record);
  }

  /// Remember a failure under `key` for `ttl_seconds`.  `budget_seconds`
  /// > 0 marks a budget-bound failure (timeout): the entry then shields
  /// only requests whose budget is <= the one that failed — a request
  /// with MORE budget might succeed and is allowed through to recompute.
  void insert_negative(const std::string& key, const std::string& reason,
                       double budget_seconds, double ttl_seconds);

  /// Fresh negative entry applicable to a request with `budget_seconds`
  /// of budget, or nullopt.  Expired entries are evicted on the way.
  /// A certificate entering the memory tier (insert, or a disk hit) drops
  /// its key's entry, so a negative entry never shadows a certificate this
  /// store wrote or read: a memory-only probe (lookup_memory, then this)
  /// then answers what lookup() followed by this would.  (A certificate
  /// another process wrote into the directory is seen only by lookup().)
  [[nodiscard]] std::optional<NegativeEntry> lookup_negative(
      const std::string& key, double budget_seconds);

  [[nodiscard]] const std::string& directory() const { return dir_; }
  [[nodiscard]] std::string path_for(const std::string& key) const;
  [[nodiscard]] StoreStats stats() const;

  /// Process-wide store configured by $SPIV_CACHE_DIR; nullptr when the
  /// variable is unset or empty (caching disabled) or the directory cannot
  /// be created (a one-line stderr warning is printed in that case).
  [[nodiscard]] static CertStore* from_env();

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.  The list owns the records; the map
    /// indexes them by key.
    std::list<std::pair<std::string, std::shared_ptr<const CertRecord>>> lru;
    std::unordered_map<std::string, decltype(lru)::iterator> index;
    /// Negative tier (same lock: entries are tiny and touched rarely).
    std::unordered_map<std::string, NegativeEntry> negatives;
  };

  [[nodiscard]] Shard& shard_for(const std::string& key);
  void remember(const std::string& key, std::shared_ptr<const CertRecord> rec);

  std::string dir_;
  std::size_t shard_capacity_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> memory_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  std::atomic<std::uint64_t> negative_writes_{0};
  std::atomic<std::uint64_t> memory_entries_{0};
  // Global-registry mirrors of the counters above plus per-tier lookup and
  // insert latency histograms (resolved once here; observing is wait-free).
  obs::Counter& m_memory_hits_;
  obs::Counter& m_disk_hits_;
  obs::Counter& m_misses_;
  obs::Counter& m_writes_;
  obs::Counter& m_negative_hits_;
  obs::Counter& m_negative_writes_;
  obs::Histogram& lookup_memory_seconds_;
  obs::Histogram& lookup_disk_seconds_;
  obs::Histogram& lookup_miss_seconds_;
  obs::Histogram& insert_seconds_;
};

}  // namespace spiv::store
