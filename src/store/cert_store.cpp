#include "store/cert_store.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/env.hpp"
#include "exact/timeout.hpp"

namespace spiv::store {

namespace fs = std::filesystem;

namespace {

/// Seconds elapsed since `t0` (store-tier latency observations).
double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

CertStore::CertStore(std::string dir, std::size_t memory_capacity)
    : dir_(std::move(dir)),
      shard_capacity_(std::max<std::size_t>(1, memory_capacity / kShards)),
      m_memory_hits_(
          obs::Registry::global().counter("spiv_store_memory_hits_total")),
      m_disk_hits_(
          obs::Registry::global().counter("spiv_store_disk_hits_total")),
      m_misses_(obs::Registry::global().counter("spiv_store_misses_total")),
      m_writes_(obs::Registry::global().counter("spiv_store_writes_total")),
      m_negative_hits_(
          obs::Registry::global().counter("spiv_store_negative_hits_total")),
      m_negative_writes_(
          obs::Registry::global().counter("spiv_store_negative_writes_total")),
      lookup_memory_seconds_(obs::Registry::global().histogram(
          "spiv_store_lookup_seconds{tier=\"memory\"}")),
      lookup_disk_seconds_(obs::Registry::global().histogram(
          "spiv_store_lookup_seconds{tier=\"disk\"}")),
      lookup_miss_seconds_(obs::Registry::global().histogram(
          "spiv_store_lookup_seconds{tier=\"miss\"}")),
      insert_seconds_(
          obs::Registry::global().histogram("spiv_store_insert_seconds")) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("cert store: cannot create cache directory '" +
                             dir_ + "'");
}

std::string CertStore::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + ".spivcert")).string();
}

CertStore::Shard& CertStore::shard_for(const std::string& key) {
  // Keys are hex strings of a uniform hash; the last nibble is as good a
  // shard index as any.  Keys are caller-supplied, though, so decode
  // defensively: uppercase hex maps like lowercase, anything else hashes
  // by raw byte value instead of wrapping through a negative `c - '0'`.
  const unsigned char c =
      key.empty() ? '0' : static_cast<unsigned char>(key.back());
  std::size_t nibble;
  if (c >= '0' && c <= '9')
    nibble = static_cast<std::size_t>(c - '0');
  else if (c >= 'a' && c <= 'f')
    nibble = static_cast<std::size_t>(c - 'a' + 10);
  else if (c >= 'A' && c <= 'F')
    nibble = static_cast<std::size_t>(c - 'A' + 10);
  else
    nibble = static_cast<std::size_t>(c) & 0xF;
  return shards_[nibble % kShards];
}

void CertStore::remember(const std::string& key,
                         std::shared_ptr<const CertRecord> rec) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // A certificate answers every budget: a remembered failure of its key
  // would only shadow it once the LRU evicts it (see lookup_negative).
  shard.negatives.erase(key);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    memory_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(rec));
  shard.index[key] = shard.lru.begin();
  memory_entries_.fetch_add(1, std::memory_order_relaxed);
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    memory_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void CertStore::insert_negative(const std::string& key,
                                const std::string& reason,
                                double budget_seconds, double ttl_seconds) {
  if (!(ttl_seconds > 0.0)) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Bound the tier: sweep expired entries when it grows past the shard's
  // LRU capacity, then evict arbitrarily — negatives are an optimization,
  // dropping one only costs a recompute.
  if (shard.negatives.size() >= shard_capacity_ + 64) {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = shard.negatives.begin(); it != shard.negatives.end();)
      it = it->second.expires <= now ? shard.negatives.erase(it)
                                     : std::next(it);
    if (shard.negatives.size() >= shard_capacity_ + 64)
      shard.negatives.erase(shard.negatives.begin());
  }
  NegativeEntry entry;
  entry.reason = reason;
  entry.budget_seconds = budget_seconds;
  // Saturated: --neg-ttl accepts TTLs up to 1e18 s.
  entry.expires = saturating_add(std::chrono::steady_clock::now(),
                                 std::chrono::duration<double>(ttl_seconds));
  // Keep the more general entry: a live budget-independent failure already
  // shields everything a budget-bound one would, so only refresh its expiry.
  auto it = shard.negatives.find(key);
  if (it != shard.negatives.end() && it->second.budget_seconds == 0.0 &&
      budget_seconds > 0.0 &&
      it->second.expires > std::chrono::steady_clock::now()) {
    if (entry.expires > it->second.expires) it->second.expires = entry.expires;
    return;
  }
  shard.negatives[key] = std::move(entry);
  negative_writes_.fetch_add(1, std::memory_order_relaxed);
  m_negative_writes_.add();
}

std::optional<NegativeEntry> CertStore::lookup_negative(
    const std::string& key, double budget_seconds) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.negatives.find(key);
  if (it == shard.negatives.end()) return std::nullopt;
  if (it->second.expires <= std::chrono::steady_clock::now()) {
    shard.negatives.erase(it);
    return std::nullopt;
  }
  // A budget-bound failure only shields requests with no more budget than
  // the run that failed; a bigger budget deserves a fresh attempt.
  if (it->second.budget_seconds > 0.0 &&
      budget_seconds > it->second.budget_seconds)
    return std::nullopt;
  negative_hits_.fetch_add(1, std::memory_order_relaxed);
  m_negative_hits_.add();
  return it->second;
}

std::shared_ptr<const CertRecord> CertStore::lookup_memory(
    const std::string& key) {
  const auto t0 = std::chrono::steady_clock::now();
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  memory_hits_.fetch_add(1, std::memory_order_relaxed);
  m_memory_hits_.add();
  lookup_memory_seconds_.observe(since(t0));
  return it->second->second;
}

std::shared_ptr<const CertRecord> CertStore::lookup(const std::string& key) {
  const auto t0 = std::chrono::steady_clock::now();
  if (auto rec = lookup_memory(key)) return rec;
  // Disk tier (no shard lock held across I/O).
  std::ifstream in{path_for(key), std::ios::binary};
  if (!in) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    m_misses_.add();
    lookup_miss_seconds_.observe(since(t0));
    return nullptr;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    auto rec = std::make_shared<const CertRecord>(
        cert_from_string(buf.str(), key));
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    m_disk_hits_.add();
    remember(key, rec);
    lookup_disk_seconds_.observe(since(t0));
    return rec;
  } catch (const std::exception&) {
    // Corrupt / truncated / version-mismatched entry: a miss, not an error.
    misses_.fetch_add(1, std::memory_order_relaxed);
    m_misses_.add();
    lookup_miss_seconds_.observe(since(t0));
    return nullptr;
  }
}

void CertStore::insert(const std::string& key, const CertRecord& record) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string text = cert_to_string(key, record);
  // Unique temp name per writer so racing inserts never clobber each
  // other's in-flight bytes; the final rename is atomic within dir_.
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_name;
  tmp_name << key << ".tmp." << std::hash<std::thread::id>{}(
                  std::this_thread::get_id())
           << "." << counter.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp = fs::path(dir_) / tmp_name.str();
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return;  // read-only cache dir: degrade to memory-only
    out << text;
    if (!out.flush()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path_for(key), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  m_writes_.add();
  remember(key, std::make_shared<const CertRecord>(record));
  insert_seconds_.observe(since(t0));
}

StoreStats CertStore::stats() const {
  StoreStats s;
  s.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  s.negative_writes = negative_writes_.load(std::memory_order_relaxed);
  s.memory_entries = memory_entries_.load(std::memory_order_relaxed);
  return s;
}

CertStore* CertStore::from_env() {
  static std::unique_ptr<CertStore> store = [] {
    const std::string dir = core::env::cache_dir();
    if (dir.empty()) return std::unique_ptr<CertStore>{};
    try {
      return std::make_unique<CertStore>(dir);
    } catch (const std::exception& e) {
      std::cerr << "spiv: certificate cache disabled: " << e.what() << "\n";
      return std::unique_ptr<CertStore>{};
    }
  }();
  return store.get();
}

}  // namespace spiv::store
