// Byte-budgeted LRU cache.
//
// The REED client keeps a 512 MB (default) cache of recently generated MLE
// keys (paper §V-B "Caching"): adjacent backup uploads share most chunks, so
// cached keys turn the key manager from the bottleneck into a cold-start
// cost only. The cache is budgeted in *bytes* rather than entries because
// key-cache sizing in the paper is expressed in MB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "util/thread_annotations.h"

namespace reed {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  // `byte_budget` caps total charged size; `entry_cost` is the fixed
  // accounting charge per entry (key + value + bookkeeping). `rank` places
  // the cache's lock in the global order (util/lock_rank.h) for owners
  // that call it under, or above, their own locks.
  LruCache(std::size_t byte_budget, std::size_t entry_cost,
           LockRank rank = LockRank::kLruCache)
      : mu_(rank), byte_budget_(byte_budget), entry_cost_(entry_cost) {}

  // Returns the cached value and refreshes its recency, or nullopt.
  [[nodiscard]] std::optional<V> Get(const K& key) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  void Put(const K& key, V value) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    used_ += entry_cost_;
    while (used_ > byte_budget_ && !order_.empty()) {
      index_.erase(order_.back().first);
      order_.pop_back();
      used_ -= entry_cost_;
      ++evictions_;
    }
  }

  void Clear() {
    MutexLock lock(mu_);
    order_.clear();
    index_.clear();
    used_ = 0;
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mu_);
    return index_.size();
  }

  [[nodiscard]] std::size_t used_bytes() const {
    MutexLock lock(mu_);
    return used_;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Stats stats() const {
    MutexLock lock(mu_);
    return Stats{hits_, misses_, evictions_};
  }

 private:
  mutable Mutex mu_{LockRank::kLruCache};  // rank set by the constructor
  std::size_t byte_budget_;
  std::size_t entry_cost_;
  std::size_t used_ REED_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ REED_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ REED_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ REED_GUARDED_BY(mu_) = 0;
  std::list<std::pair<K, V>> order_ REED_GUARDED_BY(mu_);
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_ REED_GUARDED_BY(mu_);
};

}  // namespace reed
