// Bounded deterministic response cache (per server / per cluster
// shard, behind ServeConfig::response_cache_entries).
//
// The serving determinism contract makes responses cacheable by
// construction: a result is a pure function of (server_seed, request
// content), so two submissions of the SAME request to the SAME server
// must produce byte-identical responses — the second one can be
// answered from memory without touching the scheduler or the modeled
// backend. That is exactly the idempotent-retry shape the cluster's
// stable-hash placement produces: a retried request id hashes to the
// same shard, so a per-shard cache sees every retry of the ids it
// owns.
//
// Correctness over cleverness:
//   - Lookup keys are the FULL request content, not a hash — a hash
//     collision must never serve another request's bytes. (The cluster
//     still routes by stable hash; the cache just refuses to trust
//     one.)
//   - Every entry retains the request it answers, so a CreditRisk+
//     entry holds the request's portfolio shared_ptr. Requests
//     identify the portfolio by pointer (the portfolio is immutable by
//     contract, request.h), and retaining it guarantees the
//     pointed-to object outlives the entry — a freed-and-reused
//     address can never alias a stale hit.
//   - Eviction is FIFO in insertion order: deterministic, independent
//     of wall-clock and of lookup timing, so a run's hit/miss sequence
//     is reproducible.
//
// A hit counts as submitted + completed (the client observed both) but
// NOT admitted — nothing entered the queue — and the cluster router
// skips ShardBackend::account() for it, so modeled device occupancy
// charges real work only. Hit/miss totals surface in MetricsSnapshot.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/request.h"

namespace dwi::serve {

class ResponseCache {
 public:
  /// `max_entries` bounds EACH kind's store; 0 makes every lookup a
  /// miss and every insert a no-op (disabled).
  explicit ResponseCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// Exact-match lookup on RequestTraits<Req>::key. On a hit, *out
  /// receives a copy of the cached result and the call returns true.
  template <typename Req>
  bool lookup(const Req& req, ResultOf<Req>* out) {
    if (max_entries_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto* store = static_cast<const Store<Req>*>(slot<Req>().get());
    if (store == nullptr) return false;
    const auto it = store->entries.find(RequestTraits<Req>::key(req));
    if (it == store->entries.end()) return false;
    *out = it->second.result;
    return true;
  }

  /// Record a computed response. Overwrites an existing entry for the
  /// same key (idempotent — the determinism contract guarantees the
  /// value is identical); evicts the oldest entry of the same kind
  /// once max_entries is reached.
  template <typename Req>
  void insert(const Req& req, const ResultOf<Req>& result) {
    if (max_entries_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<StoreBase>& store = slot<Req>();
    if (store == nullptr) store = std::make_unique<Store<Req>>();
    static_cast<Store<Req>&>(*store).put(req, result, max_entries_);
  }

  std::size_t max_entries() const { return max_entries_; }

  /// Entries currently stored (all kinds).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& store : stores_) {
      if (store != nullptr) total += store->size();
    }
    return total;
  }

 private:
  struct StoreBase {
    StoreBase() = default;
    StoreBase(const StoreBase&) = delete;
    StoreBase& operator=(const StoreBase&) = delete;
    virtual ~StoreBase() = default;
    virtual std::size_t size() const = 0;
  };

  /// One kind's exact-key store with FIFO eviction in insertion order.
  /// std::map keeps lookups exact and iteration deterministic without
  /// inventing a request hash.
  template <typename Req>
  struct Store final : StoreBase {
    using Key = decltype(RequestTraits<Req>::key(std::declval<const Req&>()));
    struct Entry {
      Req request;  ///< keeps everything the key points at alive
      ResultOf<Req> result;
    };
    std::map<Key, Entry> entries;
    std::deque<Key> order;  ///< FIFO insertion order

    std::size_t size() const override { return entries.size(); }

    void put(const Req& req, const ResultOf<Req>& result,
             std::size_t max_entries) {
      const Key key = RequestTraits<Req>::key(req);
      const bool inserted =
          entries.insert_or_assign(key, Entry{req, result}).second;
      if (!inserted) return;  // overwrite keeps the original FIFO position
      order.push_back(key);
      if (order.size() > max_entries) {
        entries.erase(order.front());
        order.pop_front();
      }
    }
  };

  template <typename Req>
  std::unique_ptr<StoreBase>& slot() {
    return stores_[static_cast<std::size_t>(RequestTraits<Req>::kKind)];
  }

  std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::array<std::unique_ptr<StoreBase>, kNumRequestKinds> stores_;
};

}  // namespace dwi::serve
