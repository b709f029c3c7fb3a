// Distributed hash table (paper §IV-C).
//
// Three insert strategies, exactly as the paper discusses:
//   * RpcOnly      — one RPC carries key+value; the target inserts into its
//                    local std::unordered_map (the paper's first listing).
//   * RpcRma       — the zero-copy variant: an RPC of make_lz allocates a
//                    landing zone in the target's shared segment and records
//                    {global_ptr, len} in the local map; the value data then
//                    travels by one-sided rput chained with .then (the
//                    paper's second listing). Better for larger values.
//   * OldApi       — the v0.1 reconstruction from §V-A: *blocking* remote
//                    allocation followed by *blocking* RMA, with events; the
//                    ablation bench shows the latency/overlap penalty.
//
// Key type is std::string (as in the paper's exposition); the benchmark in
// bench/fig4 uses 8-byte random keys rendered into strings, and value sizes
// swept as in Fig 4. find() is implemented with RPC for RpcOnly and with
// RPC(pointer lookup) + rget for RpcRma.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oldupcxx/oldupcxx.hpp"
#include "upcxx/upcxx.hpp"

namespace dht {

// FNV-1a; deterministic across ranks so get_target agrees everywhere.
inline std::uint64_t hash_key(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------------ RpcOnly

class RpcOnlyMap {
 public:
  explicit RpcOnlyMap(const upcxx::team& tm = upcxx::world())
      : tm_(&tm), store_(std::unordered_map<std::string, std::string>{}) {}

  upcxx::intrank_t get_target(const std::string& key) const {
    return static_cast<upcxx::intrank_t>(hash_key(key) %
                                         static_cast<std::uint64_t>(
                                             tm_->rank_n()));
  }

  // Asynchronous insert: one RPC, value shipped inline (paper listing 1).
  upcxx::future<> insert(const std::string& key, const std::string& val) {
    return upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<std::unordered_map<std::string, std::string>>&
               lm,
           const std::string& k, const std::string& v) {
          lm->insert_or_assign(k, v);
        },
        store_, key, val);
  }

  // Asynchronous find; empty optional when absent.
  upcxx::future<std::optional<std::string>> find(const std::string& key) {
    return upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<std::unordered_map<std::string, std::string>>&
               lm,
           const std::string& k) -> std::optional<std::string> {
          auto it = lm->find(k);
          if (it == lm->end()) return std::nullopt;
          return it->second;
        },
        store_, key);
  }

  // Asynchronous erase; future carries true when a mapping was removed.
  upcxx::future<bool> erase(const std::string& key) {
    return upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<std::unordered_map<std::string, std::string>>&
               lm,
           const std::string& k) { return lm->erase(k) > 0; },
        store_, key);
  }

  // In-place update at the owner (the paper's Vertex motif: "if we wish to
  // update a vertex ... that is easy to do with RPCs"). fn runs on the
  // owner against the mapped value, default-inserting when absent; it must
  // be a capture-free callable of signature void(std::string&).
  template <typename Fn>
  upcxx::future<> update(const std::string& key, Fn fn) {
    return upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<std::unordered_map<std::string, std::string>>&
               lm,
           const std::string& k, Fn f) { f((*lm)[k]); },
        store_, key, fn);
  }

  // Bulk insert riding the aggregated message path (message layer v2): the
  // RPCs are issued back-to-back with no intervening progress, so the
  // per-target aggregation buffer packs them into multi-message frames —
  // one ring transaction per ~Aggregator::kMaxFrameMsgs elements instead of
  // one each.
  // The returned future completes when every element is acknowledged.
  upcxx::future<> insert_batch(
      const std::vector<std::pair<std::string, std::string>>& kvs) {
    upcxx::promise<> pr;
    for (const auto& [k, v] : kvs) {
      pr.require_anonymous(1);
      insert(k, v).then([pr]() mutable { pr.fulfill_anonymous(1); });
    }
    return pr.finalize();
  }

  // Bulk find, same aggregation pattern; results arrive positionally.
  upcxx::future<std::vector<std::optional<std::string>>> find_batch(
      const std::vector<std::string>& keys) {
    auto out = std::make_shared<std::vector<std::optional<std::string>>>(
        keys.size());
    upcxx::promise<> pr;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      pr.require_anonymous(1);
      find(keys[i]).then(
          [out, i, pr](const std::optional<std::string>& v) mutable {
            (*out)[i] = v;
            pr.fulfill_anonymous(1);
          });
    }
    return pr.finalize().then([out] { return std::move(*out); });
  }

  std::size_t local_size() const { return store_->size(); }

 private:
  const upcxx::team* tm_;
  upcxx::dist_object<std::unordered_map<std::string, std::string>> store_;
};

// ------------------------------------------------------------------- RpcRma

// Landing zone: where a value lives in the owner's shared segment (the
// paper's lz_t).
struct lz_t {
  upcxx::global_ptr<char> gptr;
  std::size_t len = 0;
};

class RpcRmaMap {
  using LocalMap = std::unordered_map<std::string, lz_t>;

 public:
  explicit RpcRmaMap(const upcxx::team& tm = upcxx::world())
      : tm_(&tm), store_(LocalMap{}) {}

  ~RpcRmaMap() {
    // Landing zones live in our segment; reclaim them.
    for (auto& [k, lz] : *store_)
      if (!lz.gptr.is_null()) upcxx::deallocate(lz.gptr);
  }

  upcxx::intrank_t get_target(const std::string& key) const {
    return static_cast<upcxx::intrank_t>(hash_key(key) %
                                         static_cast<std::uint64_t>(
                                             tm_->rank_n()));
  }

  // The paper's two-phase insert: RPC make_lz for the landing zone, then a
  // .then-chained zero-copy rput of the value bytes.
  upcxx::future<> insert(const std::string& key, const std::string& val) {
    upcxx::future<upcxx::global_ptr<char>> f = upcxx::rpc(
        (*tm_)[get_target(key)],
        // make_lz: allocate space and record the landing zone (runs at the
        // owner; returns a global pointer suitable for RMA).
        [](upcxx::dist_object<LocalMap>& lm, const std::string& k,
           std::uint64_t len) {
          auto dest = upcxx::allocate<char>(static_cast<std::size_t>(len));
          auto [it, fresh] = lm->insert_or_assign(
              k, lz_t{dest, static_cast<std::size_t>(len)});
          (void)it;
          (void)fresh;
          return dest;
        },
        store_, key, static_cast<std::uint64_t>(val.size() + 1));
    auto v = std::make_shared<std::string>(val);
    return f.then([v](upcxx::global_ptr<char> dest) {
      // Large values ride the asynchronous data-motion engine, which reads
      // the source bytes from later progress polls — anchor them to the
      // operation future instead of letting the continuation's capture die
      // when this lambda returns.
      return upcxx::rput(v->c_str(), dest, v->size() + 1).then([v] {});
    });
  }

  // find: RPC fetches the landing zone, then rget pulls the value.
  upcxx::future<std::optional<std::string>> find(const std::string& key) {
    upcxx::future<lz_t> f = upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<LocalMap>& lm, const std::string& k) {
          auto it = lm->find(k);
          if (it == lm->end()) return lz_t{};
          return it->second;
        },
        store_, key);
    return f.then([](const lz_t& lz) -> upcxx::future<std::optional<std::string>> {
      if (lz.gptr.is_null())
        return upcxx::make_future(std::optional<std::string>{});
      auto buf = std::make_shared<std::vector<char>>(lz.len);
      return upcxx::rget(lz.gptr, buf->data(), lz.len)
          .then([buf]() -> std::optional<std::string> {
            // Landing zones store NUL-terminated value bytes.
            return std::string(buf->data(),
                               buf->size() ? buf->size() - 1 : 0);
          });
    });
  }

  // Asynchronous erase: the owner drops the mapping and frees the landing
  // zone (it lives in the owner's segment, so the owner must deallocate).
  upcxx::future<bool> erase(const std::string& key) {
    return upcxx::rpc(
        (*tm_)[get_target(key)],
        [](upcxx::dist_object<LocalMap>& lm, const std::string& k) {
          auto it = lm->find(k);
          if (it == lm->end()) return false;
          if (!it->second.gptr.is_null()) upcxx::deallocate(it->second.gptr);
          lm->erase(it);
          return true;
        },
        store_, key);
  }

  // Bulk insert: the landing-zone RPCs aggregate into frames (message layer
  // v2) and the value rputs overlap; one future covers the whole batch.
  upcxx::future<> insert_batch(
      const std::vector<std::pair<std::string, std::string>>& kvs) {
    upcxx::promise<> pr;
    for (const auto& [k, v] : kvs) {
      pr.require_anonymous(1);
      insert(k, v).then([pr]() mutable { pr.fulfill_anonymous(1); });
    }
    return pr.finalize();
  }

  std::size_t local_size() const { return store_->size(); }

 private:
  const upcxx::team* tm_;
  upcxx::dist_object<LocalMap> store_;
};

// ------------------------------------------------------------------- OldApi

// §V-A reconstruction: v0.1 had no future-returning RPCs and no completion
// chaining, so the insert (a) blocks on a remote allocation RPC, then (b)
// blocks on the RMA — "which negatively impact latency performance and
// overlap potential". ~50% more code than the v1.0 listing for the same
// effect.
class OldApiMap {
  using LocalMap = std::unordered_map<std::string, lz_t>;

 public:
  explicit OldApiMap(const upcxx::team& tm = upcxx::world())
      : tm_(&tm), store_(LocalMap{}) {}

  ~OldApiMap() {
    for (auto& [k, lz] : *store_)
      if (!lz.gptr.is_null()) upcxx::deallocate(lz.gptr);
  }

  upcxx::intrank_t get_target(const std::string& key) const {
    return static_cast<upcxx::intrank_t>(hash_key(key) %
                                         static_cast<std::uint64_t>(
                                             tm_->rank_n()));
  }

  // Blocking insert, v0.1 style.
  void insert(const std::string& key, const std::string& val) {
    const auto target = (*tm_)[get_target(key)];
    // (1) blocking remote allocation of the landing zone;
    auto dest = oldupcxx::allocate<char>(target, val.size() + 1);
    // (2) async to record the landing zone in the remote map, waited via an
    //     explicit event the caller must manage;
    oldupcxx::event reg;
    oldupcxx::async(target, &reg)(
        [](upcxx::dist_object<LocalMap>& lm, const std::string& k,
           upcxx::global_ptr<char> g, std::uint64_t len) {
          lm->insert_or_assign(k,
                               lz_t{g, static_cast<std::size_t>(len)});
        },
        store_, key, dest, static_cast<std::uint64_t>(val.size() + 1));
    // (3) blocking copy of the value into the landing zone.
    auto src = upcxx::allocate<char>(val.size() + 1);
    std::memcpy(src.local(), val.c_str(), val.size() + 1);
    oldupcxx::copy(src, dest, val.size() + 1);
    upcxx::deallocate(src);
    reg.wait();
  }

  std::optional<std::string> find(const std::string& key) {
    const auto target = (*tm_)[get_target(key)];
    // v0.1: fetch the landing zone via a blocking async round trip into a
    // caller-provided slot, then a blocking copy.
    auto slot = upcxx::allocate<lz_t>(1);
    auto slot_gp = slot;
    oldupcxx::event e;
    oldupcxx::async(target, &e)(
        [](upcxx::dist_object<LocalMap>& lm, const std::string& k,
           upcxx::global_ptr<lz_t> out) {
          lz_t lz{};
          auto it = lm->find(k);
          if (it != lm->end()) lz = it->second;
          // Write back into the caller's slot; the reply (and with it the
          // caller's event) waits for the put's operation completion, since
          // nothing else orders the put before the reply.
          return upcxx::rput(lz, out);
        },
        store_, key, slot_gp);
    e.wait();
    lz_t lz = *slot.local();
    upcxx::deallocate(slot);
    if (lz.gptr.is_null()) return std::nullopt;
    std::vector<char> buf(lz.len);
    auto tmp = upcxx::allocate<char>(lz.len);
    oldupcxx::copy(lz.gptr, tmp, lz.len);
    std::memcpy(buf.data(), tmp.local(), lz.len);
    upcxx::deallocate(tmp);
    return std::string(buf.data(), buf.size() ? buf.size() - 1 : 0);
  }

  std::size_t local_size() const { return store_->size(); }

 private:
  const upcxx::team* tm_;
  upcxx::dist_object<LocalMap> store_;
};

}  // namespace dht
