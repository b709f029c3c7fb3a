// global_ptr<T> and shared-segment allocation (paper §II).
//
// A global pointer names memory in some rank's shared segment. Reproducing
// the paper's design decisions:
//  * it cannot be dereferenced (`*` is not provided) — all data motion is
//    explicit through rput/rget/RPC/atomics;
//  * it supports pointer arithmetic and passing by value (trivially
//    copyable, hence trivially serializable as an RPC argument);
//  * it converts to/from a raw pointer via local() and to_global_ptr();
//    is_local() reports whether this process can reach the memory with a
//    raw pointer at all.
//
// Representation: (owning rank, wire address). The wire address is the
// segment map's (segment id, offset) name (gex/segment.hpp) — the same
// value the AM wire carries, so no layer translates between two names for
// remote memory. is_local() is true exactly when this process maps the
// segment: every rank's on a shared arena (the analog of GASNet PSHM
// cross-mapping), only its own on an isolated socket rank. Null is wire
// address 0, the reserved id; like UPC++, a null pointer is local and
// local() maps it to nullptr.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>

#include "gex/runtime.hpp"
#include "upcxx/future.hpp"

namespace upcxx {

// Memory kinds (paper §VI future work: transfers "to and from other
// memories (such as that of GPUs)"). `host` is ordinary shared-segment
// memory; `sim_device` is the reproduction's simulated accelerator memory —
// host-backed storage that is *not* host-dereferenceable through the type
// system and whose transfers (upcxx::copy) may carry a simulated
// PCIe-style cost (see device_allocator.hpp).
enum class memory_kind : std::uint8_t {
  host = 0,
  sim_device = 1,
};

template <typename T, memory_kind K = memory_kind::host>
class global_ptr {
 public:
  using element_type = T;
  static constexpr memory_kind kind = K;

  constexpr global_ptr() = default;  // null
  constexpr global_ptr(std::nullptr_t) {}  // NOLINT

  // The global pointer for `p`, which must lie in a segment this process
  // maps (null when it does not).
  static global_ptr from_raw(intrank_t rank, T* p) {
    return from_wire(rank, gex::job_segmap().try_encode(p));
  }
  static global_ptr from_wire(intrank_t rank, gex::WireAddr wa) {
    global_ptr g;
    g.rank_ = rank;
    g.wa_ = wa;
    return g;
  }

  bool is_null() const { return wa_ == 0; }
  explicit operator bool() const { return wa_ != 0; }

  intrank_t where() const { return rank_; }

  // The (segment id, offset) name of the memory: what the wire carries.
  gex::WireAddr wire_addr() const { return wa_; }

  // True when this process can reach the memory with a raw pointer: it
  // maps the segment (or the pointer is null).
  bool is_local() const {
    return wa_ == 0 || gex::job_segmap().try_decode(wa_) != nullptr;
  }

  // Raw pointer usable in this process; requires is_local(). Device-kind
  // pointers are not host-dereferenceable: use upcxx::copy (or the owning
  // device_allocator's backing accessor) instead.
  T* local() const {
    static_assert(K == memory_kind::host,
                  "local() is only available on host-kind global_ptr; "
                  "device memory moves via upcxx::copy");
    assert(is_local() && "local() on memory this process does not map");
    return static_cast<T*>(gex::job_segmap().try_decode(wa_));
  }

  // Pointer arithmetic (element granularity), as in the paper. Offsets
  // stay inside the segment, so the wire address moves like a raw one.
  global_ptr operator+(std::ptrdiff_t d) const {
    return from_wire(rank_, wa_ + bytes(d));
  }
  global_ptr operator-(std::ptrdiff_t d) const {
    return from_wire(rank_, wa_ - bytes(d));
  }
  std::ptrdiff_t operator-(const global_ptr& o) const {
    assert(rank_ == o.rank_);
    return static_cast<std::ptrdiff_t>(wa_ - o.wa_) /
           static_cast<std::ptrdiff_t>(sizeof(T));
  }
  global_ptr& operator+=(std::ptrdiff_t d) {
    wa_ += bytes(d);
    return *this;
  }
  global_ptr& operator-=(std::ptrdiff_t d) {
    wa_ -= bytes(d);
    return *this;
  }
  global_ptr& operator++() { return *this += 1; }
  global_ptr& operator--() { return *this -= 1; }

  friend bool operator==(const global_ptr& a, const global_ptr& b) {
    return a.wa_ == b.wa_ && (a.wa_ == 0 || a.rank_ == b.rank_);
  }
  friend bool operator!=(const global_ptr& a, const global_ptr& b) {
    return !(a == b);
  }
  // Segment ids run in rank order, so this orders pointers by (owning
  // rank, offset), with null first.
  friend bool operator<(const global_ptr& a, const global_ptr& b) {
    return a.wa_ < b.wa_;
  }

  // Reinterpretation (element-type cast), mirroring
  // upcxx::reinterpret_pointer_cast. Preserves the memory kind.
  template <typename U>
  global_ptr<U, K> reinterpret() const {
    return global_ptr<U, K>::from_wire(rank_, wa_);
  }

 private:
  static gex::WireAddr bytes(std::ptrdiff_t d) {
    return static_cast<gex::WireAddr>(d) * sizeof(T);
  }

  intrank_t rank_ = 0;
  gex::WireAddr wa_ = 0;
};

static_assert(std::is_trivially_copyable_v<global_ptr<int>>,
              "global_ptr must remain trivially serializable");

// ------------------------------------------------------ segment allocation

// Allocates n objects of type T (uninitialized) from the calling rank's
// shared segment. Returns null global_ptr on exhaustion.
template <typename T>
global_ptr<T> allocate(std::size_t n = 1,
                       std::size_t align = alignof(T)) {
  auto* r = gex::self();
  assert(r && "allocate() outside SPMD region");
  void* p = r->arena->segment_heap(r->me).allocate(n * sizeof(T), align);
  if (!p) return {};
  return global_ptr<T>::from_raw(r->me, static_cast<T*>(p));
}

// Frees memory obtained from allocate(). Must be called by the owner.
template <typename T>
void deallocate(global_ptr<T> g) {
  if (g.is_null()) return;
  auto* r = gex::self();
  assert(r && g.where() == r->me &&
         "deallocate() must run on the owning rank");
  r->arena->segment_heap(r->me).deallocate(g.local());
}

// new_/delete_: construct/destroy a T in the shared segment.
template <typename T, typename... Args>
global_ptr<T> new_(Args&&... args) {
  global_ptr<T> g = allocate<T>(1);
  assert(!g.is_null() && "shared segment exhausted");
  ::new (static_cast<void*>(g.local())) T(std::forward<Args>(args)...);
  return g;
}

template <typename T>
void delete_(global_ptr<T> g) {
  if (g.is_null()) return;
  g.local()->~T();
  deallocate(g);
}

// new_array / delete_array, value-initialized as in UPC++.
template <typename T>
global_ptr<T> new_array(std::size_t n) {
  global_ptr<T> g = allocate<T>(n);
  assert(!g.is_null() && "shared segment exhausted");
  for (std::size_t i = 0; i < n; ++i)
    ::new (static_cast<void*>(g.local() + i)) T();
  return g;
}

template <typename T>
void delete_array(global_ptr<T> g, std::size_t n) {
  if (g.is_null()) return;
  for (std::size_t i = 0; i < n; ++i) g.local()[i].~T();
  deallocate(g);
}

// Non-asserting variant of to_global_ptr: null if p is not in a shared
// segment this process maps; otherwise a pointer owned by whichever rank's
// segment contains it.
template <typename T>
global_ptr<T> try_global_ptr(T* p) {
  auto* r = gex::self();
  assert(r);
  const gex::WireAddr wa = r->arena->segmap().try_encode(p);
  const int owner = r->arena->segment_owner(wa);
  if (owner < 0) return {};
  return global_ptr<T>::from_wire(owner, wa);
}

// Converts a raw pointer into the calling rank's segment to a global_ptr.
template <typename T>
global_ptr<T> to_global_ptr(T* p) {
  global_ptr<T> g = try_global_ptr(p);
  assert(!g.is_null() && g.where() == gex::rank_me() &&
         "pointer is not into my shared segment");
  return g;
}

}  // namespace upcxx

namespace std {
template <typename T, upcxx::memory_kind K>
struct hash<upcxx::global_ptr<T, K>> {
  size_t operator()(const upcxx::global_ptr<T, K>& g) const {
    return hash<::gex::WireAddr>()(g.wire_addr());
  }
};
}  // namespace std
