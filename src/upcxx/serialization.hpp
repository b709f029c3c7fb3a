// Serialization of RPC arguments and results (paper §II, §IV-D).
//
// UPC++ serializes RPC callables and arguments into the active-message
// payload. We reproduce the trait-driven design:
//  * TriviallySerializable types (trivially copyable) are byte-copied;
//  * std::string, std::vector, std::array, std::pair, std::tuple, std::map,
//    std::unordered_map, std::optional are supported structurally;
//  * upcxx::view<T> serializes a user-supplied iterator sequence and
//    deserializes as a *non-owning view into the incoming network buffer*
//    (zero-copy) when T is trivially copyable — the mechanism the paper's
//    extend-add uses to avoid copying packed update entries;
//  * upcxx::dist_object<T> arguments travel as a global id and rehydrate to
//    the local representative at the target (paper §II "RPCs include support
//    to automatically and efficiently translate distributed object
//    arguments").
//
// Archives: SizeArchive (measure), WriteArchive (emit into a prepared AM
// buffer), VectorArchive (emit into a byte vector that grows as it goes),
// Reader (consume). Everything is aligned to 8 bytes so views can alias
// the buffer directly.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <array>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/cacheline.hpp"

namespace upcxx {

template <typename T>
class dist_object;  // fwd; serialization hook lives in dist_object.hpp

namespace detail {
// Thrown by dist_object deserialization when the target has not yet
// constructed its local representative; the progress engine catches it and
// requeues the message (UPC++ blocks the RPC until the object exists).
struct dist_object_unready {};
}  // namespace detail

namespace detail {

inline constexpr std::size_t kWireAlign = 8;

class SizeArchive {
 public:
  void bytes(const void*, std::size_t n) { n_ += n; }
  void align(std::size_t a) { n_ = arch::align_up(n_, a); }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class WriteArchive {
 public:
  explicit WriteArchive(void* dst) : base_(static_cast<std::byte*>(dst)) {}
  void bytes(const void* src, std::size_t n) {
    if (n) std::memcpy(base_ + n_, src, n);
    n_ += n;
  }
  void align(std::size_t a) {
    std::size_t up = arch::align_up(n_, a);
    if (up != n_) std::memset(base_ + n_, 0, up - n_);
    n_ = up;
  }
  std::size_t written() const { return n_; }

 private:
  std::byte* base_;
  std::size_t n_ = 0;
};

// One-pass archive for payloads built off the AM hot path (collective
// contributions): every write extends the vector, so no separate size
// pass has to agree with the write pass.
class VectorArchive {
 public:
  void bytes(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(src);
    if (n) buf_.insert(buf_.end(), p, p + n);
  }
  void align(std::size_t a) { buf_.resize(arch::align_up(buf_.size(), a)); }
  std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  Reader(const void* p, std::size_t n)
      : base_(static_cast<const std::byte*>(p)), size_(n) {}

  const void* raw(std::size_t n) {
    assert(off_ + n <= size_);
    const void* p = base_ + off_;
    off_ += n;
    return p;
  }
  void align(std::size_t a) { off_ = arch::align_up(off_, a); }
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    align(alignof(T) > kWireAlign ? kWireAlign : alignof(T));
    T out;
    std::memcpy(&out, raw(sizeof(T)), sizeof(T));
    return out;
  }
  std::size_t remaining() const { return size_ - off_; }
  const std::byte* cursor() const { return base_ + off_; }

 private:
  const std::byte* base_;
  std::size_t size_;
  std::size_t off_ = 0;
};

}  // namespace detail

// Primary serialization trait. Specializations provide:
//   template <class Ar> static void serialize(Ar&, const T&);
//   static deserialized_type deserialize(detail::Reader&);
// `deserialized_type` defaults to T; dist_object and view override it.
template <typename T, typename Enable = void>
struct serialization;

template <typename T>
using deserialized_type_t =
    typename serialization<std::decay_t<T>>::deserialized_type;

template <typename T>
inline constexpr bool is_trivially_serializable_v =
    std::is_trivially_copyable_v<std::decay_t<T>>;

// ---- custom-serialization detection ----------------------------------------
//
// User classes opt in to serialization in either of the ways real UPC++
// provides:
//  * UPCXX_SERIALIZED_FIELDS(a, b, ...) inside the class — the listed
//    members are serialized in order; deserialization default-constructs the
//    object and assigns the fields back;
//  * a member type `upcxx_serialization` with
//      template <class Ar> static void serialize(Ar&, const T&);
//      static T deserialize(upcxx::detail::Reader&);
//    for full control (versioning, re-establishing invariants, skipping
//    caches). The member type takes precedence over the fields macro, and
//    both take precedence over the trivially-copyable byte copy.

namespace detail {

template <typename T, typename = void>
struct has_serialized_fields : std::false_type {};
template <typename T>
struct has_serialized_fields<
    T, std::void_t<decltype(std::declval<const T&>()
                                .upcxx_serialized_fields())>>
    : std::true_type {};

template <typename T, typename = void>
struct has_serialized_values : std::false_type {};
template <typename T>
struct has_serialized_values<
    T, std::void_t<decltype(std::declval<const T&>()
                                .upcxx_serialized_values())>>
    : std::true_type {};

template <typename T, typename = void>
struct has_member_serialization : std::false_type {};
template <typename T>
struct has_member_serialization<T,
                                std::void_t<typename T::upcxx_serialization>>
    : std::true_type {};

template <typename T>
inline constexpr bool has_custom_serialization_v =
    has_serialized_fields<T>::value || has_serialized_values<T>::value ||
    has_member_serialization<T>::value;

// Constructs T from values deserialized in declaration order (braced-list
// evaluation order is guaranteed left-to-right).
template <typename T, typename Tup, std::size_t... I>
T construct_from_reader(Reader& r, std::index_sequence<I...>) {
  return T{serialization<
      std::decay_t<std::tuple_element_t<I, Tup>>>::deserialize(r)...};
}

}  // namespace detail

// ---- trivially copyable ----------------------------------------------------

template <typename T>
struct serialization<
    T, std::enable_if_t<std::is_trivially_copyable_v<T> &&
                        !detail::has_custom_serialization_v<T>>> {
  using deserialized_type = T;
  template <typename Ar>
  static void serialize(Ar& ar, const T& v) {
    ar.align(alignof(T) > detail::kWireAlign ? detail::kWireAlign
                                             : alignof(T));
    ar.bytes(&v, sizeof(T));
  }
  static T deserialize(detail::Reader& r) { return r.pod<T>(); }
};

// ---- user classes: UPCXX_SERIALIZED_FIELDS ---------------------------------

template <typename T>
struct serialization<
    T, std::enable_if_t<detail::has_serialized_fields<T>::value &&
                        !detail::has_serialized_values<T>::value &&
                        !detail::has_member_serialization<T>::value>> {
  using deserialized_type = T;

  template <typename Ar>
  static void serialize(Ar& ar, const T& v) {
    std::apply(
        [&](const auto&... f) {
          (serialization<std::decay_t<decltype(f)>>::serialize(ar, f), ...);
        },
        v.upcxx_serialized_fields());
  }

  static T deserialize(detail::Reader& r) {
    static_assert(std::is_default_constructible_v<T>,
                  "UPCXX_SERIALIZED_FIELDS requires a default-constructible "
                  "type; use a member upcxx_serialization for others");
    T out;
    std::apply(
        [&](auto&... f) {
          // Comma-fold: guaranteed left-to-right, matching serialize order.
          ((f = serialization<std::decay_t<decltype(f)>>::deserialize(r)),
           ...);
        },
        out.upcxx_serialized_fields());
    return out;
  }
};

// ---- user classes: UPCXX_SERIALIZED_VALUES ---------------------------------
//
// The listed *expressions* (evaluated against the object) travel on the
// wire; deserialization reconstructs the object by invoking a constructor
// taking those values in order. Useful when the wire form differs from the
// member layout (e.g. ship polar form, store cartesian).

template <typename T>
struct serialization<
    T, std::enable_if_t<detail::has_serialized_values<T>::value &&
                        !detail::has_member_serialization<T>::value>> {
  using deserialized_type = T;
  using values_tuple =
      decltype(std::declval<const T&>().upcxx_serialized_values());

  template <typename Ar>
  static void serialize(Ar& ar, const T& v) {
    std::apply(
        [&](const auto&... vals) {
          (serialization<std::decay_t<decltype(vals)>>::serialize(ar, vals),
           ...);
        },
        v.upcxx_serialized_values());
  }

  static T deserialize(detail::Reader& r) {
    return detail::construct_from_reader<T, values_tuple>(
        r, std::make_index_sequence<std::tuple_size_v<values_tuple>>{});
  }
};

// ---- user classes: member upcxx_serialization -------------------------------

template <typename T>
struct serialization<
    T, std::enable_if_t<detail::has_member_serialization<T>::value>> {
  using deserialized_type = T;
  template <typename Ar>
  static void serialize(Ar& ar, const T& v) {
    T::upcxx_serialization::serialize(ar, v);
  }
  static T deserialize(detail::Reader& r) {
    return T::upcxx_serialization::deserialize(r);
  }
};

// Helpers for hand-written upcxx_serialization bodies: write one value into
// an archive / read one value back, reusing the library codecs for any
// serializable field type.
template <typename Ar, typename U>
void serialize_one(Ar& ar, const U& v) {
  serialization<std::decay_t<U>>::serialize(ar, v);
}
template <typename U>
U deserialize_one(detail::Reader& r) {
  return serialization<std::decay_t<U>>::deserialize(r);
}

// ---- std::string -----------------------------------------------------------

template <>
struct serialization<std::string> {
  using deserialized_type = std::string;
  template <typename Ar>
  static void serialize(Ar& ar, const std::string& s) {
    std::uint64_t n = s.size();
    ar.align(8);
    ar.bytes(&n, sizeof n);
    ar.bytes(s.data(), n);
  }
  static std::string deserialize(detail::Reader& r) {
    auto n = r.pod<std::uint64_t>();
    const char* p = static_cast<const char*>(r.raw(n));
    return std::string(p, n);
  }
};

// ---- std::vector -----------------------------------------------------------

template <typename T, typename A>
struct serialization<std::vector<T, A>> {
  using deserialized_type = std::vector<T, A>;
  template <typename Ar>
  static void serialize(Ar& ar, const std::vector<T, A>& v) {
    std::uint64_t n = v.size();
    ar.align(8);
    ar.bytes(&n, sizeof n);
    if constexpr (std::is_trivially_copyable_v<T>) {
      ar.align(8);
      ar.bytes(v.data(), n * sizeof(T));
    } else {
      for (const T& e : v) serialization<std::decay_t<T>>::serialize(ar, e);
    }
  }
  static std::vector<T, A> deserialize(detail::Reader& r) {
    auto n = r.pod<std::uint64_t>();
    std::vector<T, A> out;
    out.reserve(n);
    if constexpr (std::is_trivially_copyable_v<T>) {
      r.align(8);
      const T* p = static_cast<const T*>(r.raw(n * sizeof(T)));
      out.assign(p, p + n);
    } else {
      for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(serialization<std::decay_t<T>>::deserialize(r));
    }
    return out;
  }
};

// ---- std::pair / std::tuple / std::optional --------------------------------

template <typename A, typename B>
struct serialization<std::pair<A, B>,
                     std::enable_if_t<!std::is_trivially_copyable_v<
                         std::pair<A, B>>>> {
  using deserialized_type = std::pair<A, B>;
  template <typename Ar>
  static void serialize(Ar& ar, const std::pair<A, B>& p) {
    serialization<std::decay_t<A>>::serialize(ar, p.first);
    serialization<std::decay_t<B>>::serialize(ar, p.second);
  }
  static std::pair<A, B> deserialize(detail::Reader& r) {
    auto a = serialization<std::decay_t<A>>::deserialize(r);
    auto b = serialization<std::decay_t<B>>::deserialize(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename... Ts>
struct serialization<std::tuple<Ts...>,
                     std::enable_if_t<!std::is_trivially_copyable_v<
                         std::tuple<Ts...>>>> {
  using deserialized_type = std::tuple<deserialized_type_t<Ts>...>;
  template <typename Ar>
  static void serialize(Ar& ar, const std::tuple<Ts...>& t) {
    std::apply(
        [&](const Ts&... es) {
          (serialization<std::decay_t<Ts>>::serialize(ar, es), ...);
        },
        t);
  }
  static deserialized_type deserialize(detail::Reader& r) {
    // Deserialize left-to-right (brace-init guarantees order).
    return deserialized_type{
        serialization<std::decay_t<Ts>>::deserialize(r)...};
  }
};

template <typename T>
struct serialization<std::optional<T>,
                     std::enable_if_t<!std::is_trivially_copyable_v<
                         std::optional<T>>>> {
  using deserialized_type = std::optional<T>;
  template <typename Ar>
  static void serialize(Ar& ar, const std::optional<T>& o) {
    std::uint8_t has = o.has_value() ? 1 : 0;
    ar.bytes(&has, 1);
    if (has) serialization<std::decay_t<T>>::serialize(ar, *o);
  }
  static std::optional<T> deserialize(detail::Reader& r) {
    auto has = *static_cast<const std::uint8_t*>(r.raw(1));
    if (!has) return std::nullopt;
    return serialization<std::decay_t<T>>::deserialize(r);
  }
};

// ---- maps -------------------------------------------------------------------

namespace detail {
template <typename Map>
struct map_serialization {
  using deserialized_type = Map;
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  template <typename Ar>
  static void serialize(Ar& ar, const Map& m) {
    std::uint64_t n = m.size();
    ar.align(8);
    ar.bytes(&n, sizeof n);
    for (const auto& [k, v] : m) {
      serialization<std::decay_t<K>>::serialize(ar, k);
      serialization<std::decay_t<V>>::serialize(ar, v);
    }
  }
  static Map deserialize(Reader& r) {
    auto n = r.pod<std::uint64_t>();
    Map out;
    for (std::uint64_t i = 0; i < n; ++i) {
      auto k = serialization<std::decay_t<K>>::deserialize(r);
      auto v = serialization<std::decay_t<V>>::deserialize(r);
      out.emplace(std::move(k), std::move(v));
    }
    return out;
  }
};
}  // namespace detail

template <typename K, typename V, typename C, typename A>
struct serialization<std::map<K, V, C, A>>
    : detail::map_serialization<std::map<K, V, C, A>> {};

template <typename K, typename V, typename H, typename E, typename A>
struct serialization<std::unordered_map<K, V, H, E, A>>
    : detail::map_serialization<std::unordered_map<K, V, H, E, A>> {};

// ---- sequence/set adapters ---------------------------------------------

namespace detail {
// Shared element-wise codec for node-based containers (set, list, deque)
// where the vector fast path does not apply.
template <typename C>
struct sequence_serialization {
  using deserialized_type = C;
  using E = typename C::value_type;
  template <typename Ar>
  static void serialize(Ar& ar, const C& c) {
    std::uint64_t n = c.size();
    ar.align(8);
    ar.bytes(&n, sizeof n);
    for (const auto& e : c) serialization<std::decay_t<E>>::serialize(ar, e);
  }
  static C deserialize(Reader& r) {
    auto n = r.pod<std::uint64_t>();
    C out;
    for (std::uint64_t i = 0; i < n; ++i)
      out.insert(out.end(), serialization<std::decay_t<E>>::deserialize(r));
    return out;
  }
};
}  // namespace detail

template <typename T, typename C, typename A>
struct serialization<std::set<T, C, A>>
    : detail::sequence_serialization<std::set<T, C, A>> {};

template <typename T, typename A>
struct serialization<std::deque<T, A>>
    : detail::sequence_serialization<std::deque<T, A>> {};

template <typename T, typename A>
struct serialization<std::list<T, A>>
    : detail::sequence_serialization<std::list<T, A>> {};

// std::array with non-trivial elements (trivial ones take the memcpy path).
template <typename T, std::size_t N>
struct serialization<std::array<T, N>,
                     std::enable_if_t<!std::is_trivially_copyable_v<
                         std::array<T, N>>>> {
  using deserialized_type = std::array<T, N>;
  template <typename Ar>
  static void serialize(Ar& ar, const std::array<T, N>& a) {
    for (const auto& e : a) serialization<std::decay_t<T>>::serialize(ar, e);
  }
  static std::array<T, N> deserialize(detail::Reader& r) {
    std::array<T, N> out;
    for (std::size_t i = 0; i < N; ++i)
      out[i] = serialization<std::decay_t<T>>::deserialize(r);
    return out;
  }
};

// ------------------------------------------------------------------- view<T>
//
// A serializable, possibly non-owning sequence. On the sender side it wraps
// user iterators (make_view); at the target it aliases the incoming buffer
// when T is trivially copyable, otherwise it owns deserialized elements.

template <typename T, typename Iter = const T*>
class view {
 public:
  using value_type = T;
  using iterator = Iter;

  view() = default;
  view(Iter b, Iter e, std::size_t n) : b_(b), e_(e), n_(n) {}

  Iter begin() const { return b_; }
  Iter end() const { return e_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  // Only for pointer-iterator views (the deserialized form).
  const T& operator[](std::size_t i) const {
    static_assert(std::is_same_v<Iter, const T*>);
    return b_[i];
  }

 private:
  Iter b_{};
  Iter e_{};
  std::size_t n_ = 0;

  template <typename U, typename E>
  friend struct serialization;
  // Owning storage for deserialized non-trivial element types.
  std::shared_ptr<std::vector<T>> owned_;
};

// make_view from a container or an iterator pair.
template <typename Container>
auto make_view(const Container& c)
    -> view<typename Container::value_type,
            typename Container::const_iterator> {
  return {c.begin(), c.end(), static_cast<std::size_t>(c.size())};
}

template <typename Iter>
auto make_view(Iter b, Iter e)
    -> view<typename std::iterator_traits<Iter>::value_type, Iter> {
  return {b, e, static_cast<std::size_t>(std::distance(b, e))};
}

template <typename T, typename Iter>
struct serialization<view<T, Iter>> {
  // Deserialized views always iterate over contiguous memory.
  using deserialized_type = view<T, const T*>;

  template <typename Ar>
  static void serialize(Ar& ar, const view<T, Iter>& v) {
    std::uint64_t n = v.size();
    ar.align(8);
    ar.bytes(&n, sizeof n);
    if constexpr (std::is_trivially_copyable_v<T> &&
                  std::is_pointer_v<Iter>) {
      ar.align(8);
      ar.bytes(v.begin(), n * sizeof(T));
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      ar.align(8);
      for (auto it = v.begin(); it != v.end(); ++it) {
        const T& e = *it;
        ar.bytes(&e, sizeof(T));
      }
    } else {
      for (auto it = v.begin(); it != v.end(); ++it)
        serialization<std::decay_t<T>>::serialize(ar, *it);
    }
  }

  static deserialized_type deserialize(detail::Reader& r) {
    auto n = r.pod<std::uint64_t>();
    if constexpr (std::is_trivially_copyable_v<T>) {
      r.align(8);
      // Zero-copy: alias the network buffer (valid for the duration of the
      // RPC execution, exactly like upcxx::view).
      const T* p = static_cast<const T*>(r.raw(n * sizeof(T)));
      return deserialized_type(p, p + n, n);
    } else {
      auto owned = std::make_shared<std::vector<T>>();
      owned->reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        owned->push_back(serialization<std::decay_t<T>>::deserialize(r));
      deserialized_type out(owned->data(), owned->data() + n, n);
      out.owned_ = owned;
      return out;
    }
  }
};

// ---------------------------------------------------------------- helpers

namespace detail {

// Serialize a pack of values into an archive.
template <typename Ar>
void serialize_args(Ar&) {}

template <typename Ar, typename First, typename... Rest>
void serialize_args(Ar& ar, const First& f, const Rest&... rest) {
  serialization<std::decay_t<First>>::serialize(ar, f);
  serialize_args(ar, rest...);
}

// Deserialize a tuple of Args (by decayed type) from a reader.
template <typename... Args>
std::tuple<deserialized_type_t<Args>...> deserialize_tuple(Reader& r) {
  return std::tuple<deserialized_type_t<Args>...>{
      serialization<std::decay_t<Args>>::deserialize(r)...};
}

}  // namespace detail
}  // namespace upcxx

// Declares the listed members as this class's serialized representation
// (order matters and must be stable across ranks). Expand inside the class
// body, after the members are declared:
//
//   struct Particle {
//     std::string tag;
//     std::vector<double> pos;
//     UPCXX_SERIALIZED_FIELDS(tag, pos)
//   };
#define UPCXX_SERIALIZED_FIELDS(...)                            \
  auto upcxx_serialized_fields() { return std::tie(__VA_ARGS__); } \
  auto upcxx_serialized_fields() const { return std::tie(__VA_ARGS__); }

// Declares the listed expressions as this class's wire representation; the
// type is reconstructed by a constructor accepting those values in order:
//
//   class Interval {
//    public:
//     Interval(double lo, double hi);
//     UPCXX_SERIALIZED_VALUES(lo_, hi_ - lo_ /* any expressions */)
//     ...
//   };
#define UPCXX_SERIALIZED_VALUES(...) \
  auto upcxx_serialized_values() const { return std::make_tuple(__VA_ARGS__); }
