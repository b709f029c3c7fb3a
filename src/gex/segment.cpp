#include "gex/segment.hpp"

#include <cstdio>
#include <cstdlib>

namespace gex {

std::uint16_t SegmentMap::add(const void* base, std::size_t bytes,
                              const char* name) {
  if (bytes > kWireAddrOffsetMask) {
    std::fprintf(stderr,
                 "gex: segment '%s' of %zu bytes exceeds the 48-bit wire "
                 "offset space\n",
                 name, bytes);
    std::abort();
  }
  segs_.push_back(Seg{static_cast<const std::byte*>(base),
                      base ? bytes : 0, name});
  return static_cast<std::uint16_t>(segs_.size());
}

WireAddr SegmentMap::try_encode(const void* p) const {
  auto* b = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Seg& s = segs_[i];
    if (s.base && b >= s.base && b < s.base + s.bytes) {
      const auto off = static_cast<std::uint64_t>(b - s.base);
      return (static_cast<std::uint64_t>(i + 1) << kWireAddrOffsetBits) |
             off;
    }
  }
  return 0;
}

WireAddr SegmentMap::encode(const void* p) const {
  const WireAddr wa = try_encode(p);
  if (wa == 0) {
    std::fprintf(stderr,
                 "gex: attempt to put a process-private address %p on the "
                 "wire (no registered segment contains it)\n",
                 p);
    std::abort();
  }
  return wa;
}

void* SegmentMap::decode(WireAddr wa) const {
  void* p = try_decode(wa);
  if (!p) {
    std::fprintf(stderr,
                 "gex: wire record carried address 0x%016llx, which does "
                 "not resolve through the segment registry (segment %llu "
                 "of %zu, offset 0x%llx)\n",
                 static_cast<unsigned long long>(wa),
                 static_cast<unsigned long long>(wa >> kWireAddrOffsetBits),
                 segs_.size(),
                 static_cast<unsigned long long>(wa & kWireAddrOffsetMask));
    std::abort();
  }
  decodes_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

const char* SegmentMap::segment_name(std::uint16_t id) const {
  if (id == 0 || id > segs_.size()) return nullptr;
  return segs_[id - 1].name;
}

}  // namespace gex
