#include "gex/transport.hpp"

#include "gex/arena.hpp"
#include "gex/socket.hpp"

namespace gex {

namespace {

// ------------------------------------------------------------------- mmap
//
// The pre-existing wire: per-rank MPSC rings inside the shared arena
// mapping. Every call forwards to the ring the arena already placed.
// Bridges the ring's two-field ticket into the transport-neutral handle.
Transport::Ticket wrap(const arch::MpscByteRing::Ticket& rt, int target) {
  return Transport::Ticket{rt.hdr, rt.payload, target};
}
arch::MpscByteRing::Ticket unwrap(const Transport::Ticket& t) {
  return arch::MpscByteRing::Ticket{
      static_cast<arch::MpscByteRing::RecordHeader*>(t.h), t.payload};
}

class MmapTransport final : public Transport {
 public:
  MmapTransport(Arena* arena, int me) : arena_(arena), me_(me) {}

  Ticket try_reserve(int target, std::size_t bytes) override {
    return wrap(arena_->inbox(target).try_reserve(bytes), target);
  }
  void commit(const Ticket& t) override {
    arch::MpscByteRing::commit(unwrap(t));
  }
  bool try_consume(RecordVisitor visit, void* cx) override {
    return arena_->inbox(me_).try_consume(
        [&](void* p, std::size_t n) { visit(p, n, cx); });
  }
  std::size_t max_record_payload() const override {
    return arena_->inbox(me_).max_record_payload();
  }
  const char* name() const override { return "mmap"; }

 private:
  Arena* arena_;
  int me_;
};

}  // namespace

Transport* make_transport(Arena* arena, int me) {
  switch (resolve_am_transport(arena->config())) {
    case AmTransport::kSocket:
      return make_socket_transport(arena, me);
    case AmTransport::kMmap:
    case AmTransport::kAuto:
      break;
  }
  return new MmapTransport(arena, me);
}

}  // namespace gex
