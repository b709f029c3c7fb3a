#include "minimpi/minimpi.hpp"

#include <cassert>
#include <cstdlib>
#include <atomic>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "arch/cacheline.hpp"
#include "gex/am.hpp"
#include "gex/runtime.hpp"
#include "gex/wait.hpp"

namespace minimpi {
namespace detail {

struct RequestState {
  bool done = false;
  Status status;
};

// An arrived-but-unmatched message (MPI unexpected queue).
struct Unexpected {
  int src;
  int tag;
  std::byte* data;       // owned (malloc) or adopted rendezvous buffer
  std::size_t bytes;
  bool rendezvous;
};

// A posted receive awaiting a matching arrival.
struct PostedRecv {
  int src;  // kAnySource allowed
  int tag;  // kAnyTag allowed
  void* buf;
  std::size_t max_bytes;
  std::shared_ptr<RequestState> req;
};

// Per-op outstanding one-sided operation record, heap-allocated and linked
// per target, reaped by flush — mirroring the request objects a general MPI
// implementation (MPICH-family) creates for every RMA op. This per-op
// software cost, together with window/epoch validation, is exactly what the
// paper's Fig 3 attributes MPI RMA's latency gap to.
struct RmaOp {
  int target;
  std::size_t bytes;
  std::uint32_t kind;  // 0 = put, 1 = get
  std::unique_ptr<RmaOp> next;
};

struct WinState {
  std::vector<std::byte*> bases;   // per rank
  std::vector<std::size_t> sizes;  // per rank
  std::vector<std::unique_ptr<RmaOp>> pending;  // per-target op lists
  std::vector<std::uint32_t> pending_count;
  // Passive-target epoch state per target (0 = no access epoch yet,
  // 1 = lock-all style epoch open). Checked on every access, as an MPI
  // implementation validates the epoch discipline.
  std::vector<std::uint32_t> epoch;
  std::size_t disp_unit = 1;  // datatype/displacement translation factor
  bool live = true;
};

struct MpiState {
  int rank = -1;
  int nranks = 0;
  std::deque<Unexpected> unexpected;
  std::deque<PostedRecv> posted;
  std::vector<WinState> windows;
  // Dissemination-barrier arrival counts: key = (seq<<8)|round.
  std::unordered_map<std::uint64_t, int> barrier_got;
  std::uint64_t barrier_seq = 0;

  static std::shared_ptr<RequestState> make_done(int src, int tag,
                                                 std::size_t n) {
    auto st = std::make_shared<RequestState>();
    st->done = true;
    st->status = Status{src, tag, n};
    return st;
  }
};

namespace {

MpiState& st() {
  auto* r = gex::self();
  assert(r && r->minimpi_state && "minimpi::init() not called on this rank");
  return *static_cast<MpiState*>(r->minimpi_state);
}

bool match(int posted_src, int posted_tag, int src, int tag) {
  return (posted_src == kAnySource || posted_src == src) &&
         (posted_tag == kAnyTag || posted_tag == tag);
}

// Wire header for two-sided traffic: [SendHdr][payload].
struct SendHdr {
  std::int32_t tag;
};

// Delivers a two-sided message: match a posted receive or queue unexpected.
void send_handler(gex::AmContext& cx) {
  auto& s = st();
  const auto* hdr = static_cast<const SendHdr*>(cx.data);
  const auto* payload =
      reinterpret_cast<const std::byte*>(hdr + 1);
  const std::size_t bytes = cx.size - sizeof(SendHdr);
  for (auto it = s.posted.begin(); it != s.posted.end(); ++it) {
    if (match(it->src, it->tag, cx.src, hdr->tag)) {
      assert(bytes <= it->max_bytes && "message truncation");
      if (bytes) std::memcpy(it->buf, payload, bytes);
      it->req->status = Status{cx.src, hdr->tag, bytes};
      it->req->done = true;
      s.posted.erase(it);
      return;
    }
  }
  // No match: stage a copy on the unexpected queue. For rendezvous arrivals
  // we adopt the shared-heap buffer, but the header sits at its front, so we
  // track the offset via a plain copy for simplicity and free the original.
  auto* copy = static_cast<std::byte*>(std::malloc(bytes ? bytes : 1));
  std::memcpy(copy, payload, bytes);
  s.unexpected.push_back(
      Unexpected{cx.src, hdr->tag, copy, bytes, false});
}

// Barrier round arrival.
struct BarrierHdr {
  std::uint64_t key;
};
void barrier_handler(gex::AmContext& cx) {
  const auto* h = static_cast<const BarrierHdr*>(cx.data);
  ++st().barrier_got[h->key];
}

// Every blocking minimpi call waits here, polling the AM engine (the
// progress inside any MPI call) until done() holds. A failed job ends the
// wait with a throw: a dead peer never sends what the caller waits for,
// and the throw reports this rank as failed instead of hanging it.
template <class Done>
void block_until(Done done) {
  if (!gex::wait_until(done, [] { return gex::self()->am->poll(); }))
    throw std::runtime_error("minimpi: a rank of the job failed");
}

}  // namespace
}  // namespace detail

using detail::MpiState;

void init() {
  auto* r = gex::self();
  assert(r && !r->minimpi_state && "minimpi::init() called twice");
  auto* s = new MpiState();
  s->rank = r->me;
  s->nranks = r->arena->nranks();
  r->minimpi_state = s;
  r->arena->world_barrier();
}

void finalize() {
  barrier();
  auto* r = gex::self();
  auto* s = static_cast<MpiState*>(r->minimpi_state);
  assert(s->posted.empty() && "finalize with posted receives outstanding");
  for (auto& u : s->unexpected) std::free(u.data);
  delete s;
  r->minimpi_state = nullptr;
  r->arena->world_barrier();
}

int rank() { return detail::st().rank; }
int size() { return detail::st().nranks; }

void poll() { gex::self()->am->poll(); }

Request isend(const void* buf, std::size_t bytes, int dest, int tag) {
  auto& s = detail::st();
  assert(dest >= 0 && dest < s.nranks);
  detail::SendHdr hdr{static_cast<std::int32_t>(tag)};
  auto& eng = *gex::self()->am;
  auto sb = eng.prepare(dest, gex::am_handler<&detail::send_handler>(),
                        sizeof(hdr) + bytes);
  std::memcpy(sb.data, &hdr, sizeof(hdr));
  if (bytes)
    std::memcpy(static_cast<std::byte*>(sb.data) + sizeof(hdr), buf, bytes);
  eng.commit(sb);
  // Buffered-send semantics: the payload was copied at injection, so the
  // request is locally complete immediately.
  Request r;
  r.st_ = MpiState::make_done(s.rank, tag, bytes);
  return r;
}

Request irecv(void* buf, std::size_t max_bytes, int source, int tag) {
  auto& s = detail::st();
  Request r;
  // Check the unexpected queue first (arrival order preserved).
  for (auto it = s.unexpected.begin(); it != s.unexpected.end(); ++it) {
    if (detail::match(source, tag, it->src, it->tag)) {
      assert(it->bytes <= max_bytes && "message truncation");
      if (it->bytes) std::memcpy(buf, it->data, it->bytes);
      r.st_ = MpiState::make_done(it->src, it->tag, it->bytes);
      std::free(it->data);
      s.unexpected.erase(it);
      return r;
    }
  }
  r.st_ = std::make_shared<detail::RequestState>();
  s.posted.push_back(detail::PostedRecv{source, tag, buf, max_bytes, r.st_});
  return r;
}

bool Request::done() const { return st_ && st_->done; }
const Status& Request::status() const {
  assert(st_);
  return st_->status;
}

void wait(Request& r, Status* status) {
  assert(r.valid());
  detail::block_until([&r] { return r.st_->done; });
  if (status) *status = r.st_->status;
}

bool test(Request& r, Status* status) {
  assert(r.valid());
  poll();
  if (r.st_->done && status) *status = r.st_->status;
  return r.st_->done;
}

void waitall(Request* reqs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) wait(reqs[i]);
}

void send(const void* buf, std::size_t bytes, int dest, int tag) {
  Request r = isend(buf, bytes, dest, tag);
  wait(r);
}

Status recv(void* buf, std::size_t max_bytes, int source, int tag) {
  Request r = irecv(buf, max_bytes, source, tag);
  Status st;
  wait(r, &st);
  return st;
}

void sendrecv(const void* sbuf, std::size_t sbytes, int dest, int stag,
              void* rbuf, std::size_t rbytes_max, int source, int rtag,
              Status* status) {
  Request rr = irecv(rbuf, rbytes_max, source, rtag);
  Request sr = isend(sbuf, sbytes, dest, stag);
  wait(sr);
  wait(rr, status);
}

void barrier() {
  auto& s = detail::st();
  const std::uint64_t seq = s.barrier_seq++;
  const int P = s.nranks;
  auto& eng = *gex::self()->am;
  for (int k = 1, round = 0; k < P; k <<= 1, ++round) {
    const std::uint64_t key = (seq << 8) | static_cast<unsigned>(round);
    detail::BarrierHdr h{key};
    eng.send((s.rank + k) % P, gex::am_handler<&detail::barrier_handler>(), &h,
             sizeof h);
    detail::block_until([&s, key] { return s.barrier_got[key] >= 1; });
    s.barrier_got.erase(key);
  }
  // Our receives arriving says nothing about our *sends* on a buffered-tx
  // transport (socket): the last round's record can still sit in a
  // user-space queue behind an in-flight connect. The caller may stop
  // polling entirely after this return (finalize's world_barrier is a pure
  // atomic spin), which would strand the record and deadlock its target's
  // barrier. Push everything onto the wire first.
  detail::block_until([&eng] { return eng.transport().tx_quiesced(); });
}

void alltoallv(const void* sendbuf, const std::size_t* sendcounts,
               const std::size_t* senddispls, void* recvbuf,
               const std::size_t* recvcounts, const std::size_t* recvdispls) {
  auto& s = detail::st();
  const int P = s.nranks;
  const auto* sb = static_cast<const std::byte*>(sendbuf);
  auto* rb = static_cast<std::byte*>(recvbuf);
  constexpr int kTag = 0x5A5A;
  // Self-copy first, then the pairwise-exchange schedule. (Guard the
  // zero-byte case: callers may pass null buffers with all-zero counts.)
  if (sendcounts[s.rank])
    std::memcpy(rb + recvdispls[s.rank], sb + senddispls[s.rank],
                sendcounts[s.rank]);
  for (int step = 1; step < P; ++step) {
    const int to = (s.rank + step) % P;
    const int from = (s.rank - step + P) % P;
    sendrecv(sb + senddispls[to], sendcounts[to], to, kTag,
             rb + recvdispls[from], recvcounts[from], from, kTag);
  }
}

void alltoallv_group(const std::vector<int>& members, const void* sendbuf,
                     const std::size_t* sendcounts,
                     const std::size_t* senddispls, void* recvbuf,
                     const std::size_t* recvcounts,
                     const std::size_t* recvdispls, int tag) {
  auto& s = detail::st();
  const int G = static_cast<int>(members.size());
  int me_g = -1;
  for (int i = 0; i < G; ++i)
    if (members[i] == s.rank) me_g = i;
  assert(me_g >= 0 && "caller is not a member of the group");
  const auto* sb = static_cast<const std::byte*>(sendbuf);
  auto* rb = static_cast<std::byte*>(recvbuf);
  std::memcpy(rb + recvdispls[me_g], sb + senddispls[me_g],
              sendcounts[me_g]);
  for (int step = 1; step < G; ++step) {
    const int to_g = (me_g + step) % G;
    const int from_g = (me_g - step + G) % G;
    sendrecv(sb + senddispls[to_g], sendcounts[to_g], members[to_g], tag,
             rb + recvdispls[from_g], recvcounts[from_g], members[from_g],
             tag);
  }
}

// ------------------------------------------------------------- one-sided

Win Win::create(void* base, std::size_t bytes) {
  auto& s = detail::st();
  // Allgather (base, size) with alltoallv's pairwise sendrecv schedule:
  // minimpi's own two-sided traffic, so a dead peer ends the gather in
  // wait's failure exit. MPI windows legitimately store O(ranks) bases —
  // one of the non-scalable constructs the paper's design principles call
  // out.
  struct Slot {
    void* base;
    std::size_t size;
  };
  constexpr int kTag = 0x3114;
  const int P = s.nranks;
  std::vector<Slot> slots(P);
  slots[s.rank] = Slot{base, bytes};
  for (int step = 1; step < P; ++step) {
    const int to = (s.rank + step) % P;
    const int from = (s.rank - step + P) % P;
    sendrecv(&slots[s.rank], sizeof(Slot), to, kTag, &slots[from],
             sizeof(Slot), from, kTag);
  }
  detail::WinState w;
  w.bases.resize(s.nranks);
  w.sizes.resize(s.nranks);
  w.pending.resize(s.nranks);
  w.pending_count.assign(s.nranks, 0);
  w.epoch.assign(s.nranks, 0);
  for (int r = 0; r < s.nranks; ++r) {
    w.bases[r] = static_cast<std::byte*>(slots[r].base);
    w.sizes[r] = slots[r].size;
  }
  s.windows.push_back(std::move(w));
  Win win;
  win.id_ = static_cast<std::uint32_t>(s.windows.size() - 1);
  return win;
}

namespace {
detail::WinState& win_state(std::uint32_t id) {
  auto& s = detail::st();
  assert(id < s.windows.size() && "invalid window handle");
  auto& w = s.windows[id];
  assert(w.live && "window already freed");
  return w;
}
}  // namespace

void Win::free() {
  flush_all();
  barrier();
  win_state(id_).live = false;
}

namespace {
// The origin-side issue path shared by put/get: epoch validation, byte/
// displacement translation, per-op request allocation — the general-MPI
// software layers that a lean PGAS runtime skips (paper §IV-B).
detail::RmaOp* rma_issue(detail::WinState& w, int target, std::size_t bytes,
                         std::size_t target_disp, std::uint32_t kind) {
  assert(target >= 0 && target < size());
  // Lazily open a passive-target access epoch (lock_all semantics), and
  // validate it on each access.
  if (w.epoch[target] == 0) w.epoch[target] = 1;
  assert(w.epoch[target] == 1 && "RMA access outside an access epoch");
  // Datatype/displacement translation (byte datatype here, but the
  // multiply-and-check is the code path every datatype takes).
  const std::size_t disp_bytes = target_disp * w.disp_unit;
  assert(disp_bytes + bytes <= w.sizes[target] &&
         "access outside window exposure");
  (void)disp_bytes;
  // Allocate and link the request record.
  auto op = std::make_unique<detail::RmaOp>();
  auto* raw = op.get();
  op->target = target;
  op->bytes = bytes;
  op->kind = kind;
  op->next = std::move(w.pending[target]);
  w.pending[target] = std::move(op);
  ++w.pending_count[target];
  return raw;
}
}  // namespace

void Win::put(const void* origin, std::size_t bytes, int target,
              std::size_t target_disp) {
  auto& w = win_state(id_);
  rma_issue(w, target, bytes, target_disp, /*kind=*/0);
  // Data moves now (RDMA analog); remote completion is guaranteed to the
  // caller only after flush.
  std::memcpy(w.bases[target] + target_disp, origin, bytes);
}

void Win::get(void* origin, std::size_t bytes, int target,
              std::size_t target_disp) {
  auto& w = win_state(id_);
  rma_issue(w, target, bytes, target_disp, /*kind=*/1);
  std::memcpy(origin, w.bases[target] + target_disp, bytes);
}

void Win::flush(int target) {
  auto& w = win_state(id_);
  // Progress inside MPI calls: drive the substrate (two-sided matching and
  // all), then walk and retire this target's op list, then fence so the
  // completions are globally visible — the passive-target flush path of a
  // software MPI.
  poll();
  // Retire iteratively (the list can hold millions of flood-test records;
  // a recursive unique_ptr chain teardown would overflow the stack).
  std::size_t retired = 0;
  auto head = std::move(w.pending[target]);
  while (head) {
    head = std::move(head->next);
    ++retired;
  }
  assert(retired == w.pending_count[target]);
  (void)retired;
  w.pending_count[target] = 0;
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void Win::flush_all() {
  auto& w = win_state(id_);
  poll();
  for (std::size_t t = 0; t < w.pending.size(); ++t) {
    auto head = std::move(w.pending[t]);
    while (head) head = std::move(head->next);
    w.pending_count[t] = 0;
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void* Win::base(int target_rank) const {
  return win_state(id_).bases[target_rank];
}
std::size_t Win::size(int target_rank) const {
  return win_state(id_).sizes[target_rank];
}

}  // namespace minimpi
