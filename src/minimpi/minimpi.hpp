// minimpi: the MPI baseline used by the paper's comparisons.
//
// The paper benchmarks UPC++ against (a) MPI-3 one-sided RMA — passive
// target + MPI_Win_flush, via the IMB Unidir_put test (Fig 3) — and (b)
// two-sided MPI_Isend/Irecv and MPI_Alltoallv (Fig 8). Cray MPI is not
// available offline, so we implement the message-passing semantics those
// benchmarks need *over the same gex substrate* UPC++ uses. Both sides then
// ride identical hardware (memcpy + shared-memory rings), and measured
// differences reflect the software paths: minimpi deliberately keeps the
// structure of a general MPI implementation —
//   * two-sided matching queues ((source, tag) with wildcards, unexpected-
//     message queue, non-overtaking per pair),
//   * request objects allocated per operation,
//   * windows validated through a registry with epoch checks and per-target
//     operation records reaped by flush,
// which is exactly the overhead class the paper attributes to MPI RMA when
// comparing against the leaner PGAS path (§IV-B).
//
// Progress happens inside library calls (wait/test/flush/barrier poll the
// substrate), matching the MPI progress model. A blocking call throws
// std::runtime_error once a rank of the job has failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace minimpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::size_t count = 0;  // bytes received
};

namespace detail {
struct RequestState;
struct MpiState;
struct WinState;
}  // namespace detail

// Nonblocking-operation handle (MPI_Request). Copyable; copies share state.
class Request {
 public:
  Request() = default;
  bool valid() const { return st_ != nullptr; }
  bool done() const;
  const Status& status() const;

  // Implementation detail (shared completion record); not part of the
  // public surface even though it is technically reachable.
  std::shared_ptr<detail::RequestState> st_;
};

// ---- environment -----------------------------------------------------------

// Collective over all ranks; call once inside the SPMD region before any
// other minimpi function (MPI_Init).
void init();
// Collective; drains outstanding traffic (MPI_Finalize).
void finalize();

int rank();  // MPI_Comm_rank(MPI_COMM_WORLD)
int size();  // MPI_Comm_size(MPI_COMM_WORLD)

// Polls the substrate once (the progress that would happen inside any MPI
// call); exposed for latency-sensitive loops.
void poll();

// ---- two-sided -------------------------------------------------------------

Request isend(const void* buf, std::size_t bytes, int dest, int tag);
Request irecv(void* buf, std::size_t max_bytes, int source, int tag);

void wait(Request& r, Status* status = nullptr);
bool test(Request& r, Status* status = nullptr);
void waitall(Request* reqs, std::size_t n);

void send(const void* buf, std::size_t bytes, int dest, int tag);
Status recv(void* buf, std::size_t max_bytes, int source, int tag);

void sendrecv(const void* sbuf, std::size_t sbytes, int dest, int stag,
              void* rbuf, std::size_t rbytes_max, int source, int rtag,
              Status* status = nullptr);

// ---- collectives -----------------------------------------------------------

void barrier();

// MPI_Alltoallv over bytes: counts/displacements are in bytes. Implemented
// with the pairwise-exchange schedule used by production MPIs for large
// messages.
void alltoallv(const void* sendbuf, const std::size_t* sendcounts,
               const std::size_t* senddispls, void* recvbuf,
               const std::size_t* recvcounts, const std::size_t* recvdispls);

// Alltoallv over a process subgroup — the communicator-scoped collective a
// solver like STRUMPACK issues per frontal team. `members` lists world
// ranks (every member calls with the same list); counts/displacements are
// indexed by group position. `tag` disambiguates concurrent group
// collectives.
void alltoallv_group(const std::vector<int>& members, const void* sendbuf,
                     const std::size_t* sendcounts,
                     const std::size_t* senddispls, void* recvbuf,
                     const std::size_t* recvcounts,
                     const std::size_t* recvdispls, int tag);

// ---- one-sided (passive target, the Fig 3 comparison path) -----------------

class Win {
 public:
  // Collective: every rank contributes a local exposure region.
  static Win create(void* base, std::size_t bytes);
  // Collective; all outstanding accesses must be flushed first.
  void free();

  // MPI_Put: origin -> (target rank, byte displacement). Nonblocking; remote
  // completion is guaranteed only after flush(target).
  void put(const void* origin, std::size_t bytes, int target,
           std::size_t target_disp);
  // MPI_Get.
  void get(void* origin, std::size_t bytes, int target,
           std::size_t target_disp);

  // MPI_Win_flush(target): completes all outstanding ops to `target` at both
  // origin and target.
  void flush(int target);
  // MPI_Win_flush_all.
  void flush_all();

  void* base(int target_rank) const;
  std::size_t size(int target_rank) const;

 private:
  friend struct detail::WinState;
  std::uint32_t id_ = 0;  // index into the window registry
};

}  // namespace minimpi
