// Block-based multi-producer single-consumer queue of variable-size records.
//
// Every cross-thread hand-off of the op layer rides one of these: a rank's
// injection queue (op closures and serialized upcxx messages, in
// reservation order, consumed by the master persona's holder) and each
// persona's lpc_ff inbox. The queue allocates nothing in steady state:
//
//   * Records live inside fixed-size blocks (kBlockBytes). A producer takes
//     the producer spinlock only to bump the tail block's cursor (or, when
//     the record does not fit, to link the next block), then writes its
//     record outside the lock and publishes it with one release store of
//     the record header. Producers never wait on the consumer.
//   * The consumer walks records in reservation order, stopping at the
//     first one still being written. A block the consumer has left is
//     zeroed and kept as the queue's one spare; the next producer to fill
//     a block takes it back, so a queue whose consumer keeps up cycles
//     between two blocks. Blocks are allocated on first push, never up
//     front.
//   * A closure record holds the callable itself, constructed in place
//     whatever its capture size (no small-buffer limit, no heap fallback),
//     and is destroyed exactly once: after running, or unrun at teardown.
//     A byte record holds caller-serialized bytes plus a 64-bit tag.
//   * A record larger than a block gets a block of its own, sized to fit;
//     oversized blocks are freed, never kept as the spare.
//
// Consumer rules: one consumer at a time — the owning thread, or threads
// serialized by an acquire/release hand-over (a persona's ownership
// migrating between threads). A record is
// unlinked before it runs, so a closure may re-enter the consumer (an LPC
// that calls upcxx::progress()); blocks left behind during such nested
// drains are recycled once the outermost record returns.
//
// Shape after the block-based moodycamel::ConcurrentQueue (producers
// reserve inside blocks; drained blocks are reused), reduced to a single
// consumer and one shared producer cursor.
#pragma once

#include <atomic>
#include <cassert>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "arch/spinlock.hpp"

namespace arch {

class MpscQueue {
 public:
  // Payload bytes of a standard block. Small enough that an idle queue
  // costs little, large enough that block turnover is rare (~60 typical
  // records per block).
  static constexpr std::size_t kBlockBytes = 4096;
  // Record header size and payload alignment.
  static constexpr std::size_t kAlign = 16;
  // Largest record payload (its extent must fit the 32-bit header word).
  static constexpr std::size_t kMaxRecord = UINT32_MAX - 2 * kAlign;

  // Consumer's view of a byte record.
  struct Record {
    std::byte* data;
    std::uint32_t size;
    std::uint64_t tag;
  };

  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Quiesced teardown (no producer may still push): closure records are
  // destroyed without running, every block is freed.
  ~MpscQueue() {
    auto skip = [](const Record&) {};
    consume(INT_MAX, skip, /*run=*/false);
    free_chain(head_ ? head_ : first_.load(std::memory_order_acquire));
    free_block(spare_.exchange(nullptr, std::memory_order_acquire));
  }

  // ---- producer side: any thread, any time --------------------------------

  // Closure record: fn is move/forward-constructed in place and later run
  // by run() (or destroyed unrun at teardown).
  template <typename F>
  void push(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(alignof(D) <= kAlign, "closure over-aligned for the queue");
    static_assert(sizeof(D) <= kMaxRecord);
    Hdr* h = reserve(sizeof(D));
    try {
      ::new (static_cast<void*>(payload(h))) D(std::forward<F>(fn));
    } catch (...) {
      publish(h, sizeof(D), kDead);
      throw;
    }
    h->size = sizeof(D);
    h->u.invoke = &invoke<D>;
    publish(h, sizeof(D), kClosure);
  }

  // Byte record of `size` bytes: write(std::byte* dst) fills them in place.
  template <typename Write>
  void push_bytes(std::size_t size, std::uint64_t tag, Write&& write) {
    if (size > kMaxRecord) throw std::length_error("MpscQueue: record too large");
    Hdr* h = reserve(size);
    try {
      write(payload(h));
    } catch (...) {
      publish(h, size, kDead);
      throw;
    }
    h->size = static_cast<std::uint32_t>(size);
    h->u.tag = tag;
    publish(h, size, 0);
  }

  // ---- consumer side -------------------------------------------------------

  // Runs up to `budget` closure records, never more than were reserved when
  // the call began (an LPC that re-posts itself cannot pin the consumer).
  // Returns the number run.
  int run(int budget) {
    return drain(budget, [](const Record&) {
      assert(false && "run() met a byte record");
    });
  }

  // Visits up to `budget` records reserved before the call, in FIFO order,
  // stopping at the first record a producer is still writing. Byte records
  // go to visit(const Record&); closure records are run. Returns the number
  // of records consumed.
  template <typename Visit>
  int drain(int budget, Visit&& visit) {
    return consume(budget, visit, /*run=*/true);
  }

  // True when nothing is queued. Callable from any thread; may read
  // "non-empty" transiently while a producer is mid-push, never "empty"
  // once a push has returned.
  bool empty_hint() const {
    return pushed_.load(std::memory_order_acquire) ==
           popped_.load(std::memory_order_relaxed);
  }

  // Blocks currently allocated (linked, deferred or spare), and blocks
  // ever allocated — a steady stream keeps both flat.
  std::size_t blocks_live() const {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t block_allocs() const {
    return allocs_.load(std::memory_order_relaxed);
  }

 private:
  using Invoke = void (*)(void* obj, bool run);

  // Record header. `word` is the record's extent in bytes (header
  // included, a multiple of kAlign) or'ed with flags; 0 = not yet
  // published.
  struct alignas(kAlign) Hdr {
    std::atomic<std::uint32_t> word;
    std::uint32_t size;
    union {
      Invoke invoke;
      std::uint64_t tag;
    } u;
  };
  static_assert(sizeof(Hdr) == kAlign);
  static constexpr std::uint32_t kClosure = 1;
  static constexpr std::uint32_t kDead = 2;  // producer threw mid-write
  static constexpr std::uint32_t kFlags = kAlign - 1;

  struct alignas(kAlign) Block {
    // Set by the producer that closes this block, before `end`.
    Block* next = nullptr;
    // Offset at which this block's records stop; kOpen while producers
    // may still append.
    std::atomic<std::size_t> end{kOpen};
    std::size_t used = 0;  // producer cursor (under push_mu_)
    std::size_t cap = 0;   // payload capacity
    Block* deferred = nullptr;  // consumer's recycle-later chain
    std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
  };
  static constexpr std::size_t kOpen = SIZE_MAX;

  template <typename D>
  static void invoke(void* obj, bool run) {
    D* f = static_cast<D*>(obj);
    struct Destroy {
      D* f;
      ~Destroy() { f->~D(); }
    } d{f};
    if (run) (*f)();
  }

  static std::byte* payload(Hdr* h) {
    return reinterpret_cast<std::byte*>(h + 1);
  }
  static std::size_t extent(std::size_t size) {
    return sizeof(Hdr) + (size + kAlign - 1) / kAlign * kAlign;
  }

  Hdr* reserve(std::size_t size) {
    const std::size_t ext = extent(size);
    SpinGuard g(push_mu_);
    Block* b = tail_;
    if (!b || b->cap - b->used < ext) {
      Block* nb = take_block(ext);
      if (b) {
        b->next = nb;
        b->end.store(b->used, std::memory_order_release);
      } else {
        first_.store(nb, std::memory_order_release);
      }
      tail_ = b = nb;
    }
    auto* h = reinterpret_cast<Hdr*>(b->data() + b->used);
    b->used += ext;
    pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    return h;
  }

  static void publish(Hdr* h, std::size_t size, std::uint32_t flags) {
    h->word.store(static_cast<std::uint32_t>(extent(size)) | flags,
                  std::memory_order_release);
  }

  // Producer (under push_mu_): the spare if it fits, else a fresh block.
  Block* take_block(std::size_t ext) {
    if (ext <= kBlockBytes) {
      if (Block* s = spare_.exchange(nullptr, std::memory_order_acquire))
        return s;
    }
    const std::size_t cap = ext > kBlockBytes ? ext : kBlockBytes;
    void* mem = ::operator new(sizeof(Block) + cap, std::align_val_t{64});
    auto* b = ::new (mem) Block();
    b->cap = cap;
    std::memset(b->data(), 0, cap);
    live_.fetch_add(1, std::memory_order_relaxed);
    allocs_.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  static void destroy_block(Block* b) {
    b->~Block();
    ::operator delete(static_cast<void*>(b), std::align_val_t{64});
  }

  void free_block(Block* b) {
    if (!b) return;
    destroy_block(b);
    live_.fetch_sub(1, std::memory_order_relaxed);
  }

  void free_chain(Block* b) {
    while (b) {
      Block* next = b->next;
      free_block(b);
      b = next;
    }
  }

  // Consumer loop behind drain() and teardown; `run` = false destroys
  // closure records unrun.
  template <typename Visit>
  int consume(int budget, Visit& visit, bool run) {
    const std::uint64_t reserved = pushed_.load(std::memory_order_acquire);
    std::uint64_t left = reserved - popped_.load(std::memory_order_relaxed);
    int n = 0;
    while (n < budget && left > 0) {
      Hdr* h = front();
      if (!h) break;
      const std::uint32_t word = h->word.load(std::memory_order_relaxed);
      // Unlink before running: a nested drain continues after this record.
      pos_ += word & ~kFlags;
      popped_.store(popped_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      --left;
      if (word & kDead) continue;
      RunGuard g(*this);
      if (word & kClosure)
        h->u.invoke(payload(h), run);
      else
        visit(Record{payload(h), h->size, h->u.tag});
      ++n;
    }
    return n;
  }

  // Consumer: the next published record, advancing past closed blocks.
  Hdr* front() {
    for (;;) {
      if (!head_) {
        head_ = first_.load(std::memory_order_acquire);
        if (!head_) return nullptr;
      }
      Block* b = head_;
      if (b->cap - pos_ >= sizeof(Hdr)) {
        auto* h = reinterpret_cast<Hdr*>(b->data() + pos_);
        if (h->word.load(std::memory_order_acquire) != 0) return h;
      }
      if (b->end.load(std::memory_order_acquire) != pos_) return nullptr;
      head_ = b->next;
      pos_ = 0;
      if (running_ > 0) {
        b->deferred = deferred_;
        deferred_ = b;
      } else {
        recycle(b);
      }
    }
  }

  // Consumer: a block every record of which has been consumed.
  void recycle(Block* b) {
    if (b->cap != kBlockBytes) {
      free_block(b);
      return;
    }
    std::memset(b->data(), 0, b->end.load(std::memory_order_relaxed));
    b->next = nullptr;
    b->used = 0;
    b->deferred = nullptr;
    b->end.store(kOpen, std::memory_order_relaxed);
    free_block(spare_.exchange(b, std::memory_order_acq_rel));
  }

  // Marks a record as running; recycles blocks left by nested drains once
  // the outermost record returns (or throws).
  struct RunGuard {
    MpscQueue& q;
    explicit RunGuard(MpscQueue& q_) : q(q_) { ++q.running_; }
    ~RunGuard() {
      if (--q.running_ != 0) return;
      while (Block* b = q.deferred_) {
        q.deferred_ = b->deferred;
        q.recycle(b);
      }
    }
  };

  // Producer side.
  alignas(64) Spinlock push_mu_;
  Block* tail_ = nullptr;                 // under push_mu_
  std::atomic<Block*> first_{nullptr};    // the first block ever linked
  std::atomic<std::uint64_t> pushed_{0};  // records reserved
  std::atomic<Block*> spare_{nullptr};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> allocs_{0};

  // Consumer side.
  alignas(64) Block* head_ = nullptr;
  std::size_t pos_ = 0;
  std::atomic<std::uint64_t> popped_{0};  // records consumed
  int running_ = 0;
  Block* deferred_ = nullptr;
};

}  // namespace arch
