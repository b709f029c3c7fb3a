// Relaxed atomic accessors over plain counter fields (C++20 atomic_ref).
//
// PersonaState::Stats keeps plain std::uint64_t members so its readers —
// benches printing fields, tests comparing them after a quiesce — stay
// source-compatible, while every *increment* goes through an atomic_ref:
// injector threads and the master persona's thread bump the same counters
// concurrently, and plain ++ would tear and lose counts that tests assert
// on. Reads via relaxed_load are safe at any time; direct field reads
// remain fine wherever a happens-before edge (thread join, barrier)
// separates them from the last increment. (The engines' Stats have one
// writer, their owning thread, and use plain ++.)
#pragma once

#include <atomic>
#include <cstdint>

namespace arch {

inline void relaxed_inc(std::uint64_t& c) {
  std::atomic_ref<std::uint64_t>(c).fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t relaxed_load(const std::uint64_t& c) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
      .load(std::memory_order_relaxed);
}

}  // namespace arch
