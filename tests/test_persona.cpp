// Personas: default/master identity, persona_scope stacking, cross-thread
// LPCs, master-persona migration, and the SEQ-mode communication discipline
// (see persona.hpp header comment; paper §II ties futures to "within a
// thread", personas are the spec's multithreading mechanism around that).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/spinlock.hpp"
#include "spmd_helpers.hpp"

using testutil::solo;
using testutil::spmd;

namespace {

// ---------------------------------------------------------------- identity

TEST(Persona, MasterIsCurrentAtInit) {
  solo([] {
    EXPECT_TRUE(upcxx::master_persona().active_with_caller());
    EXPECT_EQ(&upcxx::current_persona(), &upcxx::master_persona());
    EXPECT_NE(&upcxx::default_persona(), &upcxx::master_persona());
    EXPECT_TRUE(upcxx::default_persona().active_with_caller());
  });
}

TEST(Persona, EachRankHasDistinctMaster) {
  static std::atomic<upcxx::persona*> masters[2];
  spmd(2, [] {
    masters[upcxx::rank_me()].store(&upcxx::master_persona());
    upcxx::barrier();
    EXPECT_NE(masters[0].load(), masters[1].load());
    upcxx::barrier();
  });
}

TEST(Persona, ScopeStacksAndRestores) {
  solo([] {
    upcxx::persona extra;
    EXPECT_FALSE(extra.active_with_caller());
    {
      upcxx::persona_scope sc(extra);
      EXPECT_TRUE(extra.active_with_caller());
      EXPECT_EQ(&upcxx::current_persona(), &extra);
      {
        // Nested re-acquisition by the same thread is allowed.
        upcxx::persona_scope sc2(extra);
        EXPECT_EQ(&upcxx::current_persona(), &extra);
      }
      EXPECT_TRUE(extra.active_with_caller());
    }
    EXPECT_FALSE(extra.active_with_caller());
    EXPECT_EQ(&upcxx::current_persona(), &upcxx::master_persona());
  });
}

// ------------------------------------------------------------- LPC basics

TEST(Persona, SelfLpcRunsAtUserProgress) {
  solo([] {
    bool ran = false;
    upcxx::current_persona().lpc_ff([&] { ran = true; });
    EXPECT_FALSE(ran);  // enqueue only
    upcxx::progress();
    EXPECT_TRUE(ran);
  });
}

TEST(Persona, LpcReturnsValueToCallingPersona) {
  solo([] {
    auto f = upcxx::current_persona().lpc([] { return 42; });
    EXPECT_FALSE(f.is_ready());
    // Two hops through the same inbox: run fn, then deliver the value.
    EXPECT_EQ(f.wait(), 42);
  });
}

TEST(Persona, LpcFutureReturningBodyIsUnwrapped) {
  solo([] {
    auto f = upcxx::current_persona().lpc(
        [] { return upcxx::make_future(std::string("pgas")); });
    EXPECT_EQ(f.wait(), "pgas");
  });
}

// ------------------------------------------------- cross-thread LPC tests

TEST(Persona, WorkerPostsToMasterInbox) {
  solo([] {
    std::atomic<int> hits{0};
    upcxx::persona& master = upcxx::master_persona();
    std::thread worker([&] {
      for (int i = 0; i < 100; ++i)
        master.lpc_ff([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
    });
    worker.join();
    while (hits.load(std::memory_order_relaxed) < 100) upcxx::progress();
    EXPECT_EQ(hits.load(), 100);
  });
}

TEST(Persona, LpcResultDeliveredOnWorkerThread) {
  solo([] {
    upcxx::persona& master = upcxx::master_persona();
    std::atomic<bool> worker_done{false};
    std::thread worker([&] {
      // The worker's future is fulfilled on the worker's own thread when it
      // calls progress() — persona affinity of futures is preserved.
      auto f = master.lpc([] { return upcxx::rank_me() + 7; });
      std::thread::id fulfilled_on;
      f.then([&fulfilled_on](int) { fulfilled_on = std::this_thread::get_id(); });
      int v = f.wait();
      EXPECT_EQ(v, 7);
      EXPECT_EQ(fulfilled_on, std::this_thread::get_id());
      worker_done.store(true);
    });
    while (!worker_done.load()) upcxx::progress();
    worker.join();
  });
}

TEST(Persona, WorkerRequestsCommunicationViaMaster) {
  // The SEQ-mode pattern: a worker thread that needs an RPC posts an LPC to
  // the master persona, which injects the RPC; the reply value is shipped
  // back to the worker persona.
  static std::atomic<int> remote_hits{0};
  remote_hits = 0;
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      upcxx::persona& master = upcxx::master_persona();
      std::atomic<bool> worker_done{false};
      std::thread worker([&] {
        auto f = master.lpc([] {
          return upcxx::rpc(1, [](int x) {
            remote_hits.fetch_add(1);
            return 2 * x;
          }, 21);
        });
        EXPECT_EQ(f.wait(), 42);
        worker_done.store(true);
      });
      while (!worker_done.load()) upcxx::progress();
      worker.join();
      EXPECT_EQ(remote_hits.load(), 1);
    } else {
      while (remote_hits.load() == 0) upcxx::progress();
    }
    upcxx::barrier();
  });
}

// --------------------------------------------- master persona migration

TEST(Persona, MasterMigratesToWorkerThread) {
  static std::atomic<int> rpcs_run{0};
  rpcs_run = 0;
  spmd(2, [] {
    if (upcxx::rank_me() == 0) {
      upcxx::persona& master = upcxx::master_persona();
      upcxx::liberate_master_persona();
      EXPECT_FALSE(master.active_with_caller());
      std::thread worker([&master] {
        upcxx::persona_scope sc(master);
        EXPECT_TRUE(master.active_with_caller());
        // Holding the master persona carries the communication right: the
        // worker injects an RPC and waits for it, polling the wire itself.
        auto f = upcxx::rpc(1, [] { return upcxx::rank_me(); });
        EXPECT_EQ(f.wait(), 1);
      });
      worker.join();
      // Re-acquire for the rest of the SPMD region; teardown drops it.
      upcxx::reacquire_master_persona(master);
      upcxx::barrier();
    } else {
      upcxx::rpc_ff(0, [] { rpcs_run.fetch_add(1); });
      upcxx::barrier();
    }
  });
}

TEST(Persona, MigratedMasterCanRunCollectives) {
  // Regression: world() and the collective engine must follow the rank
  // context to the thread holding the master persona (the world team lives
  // in the rank state, not a thread_local).
  spmd(4, [] {
    upcxx::persona& master = upcxx::master_persona();
    upcxx::liberate_master_persona();
    std::thread worker([&master] {
      upcxx::persona_scope sc(master);
      EXPECT_EQ(upcxx::world().rank_n(), 4);
      upcxx::barrier();
      const int sum =
          upcxx::reduce_all(upcxx::rank_me() + 1, upcxx::op_fast_add{})
              .wait();
      EXPECT_EQ(sum, 10);
      upcxx::barrier();
    });
    worker.join();
    upcxx::reacquire_master_persona(master);  // held through teardown
    upcxx::barrier();
  });
}

TEST(Persona, MutexScopeSerializesContendingThreads) {
  solo([] {
    upcxx::persona shared;
    std::mutex mu;
    std::atomic<int> inside{0};
    std::atomic<bool> overlap{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          upcxx::persona_scope sc(mu, shared);
          if (inside.fetch_add(1) != 0) overlap.store(true);
          shared.lpc_ff([] {});
          upcxx::progress();  // drains `shared` while held
          inside.fetch_sub(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_FALSE(overlap.load()) << "mutex persona_scope failed to serialize";
    // All 200 lpcs ran on whichever thread held the persona.
    EXPECT_EQ(shared.lpcs_executed(), 200u);
  });
}

// -------------------------------------------------------- progress rules

TEST(Persona, WorkerProgressDrainsOnlyOwnPersonas) {
  solo([] {
    std::atomic<bool> worker_lpc_ran{false};
    std::atomic<bool> master_lpc_ran{false};
    std::atomic<bool> stop{false};
    upcxx::master_persona().lpc_ff([&] { master_lpc_ran = true; });
    std::thread worker([&] {
      upcxx::default_persona().lpc_ff([&] { worker_lpc_ran = true; });
      upcxx::progress();  // no rank context: drains the worker default only
      EXPECT_TRUE(worker_lpc_ran.load());
      while (!stop.load()) arch::cpu_relax();
    });
    while (!worker_lpc_ran.load()) arch::cpu_relax();
    // Worker progress must not have executed the master-persona LPC.
    EXPECT_FALSE(master_lpc_ran.load());
    stop = true;
    worker.join();
    upcxx::progress();
    EXPECT_TRUE(master_lpc_ran.load());
  });
}

TEST(Persona, ManyWorkersFloodOneInbox) {
  // Property: every LPC posted by any of W workers is executed exactly once.
  solo([] {
    static constexpr int kWorkers = 8, kPer = 500;
    std::atomic<long> sum{0};
    std::vector<std::thread> workers;
    upcxx::persona& master = upcxx::master_persona();
    std::atomic<int> posted{0};
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kPer; ++i) {
          master.lpc_ff([&sum, w, i] {
            sum.fetch_add(static_cast<long>(w) * kPer + i,
                          std::memory_order_relaxed);
          });
          posted.fetch_add(1);
        }
      });
    }
    const long expect =
        static_cast<long>(kWorkers) * kPer * (static_cast<long>(kWorkers) * kPer - 1) / 2;
    const std::uint64_t before = master.lpcs_executed();
    while (master.lpcs_executed() - before <
           static_cast<std::uint64_t>(kWorkers) * kPer)
      upcxx::progress();
    for (auto& t : workers) t.join();
    EXPECT_EQ(sum.load(), expect);
  });
}

TEST(Persona, LpcChainPingPongBetweenThreads) {
  // A value bounces between the master persona and a worker persona through
  // result-bearing LPCs; checks persona-affine fulfillment both ways.
  solo([] {
    upcxx::persona& master = upcxx::master_persona();
    std::atomic<bool> done{false};
    std::thread worker([&] {
      int v = 0;
      for (int round = 0; round < 25; ++round)
        v = master.lpc([v] { return v + 1; }).wait();
      EXPECT_EQ(v, 25);
      done = true;
    });
    while (!done.load()) upcxx::progress();
    worker.join();
  });
}

}  // namespace
