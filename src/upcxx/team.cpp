#include "upcxx/team.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "arch/rng.hpp"
#include "upcxx/collectives.hpp"

namespace upcxx {

namespace detail {
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return arch::splitmix64(s);
}
}  // namespace detail

team& world() {
  // Resolved through the rank context so the world team follows the master
  // persona when it migrates to another thread; injector threads reach it
  // through their injection binding (the team object itself is immutable
  // rank state, safe to read from any thread).
  auto* st = detail::rank_context();
  if (!st) st = detail::inject_context();
  assert(st && st->world_team &&
         "world() requires a rank or injection context (inside upcxx::run, "
         "on the thread holding the master persona or inside an "
         "upcxx::injection_scope)");
  return *st->world_team;
}

namespace detail {

void init_world_team() {
  std::vector<intrank_t> all(gex::rank_n());
  for (int i = 0; i < gex::rank_n(); ++i) all[i] = i;
  persona().world_team = std::make_unique<team>(
      TeamAccess::make(std::move(all), gex::rank_me(), /*id=*/1));
  // Ensure every rank's persona + world team exist before user code runs.
  gex::arena().world_barrier();
}

void fini_world_team() { persona().world_team.reset(); }

// ------------------------------------------------------- collective engine

struct PersonaState::CollInstance {
  bool entered = false;
  bool delivered = false;
  std::uint64_t key = 0;
  // Tree shape (world ranks), fixed at entry.
  std::vector<int> children;
  int parent = -1;
  bool is_root = false;
  int expected_children = 0;
  int got_children = 0;
  CollOps ops;
  std::vector<std::byte> accum;
  // Traffic that arrived before the local rank entered the collective.
  std::vector<std::vector<std::byte>> early_contribs;
  bool got_down = false;
  bool up_sent = false;
  std::vector<std::byte> down_data;
};

namespace {

using Coll = PersonaState::CollInstance;

Coll& coll_instance(std::uint64_t key) {
  auto& p = persona();
  auto it = p.colls.find(key);
  if (it == p.colls.end()) {
    it = p.colls.emplace(key, std::make_shared<Coll>()).first;
    it->second->key = key;
  }
  return *it->second;
}

// Collective control traffic is latency-sensitive (a barrier's critical
// path is a chain of these), so it rides the immediate path — and barrier
// entry has already flushed the aggregation buffers, so staged application
// traffic keeps its ordering relative to the collective.
void coll_send(int world_target, DispatchIdx dispatch, std::uint64_t key,
               const std::vector<std::byte>& payload) {
  const std::size_t body = sizeof(std::uint64_t) + payload.size();
  send_msg_idx(
      world_target, dispatch, body,
      [&](WriteArchive& wa) {
        wa.bytes(&key, sizeof key);
        wa.bytes(payload.data(), payload.size());
      },
      wire_mode::immediate);
}

void coll_up_dispatch(int src, Reader& r);
void coll_down_dispatch(int src, Reader& r);

void coll_finish(Coll& c) {
  // Deliver locally, forward the result down the tree, retire the instance.
  assert(!c.delivered);
  c.delivered = true;
  for (int child : c.children)
    coll_send(child, DispatchReg<&coll_down_dispatch>::idx, c.key,
              c.down_data);
  Reader r(c.down_data.data(), c.down_data.size());
  c.ops.deliver(r);
  persona().colls.erase(c.key);  // c is dangling after this
}

// Advances the up phase once local entry has happened; called whenever a
// contribution arrives or on entry.
void coll_advance(Coll& c) {
  if (!c.entered) return;
  // Fold in any early contributions now that we know how to combine.
  for (auto& buf : c.early_contribs) {
    Reader r(buf.data(), buf.size());
    c.ops.combine(c.accum, r);
    ++c.got_children;
  }
  c.early_contribs.clear();

  if (c.ops.up && c.got_children < c.expected_children) return;

  if (c.is_root) {
    if (c.ops.down) {
      c.down_data = std::move(c.accum);
      coll_finish(c);
    } else {
      // Rooted reduction: root receives the accumulated value, the others
      // get an empty result immediately after their up-send (handled in
      // coll_enter).
      c.down_data = std::move(c.accum);
      coll_finish(c);
    }
    return;
  }

  if (c.ops.up && !c.up_sent) {
    coll_send(c.parent, DispatchReg<&coll_up_dispatch>::idx, c.key, c.accum);
    c.up_sent = true;
    if (!c.ops.down) {
      // No down phase: this rank's role ends; deliver empty result.
      c.down_data.clear();
      coll_finish(c);
      return;
    }
  }
  if (c.got_down) {
    coll_finish(c);
  }
}

void coll_up_dispatch(int /*src*/, Reader& r) {
  const auto key = r.pod<std::uint64_t>();
  Coll& c = coll_instance(key);
  if (!c.entered) {
    const std::size_t n = r.remaining();
    std::vector<std::byte> copy(n);
    // Barrier contributions are empty; vector::data() is null then.
    if (n) std::memcpy(copy.data(), r.cursor(), n);
    c.early_contribs.push_back(std::move(copy));
    return;
  }
  c.ops.combine(c.accum, r);
  ++c.got_children;
  coll_advance(c);
}

void coll_down_dispatch(int /*src*/, Reader& r) {
  const auto key = r.pod<std::uint64_t>();
  Coll& c = coll_instance(key);
  const std::size_t n = r.remaining();
  c.down_data.resize(n);
  if (n) std::memcpy(c.down_data.data(), r.cursor(), n);
  c.got_down = true;
  coll_advance(c);
}

}  // namespace

CollTopology& coll_topology() {
  thread_local CollTopology t = CollTopology::tree;
  return t;
}

void coll_enter(const team& tm, intrank_t root, std::vector<std::byte> contrib,
                CollOps ops) {
  if (!has_persona()) {
    // Injected collective: the engine state (instance map, sequence
    // counters, tree sends) is master-persona-owned, so the whole entry
    // ships over the rank's injection queue as a descriptor — contribution
    // bytes and fold/deliver closures were built caller-side. The sequence
    // number is allocated master-side, in queue order; one injector
    // thread's collectives stay FIFO through the queue, which is what key
    // agreement across ranks requires (concurrent collectives from
    // *different* threads must be symmetric, the same rule real UPC++
    // imposes on unordered collectives over one team).
    //
    // deliver would otherwise run master-side in coll_finish and touch the
    // caller's promise there; wrap it so the master copies the result
    // bytes out of the tree buffer (which dies with the instance) and the
    // original deliver runs home on the initiating persona.
    const op_context cx = op_context::current();
    auto home_deliver = std::move(ops.deliver);
    ops.deliver = [cx, home_deliver = std::move(home_deliver)](
                      Reader& r) mutable {
      const std::size_t n = r.remaining();
      std::vector<std::byte> copy(n);
      if (n) std::memcpy(copy.data(), r.cursor(), n);
      cx.complete_now([home_deliver = std::move(home_deliver),
                       copy = std::move(copy)]() mutable {
        Reader rr(copy.data(), copy.size());
        home_deliver(rr);
      });
    };
    const team* tp = &tm;
    cx.run_at_rank([tp, root, contrib = std::move(contrib),
                    ops = std::move(ops)]() mutable {
      // Master-side staged traffic keeps its ordering relative to the
      // collective, exactly as an on-persona entry guarantees.
      flush_aggregation();
      coll_enter(*tp, root, std::move(contrib), std::move(ops));
    });
    return;
  }
  auto& p = persona();
  const std::uint64_t seq = p.coll_seq[tm.id()]++;
  const std::uint64_t key = mix64(tm.id(), seq);

  Coll& c = coll_instance(key);
  assert(!c.entered && "collective key collision");
  c.entered = true;

  // Topology over *virtual* team indices rotated so that `root` maps to
  // virtual index 0: a binary tree (default) or a flat star (ablation).
  const int P = tm.rank_n();
  const int me_v = (tm.rank_me() - root + P) % P;
  auto to_world = [&](int v) { return tm[(v + root) % P]; };
  c.is_root = (me_v == 0);
  if (coll_topology() == CollTopology::flat) {
    if (c.is_root) {
      for (int v = 1; v < P; ++v) c.children.push_back(to_world(v));
    } else {
      c.parent = to_world(0);
    }
  } else {
    if (!c.is_root) c.parent = to_world((me_v - 1) / 2);
    for (int child_v : {2 * me_v + 1, 2 * me_v + 2})
      if (child_v < P) c.children.push_back(to_world(child_v));
  }
  c.expected_children = static_cast<int>(c.children.size());
  c.accum = std::move(contrib);
  c.ops = std::move(ops);
  coll_advance(c);
}

}  // namespace detail

team team::split(int color, int key) const {
  // Allgather (color, key) over this team with the ordinary collective
  // engine: it takes one of the team's collective sequence numbers, runs
  // user progress while it waits, and throws rank_failed once a member has
  // died, like every other blocking collective.
  struct Slot {
    std::int32_t color;
    std::int32_t key;
  };
  const std::vector<Slot> slots = allgather(Slot{color, key}, *this).wait();

  std::vector<std::pair<std::pair<int, int>, int>> group;  // ((key,world),world)
  for (intrank_t i = 0; i < rank_n(); ++i) {
    const int w = members_[i];
    const Slot& s = slots[static_cast<std::size_t>(i)];
    if (s.color == color) group.push_back({{s.key, w}, w});
  }
  std::sort(group.begin(), group.end());

  // Agree on the child team id (same inputs on every member).
  const std::uint64_t child_id =
      color < 0 ? 0
                : detail::mix64(id_, detail::mix64(split_count_,
                                                   static_cast<std::uint64_t>(
                                                       color)));
  ++split_count_;

  if (color < 0) return detail::TeamAccess::make({}, -1, 0);

  std::vector<intrank_t> members;
  intrank_t me_idx = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    members.push_back(group[i].second);
    if (group[i].second == gex::rank_me())
      me_idx = static_cast<intrank_t>(i);
  }
  return detail::TeamAccess::make(std::move(members), me_idx, child_id);
}

}  // namespace upcxx
