// The shipped model harnesses (DESIGN.md §16). Each drives *real* production
// code — util::ThreadPool, comm::Mailbox, core::ModulePairGuard,
// util::LazyPriorityWorklist — through the scheduler hooks, and each is
// validated by a seeded mutation that re-introduces a known bug class; the
// harness must catch the mutant and pass clean on the unmutated code.
#include "model.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/mailbox.hpp"
#include "core/relaxmap_sync.hpp"
#include "util/mutex.hpp"
#include "util/sched_point.hpp"
#include "util/thread_pool.hpp"
#include "util/worklist.hpp"

namespace dinfomap::dcheck {

namespace {

// --- threadpool ------------------------------------------------------------
// Nested dispatch: a slot re-entering run_slots degrades to run_inline on the
// calling thread. The seeded mutation ("threadpool.nested-slot-seconds",
// inside ThreadPool::run_inline) re-introduces the PR 6 bug where the nested
// inline pass recorded per-slot times into slot_seconds_ while the *outer*
// dispatch's workers still owned their entries — a data race the pool fixed
// by not recording times on the nested path.
void threadpool_harness(Context& ctx) {
  util::ThreadPool pool(2);
  std::vector<int> ran(2, 0);
  pool.run_slots([&](int slot) {
    if (slot == 0) pool.run_slots([](int) {});  // nested -> run_inline
    ran[static_cast<std::size_t>(slot)] = 1;
  });
  ctx.check(ran[0] == 1 && ran[1] == 1, "every slot ran exactly once");
}

// --- mailbox ---------------------------------------------------------------
// Multi-consumer channel with (source, tag) matching. Two consumers block on
// different sources; the producer delivers the messages in reverse order and
// a watchdog timed receive must expire (virtual timeout) without stealing
// anything. The seeded mutation ("mailbox.notify-one", inside
// Mailbox::deliver) downgrades notify_all to notify_one: the wakeup can land
// on the non-matching consumer, which re-waits, and the matching one sleeps
// forever next to its queued message — a lost wakeup.
void mailbox_harness(Context& ctx) {
  comm::Mailbox box;
  const auto msg = [](int source) {
    comm::Message m;
    m.source = source;
    m.tag = 7;
    return m;
  };
  int got_a = 0;
  int got_b = 0;
  ctx.spawn("consumer-a", [&] { got_a = box.recv(1, 7).source; });
  ctx.spawn("consumer-b", [&] { got_b = box.recv(2, 7).source; });
  box.deliver(msg(2));
  box.deliver(msg(1));
  const auto stray =
      box.try_recv_for(3, 7, std::chrono::microseconds(1), false);
  ctx.check(!stray.has_value(), "watchdog must time out: no source-3 traffic");
  ctx.join_spawned();
  ctx.check(got_a == 1, "consumer-a received the source-1 message");
  ctx.check(got_b == 2, "consumer-b received the source-2 message");
  ctx.check(box.pending() == 0, "channel drained");
}

// --- relaxmap-pair ---------------------------------------------------------
// RelaxMap move application locks the two affected module SpinLocks in id
// order through ModulePairGuard. The harness-side mutation
// ("relaxmap.unordered-pair") makes the second mover acquire its pair in
// *reverse* id order — the lock-order graph picks up the A→B / B→A inversion
// at preemption bound 0, on a schedule where it does not even deadlock.
void relaxmap_pair_harness(Context& ctx) {
  auto locks = std::make_unique<core::SpinLock[]>(2);
  double stats[2] = {0.0, 0.0};
  const bool reversed =
      util::dcheck::mutation_enabled("relaxmap.unordered-pair");
  const auto mover = [&](bool reverse) {
    core::SpinLock& lo = locks[reverse ? 1 : 0];
    core::SpinLock* hi = &locks[reverse ? 0 : 1];
    core::ModulePairGuard guard(lo, hi);
    DI_SCHED_STORE(&stats[0], "relaxmap.module_stats");
    stats[0] += 1.0;
    DI_SCHED_STORE(&stats[1], "relaxmap.module_stats");
    stats[1] += 1.0;
  };
  ctx.spawn("mover-a", [&] { mover(false); });
  ctx.spawn("mover-b", [&] { mover(reversed); });
  ctx.join_spawned();
  ctx.check(stats[0] == 2.0 && stats[1] == 2.0, "both moves applied");
}

// --- worklist --------------------------------------------------------------
// util::LazyPriorityWorklist is not thread-safe by contract: the async
// engine owns one worklist per rank and touches it only from that rank's
// thread, so any shared use must hold one lock around every call. The
// harness checks that contract: two pushers activate (one raising a shared
// index's priority — the lazy-deletion requeue path) and a drainer pops, all
// under a util::Mutex; main drains the remainder after the join and checks
// the counter invariants that hold in *every* interleaving. The
// harness-side mutation ("worklist.unguarded-drain") drops the drainer's
// lock, which the DI_SCHED_* markers inside the worklist surface as a data
// race.
void worklist_harness(Context& ctx) {
  util::LazyPriorityWorklist wl;
  util::Mutex mu;
  wl.reset(8);
  const bool unguarded =
      util::dcheck::mutation_enabled("worklist.unguarded-drain");
  std::uint64_t drained = 0;
  ctx.spawn("pusher-a", [&] {
    util::MutexLock lock(mu);
    wl.activate(1, 0.5);
    wl.activate(3, 0.25);
  });
  ctx.spawn("pusher-b", [&] {
    util::MutexLock lock(mu);
    wl.activate(1, 0.75);  // raise: lazy re-push over pusher-a's entry
    wl.activate(5, 0.125);
  });
  ctx.spawn("drainer", [&] {
    std::uint32_t li = 0;
    if (unguarded) {
      if (wl.try_pop(li)) ++drained;
      return;
    }
    util::MutexLock lock(mu);
    if (wl.try_pop(li)) ++drained;
  });
  ctx.join_spawned();
  std::uint32_t li = 0;
  while (wl.try_pop(li)) ++drained;
  const auto& c = wl.counters();
  ctx.check(wl.live() == 0 && wl.empty(), "fully drained");
  ctx.check(drained == c.popped, "every live pop was observed");
  ctx.check(c.popped == c.pushed, "each fresh activation popped exactly once");
  ctx.check(c.pushed + c.requeued == c.popped + c.stale,
            "every heap entry left as live or stale");
  ctx.check(drained >= 3 && drained <= 4,
            "three indices, at most one pop-then-reactivate");
}

}  // namespace

const std::vector<Harness>& harnesses() {
  static const std::vector<Harness> kHarnesses = {
      {"threadpool",
       "ThreadPool nested run_slots -> run_inline; per-slot timing ownership",
       "threadpool.nested-slot-seconds", &threadpool_harness},
      {"mailbox",
       "Mailbox multi-consumer (source, tag) channel + timed-recv watchdog",
       "mailbox.notify-one", &mailbox_harness},
      {"relaxmap-pair",
       "RelaxMap ModulePairGuard id-ordered two-module locking",
       "relaxmap.unordered-pair", &relaxmap_pair_harness},
      {"worklist",
       "LazyPriorityWorklist push/requeue vs drain under one lock",
       "worklist.unguarded-drain", &worklist_harness},
  };
  return kHarnesses;
}

const Harness* find_harness(const std::string& name) {
  for (const auto& h : harnesses())
    if (h.name == name) return &h;
  return nullptr;
}

}  // namespace dinfomap::dcheck
