// session_zero_alloc_test — a campus session's whole memory is its slab slot.
//
// Links the counting operator-new replacement (mobiwlan_alloc_hook) and
// asserts that, at the default campus shape, a Session never touches the
// heap: not when it is constructed in its slot, not in its association
// burst (prime), not over 100 steps through the shard pass's calls, not
// when it roams to another AP, and not when the slot is recycled for a new
// arrival. The caller-owned scratch and sample are warmed first, as
// CampusSim warms one per shard and per worker at construction. The metered
// steps decide their MPDU losses against a PER grid none of whose rows is
// built yet: a row's first use fills storage the grid's construction
// allocated.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <new>

#include "campus/campus.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

using campus::Session;

/// One slab slot's worth of raw memory, allocated outside the meter.
class Slot {
 public:
  Slot()
      : mem_(::operator new(sizeof(Session),
                            std::align_val_t{alignof(Session)})) {}
  ~Slot() { ::operator delete(mem_, std::align_val_t{alignof(Session)}); }
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  void* get() const { return mem_; }

 private:
  void* mem_;
};

class SessionZeroAlloc : public ::testing::Test {
 protected:
  SessionZeroAlloc() : cfg_(campus::campus_default_config()),
                       map_(cfg_.cols, cfg_.rows, cfg_.pitch_m) {
    Session warm(0, cfg_.master_seed, map_, cfg_.session, 1, 2);
    warm.prime(scratch_, sample_);
  }

  std::unique_ptr<Session> make(std::uint64_t id) const {
    return std::make_unique<Session>(id, cfg_.master_seed, map_, cfg_.session,
                                     kArrival, cfg_.max_dwell_epochs);
  }

  /// Epochs (from, to] exactly as the fused shard pass steps a session.
  void step(Session& s, std::uint64_t from, std::uint64_t to,
            const PerGrid& grid) {
    for (std::uint64_t e = from + 1; e <= to; ++e) {
      const double t = static_cast<double>(e) * cfg_.session.tick_s;
      ChannelBatch::sample_link(*s.channel(), t, sample_, scratch_);
      s.observe_step(e, sample_);
      s.mac_step(e, sample_, grid);
      s.maybe_roam(t);
    }
  }

  static constexpr std::uint64_t kArrival = 3;
  static constexpr std::uint64_t kSteps = 100;

  campus::CampusConfig cfg_;
  campus::CampusMap map_;
  ChannelBatch::Scratch scratch_;
  ChannelSample sample_;
};

TEST_F(SessionZeroAlloc, HookIsLinked) { EXPECT_TRUE(alloc_hook_active()); }

TEST_F(SessionZeroAlloc, LifetimeStaysInsideTheSlabSlot) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; test would vacuously pass";

  // The first session id that roams within its first kSteps epochs (a
  // pure function of the seed), found outside the meter.
  const PerGrid probe_grid(cfg_.session.mpdu_payload_bytes);
  std::uint64_t id = 1;
  for (;; ++id) {
    ASSERT_LT(id, 500u) << "no session roamed; the roam leg is untested";
    const std::unique_ptr<Session> probe = make(id);
    probe->prime(scratch_, sample_);
    step(*probe, kArrival, kArrival + kSteps, probe_grid);
    if (probe->stats().ap_handovers > 0) break;
  }

  Slot slot;
  const PerGrid cold(cfg_.session.mpdu_payload_bytes);
  const std::uint64_t before = alloc_count();
  Session* s = new (slot.get()) Session(id, cfg_.master_seed, map_,
                                        cfg_.session, kArrival,
                                        cfg_.max_dwell_epochs);
  const std::uint64_t after_construct = alloc_count();
  s->prime(scratch_, sample_);
  const std::uint64_t after_prime = alloc_count();
  step(*s, kArrival, kArrival + kSteps, cold);
  const std::uint64_t after_steps = alloc_count();
  const int rows_built = cold.rows_built();
  const std::uint64_t handovers = s->stats().ap_handovers;

  // Recycle the slot for a new arrival, as SessionPool::take + build do.
  const std::uint64_t next_arrival = kArrival + kSteps;
  s->reserve(cfg_.max_dwell_epochs);
  s->reinit(id + 1, next_arrival, cfg_.max_dwell_epochs);
  s->prime(scratch_, sample_);
  step(*s, next_arrival, next_arrival + 10, cold);
  const std::uint64_t after_recycle = alloc_count();

  EXPECT_EQ(after_construct - before, 0u) << "construction allocated";
  EXPECT_EQ(after_prime - after_construct, 0u) << "prime allocated";
  EXPECT_EQ(after_steps - after_prime, 0u) << "steps or the roam allocated";
  EXPECT_EQ(after_recycle - after_steps, 0u) << "recycle allocated";

  EXPECT_GT(handovers, 0u) << "the metered steps did not roam";
  EXPECT_GT(rows_built, 0) << "the metered steps built no PER row";
  EXPECT_EQ(s->id(), id + 1);
  s->~Session();
}

}  // namespace
}  // namespace mobiwlan
