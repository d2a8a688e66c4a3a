// Property suite: the campus handover mailbox (S*S SPSC lanes) conserves
// messages under arbitrary send/drain interleavings.
//
// The campus determinism proof leans on three mailbox properties — nothing
// is ever lost or duplicated (a dropped handover would strand a session; a
// duplicated one would double-fold its stats), delivery is FIFO per sender
// with a deterministic cross-sender drain order, and a full lane rejects
// without blocking (back-pressure must surface as a boolean, never a
// deadlock). These properties pin all three across random shard counts,
// lane capacities, and operation interleavings, with move-only payloads
// standing in for the unique_ptr<Session> the campus actually ships.
// The genuinely concurrent (TSan-targeted) exercise lives in
// tests/campus/mailbox_stress_test.cpp.
#include "campus/mailbox.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "proptest.hpp"

namespace mobiwlan {
namespace {

using campus::HandoverMailbox;
using proptest::run_cases;

std::uint64_t encode(std::size_t src, std::size_t dst, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(src) << 48) |
         (static_cast<std::uint64_t>(dst) << 32) | seq;
}

TEST(MailboxProp, ConservesAndOrdersUnderRandomInterleavings) {
  run_cases("mailbox conserves and orders messages", [](Rng& rng, int) {
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 12));
    HandoverMailbox<std::uint64_t> mb(shards, capacity);

    // next_seq[src][dst]: sequence number of the next successful send;
    // next_expected[src][dst]: sequence the consumer must see next.
    std::vector<std::vector<std::uint64_t>> next_seq(
        shards, std::vector<std::uint64_t>(shards, 0));
    std::vector<std::vector<std::uint64_t>> next_expected = next_seq;
    std::uint64_t sent = 0, delivered = 0, rejected = 0;

    auto drain = [&](std::size_t dst) {
      std::size_t last_src = 0;
      mb.drain_to(dst, [&](std::uint64_t msg) {
        const auto src = static_cast<std::size_t>(msg >> 48);
        const auto msg_dst = static_cast<std::size_t>((msg >> 32) & 0xffff);
        const std::uint64_t seq = msg & 0xffffffffULL;
        EXPECT_EQ(msg_dst, dst) << "message delivered to the wrong shard";
        EXPECT_GE(src, last_src) << "drain order not ascending in source";
        last_src = src;
        EXPECT_EQ(seq, next_expected[src][dst]) << "per-sender FIFO violated";
        ++next_expected[src][dst];
        ++delivered;
      });
    };

    const int ops = rng.uniform_int(50, 400);
    for (int k = 0; k < ops; ++k) {
      if (rng.chance(0.7)) {
        const auto src =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(shards) - 1));
        const auto dst =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(shards) - 1));
        std::uint64_t msg = encode(src, dst, next_seq[src][dst]);
        const std::uint64_t original = msg;
        if (mb.try_send(src, dst, msg)) {
          ++next_seq[src][dst];
          ++sent;
        } else {
          // Rejection must leave the caller's message intact (the campus
          // keeps hosting the session for one more epoch).
          EXPECT_EQ(msg, original);
          ++rejected;
        }
      } else {
        drain(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(shards) - 1)));
      }
    }
    for (std::size_t dst = 0; dst < shards; ++dst) drain(dst);

    // Conservation: every accepted message came out exactly once.
    EXPECT_EQ(delivered, sent);
    for (std::size_t s = 0; s < shards; ++s)
      for (std::size_t d = 0; d < shards; ++d)
        EXPECT_EQ(next_expected[s][d], next_seq[s][d]);
    // Back-pressure only ever happens against a bounded lane.
    if (rejected > 0) {
      EXPECT_LE(capacity, mb.lane_capacity());
    }
  });
}

TEST(MailboxProp, MoveOnlyPayloadsSurviveRejectionAndDelivery) {
  run_cases("mailbox move-only payloads", [](Rng& rng, int) {
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 6));
    HandoverMailbox<std::unique_ptr<std::uint64_t>> mb(shards, capacity);

    std::uint64_t sent = 0, delivered = 0, payload_sum_in = 0,
                  payload_sum_out = 0;
    const int ops = rng.uniform_int(30, 200);
    for (int k = 0; k < ops; ++k) {
      if (rng.chance(0.6)) {
        const auto src = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(shards) - 1));
        const auto dst = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(shards) - 1));
        const auto value = static_cast<std::uint64_t>(k + 1);
        auto msg = std::make_unique<std::uint64_t>(value);
        if (mb.try_send(src, dst, msg)) {
          EXPECT_EQ(msg, nullptr) << "accepted message must be moved out";
          payload_sum_in += value;
          ++sent;
        } else {
          // A rejected unique_ptr must still own its payload — losing it
          // here would leak (or destroy) a live Session in the campus.
          ASSERT_NE(msg, nullptr);
          EXPECT_EQ(*msg, value);
        }
      } else {
        const auto dst = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(shards) - 1));
        mb.drain_to(dst, [&](std::unique_ptr<std::uint64_t> m) {
          ASSERT_NE(m, nullptr);
          payload_sum_out += *m;
          ++delivered;
        });
      }
    }
    for (std::size_t dst = 0; dst < shards; ++dst)
      mb.drain_to(dst, [&](std::unique_ptr<std::uint64_t> m) {
        ASSERT_NE(m, nullptr);
        payload_sum_out += *m;
        ++delivered;
      });
    EXPECT_EQ(delivered, sent);
    EXPECT_EQ(payload_sum_out, payload_sum_in);
  });
}

TEST(MailboxProp, FullLaneRejectsWithoutBlockingAndRecoversAfterDrain) {
  run_cases("mailbox capacity back-pressure", [](Rng& rng, int) {
    const auto shards = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const auto min_capacity = static_cast<std::size_t>(rng.uniform_int(1, 9));
    HandoverMailbox<std::uint64_t> mb(shards, min_capacity);
    const std::size_t cap = mb.lane_capacity();
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(shards) - 1));
    const auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(shards) - 1));

    // Fill exactly to capacity; the next send must fail immediately.
    for (std::uint64_t seq = 0; seq < cap; ++seq) {
      std::uint64_t msg = encode(src, dst, seq);
      ASSERT_TRUE(mb.try_send(src, dst, msg)) << "seq " << seq;
    }
    std::uint64_t overflow = encode(src, dst, cap);
    EXPECT_FALSE(mb.try_send(src, dst, overflow));
    EXPECT_EQ(overflow, encode(src, dst, cap));

    // Other lanes are unaffected by one lane's back-pressure.
    const std::size_t other = (dst + 1) % shards;
    if (other != dst) {
      std::uint64_t side = encode(src, other, 0);
      EXPECT_TRUE(mb.try_send(src, other, side));
    }

    // Drain delivers the full lane FIFO, after which the lane accepts again.
    std::uint64_t expected = 0;
    mb.drain_to(dst, [&](std::uint64_t msg) {
      EXPECT_EQ(msg & 0xffffffffULL, expected);
      ++expected;
    });
    EXPECT_EQ(expected, cap);
    EXPECT_GE(mb.max_depth(), cap);
    std::uint64_t again = encode(src, dst, cap);
    EXPECT_TRUE(mb.try_send(src, dst, again));
  });
}

}  // namespace
}  // namespace mobiwlan
