// Unit tests for the timestamp/location vector directory (§2.3).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/operator_directory.h"

namespace wadc::core {
namespace {

OperatorDirectory make_dir(int ops) {
  return OperatorDirectory(Placement(ops, 0));
}

TEST(OperatorDirectory, InitialStateMatchesPlacement) {
  Placement p(3, 0);
  p.set_location(1, 4);
  const OperatorDirectory dir(p);
  EXPECT_EQ(dir.num_operators(), 3);
  EXPECT_EQ(dir.location(0), 0);
  EXPECT_EQ(dir.location(1), 4);
  EXPECT_EQ(dir.timestamp(0), 0u);
}

TEST(OperatorDirectory, RecordMoveBumpsTimestamp) {
  auto dir = make_dir(3);
  dir.record_move(1, 5);
  EXPECT_EQ(dir.location(1), 5);
  EXPECT_EQ(dir.timestamp(1), 1u);
  dir.record_move(1, 2);
  EXPECT_EQ(dir.location(1), 2);
  EXPECT_EQ(dir.timestamp(1), 2u);
}

TEST(OperatorDirectory, EntryWiseMergeTakesNewerEntries) {
  auto a = make_dir(3);
  auto b = make_dir(3);
  a.record_move(0, 7);
  b.record_move(1, 8);
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.location(0), 7);  // kept own newer entry
  EXPECT_EQ(a.location(1), 8);  // took peer's newer entry
  // Merging the same information again changes nothing.
  EXPECT_FALSE(a.merge(b));
}

TEST(OperatorDirectory, EntryWiseMergeIgnoresOlderEntries) {
  auto a = make_dir(2);
  auto b = make_dir(2);
  a.record_move(0, 3);
  a.record_move(0, 4);  // timestamp 2
  b.record_move(0, 9);  // timestamp 1 (older)
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a.location(0), 4);
}

TEST(OperatorDirectory, ApplyEntryTakesNewerOnly) {
  auto a = make_dir(2);
  a.apply_entry(0, 7, 3);
  EXPECT_EQ(a.location(0), 7);
  EXPECT_EQ(a.timestamp(0), 3u);
  a.apply_entry(0, 9, 2);  // older: ignored
  EXPECT_EQ(a.location(0), 7);
}

class GossipConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GossipConvergenceTest, EntryWiseGossipConvergesToLatest) {
  // Random moves at random hosts, then random pairwise merges: all hosts
  // must converge to the per-operator latest locations.
  Rng rng(GetParam());
  const int hosts = 6;
  const int ops = 7;
  std::vector<OperatorDirectory> dirs;
  for (int h = 0; h < hosts; ++h) {
    dirs.push_back(make_dir(ops));
  }
  // Operator op is "owned" sequentially: each move happens at the host that
  // currently hosts it (mirroring the engine, where the origin site records
  // the move), so per-operator timestamps form a single chain.
  std::vector<int> owner(ops, 0);
  std::vector<net::HostId> truth(ops, 0);
  for (int step = 0; step < 40; ++step) {
    const auto op = static_cast<OperatorId>(rng.next_below(ops));
    const auto to = static_cast<net::HostId>(rng.next_below(hosts));
    auto& origin = dirs[static_cast<std::size_t>(owner[static_cast<std::size_t>(op)])];
    origin.record_move(op, to);
    // Seed the destination as the engine does.
    dirs[static_cast<std::size_t>(to)].apply_entry(op, to,
                                                   origin.timestamp(op));
    owner[static_cast<std::size_t>(op)] = to;
    truth[static_cast<std::size_t>(op)] = to;
  }
  // Gossip until quiescent (bounded rounds).
  for (int round = 0; round < 200; ++round) {
    const auto a = rng.next_below(hosts);
    const auto b = rng.next_below(hosts);
    if (a == b) continue;
    dirs[b].merge(dirs[a]);
  }
  // Full sweep to guarantee convergence regardless of gossip luck.
  for (int sweep = 0; sweep < hosts; ++sweep) {
    for (int h = 1; h < hosts; ++h) {
      dirs[static_cast<std::size_t>(h)].merge(
          dirs[static_cast<std::size_t>(h - 1)]);
      dirs[static_cast<std::size_t>(h - 1)].merge(
          dirs[static_cast<std::size_t>(h)]);
    }
  }
  for (int h = 0; h < hosts; ++h) {
    for (OperatorId op = 0; op < ops; ++op) {
      EXPECT_EQ(dirs[static_cast<std::size_t>(h)].location(op),
                truth[static_cast<std::size_t>(op)])
          << "host " << h << " operator " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipConvergenceTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace wadc::core
