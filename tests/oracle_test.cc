#include <gtest/gtest.h>

#include <stdexcept>

#include "src/apps/framework/guest_node.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"
#include "src/harness/world.h"
#include "src/oracle/oracle.h"
#include "src/profile/binary_info.h"

namespace rose {
namespace {

// Two nodes whose logs the tests append to directly; no guest ever boots.
class LogOracleTest : public ::testing::Test {
 protected:
  LogOracleTest() : world_(1), cluster_(&world_.kernel, &world_.network, &binary_, {}) {
    for (int i = 0; i < 2; i++) {
      cluster_.AddNode([](Cluster*, NodeId) { return nullptr; });
    }
  }

  SimWorld world_;
  BinaryInfo binary_;
  Cluster cluster_;
};

TEST_F(LogOracleTest, MatchesSubstring) {
  EXPECT_FALSE(LogOracle(&cluster_, "anything")());
  cluster_.AppendLog(1, "all healthy");
  EXPECT_FALSE(LogOracle(&cluster_, "PANIC")());
  cluster_.AppendLog(0, "PANIC: corrupted snapshot file");
  EXPECT_TRUE(LogOracle(&cluster_, "corrupted snapshot")());
  // The node prefix is part of the line, as it was of the merged log text.
  EXPECT_TRUE(LogOracle(&cluster_, "n0] PANIC")());
}

TEST_F(LogOracleTest, FindsLinesAppendedAfterAPollAndLatches) {
  LogOracle oracle(&cluster_, "lost write");
  cluster_.AppendLog(0, "booting");
  cluster_.AppendLog(1, "booting");
  EXPECT_FALSE(oracle());
  cluster_.AppendLog(1, "steady");
  EXPECT_FALSE(oracle());
  // The match is neither the first nor the last line since the last poll.
  cluster_.AppendLog(0, "replaying");
  cluster_.AppendLog(0, "detected lost write on replay");
  cluster_.AppendLog(0, "recovered");
  EXPECT_TRUE(oracle());
  cluster_.AppendLog(1, "healthy");
  EXPECT_TRUE(oracle());
  EXPECT_TRUE(oracle());
}

TEST_F(LogOracleTest, RejectsPatternsThatAreNotOneLine) {
  EXPECT_THROW(LogOracle(&cluster_, "lost\nwrite"), std::invalid_argument);
  EXPECT_THROW(LogOracle(&cluster_, "lost write\n"), std::invalid_argument);
  EXPECT_THROW(LogOracle(&cluster_, ""), std::invalid_argument);
}

// Every catalogue oracle is built when its bug deploys, so deploying all 20
// checks that each log pattern is one line.
TEST_F(LogOracleTest, EveryCatalogueBugDeploys) {
  ASSERT_EQ(AllBugs().size(), 20u);
  for (const BugSpec* spec : AllBugs()) {
    SimWorld world(1);
    Deployment deployment;
    ASSERT_NO_THROW(deployment = spec->deploy(world, 1)) << spec->id;
    ASSERT_TRUE(deployment.oracle) << spec->id;
    EXPECT_THROW(LogOracle(deployment.cluster.get(), "two\nlines"), std::invalid_argument);
  }
}

TEST(ElleLiteTest, CleanHistoryHasNoViolations) {
  const std::vector<std::string> acked = {"a", "b", "c"};
  const std::vector<std::string> committed = {"a", "b", "c", "d"};  // d unacked: fine.
  EXPECT_TRUE(ElleLite::CheckAppendHistory(acked, committed).empty());
}

TEST(ElleLiteTest, DetectsLostWrite) {
  const auto violations = ElleLite::CheckAppendHistory({"a", "b"}, {"a"});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, HistoryViolation::Kind::kLostWrite);
  EXPECT_EQ(violations[0].op_id, "b");
}

TEST(ElleLiteTest, DetectsDuplicate) {
  const auto violations = ElleLite::CheckAppendHistory({"a"}, {"a", "b", "a"});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, HistoryViolation::Kind::kDuplicate);
  EXPECT_EQ(violations[0].op_id, "a");
}

TEST(ElleLiteTest, DetectsReorderedAcks) {
  // b acked after a but committed before it.
  const auto violations = ElleLite::CheckAppendHistory({"a", "b"}, {"b", "a"});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, HistoryViolation::Kind::kReordered);
}

TEST(ElleLiteTest, MultipleViolationKindsReportedTogether) {
  const auto violations =
      ElleLite::CheckAppendHistory({"lost", "x"}, {"x", "dup", "dup"});
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].kind, HistoryViolation::Kind::kDuplicate);
  EXPECT_EQ(violations[1].kind, HistoryViolation::Kind::kLostWrite);
}

TEST(ElleLiteTest, EmptyInputs) {
  EXPECT_TRUE(ElleLite::CheckAppendHistory({}, {}).empty());
  EXPECT_TRUE(ElleLite::CheckAppendHistory({}, {"x"}).empty());
  EXPECT_EQ(ElleLite::CheckAppendHistory({"x"}, {}).size(), 1u);
}

}  // namespace
}  // namespace rose
