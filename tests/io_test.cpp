// Tests for sim/io: instance and schedule serialization round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/greedy_scheduler.hpp"
#include "sim/io.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::txn;

Instance sample_instance() {
  Instance inst;
  inst.origins = {origin(0, 3), origin(1, 7, 0)};
  inst.txns = {txn(10, 2, 0, {0}), txn(11, 5, 4, {0, 1})};
  inst.txns[1].accesses[1].mode = AccessMode::kRead;
  return inst;
}

TEST(InstanceIo, RoundTrip) {
  const Instance inst = sample_instance();
  std::stringstream buf;
  save_instance(buf, inst);
  const Instance back = load_instance(buf);
  ASSERT_EQ(back.origins.size(), 2u);
  EXPECT_EQ(back.origins[0].id, 0);
  EXPECT_EQ(back.origins[0].node, 3);
  EXPECT_EQ(back.origins[1].node, 7);
  ASSERT_EQ(back.txns.size(), 2u);
  EXPECT_EQ(back.txns[0].id, 10);
  EXPECT_EQ(back.txns[1].gen_time, 4);
  ASSERT_EQ(back.txns[1].accesses.size(), 2u);
  EXPECT_EQ(back.txns[1].accesses[0].mode, AccessMode::kWrite);
  EXPECT_EQ(back.txns[1].accesses[1].mode, AccessMode::kRead);
  EXPECT_EQ(back.txns[1].accesses[1].obj, 1);
}

TEST(InstanceIo, TextIsStable) {
  std::stringstream buf;
  save_instance(buf, sample_instance());
  const std::string expected =
      "dtm-instance v1\n"
      "object 0 3 0\n"
      "object 1 7 0\n"
      "txn 10 2 0 0:w\n"
      "txn 11 5 4 0:w 1:r\n";
  EXPECT_EQ(buf.str(), expected);
}

TEST(InstanceIo, CommentsAndBlanksIgnored) {
  std::stringstream buf(
      "dtm-instance v1\n\n# a comment\nobject 0 1 0\ntxn 1 0 0 0:w\n");
  const Instance inst = load_instance(buf);
  EXPECT_EQ(inst.origins.size(), 1u);
  EXPECT_EQ(inst.txns.size(), 1u);
}

TEST(InstanceIo, RejectsMalformed) {
  {
    std::stringstream buf("wrong header\n");
    EXPECT_THROW((void)load_instance(buf), CheckError);
  }
  {
    std::stringstream buf("dtm-instance v1\nobject 0\n");
    EXPECT_THROW((void)load_instance(buf), CheckError);
  }
  {
    std::stringstream buf("dtm-instance v1\ntxn 1 0 0\n");  // no accesses
    EXPECT_THROW((void)load_instance(buf), CheckError);
  }
  {
    std::stringstream buf("dtm-instance v1\ntxn 1 0 0 5:x\n");  // bad mode
    EXPECT_THROW((void)load_instance(buf), CheckError);
  }
  {
    std::stringstream buf("dtm-instance v1\nbogus 1 2 3\n");
    EXPECT_THROW((void)load_instance(buf), CheckError);
  }
}

/// load_instance(text) must fail with "parse error at line N" naming
/// `what`.
void expect_parse_error(const std::string& text, int line,
                        const std::string& what) {
  std::stringstream buf(text);
  try {
    (void)load_instance(buf);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("parse error at line " + std::to_string(line) + ":"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(InstanceIo, RejectsDuplicateObjectId) {
  expect_parse_error("dtm-instance v1\nobject 0 1 0\nobject 0 2 0\n", 3,
                     "duplicate object 0");
}

TEST(InstanceIo, RejectsDuplicateTxnId) {
  expect_parse_error(
      "dtm-instance v1\nobject 0 1 0\ntxn 4 0 0 0:w\ntxn 4 1 2 0:r\n", 4,
      "duplicate txn 4");
}

TEST(InstanceIo, RejectsAccessToUndeclaredObject) {
  expect_parse_error(
      "dtm-instance v1\nobject 0 1 0\ntxn 1 0 0 0:w\ntxn 2 0 0 0:w 7:r\n"
      "txn 3 0 0 5:w\n",
      4, "undeclared object 7");
  // Declaration order is free: an object declared after its first user is
  // declared.
  std::stringstream later(
      "dtm-instance v1\ntxn 1 0 0 3:w\nobject 3 1 0\n");
  EXPECT_EQ(load_instance(later).txns.size(), 1u);
}

TEST(InstanceIo, RejectsNegativeFields) {
  expect_parse_error("dtm-instance v1\nobject 0 -1 0\n", 2, "negative node");
  expect_parse_error("dtm-instance v1\nobject 0 1 -3\n", 2,
                     "negative created");
  expect_parse_error("dtm-instance v1\nobject 0 1 0\ntxn 1 -2 0 0:w\n", 3,
                     "negative node");
  expect_parse_error("dtm-instance v1\nobject 0 1 0\ntxn 1 0 -5 0:w\n", 3,
                     "negative time");
  expect_parse_error("dtm-instance v1\nobject 0 1 0\ntxn -1 0 0 0:w\n", 3,
                     "negative txn id");
  expect_parse_error("dtm-instance v1\nobject 0 1 0\ntxn 1 0 0 -1:w\n", 3,
                     "negative object id");
}

TEST(ScheduleIo, RoundTripAgainstInstance) {
  const Instance inst = sample_instance();
  std::vector<ScheduledTxn> sched{{inst.txns[0], 5}, {inst.txns[1], 9}};
  std::stringstream buf;
  save_schedule(buf, sched);
  const auto back = load_schedule(buf, inst);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].exec, 5);
  EXPECT_EQ(back[1].exec, 9);
  EXPECT_EQ(back[1].txn.accesses.size(), 2u);  // re-attached from instance
}

TEST(ScheduleIo, MissingTxnGetsNoTime) {
  const Instance inst = sample_instance();
  std::stringstream buf("dtm-schedule v1\ncommit 10 5\n");
  const auto back = load_schedule(buf, inst);
  EXPECT_EQ(back[0].exec, 5);
  EXPECT_EQ(back[1].exec, kNoTime);
}

TEST(ScheduleIo, RejectsUnknownAndDuplicate) {
  const Instance inst = sample_instance();
  {
    std::stringstream buf("dtm-schedule v1\ncommit 99 5\n");
    EXPECT_THROW((void)load_schedule(buf, inst), CheckError);
  }
  {
    std::stringstream buf("dtm-schedule v1\ncommit 10 5\ncommit 10 6\n");
    EXPECT_THROW((void)load_schedule(buf, inst), CheckError);
  }
}

TEST(Io, FileRoundTrip) {
  const Instance inst = sample_instance();
  const std::string path = ::testing::TempDir() + "/dtm_io_test_instance.txt";
  save_instance_file(path, inst);
  const Instance back = load_instance_file(path);
  EXPECT_EQ(back.txns.size(), inst.txns.size());
  EXPECT_THROW((void)load_instance_file("/nonexistent/nope.txt"), CheckError);
}

TEST(Io, EndToEndReproducesRun) {
  // Save an instance, reload it, run both through the same scheduler:
  // identical schedules.
  const Network net = make_line(12);
  Instance inst;
  inst.origins = {origin(0, 0), origin(1, 11)};
  inst.txns = {txn(1, 3, 0, {0}), txn(2, 8, 0, {0, 1}),
               txn(3, 5, 2, {1})};
  std::stringstream buf;
  save_instance(buf, inst);
  const Instance back = load_instance(buf);

  auto run = [&](const Instance& i) {
    ScriptedWorkload wl(i.origins, i.txns);
    GreedyScheduler sched;
    return testing::run_and_validate(net, wl, sched).committed;
  };
  const auto a = run(inst);
  const auto b = run(back);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].txn.id, b[i].txn.id);
    EXPECT_EQ(a[i].exec, b[i].exec);
  }
}

}  // namespace
}  // namespace dtm
