#include "cellular/basestation.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace facsp::cellular {
namespace {

Connection make_conn(ConnectionId id, ServiceClass svc) {
  Connection c;
  c.id = id;
  c.service = svc;
  c.bandwidth = service_bandwidth(svc);
  return c;
}

struct BsFixture : ::testing::Test {
  BaseStation bs{7, HexCoord{0, 0}, Point{0.0, 0.0}, 40.0};
};

TEST_F(BsFixture, InitialState) {
  EXPECT_EQ(bs.id(), 7u);
  EXPECT_DOUBLE_EQ(bs.capacity(), 40.0);
  EXPECT_DOUBLE_EQ(bs.used(), 0.0);
  EXPECT_DOUBLE_EQ(bs.free(), 40.0);
  EXPECT_EQ(bs.active_connections(), 0u);
  EXPECT_TRUE(bs.can_fit(40.0));
  EXPECT_FALSE(bs.can_fit(40.1));
}

TEST_F(BsFixture, AllocateTracksLoadByClass) {
  EXPECT_TRUE(bs.allocate(make_conn(1, ServiceClass::kVideo), 0.0));
  EXPECT_TRUE(bs.allocate(make_conn(2, ServiceClass::kText), 1.0));
  EXPECT_TRUE(bs.allocate(make_conn(3, ServiceClass::kVoice), 2.0));
  const LoadState& load = bs.load();
  EXPECT_DOUBLE_EQ(load.used, 16.0);
  EXPECT_DOUBLE_EQ(load.rt_used, 15.0);   // video + voice
  EXPECT_DOUBLE_EQ(load.nrt_used, 1.0);   // text
  EXPECT_EQ(load.rt_count, 2u);
  EXPECT_EQ(load.nrt_count, 1u);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.4);
}

TEST_F(BsFixture, AllocateFailsWhenFull) {
  for (ConnectionId id = 1; id <= 4; ++id)
    EXPECT_TRUE(bs.allocate(make_conn(id, ServiceClass::kVideo), 0.0));
  EXPECT_DOUBLE_EQ(bs.free(), 0.0);
  EXPECT_FALSE(bs.allocate(make_conn(5, ServiceClass::kText), 1.0));
  EXPECT_EQ(bs.active_connections(), 4u);
  EXPECT_DOUBLE_EQ(bs.used(), 40.0);  // unchanged by the failed attempt
}

TEST_F(BsFixture, ReleaseRestoresCapacity) {
  bs.allocate(make_conn(1, ServiceClass::kVideo), 0.0);
  bs.allocate(make_conn(2, ServiceClass::kVoice), 0.0);
  bs.release(1, 5.0);
  EXPECT_DOUBLE_EQ(bs.used(), 5.0);
  EXPECT_DOUBLE_EQ(bs.load().rt_used, 5.0);
  EXPECT_EQ(bs.load().rt_count, 1u);
  EXPECT_FALSE(bs.holds(1));
  EXPECT_TRUE(bs.holds(2));
}

TEST_F(BsFixture, ReleaseReturnsWhatWasAllocated) {
  Connection text = make_conn(1, ServiceClass::kText);
  text.bandwidth = 0.375;  // the socket path accepts any positive BU
  ASSERT_TRUE(bs.allocate(text, 0.0));
  ASSERT_TRUE(bs.allocate(make_conn(2, ServiceClass::kVideo), 0.0,
                          /*via_handoff=*/true));
  const Holding video = bs.release(2, 1.0);
  EXPECT_EQ(video.bw, 10.0);
  EXPECT_TRUE(video.real_time);
  EXPECT_TRUE(video.via_handoff);
  const Holding released_text = bs.release(1, 2.0);
  EXPECT_EQ(released_text.bw, 0.375);
  EXPECT_FALSE(released_text.real_time);
  EXPECT_FALSE(released_text.via_handoff);
}

TEST_F(BsFixture, DoubleAllocateSameConnectionThrows) {
  bs.allocate(make_conn(1, ServiceClass::kText), 0.0);
  EXPECT_THROW(bs.allocate(make_conn(1, ServiceClass::kText), 1.0),
               ContractViolation);
}

TEST_F(BsFixture, ReleaseUnknownConnectionThrows) {
  EXPECT_THROW(bs.release(99, 0.0), ContractViolation);
}

TEST_F(BsFixture, HandoffCountTracked) {
  bs.allocate(make_conn(1, ServiceClass::kVoice), 0.0, /*via_handoff=*/true);
  bs.allocate(make_conn(2, ServiceClass::kVoice), 0.0, /*via_handoff=*/false);
  EXPECT_EQ(bs.load().handoff_count, 1u);
  bs.release(1, 1.0);
  EXPECT_EQ(bs.load().handoff_count, 0u);
}

TEST_F(BsFixture, RepeatedChurnLeavesNoDrift) {
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(bs.allocate(make_conn(round * 2 + 1, ServiceClass::kVoice),
                            round));
    ASSERT_TRUE(
        bs.allocate(make_conn(round * 2 + 2, ServiceClass::kText), round));
    bs.release(round * 2 + 1, round + 0.5);
    bs.release(round * 2 + 2, round + 0.5);
  }
  EXPECT_DOUBLE_EQ(bs.used(), 0.0);
  EXPECT_DOUBLE_EQ(bs.load().rt_used, 0.0);
  EXPECT_DOUBLE_EQ(bs.load().nrt_used, 0.0);
  EXPECT_EQ(bs.active_connections(), 0u);
}

TEST_F(BsFixture, UtilizationTimeAverage) {
  bs.start_metrics(0.0);
  bs.allocate(make_conn(1, ServiceClass::kVideo), 10.0);  // 25% from t=10
  bs.release(1, 30.0);                                    // back to 0
  // [0,10): 0%, [10,30): 25%, [30,40): 0% -> average 12.5%.
  EXPECT_NEAR(bs.average_utilization(40.0), 0.125, 1e-9);
}

TEST_F(BsFixture, UtilizationWithoutStartThrows) {
  EXPECT_THROW(bs.average_utilization(1.0), ContractViolation);
}

TEST(BaseStation, RejectsNonPositiveCapacity) {
  EXPECT_THROW(BaseStation(0, HexCoord{0, 0}, Point{0, 0}, 0.0), ConfigError);
  EXPECT_THROW(BaseStation(0, HexCoord{0, 0}, Point{0, 0}, -1.0),
               ConfigError);
}

TEST(BaseStation, FractionalBandwidthFits) {
  BaseStation bs(0, HexCoord{0, 0}, Point{0, 0}, 1.0);
  Connection c;
  c.id = 1;
  c.service = ServiceClass::kText;
  c.bandwidth = 0.5;
  EXPECT_TRUE(bs.allocate(c, 0.0));
  Connection c2 = c;
  c2.id = 2;
  EXPECT_TRUE(bs.allocate(c2, 0.0));
  Connection c3 = c;
  c3.id = 3;
  c3.bandwidth = 0.01;
  EXPECT_FALSE(bs.allocate(c3, 0.0));
}

}  // namespace
}  // namespace facsp::cellular
