#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"

namespace facsp::sim {
namespace {

/// Pop everything, returning the records in pop order.
template <class Record>
std::vector<Record> drain(EventHeap<Record>& heap) {
  std::vector<Record> out;
  while (!heap.empty()) out.push_back(heap.pop().record);
  return out;
}

TEST(EventHeap, PopsInTimeOrder) {
  EventHeap<int> heap;
  heap.push(3.0, 3);
  heap.push(1.0, 1);
  heap.push(2.0, 2);
  EXPECT_EQ(drain(heap), (std::vector<int>{1, 2, 3}));
}

TEST(EventHeap, TopAndPopCarryTheTimestamp) {
  EventHeap<int> heap;
  heap.push(4.5, 7);
  EXPECT_DOUBLE_EQ(heap.top().when, 4.5);
  const auto e = heap.pop();
  EXPECT_DOUBLE_EQ(e.when, 4.5);
  EXPECT_EQ(e.record, 7);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, RejectsNonFiniteTime) {
  EventHeap<int> heap;
  EXPECT_THROW(heap.push(std::numeric_limits<double>::infinity(), 0),
               ContractViolation);
  EXPECT_THROW(heap.push(std::numeric_limits<double>::quiet_NaN(), 0),
               ContractViolation);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, EmptyHeapAccessorsThrow) {
  EventHeap<int> heap;
  EXPECT_THROW(heap.top(), ContractViolation);
  EXPECT_THROW(heap.pop(), ContractViolation);
}

// --- tie-break hardening ---------------------------------------------------
// The parallel sweep's bit-identical guarantee silently depends on events at
// equal timestamps popping in FIFO insertion order (a plain heap would make
// tie order an implementation accident).  These tests pin the property down
// in the shapes the session driver produces.

TEST(EventHeap, TiesPopInPushOrder) {
  EventHeap<int> heap;
  for (int i = 0; i < 10; ++i) heap.push(5.0, i);
  EXPECT_EQ(drain(heap), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventHeap, TiesFifoEvenWhenInsertedNonContiguously) {
  // Ties interleaved with other timestamps: FIFO order is per-timestamp
  // push order, not global insertion adjacency.
  EventHeap<std::string> heap;
  heap.push(2.0, "a@2");
  heap.push(1.0, "x@1");
  heap.push(2.0, "b@2");
  heap.push(1.0, "y@1");
  heap.push(2.0, "c@2");
  EXPECT_EQ(drain(heap), (std::vector<std::string>{"x@1", "y@1", "a@2",
                                                   "b@2", "c@2"}));
}

TEST(EventHeap, TiesPushedWhileDrainingPopAfterExistingTies) {
  // An event that schedules more work at the *current* timestamp gets a
  // later sequence number, so it runs after everything already queued there.
  EventHeap<std::string> heap;
  heap.push(1.0, "first");
  heap.push(1.0, "second");
  std::vector<std::string> order;
  while (!heap.empty()) {
    const auto e = heap.pop();
    order.push_back(e.record);
    if (e.record == "first") heap.push(e.when, "nested");
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"first", "second", "nested"}));
}

TEST(EventHeap, TieBreakStressScrambledInsertion) {
  // 1000 events over 10 shared timestamps, inserted in a scrambled but
  // deterministic order; within each timestamp they must pop in exactly the
  // order they were pushed.
  EventHeap<int> heap;
  std::vector<std::vector<int>> expected(10);
  for (int i = 0; i < 1000; ++i) {
    const int k = (i * 7919) % 1000;  // 7919 coprime with 1000: a permutation
    const int t = k % 10;
    expected[t].push_back(k);
    heap.push(static_cast<double>(t), k);
  }
  std::vector<std::vector<int>> popped(10);  // per-timestamp pop order
  double last = -1.0;
  while (!heap.empty()) {
    const auto e = heap.pop();
    EXPECT_LE(last, e.when);
    last = e.when;
    popped[static_cast<std::size_t>(e.when)].push_back(e.record);
  }
  for (int t = 0; t < 10; ++t) EXPECT_EQ(popped[t], expected[t]) << "t=" << t;
}

TEST(EventHeap, ManyEventsStressOrdering) {
  EventHeap<int> heap;
  for (int i = 0; i < 1000; ++i)
    heap.push(static_cast<double>((i * 7919) % 503), i);
  double last = -1.0;
  int popped = 0;
  while (!heap.empty()) {
    const double when = heap.pop().when;
    EXPECT_LE(last, when);
    last = when;
    ++popped;
  }
  EXPECT_EQ(popped, 1000);
}

}  // namespace
}  // namespace facsp::sim
