// Simulation time and the stable event heap the session driver runs on.
//
// Records pushed at the same instant pop in push order, which keeps runs
// deterministic.  The heap holds plain records, not callbacks: the owner
// binds each record's meaning (core/session.h) and cancels by leaving stale
// records in place, dropping them when they reach the top.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/expects.h"

namespace facsp::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Min-heap of `Record`s ordered by (when, seq), where seq counts pushes.
template <class Record>
class EventHeap {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Record record;
  };

  /// Push `record` at `when`.  Throws facsp::ContractViolation for a
  /// non-finite time.
  void push(SimTime when, const Record& record) {
    FACSP_EXPECTS_MSG(std::isfinite(when), "event time must be finite, got "
                                               << when);
    heap_.push_back(Entry{when, next_seq_++, record});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  bool empty() const noexcept { return heap_.empty(); }

  /// Earliest entry.  Precondition: !empty().
  const Entry& top() const {
    FACSP_EXPECTS_MSG(!empty(), "top() on an empty event heap");
    return heap_.front();
  }

  /// Remove and return the earliest entry.  Precondition: !empty().
  Entry pop() {
    FACSP_EXPECTS_MSG(!empty(), "pop() on an empty event heap");
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

 private:
  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace facsp::sim
