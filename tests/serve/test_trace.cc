#include "serve/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"

namespace facsp::serve {
namespace {

std::vector<StampedRequest> awkward_records() {
  std::vector<StampedRequest> records;
  StampedRequest a;
  a.req.now = 1.0 / 3.0;  // no short exact decimal
  a.req.id = 1099511627777ull;
  a.req.service = cellular::ServiceClass::kVideo;
  a.req.bandwidth = 10.0;
  a.req.kind = cellular::RequestKind::kHandoff;
  a.req.priority = cellular::UserPriority::kHigh;
  a.req.speed_kmh = 119.99999999999999;
  a.req.angle_deg = -179.5;
  a.req.distance_m = 1234.5678901234567;
  a.req.mobile.position = {-0.1, 2e-308};  // subnormal-adjacent
  a.req.mobile.speed_kmh = a.req.speed_kmh;
  a.req.mobile.heading_deg = 90.125;
  a.holding_s = 300.30000000000001;
  records.push_back(a);
  StampedRequest b;
  b.req.now = 0.5;
  b.req.service = cellular::ServiceClass::kText;
  b.req.bandwidth = 1.0;
  records.push_back(b);
  return records;
}

TEST(Trace, RoundTripIsExactAndByteStable) {
  const std::vector<StampedRequest> records = awkward_records();
  std::ostringstream first;
  write_trace(records, first);

  std::istringstream in(first.str());
  const std::vector<StampedRequest> parsed = read_trace(in);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Exact double round-trip (format_double), not approximate.
    EXPECT_EQ(parsed[i].req.now, records[i].req.now);
    EXPECT_EQ(parsed[i].req.id, records[i].req.id);
    EXPECT_EQ(parsed[i].req.service, records[i].req.service);
    EXPECT_EQ(parsed[i].req.bandwidth, records[i].req.bandwidth);
    EXPECT_EQ(parsed[i].req.kind, records[i].req.kind);
    EXPECT_EQ(parsed[i].req.priority, records[i].req.priority);
    EXPECT_EQ(parsed[i].req.speed_kmh, records[i].req.speed_kmh);
    EXPECT_EQ(parsed[i].req.angle_deg, records[i].req.angle_deg);
    EXPECT_EQ(parsed[i].req.distance_m, records[i].req.distance_m);
    EXPECT_EQ(parsed[i].holding_s, records[i].holding_s);
    EXPECT_EQ(parsed[i].req.mobile.position.x, records[i].req.mobile.position.x);
    EXPECT_EQ(parsed[i].req.mobile.position.y, records[i].req.mobile.position.y);
    EXPECT_EQ(parsed[i].req.mobile.heading_deg,
              records[i].req.mobile.heading_deg);
    // The predictor's noisy angle is recorded, and replay must see the
    // true kinematic speed too (SCC projects trajectories from it).
    EXPECT_EQ(parsed[i].req.mobile.speed_kmh, parsed[i].req.speed_kmh);
  }

  std::ostringstream second;
  write_trace(parsed, second);
  EXPECT_EQ(first.str(), second.str());  // record -> replay -> record
}

TEST(Trace, HeaderLineMatchesFormat) {
  std::ostringstream os;
  write_trace({}, os);
  EXPECT_EQ(os.str(), std::string(kTraceHeader) + "\n");
}

TEST(Trace, RejectsWrongHeader) {
  std::istringstream in("arrival_s,id\n1,2\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(Trace, RejectsBadCells) {
  const std::string header(kTraceHeader);
  {
    std::istringstream in(header +
                          "\nnot-a-number,1,text,1,new,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);
  }
  {
    std::istringstream in(header +
                          "\n0,1,fax,1,new,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown service
  }
  {
    std::istringstream in(header +
                          "\n0,1,text,1,maybe,normal,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown kind
  }
  {
    std::istringstream in(header + "\n0,1,text,1,new,urgent,0,0,0,1,0,0,0\n");
    EXPECT_THROW(read_trace(in), ParseError);  // unknown priority
  }
  // Parsable rows that the wire decoder would reject as kBadValue: a
  // non-positive bandwidth, a NaN speed, a negative holding time.  The
  // error names the offending row (the header is row 1).
  for (const std::string row : {"0,1,text,-5,new,normal,0,0,0,1,0,0,0",
                                "0,1,text,1,new,normal,nan,0,0,1,0,0,0",
                                "0,1,text,1,new,normal,0,0,0,-30,0,0,0"}) {
    std::istringstream in(header + "\n0,1,text,1,new,normal,0,0,0,1,0,0,0\n" +
                          row + "\n");
    try {
      read_trace(in);
      ADD_FAILURE() << "expected ParseError for " << row;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3) << row;
    }
  }
}

TEST(Trace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "facsp_trace_roundtrip.csv";
  const std::vector<StampedRequest> records = awkward_records();
  write_trace_file(records, path);
  const std::vector<StampedRequest> parsed = read_trace_file(path);
  ASSERT_EQ(parsed.size(), records.size());
  EXPECT_EQ(parsed[0].req.id, records[0].req.id);
  EXPECT_THROW(read_trace_file(path + ".does-not-exist"), Error);
}

}  // namespace
}  // namespace facsp::serve
