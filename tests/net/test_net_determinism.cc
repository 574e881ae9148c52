// The tentpole guarantee, end to end over real loopback sockets: a
// recorded trace streamed through the admission port produces telemetry
// byte-identical to DecisionServer replaying the same trace in-process.
// The idle-flush timer is set far beyond the test so wall-clock timing
// cannot close a batch early — exactly how a determinism-sensitive
// deployment should configure it.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

#include "client.h"

namespace facsp::net {
namespace {

std::string telemetry_csv(const serve::ServerResult& r) {
  std::ostringstream os;
  serve::write_telemetry_csv(r, os);
  return os.str();
}

TEST(NetDeterminism, SocketPathMatchesInProcessReplayByteForByte) {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario_label = "paper-grid";
  config.duration_s = 4;
  config.requests_per_s = 150;
  config.shards = 3;
  config.batch_window_s = 0.1;
  config.batch_max = 64;

  const std::vector<serve::StampedRequest> trace = serve::record_trace(config);
  ASSERT_FALSE(trace.empty());

  // Reference: in-process replay, duration derived from the trace.
  serve::ServerConfig replay_config = config;
  replay_config.duration_s = 0;
  serve::DecisionServer reference(replay_config, trace);
  const serve::ServerResult replay = reference.run();
  const std::string replay_csv = telemetry_csv(replay);

  // Socket path: one connection streaming the trace in order.
  NetConfig net;
  net.port = 0;
  net.flush_idle_s = 3600.0;  // wall clock must not close batches
  NetServer server(config, net);
  std::thread loop([&server] { server.run(); });

  {
    UniqueFd fd = connect_tcp("127.0.0.1", server.admission_port());
    timeval tv{10, 0};
    setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    // Write the whole stream, then FLUSH.  Response volume (32 B/request)
    // fits the server's write buffer plus the kernel's socket buffers, so
    // a write-then-read client cannot deadlock at this trace size.
    std::vector<std::uint8_t> out(trace.size() * kRequestFrameSize +
                                  kFlushFrameSize);
    std::uint8_t* w = out.data();
    for (const serve::StampedRequest& r : trace) {
      encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                     FrameType::kRequest, kProtocolVersion, 0},
                    w);
      encode_request(r, w + kHeaderSize);
      w += kRequestFrameSize;
    }
    encode_header({0, FrameType::kFlush, kProtocolVersion, 0}, w);
    send_all(fd.get(), out.data(), out.size());

    // Read until the flush echo; count one response per request.
    std::size_t responses = 0;
    for (;;) {
      std::uint8_t hdr[kHeaderSize];
      ASSERT_TRUE(read_exact(fd.get(), hdr, sizeof hdr)) << "early EOF";
      const FrameHeader h = decode_header(hdr);
      ASSERT_EQ(validate_header(h), WireError::kNone);
      std::uint8_t payload[kMaxPayload];
      if (h.len > 0)
        ASSERT_TRUE(read_exact(fd.get(), payload, h.len));
      if (h.type == FrameType::kFlush) break;
      ASSERT_EQ(h.type, FrameType::kResponse);
      ++responses;
    }
    EXPECT_EQ(responses, trace.size());
  }

  server.request_stop();
  loop.join();

  const serve::ServerResult socket_result = server.result();
  EXPECT_EQ(telemetry_csv(socket_result), replay_csv);
  EXPECT_EQ(socket_result.total_decisions, replay.total_decisions);
  EXPECT_EQ(socket_result.total_admitted, replay.total_admitted);
  EXPECT_EQ(server.service().shed_total(), 0u);
}

}  // namespace
}  // namespace facsp::net
