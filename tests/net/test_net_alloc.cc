// Steady-state allocation test for the socket serve path (counter:
// tests/alloc_counter.h).  A loopback NetServer is warmed over one
// persistent connection, which absorbs every one-time cost (connection
// slot and buffers, fd tables, poller arrays, response routing, registry
// entries).  Then 4 s and 8 s of requests stream over the same connection,
// and both must allocate exactly as often, counted on both sides of the
// socket: the extra seconds of read/decode/batch/decide/encode/write must
// not allocate once.  The client's fixed per-stream costs (its reader
// thread and frame buffer) are the same in both windows and cancel.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "net/server.h"
#include "net/socket.h"
#include "workload/catalog.h"

#include "../alloc_counter.h"
#include "client.h"

namespace facsp::net {
namespace {

using testutil::allocations;

constexpr double kRate = 2000.0;  // requests per simulated second

/// Stream `seconds` of requests from simulated time `t0`, ids from
/// `first_id`, over `fd` and read every response up to the FLUSH echo.  The frames are encoded and the id
/// buffer is sized before the counted window.  Returns the allocations made
/// (by every thread) while the wire was active.
std::size_t stream_allocs(int fd, double t0, std::uint64_t first_id,
                          int seconds) {
  const int count = seconds * static_cast<int>(kRate);
  const std::vector<std::uint8_t> bytes =
      burst(t0, first_id, count, /*flush=*/true, 1.0 / kRate);
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(count));

  const std::size_t before = allocations();
  bool echoed = false;
  std::thread reader([&] { echoed = read_until_echo(fd, ids); });
  send_all(fd, bytes.data(), bytes.size());
  reader.join();
  const std::size_t allocated = allocations() - before;

  EXPECT_TRUE(echoed);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(count));
  return allocated;
}

TEST(NetAlloc, WarmLoopbackStreamAllocatesTheSameFor4And8Seconds) {
  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = 42;
  config.shards = 4;
  config.threads = 1;
  NetConfig net;
  net.port = 0;
  net.flush_idle_s = 3600.0;  // only the FLUSH closes tail batches
  net.pending_cap = 1 << 16;
  NetServer server(config, net);
  std::thread loop([&server] { server.run(); });

  {
    UniqueFd fd = connect_client(server.admission_port());
    (void)stream_allocs(fd.get(), 0.0, 1, 2);  // warm-up
    const std::size_t short_run = stream_allocs(fd.get(), 10.0, 100000, 4);
    const std::size_t long_run = stream_allocs(fd.get(), 20.0, 200000, 8);
    EXPECT_EQ(long_run, short_run);
  }

  server.request_stop();
  loop.join();
}

}  // namespace
}  // namespace facsp::net
