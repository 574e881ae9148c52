// The socket front-end (Linux-only): a single-threaded non-blocking,
// level-triggered epoll event loop hosting
//
//   * the admission port — length-prefixed binary frames (net/frame.h)
//     from any number of connections, accumulated across connections into
//     the serving loop's batching windows by AdmissionService and answered
//     through the zero-alloc decide_batch path.  Malformed input gets one
//     typed error frame and a close, never a crash.
//
//   * the telemetry port — connect, receive a plaintext scrape (latest
//     finalized telemetry row in the exact CSV encoding, plus the metrics
//     registry snapshot), connection closes.  `nc host port` is a client.
//
// Responses are written once per loop pass: queueing a frame only appends
// it to the connection's buffer and marks the connection dirty, and the
// pass ends with one write(2) per dirty connection, so a closed batch of K
// decisions leaves in one syscall, not K.  Error frames are written at once.
//
// Robustness model:
//   * bounded per-connection buffers: reads stop (backpressure) while a
//     connection's response backlog sits above the write high watermark,
//     and resume when it drains below half of it.  The backlog counts only
//     bytes the kernel refused: a frame that would cross the watermark or
//     overflow the buffer first offers the queued bytes to the socket.
//     Accepted sockets get no SO_SNDBUF, so the kernel send buffer in
//     front of the watermark autotunes (on loopback up to tcp_wmem's max,
//     about 4 MiB), and the watermark bounds only the user-space part of a
//     stalled reader's backlog.  In
//     EventLoopTest.StalledReaderPausesThenGetsEveryResponse the first
//     pause came after about 132k requests (4.2 MB of responses);
//   * a global pending cap sheds the oldest undecided request
//     (AdmissionService, kDropped frame, counted in the registry);
//   * per-connection timeouts: a stalled partial frame (read), an
//     undrained response backlog (write), or a silent connection (idle)
//     each reap the connection on the timer sweep;
//   * graceful drain on request_stop() — the signal handlers write one
//     byte to a wake pipe — stops accepting, decides everything buffered,
//     seals the telemetry, pushes the remaining responses out briefly,
//     and (when configured) writes the telemetry/latency/summary files.
//
// Steady-state serving allocates nothing: connections and their buffers
// come from a free pool (the first accept of a slot allocates, reuse
// doesn't), frames decode on the stack, and the service's buffers are
// pre-reserved.  NetAlloc.WarmLoopbackStreamAllocatesTheSameFor4And8Seconds
// (facsp_alloc_tests) audits the whole loopback path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/admission_service.h"
#include "net/buffer.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "obs/snapshot.h"

namespace facsp::net {

struct NetConfig {
  std::string host = "127.0.0.1";
  /// Admission port; 0 binds an ephemeral port (read admission_port()).
  int port = 0;
  /// Telemetry scrape port; -1 disables, 0 ephemeral.
  int telemetry_port = -1;
  int backlog = 64;

  std::size_t read_buf = 64 * 1024;
  std::size_t write_buf = 256 * 1024;
  /// Pause reading a connection whose pending responses exceed this.
  std::size_t write_high_watermark = 192 * 1024;

  /// Global cap on undecided requests (drop-oldest beyond it).
  std::size_t pending_cap = 8192;

  /// Max simulated seconds an arrival may run ahead of the watermark;
  /// further gets a `horizon` error (see AdmissionService).
  double max_skew_s = AdmissionService::kDefaultMaxSkewS;

  double read_timeout_s = 30.0;   ///< partial frame stalled this long
  double write_timeout_s = 30.0;  ///< backlog made no progress this long
  double idle_timeout_s = 300.0;  ///< no traffic at all this long
  /// Close open batches after this much wall-clock quiet, so the last
  /// requests of a burst are not stranded waiting for the next arrival.
  double flush_idle_s = 0.05;

  /// Flush the metrics registry every this many finalized simulated
  /// seconds to `metrics_path` (0 = off).  The scrape endpoint serves the
  /// latest flushed buffer either way.
  std::int64_t metrics_interval_s = 0;
  std::string metrics_path;

  /// Telemetry row / latency reservation horizon (simulated seconds).
  std::size_t reserve_seconds = 4096;

  /// On drain, write <out_prefix>_telemetry.csv / _latency.csv /
  /// _summary.json like the in-process server (empty = skip).
  std::string out_prefix;

  void validate() const;  ///< throws facsp::ConfigError
};

class NetServer {
 public:
  /// Binds both listening sockets (throws SocketError with strerror text
  /// on failure) but does not serve yet.
  NetServer(const serve::ServerConfig& serve_config, const NetConfig& net);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t admission_port() const;
  /// 0 when the telemetry port is disabled.
  std::uint16_t telemetry_port() const;

  /// Serve until request_stop(), then drain gracefully.
  void run();

  /// Thread- and async-signal-safe stop request.
  void request_stop() noexcept { wake_.poke(); }

  /// Route SIGINT/SIGTERM to this server's request_stop.  One server at a
  /// time; pass nullptr to restore default handlers.
  static void route_signals(NetServer* server);

  const AdmissionService& service() const noexcept { return service_; }
  /// Merged result (wall_s = first submit to drain).  Valid after run().
  serve::ServerResult result() const;

 private:
  struct Connection;

  void accept_admission();
  void accept_telemetry();
  /// A free (or new) slot reset for a freshly accepted fd, registered by
  /// fd and id, and counted open; the poller registration is the caller's.
  /// `closing`: close once the output buffer is written (a scrape).
  Connection& open_connection(UniqueFd fd, bool closing);
  void on_readable(Connection& c);
  void on_writable(Connection& c);
  bool parse_frames(Connection& c);
  void handle_request(Connection& c, const std::uint8_t* payload,
                      std::size_t len);
  void send_error(Connection& c, WireError code, std::uint32_t detail);
  void queue_frame(Connection& c, FrameType type, const std::uint8_t* payload,
                   std::size_t len);
  void queue_frame_to(std::uint64_t conn_id, FrameType type,
                      const std::uint8_t* payload, std::size_t len);
  void flush_writes(Connection& c);
  /// One flush per connection queued on since the last call.
  void flush_dirty();
  void update_interest(Connection& c);
  void close_connection(Connection& c);
  void sweep_timeouts(double now_s);
  void build_scrape(std::string& out) const;
  void drain();
  double now_s() const;

  serve::ServerConfig serve_config_;
  NetConfig net_;
  AdmissionService service_;
  Poller poller_;
  UniqueFd listen_fd_;
  UniqueFd telemetry_fd_;
  WakePipe wake_;

  /// All connection objects ever created; closed ones park in free_ and
  /// are reused (buffers and all) so steady-state accepts don't allocate
  /// after the connection count's high-water mark.
  std::vector<std::unique_ptr<Connection>> slots_;
  std::vector<Connection*> free_;
  /// Connections with frames queued but not yet offered to the kernel,
  /// each at most once (Connection::dirty); reserved along with slots_ so
  /// queueing never allocates.
  std::vector<Connection*> dirty_;
  std::vector<Connection*> by_fd_;  ///< index = fd, nullptr when unused
  std::unordered_map<std::uint64_t, Connection*> by_id_;
  std::vector<PollEvent> events_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t open_connections_ = 0;

  std::unique_ptr<obs::SnapshotWriter> snapshot_;
  std::string scrape_scratch_;

  double last_submit_wall_ = -1.0;
  double first_submit_wall_ = -1.0;
  double drained_wall_ = 0.0;
  bool running_ = false;
};

}  // namespace facsp::net
