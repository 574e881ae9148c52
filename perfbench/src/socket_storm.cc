// socket-storm: a handoff-heavy admission trace served over loopback TCP.
//
// The trace is recorded with serve::record_trace from the
// multicell-handover-storm scenario (60% handoffs) and streamed by one
// client thread over one connection into a net::NetServer running on its
// own thread, in the same process.  One connection keeps one global arrival
// order, which the server requires and which makes its telemetry
// byte-identical to in-process DecisionServer replay of the same trace.
//
// Passes:
//   * open loop, one pass per rung of a fixed offered-rate ladder: request
//     i is due at t0 + i / rate and its latency runs from that due time to
//     the moment its response is read, so a stall is charged to every
//     request queued behind it.  How late the generator itself ran is kept
//     as the lag; a pass whose generator fell behind is invalid.
//   * saturation: the whole trace due at once; decisions per wall second.
//
// Every server lives for exactly one pass, so every pass starts from the
// same empty admission state.
#include <poll.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <numeric>
#include <sstream>
#include <thread>

#include "cac/facs_p.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "net/admission_service.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/decision_loop.h"
#include "serve/request_stream.h"
#include "serve/trace.h"
#include "workload/catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace facsp;

// Offered rates of the open-loop ladder (requests per wall second).  The
// ladder stays below the knee: on a 4-core host the open-loop knee drifts
// between about 90k/s and 130k/s with the host's load (saturation between
// 120k/s and 185k/s), and a rung near the knee passes or fails with that
// drift, not with the program.  On an unchanged program every rung meets
// the limits; a regression that moves the knee below 80k/s shows as a
// lower max_rate_rps.
constexpr double kRungs[] = {20000, 40000, 60000, 80000};
constexpr double kSmokeRungs[] = {20000, 40000};
// latency_p50_us / latency_p99_us are read at this rung.
constexpr double kReferenceRate = 60000;
constexpr double kSmokeReferenceRate = 40000;
// A rung passes when its p99 stays within this limit ...
constexpr double kLatencyLimitUs = 20000;
// ... and its backlog grows by less than one full round of batches
// (4 shards x batch_max 256) over the pass's second half.
constexpr std::int64_t kBacklogSlack = 1024;
// A pass whose generator ran later than this at p99 is invalid.
constexpr double kLagLimitUs = 1000;
// Wall seconds of traffic per rung.
constexpr double kRungSeconds = 0.5;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Waterfall check: the ledger's prediction of the per-request socket cost
// must agree with the measured cost within this share of it.
constexpr double kLedgerResidual = 0.4;

serve::ServerConfig server_config(std::uint64_t seed, bool smoke,
                                  const std::string& policy) {
  serve::ServerConfig cfg;
  cfg.scenario = workload::catalog_scenario("multicell-handover-storm");
  cfg.scenario.seed = seed;
  cfg.scenario_label = "multicell-handover-storm";
  cfg.policy = policy;
  cfg.shards = 4;
  cfg.threads = 1;
  cfg.requests_per_s = 2000;
  cfg.handoff_fraction = 0.6;
  cfg.duration_s = smoke ? 4 : 60;
  cfg.validate(true);
  return cfg;
}

net::NetConfig net_config() {
  net::NetConfig nc;
  nc.port = 0;
  // Batches close on the arrival watermark and the final FLUSH only: a
  // wall-clock idle flush could split a batch and break the byte identity
  // with replay.
  nc.flush_idle_s = 3600.0;
  nc.validate();
  return nc;
}

std::string telemetry_csv(const serve::ServerResult& r) {
  std::ostringstream os;
  serve::write_telemetry_csv(r, os);
  return os.str();
}

struct Inputs {
  serve::ServerConfig config;
  std::vector<serve::StampedRequest> trace;
  std::vector<std::uint8_t> frames;  ///< every request frame, no FLUSH
  double generate_s = 0.0;
  double parse_s = 0.0;
  bool round_trip_ok = false;
};

/// Generate the trace from the seed, round-trip it through the trace CSV
/// format and pre-encode its request frames.
Inputs make_inputs(std::uint64_t seed, bool smoke) {
  Inputs in;
  in.config = server_config(seed, smoke, "facs-p");
  double t = now_s();
  std::vector<serve::StampedRequest> recorded;
  {
    Timed span("workload/record_trace");
    recorded = serve::record_trace(in.config);
  }
  in.generate_s = now_s() - t;
  // Ids become the trace index + 1, so a response names its request.
  for (std::size_t i = 0; i < recorded.size(); ++i) recorded[i].req.id = i + 1;
  std::ostringstream os;
  serve::write_trace(recorded, os);
  std::istringstream is(os.str());
  t = now_s();
  {
    Timed span("serve/read_trace");
    in.trace = serve::read_trace(is);
  }
  in.parse_s = now_s() - t;
  in.round_trip_ok = in.trace.size() == recorded.size();
  for (std::size_t i = 0; in.round_trip_ok && i < recorded.size(); ++i) {
    const auto& a = recorded[i];
    const auto& b = in.trace[i];
    in.round_trip_ok = a.req.now == b.req.now && a.req.id == b.req.id &&
                       a.req.speed_kmh == b.req.speed_kmh &&
                       a.req.angle_deg == b.req.angle_deg &&
                       a.holding_s == b.holding_s && a.req.kind == b.req.kind;
  }
  in.frames.resize(in.trace.size() * net::kRequestFrameSize);
  std::uint8_t* w = in.frames.data();
  for (const serve::StampedRequest& r : in.trace) {
    net::encode_header({static_cast<std::uint32_t>(net::kRequestPayloadSize),
                        net::FrameType::kRequest, net::kProtocolVersion, 0},
                       w);
    net::encode_request(r, w + net::kHeaderSize);
    w += net::kRequestFrameSize;
  }
  return in;
}

struct Pass {
  double rate = 0.0;  ///< offered req/s; 0 = saturation (all due at once)
  std::size_t n = 0;
  std::size_t responses = 0, drops = 0, errors = 0, duplicates = 0;
  std::size_t missing = 0;
  double wall_s = 0.0;  ///< first due time -> FLUSH echo read
  std::vector<double> lat_us;
  std::vector<double> lag_us;
  std::uint64_t syscalls = 0;
  std::int64_t backlog_mid = 0, backlog_end = 0;
  double server_cpu_s = 0.0;
  std::string telemetry;
  std::int64_t decisions = 0, admitted = 0;
  std::uint64_t shed = 0;
  std::string failure;

  double achieved_rate() const {
    return wall_s > 0 ? static_cast<double>(responses) / wall_s : 0.0;
  }
  double p99_us() const { return quantile(lat_us, 0.99); }
  double lag_p99_us() const { return quantile(lag_us, 0.99); }
  bool generator_valid() const { return lag_p99_us() <= kLagLimitUs; }
  bool backlog_grew() const { return backlog_end - backlog_mid > kBacklogSlack; }
  bool meets_limits() const {
    return failure.empty() && missing == 0 && errors == 0 && drops == 0 &&
           generator_valid() && !backlog_grew() && p99_us() <= kLatencyLimitUs;
  }
};

double thread_cpu_s(clockid_t cid) {
  timespec ts{};
  clock_gettime(cid, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Stream the first `n` frames of `frames` plus a FLUSH into a fresh
/// server, open loop at `rate` (0 = saturation), until the FLUSH echo.
Pass run_pass(const serve::ServerConfig& config,
              const std::vector<std::uint8_t>& frames, std::size_t n,
              double rate) {
  Pass p;
  p.rate = rate;
  p.n = n;
  std::vector<std::uint8_t> out(frames.begin(),
                                frames.begin() + static_cast<std::ptrdiff_t>(
                                                     n * net::kRequestFrameSize));
  out.resize(out.size() + net::kFlushFrameSize);
  net::encode_header({0, net::FrameType::kFlush, net::kProtocolVersion, 0},
                     out.data() + n * net::kRequestFrameSize);
  p.lat_us.reserve(n);
  if (rate > 0) p.lag_us.reserve(n);
  std::vector<std::uint8_t> seen(n, 0);

  net::NetServer server(config, net_config());
  std::exception_ptr server_error;
  std::thread th([&] {
    try {
      server.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  clockid_t server_clock{};
  pthread_getcpuclockid(th.native_handle(), &server_clock);

  try {
    net::UniqueFd fd = net::connect_tcp("127.0.0.1", server.admission_port());
    net::set_nonblocking(fd.get());
    static thread_local std::vector<std::uint8_t> inbuf(256 * 1024);
    std::size_t in_len = 0, sent = 0, due = 0;
    bool flushed = false, mid_sampled = false, end_sampled = false;
    const double cpu0 = thread_cpu_s(server_clock);
    const double t0 = now_s();
    double last_progress = t0;
    Timed span(rate > 0 ? "loadgen/open_loop_pass" : "loadgen/saturation_pass",
               static_cast<std::int64_t>(n));
    while (!flushed) {
      double now = now_s();
      if (rate > 0) {
        const std::size_t target = std::min(
            n, static_cast<std::size_t>((now - t0) * rate) + 1);
        for (std::size_t i = due; i < target; ++i)
          p.lag_us.push_back((now - (t0 + static_cast<double>(i) / rate)) * 1e6);
        due = target;
      } else {
        due = n;
      }
      const auto answered =
          static_cast<std::int64_t>(p.responses + p.drops);
      if (!mid_sampled && due >= n / 2) {
        p.backlog_mid = static_cast<std::int64_t>(due) - answered;
        mid_sampled = true;
      }
      if (!end_sampled && due == n) {
        p.backlog_end = static_cast<std::int64_t>(due) - answered;
        end_sampled = true;
      }
      const std::size_t writable =
          due * net::kRequestFrameSize + (due == n ? net::kFlushFrameSize : 0);
      bool progressed = false;
      if (sent < writable) {
        const ssize_t w = ::write(fd.get(), out.data() + sent,
                                  std::min<std::size_t>(writable - sent, 1 << 18));
        ++p.syscalls;
        if (w > 0) {
          sent += static_cast<std::size_t>(w);
          progressed = true;
        } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
          throw net::SocketError("write", "loopback", errno);
        }
      }
      const ssize_t r =
          ::read(fd.get(), inbuf.data() + in_len, inbuf.size() - in_len);
      ++p.syscalls;
      if (r == 0) {
        p.failure = "server closed the connection mid-pass";
        break;
      }
      if (r < 0 && errno != EAGAIN && errno != EINTR)
        throw net::SocketError("read", "loopback", errno);
      if (r > 0) {
        const double tr = now_s();
        progressed = true;
        in_len += static_cast<std::size_t>(r);
        std::size_t off = 0;
        while (in_len - off >= net::kHeaderSize) {
          const net::FrameHeader h = net::decode_header(inbuf.data() + off);
          if (in_len - off < net::kHeaderSize + h.len) break;
          const std::uint8_t* payload = inbuf.data() + off + net::kHeaderSize;
          std::uint64_t id = 0;
          bool answer = false;
          if (h.type == net::FrameType::kResponse) {
            net::ResponseFrame f;
            if (net::decode_response(payload, h.len, f) == net::WireError::kNone) {
              id = f.id;
              answer = true;
              ++p.responses;
            } else {
              ++p.errors;
            }
          } else if (h.type == net::FrameType::kDropped) {
            if (net::decode_dropped(payload, h.len, id) == net::WireError::kNone) {
              answer = true;
              ++p.drops;
            } else {
              ++p.errors;
            }
          } else if (h.type == net::FrameType::kFlush) {
            flushed = true;
          } else {
            ++p.errors;
          }
          if (answer) {
            if (id == 0 || id > n || seen[id - 1] != 0) {
              ++p.duplicates;
            } else {
              seen[id - 1] = 1;
              const double due_t =
                  rate > 0 ? t0 + static_cast<double>(id - 1) / rate : t0;
              p.lat_us.push_back((tr - due_t) * 1e6);
            }
          }
          off += net::kHeaderSize + h.len;
        }
        if (off > 0) {
          std::memmove(inbuf.data(), inbuf.data() + off, in_len - off);
          in_len -= off;
        }
      }
      if (progressed) {
        last_progress = now_s();
        continue;
      }
      now = now_s();
      if (now - last_progress > 30.0) {
        p.failure = "no progress for 30 s";
        break;
      }
      // Nothing moved: sleep until the next request is due, or until the
      // socket is ready when everything due is already written.
      double wait_s = 0.005;
      if (rate > 0 && due < n)
        wait_s = t0 + static_cast<double>(due) / rate - now;
      if (wait_s > 20e-6) {
        pollfd pfd{fd.get(), POLLIN, 0};
        if (sent < writable) pfd.events |= POLLOUT;
        const timespec ts{0, static_cast<long>(std::min(wait_s, 0.005) * 1e9)};
        ::ppoll(&pfd, 1, &ts, nullptr);
        ++p.syscalls;
      }
    }
    p.wall_s = now_s() - t0;
    p.server_cpu_s = thread_cpu_s(server_clock) - cpu0;
  } catch (const std::exception& e) {
    p.failure = e.what();
  }
  server.request_stop();
  th.join();
  if (server_error) {
    try {
      std::rethrow_exception(server_error);
    } catch (const std::exception& e) {
      p.failure = std::string("server: ") + e.what();
    }
  }
  const serve::ServerResult result = server.result();
  p.telemetry = telemetry_csv(result);
  p.decisions = result.total_decisions;
  p.admitted = result.total_admitted;
  p.shed = server.service().shed_total();
  for (std::size_t i = 0; i < n; ++i) p.missing += seen[i] == 0 ? 1 : 0;
  return p;
}

/// Account one pass: every request must get exactly one response or drop
/// frame, and no error frame may arrive.
void account(Report& report, const Pass& p, const char* what) {
  report.attempted(p.n);
  report.failed(p.errors + p.drops + p.missing + p.duplicates);
  report.check(p.failure.empty(), std::string(what) + ": " + p.failure);
  report.check(p.missing == 0 && p.duplicates == 0,
               std::string(what) + ": " + std::to_string(p.missing) +
                   " requests unanswered, " + std::to_string(p.duplicates) +
                   " duplicate answers");
  report.check(p.errors == 0, std::string(what) + ": " +
                                  std::to_string(p.errors) + " error frames");
}

struct SetupResult {
  Inputs inputs;
  double setup_s = 0.0;
};

/// Config resolution, trace generation and parsing, frame encoding, server
/// bind and a warm-up pass — everything before the first timed operation.
SetupResult set_up(Report& report, double t_start) {
  const Options& opt = report.options();
  SetupResult s;
  s.inputs = make_inputs(opt.seed, opt.smoke);
  const std::size_t warm = std::min<std::size_t>(s.inputs.trace.size(), 4000);
  const Pass w = run_pass(s.inputs.config, s.inputs.frames, warm, 0.0);
  account(report, w, "warm-up pass");
  s.setup_s = now_s() - t_start;
  return s;
}

/// Batches exactly as DecisionServer replay forms them: round-robin shard
/// split, one simulated second at a time, serve::batch_end.
struct ShardBatches {
  std::vector<cac::AdmissionRequest> reqs;
  std::vector<double> holding;
  struct Batch {
    std::int64_t second;
    std::size_t begin, end;
  };
  std::vector<Batch> batches;
};

std::vector<ShardBatches> replay_batches(const Inputs& in,
                                         std::int64_t seconds) {
  const int shards = in.config.shards;
  std::vector<ShardBatches> out(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ShardBatches& sb = out[static_cast<std::size_t>(s)];
    serve::TraceReplayStream stream(in.trace, s, shards);
    std::vector<cac::AdmissionRequest> arrivals;
    std::vector<double> holding;
    for (std::int64_t sec = 0; sec < seconds; ++sec) {
      arrivals.clear();
      holding.clear();
      stream.next_second(sec, arrivals, holding);
      const std::size_t base = sb.reqs.size();
      std::size_t i = 0;
      while (i < arrivals.size()) {
        const std::size_t j = serve::batch_end(
            arrivals, i, in.config.batch_window_s, in.config.batch_max);
        sb.batches.push_back({sec, base + i, base + j});
        i = j;
      }
      sb.reqs.insert(sb.reqs.end(), arrivals.begin(), arrivals.end());
      sb.holding.insert(sb.holding.end(), holding.begin(), holding.end());
    }
  }
  return out;
}

/// Per-layer costs of the admission path, each layer timed in isolation on
/// socket-storm's own trace and batch sizes.
struct Layers {
  double flc1_ns = 0, flc2_ns = 0, fuzzy_batch_ns = 0;
  double decide_ns = 0, decide_batch_ns = 0;
  double process_batch_ns = 0, finish_second_us = 0, serve_ns = 0;
  double batch_fill = 0;
  double decode_ns = 0, encode_ns = 0;
  double submit_ns = 0, submit_cs_ns = 0;
  double policy_build_us = 0;
  bool submit_identical = false;
};

// The layers are timed in interleaved rounds, every layer once per round,
// and each reports its median over the rounds after the first (which fills
// caches and scratch buffers).  The host's speed drifts by tens of percent
// over seconds; interleaving puts every layer under the same drift, so the
// differences the waterfall takes between layers stay meaningful.
constexpr int kLayerRounds = 6;

/// AdmissionService::submit driven without sockets over the whole trace;
/// returns the telemetry CSV it produced.
std::string submit_all(const Inputs& in, std::uint64_t* answered) {
  net::AdmissionService svc(in.config, 8192, 4096);
  *answered = 0;
  svc.set_callbacks({[answered](std::uint64_t, const cac::AdmissionRequest&,
                                const cac::AdmissionDecision&) { ++*answered; },
                     [answered](std::uint64_t, std::uint64_t) { ++*answered; }});
  for (const serve::StampedRequest& r : in.trace) svc.submit(1, r);
  svc.drain();
  return telemetry_csv(svc.result());
}

/// Bring a cell to the state the storm keeps every shard in: full.  The
/// trace's first requests are decided and applied the way ShardCore
/// applies them, so the policy's counters match the cell's load.
void fill_cell(cac::FacsPPolicy& policy, cellular::BaseStation& bs,
               const std::vector<serve::StampedRequest>& trace) {
  for (const serve::StampedRequest& r : trace) {
    if (bs.free() < 1.0) break;
    if (!policy.decide(r.req, bs).admitted || bs.holds(r.req.id)) continue;
    cellular::Connection conn;
    conn.id = r.req.id;
    conn.service = r.req.service;
    conn.bandwidth = r.req.bandwidth;
    conn.priority = r.req.priority;
    conn.origin = r.req.kind;
    if (bs.allocate(conn, r.req.now,
                    r.req.kind == cellular::RequestKind::kHandoff))
      policy.on_admitted(r.req, bs);
  }
}

Layers measure_layers(const Inputs& in, const Inputs& cs_in,
                      const std::string& replay_csv,
                      const std::string& cs_replay_csv, std::uint64_t seed) {
  Layers L;
  const std::size_t n = in.trace.size();
  const auto seconds = static_cast<std::int64_t>(
      std::floor(in.trace.back().req.now) + 1.0);
  const std::vector<ShardBatches> shards = replay_batches(in, seconds);
  std::size_t batch_count = 0;
  for (const ShardBatches& sb : shards) batch_count += sb.batches.size();
  L.batch_fill = static_cast<double>(n) /
                 static_cast<double>(batch_count * in.config.batch_max);

  cellular::CellularNetwork net(0, in.config.scenario.cell_radius_m,
                                in.config.scenario.capacity_bu);
  cellular::BaseStation& bs = net.center();
  cac::FacsPPolicy policy;
  fill_cell(policy, bs, in.trace);

  // fuzzy inputs: FLC1 gets every trace request; FLC2 gets FLC1's Cv, the
  // request's bandwidth and the full cell's counter state, as decide()
  // feeds them.
  const fuzzy::FuzzyController& flc1 = policy.flc1();
  const fuzzy::FuzzyController& flc2 = policy.flc2();
  const double cs = std::min(policy.counters(bs.id()).effective_occupancy(),
                             policy.config().flc2.cs_max);
  fuzzy::InferenceScratch scratch;
  std::vector<double> rows1(n * 3), rows2(n * 3), cv(n), ar(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cac::AdmissionRequest& r = in.trace[i].req;
    rows1[i * 3 + 0] = r.speed_kmh;
    rows1[i * 3 + 1] = r.angle_deg;
    rows1[i * 3 + 2] = r.bandwidth;
    cv[i] = flc1.evaluate_with(
        scratch, std::span<const double>(rows1.data() + i * 3, 3));
    rows2[i * 3 + 0] = cv[i];
    rows2[i * 3 + 1] = r.bandwidth;
    rows2[i * 3 + 2] = cs;
  }
  std::vector<cac::AdmissionDecision> decisions(n);
  std::vector<std::uint8_t> buf(n * net::kResponsePayloadSize);
  serve::StampedRequest decoded;
  std::uint64_t sink = 0, answered = 0;
  std::string submit_csv, submit_cs_csv;
  std::vector<double> batch_s, finish_s;
  std::uint64_t finishes = 0;

  struct Stage {
    const char* name;
    std::function<void()> body;
    std::vector<double> seconds;
  };
  std::vector<Stage> stages;
  stages.push_back({"fuzzy/flc1", [&] {
    for (std::size_t i = 0; i < n; ++i)
      cv[i] = flc1.evaluate_with(
          scratch, std::span<const double>(rows1.data() + i * 3, 3));
  }, {}});
  stages.push_back({"fuzzy/flc2", [&] {
    for (std::size_t i = 0; i < n; ++i)
      ar[i] = flc2.evaluate_with(
          scratch, std::span<const double>(rows2.data() + i * 3, 3));
  }, {}});
  // The batched cascade at the batch sizes the serving loop forms.  Rows
  // follow trace order; only the batch lengths matter to the lane kernels.
  stages.push_back({"fuzzy/batch", [&] {
    std::size_t at = 0;
    for (const ShardBatches& sb : shards) {
      for (const auto& b : sb.batches) {
        const std::size_t len = b.end - b.begin;
        flc1.evaluate_batch_with(
            scratch, std::span<const double>(rows1.data() + at * 3, len * 3),
            std::span<double>(cv.data() + at, len));
        flc2.evaluate_batch_with(
            scratch, std::span<const double>(rows2.data() + at * 3, len * 3),
            std::span<double>(ar.data() + at, len));
        at += len;
      }
    }
  }, {}});
  stages.push_back({"cac/decide", [&] {
    for (std::size_t i = 0; i < n; ++i)
      decisions[i] = policy.decide(in.trace[i].req, bs);
  }, {}});
  stages.push_back({"cac/decide_batch", [&] {
    for (const ShardBatches& sb : shards) {
      for (const auto& b : sb.batches) {
        policy.decide_batch(
            std::span<const cac::AdmissionRequest>(sb.reqs.data() + b.begin,
                                                   b.end - b.begin),
            bs,
            std::span<cac::AdmissionDecision>(decisions.data() + b.begin,
                                              b.end - b.begin));
      }
    }
  }, {}});
  // serve: one fresh ShardCore per shard fed the replay batches, seconds
  // closed in DecisionServer's order.
  stages.push_back({"serve/shard_core", [&] {
    std::vector<std::unique_ptr<serve::ShardCore>> cores;
    for (int s = 0; s < in.config.shards; ++s) {
      cores.push_back(std::make_unique<serve::ShardCore>(in.config, s));
      cores.back()->reserve_windows(static_cast<std::size_t>(seconds));
    }
    std::vector<std::size_t> cursor(shards.size(), 0);
    double b_s = 0, f_s = 0;
    finishes = 0;
    for (std::int64_t sec = 0; sec < seconds; ++sec) {
      for (std::size_t s = 0; s < shards.size(); ++s) {
        const ShardBatches& sb = shards[s];
        while (cursor[s] < sb.batches.size() &&
               sb.batches[cursor[s]].second == sec) {
          const auto& b = sb.batches[cursor[s]++];
          const double a = now_s();
          cores[s]->process_batch(
              std::span<const cac::AdmissionRequest>(sb.reqs.data() + b.begin,
                                                     b.end - b.begin),
              std::span<const double>(sb.holding.data() + b.begin,
                                      b.end - b.begin));
          b_s += now_s() - a;
        }
        const double a = now_s();
        cores[s]->finish_second(sec);
        f_s += now_s() - a;
        ++finishes;
      }
    }
    batch_s.push_back(b_s);
    finish_s.push_back(f_s);
  }, {}});
  stages.push_back({"net/decode", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* payload =
          in.frames.data() + i * net::kRequestFrameSize + net::kHeaderSize;
      sink += static_cast<std::uint64_t>(
          net::decode_request(payload, net::kRequestPayloadSize, decoded));
      sink += decoded.req.id;
    }
  }, {}});
  stages.push_back({"net/encode", [&] {
    for (std::size_t i = 0; i < n; ++i)
      net::encode_response(i + 1, decisions[i],
                           buf.data() + i * net::kResponsePayloadSize);
  }, {}});
  stages.push_back({"net/submit", [&] {
    submit_csv = submit_all(in, &answered);
  }, {}});
  stages.push_back({"net/submit_complete_sharing", [&] {
    std::uint64_t cs_answered = 0;
    submit_cs_csv = submit_all(cs_in, &cs_answered);
  }, {}});

  for (int round = 0; round < kLayerRounds; ++round) {
    for (Stage& st : stages) {
      Timed t(st.name, static_cast<std::int64_t>(n));
      st.body();
      if (round > 0) st.seconds.push_back(t.elapsed_s());
    }
  }
  auto ns = [&](std::size_t i) {
    return median(stages[i].seconds) * 1e9 / static_cast<double>(n);
  };
  L.flc1_ns = ns(0);
  L.flc2_ns = ns(1);
  L.fuzzy_batch_ns = ns(2);
  L.decide_ns = ns(3);
  L.decide_batch_ns = ns(4);
  batch_s.erase(batch_s.begin());
  finish_s.erase(finish_s.begin());
  L.process_batch_ns = median(batch_s) * 1e9 / static_cast<double>(n);
  L.finish_second_us = median(finish_s) * 1e6 / static_cast<double>(finishes);
  L.serve_ns = L.process_batch_ns + median(finish_s) * 1e9 / static_cast<double>(n);
  L.decode_ns = ns(6);
  L.encode_ns = ns(7);
  L.submit_ns = ns(8);
  L.submit_cs_ns = ns(9);
  L.submit_identical = answered == n && submit_csv == replay_csv &&
                       submit_cs_csv == cs_replay_csv;
  // Keep the codec loops' results observable.
  if (sink + buf[n / 2] == 0) L.decode_ns += 0.0;

  L.policy_build_us =
      policy_build_us(core::make_facs_p_factory(), in.config.scenario, seed);
  return L;
}

double replay_wall_s(const Inputs& in, std::string* csv, std::int64_t* total) {
  serve::DecisionServer server(in.config, in.trace);
  const double t0 = now_s();
  serve::ServerResult r;
  {
    Timed t("serve/replay", static_cast<std::int64_t>(in.trace.size()));
    r = server.run();
  }
  const double wall = now_s() - t0;
  if (csv != nullptr) *csv = telemetry_csv(r);
  if (total != nullptr) *total = r.total_decisions;
  return wall;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

void run_socket_storm(Report& report) {
  const Options& opt = report.options();
  const double t_start = now_s();

  // --- set-up, repeated: setup_s is the median ---------------------------
  std::vector<double> setups;
  SetupResult setup;
  double generate_s = 0, parse_s = 0;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    Timed span("bench/setup");
    setup = set_up(report, k == 0 ? t_start : now_s());
    setups.push_back(setup.setup_s);
    generate_s = setup.inputs.generate_s;
    parse_s = setup.inputs.parse_s;
  }
  const Inputs& in = setup.inputs;
  const std::size_t n = in.trace.size();
  report.check(in.round_trip_ok, "trace CSV round trip changed the trace");
  report.note("trace: " + std::to_string(n) + " requests over " +
              std::to_string(in.config.duration_s) +
              " simulated s, policy facs-p, 4 shards, handoff share 0.6");

  std::string replay_csv;
  std::int64_t replay_decisions = 0;
  const double replay_off_s = replay_wall_s(in, &replay_csv, &replay_decisions);
  report.check(replay_decisions == static_cast<std::int64_t>(n),
               "replay decided " + std::to_string(replay_decisions) + " of " +
                   std::to_string(n) + " requests");

  const std::vector<double> rungs =
      opt.smoke ? std::vector<double>(std::begin(kSmokeRungs),
                                      std::end(kSmokeRungs))
                : std::vector<double>(std::begin(kRungs), std::end(kRungs));
  const double reference = opt.smoke ? kSmokeReferenceRate : kReferenceRate;
  const double rung_s = opt.smoke ? 0.2 : kRungSeconds;

  std::uint64_t shed = 0, errors = 0;
  auto saturation = [&](const char* what, const serve::ServerConfig& cfg,
                        std::vector<double>& rate, std::vector<double>& wall,
                        std::uint64_t* syscalls, double* server_cpu,
                        double* admitted_ratio) {
    Pass p = run_pass(cfg, in.frames, n, 0.0);
    account(report, p, what);
    shed += p.shed;
    errors += p.errors;
    if (cfg.policy == in.config.policy && p.shed == 0)
      report.check(p.telemetry == replay_csv,
                   std::string(what) +
                       ": socket telemetry differs from in-process replay");
    rate.push_back(p.achieved_rate());
    wall.push_back(p.wall_s);
    if (syscalls) *syscalls += p.syscalls;
    if (server_cpu) *server_cpu += p.server_cpu_s;
    if (admitted_ratio && p.decisions > 0)
      *admitted_ratio = static_cast<double>(p.admitted) /
                        static_cast<double>(p.decisions);
  };

  // --- the ladder: one open-loop pass per rung ---------------------------
  auto ladder = [&](std::vector<Pass>& passes) {
    for (const double rate : rungs) {
      const std::size_t count =
          std::min(n, static_cast<std::size_t>(rate * rung_s));
      // A pass whose generator fell behind says nothing about the server:
      // it is run again, up to twice.
      Pass p;
      for (int attempt = 0; attempt < 3; ++attempt) {
        if (attempt > 0)
          report.note(fmt("rung %.0f/s: generator behind (lag p99 %.1f us), "
                          "pass repeated",
                          rate, p.lag_p99_us()));
        p = run_pass(in.config, in.frames, count, rate);
        account(report, p, "ladder pass");
        shed += p.shed;
        errors += p.errors;
        if (p.generator_valid()) break;
      }
      p.telemetry.clear();
      passes.push_back(std::move(p));
    }
  };
  // Per-rung results across rounds.  A rung passes when at least half of
  // its passes met every limit, so one scheduling hiccup on a shared host
  // does not move max_rate_rps by a whole rung.
  struct Rung {
    int passes = 0, ok = 0;
    std::vector<double> achieved_ok, p50, p99, lag_p99;
    std::uint64_t samples = 0;
  };
  std::vector<Rung> rung_stats(rungs.size());
  std::size_t ref_index = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i)
    if (rungs[i] == reference) ref_index = i;
  auto record_ladder = [&](const std::vector<Pass>& passes) {
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const Pass& p = passes[i];
      report.note(fmt("rung %6.0f/s: achieved %8.0f/s  p50 %8.1f us", p.rate,
                      p.achieved_rate(), quantile(p.lat_us, 0.5)) +
                  fmt("  p99 %8.1f us  lag p99 %6.1f us", p.p99_us(),
                      p.lag_p99_us()) +
                  fmt("  backlog +%4.0f  samples %6.0f",
                      static_cast<double>(p.backlog_end - p.backlog_mid),
                      static_cast<double>(p.lat_us.size())) +
                  (p.meets_limits()      ? ""
                   : p.generator_valid() ? "  [over limit]"
                                         : "  [invalid: generator behind]"));
      Rung& r = rung_stats[i];
      ++r.passes;
      if (p.meets_limits()) {
        ++r.ok;
        r.achieved_ok.push_back(p.achieved_rate());
      }
      if (p.generator_valid()) {
        r.p50.push_back(quantile(p.lat_us, 0.5));
        r.p99.push_back(p.p99_us());
        r.samples += p.lat_us.size();
      }
      r.lag_p99.push_back(p.lag_p99_us());
    }
  };
  // Achieved rates of the highest passing rung's passing passes.
  auto max_rate_samples = [&]() {
    for (std::size_t i = rung_stats.size(); i-- > 0;) {
      const Rung& r = rung_stats[i];
      if (r.ok > 0 && 2 * r.ok >= r.passes) return r.achieved_ok;
    }
    return std::vector<double>{};
  };

  if (!opt.trace) {
    // End-to-end metrics, tracing off.  The window is filled with rounds
    // of (ladder, 2 saturation passes); a round that would not fit in it
    // is not started.
    std::vector<double> sat_rate, sat_wall;
    const double t_measure = now_s();
    double round_s = 0;
    int rounds = 0;
    do {
      const double t_round = now_s();
      std::vector<Pass> passes;
      ladder(passes);
      record_ladder(passes);
      for (int k = 0; k < 2; ++k)
        saturation("saturation pass", in.config, sat_rate, sat_wall, nullptr,
                   nullptr, nullptr);
      ++rounds;
      round_s = now_s() - t_round;
    } while (now_s() - t_measure + round_s <= opt.seconds);
    const Rung& ref = rung_stats[ref_index];
    report.check(!ref.p99.empty(),
                 "no valid open-loop pass at the reference rate");
    report.add_samples("decisions_per_s", "1/s", sat_rate);
    report.add("latency_p50_us", "us", median(ref.p50), ref.samples,
               rel_spread(ref.p50));
    report.add("latency_p99_us", "us", median(ref.p99), ref.samples,
               rel_spread(ref.p99));
    report.add_samples("max_rate_rps", "1/s", max_rate_samples());
    report.add_samples("run_s", "s", sat_wall);
    report.add_samples("setup_s", "s", setups);
    report.add("peak_rss_mb", "MiB", peak_rss_mb());
    report.note("rounds " + std::to_string(rounds) + " (ladder of " +
                std::to_string(rungs.size()) + " rungs + 2 saturation passes); "
                "latency limit p99 <= " + fmt("%.0f us", kLatencyLimitUs) +
                ", reference rate " + fmt("%.0f/s", reference));
    report.check(shed == 0, std::to_string(shed) + " requests shed");
    return;
  }

  // --- traced run: per-layer metrics -------------------------------------
  zero_layer_metrics(report);
  // Untraced baselines first (the tracer's start() drops earlier events,
  // so nothing can be untraced after it).
  std::vector<double> plain_rate, plain_wall;
  for (int k = 0; k < 3; ++k)
    saturation("untraced saturation pass", in.config, plain_rate, plain_wall,
               nullptr, nullptr, nullptr);
  std::vector<double> replay_off;
  replay_off.push_back(replay_off_s);
  for (int k = 0; k < 4; ++k) replay_off.push_back(replay_wall_s(in, nullptr, nullptr));

  obs::Tracer::start(kTraceRing);
  obs::Tracer::set_thread_name("perfbench-main");
  obs::set_metrics_enabled(true);

  std::vector<Pass> passes;
  ladder(passes);
  record_ladder(passes);

  std::vector<double> sat_rate, sat_wall, cs_rate, cs_wall;
  std::uint64_t syscalls = 0;
  double server_cpu = 0, admitted_ratio = 0;
  // Traced saturation passes, alternating with complete-sharing passes
  // (the waterfall's loop estimate) so both see the same host drift; they
  // fill a third of the window, at least 5 pairs.
  const serve::ServerConfig cs_config =
      server_config(opt.seed, opt.smoke, "cs");
  const double t_traced = now_s();
  do {
    saturation("traced saturation pass", in.config, sat_rate, sat_wall,
               &syscalls, &server_cpu, &admitted_ratio);
    saturation("complete-sharing saturation pass", cs_config, cs_rate, cs_wall,
               nullptr, nullptr, nullptr);
  } while (sat_rate.size() < 5 || now_s() - t_traced < opt.seconds / 3);

  Inputs cs_in;
  cs_in.config = cs_config;
  cs_in.trace = in.trace;
  std::string cs_replay;
  replay_wall_s(cs_in, &cs_replay, nullptr);
  const Layers L = measure_layers(in, cs_in, replay_csv, cs_replay, opt.seed);
  report.check(L.submit_identical,
               "AdmissionService telemetry differs from in-process replay");
  const double submit_ns = L.submit_ns;
  const double submit_cs_ns = L.submit_cs_ns;

  std::vector<double> replay_on;
  for (int k = 0; k < 5; ++k) replay_on.push_back(replay_wall_s(in, nullptr, nullptr));

  const double socket_ns = 1e9 / median(sat_rate);
  const double socket_cs_ns = 1e9 / median(cs_rate);
  const double codec_ns = L.decode_ns + L.encode_ns;
  const double loop_ns = socket_ns - submit_ns - codec_ns;
  // The codec handles the same frames whatever the policy decides.
  const double loop_cs_ns = socket_cs_ns - submit_cs_ns - codec_ns;

  report.add("fuzzy.flc1_ns", "ns", L.flc1_ns, n);
  report.add("fuzzy.flc2_ns", "ns", L.flc2_ns, n);
  report.add("fuzzy.batch_ns_per_item", "ns", L.fuzzy_batch_ns, n);
  report.add("fuzzy.policy_build_us", "us", L.policy_build_us, 21);
  report.add("cac.decide_ns", "ns", L.decide_ns, n);
  report.add("cac.decide_batch_ns_per_item", "ns", L.decide_batch_ns, n);
  report.add("cac.admitted_ratio", "ratio", admitted_ratio);
  report.add("serve.process_batch_ns_per_item", "ns", L.process_batch_ns, n);
  report.add("serve.finish_second_us", "us", L.finish_second_us);
  report.add("serve.batch_fill", "ratio", L.batch_fill);
  report.add("serve.replay_decisions_per_s", "1/s",
             static_cast<double>(n) / median(replay_off), replay_off.size());
  report.add("serve.trace_read_ns_per_row", "ns",
             parse_s * 1e9 / static_cast<double>(n), n);
  report.add("net.decode_ns", "ns", L.decode_ns, n);
  report.add("net.encode_ns", "ns", L.encode_ns, n);
  report.add("net.submit_ns_per_req", "ns", submit_ns, n);
  report.add("net.loop_residual_ns_per_req", "ns", loop_ns);
  report.add("net.shed", "count", static_cast<double>(shed));
  report.add("net.error_frames", "count", static_cast<double>(errors));
  report.add("loadgen.lag_p99_us", "us",
             median(rung_stats[ref_index].lag_p99), rung_stats[ref_index].passes);
  report.add("loadgen.syscalls_per_req", "count",
             static_cast<double>(syscalls) /
                 static_cast<double>(sat_rate.size() * n));
  report.add("workload.generate_ns_per_req", "ns",
             generate_s * 1e9 / static_cast<double>(n), n);
  report.add("obs.on_off_ratio", "ratio", median(replay_on) / median(replay_off));
  report.add("bench.trace_overhead", "ratio",
             median(sat_wall) / median(plain_wall) - 1.0);

  // Waterfall: each row is the layer's own cost per request, the outer
  // layer's isolated cost minus the inner one's.
  const double rows[] = {L.fuzzy_batch_ns,
                         L.decide_batch_ns - L.fuzzy_batch_ns,
                         L.serve_ns - L.decide_batch_ns,
                         submit_ns - L.serve_ns,
                         codec_ns,
                         loop_ns};
  const char* names[] = {"fuzzy (FLC1+FLC2 lane batches)",
                         "cac (decide_batch - fuzzy)",
                         "serve (process_batch + finish_second - cac)",
                         "net.submit (AdmissionService - serve)",
                         "net.codec (decode + encode)",
                         "net.loop (socket - submit - codec)"};
  report.note("waterfall, ns per request at saturation (traced):");
  double sum = 0;
  for (int i = 0; i < 6; ++i) {
    report.note(std::string("  ") + names[i] +
                fmt(": %.1f ns (%.1f%%)", rows[i],
                    100.0 * rows[i] / socket_ns));
    sum += rows[i];
    report.check(rows[i] >= -kLedgerResidual * socket_ns,
                 std::string("waterfall row '") + names[i] +
                     "' is negative beyond the residual");
  }
  // The loop row is a remainder; what checks the ledger is predicting the
  // socket cost from an independent measurement of the loop: the same
  // passes with the complete-sharing policy, whose decision path is nearly
  // free, plus this policy's isolated submit and codec costs.
  const double predicted = submit_ns + codec_ns + loop_cs_ns;
  const double residual = std::fabs(predicted - socket_ns) / socket_ns;
  report.note(fmt("  sum %.1f ns = measured %.1f ns/request; predicted from "
                  "the complete-sharing loop %.1f ns",
                  sum, socket_ns, predicted) +
              fmt(" (residual %.1f%%, limit %.0f%%)", 100 * residual,
                  100 * kLedgerResidual));
  report.note(fmt("  server thread busy %.1f%% of the saturation wall time",
                  100.0 * server_cpu /
                      std::accumulate(sat_wall.begin(), sat_wall.end(), 0.0)));
  report.check(residual <= kLedgerResidual,
               fmt("waterfall residual %.1f%% exceeds %.0f%%", 100 * residual,
                   100 * kLedgerResidual));
  report.check(shed == 0, std::to_string(shed) + " requests shed");
  obs::set_metrics_enabled(false);
  flush_spans();
  obs::Tracer::stop();
}

}  // namespace perfbench
