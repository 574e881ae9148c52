// Loopback test clients for NetServer: blocking sockets with a receive
// timeout (a server bug fails the test instead of hanging it), frame
// encoders for requests, FLUSH barriers and whole bursts, and readers that
// collect response ids up to the FLUSH echo.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/decision_loop.h"

namespace facsp::net {

inline void send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    ASSERT_GT(w, 0) << "client write failed: " << std::strerror(errno);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// False on clean EOF before any byte; fatal on timeout/error midway.
inline bool read_exact(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) {
      EXPECT_EQ(got, 0u) << "EOF mid-frame";
      return false;
    }
    if (r < 0) {
      ADD_FAILURE() << "client read failed: " << std::strerror(errno);
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

inline bool read_frame(int fd, Frame& out) {
  std::uint8_t hdr[kHeaderSize];
  if (!read_exact(fd, hdr, sizeof hdr)) return false;
  out.header = decode_header(hdr);
  EXPECT_EQ(validate_header(out.header), WireError::kNone);
  out.payload.resize(out.header.len);
  if (out.header.len > 0 && !read_exact(fd, out.payload.data(), out.header.len))
    return false;
  return true;
}

inline UniqueFd connect_client(std::uint16_t port) {
  UniqueFd fd = connect_tcp("127.0.0.1", port);
  timeval tv{5, 0};
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

inline serve::StampedRequest request_at(double t, std::uint64_t id) {
  serve::StampedRequest r;
  r.req.now = t;
  r.req.id = id;
  r.req.bandwidth = 1.0;
  r.req.speed_kmh = 30.0;
  r.req.angle_deg = 10.0;
  r.req.distance_m = 100.0;
  r.req.mobile.position.x = 10.0;
  r.req.mobile.position.y = 10.0;
  r.req.mobile.heading_deg = 0.0;
  r.req.mobile.speed_kmh = 30.0;
  r.holding_s = 60.0;
  return r;
}

inline void send_request(int fd, const serve::StampedRequest& r) {
  std::uint8_t buf[kRequestFrameSize];
  encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                 FrameType::kRequest, kProtocolVersion, 0},
                buf);
  encode_request(r, buf + kHeaderSize);
  send_all(fd, buf, sizeof buf);
}

inline void send_flush(int fd) {
  std::uint8_t buf[kFlushFrameSize];
  encode_header({0, FrameType::kFlush, kProtocolVersion, 0}, buf);
  send_all(fd, buf, sizeof buf);
}

/// `count` requests with ids first_id.., the i-th stamped t + i * dt,
/// optionally followed by a FLUSH, in one buffer so one client write
/// carries them all.
inline std::vector<std::uint8_t> burst(double t, std::uint64_t first_id,
                                       int count, bool flush, double dt = 0.0) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(count) *
                                    kRequestFrameSize +
                                (flush ? kFlushFrameSize : 0));
  std::uint8_t* p = out.data();
  for (int i = 0; i < count; ++i, p += kRequestFrameSize) {
    encode_header({static_cast<std::uint32_t>(kRequestPayloadSize),
                   FrameType::kRequest, kProtocolVersion, 0},
                  p);
    encode_request(request_at(t + i * dt,
                              first_id + static_cast<std::uint64_t>(i)),
                   p + kHeaderSize);
  }
  if (flush) encode_header({0, FrameType::kFlush, kProtocolVersion, 0}, p);
  return out;
}

/// Response ids up to the FLUSH echo (false if the stream ended first).
inline bool read_until_echo(int fd, std::vector<std::uint64_t>& ids) {
  Frame f;
  while (read_frame(fd, f)) {
    if (f.header.type == FrameType::kFlush) return true;
    EXPECT_EQ(f.header.type, FrameType::kResponse);
    ResponseFrame r;
    EXPECT_EQ(decode_response(f.payload.data(), f.payload.size(), r),
              WireError::kNone);
    ids.push_back(r.id);
  }
  return false;
}

}  // namespace facsp::net
