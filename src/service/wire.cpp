#include "service/wire.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <unistd.h>

namespace gapsp::service {
namespace {

/// A garbage length prefix (a peer that is not speaking the protocol) must
/// not turn into a multi-gigabyte allocation.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

// ---- payload packing ----
// Little scalar writer/reader over a byte vector; the reader bounds-checks
// every get and throws CorruptError, so a truncated or hostile payload can
// never read out of bounds.

struct Packer {
  std::vector<std::uint8_t> out;

  void bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + len);
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
};

struct Unpacker {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  void bytes(void* p, std::size_t len) {
    // An empty field (a point result's row, an absent error) may come with
    // p == nullptr, and memcpy with a null pointer is undefined even for
    // zero bytes.
    if (len == 0) return;
    if (len > in.size() - pos) {
      throw CorruptError("wire payload truncated");
    }
    std::memcpy(p, in.data() + pos, len);
    pos += len;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  void done() const {
    if (pos != in.size()) {
      throw CorruptError("wire payload has trailing bytes");
    }
  }
};

std::uint64_t checked_count(std::uint64_t count, std::uint64_t unit,
                            std::size_t remaining) {
  if (unit != 0 && count > remaining / unit) {
    throw CorruptError("wire payload count exceeds its frame");
  }
  return count;
}

/// write_frame must see EPIPE as a return value, not die on SIGPIPE; done
/// once, process-wide, the first time any frame is written.
void ignore_sigpipe() {
  static const bool once = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)once;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const WireHello& hello) {
  Packer p;
  p.i64(hello.shard);
  p.i64(hello.n);
  p.i64(hello.row_begin);
  p.i64(hello.row_end);
  return std::move(p.out);
}

WireHello decode_hello(std::span<const std::uint8_t> payload) {
  Unpacker u{payload};
  WireHello h;
  h.shard = static_cast<int>(u.i64());
  h.n = static_cast<vidx_t>(u.i64());
  h.row_begin = static_cast<vidx_t>(u.i64());
  h.row_end = static_cast<vidx_t>(u.i64());
  u.done();
  return h;
}

std::vector<std::uint8_t> encode_batch(std::span<const Query> queries) {
  Packer p;
  p.u64(queries.size());
  for (const Query& q : queries) {
    p.u32(static_cast<std::uint32_t>(q.kind));
    p.i64(q.u);
    p.i64(q.v);
  }
  return std::move(p.out);
}

std::vector<Query> decode_batch(std::span<const std::uint8_t> payload) {
  Unpacker u{payload};
  const std::uint64_t count =
      checked_count(u.u64(), 4 + 8 + 8, payload.size() - u.pos);
  std::vector<Query> out(static_cast<std::size_t>(count));
  for (Query& q : out) {
    const std::uint32_t kind = u.u32();
    if (kind > static_cast<std::uint32_t>(QueryKind::kRow)) {
      throw CorruptError("wire batch has an unknown query kind");
    }
    q.kind = static_cast<QueryKind>(kind);
    q.u = static_cast<vidx_t>(u.i64());
    q.v = static_cast<vidx_t>(u.i64());
  }
  u.done();
  return out;
}

std::vector<std::uint8_t> encode_batch_reply(const BatchReport& report) {
  Packer p;
  p.u64(report.results.size());
  for (const QueryResult& r : report.results) {
    p.u32(static_cast<std::uint32_t>(r.status));
    p.u32(static_cast<std::uint32_t>(r.query.kind));
    p.i64(r.query.u);
    p.i64(r.query.v);
    p.i64(r.dist);
    p.f64(r.latency_s);
    p.u64(r.row.size());
    p.bytes(r.row.data(), r.row.size() * sizeof(dist_t));
    p.u64(r.error.size());
    p.bytes(r.error.data(), r.error.size());
  }
  const ServiceStats& s = report.service;
  p.i64(s.served);
  p.i64(s.degraded);
  p.i64(s.shed);
  p.i64(s.repaired);
  p.i64(s.retries);
  p.i64(s.transient_failures);
  p.i64(s.corrupt_tiles);
  const CacheStats& c = report.cache;
  p.i64(c.hits);
  p.i64(c.misses);
  p.i64(c.evictions);
  p.i64(c.negative_loads);
  p.i64(c.quarantined_tiles);
  p.i64(c.quarantine_hits);
  p.u64(c.bytes_cached);
  p.u64(c.capacity_bytes);
  p.f64(report.wall_seconds);
  return std::move(p.out);
}

WireBatchReply decode_batch_reply(std::span<const std::uint8_t> payload) {
  Unpacker u{payload};
  WireBatchReply reply;
  const std::uint64_t count = checked_count(
      u.u64(), 4 + 4 + 8 * 3 + 8 + 8 + 8, payload.size() - u.pos);
  reply.results.resize(static_cast<std::size_t>(count));
  for (QueryResult& r : reply.results) {
    const std::uint32_t status = u.u32();
    if (status > static_cast<std::uint32_t>(QueryStatus::kError)) {
      throw CorruptError("wire reply has an unknown query status");
    }
    r.status = static_cast<QueryStatus>(status);
    const std::uint32_t kind = u.u32();
    if (kind > static_cast<std::uint32_t>(QueryKind::kRow)) {
      throw CorruptError("wire reply has an unknown query kind");
    }
    r.query.kind = static_cast<QueryKind>(kind);
    r.query.u = static_cast<vidx_t>(u.i64());
    r.query.v = static_cast<vidx_t>(u.i64());
    r.dist = static_cast<dist_t>(u.i64());
    r.latency_s = u.f64();
    const std::uint64_t row_len =
        checked_count(u.u64(), sizeof(dist_t), payload.size() - u.pos);
    r.row.resize(static_cast<std::size_t>(row_len));
    u.bytes(r.row.data(), r.row.size() * sizeof(dist_t));
    const std::uint64_t err_len =
        checked_count(u.u64(), 1, payload.size() - u.pos);
    r.error.resize(static_cast<std::size_t>(err_len));
    u.bytes(r.error.data(), r.error.size());
  }
  ServiceStats& s = reply.service;
  s.served = u.i64();
  s.degraded = u.i64();
  s.shed = u.i64();
  s.repaired = u.i64();
  s.retries = u.i64();
  s.transient_failures = u.i64();
  s.corrupt_tiles = u.i64();
  CacheStats& c = reply.cache;
  c.hits = u.i64();
  c.misses = u.i64();
  c.evictions = u.i64();
  c.negative_loads = u.i64();
  c.quarantined_tiles = u.i64();
  c.quarantine_hits = u.i64();
  c.bytes_cached = static_cast<std::size_t>(u.u64());
  c.capacity_bytes = static_cast<std::size_t>(u.u64());
  reply.wall_seconds = u.f64();
  u.done();
  return reply;
}

bool read_frame(int fd, WireFrame& out, int timeout_ms) {
  std::uint32_t header[2] = {0, 0};
  auto* dst = reinterpret_cast<std::uint8_t*>(header);
  std::size_t want = sizeof(header);
  std::size_t got = 0;
  bool reading_payload = false;
  for (;;) {
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw IoError("poll on worker pipe failed: " +
                    std::string(std::strerror(errno)));
    }
    if (ready == 0) {
      throw IoError("timed out after " + std::to_string(timeout_ms) +
                    " ms waiting for a frame");
    }
    const ssize_t r = ::read(fd, dst + got, want - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError("read from worker pipe failed: " +
                    std::string(std::strerror(errno)));
    }
    if (r == 0) {
      if (!reading_payload && got == 0) return false;  // clean EOF
      throw IoError("peer closed the pipe mid-frame");
    }
    got += static_cast<std::size_t>(r);
    if (got < want) continue;
    if (reading_payload) break;
    // Header complete: validate and switch to the payload.
    if (header[0] > kMaxFrameBytes) {
      throw IoError("implausible frame length " + std::to_string(header[0]));
    }
    if (header[1] < static_cast<std::uint32_t>(WireType::kHello) ||
        header[1] > static_cast<std::uint32_t>(WireType::kShutdown)) {
      throw IoError("unknown frame type " + std::to_string(header[1]));
    }
    out.type = static_cast<WireType>(header[1]);
    out.payload.resize(header[0]);
    if (header[0] == 0) break;
    dst = out.payload.data();
    want = out.payload.size();
    got = 0;
    reading_payload = true;
  }
  return true;
}

void write_frame(int fd, WireType type,
                 std::span<const std::uint8_t> payload) {
  ignore_sigpipe();
  GAPSP_CHECK(payload.size() <= kMaxFrameBytes, "frame payload too large");
  const std::uint32_t header[2] = {static_cast<std::uint32_t>(payload.size()),
                                   static_cast<std::uint32_t>(type)};
  std::vector<std::uint8_t> buf(sizeof(header) + payload.size());
  std::memcpy(buf.data(), header, sizeof(header));
  if (!payload.empty()) {
    std::memcpy(buf.data() + sizeof(header), payload.data(), payload.size());
  }
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t w = ::write(fd, buf.data() + sent, buf.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError("write to worker pipe failed: " +
                    std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace gapsp::service
