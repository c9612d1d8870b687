#include "distributed/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstring>

#include "util/string_util.h"

namespace haten2 {
namespace distributed {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

template <typename T>
void AppendRaw(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T ReadRaw(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void EncodeFrameBytes(const WireFrame& frame, std::string* out) {
  AppendRaw(kWireMagic, out);
  AppendRaw(kWireVersion, out);
  AppendRaw(static_cast<uint16_t>(frame.type), out);
  AppendRaw(frame.worker, out);
  AppendRaw(frame.job, out);
  AppendRaw(frame.a, out);
  AppendRaw(frame.b, out);
  AppendRaw(static_cast<uint32_t>(frame.payload.size()), out);
  AppendRaw(Crc32(frame.payload.data(), frame.payload.size()), out);
  out->append(frame.payload);
}

WireChannel::WireChannel(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)) {}

WireChannel::~WireChannel() { Close(); }

void WireChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WireChannel::WriteExact(const char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::send(fd_, buf + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat(
          "wire: write to %s failed at byte offset %llu: %s", peer_.c_str(),
          static_cast<unsigned long long>(bytes_sent_ + done),
          std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  bytes_sent_ += n;
  return Status::OK();
}

Status WireChannel::WriteFrame(const WireFrame& frame) {
  if (fd_ < 0) {
    return Status::IOError("wire: channel to " + peer_ + " is closed");
  }
  std::string bytes;
  bytes.reserve(kWireHeaderBytes + frame.payload.size());
  EncodeFrameBytes(frame, &bytes);
  Status s = WriteExact(bytes.data(), bytes.size());
  if (!s.ok()) failed_ = true;
  return s;
}

Status WireChannel::ReadExact(char* buf, size_t n, double timeout_seconds,
                              uint64_t frame_offset) {
  size_t done = 0;
  while (done < n) {
    if (timeout_seconds > 0.0) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
      if (timeout_ms < 1) timeout_ms = 1;
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(StrFormat(
            "wire: poll on %s failed at byte offset %llu: %s", peer_.c_str(),
            static_cast<unsigned long long>(bytes_received_ + done),
            std::strerror(errno)));
      }
      if (ready == 0) {
        return Status::IOError(StrFormat(
            "wire: read from %s timed out after %.3fs at byte offset %llu",
            peer_.c_str(), timeout_seconds,
            static_cast<unsigned long long>(bytes_received_ + done)));
      }
    }
    ssize_t r = ::recv(fd_, buf + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat(
          "wire: read from %s failed at byte offset %llu: %s", peer_.c_str(),
          static_cast<unsigned long long>(bytes_received_ + done),
          std::strerror(errno)));
    }
    if (r == 0) {
      // EOF: the peer closed (or died) mid-frame or between frames.
      const char* what = (done == 0 && frame_offset == 0)
                             ? "connection closed by"
                             : "truncated frame from";
      return Status::IOError(StrFormat(
          "wire: %s %s at byte offset %llu", what, peer_.c_str(),
          static_cast<unsigned long long>(bytes_received_ + done)));
    }
    done += static_cast<size_t>(r);
  }
  bytes_received_ += n;
  return Status::OK();
}

Status WireChannel::ReadFrame(double timeout_seconds, WireFrame* out) {
  Status s = ReadFrameOnce(timeout_seconds, out);
  if (!s.ok()) failed_ = true;
  return s;
}

Status WireChannel::ReadFrameOnce(double timeout_seconds, WireFrame* out) {
  if (fd_ < 0) {
    return Status::IOError("wire: channel to " + peer_ + " is closed");
  }
  const uint64_t header_offset = bytes_received_;
  char header[kWireHeaderBytes];
  HATEN2_RETURN_IF_ERROR(
      ReadExact(header, kWireHeaderBytes, timeout_seconds, 0));

  size_t pos = 0;
  auto take = [&header, &pos](auto* v) {
    std::memcpy(v, header + pos, sizeof(*v));
    pos += sizeof(*v);
  };
  uint32_t magic;
  uint16_t version;
  uint16_t type;
  uint32_t payload_len;
  uint32_t crc;
  take(&magic);
  take(&version);
  take(&type);
  take(&out->worker);
  take(&out->job);
  take(&out->a);
  take(&out->b);
  take(&payload_len);
  take(&crc);

  if (magic != kWireMagic) {
    return Status::IOError(StrFormat(
        "wire: bad magic 0x%08x (want 0x%08x) from %s at byte offset %llu",
        magic, kWireMagic, peer_.c_str(),
        static_cast<unsigned long long>(header_offset)));
  }
  if (version != kWireVersion) {
    return Status::IOError(StrFormat(
        "wire: unsupported protocol version %u (want %u) from %s at byte "
        "offset %llu",
        version, kWireVersion, peer_.c_str(),
        static_cast<unsigned long long>(header_offset)));
  }
  if (type < static_cast<uint16_t>(FrameType::kAssignment) ||
      type > static_cast<uint16_t>(FrameType::kWorkerDone)) {
    return Status::IOError(StrFormat(
        "wire: unknown frame type %u from %s at byte offset %llu", type,
        peer_.c_str(), static_cast<unsigned long long>(header_offset)));
  }
  if (payload_len > kMaxWirePayloadBytes) {
    return Status::IOError(StrFormat(
        "wire: oversized payload length %u (limit %u) from %s at byte "
        "offset %llu",
        payload_len, kMaxWirePayloadBytes, peer_.c_str(),
        static_cast<unsigned long long>(header_offset)));
  }
  out->type = static_cast<FrameType>(type);
  out->payload.resize(payload_len);
  if (payload_len > 0) {
    HATEN2_RETURN_IF_ERROR(ReadExact(out->payload.data(), payload_len,
                                     timeout_seconds, kWireHeaderBytes));
  }
  uint32_t actual = Crc32(out->payload.data(), out->payload.size());
  if (actual != crc) {
    return Status::IOError(StrFormat(
        "wire: payload CRC mismatch (got 0x%08x, want 0x%08x) from %s at "
        "byte offset %llu",
        actual, crc, peer_.c_str(),
        static_cast<unsigned long long>(header_offset)));
  }
  return Status::OK();
}

Status MakeSocketPair(int* first_fd, int* second_fd) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(StrFormat("wire: socketpair failed: %s",
                                     std::strerror(errno)));
  }
  *first_fd = fds[0];
  *second_fd = fds[1];
  return Status::OK();
}

}  // namespace distributed
}  // namespace haten2
