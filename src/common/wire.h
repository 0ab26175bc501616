// The frame codec every Rose wire format shares (docs/wire_protocol.md).
//
// RTRC (trace dumps and streams), RSRV (serve protocol) and RJNL
// (coordinator journal) all use one layout:
//
//   header:  magic[4] | u16 version (LE) | u16 reserved
//   frame:   u8 kind | u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//
// with LEB128 varints, zigzag and length-prefixed byte runs inside payloads.
// This file is the only definition of that layout and of those encodings.
// A family keeps its magic, version, kind enum, payload cap and payload
// codecs. The splitter reports what it found and never decides: whether a
// bad CRC stops a decoder or resynchronizes it is the caller's rule, written
// where the caller maps the status.
#ifndef SRC_COMMON_WIRE_H_
#define SRC_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rose {

// magic[4] + u16 version + u16 reserved.
inline constexpr size_t kWireHeaderSize = 4 + 2 + 2;
// u8 kind + u32 payload_len + u32 crc32.
inline constexpr size_t kFrameHeaderSize = 1 + 4 + 4;

// --- Payload integers ---------------------------------------------------------
//
// Inline on purpose: the event decoder calls these once per field.

// LEB128 unsigned varint.
inline void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// Consumes a varint from the front of `*data`; false on overrun/overflow.
inline bool GetVarint(std::string_view* data, uint64_t* value) {
  // One-byte fast path: the dominant case in event frames (deltas, small
  // ids, fds) — skips the shift/accumulate loop entirely.
  if (!data->empty()) {
    const auto byte0 = static_cast<uint8_t>((*data)[0]);
    if ((byte0 & 0x80) == 0) {
      data->remove_prefix(1);
      *value = byte0;
      return true;
    }
  }
  uint64_t result = 0;
  int shift = 0;
  size_t i = 0;
  while (i < data->size() && shift < 64) {
    const auto byte = static_cast<uint8_t>((*data)[i++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      data->remove_prefix(i);
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // Ran off the end, or more than 10 continuation bytes.
}

// Zigzag maps small-magnitude signed values (timestamp deltas, fds, pids)
// onto small unsigned varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// A varint byte count followed by the bytes.
inline void PutLengthPrefixed(std::string* out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out->append(bytes.data(), bytes.size());
}

// Consumes one length-prefixed run; `*out` views into `*data`'s buffer.
inline bool GetLengthPrefixed(std::string_view* data, std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint(data, &len) || len > data->size()) {
    return false;
  }
  *out = data->substr(0, static_cast<size_t>(len));
  data->remove_prefix(static_cast<size_t>(len));
  return true;
}

// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320).
uint32_t Crc32(std::string_view data);

// --- Stream header -------------------------------------------------------------

void AppendWireHeader(std::string* out, const char (&magic)[4], uint16_t version);

enum class HeaderStatus : uint8_t {
  kOk,
  kBadMagic,    // Fewer than 4 bytes, or not this family's magic.
  kTruncated,   // The magic, but fewer than kWireHeaderSize bytes.
  kBadVersion,  // Version 0 or above the reader's maximum.
};

// Checks the header at the front of `data`: `magic`, then
// 1 <= version <= `max_version`. Sets `*version` to the announced version
// on kOk and kBadVersion.
HeaderStatus CheckWireHeader(std::string_view data, const char (&magic)[4],
                             uint16_t max_version, uint16_t* version);

// --- Frames --------------------------------------------------------------------

void AppendFrame(std::string* out, uint8_t kind, std::string_view payload);

enum class FrameStatus : uint8_t {
  kNeedMore,  // No complete frame at the front of the bytes.
  kFrame,     // One intact frame.
  kBadCrc,    // A complete frame whose payload fails its CRC.
  kTooLong,   // The announced length exceeds the caller's cap.
};

struct Frame {
  FrameStatus status = FrameStatus::kNeedMore;
  // Set whenever the 9-byte frame header is complete.
  uint8_t kind = 0;
  uint32_t payload_len = 0;
  // kFrame and kBadCrc: the payload (a view into the split bytes) and the
  // bytes the whole frame occupies, which the caller consumes either way;
  // `consumed` is 0 for the other statuses.
  std::string_view payload;
  size_t consumed = 0;
};

// Splits the frame at the front of `data`. A length above `max_payload` is
// kTooLong before the rest of the frame is awaited.
Frame SplitFrame(std::string_view data, size_t max_payload);

// Reassembly buffer for a decoder fed arbitrary chunks: bytes are fed at the
// back and consumed from the front.
class FrameBuffer {
 public:
  void Feed(std::string_view bytes) { buffer_.append(bytes.data(), bytes.size()); }
  // The fed bytes not yet consumed. Drops the consumed prefix first once it
  // passes 4 KiB and dominates the buffer, which amortizes the memmove
  // across many small frames; a view from an earlier call is invalidated
  // (Consume() is not: a view stays valid until the next Unread()).
  std::string_view Unread();
  void Consume(size_t n) { consumed_ += n; }
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace rose

#endif  // SRC_COMMON_WIRE_H_
