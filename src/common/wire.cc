#include "src/common/wire.h"

#include <array>
#include <cstring>

namespace rose {

namespace {

void PutU16LE(char* out, uint16_t value) {
  out[0] = static_cast<char>(value & 0xff);
  out[1] = static_cast<char>(value >> 8);
}

void PutU32LE(char* out, uint32_t value) {
  for (int i = 0; i < 4; i++) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint16_t GetU16LE(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               static_cast<uint8_t>(p[1]) << 8);
}

// Endian-neutral little-endian 32-bit load (the compilers of interest fold
// this to one mov on little-endian hosts).
uint32_t GetU32LE(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k further zero bytes, letting the hot loop fold
// eight input bytes per iteration with eight independent lookups. The
// resulting CRC is bit-identical to the byte-at-a-time form.
const std::array<std::array<uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; bit++) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; k++) {
      for (uint32_t i = 0; i < 256; i++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = Crc32Tables();
  uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t one = crc ^ GetU32LE(p);
    const uint32_t two = GetU32LE(p + 4);
    crc = t[7][one & 0xff] ^ t[6][(one >> 8) & 0xff] ^ t[5][(one >> 16) & 0xff] ^
          t[4][one >> 24] ^ t[3][two & 0xff] ^ t[2][(two >> 8) & 0xff] ^
          t[1][(two >> 16) & 0xff] ^ t[0][two >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff];
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendWireHeader(std::string* out, const char (&magic)[4], uint16_t version) {
  char header[kWireHeaderSize] = {magic[0], magic[1], magic[2], magic[3]};
  PutU16LE(header + 4, version);  // The reserved u16 stays zero.
  out->append(header, sizeof(header));
}

HeaderStatus CheckWireHeader(std::string_view data, const char (&magic)[4],
                             uint16_t max_version, uint16_t* version) {
  if (data.size() < sizeof(magic) || std::memcmp(data.data(), magic, sizeof(magic)) != 0) {
    return HeaderStatus::kBadMagic;
  }
  if (data.size() < kWireHeaderSize) {
    return HeaderStatus::kTruncated;
  }
  *version = GetU16LE(data.data() + 4);
  return *version == 0 || *version > max_version ? HeaderStatus::kBadVersion
                                                 : HeaderStatus::kOk;
}

void AppendFrame(std::string* out, uint8_t kind, std::string_view payload) {
  char header[kFrameHeaderSize];
  header[0] = static_cast<char>(kind);
  PutU32LE(header + 1, static_cast<uint32_t>(payload.size()));
  PutU32LE(header + 5, Crc32(payload));
  out->append(header, sizeof(header));
  out->append(payload.data(), payload.size());
}

Frame SplitFrame(std::string_view data, size_t max_payload) {
  Frame frame;
  if (data.size() < kFrameHeaderSize) {
    return frame;
  }
  frame.kind = static_cast<uint8_t>(data[0]);
  frame.payload_len = GetU32LE(data.data() + 1);
  if (frame.payload_len > max_payload) {
    frame.status = FrameStatus::kTooLong;
    return frame;
  }
  if (data.size() - kFrameHeaderSize < frame.payload_len) {
    return frame;
  }
  frame.payload = data.substr(kFrameHeaderSize, frame.payload_len);
  frame.consumed = kFrameHeaderSize + frame.payload_len;
  frame.status = Crc32(frame.payload) == GetU32LE(data.data() + 5) ? FrameStatus::kFrame
                                                                    : FrameStatus::kBadCrc;
  return frame;
}

std::string_view FrameBuffer::Unread() {
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return std::string_view(buffer_).substr(consumed_);
}

}  // namespace rose
