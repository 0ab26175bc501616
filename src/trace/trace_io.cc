#include "src/trace/trace_io.h"

#include <array>

#include "src/common/file.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace rose {

namespace {

// rose::obs self-metrics for the container codec (docs/metrics.md
// "trace_io.*"). Resolved once; recording is relaxed-atomic and write-only.
struct IoMetrics {
  Counter* serialize_calls;
  Counter* serialize_events;
  Counter* serialize_bytes;
  Histogram* serialize_ns;
  Counter* parse_calls;
  Counter* parse_events;
  Counter* parse_bytes;
  Histogram* parse_ns;
  Counter* crc_failures;
};

IoMetrics& Metrics() {
  static IoMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new IoMetrics();
    metrics->serialize_calls = reg.GetCounter("trace_io.serialize_calls");
    metrics->serialize_events = reg.GetCounter("trace_io.serialize_events");
    metrics->serialize_bytes = reg.GetCounter("trace_io.serialize_bytes");
    metrics->serialize_ns = reg.GetHistogram("trace_io.serialize_ns");
    metrics->parse_calls = reg.GetCounter("trace_io.parse_calls");
    metrics->parse_events = reg.GetCounter("trace_io.parse_events");
    metrics->parse_bytes = reg.GetCounter("trace_io.parse_bytes");
    metrics->parse_ns = reg.GetHistogram("trace_io.parse_ns");
    metrics->crc_failures = reg.GetCounter("trace_io.crc_failures");
    return metrics;
  }();
  return *m;
}

void PutU16LE(std::string* out, uint16_t value) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
}

void PutU32LE(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; i++) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16LE(std::string_view data) {
  return static_cast<uint16_t>(static_cast<uint8_t>(data[0]) |
                               (static_cast<uint8_t>(data[1]) << 8));
}

uint32_t GetU32LE(std::string_view data) {
  uint32_t value = 0;
  for (int i = 0; i < 4; i++) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return value;
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

// Endian-neutral little-endian 32-bit load (the compilers of interest fold
// this to one mov on little-endian hosts).
inline uint32_t LoadLE32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

}  // namespace

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(std::string_view* data, uint64_t* value) {
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

uint32_t Crc32(std::string_view data) {
  const auto& t = Crc32Tables();
  uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t one = crc ^ LoadLE32(p);
    const uint32_t two = LoadLE32(p + 4);
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

bool LooksLikeBinaryTrace(std::string_view data) {
  return data.size() >= 4 && data[0] == kTraceMagic[0] && data[1] == kTraceMagic[1] &&
         data[2] == kTraceMagic[2] && data[3] == kTraceMagic[3];
}

// --- Streaming frame protocol -----------------------------------------------

void AppendRtrcHeader(std::string* out, uint16_t format_version) {
  out->append(kTraceMagic, sizeof(kTraceMagic));
  PutU16LE(out, format_version);
  PutU16LE(out, 0);  // Reserved.
}

void AppendRtrcFrame(std::string* out, uint8_t kind, std::string_view payload) {
  out->push_back(static_cast<char>(kind));
  PutU32LE(out, static_cast<uint32_t>(payload.size()));
  PutU32LE(out, Crc32(payload));
  out->append(payload);
}

std::string EncodeStreamEpoch(const StreamEpoch& epoch) {
  std::string payload;
  PutVarint(&payload, epoch.epoch);
  PutVarint(&payload, ZigZagEncode(epoch.start_ts));
  PutVarint(&payload, epoch.source.size());
  payload.append(epoch.source);
  return payload;
}

bool DecodeStreamEpoch(std::string_view payload, StreamEpoch* out) {
  uint64_t epoch = 0;
  uint64_t ts = 0;
  uint64_t len = 0;
  if (!GetVarint(&payload, &epoch) || !GetVarint(&payload, &ts) ||
      !GetVarint(&payload, &len) || len != payload.size()) {
    return false;
  }
  out->epoch = epoch;
  out->start_ts = ZigZagDecode(ts);
  out->source.assign(payload);
  return true;
}

std::string EncodeOracleMark(const OracleMark& mark) {
  std::string payload;
  PutVarint(&payload, ZigZagEncode(mark.ts));
  PutVarint(&payload, mark.detail.size());
  payload.append(mark.detail);
  return payload;
}

bool DecodeOracleMark(std::string_view payload, OracleMark* out) {
  uint64_t ts = 0;
  uint64_t len = 0;
  if (!GetVarint(&payload, &ts) || !GetVarint(&payload, &len) || len != payload.size()) {
    return false;
  }
  out->ts = ZigZagDecode(ts);
  out->detail.assign(payload);
  return true;
}

bool DecodeRtrcPoolFrame(std::string_view payload, StringPool* pool) {
  uint64_t first_id = 0;
  uint64_t count = 0;
  if (!GetVarint(&payload, &first_id) || !GetVarint(&payload, &count)) {
    return false;
  }
  if (first_id != pool->size()) {
    // Ids must be dense and in stream order, or event ids resolve wrongly.
    return false;
  }
  pool->ReserveEntries(pool->size() + count);
  for (uint64_t i = 0; i < count; i++) {
    uint64_t length = 0;
    if (!GetVarint(&payload, &length) || length > payload.size()) {
      return false;
    }
    if (pool->Intern(payload.substr(0, length)) != first_id + i) {
      return false;  // Duplicate or empty string would desynchronize ids.
    }
    payload.remove_prefix(length);
  }
  return payload.empty();
}

bool DecodeRtrcEventFrame(std::string_view payload, uint16_t format_version,
                          size_t pool_size, SimTime* prev_ts, std::vector<TraceEvent>* out) {
  uint64_t count = 0;
  if (!GetVarint(&payload, &count)) {
    return false;
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; i++) {
    uint64_t raw = 0;
    if (!GetVarint(&payload, &raw)) {
      return false;
    }
    TraceEvent event;
    event.ts = *prev_ts + ZigZagDecode(raw);
    *prev_ts = event.ts;
    if (payload.empty()) {
      return false;
    }
    const auto type = static_cast<uint8_t>(payload[0]);
    payload.remove_prefix(1);
    if (type > static_cast<uint8_t>(EventType::kPS)) {
      return false;
    }
    event.type = static_cast<EventType>(type);
    if (!GetVarint(&payload, &raw)) {
      return false;
    }
    event.node = static_cast<NodeId>(ZigZagDecode(raw));
    switch (event.type) {
      case EventType::kSCF: {
        ScfInfo info;
        uint64_t sys = 0;
        uint64_t filename = 0;
        uint64_t err = 0;
        uint64_t pid = 0;
        uint64_t fd = 0;
        if (!GetVarint(&payload, &pid) || !GetVarint(&payload, &sys) ||
            !GetVarint(&payload, &fd) || !GetVarint(&payload, &filename) ||
            !GetVarint(&payload, &err) || filename >= pool_size) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.sys = static_cast<Sys>(sys);
        info.fd = static_cast<int32_t>(ZigZagDecode(fd));
        info.filename = static_cast<StrId>(filename);
        info.err = static_cast<Err>(err);
        if (format_version >= 2) {
          uint64_t digest = 0;
          uint64_t seq = 0;
          if (!GetVarint(&payload, &digest) || !GetVarint(&payload, &seq)) {
            return false;
          }
          info.ctx_digest = digest;
          info.ctx_seq = static_cast<uint32_t>(seq);
        }
        event.info = info;
        break;
      }
      case EventType::kAF: {
        AfInfo info;
        uint64_t pid = 0;
        uint64_t fid = 0;
        if (!GetVarint(&payload, &pid) || !GetVarint(&payload, &fid)) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.function_id = static_cast<int32_t>(ZigZagDecode(fid));
        event.info = info;
        break;
      }
      case EventType::kND: {
        NdInfo info;
        uint64_t src = 0;
        uint64_t dst = 0;
        uint64_t duration = 0;
        uint64_t packets = 0;
        if (!GetVarint(&payload, &src) || !GetVarint(&payload, &dst) ||
            !GetVarint(&payload, &duration) || !GetVarint(&payload, &packets) ||
            src >= pool_size || dst >= pool_size) {
          return false;
        }
        info.src_ip = static_cast<StrId>(src);
        info.dst_ip = static_cast<StrId>(dst);
        info.duration = ZigZagDecode(duration);
        info.packet_count = packets;
        event.info = info;
        break;
      }
      case EventType::kPS: {
        PsInfo info;
        uint64_t pid = 0;
        uint64_t duration = 0;
        if (!GetVarint(&payload, &pid) || payload.empty()) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.state = static_cast<ProcState>(payload[0]);
        payload.remove_prefix(1);
        if (!GetVarint(&payload, &duration)) {
          return false;
        }
        info.duration = ZigZagDecode(duration);
        event.info = info;
        break;
      }
    }
    out->push_back(event);
  }
  return payload.empty();
}

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(std::string* out, const StringPool* pool, size_t events_per_frame,
                         uint16_t format_version)
    : out_(out), pool_(pool),
      events_per_frame_(events_per_frame == 0 ? 1 : events_per_frame),
      format_version_(format_version) {
  AppendRtrcHeader(out_, format_version_);
}

void TraceWriter::EmitFrame(uint8_t kind, std::string_view payload) {
  AppendRtrcFrame(out_, kind, payload);
}

void TraceWriter::FlushPool() {
  if (pool_flushed_ >= pool_->size()) {
    return;
  }
  std::string payload;
  PutVarint(&payload, pool_flushed_);
  PutVarint(&payload, pool_->size() - pool_flushed_);
  for (size_t id = pool_flushed_; id < pool_->size(); id++) {
    const std::string_view s = pool_->View(static_cast<StrId>(id));
    PutVarint(&payload, s.size());
    payload.append(s);
  }
  pool_flushed_ = pool_->size();
  EmitFrame(kFramePool, payload);
}

void TraceWriter::FlushEvents() {
  if (buffered_ == 0) {
    return;
  }
  // Strings first: an event frame only references ids already streamed.
  FlushPool();
  std::string payload;
  PutVarint(&payload, buffered_);
  payload.append(events_payload_);
  EmitFrame(kFrameEvents, payload);
  events_payload_.clear();
  buffered_ = 0;
}

void TraceWriter::Flush() {
  // FlushEvents emits the pool delta ahead of the event frame; the second
  // call covers pool growth with no buffered events (a pool-only delta).
  FlushEvents();
  FlushPool();
}

void TraceWriter::Add(const TraceEvent& event) {
  std::string* p = &events_payload_;
  PutVarint(p, ZigZagEncode(event.ts - prev_ts_));
  prev_ts_ = event.ts;
  p->push_back(static_cast<char>(event.type));
  PutVarint(p, ZigZagEncode(event.node));
  switch (event.type) {
    case EventType::kSCF: {
      const ScfInfo& info = event.scf();
      PutVarint(p, ZigZagEncode(info.pid));
      PutVarint(p, static_cast<uint64_t>(info.sys));
      PutVarint(p, ZigZagEncode(info.fd));
      PutVarint(p, info.filename);
      PutVarint(p, static_cast<uint64_t>(info.err));
      if (format_version_ >= 2) {
        PutVarint(p, info.ctx_digest);
        PutVarint(p, info.ctx_seq);
      }
      break;
    }
    case EventType::kAF: {
      const AfInfo& info = event.af();
      PutVarint(p, ZigZagEncode(info.pid));
      PutVarint(p, ZigZagEncode(info.function_id));
      break;
    }
    case EventType::kND: {
      const NdInfo& info = event.nd();
      PutVarint(p, info.src_ip);
      PutVarint(p, info.dst_ip);
      PutVarint(p, ZigZagEncode(info.duration));
      PutVarint(p, info.packet_count);
      break;
    }
    case EventType::kPS: {
      const PsInfo& info = event.ps();
      PutVarint(p, ZigZagEncode(info.pid));
      p->push_back(static_cast<char>(info.state));
      PutVarint(p, ZigZagEncode(info.duration));
      break;
    }
  }
  if (++buffered_ >= events_per_frame_) {
    FlushEvents();
  }
}

void TraceWriter::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  FlushEvents();
  // The full pool is part of the artifact even when no event references the
  // tail (e.g. an empty trace still round-trips its pool).
  FlushPool();
  EmitFrame(kFrameEnd, {});
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(std::string_view data) : rest_(data) {
  if (!LooksLikeBinaryTrace(data)) {
    Fail(DiagCode::kBadTraceMagic, Severity::kError,
         StrFormat("input does not start with the RTRC magic (%zu bytes)", data.size()),
         "Rose loads only RTRC containers; a .txt export is for reading, not reloading");
    return;
  }
  if (data.size() < kRtrcStreamHeaderSize) {
    Fail(DiagCode::kTruncatedTrace, Severity::kError,
         "stream ends inside the container header",
         "the dump was cut off while writing its first 8 bytes");
    return;
  }
  const uint16_t version = GetU16LE(data.substr(4, 2));
  if (version > kTraceFormatVersion) {
    Fail(DiagCode::kBadTraceVersion, Severity::kError,
         StrFormat("container version %u, this reader understands <= %u", version,
                   kTraceFormatVersion),
         "re-dump with this build, or upgrade the reader");
    return;
  }
  format_version_ = version;
  MetricRegistry::Global().GetGauge("trace_io.rtrc_version")->Set(version);
  rest_.remove_prefix(kRtrcStreamHeaderSize);
}

TraceReader::TraceReader(std::string_view data, const char* external_arena_base)
    : TraceReader(data) {
  if (external_arena_base != nullptr) {
    external_base_ = external_arena_base;
    pool_.BindExternalArena(external_arena_base);
  }
}

void TraceReader::Fail(DiagCode code, Severity severity, std::string message,
                       std::string hint) {
  Diagnostic diag;
  diag.code = code;
  diag.severity = severity;
  diag.message = std::move(message);
  diag.hint = std::move(hint);
  diags_.push_back(std::move(diag));
  if (severity == Severity::kError) {
    done_ = true;
  }
}

bool TraceReader::ok() const {
  for (const Diagnostic& diag : diags_) {
    if (diag.severity == Severity::kError) {
      return false;
    }
  }
  return true;
}

bool TraceReader::DecodePoolFrame(std::string_view payload) {
  if (external_base_ == nullptr) {
    return DecodeRtrcPoolFrame(payload, &pool_);
  }
  uint64_t first_id = 0;
  uint64_t count = 0;
  if (!GetVarint(&payload, &first_id) || !GetVarint(&payload, &count)) {
    return false;
  }
  if (first_id != pool_.size()) {
    // Ids must be dense and in stream order, or event ids resolve wrongly.
    return false;
  }
  pool_.ReserveEntries(pool_.size() + count);
  for (uint64_t i = 0; i < count; i++) {
    uint64_t length = 0;
    if (!GetVarint(&payload, &length) || length > payload.size()) {
      return false;
    }
    const std::string_view s = payload.substr(0, length);
    // Zero-copy mode: record the string as an offset into the caller's
    // stable buffer. Empty and duplicate strings must fail exactly as
    // copying mode's Intern check does, or the two paths diverge.
    if (s.empty() || !external_seen_.insert(s).second) {
      return false;
    }
    const size_t offset = static_cast<size_t>(s.data() - external_base_);
    if (offset > UINT32_MAX || length > UINT32_MAX) {
      return false;
    }
    pool_.AppendExternal(offset, length);
    payload.remove_prefix(length);
  }
  return payload.empty();
}

bool TraceReader::DecodeEventFrame(std::string_view payload) {
  frame_events_.clear();
  frame_pos_ = 0;
  return DecodeRtrcEventFrame(payload, format_version_, pool_.size(), &prev_ts_,
                              &frame_events_);
}

bool TraceReader::LoadFrame() {
  while (!done_) {
    if (rest_.empty()) {
      if (!saw_end_) {
        Fail(DiagCode::kTruncatedTrace, Severity::kError,
             "stream ends without an end-of-stream frame",
             "the dump was cut off at a frame boundary; events up to here are intact");
      }
      done_ = true;
      return false;
    }
    if (saw_end_) {
      Fail(DiagCode::kMalformedTraceFrame, Severity::kWarning,
           StrFormat("%zu trailing bytes after the end-of-stream frame", rest_.size()),
           "trailing garbage is ignored");
      done_ = true;
      return false;
    }
    if (rest_.size() < kRtrcFrameHeaderSize) {
      Fail(DiagCode::kTruncatedTrace, Severity::kError,
           StrFormat("stream ends inside a frame header (%zu bytes left)", rest_.size()),
           "the dump was cut off mid-frame; events up to here are intact");
      return false;
    }
    const auto kind = static_cast<uint8_t>(rest_[0]);
    const uint32_t payload_len = GetU32LE(rest_.substr(1, 4));
    const uint32_t crc = GetU32LE(rest_.substr(5, 4));
    if (rest_.size() - kRtrcFrameHeaderSize < payload_len) {
      Fail(DiagCode::kTruncatedTrace, Severity::kError,
           StrFormat("frame announces %u payload bytes but only %zu remain", payload_len,
                     rest_.size() - kRtrcFrameHeaderSize),
           "the dump was cut off mid-frame; events up to here are intact");
      return false;
    }
    const std::string_view payload = rest_.substr(kRtrcFrameHeaderSize, payload_len);
    rest_.remove_prefix(kRtrcFrameHeaderSize + payload_len);
    if (Crc32(payload) != crc) {
      Metrics().crc_failures->Inc();
      Fail(DiagCode::kCorruptTraceFrame, Severity::kError,
           StrFormat("frame payload (%u bytes, kind %u) fails its CRC32", payload_len, kind),
           "the dump was corrupted at rest; events before this frame are intact");
      return false;
    }
    switch (kind) {
      case kFramePool:
        if (!DecodePoolFrame(payload)) {
          Fail(DiagCode::kMalformedTraceFrame, Severity::kError,
               "string-pool frame does not decode",
               "the dump was written by a broken or incompatible writer");
          return false;
        }
        break;
      case kFrameEvents:
        if (!DecodeEventFrame(payload)) {
          frame_events_.clear();
          frame_pos_ = 0;
          Fail(DiagCode::kMalformedTraceFrame, Severity::kError,
               "event frame does not decode",
               "the dump was written by a broken or incompatible writer");
          return false;
        }
        if (!frame_events_.empty()) {
          return true;
        }
        break;
      case kFrameEnd:
        saw_end_ = true;
        break;
      default:
        // Unknown frame kinds are skippable by construction (forward
        // compatibility): the CRC already proved the payload intact.
        break;
    }
  }
  return false;
}

bool TraceReader::Next(TraceEvent* out) {
  if (frame_pos_ >= frame_events_.size()) {
    if (!LoadFrame()) {
      return false;
    }
  }
  *out = frame_events_[frame_pos_++];
  return true;
}

// --- StreamDecoder ----------------------------------------------------------

void StreamDecoder::Feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

StreamDecoder::Item StreamDecoder::Next() {
  if (dead_) {
    return Item::kBadStream;
  }
  for (;;) {
    std::string_view rest(buffer_);
    rest.remove_prefix(consumed_);
    if (!header_done_) {
      if (rest.size() < kRtrcStreamHeaderSize) {
        return Item::kNeedMore;
      }
      if (!LooksLikeBinaryTrace(rest)) {
        dead_ = true;
        return Item::kBadStream;
      }
      const uint16_t version = GetU16LE(rest.substr(4, 2));
      if (version == 0 || version > kTraceFormatVersion) {
        dead_ = true;
        return Item::kBadStream;
      }
      format_version_ = version;
      header_done_ = true;
      consumed_ += kRtrcStreamHeaderSize;
      continue;
    }
    if (rest.size() < kRtrcFrameHeaderSize) {
      break;
    }
    const auto kind = static_cast<uint8_t>(rest[0]);
    const uint32_t payload_len = GetU32LE(rest.substr(1, 4));
    const uint32_t crc = GetU32LE(rest.substr(5, 4));
    if (payload_len > kMaxRtrcStreamFramePayload) {
      // A length this absurd means the stream itself is desynchronized —
      // frame-boundary resync is impossible, so the decoder dies.
      dead_ = true;
      return Item::kBadStream;
    }
    if (rest.size() - kRtrcFrameHeaderSize < payload_len) {
      break;
    }
    const std::string_view payload = rest.substr(kRtrcFrameHeaderSize, payload_len);
    consumed_ += kRtrcFrameHeaderSize + payload_len;
    if (Crc32(payload) != crc) {
      Metrics().crc_failures->Inc();
      corrupt_frames_++;
      return Item::kCorrupt;
    }
    switch (kind) {
      case kFramePool:
        if (!DecodeRtrcPoolFrame(payload, &pool_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        break;  // Absorbed silently; keep scanning.
      case kFrameEvents:
        events_.clear();
        if (!DecodeRtrcEventFrame(payload, format_version_, pool_.size(), &prev_ts_,
                                  &events_)) {
          events_.clear();
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        if (events_.empty()) {
          break;
        }
        return Item::kEvents;
      case kFrameEnd:
        return Item::kEnd;
      case kFrameStreamEpoch:
        if (!DecodeStreamEpoch(payload, &epoch_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        return Item::kEpoch;
      case kFrameOracleMark:
        if (!DecodeOracleMark(payload, &oracle_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        return Item::kOracleMark;
      default:
        // Unknown kinds are skippable by construction (forward compat).
        break;
    }
  }
  // Partial frame tail: compact the consumed prefix away once it dominates
  // the buffer (same policy as the serve-protocol FrameDecoder).
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return Item::kNeedMore;
}

// --- Trace binary entry points ---------------------------------------------

std::string Trace::SerializeBinary() const {
  IoMetrics& metrics = Metrics();
  ScopedTimer timer(metrics.serialize_ns);
  std::string out;
  TraceWriter writer(&out, &pool_);
  for (const TraceEvent& event : events_) {
    writer.Add(event);
  }
  writer.Finish();
  metrics.serialize_calls->Inc();
  metrics.serialize_events->Inc(events_.size());
  metrics.serialize_bytes->Inc(out.size());
  return out;
}

Trace Trace::ParseBinary(std::string_view data, std::vector<Diagnostic>* diags) {
  IoMetrics& metrics = Metrics();
  ScopedTimer timer(metrics.parse_ns);
  TraceReader reader(data);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.Next(&event)) {
    events.push_back(event);
  }
  metrics.parse_calls->Inc();
  metrics.parse_events->Inc(events.size());
  metrics.parse_bytes->Inc(data.size());
  if (diags != nullptr) {
    diags->insert(diags->end(), reader.diagnostics().begin(), reader.diagnostics().end());
  }
  // The reader interned ids in stream order, so its pool resolves the
  // decoded events directly.
  return Trace(std::move(events), reader.ReleasePool());
}

bool SaveTraceFile(const std::string& path, const Trace& trace, bool text) {
  return WriteFile(path, text ? trace.Serialize() : trace.SerializeBinary());
}

}  // namespace rose
