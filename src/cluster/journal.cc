#include "src/cluster/journal.h"

#include <fcntl.h>

#include "src/common/file.h"
#include "src/common/wire.h"

namespace rose {

// --- Record codecs -----------------------------------------------------------

std::string EncodeDispatch(const DispatchRecord& record) {
  std::string out;
  PutVarint(&out, record.job_id);
  PutVarint(&out, record.key);
  PutVarint(&out, record.trace_hash);
  PutLengthPrefixed(&out, record.shard);
  PutVarint(&out, record.redispatch ? 1 : 0);
  PutLengthPrefixed(&out, record.payload);
  return out;
}

bool DecodeDispatch(std::string_view payload, DispatchRecord* out) {
  uint64_t redispatch = 0;
  std::string_view shard;
  std::string_view submit;
  if (!GetVarint(&payload, &out->job_id) || !GetVarint(&payload, &out->key) ||
      !GetVarint(&payload, &out->trace_hash) || !GetLengthPrefixed(&payload, &shard) ||
      !GetVarint(&payload, &redispatch) || !GetLengthPrefixed(&payload, &submit)) {
    return false;
  }
  out->shard = std::string(shard);
  out->redispatch = redispatch != 0;
  out->payload = std::string(submit);
  return payload.empty();
}

std::string EncodeRingEpoch(const RingEpochRecord& record) {
  std::string out;
  PutVarint(&out, record.epoch);
  PutVarint(&out, record.shards.size());
  for (const std::string& shard : record.shards) {
    PutLengthPrefixed(&out, shard);
  }
  return out;
}

bool DecodeRingEpoch(std::string_view payload, RingEpochRecord* out) {
  uint64_t count = 0;
  if (!GetVarint(&payload, &out->epoch) || !GetVarint(&payload, &count)) {
    return false;
  }
  out->shards.clear();
  for (uint64_t i = 0; i < count; i++) {
    std::string_view shard;
    if (!GetLengthPrefixed(&payload, &shard)) {
      return false;
    }
    out->shards.emplace_back(shard);
  }
  return payload.empty();
}

std::string EncodeComplete(const CompleteRecord& record) {
  std::string out;
  PutVarint(&out, record.job_id);
  PutVarint(&out, record.reproduced ? 1 : 0);
  return out;
}

bool DecodeComplete(std::string_view payload, CompleteRecord* out) {
  uint64_t reproduced = 0;
  if (!GetVarint(&payload, &out->job_id) || !GetVarint(&payload, &reproduced)) {
    return false;
  }
  out->reproduced = reproduced != 0;
  return payload.empty();
}

// --- ClusterJournal ----------------------------------------------------------

ClusterJournal::ClusterJournal(std::string path) : path_(std::move(path)) {
  Replay();
  if (!path_.empty() && error_ == JournalError::kNone) {
    // Appends land at end of file, which must sit right after the last
    // intact record: replay dropped a torn tail from history_, so cut it
    // from the file too. A file that cannot be cut is not written to.
    file_ = File::Open(path_, O_WRONLY | O_CREAT | O_APPEND);
    if (recovered_torn_tail_ && !file_.Truncate(history_.size())) {
      file_ = File();
    }
  }
  if (history_.empty()) {
    AppendWireHeader(&history_, kJournalMagic, kJournalFormatVersion);
    WriteDurably(history_);
  }
}

void ClusterJournal::Replay() {
  std::string bytes;
  if (path_.empty() || !ReadFileBytes(path_, &bytes) || bytes.empty()) {
    return;
  }
  std::string header;
  AppendWireHeader(&header, kJournalMagic, kJournalFormatVersion);
  if (bytes.size() < header.size() && header.compare(0, bytes.size(), bytes) == 0) {
    // A crash while writing the header: start over from offset zero.
    recovered_torn_tail_ = true;
    return;
  }
  uint16_t version = 0;
  switch (CheckWireHeader(bytes, kJournalMagic, kJournalFormatVersion, &version)) {
    case HeaderStatus::kOk:
      break;
    case HeaderStatus::kBadVersion:
      error_ = JournalError::kUnsupportedVersion;
      return;
    case HeaderStatus::kBadMagic:
    case HeaderStatus::kTruncated:
      error_ = JournalError::kNotAJournal;
      return;
  }
  std::string_view rest(bytes);
  rest.remove_prefix(kWireHeaderSize);
  for (;;) {
    // Truncation, a bad CRC or an absurd length is a torn or corrupt tail
    // (a crash mid-append); everything before it is intact.
    const Frame frame = SplitFrame(rest, kMaxJournalRecordPayload);
    if (frame.status != FrameStatus::kFrame) {
      break;
    }
    bool decoded = true;
    switch (static_cast<JournalRecordType>(frame.kind)) {
      case JournalRecordType::kRingEpoch: {
        RingEpochRecord record;
        decoded = DecodeRingEpoch(frame.payload, &record);
        if (decoded) {
          last_epoch_ = std::move(record);
        }
        break;
      }
      case JournalRecordType::kDispatch: {
        DispatchRecord record;
        decoded = DecodeDispatch(frame.payload, &record);
        if (decoded) {
          if (record.job_id >= next_job_id_) {
            next_job_id_ = record.job_id + 1;
          }
          pending_[record.job_id] = std::move(record);
        }
        break;
      }
      case JournalRecordType::kComplete: {
        CompleteRecord record;
        decoded = DecodeComplete(frame.payload, &record);
        if (decoded) {
          pending_.erase(record.job_id);
        }
        break;
      }
      default:
        // Unknown record type from a future version: skip, framing is
        // self-describing (the serve protocol's extension rule).
        break;
    }
    if (!decoded) {
      break;  // A framed-but-undecodable record is corruption, not extension.
    }
    rest.remove_prefix(frame.consumed);
    replayed_records_++;
  }
  recovered_torn_tail_ = !rest.empty();
  history_ = bytes.substr(0, bytes.size() - rest.size());
}

void ClusterJournal::Append(JournalRecordType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(&frame, static_cast<uint8_t>(type), payload);
  history_ += frame;
  appends_++;
  WriteDurably(frame);
  for (Follower& follower : followers_) {
    follower.outbox.Append(frame);
  }
}

void ClusterJournal::WriteDurably(std::string_view bytes) {
  if (!file_.valid()) {
    return;
  }
  const size_t written = file_.Write(bytes);
  bytes_written_ += written;
  // Only a whole frame that fsync confirmed counts as durable.
  if (written == bytes.size() && file_.Sync()) {
    fsyncs_++;
  }
}

void ClusterJournal::AppendRingEpoch(const RingEpochRecord& record) {
  Append(JournalRecordType::kRingEpoch, EncodeRingEpoch(record));
  last_epoch_ = record;
}

void ClusterJournal::AppendDispatch(const DispatchRecord& record) {
  Append(JournalRecordType::kDispatch, EncodeDispatch(record));
  if (record.job_id >= next_job_id_) {
    next_job_id_ = record.job_id + 1;
  }
  pending_[record.job_id] = record;
}

void ClusterJournal::AppendComplete(const CompleteRecord& record) {
  Append(JournalRecordType::kComplete, EncodeComplete(record));
  pending_.erase(record.job_id);
}

void ClusterJournal::AttachFollower(std::shared_ptr<Transport> transport) {
  Follower& follower = followers_.emplace_back();
  follower.transport = std::move(transport);
  follower.outbox.Append(history_);  // Full history first, then tail.
}

void ClusterJournal::PumpReplication() {
  for (Follower& follower : followers_) {
    follower.outbox.Flush(*follower.transport);
  }
}

bool ClusterJournal::replication_idle() const {
  for (const Follower& follower : followers_) {
    if (!follower.outbox.empty()) {
      return false;
    }
  }
  return true;
}

// --- JournalFollower ---------------------------------------------------------

JournalFollower::JournalFollower(std::string path, std::shared_ptr<Transport> transport)
    : path_(std::move(path)), transport_(std::move(transport)) {
  if (!path_.empty()) {
    file_ = File::Open(path_, O_WRONLY | O_CREAT | O_TRUNC);
  }
}

void JournalFollower::Poll() {
  for (;;) {
    const std::string chunk = transport_->Read(transport_->readable());
    if (chunk.empty()) {
      return;
    }
    bytes_received_ += chunk.size();
    bytes_ += chunk;
    // Stop writing at the first failure, so the file stays a byte prefix of
    // the leader's journal instead of growing a gap.
    if (file_.valid() && (file_.Write(chunk) != chunk.size() || !file_.Sync())) {
      file_ = File();
    }
  }
}

}  // namespace rose
