// Tests for the frame codec the three wire formats share (RTRC, RSRV, RJNL;
// docs/wire_protocol.md): the codec's own primitives, golden bytes that pin
// every family's encoding, and every-byte damage matrices for the RSRV
// decoder and RJNL replay (RTRC's live in trace_io_test.cc).
#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/journal.h"
#include "src/common/file.h"
#include "src/common/wire.h"
#include "src/serve/protocol.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Codec primitives ---------------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (uint64_t value : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                         0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buffer;
    PutVarint(&buffer, value);
    std::string_view rest = buffer;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&rest, &decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(rest.empty());
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint(&buffer, 1ull << 40);
  std::string_view rest(buffer.data(), buffer.size() - 1);
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint(&rest, &decoded));
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  for (int64_t value : {0ll, 1ll, -1ll, 63ll, -64ll, (1ll << 40), -(1ll << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  EXPECT_EQ(ZigZagEncode(-1), 1u);  // Small magnitudes stay small.
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(WireCodecTest, LengthPrefixedRoundTripsAndRejectsOverrun) {
  std::string buffer;
  PutLengthPrefixed(&buffer, "abc");
  PutLengthPrefixed(&buffer, "");
  std::string_view rest = buffer;
  std::string_view first;
  std::string_view second;
  ASSERT_TRUE(GetLengthPrefixed(&rest, &first));
  ASSERT_TRUE(GetLengthPrefixed(&rest, &second));
  EXPECT_EQ(first, "abc");
  EXPECT_EQ(second, "");
  EXPECT_TRUE(rest.empty());
  std::string_view cut = std::string_view(buffer).substr(0, 3);  // Count says 3, 2 remain.
  EXPECT_FALSE(GetLengthPrefixed(&cut, &first));
}

constexpr char kTestMagic[4] = {'T', 'E', 'S', 'T'};

TEST(WireCodecTest, HeaderAcceptsOnlyVersionsOneThroughMax) {
  for (const uint16_t announced : {0, 1, 2, 3, 0x100}) {
    std::string header;
    AppendWireHeader(&header, kTestMagic, announced);
    ASSERT_EQ(header.size(), kWireHeaderSize);
    uint16_t version = 0;
    const bool valid = announced >= 1 && announced <= 2;
    EXPECT_EQ(CheckWireHeader(header, kTestMagic, /*max_version=*/2, &version),
              valid ? HeaderStatus::kOk : HeaderStatus::kBadVersion)
        << announced;
    EXPECT_EQ(version, announced);
  }
  std::string header;
  AppendWireHeader(&header, kTestMagic, 1);
  uint16_t version = 0;
  for (size_t cut = 0; cut < kWireHeaderSize; cut++) {
    EXPECT_EQ(CheckWireHeader(header.substr(0, cut), kTestMagic, 2, &version),
              cut < 4 ? HeaderStatus::kBadMagic : HeaderStatus::kTruncated)
        << cut;
  }
  header[3] = 'X';
  EXPECT_EQ(CheckWireHeader(header, kTestMagic, 2, &version), HeaderStatus::kBadMagic);
}

TEST(WireCodecTest, SplitFrameReportsEveryStatus) {
  std::string wire;
  AppendFrame(&wire, 7, "payload");
  const size_t frame_size = wire.size();
  ASSERT_EQ(frame_size, kFrameHeaderSize + 7);
  wire += "next";  // Bytes after the frame are left alone.

  Frame frame = SplitFrame(wire, /*max_payload=*/64);
  EXPECT_EQ(frame.status, FrameStatus::kFrame);
  EXPECT_EQ(frame.kind, 7);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_EQ(frame.consumed, frame_size);

  for (size_t cut = 0; cut < frame_size; cut++) {
    frame = SplitFrame(std::string_view(wire).substr(0, cut), 64);
    EXPECT_EQ(frame.status, FrameStatus::kNeedMore) << cut;
    EXPECT_EQ(frame.consumed, 0u);
    EXPECT_EQ(frame.payload_len, cut < kFrameHeaderSize ? 0u : 7u) << cut;
  }

  // The cap applies as soon as the length is readable.
  frame = SplitFrame(std::string_view(wire).substr(0, kFrameHeaderSize), /*max_payload=*/6);
  EXPECT_EQ(frame.status, FrameStatus::kTooLong);
  EXPECT_EQ(frame.payload_len, 7u);

  // CRC and payload damage: the frame is still consumed whole.
  for (size_t pos = 5; pos < frame_size; pos++) {
    std::string damaged = wire;
    damaged[pos] ^= 0x01;
    frame = SplitFrame(damaged, 64);
    EXPECT_EQ(frame.status, FrameStatus::kBadCrc) << pos;
    EXPECT_EQ(frame.consumed, frame_size);
  }
}

TEST(WireCodecTest, FrameBufferKeepsUnreadBytesAcrossCompaction) {
  std::string fed;
  for (int i = 0; i < 6000; i++) {
    fed.push_back(static_cast<char>('a' + i % 26));
  }
  FrameBuffer buffer;
  size_t consumed = 0;
  // Uneven feeds and consumes cross the 4 KiB compaction point many times.
  for (size_t at = 0; at < fed.size(); at += 700) {
    buffer.Feed(std::string_view(fed).substr(at, 700));
    const size_t take = std::min<size_t>(buffer.buffered(), 650);
    buffer.Consume(take);
    consumed += take;
    ASSERT_EQ(buffer.Unread(), std::string_view(fed).substr(consumed, at + 700 - consumed));
  }
  EXPECT_EQ(buffer.buffered(), std::min<size_t>(fed.size(), 9 * 700) - consumed);
}

// --- Golden bytes: a change to any of these is a wire-format change ----------

TEST(WireGoldenTest, RtrcDumpEpochAndOracleFrames) {
  Trace trace;
  TraceEvent scf;
  scf.ts = 1000;
  scf.node = 1;
  scf.type = EventType::kSCF;
  ScfInfo info{101, Sys::kOpen, 3, trace.Intern("/data/log"), Err::kEIO};
  info.ctx_digest = 0xabcdef;
  info.ctx_seq = 2;
  scf.info = info;
  trace.Append(scf);
  TraceEvent nd;
  nd.ts = 1500;
  nd.node = 0;
  nd.type = EventType::kND;
  nd.info = NdInfo{trace.Intern("10.0.0.1"), trace.Intern("10.0.0.2"), 250, 7};
  trace.Append(nd);
  TraceEvent ps;
  ps.ts = 900;  // Backwards: the zigzag delta goes negative.
  ps.node = 2;
  ps.type = EventType::kPS;
  ps.info = PsInfo{102, ProcState::kCrashed, 0};
  trace.Append(ps);

  // One literal per frame: header, then kind | len | crc | payload.
  const std::string dump = trace.SerializeBinary();
  EXPECT_EQ(Hex(dump),
            "5254524302000000"
            "011e000000a23df42f"
            "0103092f646174612f6c6f670831302e302e302e310831302e302e302e32"
            "022100000004add41d"
            "03d00f0002ca0100060105ef9baf0502e80702000203f40307af090304cc010200"
            "030000000000000000");
  std::string wire = dump;
  StreamEpoch epoch;
  epoch.epoch = 2;
  epoch.start_ts = -5;
  epoch.source = "n1/tracer";
  AppendFrame(&wire, kFrameStreamEpoch, EncodeStreamEpoch(epoch));
  OracleMark mark;
  mark.ts = 4242;
  mark.detail = "leader lost";
  AppendFrame(&wire, kFrameOracleMark, EncodeOracleMark(mark));
  EXPECT_EQ(Hex(std::string_view(wire).substr(dump.size())),
            "040c0000008a9bae88"
            "0209096e312f747261636572"
            "050e0000005faa5e67"
            "a4420b6c6561646572206c6f7374");

  // The pinned bytes decode back to what produced them.
  StreamDecoder decoder;
  decoder.Feed(wire);
  ASSERT_EQ(decoder.Next(), StreamDecoder::Item::kEvents);
  ASSERT_EQ(decoder.events().size(), 3u);
  EXPECT_EQ(decoder.events()[1].ts, 1500);
  EXPECT_EQ(decoder.events()[2].ts, 900);
  EXPECT_EQ(decoder.Next(), StreamDecoder::Item::kEnd);
  ASSERT_EQ(decoder.Next(), StreamDecoder::Item::kEpoch);
  EXPECT_EQ(decoder.epoch().source, "n1/tracer");
  EXPECT_EQ(decoder.epoch().start_ts, -5);
  ASSERT_EQ(decoder.Next(), StreamDecoder::Item::kOracleMark);
  EXPECT_EQ(decoder.oracle().detail, "leader lost");
  EXPECT_EQ(decoder.Next(), StreamDecoder::Item::kNeedMore);
}

TEST(WireGoldenTest, RsrvHeaderSubmitAndResultFrames) {
  std::string wire;
  AppendServeHeader(&wire);
  AppendServeFrame(&wire, ServeFrame::kSubmit,
                   EncodeSubmitBlob("RedisRaft-42", 42, "t1", "rose-profile v1\n", "RTRC",
                                    /*token=*/9));
  ResultMsg result;
  result.job_id = 5;
  result.reproduced = true;
  result.cached = true;
  result.rate_permille = 1000;
  result.level = 2;
  result.schedules = 3;
  result.runs = 17;
  result.schedule_yaml = "faults: []\n";
  result.fault_summary = "none";
  AppendServeFrame(&wire, ServeFrame::kResult, EncodeResult(result));
  EXPECT_EQ(Hex(wire),
            "5253525601000000"
            "01280000007f3f5a20"
            "0c5265646973526166742d34322a02743110726f73652d70726f66696c652076310a045254524309"
            "12180000006cb1c16b"
            "0503e8070203110b6661756c74733a205b5d0a046e6f6e65");

  FrameDecoder decoder;
  decoder.Feed(wire);
  DecodedFrame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.kind, ServeFrame::kSubmit);
  SubmitEnvelope envelope;
  ASSERT_TRUE(DecodeSubmitEnvelope(frame.payload, &envelope));
  EXPECT_EQ(envelope.bug_id(), "RedisRaft-42");
  EXPECT_EQ(envelope.token(), 9u);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.kind, ServeFrame::kResult);
  ResultMsg decoded;
  ASSERT_TRUE(DecodeResult(frame.payload, &decoded));
  EXPECT_EQ(decoded.runs, 17u);
  EXPECT_EQ(decoded.schedule_yaml, "faults: []\n");
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
}

TEST(WireGoldenTest, RjnlOneRecordOfEachType) {
  const std::string path = TempPath("rose_wire_golden.rjnl");
  std::filesystem::remove(path);
  {
    ClusterJournal journal(path);
    journal.AppendRingEpoch(RingEpochRecord{1, {"shard0", "shard1"}});
    DispatchRecord dispatch;
    dispatch.job_id = 1;
    dispatch.key = 0x1234;
    dispatch.trace_hash = 0x5678;
    dispatch.shard = "shard1";
    dispatch.redispatch = true;
    dispatch.payload = "submit";
    journal.AppendDispatch(dispatch);
    journal.AppendComplete(CompleteRecord{1, true});
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(Hex(bytes),
            "524a4e4c01000000"
            "0110000000cf41d71f"
            "01020673686172643006736861726431"
            "02150000007a666b24"
            "01b424f8ac010673686172643101067375626d6974"
            "03020000002813c52f"
            "0101");

  const ClusterJournal replayed(path);
  EXPECT_EQ(replayed.replayed_records(), 3u);
  EXPECT_FALSE(replayed.recovered_torn_tail());
  EXPECT_TRUE(replayed.pending().empty());
  EXPECT_EQ(replayed.last_epoch().shards.size(), 2u);
  std::filesystem::remove(path);
}

// --- Every-byte damage matrices ------------------------------------------------

// Drains `decoder` after feeding `bytes` whole or one byte at a time. Each
// frame shows as its payload, a skipped corrupt frame as "<corrupt>", a dead
// stream as "<dead>".
std::vector<std::string> Drain(FrameDecoder* decoder, std::string_view bytes, bool bytewise) {
  std::vector<std::string> out;
  const size_t chunk = bytewise ? 1 : std::max<size_t>(bytes.size(), 1);
  for (size_t at = 0; at < bytes.size(); at += chunk) {
    decoder->Feed(bytes.substr(at, chunk));
    DecodedFrame frame;
    for (;;) {
      const FrameDecoder::Status status = decoder->Next(&frame);
      if (status == FrameDecoder::Status::kNeedMore) {
        break;
      }
      if (status == FrameDecoder::Status::kBadStream) {
        out.push_back("<dead>");
        return out;
      }
      out.push_back(status == FrameDecoder::Status::kFrame ? frame.payload : "<corrupt>");
    }
  }
  return out;
}

// RSRV decoding resynchronizes: a cut yields exactly the frames it holds
// whole and the remaining bytes complete the rest; a flipped CRC or payload
// byte costs exactly the frame it lands in.
TEST(FrameDamageMatrixTest, RsrvEveryCutAndEveryCrcOrPayloadFlip) {
  const std::vector<std::string> payloads = {"first", std::string(300, 'x'), "", "last"};
  std::string wire;
  AppendServeHeader(&wire);
  std::vector<size_t> crc_at;  // Offset of each frame's CRC field.
  std::vector<size_t> ends;    // One past each frame.
  for (const std::string& payload : payloads) {
    crc_at.push_back(wire.size() + 5);
    AppendServeFrame(&wire, ServeFrame::kProgress, payload);
    ends.push_back(wire.size());
  }
  for (const bool bytewise : {false, true}) {
    for (size_t cut = 0; cut <= wire.size(); cut++) {
      FrameDecoder decoder;
      const std::vector<std::string> head =
          Drain(&decoder, std::string_view(wire).substr(0, cut), bytewise);
      const auto whole = static_cast<size_t>(
          std::count_if(ends.begin(), ends.end(), [&](size_t end) { return end <= cut; }));
      EXPECT_EQ(head, std::vector<std::string>(payloads.begin(), payloads.begin() + whole))
          << "cut " << cut << " bytewise " << bytewise;
      std::vector<std::string> all = head;
      for (std::string& payload : Drain(&decoder, std::string_view(wire).substr(cut), bytewise)) {
        all.push_back(std::move(payload));
      }
      EXPECT_EQ(all, payloads) << "cut " << cut << " bytewise " << bytewise;
    }
    for (size_t frame = 0; frame < payloads.size(); frame++) {
      for (size_t pos = crc_at[frame]; pos < ends[frame]; pos++) {
        std::string damaged = wire;
        damaged[pos] ^= 0x20;
        std::vector<std::string> expected = payloads;
        expected[frame] = "<corrupt>";
        FrameDecoder decoder;
        EXPECT_EQ(Drain(&decoder, damaged, bytewise), expected)
            << "flip at " << pos << " bytewise " << bytewise;
      }
    }
  }
}

// RJNL replay stops at the first damaged record: every prefix replays the
// records it holds whole and truncates the file back to them, and a flipped
// CRC or payload byte drops that record and everything after it.
TEST(FrameDamageMatrixTest, RjnlReplayEveryCutAndEveryCrcOrPayloadFlip) {
  const std::string path = TempPath("rose_wire_matrix.rjnl");
  std::filesystem::remove(path);
  const RingEpochRecord epoch{1, {"shard0", "shard1"}};
  const DispatchRecord dispatch{1, 0x1234, 0x5678, "shard1", false, "submit"};
  const CompleteRecord complete{1, true};
  {
    ClusterJournal journal(path);
    journal.AppendRingEpoch(epoch);
    journal.AppendDispatch(dispatch);
    journal.AppendComplete(complete);
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  std::vector<size_t> ends;  // One past each record.
  size_t at = kWireHeaderSize;
  for (const std::string& payload :
       {EncodeRingEpoch(epoch), EncodeDispatch(dispatch), EncodeComplete(complete)}) {
    at += kFrameHeaderSize + payload.size();
    ends.push_back(at);
  }
  ASSERT_EQ(at, bytes.size());

  struct Case {
    std::string file;
    size_t records;  // Records replay must keep.
    bool torn;       // Whether replay must report a dropped tail.
  };
  std::vector<Case> cases;
  for (size_t cut = 0; cut <= bytes.size(); cut++) {
    const auto whole = static_cast<size_t>(
        std::count_if(ends.begin(), ends.end(), [&](size_t end) { return end <= cut; }));
    const size_t boundary = whole == 0 ? kWireHeaderSize : ends[whole - 1];
    cases.push_back({bytes.substr(0, cut), whole, cut != 0 && cut != boundary});
  }
  for (size_t record = 0; record < ends.size(); record++) {
    const size_t begin = record == 0 ? kWireHeaderSize : ends[record - 1];
    for (size_t pos = begin + 5; pos < ends[record]; pos++) {
      std::string damaged = bytes;
      damaged[pos] ^= 0x20;
      cases.push_back({damaged, record, true});
    }
  }
  for (const Case& c : cases) {
    ASSERT_TRUE(WriteFile(path, c.file));
    {
      const ClusterJournal journal(path);
      EXPECT_EQ(journal.error(), JournalError::kNone);
      EXPECT_EQ(journal.replayed_records(), c.records) << Hex(c.file);
      EXPECT_EQ(journal.recovered_torn_tail(), c.torn) << Hex(c.file);
    }
    // The file now holds exactly the header and the records replay kept.
    std::string after;
    ASSERT_TRUE(ReadFileBytes(path, &after));
    EXPECT_EQ(after, bytes.substr(0, c.records == 0 ? kWireHeaderSize : ends[c.records - 1]))
        << Hex(c.file);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rose
