#include "src/serve/stream_sink.h"

namespace rose {

StreamSink::StreamSink(Tracer* tracer, ServeClient* client)
    : tracer_(tracer), client_(client) {}

void StreamSink::Open(std::string_view bug_id, uint64_t seed, std::string_view tag,
                      std::string_view profile_text, uint64_t epoch,
                      std::string_view source) {
  if (writer_ != nullptr) {
    return;
  }
  handle_ = client_->OpenStream(bug_id, seed, tag, profile_text);
  // The writer emits the RTRC header on construction; epoch goes out first
  // so the ingestor can tell this sender's generation.
  writer_ = std::make_unique<TraceWriter>(&wire_, &tracer_->stream_pool());
  StreamEpoch header;
  header.epoch = epoch;
  header.start_ts = 0;
  header.source = std::string(source);
  AppendFrame(&wire_, kFrameStreamEpoch, EncodeStreamEpoch(header));
  Ship();
}

void StreamSink::Pump() {
  if (writer_ == nullptr || closed_ || throttled()) {
    return;
  }
  batch_.clear();
  events_lost_ += tracer_->TakeStreamDelta(&batch_);
  if (batch_.empty()) {
    return;
  }
  for (const TraceEvent& event : batch_) {
    writer_->Add(event);
  }
  writer_->Flush();
  events_shipped_ += batch_.size();
  Ship();
}

void StreamSink::NotifyOracle(SimTime ts, std::string_view detail) {
  if (writer_ == nullptr || closed_) {
    return;
  }
  // Force-flush: the oracle shipment ignores throttle — the daemon must see
  // the window it is about to diagnose.
  batch_.clear();
  events_lost_ += tracer_->TakeStreamDelta(&batch_);
  tracer_->AppendOpenEndedEvents(&batch_);
  for (const TraceEvent& event : batch_) {
    writer_->Add(event);
  }
  writer_->Flush();
  events_shipped_ += batch_.size();
  OracleMark mark;
  mark.ts = ts;
  mark.detail = std::string(detail);
  AppendFrame(&wire_, kFrameOracleMark, EncodeOracleMark(mark));
  Ship();
}

void StreamSink::Close() {
  if (writer_ == nullptr || closed_) {
    return;
  }
  closed_ = true;
  writer_->Finish();
  Ship();
  client_->CloseStream(handle_);
}

void StreamSink::Ship() {
  if (wire_.empty()) {
    return;
  }
  bytes_shipped_ += wire_.size();
  client_->StreamData(handle_, wire_);
  wire_.clear();
}

}  // namespace rose
