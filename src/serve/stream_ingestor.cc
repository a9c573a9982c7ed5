#include "src/serve/stream_ingestor.h"

#include <algorithm>

namespace rose {

StreamWindow::StreamWindow(size_t window_bytes)
    : window_bytes_(std::max<size_t>(window_bytes, 1)) {
  MetricRegistry& reg = MetricRegistry::Global();
  m_dropped_events_ = reg.GetCounter("stream.dropped_events");
  m_materialize_ns_ = reg.GetHistogram("stream.materialize_ns");
}

bool StreamWindow::Feed(std::string_view bytes) {
  decoder_.Feed(bytes);
  for (;;) {
    switch (decoder_.Next()) {
      case StreamDecoder::Item::kNeedMore:
        // The pool cannot shrink (a later frame may name any earlier id):
        // once it alone outgrows the window, the session never fits again.
        if (decoder_.pool().payload_bytes() > window_bytes_) {
          return false;
        }
        // Dropping events therefore always brings the cost back under the
        // bound.
        while (cost() > window_bytes_ && !resident_.empty()) {
          resident_.pop_front();
          drops_++;
          m_dropped_events_->Inc();
        }
        return true;
      case StreamDecoder::Item::kEvents:
        resident_.insert(resident_.end(), decoder_.events().begin(), decoder_.events().end());
        break;
      case StreamDecoder::Item::kEpoch:
        // A bumped epoch means the sender restarted; the window keeps what
        // it holds (the pre-restart past is still the recent past).
        break;
      case StreamDecoder::Item::kOracleMark:
        oracle_ = decoder_.oracle();
        oracle_pending_ = true;
        break;
      case StreamDecoder::Item::kEnd:
      case StreamDecoder::Item::kCorrupt:
        break;  // Corrupt frames were counted and skipped by the decoder.
      case StreamDecoder::Item::kBadStream:
        return false;
    }
  }
}

OracleMark StreamWindow::TakeOracle() {
  oracle_pending_ = false;
  return oracle_;
}

std::string StreamWindow::Materialize() const {
  ScopedTimer timer(m_materialize_ns_);
  // Events arrive fd-resolved and with the open-ended flushes appended by
  // the sink, in the tracer's recording order.
  return Trace::FromWindow({resident_.begin(), resident_.end()}, decoder_.pool())
      .SerializeBinary();
}

size_t StreamWindow::cost() const {
  return resident_.size() * sizeof(TraceEvent) + decoder_.pool().payload_bytes();
}

}  // namespace rose
