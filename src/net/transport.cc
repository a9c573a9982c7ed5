#include "src/net/transport.h"

#include <algorithm>
#include <mutex>

namespace rose {

namespace {

// One direction of a pipe: a bounded byte queue plus the writer's close flag.
struct PipeBuffer {
  std::mutex mutex;
  std::string data;
  size_t capacity = kDefaultTransportCapacity;
  bool closed = false;
};

// One endpoint: writes into `out`, reads from `in`.
class PipeEndpoint : public Transport {
 public:
  PipeEndpoint(std::shared_ptr<PipeBuffer> in, std::shared_ptr<PipeBuffer> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~PipeEndpoint() override { Close(); }

  size_t Write(std::string_view data) override {
    std::lock_guard<std::mutex> lock(out_->mutex);
    if (out_->closed) {
      return 0;
    }
    const size_t space = out_->capacity - std::min(out_->capacity, out_->data.size());
    const size_t n = std::min(space, data.size());
    out_->data.append(data.data(), n);
    return n;
  }

  std::string Read(size_t max) override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    const size_t n = std::min(max, in_->data.size());
    std::string result = in_->data.substr(0, n);
    in_->data.erase(0, n);
    return result;
  }

  size_t readable() const override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    return in_->data.size();
  }

  size_t writable() const override {
    std::lock_guard<std::mutex> lock(out_->mutex);
    if (out_->closed) {
      return 0;
    }
    return out_->capacity - std::min(out_->capacity, out_->data.size());
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(out_->mutex);
    out_->closed = true;
  }

  bool AtEof() const override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    return in_->closed && in_->data.empty();
  }

 private:
  std::shared_ptr<PipeBuffer> in_;
  std::shared_ptr<PipeBuffer> out_;
};

}  // namespace

std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>> MakePipePair(
    size_t capacity) {
  auto a_to_b = std::make_shared<PipeBuffer>();
  auto b_to_a = std::make_shared<PipeBuffer>();
  a_to_b->capacity = capacity;
  b_to_a->capacity = capacity;
  auto a = std::make_shared<PipeEndpoint>(b_to_a, a_to_b);
  auto b = std::make_shared<PipeEndpoint>(a_to_b, b_to_a);
  return {std::move(a), std::move(b)};
}

void Outbox::Flush(Transport& transport) {
  if (empty()) {
    return;
  }
  sent_ += transport.Write(std::string_view(bytes_).substr(sent_));
  if (sent_ >= bytes_.size()) {
    bytes_.clear();
    sent_ = 0;
  } else if (sent_ > 64 * 1024 && sent_ * 2 >= bytes_.size()) {
    bytes_.erase(0, sent_);
    sent_ = 0;
  }
}

}  // namespace rose
