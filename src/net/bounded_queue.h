// A bounded MPMC FIFO queue — the admission-control buffer between the
// event loops and the serving workers.
//
// The capacity bound is the backpressure mechanism: TryPush never blocks
// and returns false when the queue is full, so a (latency-critical)
// event loop can reject a request immediately instead
// of buffering unbounded work for a saturated worker pool. Pop blocks
// until an item arrives or the queue is closed; Close drains nothing —
// items already queued are still handed out, and Pop returns false only
// once the queue is both closed and empty. That ordering is what lets a
// shutdown answer every request that was admitted before it.

#ifndef EXEA_NET_BOUNDED_QUEUE_H_
#define EXEA_NET_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "util/check.h"

namespace exea::net {

template <typename T>
class BoundedQueue {
 public:
  // A zero capacity would reject every push — a configuration error, not
  // an admission policy.
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    EXEA_CHECK_GT(capacity, 0u) << "BoundedQueue capacity must be positive";
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Enqueues `item` unless the queue is full or closed. Never blocks.
  [[nodiscard]] bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_cv_.notify_one();
    return true;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // drained (false).
  [[nodiscard]] bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  // Rejects all future pushes and wakes every blocked Pop. Items already
  // queued remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;

  // mu_ protects everything declared after it (the class convention the
  // lock-discipline lint pass enforces).
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // signalled on push / Close
  std::deque<T> items_ EXEA_GUARDED_BY(mu_);
  bool closed_ EXEA_GUARDED_BY(mu_) = false;
};

}  // namespace exea::net

#endif  // EXEA_NET_BOUNDED_QUEUE_H_
