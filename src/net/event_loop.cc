#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <algorithm>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string_view>
#include <utility>

#include "net/socket_io.h"
#include "util/check.h"
#include "util/string_util.h"

namespace exea::net {
namespace {

// epoll user-data tags for the two non-connection fds; connection ids
// start above them.
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;
constexpr uint64_t kFirstConnId = 3;

constexpr int kMaxEvents = 64;
constexpr int kPollMillis = 100;  // bounds drain/stop latency

// After Stop(), each loop keeps running up to this long to flush pending
// response bytes to slow readers before closing them.
constexpr double kStopFlushSeconds = 5.0;

}  // namespace

EventLoop::EventLoop(size_t index, const EventLoopOptions& options,
                     LineHandler on_line,
                     std::atomic<size_t>* open_connections)
    : index_(index),
      options_(options),
      on_line_(std::move(on_line)),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::Registry::Global()),
      open_connections_(open_connections),
      next_conn_id_(kFirstConnId),
      accepted_(registry_->GetCounter("net.accepted")),
      conn_rejected_(registry_->GetCounter("net.conn_rejected")),
      conn_closed_(registry_->GetCounter("net.conn_closed")),
      lines_in_(registry_->GetCounter("net.lines_in")),
      responses_out_(registry_->GetCounter("net.responses_out")),
      responses_dropped_(registry_->GetCounter("net.responses_dropped")),
      partial_writes_(registry_->GetCounter("net.partial_writes")),
      conns_gauge_(registry_->GetGauge("net.connections")) {
  EXEA_CHECK(on_line_ != nullptr) << "EventLoop needs a line handler";
}

EventLoop::~EventLoop() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  // Handed over after Run() exited (the loop is stopped, so no thread
  // posts here any more).
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted.swap(adopted_);
  }
  for (int fd : adopted) ReleaseFd(fd);
  if (listener_ >= 0) ::close(listener_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Open() {
  EXEA_CHECK_EQ(epoll_fd_, -1) << "Open called twice";
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::IoError("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::IoError("eventfd() failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IoError("epoll_ctl(eventfd) failed");
  }
  return Status::Ok();
}

Status EventLoop::Listen(int port, std::vector<EventLoop*> targets) {
  EXEA_CHECK_GE(epoll_fd_, 0) << "Listen before a successful Open";
  EXEA_CHECK_EQ(listener_, -1) << "Listen called twice";
  EXEA_CHECK(!targets.empty()) << "Listen needs a loop to hand connections";
  accept_targets_ = std::move(targets);
  auto listener = ListenOn(port, kListenBacklog);
  if (!listener.ok()) return listener.status();
  listener_ = *listener;
  Status nonblocking = SetNonBlocking(listener_);
  if (!nonblocking.ok()) return nonblocking;
  auto bound = BoundPort(listener_);
  if (!bound.ok()) return bound.status();
  port_ = *bound;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_, &ev) < 0) {
    return Status::IoError("epoll_ctl(listener) failed");
  }
  return Status::Ok();
}

void EventLoop::Run() {
  EXEA_CHECK_GE(epoll_fd_, 0) << "Run before a successful Open";
  epoll_event events[kMaxEvents];
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, kPollMillis);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; exit rather than spin
    }
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        // wake_fd_ is EFD_NONBLOCK, and one read of a non-semaphore
        // eventfd returns and clears its whole count.
        // exea-lint: allow(loop-blocking)
        ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
        (void)ignored;
        continue;  // mailbox handled below, once per wakeup batch
      }
      if (tag == kListenerTag) {
        HandleAccept();
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      uint32_t flags = events[i].events;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0 &&
          (flags & EPOLLIN) == 0) {
        CloseConn(tag);
        continue;
      }
      if ((flags & EPOLLOUT) != 0) {
        if (!FlushOut(it->second)) continue;  // connection closed
        CloseIfFinished(tag);
        it = conns_.find(tag);
        if (it == conns_.end()) continue;
      }
      if ((flags & EPOLLIN) != 0) {
        HandleReadable(it->second);
      }
    }
    DrainMailbox();

    if (drain_requested_.load(std::memory_order_acquire) && !drained_) {
      ApplyDrain();
    }
    if (stop_requested_.load(std::memory_order_acquire)) {
      if (!stopping_) {
        stopping_ = true;
        stop_timer_.Reset();
        if (!drained_) ApplyDrain();
      }
      // Exit once every pending response byte is flushed, or after the
      // bounded grace period for peers that stopped reading.
      bool flushed = true;
      for (const auto& [id, conn] : conns_) {
        if (conn.out_pos < conn.out.size() || !conn.ready.empty() ||
            conn.next_send < conn.next_seq) {
          flushed = false;
          break;
        }
      }
      if (flushed ||
          stop_timer_.ElapsedSeconds() > kStopFlushSeconds) {
        break;
      }
    }
  }
  std::vector<uint64_t> open;
  open.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) open.push_back(id);
  for (uint64_t id : open) CloseConn(id);
}

void EventLoop::BeginDrain() {
  drain_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void EventLoop::Stop() {
  drain_requested_.store(true, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void EventLoop::Send(uint64_t conn, uint64_t seq, std::string text) {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    mailbox_.push_back({conn, seq, std::move(text)});
  }
  WakeLoop();
}

void EventLoop::Adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted_.push_back(fd);
  }
  WakeLoop();
}

void EventLoop::WakeLoop() {
  uint64_t one = 1;
  // The eventfd is a counter; a full (EAGAIN) or interrupted write still
  // leaves a nonzero count behind, so the loop wakes either way. It is
  // EFD_NONBLOCK, so the accepting loop handing a connection to another
  // loop cannot block here. exea-lint: allow(loop-blocking)
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void EventLoop::HandleAccept() {
  // Drain the whole accept backlog: with a burst of connects, one epoll
  // wakeup may stand for many pending sockets.
  while (true) {
    // accept4(SOCK_NONBLOCK): the client is non-blocking from birth, so
    // there is no window where the loop thread could block on it.
    int client = AcceptNonBlocking(listener_);
    if (client < 0) return;  // EAGAIN: backlog drained (or transient)
    // Only this thread accepts, so the check and the increment cannot
    // interleave with another accept; closes on other loops only lower
    // the total.
    if (open_connections_->load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Over the cap: shed at the edge. Count before close so an
      // observer who saw the EOF also sees the rejection.
      conn_rejected_.Increment();
      ::close(client);
      continue;
    }
    open_connections_->fetch_add(1, std::memory_order_acq_rel);
    conns_gauge_.Add(1);
    accepted_.Increment();
    EventLoop* target = accept_targets_[next_target_];
    next_target_ = (next_target_ + 1) % accept_targets_.size();
    if (target == this) {
      AddConnection(client);
    } else {
      target->Adopt(client);
    }
  }
}

void EventLoop::AddConnection(int fd) {
  if (drained_) {
    ReleaseFd(fd);  // handed over after this loop stopped reading
    return;
  }
  uint64_t id = next_conn_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ReleaseFd(fd);
    return;
  }
  Connection conn;
  conn.fd = fd;
  conn.id = id;
  conns_.emplace(id, std::move(conn));
}

void EventLoop::ReleaseFd(int fd) {
  ::close(fd);
  open_connections_->fetch_sub(1, std::memory_order_acq_rel);
  conns_gauge_.Add(-1);
}

void EventLoop::HandleReadable(Connection& conn) {
  uint64_t id = conn.id;
  char chunk[65536];
  // One read per readiness event: level-triggered epoll reports what is
  // left on the next cycle, after every other ready connection has had
  // its turn, so a peer that keeps its socket full cannot hold the loop.
  ssize_t n;
  do {
    // conn.fd is non-blocking (accept4 SOCK_NONBLOCK); an empty socket
    // answers EAGAIN instead of parking the thread.
    // exea-lint: allow(loop-blocking)
    n = ::read(conn.fd, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    conn.in_buf.append(chunk, static_cast<size_t>(n));
    if (ExtractLines(conn)) {
      // One flush for every answer the read's lines got on the spot.
      ReleaseReady(conn);
      FlushOut(conn);
    }
    return;
  }
  if (n == 0) {
    conn.peer_eof = true;
    UpdateInterest(conn);  // nothing more to read
    CloseIfFinished(id);
    return;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return;
  CloseConn(id);  // ECONNRESET and friends
}

bool EventLoop::ExtractLines(Connection& conn) {
  // Lines are consumed by offset and the buffer is compacted once, so a
  // read full of short lines costs linear time.
  bool answered = false;
  size_t start = 0;
  while (true) {
    size_t nl = conn.in_buf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view text(conn.in_buf.data() + start, nl - start);
    start = nl + 1;
    Line line;
    line.loop = index_;
    line.conn = conn.id;
    if (conn.discarding) {
      line.oversized = true;
      line.observed_bytes = conn.discarded + text.size();
      conn.discarding = false;
      conn.discarded = 0;
    } else if (text.size() > options_.max_line_bytes) {
      line.oversized = true;
      line.observed_bytes = text.size();
    } else if (Trim(text).empty()) {
      continue;  // blank lines: skipped, unanswered (blocking-path parity)
    } else {
      line.text.assign(text);
    }
    uint64_t seq = conn.next_seq++;
    line.seq = seq;
    lines_in_.Increment();
    std::optional<std::string> answer = on_line_(std::move(line));
    if (answer.has_value()) {
      conn.ready_bytes += answer->size();
      conn.ready.emplace(seq, std::move(*answer));
      answered = true;
    }
  }
  conn.in_buf.erase(0, start);
  if (conn.discarding) {
    conn.discarded += conn.in_buf.size();
    conn.in_buf.clear();
  } else if (conn.in_buf.size() > options_.max_line_bytes) {
    // The line already exceeds the cap with no newline in sight: stop
    // buffering, keep measuring (bounded memory, hostile peer).
    conn.discarding = true;
    conn.discarded = conn.in_buf.size();
    conn.in_buf.clear();
  }
  return answered;
}

void EventLoop::ReleaseReady(Connection& conn) {
  while (true) {
    auto it = conn.ready.find(conn.next_send);
    if (it == conn.ready.end()) break;
    conn.out += it->second;
    conn.out += '\n';
    conn.ready_bytes -= it->second.size();
    conn.ready.erase(it);
    ++conn.next_send;
    responses_out_.Increment();
  }
}

bool EventLoop::FlushOut(Connection& conn) {
  uint64_t id = conn.id;
  while (conn.out_pos < conn.out.size()) {
    // Non-blocking fd: a full kernel buffer surfaces as EAGAIN and the
    // remainder waits for EPOLLOUT.
    // exea-lint: allow(loop-blocking)
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                       conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      partial_writes_.Increment();
      break;  // kernel buffer full; EPOLLOUT re-arms the rest
    }
    CloseConn(id);  // EPIPE / ECONNRESET: peer is gone, drop the rest
    return false;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  UpdateInterest(conn);
  return true;
}

void EventLoop::UpdateInterest(Connection& conn) {
  size_t unsent = conn.out.size() - conn.out_pos;
  // A peer owed more response bytes than the line cap — unsent, or held
  // in the reorder buffer behind an earlier line — is not read until a
  // flush brings them back under it: one value bounds a connection's
  // buffered input and output alike.
  bool want_read = !drained_ && !conn.peer_eof &&
                   unsent + conn.ready_bytes <= options_.max_line_bytes;
  bool want_write = unsent > 0;
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  size_t unanswered = conn.ready.size();
  if (unanswered > 0) responses_dropped_.Increment(unanswered);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ReleaseFd(conn.fd);
  conns_.erase(it);
  conn_closed_.Increment();
}

void EventLoop::CloseIfFinished(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const Connection& conn = it->second;
  // A half-closed peer still gets every response it is owed; the
  // connection lingers until the last admitted line is answered and the
  // bytes have left the process.
  if (conn.peer_eof && conn.next_send == conn.next_seq &&
      conn.out_pos >= conn.out.size()) {
    CloseConn(id);
  }
}

void EventLoop::DrainMailbox() {
  std::vector<Completion> batch;
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    batch.swap(mailbox_);
    adopted.swap(adopted_);
  }
  for (int fd : adopted) AddConnection(fd);
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn);
    if (it == conns_.end()) {
      responses_dropped_.Increment();
      continue;
    }
    it->second.ready_bytes += completion.text.size();
    it->second.ready.emplace(completion.seq, std::move(completion.text));
  }
  // Flush once per connection per batch, not once per completion.
  std::vector<uint64_t> touched;
  touched.reserve(batch.size());
  for (const Completion& completion : batch) {
    touched.push_back(completion.conn);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ReleaseReady(it->second);
    if (FlushOut(it->second)) CloseIfFinished(id);
  }
}

void EventLoop::ApplyDrain() {
  drained_ = true;
  if (listener_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_, nullptr);
    ::close(listener_);
    listener_ = -1;
  }
  std::vector<uint64_t> open;
  open.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) open.push_back(id);
  for (uint64_t id : open) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Connection& conn = it->second;
    // Stop reading: unread request bytes are abandoned, answers already
    // owed still flush.
    ::shutdown(conn.fd, SHUT_RD);
    conn.peer_eof = true;
    conn.in_buf.clear();
    conn.discarding = false;
    UpdateInterest(conn);
    CloseIfFinished(id);
  }
}

EventLoopGroup::EventLoopGroup(size_t loops, const EventLoopOptions& options,
                               EventLoop::LineHandler on_line) {
  EXEA_CHECK_GT(loops, 0u) << "EventLoopGroup needs at least one loop";
  EXEA_CHECK(on_line != nullptr) << "EventLoopGroup needs a line handler";
  loops_.reserve(loops);
  for (size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::unique_ptr<EventLoop>(
        // private ctor, reachable only through this friend; the pointer
        // goes straight into the unique_ptr. exea-lint: allow(raw-new-delete)
        new EventLoop(i, options, on_line, &open_connections_)));
  }
}

EventLoopGroup::~EventLoopGroup() { Stop(); }

Status EventLoopGroup::Start(int port) {
  EXEA_CHECK(threads_.empty()) << "Start called twice";
  std::vector<EventLoop*> targets;
  for (auto& loop : loops_) {
    Status opened = loop->Open();
    if (!opened.ok()) return opened;
    targets.push_back(loop.get());
  }
  Status listening = loops_.front()->Listen(port, std::move(targets));
  if (!listening.ok()) return listening;
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->Run(); });
  }
  return Status::Ok();
}

void EventLoopGroup::Send(size_t loop, uint64_t conn, uint64_t seq,
                          std::string text) {
  EXEA_CHECK_LT(loop, loops_.size()) << "Send to a loop the group lacks";
  loops_[loop]->Send(conn, seq, std::move(text));
}

void EventLoopGroup::BeginDrain() {
  for (auto& loop : loops_) loop->BeginDrain();
}

void EventLoopGroup::Stop() {
  for (auto& loop : loops_) loop->Stop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace exea::net
