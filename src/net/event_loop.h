// A single-threaded non-blocking epoll event loop speaking the serving
// subsystem's NDJSON framing: one '\n'-terminated request line in, one
// response line out, per connection, in request order.
//
// Division of labor (DESIGN.md §12): the loop owns every socket and all
// framing state — accept (drained to EAGAIN), per-connection read buffers
// with a partial-read state machine (a request line may arrive across any
// number of reads), and per-connection write buffers with a partial-write
// state machine (a response may need any number of writes, re-armed via
// EPOLLOUT). It never computes a response itself: each complete line is
// handed to the LineHandler with a (connection, sequence) tag, and some
// other thread eventually answers via Send(). Responses may complete out
// of order — workers race — so the loop holds a per-connection reorder
// buffer and releases bytes to the socket strictly in sequence order,
// keeping the one-response-per-request-line protocol honest under any
// worker interleaving.
//
// Admission control at the edge: connections beyond max_connections are
// accepted and immediately closed (counted net.conn_rejected), so a
// saturated server sheds load at the kernel boundary instead of queueing
// unbounded sockets. A request line longer than max_line_bytes is drained
// without being buffered (bounded memory against a hostile peer) and
// delivered as an `oversized` event carrying only its measured length.
//
// Fairness and backpressure: the loop reads a connection once per
// readiness event (64 KiB at most) and lets level-triggered epoll report
// the rest on a later cycle, so a peer that keeps its socket full cannot
// hold the loop from the others. A connection whose unsent response bytes
// exceed max_line_bytes is not read again until a flush brings them back
// under, so a peer that never reads cannot grow server memory without
// bound; the same cap bounds a connection's buffered input and output.
//
// Threading: Listen/Run/Stop-callbacks run on the loop thread; Send,
// BeginDrain, and Stop are thread-safe and may be called from any thread
// (they post through an eventfd-woken mailbox). The LineHandler runs on
// the loop thread and must not block — hand the work off and return.

#ifndef EXEA_NET_EVENT_LOOP_H_
#define EXEA_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/status.h"
#include "util/timer.h"

namespace exea::net {

struct EventLoopOptions {
  size_t max_connections = 256;
  // 1 MiB, matching the serving cap. Also the unsent-response bytes past
  // which a connection stops being read.
  size_t max_line_bytes = 1 << 20;

  // After Stop(), the loop keeps running up to this long to flush
  // pending response bytes to slow readers before closing them.
  double stop_flush_seconds = 5.0;

  // Where the loop registers its metrics (net.* counters and the
  // net.connections gauge). nullptr → obs::Registry::Global().
  obs::Registry* registry = nullptr;
};

class EventLoop {
 public:
  // One complete request line (or one oversized rejection). `seq` is
  // per-connection and dense from 0; every delivered Line must be
  // answered by exactly one Send(conn, seq, ...) or the connection's
  // response stream stalls behind the hole. Whitespace-only lines are
  // skipped by the loop itself (no event, no seq), matching the blocking
  // server's behavior.
  struct Line {
    uint64_t conn = 0;
    uint64_t seq = 0;
    std::string text;            // empty when oversized
    bool oversized = false;
    size_t observed_bytes = 0;   // line length when oversized
  };

  // Runs on the loop thread for every delivered line, which it may move
  // from; must not block.
  using LineHandler = std::function<void(Line&&)>;

  EventLoop(const EventLoopOptions& options, LineHandler on_line);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds 127.0.0.1:`port` (0 → kernel-assigned, see port()) and creates
  // the epoll/eventfd plumbing. Call once, before Run().
  [[nodiscard]] Status Listen(int port);

  // The bound port, valid after a successful Listen().
  int port() const { return port_; }

  // Runs the loop until Stop(). Call from the dedicated loop thread.
  void Run();

  // Stops accepting new connections and reading new requests; pending
  // responses still flush. Thread-safe, idempotent.
  void BeginDrain();

  // Asks Run() to exit after a bounded best-effort flush of pending
  // response bytes (implies BeginDrain). Thread-safe, idempotent.
  void Stop();

  // Queues the response for line `seq` of connection `conn` (no trailing
  // newline; the loop adds the frame delimiter). Thread-safe. A response
  // for a connection that already vanished is dropped and counted
  // (net.responses_dropped).
  void Send(uint64_t conn, uint64_t seq, std::string text);

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string in_buf;                    // partial-line bytes
    bool discarding = false;               // inside an oversized line
    size_t discarded = 0;                  // its measured length so far
    uint64_t next_seq = 0;                 // next line seq to assign
    uint64_t next_send = 0;                // next response seq to flush
    std::map<uint64_t, std::string> ready; // out-of-order responses
    std::string out;                       // bytes awaiting the kernel
    size_t out_pos = 0;
    bool peer_eof = false;
    bool want_read = true;                 // current EPOLLIN interest
    bool want_write = false;               // current EPOLLOUT interest
  };

  struct Completion {
    uint64_t conn;
    uint64_t seq;
    std::string text;
  };

  // ---- loop-thread only ----
  void HandleAccept();
  void HandleReadable(Connection& conn);
  // True if the connection survived the flush (false: closed on error).
  bool FlushOut(Connection& conn);
  void ExtractLines(Connection& conn);
  void ReleaseReady(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConn(uint64_t id);
  void CloseIfFinished(uint64_t id);
  void DrainMailbox();
  void ApplyDrain();

  void WakeLoop();  // thread-safe

  EventLoopOptions options_;
  LineHandler on_line_;
  obs::Registry* registry_;  // never null; resolved in the ctor

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd the mailbox writers signal
  int listener_ = -1;
  int port_ = 0;
  uint64_t next_conn_id_;
  std::map<uint64_t, Connection> conns_;  // loop-thread only
  bool drained_ = false;                  // ApplyDrain has run
  bool stopping_ = false;                 // Stop seen by the loop
  WallTimer stop_timer_;                  // started when stopping_ flips

  obs::Counter& accepted_;
  obs::Counter& conn_rejected_;
  obs::Counter& conn_closed_;
  obs::Counter& lines_in_;
  obs::Counter& responses_out_;
  obs::Counter& responses_dropped_;
  obs::Counter& partial_writes_;
  obs::Gauge& conns_gauge_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // mailbox_mu_ protects everything declared after it (the class
  // convention the lock-discipline lint pass enforces).
  std::mutex mailbox_mu_;
  std::vector<Completion> mailbox_ EXEA_GUARDED_BY(mailbox_mu_);
};

}  // namespace exea::net

#endif  // EXEA_NET_EVENT_LOOP_H_
