// Non-blocking epoll event loops speaking the serving subsystem's NDJSON
// framing: one '\n'-terminated request line in, one response line out,
// per connection, in request order.
//
// An EventLoopGroup runs N EventLoops, one thread each, behind one
// listening socket (DESIGN.md §12). Loop 0 owns the listener: it accepts
// (drained to EAGAIN) and hands each accepted connection round-robin to a
// loop, itself included; another loop receives it through its mailbox.
// From then on that loop alone owns the connection's socket and all its
// framing state — a read buffer with a partial-read state machine (a
// request line may arrive across any number of reads) and a write buffer
// with a partial-write state machine (a response may need any number of
// writes, re-armed via EPOLLOUT). The handoff is explicit rather than one
// SO_REUSEPORT listener per loop: the kernel spreads connections by a
// hash of their 4-tuple, which gives 4 connections over 4 loops one loop
// each only 4!/4^4 ≈ 9% of the time; round-robin always does.
//
// Each complete line goes to the LineHandler with a (loop, connection,
// sequence) tag. The handler either answers it on the spot — the loop
// stores the answer at the line's sequence and, once every line of the
// read is framed, releases what is ready and flushes once — or hands the
// line off and returns std::nullopt; some other thread then answers it
// through Send(). Responses may complete out of order — workers race,
// and a line answered on the spot may follow one still with a worker —
// so each connection has a reorder buffer that releases bytes to the
// socket strictly in sequence order, keeping the
// one-response-per-request-line protocol honest under any interleaving.
//
// Admission control at the edge: connections beyond max_connections,
// counted across every loop of the group, are accepted and immediately
// closed (counted net.conn_rejected), so a saturated server sheds load at
// the kernel boundary instead of queueing unbounded sockets. A request
// line longer than max_line_bytes is drained without being buffered
// (bounded memory against a hostile peer) and delivered as an `oversized`
// event carrying only its measured length.
//
// Fairness and backpressure: a loop reads a connection once per readiness
// event (64 KiB at most) and lets level-triggered epoll report the rest
// on a later cycle, so a peer that keeps its socket full cannot hold the
// loop from the others. A connection whose owed response bytes (unsent
// or held in its reorder buffer) exceed max_line_bytes is not read again
// until a flush brings them back under, so a peer that never reads
// cannot grow server memory without bound; the same cap bounds a
// connection's buffered input and output.
//
// Threading: each loop's Run and the LineHandler run on that loop's
// thread; the handler runs on every loop thread at once, so it must be
// thread-safe, and it must not block. EventLoopGroup::Send, BeginDrain
// and Stop are thread-safe (Send and handoffs post through the target
// loop's eventfd-woken mailbox).

#ifndef EXEA_NET_EVENT_LOOP_H_
#define EXEA_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/status.h"
#include "util/timer.h"

namespace exea::net {

struct EventLoopOptions {
  // Open connections across every loop of the group.
  size_t max_connections = 256;
  // 1 MiB, matching the serving cap. Also the owed-response bytes past
  // which a connection stops being read.
  size_t max_line_bytes = 1 << 20;

  // Where the loops register their metrics (net.* counters and the
  // net.connections gauge, shared by every loop). nullptr →
  // obs::Registry::Global().
  obs::Registry* registry = nullptr;
};

// One loop of an EventLoopGroup; only the group creates and runs it.
class EventLoop {
 public:
  // One complete request line (or one oversized rejection). `seq` is
  // per-connection and dense from 0; every delivered Line must be
  // answered exactly once — by the handler's return value or by one
  // Send(loop, conn, seq, ...) — or the connection's response stream
  // stalls behind the hole. Whitespace-only lines are skipped by the loop
  // itself (no event, no seq), matching the blocking server's behavior.
  struct Line {
    size_t loop = 0;             // the group index of the owning loop
    uint64_t conn = 0;
    uint64_t seq = 0;
    std::string text;            // empty when oversized
    bool oversized = false;
    size_t observed_bytes = 0;   // line length when oversized
  };

  // Runs on the owning loop's thread for every delivered line, which it
  // may move from; must not block. Returns the line's response (no
  // trailing newline) when it answers on the spot, or std::nullopt when
  // the line was handed off and will be answered through Send().
  using LineHandler = std::function<std::optional<std::string>(Line&&)>;

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

 private:
  friend class EventLoopGroup;

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string in_buf;                    // partial-line bytes
    bool discarding = false;               // inside an oversized line
    size_t discarded = 0;                  // its measured length so far
    uint64_t next_seq = 0;                 // next line seq to assign
    uint64_t next_send = 0;                // next response seq to flush
    std::map<uint64_t, std::string> ready; // out-of-order responses
    size_t ready_bytes = 0;                // their total size
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

  // `open_connections` is the group's open total, which the cap bounds.
  EventLoop(size_t index, const EventLoopOptions& options,
            LineHandler on_line, std::atomic<size_t>* open_connections);

  // Creates the epoll/eventfd plumbing. Call once, before anything else.
  [[nodiscard]] Status Open();
  // Binds 127.0.0.1:`port` (0 → kernel-assigned, see port()) and makes
  // this the accepting loop, handing connections round-robin to
  // `targets`. Call after Open(), before Run().
  [[nodiscard]] Status Listen(int port, std::vector<EventLoop*> targets);
  int port() const { return port_; }

  // Runs the loop until Stop(). Call from the loop's dedicated thread.
  void Run();

  // Stops accepting new connections and reading new requests; pending
  // responses still flush. Thread-safe, idempotent.
  void BeginDrain();

  // Asks Run() to exit after a bounded best-effort flush of pending
  // response bytes (implies BeginDrain). Thread-safe, idempotent.
  void Stop();

  // Queues the response for line `seq` of connection `conn`. Thread-safe.
  // A response for a connection that already vanished is dropped and
  // counted (net.responses_dropped).
  void Send(uint64_t conn, uint64_t seq, std::string text);

  // Hands this loop an accepted connection's fd. Thread-safe.
  void Adopt(int fd);

  // ---- loop-thread only ----
  void HandleAccept();
  // Registers an accepted fd as one of this loop's connections.
  void AddConnection(int fd);
  void HandleReadable(Connection& conn);
  // True if the connection survived the flush (false: closed on error).
  bool FlushOut(Connection& conn);
  // True when the handler answered any of the lines on the spot.
  bool ExtractLines(Connection& conn);
  void ReleaseReady(Connection& conn);
  void UpdateInterest(Connection& conn);
  // Closes an fd that counts toward the group's open total.
  void ReleaseFd(int fd);
  void CloseConn(uint64_t id);
  void CloseIfFinished(uint64_t id);
  void DrainMailbox();
  void ApplyDrain();

  void WakeLoop();  // thread-safe

  size_t index_;
  EventLoopOptions options_;
  LineHandler on_line_;
  obs::Registry* registry_;  // never null; resolved in the ctor
  std::atomic<size_t>* open_connections_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd the mailbox writers signal
  int listener_ = -1;
  int port_ = 0;
  std::vector<EventLoop*> accept_targets_;  // the accepting loop only
  size_t next_target_ = 0;
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
  std::vector<int> adopted_ EXEA_GUARDED_BY(mailbox_mu_);
};

class EventLoopGroup {
 public:
  // `loops` loops (at least 1) sharing `options` and `on_line`.
  EventLoopGroup(size_t loops, const EventLoopOptions& options,
                 EventLoop::LineHandler on_line);

  // Stops and joins every loop.
  ~EventLoopGroup();

  EventLoopGroup(const EventLoopGroup&) = delete;
  EventLoopGroup& operator=(const EventLoopGroup&) = delete;

  // Binds 127.0.0.1:`port` (0 → kernel-assigned, see port()) and starts
  // one thread per loop. Call once.
  [[nodiscard]] Status Start(int port);

  // The bound port, valid after a successful Start().
  int port() const { return loops_.front()->port(); }

  size_t size() const { return loops_.size(); }

  // Queues the response for line `seq` of connection `conn` on loop
  // `loop` (the Line's tags; no trailing newline, the loop adds the frame
  // delimiter). Thread-safe. A response for a connection that already
  // vanished is dropped and counted (net.responses_dropped).
  void Send(size_t loop, uint64_t conn, uint64_t seq, std::string text);

  // Every loop stops accepting new connections and reading new requests;
  // pending responses still flush. Thread-safe, idempotent.
  void BeginDrain();

  // Drains every loop, waits for each to flush its pending responses
  // (bounded by a 5 s grace period) and joins the threads. Idempotent;
  // call from outside the loops.
  void Stop();

 private:
  std::atomic<size_t> open_connections_{0};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
};

}  // namespace exea::net

#endif  // EXEA_NET_EVENT_LOOP_H_
