// AsyncServer: the concurrent TCP serving core (DESIGN.md §12).
//
//   event loops ──► bounded MPMC queue ──► worker pool ──┐
//   (net/EventLoopGroup) (net/BoundedQueue)  (util/ThreadPool)
//     ▲  │ decode; undecodable line or lookup: answered    │
//     └──┴──────────── Send(loop, conn, seq, response) ◄───┘
//   memo filler (one thread): fills each current version's align memo
//
// `workers` event loops, one thread each, own the sockets: loop 0 accepts
// and hands each connection round-robin to a loop, which frames its
// NDJSON request lines (partial reads, oversized-line draining) and
// writes its responses back in request order. The loop decodes each line
// once (Server::Decode counts it and starts its deadline) and answers
// what is a bounded lookup in the pinned version (Server::AnswerLookup:
// no top-k, no explain render, no queue, no thread hop): a line that
// does not decode, a single-entity align whose row the align memo holds,
// a neighbors or repair_status request, and an explain whose rendering
// the cache holds. Workers pop every other request from a bounded queue and
// run it through Server::Answer, the tail of the stdin path's HandleLine,
// so bytes and counters match it by construction. An align the memo
// cannot answer runs its own top-k on the worker that dequeued it: there
// is no cross-request batching and no hold.
//
// The memo filler (QueryEngine::FillAlignMemos) starts with the server
// and wakes whenever a new snapshot version becomes current: it fills the
// version's empty align-memo rows 16 at a time on its own thread (one
// core, about 0.12 s for 4000 rows), so nearly every single-entity align
// is answered on a loop. It drops a version as soon as a swap retires it,
// and it is joined at shutdown. The stdin path never runs it.
//
// Admission control, in the order a request meets it:
//   1. max_connections — excess connects are closed at accept
//      (net.conn_rejected),
//   2. oversized lines — rejected by the loop with the stdin path's
//      exact error (serve.oversized),
//   3. queue_capacity — a full queue rejects immediately with
//      UNAVAILABLE (serve.rejected); a loop never blocks on a
//      saturated worker pool,
//   4. deadline shed — a request's deadline starts at admission (decode);
//      one that expires while queued is shed right after dequeue, before
//      any engine work (serve.deadline_exceeded + serve.shed).
// The loop answers an undecodable line or a lookup before 3, unless its
// deadline has expired: that request is queued and shed at 4.
// serve.op.<op> counts at decode, so it includes rejections and sheds;
// serve.loop_answered counts every line a loop answered itself.
//
// Shutdown ({"op":"shutdown"} or Shutdown()): the loops stop accepting
// and reading, the queue closes, workers drain every admitted request,
// and each loop flushes all its pending responses before exiting — every
// admitted request is answered.
//
// The workers get their own ThreadPool instance, NOT util/parallel.h's
// process-wide pool: workers block in queue pops, and parking blocking
// loops on the shared pool would starve the engine's ParallelFor kernels
// (nested calls would inline, but the workers never finish).

#ifndef EXEA_SERVE_ASYNC_SERVER_H_
#define EXEA_SERVE_ASYNC_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "net/bounded_queue.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace exea::serve {

struct AsyncServerOptions {
  // Worker threads, and also the number of event loops.
  size_t workers = 4;
  size_t queue_capacity = 1024;   // admission bound (requests)
  size_t max_connections = 256;   // concurrent client cap

  // Fixed, not settable: one request per top-k dispatch and no hold.
  // Kept only because e2ebench prints both in its context line.
  static constexpr size_t max_batch = 1;
  static constexpr double batch_wait_ms = 0.0;

  // Protocol-level options (deadline, line cap, registry), shared with
  // the stdin Server so both paths stay configured identically.
  ServerOptions server;

  // Test seam: runs in each worker right after dequeue, before the shed
  // check — lets tests hold workers to force queue-full and expired
  // deadlines deterministically. Lines answered on a loop never reach
  // it. Never set in production.
  std::function<void()> worker_hook_for_test;

  // Test seam: runs on the memo filler before each block — lets tests
  // keep a version's memo cold (so aligns miss and reach the queue) or
  // stop a fill midway. Never set in production.
  std::function<void()> filler_hook_for_test;
};

class AsyncServer {
 public:
  // Borrows `engine`, which must outlive the server.
  AsyncServer(QueryEngine* engine, const AsyncServerOptions& options);

  // Joins everything (implies Shutdown()).
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  // Binds 127.0.0.1:`port` (0 → kernel-assigned) and starts the loop
  // threads and workers. Call once.
  [[nodiscard]] Status Start(int port);

  // The bound port, valid after a successful Start().
  int port() const;

  // Blocks until a {"op":"shutdown"} request (or Shutdown()) and then
  // completes the drain: every admitted request answered, all threads
  // joined.
  void Wait();

  // Programmatic shutdown; same drain as the shutdown op. Thread-safe,
  // idempotent.
  void Shutdown();

  // The protocol core (stats, counters). The async path shares all of it.
  Server& server() { return server_; }

 private:
  // One decoded request traveling loop → queue → worker.
  struct Admitted {
    size_t loop = 0;  // the loop that owns the connection
    uint64_t conn = 0;
    uint64_t seq = 0;
    Request request;  // its deadline started at decode, on the loop
    WallTimer queued;  // measures the queue wait
  };

  // Runs on the loop thread that framed `line`: its response when the
  // loop answers it (counted under serve.loop_answered), std::nullopt
  // once it is queued for a worker.
  std::optional<std::string> OnLine(net::EventLoop::Line&& line);
  std::optional<std::string> AnswerOrQueue(net::EventLoop::Line&& line);
  void WorkerLoop();
  void TeardownOnce();

  AsyncServerOptions options_;
  QueryEngine* engine_;
  obs::Registry* registry_;  // never null; resolved like Server's
  Server server_;
  net::BoundedQueue<Admitted> admission_queue_;
  std::unique_ptr<net::EventLoopGroup> loops_;
  std::unique_ptr<util::ThreadPool> worker_pool_;
  std::jthread filler_;  // runs engine_->FillAlignMemos
  obs::Gauge& queue_depth_;
  obs::Counter& loop_answered_;
  std::once_flag teardown_once_;

  // mu_ protects everything declared after it (the class convention the
  // lock-discipline lint pass enforces).
  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_signaled_ EXEA_GUARDED_BY(mu_) = false;
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_ASYNC_SERVER_H_
