// The serving request loop: newline-delimited JSON, one request per line,
// one response line per request, over stdin/stdout (exea_cli serve) or,
// through AsyncServer, localhost TCP.
//
// Requests (flat JSON objects, string values):
//   {"op":"align","entity":"zh/Foo"}
//   {"op":"align","entities":"zh/Foo,zh/Bar"}        (batched)
//   {"op":"explain","source":"zh/Foo","target":"en/Bar"}
//   {"op":"neighbors","entity":"zh/Foo","side":"1"}
//   {"op":"repair_status","source":"zh/Foo","target":"en/Bar"}
//   {"op":"stats"}
//   {"op":"load_snapshot","dir":"/path/to/bundle"}   (hot swap)
//   {"op":"engine_status"}
//   {"op":"shutdown"}
//
// Responses: {"ok":true,"op":...,...} on success,
// {"ok":false,"error":"...","code":"NOT_FOUND"} on failure. A malformed or
// unknown request produces an error response — never a crash, never loop
// termination. Every request is subject to the configured deadline; an
// over-deadline request answers with code DEADLINE_EXCEEDED.
//
// Each line is parsed (ParseFlatJson), decoded once into a typed request,
// and answered by its op's handler as a StatusOr; the Status code alone
// decides how the outcome is counted.
//
// The server records its traffic into an obs::Registry (requests, per-op
// counts, errors, cache hits/misses via the engine, and a latency
// histogram whose p50/p99 stay accurate at any request count — see
// obs/metrics.h) and reports it on {"op":"stats"} and to stderr at
// shutdown.

#ifndef EXEA_SERVE_SERVER_H_
#define EXEA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/engine.h"
#include "util/status.h"

namespace exea::serve {

// Parses one flat JSON object ({"key":"value"|number|true|false|null,...})
// into a key → value map. Non-string scalars are returned as their literal
// text. Nested objects/arrays are rejected (the protocol is flat by
// design). Exposed for tests.
[[nodiscard]] StatusOr<std::map<std::string, std::string>> ParseFlatJson(
    const std::string& line);

// Escapes a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(const std::string& raw);

struct ServerOptions {
  double deadline_seconds = 5.0;  // per request; <= 0 disables

  // Hard cap on one request line. Longer lines are answered with an
  // OUT_OF_RANGE error and discarded without ever being buffered
  // whole, so a hostile peer cannot balloon the server's memory by
  // withholding its newline. The loop then continues at the next line.
  size_t max_request_bytes = 1 << 20;  // 1 MiB

  // Where the server registers its metrics. nullptr → the engine's
  // registry, so server and engine metrics land in one place by default
  // (production uses obs::Registry::Global() for both).
  obs::Registry* registry = nullptr;
};

class Server {
 public:
  // Borrows `engine`, which must outlive the server.
  Server(QueryEngine* engine, const ServerOptions& options);

  // Handles one request line, returns the response line (no trailing
  // newline) and updates the metrics. Never throws; malformed input
  // yields an {"ok":false,...} response. Public for in-process tests.
  // Thread-safe: the engine is immutable apart from its internally locked
  // cache, counters are atomic, and the latency histogram takes its own
  // brief lock per sample.
  std::string HandleLine(const std::string& line);

  // HandleLine for the lines that cost one row's render: a well-formed
  // single-entity align ("entity", not "entities") whose name resolves,
  // whose deadline has not expired and whose row the current version's
  // align memo already holds. Answers such a line with HandleLine's bytes
  // and counts exactly what HandleLine would (serve.requests,
  // serve.op.align, serve.ok, one serve.latency_ms sample). Any other
  // line gets std::nullopt and counts nothing; the caller then hands it
  // to HandleLine. Never runs a top-k, so an event-loop thread may call
  // it. Thread-safe.
  std::optional<std::string> AnswerFromMemo(const std::string& line);

  // Reads requests from `in` until EOF or {"op":"shutdown"}; writes one
  // response line per request to `out` (flushed per line, so a pipe peer
  // can converse synchronously). Dumps the stats to stderr on exit.
  void Serve(std::istream& in, std::ostream& out);

  // The registry this server's metrics live in:
  //   serve.requests / .ok / .errors / .malformed / .oversized /
  //   .deadline_exceeded                      counters
  //   serve.op.<op>                           one request counter per op
  //   serve.latency_ms                        histogram over all requests
  const obs::Registry& registry() const { return *registry_; }

  // The server + engine metrics as a JSON object (the "stats" response
  // payload). Scalar keys are flattened for ergonomic grepping; the full
  // registry dump rides along under "metrics".
  std::string StatsJson() const;

  // True once a {"op":"shutdown"} request has been handled.
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  // Counts and renders the rejection of a line longer than
  // options_.max_request_bytes. Public so transports that do their own
  // framing (the event loop) can reject with identical bytes + counters.
  std::string RejectOversized(size_t observed_bytes);

  // Counts and renders an admission-control rejection: the request queue
  // was full when the line arrived. Counted under serve.rejected; like
  // RejectOversized, the request never enters the latency histogram
  // (no work was done).
  std::string RejectQueueFull();

  // Counts and renders the shedding of a request whose deadline expired
  // while it sat in the queue — checked after dequeue, before any work.
  // Counted under serve.deadline_exceeded (the client-visible code) and
  // serve.shed (distinguishing queue sheds from compute timeouts); the
  // queue wait is recorded as the request's latency. The per-op counter
  // is not advanced: the line was never parsed.
  std::string ShedExpired(double queue_wait_ms);

 private:
  // Counts the line's arrival, decodes it and runs its op's handler.
  [[nodiscard]] StatusOr<std::string> Respond(const std::string& line);
  // Counts a failed request by its Status code and renders the response.
  std::string CountError(const Status& status);

  QueryEngine* engine_;
  ServerOptions options_;
  std::atomic<bool> shutdown_requested_{false};

  // All traffic accounting lives in the registry (the
  // obs-no-adhoc-metrics lint rule); these are resolved-once references
  // into it.
  obs::Registry* registry_;  // never null; set from options in the ctor
  obs::Counter& requests_;
  obs::Counter& ok_;
  obs::Counter& errors_;     // well-formed requests that returned an error
  obs::Counter& malformed_;  // lines that did not parse as a request
  obs::Counter& oversized_;  // lines rejected by max_request_bytes
  obs::Counter& deadline_exceeded_;
  obs::Counter& rejected_;   // admission rejections (queue full)
  obs::Counter& shed_;       // dequeued with an already-expired deadline
  obs::Histogram& latency_ms_;
  std::vector<obs::Counter*> op_counters_;  // serve.op.<name>, one per op
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_SERVER_H_
