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
// termination. A request's deadline starts when it is decoded; an
// over-deadline request answers with code DEADLINE_EXCEEDED.
//
// Each line is decoded once into a typed Request (Decode) and answered by
// its op's handler as a StatusOr (Answer), counted by Status code alone.
// AsyncServer decodes on the event loop, answers a bounded lookup there
// (AnswerLookup), and queues the rest for a worker's Answer.
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
#include "util/timer.h"

namespace exea::serve {

// Parses one flat JSON object ({"key":"value"|number|true|false|null,...})
// into a key → value map. Non-string scalars are returned as their literal
// text. Nested objects/arrays are rejected (the protocol is flat by
// design). Exposed for tests.
[[nodiscard]] StatusOr<std::map<std::string, std::string>> ParseFlatJson(
    const std::string& line);

// Escapes a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(const std::string& raw);

// The protocol's ops. kNone: the line names no op (absent or empty "op");
// kUnknown: any other name. Each has one serve.op.<name> counter, so
// hostile op names cannot grow the registry.
enum class Op { kNone, kUnknown, kAlign, kExplain, kNeighbors, kRepairStatus,
                kStats, kLoadSnapshot, kEngineStatus, kShutdown };

// One request line decoded into typed fields; only `op`'s fields are set.
struct Request {
  Op op = Op::kNone;
  Deadline deadline = Deadline::None();  // started at decode time
  std::vector<std::string> entities;     // align: "entity" or "entities"
  bool batched = false;                  // align: "entities" was given
  int32_t top_k = 0;  // align "k" in [1, 1000]; 0 = the engine's top_k
  std::string entity;  // neighbors
  int32_t side = 1;    // neighbors "side": 1 or 2
  std::string source;  // explain, repair_status
  std::string target;  // explain, repair_status
  std::string dir;     // load_snapshot
};

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

  // Decode, then Answer or RejectUndecodable: the response line (no
  // trailing newline) to one request line. Never throws; malformed input
  // yields an {"ok":false,...} response. Thread-safe: the engine is
  // immutable apart from its internally locked cache, counters are
  // atomic, and the latency histogram takes its own brief lock per sample.
  std::string HandleLine(const std::string& line);

  // The serving path's only parse. Counts the line's arrival
  // (serve.requests, then serve.malformed or serve.op.<op>) and decodes it
  // into a Request whose deadline starts now ("deadline_ms", else
  // options.deadline_seconds). No engine work: an event loop may call it.
  [[nodiscard]] StatusOr<Request> Decode(const std::string& line);

  // Runs the request's op handler and counts its outcome (serve.ok, or
  // serve.errors by Status code) with one serve.latency_ms sample timing
  // the handler. May block, so an event loop never calls it.
  std::string Answer(const Request& request);

  // Answer's bytes and counts for a request whose deadline holds and
  // that is a bounded lookup in the current version: a single-entity align
  // ("entity", not "entities") whose name resolves and whose row the align
  // memo has, a neighbors or repair_status request (an error answer
  // included), or an explain whose rendering the cache holds (counted as
  // the hit). std::nullopt, counting nothing, for any other request. Never
  // runs a top-k or an explain render: an event loop may call it.
  std::optional<std::string> AnswerLookup(const Request& request);

  // Reads requests from `in` until EOF or {"op":"shutdown"}; writes one
  // response line per request to `out` (flushed per line, so a pipe peer
  // can converse synchronously). Dumps the stats to stderr on exit.
  void Serve(std::istream& in, std::ostream& out);

  // The registry this server's metrics live in:
  //   serve.requests / .ok / .errors / .malformed / .oversized /
  //   .deadline_exceeded                      counters
  //   serve.op.<op>                           one request counter per op
  //   serve.latency_ms                        handler time per answered line
  // AsyncServer adds serve.loop_answered: lines a loop answered itself.
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

  // Counts and renders the answer to a line Decode rejected (serve.errors
  // and one serve.latency_ms sample). No engine work.
  std::string RejectUndecodable(const Status& status);

  // Counts and renders an admission-control rejection: the request queue
  // was full when the decoded request arrived. Counted under
  // serve.rejected; like RejectOversized, the request never enters the
  // latency histogram (no work was done).
  std::string RejectQueueFull();

  // Counts and renders the shedding of a request whose deadline expired
  // while it sat in the queue — checked after dequeue, before any work.
  // Counted under serve.deadline_exceeded (the client-visible code) and
  // serve.shed (distinguishing queue sheds from compute timeouts); the
  // queue wait is recorded as the request's latency.
  std::string ShedExpired(double queue_wait_ms);

 private:
  // Runs the request's op handler.
  [[nodiscard]] StatusOr<std::string> Dispatch(const Request& request);
  // Counts a failed request by its Status code and renders the response.
  std::string CountError(const Status& status);
  // Answer's and AnswerLookup's tail: counts `response` (serve.ok or
  // CountError) and one serve.latency_ms sample since `timer` started.
  std::string CountOutcome(StatusOr<std::string> response,
                           const WallTimer& timer);

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
