#include "serve/server.h"

#include <cstdint>
#include <cstdio>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/parse.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace exea::serve {
namespace {

// ------------------------------------------------------- flat JSON parser

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  StatusOr<std::map<std::string, std::string>> Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    std::map<std::string, std::string> fields;
    SkipSpace();
    if (Consume('}')) return FinishedAt(fields);
    while (true) {
      SkipSpace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      auto value = ParseValue();
      if (!value.ok()) return value.status();
      fields[*key] = *value;
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return FinishedAt(fields);
      return Error("expected ',' or '}'");
    }
  }

 private:
  StatusOr<std::map<std::string, std::string>> FinishedAt(
      std::map<std::string, std::string>& fields) {
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return std::move(fields);
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("malformed request (%s at byte %zu)", what.c_str(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // The protocol's names are ASCII/UTF-8 pass-through; encode the
          // code point as UTF-8 (BMP only — surrogate pairs rejected).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<std::string> ParseValue() {
    if (pos_ >= text_.size()) return Error("missing value");
    char c = text_[pos_];
    if (c == '"') return ParseString();
    if (c == '{' || c == '[') return Error("nested values unsupported");
    // Bare scalar: number / true / false / null, taken as literal text.
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ' ' && text_[pos_] != '\t') {
      ++pos_;
    }
    if (pos_ == start) return Error("missing value");
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- rendering

std::string ErrorResponse(const Status& status) {
  return StrFormat("{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}",
                   StatusCodeName(status.code()),
                   JsonEscape(status.message()).c_str());
}

// Appends `raw` to `out` with JsonEscape's escaping.
void AppendJsonEscaped(std::string_view raw, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
}

// Appends `raw` to `out` as a JSON string literal.
void AppendJsonString(std::string_view raw, std::string* out) {
  out->push_back('"');
  AppendJsonEscaped(raw, out);
  out->push_back('"');
}

// Appends one align result listing at most `max_candidates` candidates.
void AppendAlignResultJson(const AlignResult& result, size_t max_candidates,
                           std::string* out) {
  *out += "{\"entity\":";
  AppendJsonString(result.source, out);
  *out += ",\"index\":";
  AppendJsonString(result.index, out);
  *out += ",\"aligned\":[";
  for (size_t i = 0; i < result.aligned.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(result.aligned[i], out);
  }
  *out += "],\"candidates\":[";
  size_t shown = 0;
  for (const auto& [entity, score] : result.candidates) {
    if (shown == max_candidates) break;
    if (shown++ > 0) out->push_back(',');
    *out += "{\"entity\":";
    AppendJsonString(entity, out);
    *out += ",\"score\":";
    AppendFixed6(score, out);
    out->push_back('}');
  }
  *out += "]}";
}

// ------------------------------------------------------------- decoding

using Fields = std::map<std::string, std::string>;

// Wire names indexed by Op; the per-op counter is serve.op.<name>.
constexpr const char* kOpNames[] = {
    "(none)", "(unknown)", "align",         "explain",       "neighbors",
    "repair_status", "stats", "load_snapshot", "engine_status", "shutdown"};
static_assert(std::size(kOpNames) == static_cast<size_t>(Op::kShutdown) + 1,
              "kOpNames must name every Op");

// The op a parsed request line names.
Op OpOf(const Fields& fields) {
  auto it = fields.find("op");
  if (it == fields.end() || it->second.empty()) return Op::kNone;
  for (size_t i = static_cast<size_t>(Op::kAlign); i < std::size(kOpNames);
       ++i) {
    if (it->second == kOpNames[i]) return static_cast<Op>(i);
  }
  return Op::kUnknown;
}

// The non-empty value of string field `key`.
StatusOr<std::string> RequiredField(const Fields& fields, const char* key) {
  auto it = fields.find(key);
  if (it == fields.end() || it->second.empty()) {
    return Status::InvalidArgument(std::string("missing required field: ") +
                                   key);
  }
  return it->second;
}

// Parses optional integer field `key` into `*out`, which an absent field
// leaves untouched; `allowed` completes "field 'key' must be ...".
Status OptionalInt32(const Fields& fields, const char* key, int32_t min_value,
                     int32_t max_value, const char* allowed, int32_t* out) {
  auto it = fields.find(key);
  if (it == fields.end()) return Status::Ok();
  Status parsed = util::ParseInt32(it->second, min_value, max_value, out);
  if (parsed.ok()) return parsed;
  return Status::InvalidArgument(
      StrFormat("field '%s' must be %s: ", key, allowed) + parsed.message());
}

// Decodes a parsed request line naming `op` (OpOf(fields)) into a Request
// whose deadline is `deadline_seconds` from now unless the line carries
// deadline_ms. Fields are checked in a fixed order — deadline_ms, the op,
// then the op's own fields — and the first failure is returned as
// INVALID_ARGUMENT naming it.
StatusOr<Request> DecodeRequest(Op op, const Fields& fields,
                                double deadline_seconds) {
  Request request;
  request.op = op;
  request.deadline = Deadline(deadline_seconds);
  // Optional per-request deadline override. The value is client data:
  // parse it checked and keep it inside [1ms, 1h] so a hostile request
  // cannot pin a worker forever or wrap the deadline arithmetic.
  auto deadline_it = fields.find("deadline_ms");
  if (deadline_it != fields.end()) {
    constexpr int64_t kMaxDeadlineMs = 3'600'000;
    int64_t deadline_ms = 0;
    Status parsed =
        util::ParseInt64(deadline_it->second, 1, kMaxDeadlineMs, &deadline_ms);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          "field 'deadline_ms' must be an integer in [1, 3600000]: " +
          parsed.message());
    }
    request.deadline = Deadline(static_cast<double>(deadline_ms) / 1000.0);
  }

  switch (request.op) {
    case Op::kNone:
      return Status::InvalidArgument("unknown op: (none)");
    case Op::kUnknown:
      return Status::InvalidArgument("unknown op: " + fields.at("op"));
    case Op::kAlign: {
      auto batch_it = fields.find("entities");
      request.batched = batch_it != fields.end();
      if (request.batched) {
        for (const std::string& name : Split(batch_it->second, ',')) {
          if (!name.empty()) request.entities.push_back(name);
        }
      } else {
        auto entity = RequiredField(fields, "entity");
        if (!entity.ok()) return entity.status();
        request.entities = {*entity};
      }
      EXEA_RETURN_IF_ERROR(OptionalInt32(fields, "k", 1, 1000,
                                         "an integer in [1, 1000]",
                                         &request.top_k));
      return request;
    }
    case Op::kExplain:
    case Op::kRepairStatus: {
      // `target` is checked first: a line missing both fields has always
      // been answered with the error that names `target`.
      auto target = RequiredField(fields, "target");
      if (!target.ok()) return target.status();
      auto source = RequiredField(fields, "source");
      if (!source.ok()) return source.status();
      request.source = *source;
      request.target = *target;
      return request;
    }
    case Op::kNeighbors: {
      auto entity = RequiredField(fields, "entity");
      if (!entity.ok()) return entity.status();
      request.entity = *entity;
      EXEA_RETURN_IF_ERROR(
          OptionalInt32(fields, "side", 1, 2, "1 or 2", &request.side));
      return request;
    }
    case Op::kLoadSnapshot: {
      auto dir = RequiredField(fields, "dir");
      if (!dir.ok()) return dir.status();
      request.dir = *dir;
      return request;
    }
    case Op::kStats:
    case Op::kEngineStatus:
    case Op::kShutdown:
      return request;
  }
  return Status::Internal("undecodable op");
}

// Reads one '\n'-terminated line of at most `max_bytes` bytes into `line`.
// A longer line is drained to its newline without being buffered (the
// request cap must bound memory, not just request size) and reported via
// `truncated`; `line` then holds only the measured length in
// `truncated_bytes`. Returns false on EOF with nothing read.
bool ReadLineBounded(std::istream& in, size_t max_bytes, std::string& line,
                     bool& truncated, size_t& truncated_bytes) {
  line.clear();
  truncated = false;
  truncated_bytes = 0;
  char c;
  while (in.get(c)) {
    if (c == '\n') return true;
    if (line.size() >= max_bytes) {
      truncated = true;
      truncated_bytes = line.size() + 1;
      while (in.get(c) && c != '\n') ++truncated_bytes;
      return true;
    }
    line.push_back(c);
  }
  return !line.empty();
}

// ------------------------------------------------------------- handlers

// The align response for `request` answered with `results`.
std::string RenderAlign(const Request& request,
                        const std::vector<AlignResult>& results) {
  // The candidate cap applies at render time only: the engine computes
  // the same results for every k.
  size_t max_candidates =
      request.top_k == 0 ? SIZE_MAX : static_cast<size_t>(request.top_k);
  std::string out = "{\"ok\":true,\"op\":\"align\",";
  if (!request.batched) {
    out += "\"result\":";
    AppendAlignResultJson(results[0], max_candidates, &out);
    out.push_back('}');
    return out;
  }
  out += "\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendAlignResultJson(results[i], max_candidates, &out);
  }
  out += "]}";
  return out;
}

StatusOr<std::string> HandleAlign(const QueryEngine& engine,
                                  const Request& request) {
  auto results = engine.AlignBatch(request.entities, request.deadline);
  if (!results.ok()) return results.status();
  return RenderAlign(request, *results);
}

std::string RenderExplain(const ExplainResult& result) {
  return StrFormat(
      "{\"ok\":true,\"op\":\"explain\",\"cache_hit\":%s,"
      "\"confidence\":%.6f,\"result\":%s}",
      result.cache_hit ? "true" : "false", result.confidence,
      result.json.c_str());
}

StatusOr<std::string> HandleExplain(QueryEngine& engine,
                                    const Request& request) {
  auto result =
      engine.Explain(request.source, request.target, request.deadline);
  if (!result.ok()) return result.status();
  return RenderExplain(*result);
}

StatusOr<std::string> HandleNeighbors(QueryEngine& engine,
                                      const Request& request) {
  auto result =
      engine.Neighbors(request.entity, request.side, request.deadline);
  if (!result.ok()) return result.status();
  std::string out = "{\"ok\":true,\"op\":\"neighbors\",\"entity\":";
  AppendJsonString(result->entity, &out);
  out += ",\"edges\":[";
  for (size_t i = 0; i < result->edges.size(); ++i) {
    const NeighborEdge& edge = result->edges[i];
    if (i > 0) out.push_back(',');
    out += "{\"relation\":";
    AppendJsonString(edge.relation, &out);
    out += ",\"neighbor\":";
    AppendJsonString(edge.neighbor, &out);
    out += edge.outgoing ? ",\"direction\":\"out\"}"
                         : ",\"direction\":\"in\"}";
  }
  out += "]}";
  return out;
}

StatusOr<std::string> HandleRepairStatus(QueryEngine& engine,
                                         const Request& request) {
  auto result =
      engine.RepairStatus(request.source, request.target, request.deadline);
  if (!result.ok()) return result.status();
  std::string out = "{\"ok\":true,\"op\":\"repair_status\",\"in_base\":";
  out += result->in_base ? "true" : "false";
  out += ",\"in_repaired\":";
  out += result->in_repaired ? "true" : "false";
  out += ",\"verdict\":\"";
  out += result->verdict;
  out += "\",\"repaired_targets\":[";
  for (size_t i = 0; i < result->repaired_targets.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(result->repaired_targets[i], &out);
  }
  out += "]}";
  return out;
}

StatusOr<std::string> HandleLoadSnapshot(QueryEngine& engine,
                                         const Request& request) {
  // Hot swap. On any failure the engine leaves the current version
  // serving and the error says why; in-flight requests on other workers
  // never notice either way.
  auto epoch = engine.LoadSnapshot(request.dir);
  if (!epoch.ok()) return epoch.status();
  EngineStatusResult status = engine.EngineStatus();
  std::ostringstream out;
  out << "{\"ok\":true,\"op\":\"load_snapshot\",\"epoch\":" << *epoch
      << ",\"swaps\":" << status.swaps << "}";
  return out.str();
}

// The answer to `request` when it is a bounded lookup in the pinned
// version — a single-entity align the memo holds, neighbors,
// repair_status, an explain the cache holds — or std::nullopt. Never runs
// a top-k or a render, and never reaches Dispatch: an event loop calls it.
std::optional<StatusOr<std::string>> LookUp(QueryEngine& engine,
                                            const Request& request) {
  switch (request.op) {
    case Op::kAlign: {
      if (request.batched) return std::nullopt;
      std::optional<std::vector<AlignResult>> results =
          engine.AlignBatchFromMemo(request.entities, request.deadline);
      if (!results.has_value()) return std::nullopt;
      return RenderAlign(request, *results);
    }
    case Op::kExplain: {
      std::optional<ExplainResult> cached =
          engine.ExplainFromCache(request.source, request.target);
      if (!cached.has_value()) return std::nullopt;
      return RenderExplain(*cached);
    }
    case Op::kNeighbors: return HandleNeighbors(engine, request);
    case Op::kRepairStatus: return HandleRepairStatus(engine, request);
    default: return std::nullopt;
  }
}

std::string EngineStatusJson(const QueryEngine& engine) {
  EngineStatusResult status = engine.EngineStatus();
  std::ostringstream out;
  out << "{\"ok\":true,\"op\":\"engine_status\",\"epoch\":" << status.epoch
      << ",\"source\":\"" << JsonEscape(status.source)
      << "\",\"index\":\"" << JsonEscape(status.index)
      << "\",\"index_size\":" << status.index_size
      << ",\"live_versions\":" << static_cast<uint64_t>(status.live_versions)
      << ",\"swaps\":" << status.swaps << ",\"explain_cache_size\":"
      << status.explain_cache_size
      << ",\"align_memo_filled\":" << status.memo_filled
      << ",\"align_memo_rows\":" << status.memo_rows << "}";
  return out.str();
}

}  // namespace

StatusOr<std::map<std::string, std::string>> ParseFlatJson(
    const std::string& line) {
  return FlatJsonParser(line).Parse();
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  AppendJsonEscaped(raw, &out);
  return out;
}

Server::Server(QueryEngine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : engine->mutable_registry()),
      requests_(registry_->GetCounter("serve.requests")),
      ok_(registry_->GetCounter("serve.ok")),
      errors_(registry_->GetCounter("serve.errors")),
      malformed_(registry_->GetCounter("serve.malformed")),
      oversized_(registry_->GetCounter("serve.oversized")),
      deadline_exceeded_(registry_->GetCounter("serve.deadline_exceeded")),
      rejected_(registry_->GetCounter("serve.rejected")),
      shed_(registry_->GetCounter("serve.shed")),
      latency_ms_(registry_->GetHistogram("serve.latency_ms")) {
  for (const char* name : kOpNames) {
    op_counters_.push_back(
        &registry_->GetCounter(std::string("serve.op.") + name));
  }
}

std::string Server::RejectOversized(size_t observed_bytes) {
  requests_.Increment();
  oversized_.Increment();
  return CountError(Status::OutOfRange(
      StrFormat("request line of %zu bytes exceeds the %zu-byte cap",
                observed_bytes, options_.max_request_bytes)));
}

std::string Server::RejectQueueFull() {
  rejected_.Increment();
  return CountError(
      Status::Unavailable("server overloaded: request queue is full"));
}

std::string Server::ShedExpired(double queue_wait_ms) {
  shed_.Increment();
  latency_ms_.Record(queue_wait_ms);
  return CountError(Status::DeadlineExceeded(
      "deadline expired before processing (shed from queue)"));
}

std::string Server::CountError(const Status& status) {
  errors_.Increment();
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.Increment();
  }
  return ErrorResponse(status);
}

std::string Server::RejectUndecodable(const Status& status) {
  WallTimer timer;
  std::string out = CountError(status);
  latency_ms_.Record(timer.ElapsedMillis());
  return out;
}

std::string Server::HandleLine(const std::string& line) {
  if (line.size() > options_.max_request_bytes) {
    return RejectOversized(line.size());
  }
  StatusOr<Request> request = Decode(line);
  return request.ok() ? Answer(*request) : RejectUndecodable(request.status());
}

StatusOr<Request> Server::Decode(const std::string& line) {
  // Arrival accounting happens before dispatch so a stats response
  // includes its own request.
  requests_.Increment();
  auto fields = ParseFlatJson(line);
  if (!fields.ok()) {
    malformed_.Increment();
    return fields.status();
  }
  Op op = OpOf(*fields);
  op_counters_[static_cast<size_t>(op)]->Increment();
  return DecodeRequest(op, *fields, options_.deadline_seconds);
}

std::string Server::Answer(const Request& request) {
  WallTimer timer;
  return CountOutcome(Dispatch(request), timer);
}

std::optional<std::string> Server::AnswerLookup(const Request& request) {
  if (request.deadline.Expired()) return std::nullopt;
  WallTimer timer;
  std::optional<StatusOr<std::string>> response = LookUp(*engine_, request);
  if (!response.has_value()) return std::nullopt;
  return CountOutcome(std::move(*response), timer);
}

std::string Server::CountOutcome(StatusOr<std::string> response,
                                 const WallTimer& timer) {
  if (response.ok()) ok_.Increment();
  std::string out = response.ok() ? std::move(response).value()
                                  : CountError(response.status());
  latency_ms_.Record(timer.ElapsedMillis());
  return out;
}

StatusOr<std::string> Server::Dispatch(const Request& request) {
  switch (request.op) {
    case Op::kAlign: return HandleAlign(*engine_, request);
    case Op::kExplain: return HandleExplain(*engine_, request);
    case Op::kNeighbors: return HandleNeighbors(*engine_, request);
    case Op::kRepairStatus: return HandleRepairStatus(*engine_, request);
    case Op::kStats:
      return "{\"ok\":true,\"op\":\"stats\",\"stats\":" + StatsJson() + "}";
    case Op::kLoadSnapshot: return HandleLoadSnapshot(*engine_, request);
    case Op::kEngineStatus: return EngineStatusJson(*engine_);
    case Op::kShutdown:
      shutdown_requested_ = true;
      return std::string("{\"ok\":true,\"op\":\"shutdown\"}");
    case Op::kNone:
    case Op::kUnknown: break;  // DecodeRequest rejects both
  }
  return Status::Internal("request decoded without a handler");
}

std::string Server::StatsJson() const {
  // Cache metrics live in the engine's registry, which by default is
  // also this server's registry; read them from the engine side so the
  // stats payload stays truthful if a caller split the two.
  const obs::Registry& engine_registry = engine_->registry();
  obs::Histogram::Snapshot latency = latency_ms_.TakeSnapshot();
  // One pinned version for the whole payload, so index name/size and the
  // epoch always describe the same snapshot even mid-swap.
  EngineStatusResult engine_status = engine_->EngineStatus();
  std::ostringstream out;
  out << "{\"index\":\"" << engine_status.index << "\",\"index_size\":"
      << engine_status.index_size
      << ",\"epoch\":" << engine_status.epoch
      << ",\"snapshot_swaps\":" << engine_status.swaps
      << ",\"requests\":" << requests_.Value()
      << ",\"ok\":" << ok_.Value()
      << ",\"errors\":" << errors_.Value()
      << ",\"malformed\":" << malformed_.Value()
      << ",\"oversized\":" << oversized_.Value()
      << ",\"deadline_exceeded\":" << deadline_exceeded_.Value()
      << ",\"rejected\":" << rejected_.Value()
      << ",\"shed\":" << shed_.Value()
      << ",\"queue_depth\":"
      << static_cast<uint64_t>(registry_->GaugeValue("serve.queue_depth"))
      << ",\"explain_cache_hits\":"
      << engine_registry.CounterValue("serve.explain_cache.hits")
      << ",\"explain_cache_misses\":"
      << engine_registry.CounterValue("serve.explain_cache.misses")
      << ",\"explain_cache_size\":"
      << static_cast<uint64_t>(
             engine_registry.GaugeValue("serve.explain_cache.size"))
      << ",\"align_memo_filled\":" << engine_status.memo_filled
      << ",\"align_memo_rows\":" << engine_status.memo_rows
      << ",\"align_memo_misses\":"
      << engine_registry.CounterValue("serve.align_memo.misses")
      << ",\"loop_answered\":"
      << registry_->CounterValue("serve.loop_answered")
      << ",\"latency_count\":" << latency.count
      << StrFormat(",\"latency_p50_ms\":%.3f,\"latency_p99_ms\":%.3f",
                   latency.p50, latency.p99)
      << ",\"per_op\":{";
  for (size_t i = 0; i < op_counters_.size(); ++i) {
    out << (i == 0 ? "" : ",") << '"' << kOpNames[i]
        << "\":" << op_counters_[i]->Value();
  }
  out << "},\"metrics\":" << registry_->ToJson() << "}";
  return out.str();
}

void Server::Serve(std::istream& in, std::ostream& out) {
  std::string line;
  bool truncated;
  size_t truncated_bytes;
  while (!shutdown_requested_ &&
         ReadLineBounded(in, options_.max_request_bytes, line, truncated,
                         truncated_bytes)) {
    if (truncated) {
      out << RejectOversized(truncated_bytes) << "\n" << std::flush;
      continue;
    }
    if (Trim(line).empty()) continue;
    out << HandleLine(line) << "\n" << std::flush;
  }
  std::fprintf(stderr, "server exiting; final stats: %s\n",
               StatsJson().c_str());
}

}  // namespace exea::serve
