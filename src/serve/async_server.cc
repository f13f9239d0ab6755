#include "serve/async_server.h"

#include <utility>

namespace exea::serve {

AsyncServer::AsyncServer(QueryEngine* engine,
                         const AsyncServerOptions& options)
    : options_(options),
      engine_(engine),
      registry_(options.server.registry != nullptr
                    ? options.server.registry
                    : engine->mutable_registry()),
      server_(engine, options.server),
      admission_queue_(options.queue_capacity),
      queue_depth_(registry_->GetGauge("serve.queue_depth")),
      loop_answered_(registry_->GetCounter("serve.loop_answered")) {}

AsyncServer::~AsyncServer() { Shutdown(); }

Status AsyncServer::Start(int port) {
  EXEA_CHECK(loops_ == nullptr) << "Start called twice";
  if (options_.workers == 0) {
    return Status::InvalidArgument("AsyncServer needs at least one worker");
  }
  net::EventLoopOptions loop_options;
  loop_options.max_connections = options_.max_connections;
  loop_options.max_line_bytes = options_.server.max_request_bytes;
  loop_options.registry = registry_;
  loops_ = std::make_unique<net::EventLoopGroup>(
      options_.workers, loop_options,
      [this](net::EventLoop::Line&& line) { return OnLine(std::move(line)); });
  Status listening = loops_->Start(port);
  if (!listening.ok()) {
    loops_.reset();
    return listening;
  }
  worker_pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
  filler_ = std::jthread([this](std::stop_token stop) {
    engine_->FillAlignMemos(stop, options_.filler_hook_for_test);
  });
  return Status::Ok();
}

int AsyncServer::port() const {
  return loops_ != nullptr ? loops_->port() : 0;
}

std::optional<std::string> AsyncServer::OnLine(net::EventLoop::Line&& line) {
  std::optional<std::string> answer = AnswerOrQueue(std::move(line));
  if (answer.has_value()) loop_answered_.Increment();
  return answer;
}

std::optional<std::string> AsyncServer::AnswerOrQueue(
    net::EventLoop::Line&& line) {
  // Runs on the loop thread: the line's one decode, the admission
  // decisions, and the answers that are bounded lookups. Every answer
  // reuses Server's code, so bytes and counters match the stdin path.
  if (line.oversized) return server_.RejectOversized(line.observed_bytes);
  StatusOr<Request> request = server_.Decode(line.text);
  if (!request.ok()) return server_.RejectUndecodable(request.status());
  std::optional<std::string> answer = server_.AnswerLookup(*request);
  if (answer.has_value()) return answer;
  if (!admission_queue_.TryPush(Admitted{line.loop, line.conn, line.seq,
                                         std::move(*request), WallTimer()})) {
    return server_.RejectQueueFull();
  }
  queue_depth_.Set(static_cast<double>(admission_queue_.size()));
  return std::nullopt;
}

void AsyncServer::WorkerLoop() {
  Admitted admitted;
  while (admission_queue_.Pop(&admitted)) {
    queue_depth_.Set(static_cast<double>(admission_queue_.size()));
    if (options_.worker_hook_for_test) options_.worker_hook_for_test();
    // Shed-before-work: a request whose deadline expired during the queue
    // wait is answered without touching the engine.
    std::string response =
        admitted.request.deadline.Expired()
            ? server_.ShedExpired(admitted.queued.ElapsedMillis())
            : server_.Answer(admitted.request);
    loops_->Send(admitted.loop, admitted.conn, admitted.seq,
                 std::move(response));
    if (server_.shutdown_requested()) {
      // Stop admitting (drain the loops, close the queue) and wake
      // whoever is blocked in Wait(); the actual joins happen there —
      // a worker cannot join its own pool.
      loops_->BeginDrain();
      admission_queue_.Close();
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_signaled_ = true;
      shutdown_cv_.notify_all();
    }
  }
}

void AsyncServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [&] { return shutdown_signaled_; });
  }
  TeardownOnce();
}

void AsyncServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_signaled_ = true;
    shutdown_cv_.notify_all();
  }
  TeardownOnce();
}

void AsyncServer::TeardownOnce() {
  std::call_once(teardown_once_, [this] {
    // The filler stops at its next block (at most 16 rows away).
    filler_.request_stop();
    if (filler_.joinable()) filler_.join();
    if (loops_ != nullptr) loops_->BeginDrain();
    admission_queue_.Close();
    worker_pool_.reset();  // joins workers once the queue drains
    if (loops_ != nullptr) loops_->Stop();  // flushes, bounded; joins
  });
}

}  // namespace exea::serve
