#include "serve/async_server.h"

#include <utility>

namespace exea::serve {

AsyncServer::AsyncServer(QueryEngine* engine,
                         const AsyncServerOptions& options)
    : options_(options),
      registry_(options.server.registry != nullptr
                    ? options.server.registry
                    : engine->mutable_registry()),
      server_(engine, options.server),
      admission_queue_(options.queue_capacity),
      queue_depth_(registry_->GetGauge("serve.queue_depth")) {}

AsyncServer::~AsyncServer() { Shutdown(); }

Status AsyncServer::Start(int port) {
  EXEA_CHECK(loop_ == nullptr) << "Start called twice";
  net::EventLoopOptions loop_options;
  loop_options.max_connections = options_.max_connections;
  loop_options.max_line_bytes = options_.server.max_request_bytes;
  loop_options.registry = registry_;
  loop_ = std::make_unique<net::EventLoop>(
      loop_options,
      [this](net::EventLoop::Line&& line) { OnLine(std::move(line)); });
  Status listening = loop_->Listen(port);
  if (!listening.ok()) {
    loop_.reset();
    return listening;
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  worker_pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_pool_->Submit([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

int AsyncServer::port() const { return loop_ != nullptr ? loop_->port() : 0; }

void AsyncServer::OnLine(net::EventLoop::Line&& line) {
  // Runs on the loop thread: admission decisions only, never work. Both
  // rejection paths reuse Server's renderers so bytes and counters match
  // the stdin path exactly.
  if (line.oversized) {
    loop_->Send(line.conn, line.seq,
                server_.RejectOversized(line.observed_bytes));
    return;
  }
  Request request;
  request.conn = line.conn;
  request.seq = line.seq;
  request.line = std::move(line.text);
  request.deadline = Deadline(options_.server.deadline_seconds);
  if (!admission_queue_.TryPush(std::move(request))) {
    loop_->Send(line.conn, line.seq, server_.RejectQueueFull());
    return;
  }
  queue_depth_.Set(static_cast<double>(admission_queue_.size()));
}

void AsyncServer::WorkerLoop() {
  Request request;
  while (admission_queue_.Pop(&request)) {
    queue_depth_.Set(static_cast<double>(admission_queue_.size()));
    if (options_.worker_hook_for_test) options_.worker_hook_for_test();
    // Shed-before-work: a deadline that expired during the queue wait is
    // answered without parsing or touching the engine.
    std::string response =
        request.deadline.Expired()
            ? server_.ShedExpired(request.queued.ElapsedMillis())
            : server_.HandleLine(request.line);
    loop_->Send(request.conn, request.seq, std::move(response));
    if (server_.shutdown_requested()) {
      // Stop admitting (drain the loop, close the queue) and wake
      // whoever is blocked in Wait(); the actual joins happen there —
      // a worker cannot join its own pool.
      loop_->BeginDrain();
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
    if (loop_ != nullptr) loop_->BeginDrain();
    admission_queue_.Close();
    worker_pool_.reset();  // joins workers once the queue drains
    if (loop_ != nullptr) {
      loop_->Stop();  // flushes pending responses, bounded
      if (loop_thread_.joinable()) loop_thread_.join();
    }
  });
}

}  // namespace exea::serve
