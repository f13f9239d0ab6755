// Tests for the async transport primitives in src/net/: the bounded MPMC
// admission queue, the blocking socket helpers, and the epoll event loop's
// framing guarantees — partial reads, partial writes, response reordering,
// oversized-line rejection, the connection cap, and drain semantics.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/bounded_queue.h"
#include "net/event_loop.h"
#include "net/socket_io.h"
#include "obs/metrics.h"

namespace exea {
namespace {

// ---------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, FifoOrder) {
  net::BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_TRUE(queue.TryPush(3));
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  net::BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: the admission bound
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(3));  // space freed, admits again
}

TEST(BoundedQueueTest, CloseStillDrainsQueuedItems) {
  net::BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  ASSERT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(9));  // closed to new work...
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));  // ...but admitted work still drains
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));  // closed and drained
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  net::BoundedQueue<int> queue(4);
  std::thread popper([&] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(&out));  // blocks until Close, then false
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  popper.join();
}

// Many producers racing many consumers through a tiny queue; run under
// TSAN in CI. Every pushed value must be popped exactly once.
TEST(BoundedQueueTest, MpmcStressLosesNothing) {
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 4;
  constexpr size_t kPerProducer = 250;
  net::BoundedQueue<uint64_t> queue(8);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        uint64_t value = p * kPerProducer + i;
        while (!queue.TryPush(value)) std::this_thread::yield();
      }
    });
  }

  std::mutex mu;
  std::vector<uint64_t> popped;
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t value = 0;
      while (queue.Pop(&value)) {
        std::lock_guard<std::mutex> lock(mu);
        popped.push_back(value);
      }
    });
  }

  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();

  ASSERT_EQ(popped.size(), kProducers * kPerProducer);
  std::sort(popped.begin(), popped.end());
  for (size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i], i);  // each value exactly once
  }
}

// ------------------------------------------------------------- socket_io

TEST(SocketIoTest, ListenBacklogConstantIsReal) {
  // The historical listen(fd, 1) refused concurrent connects; the shared
  // constant must stay comfortably above one.
  EXPECT_GE(net::kListenBacklog, 64);
}

int NoDelayOf(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

// Nagle's algorithm would hold a small response while an earlier one on
// the same connection is unacknowledged, stalling pipelined requests.
TEST(SocketIoTest, AcceptedAndConnectedSocketsSetNoDelay) {
  auto listener = net::ListenOn(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_TRUE(net::SetNonBlocking(*listener).ok());
  auto port = net::BoundPort(*listener);
  ASSERT_TRUE(port.ok());
  auto client = net::ConnectLocal(*port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  int server = -1;
  for (int attempt = 0; attempt < 1000 && server < 0; ++attempt) {
    server = net::AcceptNonBlocking(*listener);
    if (server < 0) {
      ASSERT_EQ(errno, EAGAIN);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(server, 0) << "the connect never reached the accept queue";

  EXPECT_NE(NoDelayOf(*client), 0);
  EXPECT_NE(NoDelayOf(server), 0);
  ::close(server);
  ::close(*client);
  ::close(*listener);
}

TEST(SocketIoTest, LineReaderSplitsAndMeasuresOversized) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload = "short\n" + std::string(100, 'x') + "\nafter\n";
  ASSERT_EQ(::write(fds[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::close(fds[1]);

  net::LineReader reader(fds[0]);
  std::string line;
  bool truncated;
  size_t truncated_bytes;

  ASSERT_TRUE(reader.ReadLine(16, &line, &truncated, &truncated_bytes));
  EXPECT_EQ(line, "short");
  EXPECT_FALSE(truncated);

  ASSERT_TRUE(reader.ReadLine(16, &line, &truncated, &truncated_bytes));
  EXPECT_TRUE(truncated);
  EXPECT_EQ(truncated_bytes, 100u);  // measured, newline excluded

  ASSERT_TRUE(reader.ReadLine(16, &line, &truncated, &truncated_bytes));
  EXPECT_EQ(line, "after");
  EXPECT_FALSE(truncated);

  EXPECT_FALSE(reader.ReadLine(16, &line, &truncated, &truncated_bytes));
  ::close(fds[0]);
}

// ------------------------------------------------------------- EventLoop

// A loop on its own thread with an injectable line handler and a private
// registry, plus a blocking client helper speaking the NDJSON framing.
class LoopFixture {
 public:
  using Handler = std::function<void(const net::EventLoop::Line&)>;

  explicit LoopFixture(Handler handler, net::EventLoopOptions options =
                                            net::EventLoopOptions{}) {
    options.registry = &registry_;
    handler_ = std::move(handler);
    loop_ = std::make_unique<net::EventLoop>(
        options, [this](const net::EventLoop::Line& line) { handler_(line); });
    Status status = loop_->Listen(0);
    EXPECT_TRUE(status.ok()) << status.ToString();
    thread_ = std::thread([this] { loop_->Run(); });
  }

  ~LoopFixture() {
    loop_->Stop();
    thread_.join();
  }

  net::EventLoop& loop() { return *loop_; }
  int port() const { return loop_->port(); }
  obs::Registry& registry() { return registry_; }

 private:
  obs::Registry registry_;
  Handler handler_;
  std::unique_ptr<net::EventLoop> loop_;
  std::thread thread_;
};

struct Client {
  int fd = -1;

  explicit Client(int port) {
    auto connected = net::ConnectLocal(port);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    if (connected.ok()) fd = *connected;
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  void Send(const std::string& text) {
    Status status = net::WriteAll(fd, text);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  // One response line, or what arrived of it before EOF.
  std::string ReadLine() {
    while (true) {
      size_t nl = pending.find('\n');
      if (nl != std::string::npos) {
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) return std::exchange(pending, std::string());
      pending.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string pending;  // bytes read past the last returned line
};

TEST(EventLoopTest, EchoesLinesInOrder) {
  LoopFixture fixture([&fixture](const net::EventLoop::Line& line) {
    fixture.loop().Send(line.conn, line.seq, "echo:" + line.text);
  });
  Client client(fixture.port());
  client.Send("alpha\nbeta\ngamma\n");
  EXPECT_EQ(client.ReadLine(), "echo:alpha");
  EXPECT_EQ(client.ReadLine(), "echo:beta");
  EXPECT_EQ(client.ReadLine(), "echo:gamma");
  EXPECT_EQ(fixture.registry().CounterValue("net.lines_in"), 3u);
}

TEST(EventLoopTest, ReassemblesLinesAcrossPartialReads) {
  LoopFixture fixture([&fixture](const net::EventLoop::Line& line) {
    fixture.loop().Send(line.conn, line.seq, "got:" + line.text);
  });
  Client client(fixture.port());
  client.Send("hel");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.Send("lo\nwor");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.Send("ld\n");
  EXPECT_EQ(client.ReadLine(), "got:hello");
  EXPECT_EQ(client.ReadLine(), "got:world");
}

// Workers race, responses complete out of order — the loop must still
// write them to the socket in request order.
TEST(EventLoopTest, ReordersRacingResponses) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<net::EventLoop::Line> lines;
  LoopFixture fixture([&](const net::EventLoop::Line& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
    cv.notify_all();
  });

  Client client(fixture.port());
  client.Send("first\nsecond\n");
  std::vector<net::EventLoop::Line> pair;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return lines.size() == 2; });
    pair = lines;
  }
  EXPECT_EQ(pair[0].seq, 0u);
  EXPECT_EQ(pair[1].seq, 1u);

  // Answer in reverse: seq 1 before seq 0.
  fixture.loop().Send(pair[1].conn, pair[1].seq, "r:" + pair[1].text);
  fixture.loop().Send(pair[0].conn, pair[0].seq, "r:" + pair[0].text);

  EXPECT_EQ(client.ReadLine(), "r:first");
  EXPECT_EQ(client.ReadLine(), "r:second");
}

TEST(EventLoopTest, OversizedLineIsMeasuredNotBuffered) {
  net::EventLoopOptions options;
  options.max_line_bytes = 16;
  LoopFixture fixture(
      [&fixture](const net::EventLoop::Line& line) {
        if (line.oversized) {
          EXPECT_TRUE(line.text.empty());
          fixture.loop().Send(
              line.conn, line.seq,
              "too-big:" + std::to_string(line.observed_bytes));
        } else {
          fixture.loop().Send(line.conn, line.seq, "ok:" + line.text);
        }
      },
      options);

  Client client(fixture.port());
  client.Send(std::string(100, 'z') + "\nshort\n");
  EXPECT_EQ(client.ReadLine(), "too-big:100");
  EXPECT_EQ(client.ReadLine(), "ok:short");
}

TEST(EventLoopTest, BlankLinesConsumeNoSequence) {
  std::mutex mu;
  std::vector<uint64_t> seqs;
  LoopFixture fixture([&](const net::EventLoop::Line& line) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seqs.push_back(line.seq);
    }
    fixture.loop().Send(line.conn, line.seq, "ack:" + line.text);
  });

  Client client(fixture.port());
  client.Send("\n   \nreal\n\t\nanother\n");
  EXPECT_EQ(client.ReadLine(), "ack:real");
  EXPECT_EQ(client.ReadLine(), "ack:another");

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seqs.size(), 2u);  // whitespace-only lines: no event
  EXPECT_EQ(seqs[0], 0u);      // ...and no sequence hole
  EXPECT_EQ(seqs[1], 1u);
  EXPECT_EQ(fixture.registry().CounterValue("net.lines_in"), 2u);
}

TEST(EventLoopTest, ConnectionCapShedsAtAccept) {
  net::EventLoopOptions options;
  options.max_connections = 1;
  LoopFixture fixture(
      [&fixture](const net::EventLoop::Line& line) {
        fixture.loop().Send(line.conn, line.seq, "pong");
      },
      options);

  Client first(fixture.port());
  first.Send("ping\n");
  EXPECT_EQ(first.ReadLine(), "pong");  // round-trip: definitely admitted

  Client second(fixture.port());
  EXPECT_EQ(second.ReadLine(), "");  // immediate EOF: shed at the edge
  EXPECT_EQ(fixture.registry().CounterValue("net.conn_rejected"), 1u);

  first.Send("again\n");  // the admitted client is unaffected
  EXPECT_EQ(first.ReadLine(), "pong");
}

TEST(EventLoopTest, DrainStillAnswersAdmittedLines) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<net::EventLoop::Line> held;
  LoopFixture fixture([&](const net::EventLoop::Line& line) {
    std::lock_guard<std::mutex> lock(mu);
    held.push_back(line);
    cv.notify_all();
  });

  Client client(fixture.port());
  client.Send("pending\n");
  net::EventLoop::Line admitted;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !held.empty(); });
    admitted = held[0];
  }

  fixture.loop().BeginDrain();  // no new reads or accepts...
  fixture.loop().Send(admitted.conn, admitted.seq, "answered");
  EXPECT_EQ(client.ReadLine(), "answered");  // ...but owed answers flush
}

// A peer streaming blank lines keeps its socket full. The loop still
// answers another connection promptly: it reads each connection once per
// readiness event, and consumes a read's lines in linear time.
TEST(EventLoopTest, BlankLineFloodDoesNotStarveOtherConnections) {
  LoopFixture fixture([&fixture](const net::EventLoop::Line& line) {
    fixture.loop().Send(line.conn, line.seq, "echo:" + line.text);
  });
  Client flooder(fixture.port());
  Client probe(fixture.port());
  probe.Send("warm\n");
  ASSERT_EQ(probe.ReadLine(), "echo:warm");  // both connections admitted
  // A starved probe times out instead of hanging the test.
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(probe.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  std::atomic<bool> stop{false};
  std::atomic<size_t> flooded{0};
  std::thread flood([&] {
    const std::string blanks(65536, '\n');
    while (!stop.load()) {
      // Non-blocking, so the flood ends as soon as the probe is answered.
      ssize_t n = ::send(flooder.fd, blanks.data(), blanks.size(),
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        flooded.fetch_add(static_cast<size_t>(n));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  while (flooded.load() < (size_t{1} << 20)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto start = std::chrono::steady_clock::now();
  probe.Send("ping\n");
  std::string reply = probe.ReadLine();
  double waited = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  stop.store(true);
  flood.join();

  EXPECT_EQ(reply, "echo:ping");
  EXPECT_LT(waited, 5.0) << "another peer's flood held the loop";
  EXPECT_GE(flooded.load(), size_t{1} << 20);
  EXPECT_EQ(fixture.registry().CounterValue("net.lines_in"), 2u);
}

// A peer that sends requests but never reads its responses stops being
// read once its unsent responses pass the line cap, so server memory stays
// bounded; every admitted line is still answered, in order, once it reads.
TEST(EventLoopTest, PeerThatNeverReadsStopsBeingRead) {
  constexpr size_t kLines = 200;
  const std::string body(64 * 1024, 'r');
  std::atomic<size_t> seen{0};
  LoopFixture fixture([&](const net::EventLoop::Line& line) {
    seen.fetch_add(1);
    fixture.loop().Send(line.conn, line.seq,
                        body + ":" + line.text.substr(0, line.text.find(' ')));
  });

  // 2 KiB request lines, so the 200 of them span several 64 KiB reads.
  Client client(fixture.port());
  std::string requests;
  for (size_t i = 0; i < kLines; ++i) {
    std::string line = "line-" + std::to_string(i) + " ";
    requests += line + std::string(2048 - line.size(), '.') + "\n";
  }
  client.Send(requests);

  // Let the loop take everything it is willing to take.
  size_t last = 0;
  for (int settled = 0; settled < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    size_t now = seen.load();
    settled = now == last && now > 0 ? settled + 1 : 0;
    last = now;
  }
  EXPECT_LT(seen.load(), kLines) << "the loop kept reading a peer that "
                                    "reads none of its responses";

  for (size_t i = 0; i < kLines; ++i) {
    ASSERT_EQ(client.ReadLine(), body + ":line-" + std::to_string(i));
  }
  EXPECT_EQ(seen.load(), kLines);
}

// Connect/disconnect churn with clients that vanish without reading their
// responses (EPIPE on the loop's writes). Run under TSAN in CI; the
// assertion is simply that nothing crashes, deadlocks, or leaks a
// response for a live client.
TEST(EventLoopTest, SurvivesClientChurn) {
  LoopFixture fixture([&fixture](const net::EventLoop::Line& line) {
    fixture.loop().Send(line.conn, line.seq,
                        std::string(256, '#') + ":" + line.text);
  });

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 10;
  std::atomic<size_t> good{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        Client client(fixture.port());
        if (client.fd < 0) continue;
        client.Send("msg-" + std::to_string(t) + "-" +
                    std::to_string(round) + "\n");
        if ((t + round) % 3 == 0) continue;  // vanish without reading
        std::string reply = client.ReadLine();
        if (reply.find("msg-") != std::string::npos) ++good;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every client that stayed to read got its answer.
  size_t stayed = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t round = 0; round < kRounds; ++round) {
      if ((t + round) % 3 != 0) ++stayed;
    }
  }
  EXPECT_EQ(good.load(), stayed);
}

}  // namespace
}  // namespace exea
