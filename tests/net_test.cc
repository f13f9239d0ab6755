// Tests for the async transport primitives in src/net/: the bounded MPMC
// admission queue, the blocking socket helpers, and the epoll event loops'
// framing guarantees — partial reads, partial writes, response reordering
// (answers made on the loop and by other threads alike), oversized-line
// rejection, the connection cap, drain semantics, and the loop group's
// round-robin handoff.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
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
#include <optional>
#include <set>
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

// An event-loop group (one loop unless asked for more, each on its own
// thread) with an injectable line handler and a private registry, plus a
// blocking client helper speaking the NDJSON framing.
class LoopFixture {
 public:
  // Answers a line on the spot, or returns std::nullopt to answer it
  // later through Send().
  using Handler =
      std::function<std::optional<std::string>(const net::EventLoop::Line&)>;

  explicit LoopFixture(Handler handler,
                       net::EventLoopOptions options = net::EventLoopOptions{},
                       size_t loops = 1) {
    options.registry = &registry_;
    handler_ = std::move(handler);
    group_ = std::make_unique<net::EventLoopGroup>(
        loops, options,
        [this](net::EventLoop::Line&& line) { return handler_(line); });
    Status status = group_->Start(0);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  ~LoopFixture() { group_->Stop(); }

  // Answers `line` from any thread.
  void Send(const net::EventLoop::Line& line, std::string text) {
    group_->Send(line.loop, line.conn, line.seq, std::move(text));
  }

  net::EventLoopGroup& group() { return *group_; }
  int port() const { return group_->port(); }
  obs::Registry& registry() { return registry_; }

 private:
  obs::Registry registry_;
  Handler handler_;
  std::unique_ptr<net::EventLoopGroup> group_;
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
    fixture.Send(line, "echo:" + line.text);
    return std::nullopt;
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
    fixture.Send(line, "got:" + line.text);
    return std::nullopt;
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
    return std::nullopt;
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
  fixture.Send(pair[1], "r:" + pair[1].text);
  fixture.Send(pair[0], "r:" + pair[0].text);

  EXPECT_EQ(client.ReadLine(), "r:first");
  EXPECT_EQ(client.ReadLine(), "r:second");
}

TEST(EventLoopTest, OversizedLineIsMeasuredNotBuffered) {
  net::EventLoopOptions options;
  options.max_line_bytes = 16;
  LoopFixture fixture(
      [](const net::EventLoop::Line& line) -> std::optional<std::string> {
        if (line.oversized) {
          EXPECT_TRUE(line.text.empty());
          return "too-big:" + std::to_string(line.observed_bytes);
        }
        return "ok:" + line.text;
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
    fixture.Send(line, "ack:" + line.text);
    return std::nullopt;
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
        fixture.Send(line, "pong");
        return std::nullopt;
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
    return std::nullopt;
  });

  Client client(fixture.port());
  client.Send("pending\n");
  net::EventLoop::Line admitted;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !held.empty(); });
    admitted = held[0];
  }

  fixture.group().BeginDrain();  // no new reads or accepts...
  fixture.Send(admitted, "answered");
  EXPECT_EQ(client.ReadLine(), "answered");  // ...but owed answers flush
}

// A peer streaming blank lines keeps its socket full. The loop still
// answers another connection promptly: it reads each connection once per
// readiness event, and consumes a read's lines in linear time.
TEST(EventLoopTest, BlankLineFloodDoesNotStarveOtherConnections) {
  LoopFixture fixture([&fixture](const net::EventLoop::Line& line) {
    fixture.Send(line, "echo:" + line.text);
    return std::nullopt;
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
    fixture.Send(line, body + ":" + line.text.substr(0, line.text.find(' ')));
    return std::nullopt;
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
    fixture.Send(line, std::string(256, '#') + ":" + line.text);
    return std::nullopt;
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

// True when `fd` has bytes to read within `millis`.
bool Readable(int fd, int millis) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  return ::poll(&p, 1, millis) > 0;
}

// A line answered on the spot waits in the reorder buffer behind an
// earlier line that another thread answers later: pipelined miss, hit,
// miss on one connection come back in request order.
TEST(EventLoopTest, SpotAnswerWaitsBehindEarlierHandedOffLine) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<net::EventLoop::Line> held;
  LoopFixture fixture(
      [&](const net::EventLoop::Line& line) -> std::optional<std::string> {
        if (line.text.rfind("hit:", 0) == 0) return "spot:" + line.text;
        std::lock_guard<std::mutex> lock(mu);
        held.push_back(line);
        cv.notify_all();
        return std::nullopt;
      });

  Client client(fixture.port());
  client.Send("miss:a\nhit:b\nmiss:c\n");
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held.size() == 2; });
  }
  EXPECT_EQ(held[0].seq, 0u);
  EXPECT_EQ(held[1].seq, 2u);
  // The spot answer for seq 1 is ready, but seq 0 is not.
  EXPECT_FALSE(Readable(client.fd, 50)) << "released ahead of seq 0";
  fixture.Send(held[1], "worker:" + held[1].text);
  EXPECT_FALSE(Readable(client.fd, 50)) << "released ahead of seq 0";
  fixture.Send(held[0], "worker:" + held[0].text);

  EXPECT_EQ(client.ReadLine(), "worker:miss:a");
  EXPECT_EQ(client.ReadLine(), "spot:hit:b");
  EXPECT_EQ(client.ReadLine(), "worker:miss:c");
  EXPECT_EQ(fixture.registry().CounterValue("net.responses_out"), 3u);
}

// Spot answers held in the reorder buffer behind a handed-off line count
// toward the owed bytes that stop reads: a peer whose first line is slow
// cannot make the loop buffer every later answer. Once the slow line is
// answered, everything flows, in order.
TEST(EventLoopTest, SpotAnswersHeldBehindASlowLineStopReads) {
  constexpr size_t kLines = 200;
  const std::string body(64 * 1024, 's');
  std::atomic<size_t> seen{0};
  std::mutex mu;
  std::vector<net::EventLoop::Line> held;
  LoopFixture fixture(
      [&](const net::EventLoop::Line& line) -> std::optional<std::string> {
        seen.fetch_add(1);
        if (line.seq == 0) {
          std::lock_guard<std::mutex> lock(mu);
          held.push_back(line);
          return std::nullopt;
        }
        return body + ":" + line.text.substr(0, line.text.find(' '));
      });

  // 2 KiB request lines, so the 200 of them span several 64 KiB reads.
  Client client(fixture.port());
  std::string requests;
  for (size_t i = 0; i < kLines; ++i) {
    std::string line = "line-" + std::to_string(i) + " ";
    requests += line + std::string(2048 - line.size(), '.') + "\n";
  }
  client.Send(requests);

  size_t last = 0;
  for (int settled = 0; settled < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    size_t now = seen.load();
    settled = now == last && now > 0 ? settled + 1 : 0;
    last = now;
  }
  EXPECT_LT(seen.load(), kLines) << "the loop kept reading while the "
                                    "answers it owed piled up";
  EXPECT_FALSE(Readable(client.fd, 0));

  net::EventLoop::Line slow;
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(held.size(), 1u);
    slow = held[0];
  }
  fixture.Send(slow, "slow");
  EXPECT_EQ(client.ReadLine(), "slow");
  for (size_t i = 1; i < kLines; ++i) {
    ASSERT_EQ(client.ReadLine(), body + ":line-" + std::to_string(i));
  }
  EXPECT_EQ(seen.load(), kLines);
}

// Loop 0 hands accepted connections round-robin over every loop, itself
// included, so 8 connections to a 4-loop group land 2 on each.
TEST(EventLoopGroupTest, ConnectionsLandOnDifferentLoops) {
  constexpr size_t kLoops = 4;
  LoopFixture fixture(
      [](const net::EventLoop::Line& line) -> std::optional<std::string> {
        return std::to_string(line.loop);
      },
      net::EventLoopOptions{}, kLoops);

  std::vector<size_t> per_loop(kLoops, 0);
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < 2 * kLoops; ++i) {
    clients.push_back(std::make_unique<Client>(fixture.port()));
    clients.back()->Send("which\n");
    size_t loop = std::stoul(clients.back()->ReadLine());
    ASSERT_LT(loop, kLoops);
    ++per_loop[loop];
  }
  EXPECT_EQ(per_loop, std::vector<size_t>(kLoops, 2));
  // Each connection keeps its loop for every later line.
  for (const auto& client : clients) {
    client->Send("again\n");
    ASSERT_LT(std::stoul(client->ReadLine()), kLoops);
  }
}

// The connection cap counts the open connections of every loop, and the
// net.connections gauge reads that total as connections come and go.
TEST(EventLoopGroupTest, ConnectionCapHoldsAcrossLoops) {
  net::EventLoopOptions options;
  options.max_connections = 3;
  LoopFixture fixture(
      [](const net::EventLoop::Line& line) -> std::optional<std::string> {
        return "pong:" + std::to_string(line.loop);
      },
      options, 4);
  auto open = [&] {
    return fixture.registry().GaugeValue("net.connections");
  };
  auto wait_open = [&](double want) {
    for (int waited_ms = 0; open() != want && waited_ms < 5000; ++waited_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return open();
  };

  std::vector<std::unique_ptr<Client>> clients;
  std::set<std::string> loops;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(fixture.port()));
    clients.back()->Send("ping\n");
    std::string reply = clients.back()->ReadLine();
    ASSERT_EQ(reply.rfind("pong:", 0), 0u) << reply;  // admitted
    loops.insert(reply);
  }
  EXPECT_EQ(loops.size(), 3u);  // three loops, one connection each
  EXPECT_EQ(open(), 3.0);

  Client over(fixture.port());
  EXPECT_EQ(over.ReadLine(), "");  // the fourth loop is idle, the cap full
  EXPECT_EQ(fixture.registry().CounterValue("net.conn_rejected"), 1u);
  EXPECT_EQ(open(), 3.0);

  clients[1].reset();  // a close on one loop frees a slot for any loop
  EXPECT_EQ(wait_open(2.0), 2.0);
  Client again(fixture.port());
  again.Send("ping\n");
  EXPECT_EQ(again.ReadLine().rfind("pong:", 0), 0u);
  EXPECT_EQ(open(), 3.0);
  EXPECT_EQ(fixture.registry().CounterValue("net.accepted"), 4u);

  clients.clear();
  again.Send("ping\n");
  EXPECT_EQ(again.ReadLine().rfind("pong:", 0), 0u);
  EXPECT_EQ(wait_open(1.0), 1.0);
}

// BeginDrain and Stop reach every loop, and each loop still answers and
// flushes every line it admitted before it exits.
TEST(EventLoopGroupTest, DrainAndStopAnswerEveryLoopsAdmittedLines) {
  constexpr size_t kLoops = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<net::EventLoop::Line> held;
  LoopFixture fixture(
      [&](const net::EventLoop::Line& line) {
        std::lock_guard<std::mutex> lock(mu);
        held.push_back(line);
        cv.notify_all();
        return std::nullopt;
      },
      net::EventLoopOptions{}, kLoops);

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < kLoops; ++i) {
    clients.push_back(std::make_unique<Client>(fixture.port()));
    clients.back()->Send("line-" + std::to_string(i) + "\n");
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held.size() == i + 1; });
  }
  std::set<size_t> loops;
  for (const net::EventLoop::Line& line : held) loops.insert(line.loop);
  EXPECT_EQ(loops.size(), kLoops);

  fixture.group().BeginDrain();
  fixture.Send(held[0], "done:" + held[0].text);
  fixture.Send(held[1], "done:" + held[1].text);
  EXPECT_EQ(clients[0]->ReadLine(), "done:line-0");
  EXPECT_EQ(clients[1]->ReadLine(), "done:line-1");

  // Stop waits for the two lines still owed before the loops exit.
  std::thread stopper([&] { fixture.group().Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fixture.Send(held[2], "done:" + held[2].text);
  fixture.Send(held[3], "done:" + held[3].text);
  stopper.join();
  for (size_t i = 0; i < kLoops; ++i) {
    if (i >= 2) {
      EXPECT_EQ(clients[i]->ReadLine(), "done:line-" + std::to_string(i));
    }
    EXPECT_EQ(clients[i]->ReadLine(), "");  // then closed
  }
  EXPECT_EQ(fixture.registry().CounterValue("net.responses_dropped"), 0u);
  EXPECT_EQ(fixture.registry().GaugeValue("net.connections"), 0.0);
}

}  // namespace
}  // namespace exea
