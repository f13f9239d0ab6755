// Socket primitives shared by the event loop and the CLI clients:
// loopback listeners with a real backlog, an EINTR-safe non-blocking
// accept, short-write-safe sends, and a bounded buffered line reader.
//
// Everything here speaks raw fds. The rules every helper follows:
//
//   * EINTR is retried, never surfaced — a signal must not tear a
//     request stream mid-line.
//   * writes use MSG_NOSIGNAL, so a peer that disconnected mid-response
//     produces an EPIPE error return instead of killing the process
//     with SIGPIPE.
//   * short writes are completed in a loop; callers hand over a whole
//     NDJSON line and either all of it reaches the kernel or they get a
//     Status explaining why.

#ifndef EXEA_NET_SOCKET_IO_H_
#define EXEA_NET_SOCKET_IO_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace exea::net {

// Listen backlog for every serving listener. The historical value of 1
// refused concurrent connect bursts at the kernel level before accept()
// ever saw them; 128 matches the common SOMAXCONN floor.
inline constexpr int kListenBacklog = 128;

// Creates a TCP listener on 127.0.0.1:`port` (port 0 lets the kernel
// pick; read it back with BoundPort). SO_REUSEADDR is set. Returns the
// listening fd.
[[nodiscard]] StatusOr<int> ListenOn(int port, int backlog = kListenBacklog);

// The port a bound socket actually listens on (for port-0 listeners).
[[nodiscard]] StatusOr<int> BoundPort(int fd);

// Connects to 127.0.0.1:`port` (blocking) with TCP_NODELAY set. Returns
// the connected fd.
[[nodiscard]] StatusOr<int> ConnectLocal(int port);

// Puts `fd` into non-blocking mode.
[[nodiscard]] Status SetNonBlocking(int fd);

// accept4(SOCK_NONBLOCK) retrying EINTR: the client socket is born
// non-blocking, closing the window where a fd accepted on the event-loop
// thread could block before SetNonBlocking ran. TCP_NODELAY is set on it.
// Returns the client fd, or -1 with errno set for any other failure
// (including EAGAIN on a non-blocking listener). This is the only accept
// the loop thread may call.
int AcceptNonBlocking(int listener);

// Writes all `len` bytes, retrying EINTR and continuing through short
// writes; MSG_NOSIGNAL suppresses SIGPIPE on a vanished peer.
[[nodiscard]] Status WriteAll(int fd, const char* data, size_t len);
[[nodiscard]] Status WriteAll(int fd, const std::string& data);

// Buffered '\n'-delimited line reader over a blocking fd, with the same
// bounded-memory contract as the serving loop's stream reader: a line
// longer than `max_bytes` is drained to its newline without being
// buffered whole and reported via `truncated`/`truncated_bytes` (the
// measured length, newline excluded). Returns false on EOF with nothing
// buffered. EINTR is retried.
class LineReader {
 public:
  // Borrows `fd`; the caller keeps ownership and closes it.
  explicit LineReader(int fd) : fd_(fd) {}

  [[nodiscard]] bool ReadLine(size_t max_bytes, std::string* line,
                              bool* truncated, size_t* truncated_bytes);

 private:
  // Refills buf_ from the fd; false on EOF or error.
  [[nodiscard]] bool Refill();

  int fd_;
  std::string buf_;   // bytes read but not yet consumed
  size_t pos_ = 0;    // consumption cursor into buf_
};

}  // namespace exea::net

#endif  // EXEA_NET_SOCKET_IO_H_
