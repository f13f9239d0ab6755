#include "net/socket_io.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/string_util.h"

namespace exea::net {
namespace {

// Sends each small response (or request) as soon as it is written. The
// event loop already batches every ready response into one write per
// connection, so Nagle's algorithm only adds delay: with more than one
// request in flight it holds a small segment until the previous one is
// acknowledged, which a delayed-ACK peer does only when its next request
// goes out.
bool SetNoDelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

}  // namespace

StatusOr<int> ListenOn(int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot bind 127.0.0.1:%d", port));
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  return fd;
}

StatusOr<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::IoError("getsockname() failed");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

StatusOr<int> ConnectLocal(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot connect to 127.0.0.1:%d", port));
  }
  if (!SetNoDelay(fd)) {
    ::close(fd);
    return Status::IoError("setsockopt(TCP_NODELAY) failed");
  }
  return fd;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError("fcntl(O_NONBLOCK) failed");
  }
  return Status::Ok();
}

int AcceptNonBlocking(int listener) {
  while (true) {
    // Callers hand this a non-blocking listener, so accept4 returns
    // EAGAIN instead of parking the loop thread.
    // exea-lint: allow(loop-blocking)
    int client = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0 && errno == EINTR) continue;
    if (client >= 0 && !SetNoDelay(client)) {
      int saved = errno;
      ::close(client);
      errno = saved;
      return -1;
    }
    return client;
  }
}

Status WriteAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(
          StrFormat("send() failed: %s", ::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteAll(int fd, const std::string& data) {
  return WriteAll(fd, data.data(), data.size());
}

bool LineReader::Refill() {
  buf_.clear();
  pos_ = 0;
  char chunk[4096];
  while (true) {
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.assign(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return false;  // hard error: treat like EOF, the caller closes
  }
}

bool LineReader::ReadLine(size_t max_bytes, std::string* line,
                          bool* truncated, size_t* truncated_bytes) {
  line->clear();
  *truncated = false;
  *truncated_bytes = 0;
  bool discarding = false;
  while (true) {
    if (pos_ >= buf_.size() && !Refill()) {
      // EOF mid-line still delivers what was read, matching the stdin
      // loop's stream reader.
      if (discarding) return true;
      return !line->empty();
    }
    while (pos_ < buf_.size()) {
      char c = buf_[pos_++];
      if (c == '\n') return true;
      if (discarding) {
        ++*truncated_bytes;
        continue;
      }
      if (line->size() >= max_bytes) {
        // Over the cap: stop buffering, keep measuring to the newline.
        *truncated = true;
        *truncated_bytes = line->size() + 1;
        discarding = true;
        continue;
      }
      line->push_back(c);
    }
  }
}

}  // namespace exea::net
