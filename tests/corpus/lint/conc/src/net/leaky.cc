// fd-leak fixture: one function leaks a socket on an early return, its
// twin closes on every path.

// A stale waiver spelling that suppresses nothing — waiver-format flags
// it (the space after the colon is missing):
// exea-lint:allow(raw-rng)

namespace demo::net {

// Positive: the early return on a bad port drops the live socket.
int OpenAndBind(int port) {
  int fd = ::socket(2, 1, 0);
  if (fd < 0) return -1;
  if (port <= 0) {
    return -1;
  }
  return fd;
}

// Negative: every path closes or hands back the descriptor.
int OpenChecked(int port) {
  int fd = ::socket(2, 1, 0);
  if (fd < 0) return -1;
  if (port <= 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace demo::net
