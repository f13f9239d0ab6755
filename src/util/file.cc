#include "util/file.h"

#include <cstdio>

namespace exea {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string bytes;
  char chunk[1 << 16];
  while (size_t n = std::fread(chunk, 1, sizeof(chunk), in)) {
    bytes.append(chunk, n);
  }
  bool ok = std::ferror(in) == 0;
  std::fclose(in);
  if (!ok) return Status::IoError("read failed: " + path);
  return bytes;
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  ok = std::fclose(out) == 0 && ok;
  if (!ok) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace exea
