#include "core/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

namespace daisy {

namespace {

// "checksum " + 16 hex digits + '\n'.
constexpr size_t kTrailerLen = 9 + 16 + 1;

std::string Trailer(const char* data, size_t size) {
  char trailer[kTrailerLen + 1];
  std::snprintf(trailer, sizeof(trailer), "checksum %016llx\n",
                static_cast<unsigned long long>(Fnv1a64(data, size)));
  return trailer;
}

// A rename updates the parent directory's entries, so it is durable
// only once the directory itself is synced.
Status SyncParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  if (!synced) return Status::IOError("failed syncing directory '" + dir + "'");
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint32_t Crc32(const void* data, size_t len) {
  // Slicing-by-8: t[0] is the byte-at-a-time table; t[s][b] advances
  // t[0][b] through s more zero bytes, so one step folds in 8 bytes.
  static const auto* t = [] {
    static uint32_t tables[8][256];
    for (uint32_t n = 0; n < 256; ++n) {
      uint32_t crc = n;
      for (int k = 0; k < 8; ++k)
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
      tables[0][n] = crc;
    }
    for (uint32_t n = 0; n < 256; ++n)
      for (int s = 1; s < 8; ++s)
        tables[s][n] = (tables[s - 1][n] >> 8) ^
                       tables[0][tables[s - 1][n] & 0xFFu];
    return tables;
  }();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const auto le32 = [](const unsigned char* b) {
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 |
           uint32_t{b[3]} << 24;
  };
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = le32(p) ^ crc;
    const uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void AppendChecksumTrailer(std::string* bytes) {
  *bytes += Trailer(bytes->data(), bytes->size());
}

Result<size_t> VerifyChecksumTrailer(const std::string& bytes,
                                     const std::string& what) {
  if (bytes.size() < kTrailerLen)
    return Status::InvalidArgument(what + " too short for a checksum");
  // Comparing against the formatted trailer also rejects any byte of the
  // trailer itself that a flip or a cut damaged.
  const size_t payload_len = bytes.size() - kTrailerLen;
  if (bytes.compare(payload_len, kTrailerLen,
                    Trailer(bytes.data(), payload_len)) != 0)
    return Status::InvalidArgument(what + " checksum mismatch (corrupt or "
                                          "truncated)");
  return payload_len;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open '" + path + "'");
  std::string bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return Status::IOError("failed reading '" + path + "'");
  return bytes;
}

AtomicFile::~AtomicFile() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  std::remove(tmp_path_.c_str());
}

Status AtomicFile::Open(const std::string& path) {
  path_ = path;
  tmp_path_ = path + ".tmp";
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr)
    return Status::IOError("cannot create temp file '" + tmp_path_ + "'");
  return Status::OK();
}

Status AtomicFile::Write(const void* data, size_t size) {
  if (std::fwrite(data, 1, size, file_) != size)
    return Status::IOError("failed writing temp file '" + tmp_path_ + "'");
  return Status::OK();
}

Status AtomicFile::Seek(uint64_t offset) {
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)
    return Status::IOError("failed seeking in temp file '" + tmp_path_ + "'");
  return Status::OK();
}

Status AtomicFile::Commit() {
  // fsync before rename: otherwise the rename can reach the disk before
  // the data does, and a power cut leaves a valid-looking torn file.
  const bool synced = std::fflush(file_) == 0 && fsync(fileno(file_)) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!synced || !closed ||
      std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::IOError("failed writing '" + path_ + "' via '" +
                           tmp_path_ + "'");
  }
  return SyncParentDir(path_);
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  AtomicFile file;
  DAISY_RETURN_IF_ERROR(file.Open(path));
  DAISY_RETURN_IF_ERROR(file.Write(bytes.data(), bytes.size()));
  return file.Commit();
}

}  // namespace daisy
