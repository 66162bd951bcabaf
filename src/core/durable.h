// Durable files: the one place the library hashes, checksums, reads
// and atomically replaces what it keeps on disk (DESIGN.md "Durable
// files"). Checkpoints, relational bundles and saved models end in the
// checksum trailer — one line `checksum <16 hex digits>\n` holding the
// FNV-1a 64 of every byte before it, so any flipped byte or truncation
// fails before the payload is parsed. `.dcol` tables keep their own
// binary framing over the same two hashes. All of them are written
// through AtomicFile.
#ifndef DAISY_CORE_DURABLE_H_
#define DAISY_CORE_DURABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/status.h"

namespace daisy {

uint64_t Fnv1a64(const char* data, size_t size);

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(const void* data, size_t len);

/// Appends the checksum trailer for the bytes already in `*bytes`.
void AppendChecksumTrailer(std::string* bytes);

/// Verifies the trailer and returns the payload length. A mismatch or a
/// truncation is an InvalidArgument whose message starts with `what`.
Result<size_t> VerifyChecksumTrailer(const std::string& bytes,
                                     const std::string& what);

/// Whole-file read: NotFound when the file cannot be opened, IOError
/// when a read fails.
Result<std::string> ReadFile(const std::string& path);

/// A file replaced atomically: bytes go to `<path>.tmp`, and Commit
/// fflushes, fsyncs and renames it over `path`, then fsyncs the parent
/// directory so the rename itself survives a power cut. A crash leaves
/// the old file or the complete new one. An AtomicFile dropped without
/// a successful Commit removes its temp file and leaves `path` as it
/// was; so does a failed Commit.
class AtomicFile {
 public:
  AtomicFile() = default;
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Creates `<path>.tmp`. Call once, before any Write.
  Status Open(const std::string& path);
  Status Write(const void* data, size_t size);
  /// Moves the write position to `offset` from the start, for formats
  /// that rewrite a header once the body is known.
  Status Seek(uint64_t offset);
  Status Commit();

  /// True between a successful Open and Commit.
  bool is_open() const { return file_ != nullptr; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
};

Status WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace daisy

#endif  // DAISY_CORE_DURABLE_H_
