// Crash-safe file replacement: the write-fsync-rename discipline used by
// every durable artifact in the tree (ppg-serve session spills). The final
// path is replaced atomically — a reader (or a process rebooting after a
// crash) sees either the previous complete content or the new complete
// content, never a prefix. A crash mid-write can leave a `*.tmp` sibling,
// which scanners must ignore and may delete.
//
// The syscall surface is injectable (`file_ops`) so tests can force
// EIO/ENOSPC, short writes, and torn renames through the exact production
// code path instead of mocking around it (tests/failing_file_ops.hpp).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>

namespace ppg {

/// The syscalls atomic_write_file performs, as overridable hooks. The
/// default implementation forwards to the real syscalls; a test double
/// (tests/failing_file_ops.hpp) overrides individual operations.
class file_ops {
 public:
  virtual ~file_ops() = default;

  /// write(2); may write fewer bytes than requested (callers loop).
  virtual ssize_t write_fd(int fd, const void* data, std::size_t size);
  /// fsync(2); 0 on success, -1 with errno set.
  virtual int fsync_fd(int fd);
  /// rename(2); 0 on success, -1 with errno set.
  virtual int rename_file(const std::string& from, const std::string& to);
};

/// The process-wide pass-through instance (stateless, thread-safe).
[[nodiscard]] file_ops& default_file_ops();

/// Atomically replaces `path` with `bytes`: writes `path` + ".tmp" in the
/// same directory, fsyncs the file, rename(2)s it over `path`, and fsyncs
/// the directory so the rename itself is durable. Returns true on success;
/// on failure returns false with *error describing the failing step and
/// errno — the final path is untouched (though a ".tmp" sibling may
/// remain). Never throws on I/O failure: durability degradation is a
/// caller policy decision, not an exception.
bool atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string* error, file_ops& ops = default_file_ops());

/// Reads a whole regular file into *out. False (with *error) when the file
/// cannot be opened or read; *out is unspecified on failure.
bool read_file(const std::string& path, std::string* out, std::string* error);

}  // namespace ppg
