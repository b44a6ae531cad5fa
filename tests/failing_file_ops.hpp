// A file_ops that fails one chosen operation of the shipped
// atomic_write_file path and forwards every other one to the real
// syscalls. It fails the n-th write, fsync or rename with an errno, makes
// the n-th write short or zero-byte, or tears the n-th rename. Operations
// are counted per kind across the instance's lifetime, so a store wired
// with it fails the n-th call over all its spills (an atomic write makes
// two fsyncs: the file, then its directory).
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>

#include "ppg/util/atomic_file.hpp"

namespace ppg {

class failing_file_ops final : public file_ops {
 public:
  enum class op { write, fsync, rename };
  enum class failure {
    error,        ///< fails with `error_number`
    short_write,  ///< writes half the buffer; the caller loops for the rest
    zero_write,   ///< writes nothing and reports 0
    torn_rename,  ///< renames half the bytes and reports success
  };

  failing_file_ops(op at, std::uint64_t nth, failure how,
                   int error_number = EIO)
      : at_(at), nth_(nth), how_(how), error_number_(error_number) {}

  /// Whether the chosen operation has happened (and failed) yet.
  [[nodiscard]] bool fired() const { return count_.load() >= nth_; }

  ssize_t write_fd(int fd, const void* data, std::size_t size) override {
    if (!fires(op::write)) return file_ops::write_fd(fd, data, size);
    if (how_ == failure::short_write) {
      return file_ops::write_fd(fd, data, (size + 1) / 2);
    }
    if (how_ == failure::zero_write) return 0;
    errno = error_number_;
    return -1;
  }

  int fsync_fd(int fd) override {
    if (!fires(op::fsync)) return file_ops::fsync_fd(fd);
    errno = error_number_;
    return -1;
  }

  int rename_file(const std::string& from, const std::string& to) override {
    if (!fires(op::rename)) return file_ops::rename_file(from, to);
    if (how_ == failure::torn_rename) {
      // A crash that committed the rename but not the data: the final
      // path holds a prefix of the new bytes, and the caller is told the
      // write landed.
      struct stat info {};
      if (::stat(from.c_str(), &info) != 0 ||
          ::truncate(from.c_str(), info.st_size / 2) != 0) {
        return -1;
      }
      return file_ops::rename_file(from, to);
    }
    errno = error_number_;
    return -1;
  }

 private:
  bool fires(op kind) { return kind == at_ && ++count_ == nth_; }

  op at_;
  std::uint64_t nth_;
  failure how_;
  int error_number_;
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace ppg
