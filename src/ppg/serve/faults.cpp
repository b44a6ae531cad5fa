#include "ppg/serve/faults.hpp"

#include <unistd.h>

#include <cerrno>

#include "ppg/util/atomic_file.hpp"

namespace ppg {

fault_action fault_plan::next(const std::string& site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t count = ++counts_[site];
  for (const fault_rule& rule : rules_) {
    if (rule.site == site && rule.nth == count) {
      ++fired_;
      return rule.action;
    }
  }
  return fault_action::none;
}

std::size_t fault_plan::short_size(std::size_t requested) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (requested <= 1) return 1;
  return static_cast<std::size_t>(
      1 + jitter_.next_below(static_cast<std::uint64_t>(requested - 1)));
}

std::uint64_t fault_plan::fired() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

ssize_t faulty_file_ops::write_fd(int fd, const void* data,
                                  std::size_t size) {
  switch (plan_->next("store.write")) {
    case fault_action::fail_eio:
      errno = EIO;
      return -1;
    case fault_action::fail_enospc:
      errno = ENOSPC;
      return -1;
    case fault_action::short_op:
      // A short write is not itself a failure (the caller loops); it
      // exercises the partial-progress path and shifts later op counts.
      return base_->write_fd(fd, data, plan_->short_size(size));
    default:
      return base_->write_fd(fd, data, size);
  }
}

int faulty_file_ops::fsync_fd(int fd) {
  switch (plan_->next("store.fsync")) {
    case fault_action::fail_eio:
      errno = EIO;
      return -1;
    case fault_action::fail_enospc:
      errno = ENOSPC;
      return -1;
    default:
      return base_->fsync_fd(fd);
  }
}

int faulty_file_ops::rename_file(const std::string& from,
                                 const std::string& to) {
  switch (plan_->next("store.rename")) {
    case fault_action::fail_eio:
      errno = EIO;
      return -1;
    case fault_action::fail_enospc:
      errno = ENOSPC;
      return -1;
    case fault_action::torn_rename: {
      // Simulate a crash that committed the rename but not the data: the
      // destination exists with a prefix of the content, the temp is gone.
      std::string bytes;
      std::string error;
      if (!read_file(from, &bytes, &error)) return -1;
      const std::string torn = bytes.substr(0, bytes.size() / 2);
      std::string ignored;
      (void)atomic_write_file(to, torn, &ignored, default_file_ops());
      ::unlink(from.c_str());
      return 0;  // the caller believes the spill landed
    }
    default:
      return base_->rename_file(from, to);
  }
}

}  // namespace ppg
