#include "ppg/serve/faults.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "ppg/util/atomic_file.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

fault_action fault_action_from_name(const std::string& name) {
  if (name == "eio") return fault_action::fail_eio;
  if (name == "enospc") return fault_action::fail_enospc;
  if (name == "short") return fault_action::short_op;
  if (name == "torn") return fault_action::torn_rename;
  if (name == "abort") return fault_action::abort_now;
  throw invariant_error("fault plan: unknown action '" + name +
                        "' (accepted: eio, enospc, short, torn, abort)");
}

}  // namespace

std::shared_ptr<fault_plan> fault_plan::parse(const json& doc) {
  PPG_CHECK(doc.is_object(), "fault plan: document must be a JSON object");
  auto plan = std::make_shared<fault_plan>();
  std::uint64_t seed = 1;
  for (const auto& [key, value] : doc.members()) {
    if (key == "seed") {
      PPG_CHECK(value.is_exact_uint(),
                "fault plan: seed must be an unsigned integer");
      seed = value.as_uint64();
    } else if (key == "abort_at_interactions") {
      PPG_CHECK(value.is_exact_uint(),
                "fault plan: abort_at_interactions must be an unsigned "
                "integer");
      plan->abort_at_ = value.as_uint64();
    } else if (key == "rules") {
      PPG_CHECK(value.is_array(), "fault plan: rules must be an array");
      for (const json& entry : value.items()) {
        json_require_keys(entry, {"site", "nth", "action"},
                          "fault plan rule");
        fault_rule rule;
        rule.site = json_require_string(entry, "site", "fault plan rule");
        rule.nth = json_require_uint(entry, "nth", "fault plan rule");
        PPG_CHECK(rule.nth >= 1, "fault plan: nth is 1-based (>= 1)");
        rule.action = fault_action_from_name(
            json_require_string(entry, "action", "fault plan rule"));
        plan->rules_.push_back(std::move(rule));
      }
    } else {
      throw invariant_error("fault plan: unknown key '" + key +
                            "' (accepted: seed, abort_at_interactions, "
                            "rules)");
    }
  }
  plan->jitter_ = rng(seed);
  return plan;
}

fault_action fault_plan::next(const std::string& site) {
  fault_action armed = fault_action::none;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t count = ++counts_[site];
    for (const fault_rule& rule : rules_) {
      if (rule.site == site && rule.nth == count) {
        armed = rule.action;
        ++fired_;
        break;
      }
    }
  }
  if (armed == fault_action::abort_now) std::abort();
  return armed;
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
