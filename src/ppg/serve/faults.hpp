// Deterministic fault injection for the ppg-serve durability and socket
// paths. A fault_plan is a seeded schedule of failures keyed by *site* (a
// stable string naming an I/O operation: "store.write", "store.fsync",
// "store.rename", "socket.read", "socket.write") and the 1-based count of
// operations at that site — "the 3rd store write fails with EIO" — so
// tests build one in-process and force every failure branch without racing
// wall clocks. The plan is threaded through the session store's file_ops
// and the HTTP connection loops; a null plan is the (default) no-fault
// fast path. Crashes are not injected: scripts/check_crash_recovery.py
// SIGKILLs a real daemon instead.
//
// Determinism contract: given the same plan and the same operation
// sequence, the same faults fire. The only randomness is the size of a
// "short" operation, drawn from the plan's seeded rng — still a pure
// function of (seed, firing order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ppg/util/atomic_file.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {

/// What an armed fault does to its operation.
enum class fault_action : std::uint8_t {
  none,        ///< no fault at this (site, count)
  fail_eio,    ///< the operation fails with EIO
  fail_enospc, ///< the operation fails with ENOSPC
  short_op,    ///< the operation transfers only part of its buffer
  torn_rename, ///< rename "succeeds" but leaves a torn destination file
};

/// One scheduled fault: the `nth` operation at `site` performs `action`.
struct fault_rule {
  std::string site;
  std::uint64_t nth = 1;
  fault_action action = fault_action::fail_eio;
};

/// The full plan. Thread-safe: sites are counted under a lock (I/O paths
/// that consult the plan are never per-interaction hot paths).
class fault_plan {
 public:
  /// `seed` seeds the rng that sizes short operations.
  explicit fault_plan(std::vector<fault_rule> rules, std::uint64_t seed = 1)
      : rules_(std::move(rules)), jitter_(seed) {}

  /// Counts one operation at `site` and returns the action scheduled for
  /// it (fault_action::none almost always).
  [[nodiscard]] fault_action next(const std::string& site);

  /// The truncated size for a short operation on `requested` bytes: at
  /// least 1, strictly less than `requested` when possible, drawn from the
  /// plan's seeded rng.
  [[nodiscard]] std::size_t short_size(std::size_t requested);

  /// Total faults fired so far. Test oracle: tests/test_failure_injection.cpp
  /// checks that a planned fault fired.
  [[nodiscard]] std::uint64_t fired() const;

 private:
  mutable std::mutex mutex_;
  std::vector<fault_rule> rules_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t fired_ = 0;
  rng jitter_;
};

/// file_ops that consults a fault_plan before forwarding to `base`: sites
/// "store.write", "store.fsync", "store.rename". A torn rename reads the
/// temp file, writes a truncated *final* file directly (bypassing the
/// atomic path, as a crashing disk without barriers would), unlinks the
/// temp, and reports success — the adversarial case the boot-time
/// quarantine scan must catch.
class faulty_file_ops final : public file_ops {
 public:
  faulty_file_ops(std::shared_ptr<fault_plan> plan, file_ops& base)
      : plan_(std::move(plan)), base_(&base) {}

  ssize_t write_fd(int fd, const void* data, std::size_t size) override;
  int fsync_fd(int fd) override;
  int rename_file(const std::string& from, const std::string& to) override;

 private:
  std::shared_ptr<fault_plan> plan_;
  file_ops* base_;
};

}  // namespace ppg
