// The warm kernel cache: one compiled kernel_table per distinct protocol,
// shared (immutably) by every session that names it. Keyed by
// json_fingerprint of the protocol's canonical JSON subdocument — sessions
// that differ only in initial census, sampling, or seed hit the same entry,
// so the second session on a protocol skips kernel compilation entirely.
// Sharing is safe because a kernel_table is self-contained after
// construction (no protocol pointer retained) and never mutated by
// sampling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "ppg/pp/kernel.hpp"

namespace ppg {

class kernel_cache {
 public:
  struct lookup {
    std::shared_ptr<const kernel_table> kernel;
    bool hit = false;  ///< true when the kernel was already cached
  };

  /// Returns the cached kernel for `key`, compiling one from `proto` on the
  /// first request. Compilation happens under the cache lock: two sessions
  /// racing on a cold key compile once, and the loser reports a hit.
  /// Every session, of every engine kind, gets its kernel here.
  [[nodiscard]] lookup get_or_compile(std::uint64_t key,
                                      const protocol& proto);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const kernel_table>> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ppg
