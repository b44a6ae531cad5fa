// The durable session store of ppg-serve (DESIGN.md §13): one spill file
// per session, replaced atomically (util/atomic_file) on every spill, with
// a monotonic generation number. On boot serve_app scans the store and
// restores every valid spill under its original session id; files that
// fail the envelope parse — truncated, torn, hand-edited — are moved into
// a quarantine/ subdirectory and reported in /stats, never fatal. The
// interface is injectable so tests can substitute an in-memory store, and
// the filesystem store takes the file_ops its writes go through, so tests
// can fail any write, fsync or rename of the shipped spill path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/util/atomic_file.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// Version of the spill-envelope schema ({"store_version", "id",
/// "generation", "seed", "checkpoint"}). The inner "checkpoint" document
/// is the unmodified §9 checkpoint (save_checkpoint bytes) and carries its
/// own schema_version.
inline constexpr std::uint64_t store_schema_version = 1;

/// One session's spill: everything needed to resurrect it under its
/// original id.
struct store_file {
  std::string id;
  std::uint64_t generation = 0;  ///< monotonic per session, 1 = first spill
  std::uint64_t seed = 0;        ///< the session's creation seed (info only)
  json checkpoint;               ///< the §9 checkpoint document
};

/// Result of a boot-time scan: the parseable spills (by id, ascending) and
/// the files that were quarantined, each as "name: reason".
struct store_scan {
  std::vector<store_file> sessions;
  std::vector<std::string> quarantined;
};

/// Where spills live. Implementations must be safe to call from multiple
/// threads (sessions spill concurrently under their own locks).
class session_store {
 public:
  virtual ~session_store() = default;

  /// Durably replaces the spill for `file.id`. Returns false (with *error)
  /// on any I/O failure; the previous spill, if any, is still intact.
  virtual bool spill(const store_file& file, std::string* error) = 0;

  /// Scans the store, quarantining envelopes that fail the strict parse.
  /// The inner checkpoint document is returned *unvalidated* — the caller
  /// runs it through restore_checkpoint and calls quarantine() on
  /// rejection, so checkpoint-level corruption uses the same strict parser
  /// as the wire protocol.
  virtual store_scan scan() = 0;

  /// Forgets the spill for `id` (a destroyed session must not resurrect).
  virtual void remove(const std::string& id) = 0;

  /// Moves `id`'s spill into quarantine (used when the envelope parsed but
  /// the checkpoint inside failed validation). False when nothing to move.
  virtual bool quarantine(const std::string& id, const std::string& reason) = 0;

  /// {"dir"?, "spills", "spill_failures", "quarantined": [...]} — merged
  /// into GET /stats by serve_app.
  [[nodiscard]] virtual json stats() const = 0;
};

/// The filesystem store: `dir`/<id>.session.json envelopes, quarantine/
/// subdirectory for corrupt files, `*.tmp` leftovers from interrupted
/// writes deleted on scan. Creates `dir` (and parents) if missing; throws
/// ppg::invariant_error when it cannot. Every spill goes through
/// atomic_write_file with `ops`, which must outlive the store.
[[nodiscard]] std::unique_ptr<session_store> make_fs_store(
    const std::string& dir, file_ops& ops = default_file_ops());

/// Builds the spill envelope document for a session (exposed for tests and
/// the crash-recovery tooling, which parse spill files directly).
[[nodiscard]] json store_envelope(const store_file& file);

/// Strict parse of store_envelope()'s form; throws ppg::invariant_error.
[[nodiscard]] store_file parse_store_envelope(const json& doc);

}  // namespace ppg
