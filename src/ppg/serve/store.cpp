#include "ppg/serve/store.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>

#include "ppg/util/atomic_file.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

constexpr const char* spill_suffix = ".session.json";

/// mkdir -p: creates `path` and every missing parent. Throws on failure —
/// a store that cannot create its directory cannot make any durability
/// promise, and that is a boot-time configuration error.
void ensure_dir(const std::string& path) {
  PPG_CHECK(!path.empty(), "session store: directory must not be empty");
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw invariant_error("session store: mkdir " + prefix + ": " +
                            std::strerror(errno));
    }
  }
}

class fs_session_store final : public session_store {
 public:
  fs_session_store(std::string dir, file_ops& ops)
      : dir_(std::move(dir)), ops_(&ops) {
    ensure_dir(dir_);
    ensure_dir(dir_ + "/quarantine");
  }

  bool spill(const store_file& file, std::string* error) override {
    const std::string bytes = store_envelope(file).dump_string(true);
    const bool ok = atomic_write_file(path_for(file.id), bytes, error, *ops_);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ok) {
      ++spills_;
    } else {
      ++spill_failures_;
    }
    return ok;
  }

  store_scan scan() override {
    store_scan result;
    DIR* dir = ::opendir(dir_.c_str());
    if (dir == nullptr) return result;
    std::vector<std::string> names;
    while (dirent* entry = ::readdir(dir)) {
      names.emplace_back(entry->d_name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());

    for (const std::string& name : names) {
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        // Leftover of a write interrupted by a crash: by construction the
        // final file is either the previous generation or absent; the temp
        // is garbage either way.
        ::unlink((dir_ + "/" + name).c_str());
        continue;
      }
      const std::size_t suffix_len = std::strlen(spill_suffix);
      if (name.size() <= suffix_len ||
          name.compare(name.size() - suffix_len, suffix_len, spill_suffix) !=
              0) {
        continue;
      }
      const std::string id = name.substr(0, name.size() - suffix_len);
      std::string bytes;
      std::string error;
      if (!read_file(dir_ + "/" + name, &bytes, &error)) {
        move_to_quarantine(name, "unreadable: " + error, &result);
        continue;
      }
      try {
        store_file file = parse_store_envelope(json::parse(bytes));
        PPG_CHECK(file.id == id, "session store: envelope id '" + file.id +
                                     "' disagrees with file name '" + name +
                                     "'");
        result.sessions.push_back(std::move(file));
      } catch (const invariant_error& violation) {
        move_to_quarantine(name, violation.what(), &result);
      }
    }
    return result;
  }

  void remove(const std::string& id) override {
    ::unlink(path_for(id).c_str());
  }

  bool quarantine(const std::string& id, const std::string& reason) override {
    store_scan sink;
    return move_to_quarantine(id + spill_suffix, reason, &sink);
  }

  json stats() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    json body = json::object();
    body["dir"] = dir_;
    body["spills"] = spills_;
    body["spill_failures"] = spill_failures_;
    json quarantined = json::array();
    for (const std::string& entry : quarantined_) {
      quarantined.push_back(entry);
    }
    body["quarantined"] = std::move(quarantined);
    return body;
  }

 private:
  std::string path_for(const std::string& id) const {
    return dir_ + "/" + id + spill_suffix;
  }

  /// Moves `name` into quarantine/ (never deleting evidence: a numeric
  /// suffix avoids clobbering an earlier quarantined file of the same
  /// name) and records "name: reason" for /stats and the scan result.
  bool move_to_quarantine(const std::string& name, const std::string& reason,
                          store_scan* result) {
    const std::string from = dir_ + "/" + name;
    std::string to = dir_ + "/quarantine/" + name;
    for (int attempt = 1; ::access(to.c_str(), F_OK) == 0 && attempt < 100;
         ++attempt) {
      to = dir_ + "/quarantine/" + name + "." + std::to_string(attempt);
    }
    if (::rename(from.c_str(), to.c_str()) != 0) return false;
    const std::string entry = name + ": " + reason;
    result->quarantined.push_back(entry);
    const std::lock_guard<std::mutex> lock(mutex_);
    quarantined_.push_back(entry);
    return true;
  }

  std::string dir_;
  file_ops* ops_;
  mutable std::mutex mutex_;
  std::uint64_t spills_ = 0;
  std::uint64_t spill_failures_ = 0;
  std::vector<std::string> quarantined_;
};

}  // namespace

std::unique_ptr<session_store> make_fs_store(const std::string& dir,
                                             file_ops& ops) {
  return std::make_unique<fs_session_store>(dir, ops);
}

json store_envelope(const store_file& file) {
  json doc = json::object();
  doc["store_version"] = store_schema_version;
  doc["id"] = file.id;
  doc["generation"] = file.generation;
  doc["seed"] = file.seed;
  doc["checkpoint"] = file.checkpoint;
  return doc;
}

store_file parse_store_envelope(const json& doc) {
  json_require_keys(doc, {"store_version", "id", "generation", "seed",
                          "checkpoint"},
                    "session spill envelope");
  const std::uint64_t version =
      json_require_uint(doc, "store_version", "session spill envelope");
  PPG_CHECK(version == store_schema_version,
            "session spill envelope: unknown store_version " +
                std::to_string(version));
  store_file file;
  file.id = json_require_string(doc, "id", "session spill envelope");
  PPG_CHECK(!file.id.empty(), "session spill envelope: empty id");
  file.generation =
      json_require_uint(doc, "generation", "session spill envelope");
  PPG_CHECK(file.generation >= 1,
            "session spill envelope: generation must be >= 1");
  file.seed = json_require_uint(doc, "seed", "session spill envelope");
  file.checkpoint = json_require(doc, "checkpoint", "session spill envelope");
  return file;
}

}  // namespace ppg
