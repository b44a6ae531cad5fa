// Tests for the ppg-serve durability layer (DESIGN.md §13): the atomic
// spill discipline under a failing file_ops at each step, boot-time
// recovery under original ids, quarantine of corrupt spills, degradation
// (not crashes) when a spill fails, and the bit-exactness of recovered
// trajectories — including a multibatch engine spilled mid-residual-round.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "failing_file_ops.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/util/atomic_file.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

const char* rumor_recipe() {
  return R"({"protocol": {"name": "rumor", "params": {}},
    "initial_counts": [280, 20], "sampling": "distinct"})";
}

const char* majority_recipe() {
  return R"({"protocol": {"name": "approximate-majority", "params": {}},
    "initial_counts": [600, 400, 0], "sampling": "distinct"})";
}

http_request make_request(const std::string& method, const std::string& target,
                          const std::string& body = "") {
  http_request request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

std::string create_body(const char* recipe_text, const char* engine,
                        std::uint64_t seed) {
  json body = json::object();
  body["recipe"] = json::parse(recipe_text);
  body["engine"] = engine;
  body["seed"] = seed;
  return body.dump_string(false);
}

json handle_json(serve_app& app, const http_request& request,
                 int expected_status) {
  const http_response response = app.handle(request);
  EXPECT_EQ(response.status, expected_status)
      << request.method << " " << request.target << " -> " << response.body;
  return json::parse(response.body);
}

/// A fresh store directory under /tmp, removed (recursively) on scope exit.
class temp_dir {
 public:
  temp_dir() {
    std::string name = "/tmp/ppg_durability_XXXXXX";
    char* made = ::mkdtemp(name.data());
    EXPECT_NE(made, nullptr);
    path_ = name;
  }
  ~temp_dir() { remove_tree(path_); }

  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] std::vector<std::string> entries(
      const std::string& subdir = "") const {
    std::vector<std::string> names;
    const std::string where =
        subdir.empty() ? path_ : path_ + "/" + subdir;
    DIR* dir = ::opendir(where.c_str());
    if (dir == nullptr) return names;
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }

 private:
  static void remove_tree(const std::string& where) {
    DIR* dir = ::opendir(where.c_str());
    if (dir != nullptr) {
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        const std::string child = where + "/" + name;
        if (::unlink(child.c_str()) != 0) remove_tree(child);
      }
      ::closedir(dir);
    }
    ::rmdir(where.c_str());
  }

  std::string path_;
};

std::string spill_path(const temp_dir& store, const std::string& id) {
  return store.path() + "/" + id + ".session.json";
}

std::string read_bytes(const std::string& path) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(read_file(path, &bytes, &error)) << path << ": " << error;
  return bytes;
}

// --- atomic file layer -----------------------------------------------------

TEST(AtomicFile, ReplacesAtomicallyAndLeavesNoTemp) {
  temp_dir dir;
  const std::string path = dir.path() + "/value.json";
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, "first", &error)) << error;
  EXPECT_EQ(read_bytes(path), "first");
  ASSERT_TRUE(atomic_write_file(path, "second", &error)) << error;
  EXPECT_EQ(read_bytes(path), "second");
  // No *.tmp residue after successful writes.
  for (const std::string& name : dir.entries()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

// One row per step of the write protocol that can fail. Until the rename
// commits, a failure leaves the previous generation in place; a failed
// directory fsync comes after the commit, so the new bytes stand but the
// write still reports that it could not certify durability. No row leaves
// a temp sibling behind.
TEST(AtomicFile, EachFailingStepLeavesOneCompleteGeneration) {
  using op = failing_file_ops::op;
  using failure = failing_file_ops::failure;
  struct row {
    const char* name;
    op at;
    std::uint64_t nth;
    failure how;
    bool written;
    const char* error_prefix;
    const char* final_bytes;
  };
  const row rows[] = {
      {"write EIO", op::write, 1, failure::error, false,
       "write: Input/output error", "generation-1"},
      {"short write, then the rest", op::write, 1, failure::short_write, true,
       "", "generation-2"},
      {"zero-byte write", op::write, 1, failure::zero_write, false,
       "write: no progress", "generation-1"},
      {"file fsync", op::fsync, 1, failure::error, false, "fsync: ",
       "generation-1"},
      {"rename", op::rename, 1, failure::error, false, "rename: ",
       "generation-1"},
      {"directory fsync", op::fsync, 2, failure::error, false, "fsync dir: ",
       "generation-2"},
  };
  for (const row& r : rows) {
    SCOPED_TRACE(r.name);
    temp_dir dir;
    const std::string path = dir.path() + "/value.json";
    std::string error;
    ASSERT_TRUE(atomic_write_file(path, "generation-1", &error)) << error;

    failing_file_ops ops(r.at, r.nth, r.how);
    error.clear();
    EXPECT_EQ(atomic_write_file(path, "generation-2", &error, ops), r.written);
    EXPECT_TRUE(ops.fired());
    EXPECT_EQ(error.rfind(r.error_prefix, 0), 0u) << error;
    EXPECT_EQ(error.empty(), r.written) << error;
    EXPECT_EQ(read_bytes(path), r.final_bytes);
    EXPECT_EQ(dir.entries(), std::vector<std::string>{"value.json"});
  }
}

// --- spill envelope --------------------------------------------------------

TEST(StoreEnvelope, RoundTripsAndRejectsMalformedDocuments) {
  store_file file;
  file.id = "s7";
  file.generation = 3;
  file.seed = 99;
  file.checkpoint = json::parse(R"({"schema_version": 1})");
  const json doc = store_envelope(file);
  const store_file parsed = parse_store_envelope(doc);
  EXPECT_EQ(parsed.id, "s7");
  EXPECT_EQ(parsed.generation, 3u);
  EXPECT_EQ(parsed.seed, 99u);

  json extra = doc;  // mutate a copy per violation
  extra["surprise"] = true;
  EXPECT_THROW((void)parse_store_envelope(extra), invariant_error);
  json zero_gen = doc;
  zero_gen["generation"] = std::uint64_t{0};
  EXPECT_THROW((void)parse_store_envelope(zero_gen), invariant_error);
  json bad_version = doc;
  bad_version["store_version"] = std::uint64_t{42};
  EXPECT_THROW((void)parse_store_envelope(bad_version), invariant_error);
}

// --- spill / recover round trip --------------------------------------------

TEST(ServeDurability, SessionsRecoverUnderOriginalIdsBitExactly) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  config.chunk = 1024;
  config.spill_every_chunks = 4;

  std::string census_checkpoint;
  std::string multibatch_checkpoint;
  {
    serve_app app(config);
    (void)handle_json(
        app,
        make_request("POST", "/sessions",
                     create_body(rumor_recipe(), "census", 11)),
        201);
    (void)handle_json(
        app,
        make_request("POST", "/sessions",
                     create_body(majority_recipe(), "multibatch", 22)),
        201);
    for (const char* id : {"s1", "s2"}) {
      (void)handle_json(app,
                        make_request("POST",
                                     std::string("/sessions/") + id +
                                         "/advance",
                                     R"({"interactions": 20000})"),
                        200);
    }
    census_checkpoint =
        app.handle(make_request("GET", "/sessions/s1/checkpoint")).body;
    multibatch_checkpoint =
        app.handle(make_request("GET", "/sessions/s2/checkpoint")).body;
  }

  // Reboot on the same directory: both sessions come back under their
  // original ids with byte-identical checkpoints (the idle-transition spill
  // captured the final state).
  serve_app rebooted(config);
  const json info = handle_json(rebooted, make_request("GET", "/sessions/s1"),
                                200);
  EXPECT_TRUE(info.find("recovered")->as_bool());
  EXPECT_TRUE(info.find("durable")->as_bool());
  EXPECT_EQ(info.find("seed")->as_uint64(), 11u);
  EXPECT_EQ(
      rebooted.handle(make_request("GET", "/sessions/s1/checkpoint")).body,
      census_checkpoint);
  EXPECT_EQ(
      rebooted.handle(make_request("GET", "/sessions/s2/checkpoint")).body,
      multibatch_checkpoint);

  // The recovered session continues exactly like a restore of the same
  // checkpoint: advance both identically and compare bytes again.
  const json clone = handle_json(
      rebooted,
      make_request("POST", "/sessions/restore", multibatch_checkpoint), 201);
  const std::string clone_id = clone.find("id")->as_string();
  EXPECT_NE(clone_id, "s1");  // adopted ids never collide with new ones
  EXPECT_NE(clone_id, "s2");
  for (const std::string& id : {std::string("s2"), clone_id}) {
    (void)handle_json(rebooted,
                      make_request("POST", "/sessions/" + id + "/advance",
                                   R"({"interactions": 7333})"),
                      200);
  }
  EXPECT_EQ(
      rebooted.handle(make_request("GET", "/sessions/s2/checkpoint")).body,
      rebooted.handle(make_request("GET", "/sessions/" + clone_id +
                                              "/checkpoint"))
          .body);
}

TEST(ServeDurability, MidResidualRoundMultibatchSpillRecoversBitExactly) {
  // Odd chunk and budgets leave the multibatch engine with a live residual
  // round at the spill points; recovery must resume from exactly that
  // mid-round state.
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  config.chunk = 777;
  config.spill_every_chunks = 1;  // spill after every chunk

  std::string final_checkpoint;
  {
    serve_app app(config);
    (void)handle_json(
        app,
        make_request("POST", "/sessions",
                     create_body(majority_recipe(), "multibatch", 5)),
        201);
    (void)handle_json(app,
                      make_request("POST", "/sessions/s1/advance",
                                   R"({"interactions": 2501})"),
                      200);
    final_checkpoint =
        app.handle(make_request("GET", "/sessions/s1/checkpoint")).body;
  }

  serve_app rebooted(config);
  EXPECT_EQ(
      rebooted.handle(make_request("GET", "/sessions/s1/checkpoint")).body,
      final_checkpoint);
  // Continue the recovered session and a fresh restore of the checkpoint in
  // lockstep: byte-identical forever after.
  const std::string clone_id =
      handle_json(rebooted,
                  make_request("POST", "/sessions/restore", final_checkpoint),
                  201)
          .find("id")
          ->as_string();
  for (const std::string& id : {std::string("s1"), clone_id}) {
    (void)handle_json(rebooted,
                      make_request("POST", "/sessions/" + id + "/advance",
                                   R"({"interactions": 997})"),
                      200);
  }
  EXPECT_EQ(
      rebooted.handle(make_request("GET", "/sessions/s1/checkpoint")).body,
      rebooted.handle(make_request("GET", "/sessions/" + clone_id +
                                              "/checkpoint"))
          .body);
}

TEST(ServeDurability, GenerationIsMonotonicAndDrainSpillsLatestState) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  config.chunk = 1000;
  config.spill_every_chunks = 0;  // only idle transitions and drain spill

  serve_app app(config);
  (void)handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), "census", 3)),
                    201);
  const json created = handle_json(app, make_request("GET", "/sessions/s1"),
                                   200);
  EXPECT_EQ(created.find("generation")->as_uint64(), 1u);  // spilled at birth

  std::uint64_t last_generation = 1;
  for (int round = 0; round < 3; ++round) {
    (void)handle_json(app,
                      make_request("POST", "/sessions/s1/advance",
                                   R"({"interactions": 1500})"),
                      200);
    const json info = handle_json(app, make_request("GET", "/sessions/s1"),
                                  200);
    const std::uint64_t generation = info.find("generation")->as_uint64();
    EXPECT_GT(generation, last_generation);
    last_generation = generation;
  }

  app.drain();
  const store_file spilled =
      parse_store_envelope(json::parse(read_bytes(spill_path(store, "s1"))));
  EXPECT_EQ(spilled.generation, last_generation);  // nothing new to spill
  EXPECT_EQ(json_require_uint(
                json_require(spilled.checkpoint, "engine", "checkpoint"),
                "interactions", "engine snapshot"),
            4500u);
}

TEST(ServeDurability, DestroyedSessionsDoNotResurrect) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  {
    serve_app app(config);
    (void)handle_json(app,
                      make_request("POST", "/sessions",
                                   create_body(rumor_recipe(), "census", 1)),
                      201);
    (void)handle_json(app,
                      make_request("POST", "/sessions",
                                   create_body(rumor_recipe(), "census", 2)),
                      201);
    (void)handle_json(app, make_request("DELETE", "/sessions/s1"), 200);
  }
  serve_app rebooted(config);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s1"), 404);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s2"), 200);
}

// --- quarantine ------------------------------------------------------------

TEST(ServeDurability, CorruptSpillsAreQuarantinedNotFatal) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  {
    serve_app app(config);
    (void)handle_json(app,
                      make_request("POST", "/sessions",
                                   create_body(rumor_recipe(), "census", 8)),
                      201);
    (void)handle_json(app,
                      make_request("POST", "/sessions",
                                   create_body(rumor_recipe(), "census", 9)),
                      201);
    (void)handle_json(app,
                      make_request("POST", "/sessions/s1/advance",
                                   R"({"interactions": 4000})"),
                      200);
  }

  // Corrupt s2's spill three different ways across boots would need three
  // dirs; here: truncate s2 (torn write), plant a non-JSON file, and plant
  // an envelope whose inner checkpoint is garbage.
  const std::string s2 = spill_path(store, "s2");
  const std::string torn = read_bytes(s2).substr(0, 40);
  std::string error;
  ASSERT_TRUE(atomic_write_file(s2, torn, &error)) << error;

  ASSERT_TRUE(atomic_write_file(spill_path(store, "gibberish"),
                                "not json at all", &error))
      << error;
  store_file bad_inner;
  bad_inner.id = "zombie";
  bad_inner.generation = 1;
  bad_inner.seed = 0;
  bad_inner.checkpoint = json::parse(R"({"schema_version": 99})");
  ASSERT_TRUE(atomic_write_file(
      spill_path(store, "zombie"),
      store_envelope(bad_inner).dump_string(true), &error))
      << error;
  // A leftover temp file from an interrupted write is silently deleted.
  ASSERT_TRUE(atomic_write_file(store.path() + "/s9.session.json.tmp",
                                "partial", &error))
      << error;

  serve_app rebooted(config);
  // The healthy session recovered; every corrupt file was quarantined.
  (void)handle_json(rebooted, make_request("GET", "/sessions/s1"), 200);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s2"), 404);
  (void)handle_json(rebooted, make_request("GET", "/sessions/zombie"), 404);

  const json stats = handle_json(rebooted, make_request("GET", "/stats"), 200);
  const json* durability = stats.find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_TRUE(durability->find("enabled")->as_bool());
  EXPECT_EQ(durability->find("recovered_sessions")->as_uint64(), 1u);
  const json* quarantined = durability->find("quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->size(), 3u) << quarantined->dump_string(false);

  // The evidence is preserved on disk, and the store dir still scans clean.
  const std::vector<std::string> held = store.entries("quarantine");
  EXPECT_EQ(held.size(), 3u);
  for (const std::string& name : store.entries()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

// The batched engine was folded into multibatch, and the multibatch
// snapshot later dropped its derived fields, so a store written before
// then may hold a session no engine loads. Boot quarantines each such
// spill with the reason, and recovers every other session.
TEST(ServeDurability, BatchedSpillIsQuarantinedAtBoot) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  {
    serve_app app(config);
    for (const std::uint64_t seed : {8u, 9u}) {
      (void)handle_json(
          app,
          make_request("POST", "/sessions",
                       create_body(rumor_recipe(), "census", seed)),
          201);
    }
    (void)handle_json(
        app,
        make_request("POST", "/sessions",
                     create_body(rumor_recipe(), "multibatch", 10)),
        201);
    for (const char* id : {"s2", "s3"}) {
      (void)handle_json(app,
                        make_request("POST",
                                     std::string("/sessions/") + id +
                                         "/advance",
                                     R"({"interactions": 4000})"),
                        200);
    }
  }

  // s2's spill as the batched engine wrote it: its census snapshot plus
  // the batched fields, under the batched name.
  const std::string s2 = spill_path(store, "s2");
  store_file batched = parse_store_envelope(json::parse(read_bytes(s2)));
  json snapshot = batched.checkpoint["engine"];
  snapshot["engine"] = "batched";
  snapshot["batches"] = std::uint64_t{2500};
  snapshot["active_weight"] = std::uint64_t{0};
  batched.checkpoint["engine"] = snapshot;
  std::string error;
  ASSERT_TRUE(atomic_write_file(
      s2, store_envelope(batched).dump_string(true), &error))
      << error;

  // s3's spill as the multibatch engine wrote it before its snapshot
  // dropped the fields derived from counts, untouched and pending_free.
  const std::string s3 = spill_path(store, "s3");
  store_file old = parse_store_envelope(json::parse(read_bytes(s3)));
  json& state = old.checkpoint["engine"];
  const auto counts = json_require_uint_array(state, "counts", "s3");
  const auto untouched = json_require_uint_array(state, "untouched", "s3");
  std::vector<std::uint64_t> touched(counts.size());
  std::uint64_t n = 0;
  std::uint64_t untouched_total = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    touched[s] = counts[s] - untouched[s];
    n += counts[s];
    untouched_total += untouched[s];
  }
  const bool collision_pending = untouched_total < n;
  state["touched"] = json_uint_array(touched);
  state["untouched_total"] = untouched_total;
  state["collision_pending"] = collision_pending;
  state["collisions"] = std::uint64_t{40};
  state["rounds"] = std::uint64_t{collision_pending ? 41u : 40u};
  ASSERT_TRUE(
      atomic_write_file(s3, store_envelope(old).dump_string(true), &error))
      << error;

  serve_app rebooted(config);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s1"), 200);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s2"), 404);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s3"), 404);
  const json stats = handle_json(rebooted, make_request("GET", "/stats"), 200);
  const json* durability = stats.find("durability");
  EXPECT_EQ(durability->find("recovered_sessions")->as_uint64(), 1u);
  const json* quarantined = durability->find("quarantined");
  ASSERT_EQ(quarantined->size(), 2u);
  // Each file is quarantined with the reason its schema no longer loads.
  std::map<std::string, std::string> reasons;
  for (const json& item : quarantined->items()) {
    const std::string entry = item.as_string();
    for (const char* id : {"s2", "s3"}) {
      if (entry.find(std::string(id) + ".session.json") != std::string::npos) {
        reasons[id] = entry;
      }
    }
  }
  ASSERT_EQ(reasons.size(), 2u);
  EXPECT_NE(reasons["s2"].find("folded into 'multibatch'"), std::string::npos)
      << reasons["s2"];
  EXPECT_NE(reasons["s3"].find("unknown key"), std::string::npos)
      << reasons["s3"];
  EXPECT_EQ(store.entries("quarantine").size(), 2u);
}

// --- degradation under disk failures ---------------------------------------

TEST(ServeDurability, SpillFailureDegradesSessionNotDaemon) {
  temp_dir store;
  serve_config config;
  config.chunk = 1000;
  config.spill_every_chunks = 1;
  // The creation spill (write #1) succeeds; the next spill hits ENOSPC.
  failing_file_ops disk(failing_file_ops::op::write, 2,
                        failing_file_ops::failure::error, ENOSPC);

  serve_app app(config, make_fs_store(store.path(), disk));
  (void)handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), "census", 4)),
                    201);
  // The advance triggers the failing spill — the request still succeeds.
  (void)handle_json(app,
                    make_request("POST", "/sessions/s1/advance",
                                 R"({"interactions": 1000})"),
                    200);
  const json info = handle_json(app, make_request("GET", "/sessions/s1"), 200);
  EXPECT_FALSE(info.find("durable")->as_bool());  // degraded
  EXPECT_EQ(info.find("generation")->as_uint64(), 1u);

  const json stats = handle_json(app, make_request("GET", "/stats"), 200);
  EXPECT_EQ(stats.find("durability")->find("degraded_sessions")->as_uint64(),
            1u);
  EXPECT_EQ(stats.find("durability")->find("spill_failures")->as_uint64(), 1u);
  EXPECT_TRUE(disk.fired());

  // The daemon (and the degraded session) keep serving.
  (void)handle_json(app,
                    make_request("POST", "/sessions/s1/advance",
                                 R"({"interactions": 1000})"),
                    200);
  // And the on-disk spill is still the intact generation-1 envelope.
  const store_file spilled =
      parse_store_envelope(json::parse(read_bytes(spill_path(store, "s1"))));
  EXPECT_EQ(spilled.generation, 1u);
}

TEST(ServeDurability, TornRenameIsQuarantinedOnNextBoot) {
  temp_dir store;
  serve_config config;
  config.store_dir = store.path();
  config.chunk = 1000;
  config.spill_every_chunks = 1;
  // The second rename (first advance's spill) tears the destination file.
  failing_file_ops disk(failing_file_ops::op::rename, 2,
                        failing_file_ops::failure::torn_rename);

  {
    serve_app app(config, make_fs_store(store.path(), disk));
    (void)handle_json(app,
                      make_request("POST", "/sessions",
                                   create_body(rumor_recipe(), "census", 6)),
                      201);
    (void)handle_json(app,
                      make_request("POST", "/sessions/s1/advance",
                                   R"({"interactions": 1000})"),
                      200);
  }

  ASSERT_TRUE(disk.fired());
  serve_app rebooted(config);
  (void)handle_json(rebooted, make_request("GET", "/sessions/s1"), 404);
  const json stats = handle_json(rebooted, make_request("GET", "/stats"), 200);
  const json* quarantined = stats.find("durability")->find("quarantined");
  ASSERT_EQ(quarantined->size(), 1u);
  EXPECT_NE(quarantined->items()[0].as_string().find("s1.session.json"),
            std::string::npos);
}

// --- injectable store ------------------------------------------------------

/// An in-memory store: proves serve_app is written against the interface,
/// and gives the bench scenario a disk-free durability fixture.
class memory_store final : public session_store {
 public:
  bool spill(const store_file& file, std::string* error) override {
    (void)error;
    for (auto& existing : files_) {
      if (existing.id == file.id) {
        existing = file;
        return true;
      }
    }
    files_.push_back(file);
    return true;
  }
  store_scan scan() override {
    store_scan result;
    result.sessions = files_;
    return result;
  }
  void remove(const std::string& id) override {
    files_.erase(std::remove_if(files_.begin(), files_.end(),
                                [&](const store_file& f) {
                                  return f.id == id;
                                }),
                 files_.end());
  }
  bool quarantine(const std::string& id, const std::string& reason) override {
    remove(id);
    quarantined_.push_back(id + ": " + reason);
    return true;
  }
  [[nodiscard]] json stats() const override {
    json body = json::object();
    body["spills"] = std::uint64_t{0};
    body["spill_failures"] = std::uint64_t{0};
    body["quarantined"] = json::array();
    return body;
  }

  std::vector<store_file> files_;
  std::vector<std::string> quarantined_;
};

TEST(ServeDurability, InjectedStoreSeesSpillsAndRemovals) {
  auto owned = std::make_unique<memory_store>();
  memory_store* store = owned.get();
  serve_config config;
  config.chunk = 1000;
  config.spill_every_chunks = 1;
  serve_app app(config, std::move(owned));

  (void)handle_json(app,
                    make_request("POST", "/sessions",
                                 create_body(rumor_recipe(), "census", 2)),
                    201);
  ASSERT_EQ(store->files_.size(), 1u);
  EXPECT_EQ(store->files_[0].generation, 1u);
  (void)handle_json(app,
                    make_request("POST", "/sessions/s1/advance",
                                 R"({"interactions": 2000})"),
                    200);
  EXPECT_GE(store->files_[0].generation, 2u);
  (void)handle_json(app, make_request("DELETE", "/sessions/s1"), 200);
  EXPECT_TRUE(store->files_.empty());
}

}  // namespace
}  // namespace ppg
