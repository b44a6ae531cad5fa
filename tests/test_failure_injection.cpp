// Failure-injection tests: the engine must reject corrupt inputs loudly
// rather than silently mis-simulate. Each test wires a deliberately broken
// component through the public API and asserts a diagnosable failure.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/ehrenfest/exact_chain.hpp"
#include "ppg/markov/chain.hpp"
#include "ppg/markov/stationary.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/util/atomic_file.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

// A protocol whose kernel emits a state outside its declared state space.
class rogue_protocol final : public protocol {
 public:
  [[nodiscard]] std::size_t num_states() const override { return 2; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state, agent_state) const override {
    return {{7, 7, 1.0}};  // out of range
  }
};

// The kernel compile rejects the rogue outcome before any engine runs a
// step: direct agent-engine construction and every make_engine kind.
TEST(FailureInjection, RogueKernelStateIsCaughtAtCompilation) {
  const rogue_protocol proto;
  const std::string expected = "kernel outcome state out of range";
  try {
    (void)simulation(proto, population({0, 1}, 2), rng(1));
    ADD_FAILURE() << "simulation accepted a rogue kernel";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
  const sim_spec spec(proto, std::vector<std::uint64_t>{1, 1});
  for (const auto kind :
       {engine_kind::agent, engine_kind::census, engine_kind::multibatch}) {
    rng gen(2);
    try {
      (void)spec.make_engine(kind, gen);
      ADD_FAILURE() << engine_kind_name(kind) << " accepted a rogue kernel";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

// A protocol that under-declares its state space relative to the
// population's encoding.
TEST(FailureInjection, PopulationSmallerThanProtocolIsRejected) {
  const igt_protocol proto(8);  // needs 10 states
  EXPECT_THROW(simulation(proto, population({0, 1}, 3), rng(2)),
               invariant_error);
}

// kernel_table::sample does not range-check its states, so the agent
// engine must refuse an agent in a state the kernel does not cover, even
// when the population's wider state space admits it.
TEST(FailureInjection, AgentOutsideTheKernelIsRejectedAtConstruction) {
  const igt_protocol proto(2);  // q = 4
  EXPECT_THROW(simulation(proto, population({0, 4}, 5), rng(2)),
               invariant_error);
  rng gen(3);
  const sim_spec spec(proto, std::vector<std::uint64_t>{3, 0, 0, 0, 1});
  EXPECT_THROW((void)spec.make_engine(engine_kind::agent, gen),
               invariant_error);
  // In-kernel states of the same wide space are fine.
  EXPECT_NO_THROW(simulation(proto, population({0, 3}, 5), rng(4)));
}

TEST(FailureInjection, NonStochasticChainDetected) {
  finite_chain chain(2);
  chain.add_transition(0, 1, 0.7);  // row 0 sums to 0.7
  chain.add_transition(1, 0, 0.5);
  chain.add_transition(1, 1, 0.5);
  EXPECT_FALSE(chain.is_stochastic());
}

TEST(FailureInjection, NegativeTransitionRejected) {
  finite_chain chain(2);
  EXPECT_THROW(chain.add_transition(0, 1, -0.1), invariant_error);
}

TEST(FailureInjection, StationarySolveOnReducibleChainFails) {
  // Two absorbing components: stationary distribution is not unique; the
  // direct solve must either throw (singular system) — any silent answer
  // would be wrong.
  finite_chain chain(4);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 1.0);
  chain.add_transition(2, 3, 1.0);
  chain.add_transition(3, 2, 1.0);
  EXPECT_FALSE(chain.is_irreducible());
  EXPECT_THROW((void)solve_stationary(chain), invariant_error);
}

TEST(FailureInjection, SimplexMismatchRejectedByExactChain) {
  const ehrenfest_params params{3, 0.3, 0.2, 6};
  const simplex_index wrong_k(4, 6);
  const simplex_index wrong_m(3, 7);
  EXPECT_THROW((void)build_ehrenfest_chain(params, wrong_k),
               invariant_error);
  EXPECT_THROW((void)build_ehrenfest_chain(params, wrong_m),
               invariant_error);
}

TEST(FailureInjection, ChiSquareRejectsEmptyAndMismatchedInput) {
  EXPECT_THROW((void)chi_square_gof({1, 2}, {0.5, 0.3, 0.2}),
               invariant_error);
  EXPECT_THROW((void)chi_square_gof({0, 0}, {0.5, 0.5}), invariant_error);
  EXPECT_THROW((void)chi_square_gof({5}, {1.0}), invariant_error);
}

TEST(FailureInjection, CorruptCensusLevelsRejected) {
  const abg_population pop{1, 1, 2};
  // Level 9 does not exist for k = 4.
  EXPECT_THROW((void)make_igt_census(pop, 4, 9), invariant_error);
}

// --- deterministic fault plans (ppg-serve durability layer) ----------------

TEST(FailureInjection, ShortSizesAreBoundedAndSeedDeterministic) {
  fault_plan first({}, 77);
  fault_plan second({}, 77);
  for (int i = 0; i < 100; ++i) {
    const std::size_t a = first.short_size(4096);
    EXPECT_GE(a, 1u);
    EXPECT_LT(a, 4096u);
    EXPECT_EQ(a, second.short_size(4096));  // pure function of (seed, order)
  }
  EXPECT_EQ(first.short_size(1), 1u);  // cannot shorten below one byte
}

TEST(FailureInjection, FsyncFaultFailsTheAtomicWriteAndKeepsTheOldFile) {
  std::string dir = "/tmp/ppg_fault_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/spill.json";
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, "generation-1", &error)) << error;

  auto plan = std::make_shared<fault_plan>(
      std::vector<fault_rule>{{"store.fsync", 1, fault_action::fail_eio}});
  faulty_file_ops ops(plan, default_file_ops());
  EXPECT_FALSE(atomic_write_file(path, "generation-2", &error, ops));
  std::string bytes;
  ASSERT_TRUE(read_file(path, &bytes, &error)) << error;
  EXPECT_EQ(bytes, "generation-1");
  EXPECT_EQ(plan->fired(), 1u);

  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

/// Bare blocking socket talking to a live http_server.
class raw_client {
 public:
  explicit raw_client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                        sizeof(address)),
              0);
  }
  ~raw_client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  /// Everything the server sends until it closes the connection.
  std::string read_to_eof() const {
    std::string all;
    char chunk[4096];
    for (;;) {
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
};

TEST(FailureInjection, InjectedSocketFaultsDropConnectionsNotTheServer) {
  serve_config config;
  config.connection_threads = 1;  // serialize so fault ordering is exact
  // First response write dies with EIO; reads 2..4 are short (fragmenting
  // request parsing); everything later is clean.
  const std::vector<fault_rule> rules = {
      {"socket.write", 1, fault_action::fail_eio},
      {"socket.read", 2, fault_action::short_op},
      {"socket.read", 3, fault_action::short_op},
      {"socket.read", 4, fault_action::short_op},
  };
  config.faults = std::make_shared<fault_plan>(rules, 13);
  serve_app app(config);
  http_server server(app, config);
  server.start();

  {
    // The injected write failure closes the connection before any bytes.
    raw_client doomed(server.port());
    doomed.send_all("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(doomed.read_to_eof(), "");
  }
  {
    // Short reads only fragment the stream; the request still assembles and
    // the server answers normally — no crash, no corruption.
    raw_client fragmented(server.port());
    fragmented.send_all("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = fragmented.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  }
  server.stop();
}

}  // namespace
}  // namespace ppg
