// Failure-injection tests: the engine must reject corrupt inputs loudly
// rather than silently mis-simulate. Each test wires a deliberately broken
// component through the public API and asserts a diagnosable failure.
// ppg-serve's I/O failures are tested where that code is: disk faults
// through a failing file_ops in test_serve_durability.cpp, socket faults
// from a misbehaving peer in test_serve.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/ehrenfest/exact_chain.hpp"
#include "ppg/markov/chain.hpp"
#include "ppg/markov/stationary.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/chi_square.hpp"
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

}  // namespace
}  // namespace ppg
