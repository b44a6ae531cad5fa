// ppg-serve: the simulation-session daemon. Binds 127.0.0.1 (loopback
// only), prints the listening address, and serves until killed. See
// DESIGN.md §10/§13 and README "Running the service".
//
// Shutdown protocol: the first SIGTERM/SIGINT starts a graceful drain —
// stop accepting, let in-flight advances finish their slices, spill every
// durable session, exit. A second SIGTERM/SIGINT during the drain forces
// an immediate exit that still spills every session not mid-advance (a
// busy session's last periodic spill stands).
//
// Exit codes: 0 = clean shutdown (drain complete, or forced-but-spilled);
// 1 = startup failure (port in use, unreadable store);
// 2 = usage error (unknown flag, or a value that is not a count in range).
#include <pthread.h>

#include <csignal>
#include <ctime>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "ppg/serve/server.hpp"

namespace {

volatile std::sig_atomic_t termination_signals = 0;

void handle_signal(int) { ++termination_signals; }

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr
      << "ppg-serve: " << message << "\n"
      << "usage: ppg-serve [--port N] [--threads N] [--chunk N]\n"
      << "                 [--connection-threads N] [--max-body BYTES]\n"
      << "                 [--store DIR] [--spill-every CHUNKS]\n"
      << "                 [--read-timeout-ms N] [--write-timeout-ms N]\n"
      << "  --port 0 (default) picks an ephemeral port and prints it\n"
      << "  --store DIR enables the durable session store (DESIGN.md §13)\n"
      << "  --spill-every 0 spills only on idle transitions and drain\n"
      << "  --read/write-timeout-ms 0 disables that connection deadline\n"
      << "exit codes: 0 clean shutdown, 1 startup failure, 2 usage error\n";
  std::exit(2);
}

/// A decimal count that fits `T`. A sign, leading space or trailing text,
/// and a value past T's maximum (ERANGE included) are usage errors, so no
/// cast ever wraps a bad value into a valid-looking one.
template <typename T>
T parse_count(const std::string& flag, const char* text) {
  if (text == nullptr) usage_error(flag + " needs a value");
  // strtoull itself would skip spaces and negate a leading '-'.
  if (*text < '0' || *text > '9') {
    usage_error(flag + ": '" + text + "' is not a number");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0') usage_error(flag + ": '" + text + "' is not a number");
  const auto max = static_cast<unsigned long long>(
      std::numeric_limits<T>::max());
  if (errno == ERANGE || value > max) {
    usage_error(flag + ": " + text + " exceeds " + std::to_string(max));
  }
  return static_cast<T>(value);
}

/// {SIGTERM, SIGINT}: the signals that start (and then force) shutdown.
sigset_t termination_set() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  return set;
}

void install_signal_handlers() {
  // sigaction, not std::signal: handler semantics are specified (no
  // SA_RESETHAND surprises), and we pick SA_RESTART off so blocking calls
  // on the main thread actually observe the signal.
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // Block both before any thread exists, so every scheduler and connection
  // thread inherits the mask and the kernel can only deliver them to the
  // main thread's sigsuspend/sigtimedwait. A handler run on another thread
  // would never wake main, and the daemon would outlive its SIGTERM.
  const sigset_t blocked = termination_set();
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);
  // A peer that vanished mid-write must surface as EPIPE, never kill the
  // daemon (belt to http.cpp's MSG_NOSIGNAL braces).
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  sigaction(SIGPIPE, &ignore, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  ppg::serve_config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--port") {
      config.port = parse_count<std::uint16_t>(flag, value);
      ++i;
    } else if (flag == "--threads") {
      config.threads = parse_count<std::size_t>(flag, value);
      ++i;
    } else if (flag == "--chunk") {
      config.chunk = parse_count<std::uint64_t>(flag, value);
      if (config.chunk == 0) usage_error("--chunk must be positive");
      ++i;
    } else if (flag == "--connection-threads") {
      config.connection_threads = parse_count<std::size_t>(flag, value);
      ++i;
    } else if (flag == "--max-body") {
      config.max_body_bytes = parse_count<std::size_t>(flag, value);
      ++i;
    } else if (flag == "--store") {
      if (value == nullptr) usage_error("--store needs a directory");
      config.store_dir = value;
      ++i;
    } else if (flag == "--spill-every") {
      config.spill_every_chunks = parse_count<std::uint64_t>(flag, value);
      ++i;
    } else if (flag == "--read-timeout-ms") {
      config.read_timeout_ms = parse_count<int>(flag, value);
      ++i;
    } else if (flag == "--write-timeout-ms") {
      config.write_timeout_ms = parse_count<int>(flag, value);
      ++i;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }

  install_signal_handlers();

  std::unique_ptr<ppg::serve_app> app;
  try {
    app = std::make_unique<ppg::serve_app>(config);
  } catch (const std::exception& error) {
    std::cerr << "ppg-serve: " << error.what() << "\n";
    return 1;
  }
  if (app->store() != nullptr) {
    std::cout << "ppg-serve: durable store at " << config.store_dir
              << std::endl;
  }

  ppg::http_server server(*app, config);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "ppg-serve: " << error.what() << "\n";
    return 1;
  }

  // The exact line scripts/check_serve.py waits for before connecting.
  std::cout << "ppg-serve listening on 127.0.0.1:" << server.port()
            << std::endl;

  // Park until SIGINT/SIGTERM: sigsuspend atomically unblocks them, so a
  // signal that arrived before this point is pending and wakes it at once.
  // Connections run on their own threads.
  sigset_t unblocked;
  sigemptyset(&unblocked);
  while (termination_signals == 0) sigsuspend(&unblocked);

  // Graceful drain on a helper thread so the main thread stays responsive
  // to a second signal (impatient operators, supervisor kill escalation).
  std::cout << "ppg-serve: draining (signal again to force shutdown)\n";
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    server.stop();  // stop accepting; in-flight responses complete
    app->drain();   // blocking per-session lock + final spill
    drained.store(true);
  });
  while (!drained.load()) {
    if (termination_signals >= 2) {
      // Forced: spill whatever is not mid-advance and leave now. _Exit
      // skips destructors — the drainer may hold session locks.
      app->spill_all_unlocked_sessions();
      std::cout << "ppg-serve: forced shutdown (sessions spilled)\n";
      std::cout.flush();
      std::_Exit(0);
    }
    // The signals are blocked again once sigsuspend returns, so a second
    // one stays pending until this wait takes it.
    const sigset_t waited = termination_set();
    timespec timeout{};
    timeout.tv_nsec = 50'000'000;  // 50ms
    if (sigtimedwait(&waited, nullptr, &timeout) > 0) ++termination_signals;
  }
  drainer.join();
  std::cout << "ppg-serve: drained, shutting down\n";
  return 0;
}
