#include "ppg/serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace ppg {
namespace {

constexpr int connect_timeout_ms = 2'000;
constexpr int request_timeout_ms = 10'000;  ///< whole request+response
constexpr std::size_t max_retries = 5;      ///< extra attempts after the first
constexpr int backoff_initial_ms = 50;
constexpr int backoff_cap_ms = 2'000;
constexpr std::size_t max_response_bytes = 64u * 1024 * 1024;

std::int64_t monotonic_ms() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1000 +
         now.tv_nsec / 1'000'000;
}

/// Milliseconds left before `deadline_ms` on the monotonic clock.
int remaining_ms(std::int64_t deadline_ms) {
  const std::int64_t left = deadline_ms - monotonic_ms();
  if (left <= 0) return 0;
  if (left > 3'600'000) return 3'600'000;
  return static_cast<int>(left);
}

void sleep_ms(int ms) {
  if (ms <= 0) return;
  timespec nap{};
  nap.tv_sec = ms / 1000;
  nap.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000;
  nanosleep(&nap, nullptr);
}

std::string ascii_lower(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return text;
}

std::string trim(std::string text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         (text[begin] == ' ' || text[begin] == '\t')) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace

void send_within(int fd, const std::string& bytes, int timeout_ms) {
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  bool sent = false;
  std::size_t written = 0;
  while (written < bytes.size()) {
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLOUT;
    const int ready = ::poll(&waiter, 1, remaining_ms(deadline));
    if (ready == 0 || remaining_ms(deadline) == 0) {
      throw client_error("request deadline exceeded while writing", sent);
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw client_error(std::string("poll: ") + std::strerror(errno), sent);
    }
    // MSG_DONTWAIT: poll only promises room for some bytes, and a blocking
    // send waits for room for all it was given, however long the peer
    // takes to read. MSG_NOSIGNAL: a vanished peer is an error, not SIGPIPE.
    const ssize_t wrote = ::send(fd, bytes.data() + written,
                                 bytes.size() - written,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw client_error(std::string("send: ") + std::strerror(errno), sent);
    }
    if (wrote > 0) sent = true;
    written += static_cast<std::size_t>(wrote);
  }
}

http_client::http_client(const client_config& config) : config_(config) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw client_error(std::string("socket(): ") + std::strerror(errno),
                       /*request_sent=*/false);
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    throw client_error("bad host '" + config_.host +
                           "' (IPv4 dotted quad only)",
                       /*request_sent=*/false);
  }

  // Nonblocking connect bounded by connect_timeout_ms, then back to
  // blocking mode — request deadlines are enforced with poll(), and sends
  // never block (send_within).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    if (errno != EINPROGRESS) {
      const std::string what = std::strerror(errno);
      ::close(fd);
      throw client_error("connect: " + what, /*request_sent=*/false);
    }
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLOUT;
    const int ready = ::poll(&waiter, 1, connect_timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      throw client_error("connect timed out after " +
                             std::to_string(connect_timeout_ms) + "ms",
                         /*request_sent=*/false);
    }
    int error = 0;
    socklen_t error_size = sizeof(error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_size);
    if (error != 0) {
      ::close(fd);
      throw client_error(std::string("connect: ") + std::strerror(error),
                         /*request_sent=*/false);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  fd_ = fd;
}

http_client::~http_client() { close_fd(); }

void http_client::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

client_response http_client::request(const std::string& method,
                                     const std::string& target,
                                     const std::string& body) {
  if (fd_ < 0) {
    throw client_error("connection is closed", /*request_sent=*/false);
  }
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: " + config_.host + "\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  wire += "Connection: keep-alive\r\n\r\n";
  wire += body;

  const std::int64_t deadline = monotonic_ms() + request_timeout_ms;
  try {
    send_within(fd_, wire, request_timeout_ms);
  } catch (const client_error&) {
    close_fd();
    throw;
  }

  // From here every failure reports sent=true: the server saw the request.
  const auto fill = [&] {
    pollfd waiter{};
    waiter.fd = fd_;
    waiter.events = POLLIN;
    for (;;) {
      const int ready = ::poll(&waiter, 1, remaining_ms(deadline));
      if (ready == 0) {
        close_fd();
        throw client_error("request deadline exceeded while reading", true);
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        close_fd();
        throw client_error(std::string("poll: ") + std::strerror(errno),
                           true);
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(got));
        return;
      }
      if (got == 0) {
        close_fd();
        throw client_error("connection closed mid-response", true);
      }
      if (errno == EINTR) continue;
      close_fd();
      throw client_error(std::string("recv: ") + std::strerror(errno), true);
    }
  };

  std::size_t head_end = std::string::npos;
  for (;;) {
    head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer_.size() > max_response_bytes) {
      close_fd();
      throw client_error("response head too large", true);
    }
    fill();
  }
  const std::string head = buffer_.substr(0, head_end);

  // Status line: HTTP/1.1 NNN Reason
  const std::size_t space = head.find(' ');
  if (head.compare(0, 5, "HTTP/") != 0 || space == std::string::npos) {
    close_fd();
    throw client_error("malformed status line", true);
  }
  const int status = std::atoi(head.c_str() + space + 1);
  if (status < 100 || status > 599) {
    close_fd();
    throw client_error("malformed status line", true);
  }

  std::size_t body_size = 0;
  bool close_after = false;
  std::size_t pos = head.find("\r\n");
  pos = pos == std::string::npos ? head.size() : pos + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = ascii_lower(line.substr(0, colon));
    const std::string value = trim(line.substr(colon + 1));
    if (key == "content-length") {
      errno = 0;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), nullptr, 10);
      if (errno != 0 || parsed > max_response_bytes) {
        close_fd();
        throw client_error("response body too large", true);
      }
      body_size = static_cast<std::size_t>(parsed);
    } else if (key == "connection" && ascii_lower(value) == "close") {
      close_after = true;
    }
  }

  buffer_.erase(0, head_end + 4);
  while (buffer_.size() < body_size) fill();

  client_response response;
  response.status = status;
  response.body = buffer_.substr(0, body_size);
  buffer_.erase(0, body_size);
  if (close_after) close_fd();
  return response;
}

serve_client::serve_client(const client_config& config)
    : config_(config), jitter_(config.jitter_seed) {}

client_response serve_client::request(const std::string& method,
                                      const std::string& target,
                                      const std::string& body,
                                      bool idempotent) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (connection_ == nullptr || !connection_->alive()) {
        connection_ = std::make_unique<http_client>(config_);
        ++stats_.reconnects;
      }
      ++stats_.requests;
      return connection_->request(method, target, body);
    } catch (const client_error& error) {
      connection_.reset();
      if (error.sent() && !idempotent) throw;
      if (attempt >= max_retries) throw;
      ++stats_.retries;
      // Capped exponential backoff with jitter in [0.5, 1.0) of the step —
      // seeded, so a test's retry schedule is reproducible.
      const int shift = attempt < 16 ? static_cast<int>(attempt) : 16;
      std::int64_t step = std::int64_t{backoff_initial_ms} << shift;
      if (step > backoff_cap_ms) step = backoff_cap_ms;
      sleep_ms(static_cast<int>(
          static_cast<double>(step) * (0.5 + 0.5 * jitter_.next_double())));
    }
  }
}

session_handle session_handle::create(serve_client& client, const json& recipe,
                                      const std::string& engine,
                                      std::uint64_t seed) {
  json body = json::object();
  body["recipe"] = recipe;
  body["engine"] = engine;
  body["seed"] = seed;
  const client_response created =
      client.request("POST", "/sessions", body.dump_string(false),
                     /*idempotent=*/false);
  if (created.status != 201) {
    throw client_error("create session failed: HTTP " +
                           std::to_string(created.status) + " " + created.body,
                       /*request_sent=*/true);
  }
  const json doc = json::parse(created.body);
  session_handle handle(client,
                        json_require_string(doc, "id", "create response"),
                        json_require_uint(doc, "interactions",
                                          "create response"));
  handle.refresh_checkpoint();
  return handle;
}

void session_handle::refresh_checkpoint() {
  client_response response =
      client_->request("GET", "/sessions/" + id_ + "/checkpoint");
  if (response.status == 404 && !checkpoint_.is_null()) {
    recover();
    response = client_->request("GET", "/sessions/" + id_ + "/checkpoint");
  }
  if (response.status != 200) {
    throw client_error("checkpoint fetch failed: HTTP " +
                           std::to_string(response.status) + " " +
                           response.body,
                       /*request_sent=*/true);
  }
  checkpoint_ = json::parse(response.body);
}

std::uint64_t session_handle::reconcile() {
  const client_response response =
      client_->request("GET", "/sessions/" + id_);
  if (response.status == 404) {
    recover();
    return interactions_;
  }
  if (response.status != 200) {
    throw client_error("reconcile failed: HTTP " +
                           std::to_string(response.status) + " " +
                           response.body,
                       /*request_sent=*/true);
  }
  return json_require_uint(json::parse(response.body), "interactions",
                           "session info");
}

void session_handle::recover() {
  if (checkpoint_.is_null()) {
    throw client_error("session '" + id_ +
                           "' is gone and no checkpoint was ever fetched",
                       /*request_sent=*/true);
  }
  // Restore-by-checkpoint is effectively idempotent for the handle: a
  // duplicated restore leaves an orphan session but the handle adopts
  // exactly one id, so it is safe to retry blindly.
  const client_response response =
      client_->request("POST", "/sessions/restore",
                       checkpoint_.dump_string(false), /*idempotent=*/true);
  if (response.status != 201) {
    throw client_error("restore failed: HTTP " +
                           std::to_string(response.status) + " " +
                           response.body,
                       /*request_sent=*/true);
  }
  const json doc = json::parse(response.body);
  id_ = json_require_string(doc, "id", "restore response");
  interactions_ =
      json_require_uint(doc, "interactions", "restore response");
  ++recoveries_;
}

void session_handle::advance(std::uint64_t interactions) {
  const std::uint64_t target = interactions_ + interactions;
  while (interactions_ < target) {
    json body = json::object();
    body["interactions"] = target - interactions_;
    client_response response;
    try {
      response = client_->request("POST", "/sessions/" + id_ + "/advance",
                                  body.dump_string(false),
                                  /*idempotent=*/false);
    } catch (const client_error&) {
      // The daemon vanished mid-advance (or the attempt may have executed
      // before the connection tore). Reconcile against whatever answers
      // now — possibly a rebooted daemon holding the last spilled state —
      // and re-issue exactly the missing interactions.
      interactions_ = reconcile();
      continue;
    }
    if (response.status == 404) {
      recover();
      continue;
    }
    if (response.status == 409) {
      sleep_ms(backoff_initial_ms);  // busy: try again
      continue;
    }
    if (response.status != 200) {
      throw client_error("advance failed: HTTP " +
                             std::to_string(response.status) + " " +
                             response.body,
                         /*request_sent=*/true);
    }
    interactions_ = json_require_uint(json::parse(response.body),
                                      "interactions", "advance response");
  }
}

}  // namespace ppg
