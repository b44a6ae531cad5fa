#include "ppg/serve/http.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace ppg {
namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

const std::string* http_request::header(std::string_view name) const {
  const std::string lowered = to_lower(name);
  for (const auto& [key, value] : headers) {
    if (key == lowered) return &value;
  }
  return nullptr;
}

bool http_request::keep_alive() const {
  const std::string* connection = header("connection");
  return connection == nullptr || to_lower(*connection) != "close";
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Status";
  }
}

http_connection::~http_connection() {
  if (fd_ >= 0) ::close(fd_);
}

http_connection::fill_status http_connection::fill() {
  char chunk[4096];
  for (;;) {
    if (limits_.read_timeout_ms > 0) {
      pollfd waiter{};
      waiter.fd = fd_;
      waiter.events = POLLIN;
      const int ready = ::poll(&waiter, 1, limits_.read_timeout_ms);
      if (ready == 0) return fill_status::timed_out;
      if (ready < 0) {
        if (errno == EINTR) continue;
        return fill_status::eof;
      }
    }
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      return fill_status::data;
    }
    if (got == 0) return fill_status::eof;  // orderly EOF
    if (errno == EINTR) continue;
    return fill_status::eof;  // socket error: treat as gone, nothing to answer
  }
}

std::optional<http_request> http_connection::read_request() {
  // Head: everything up to the blank line, capped at max_header_bytes.
  std::size_t head_end = std::string::npos;
  for (;;) {
    head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer_.size() > limits_.max_header_bytes) {
      throw http_error(431, "request head exceeds " +
                                std::to_string(limits_.max_header_bytes) +
                                " bytes");
    }
    switch (fill()) {
      case fill_status::data:
        break;
      case fill_status::eof:
        if (buffer_.empty()) {
          return std::nullopt;  // clean EOF between requests
        }
        throw http_error(400, "connection closed mid-request");
      case fill_status::timed_out:
        if (buffer_.empty()) {
          // Idle past the deadline with no request in flight: reap the
          // connection silently (a slowloris peer never pins a worker).
          return std::nullopt;
        }
        throw http_error(408, "read deadline exceeded mid-request");
    }
  }
  if (head_end > limits_.max_header_bytes) {
    throw http_error(431, "request head exceeds " +
                              std::to_string(limits_.max_header_bytes) +
                              " bytes");
  }

  http_request request;
  const std::string_view head(buffer_.data(), head_end);

  // Request line: METHOD SP TARGET SP HTTP/x.y
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    throw http_error(400, "malformed request line");
  }
  request.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = trim(line.substr(sp2 + 1));
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    throw http_error(505, "unsupported version '" + std::string(version) +
                              "'");
  }
  if (target.empty() || target[0] != '/') {
    throw http_error(400, "request target must be an absolute path");
  }
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  request.target = std::string(target);

  // Header fields.
  std::size_t pos = line.size() + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view field = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      throw http_error(400, "malformed header field");
    }
    request.headers.emplace_back(to_lower(field.substr(0, colon)),
                                 std::string(trim(field.substr(colon + 1))));
  }

  if (request.header("transfer-encoding") != nullptr) {
    throw http_error(501, "transfer-encoding is not supported; send a "
                          "Content-Length body");
  }

  // Body: exactly Content-Length bytes, bounded before buffering.
  std::size_t body_size = 0;
  if (const std::string* length = request.header("content-length")) {
    if (length->empty() ||
        length->find_first_not_of("0123456789") != std::string::npos) {
      throw http_error(400, "malformed Content-Length");
    }
    errno = 0;
    const unsigned long long parsed = std::strtoull(length->c_str(),
                                                    nullptr, 10);
    if (errno != 0 || parsed > limits_.max_body_bytes) {
      throw http_error(413, "request body exceeds " +
                                std::to_string(limits_.max_body_bytes) +
                                " bytes");
    }
    body_size = static_cast<std::size_t>(parsed);
  }
  buffer_.erase(0, head_end + 4);
  while (buffer_.size() < body_size) {
    switch (fill()) {
      case fill_status::data:
        break;
      case fill_status::eof:
        throw http_error(400, "connection closed mid-body");
      case fill_status::timed_out:
        throw http_error(408, "read deadline exceeded mid-body");
    }
  }
  request.body = buffer_.substr(0, body_size);
  buffer_.erase(0, body_size);  // keep pipelined bytes for the next request
  return request;
}

bool http_connection::write_response(const http_response& response,
                                     bool keep_alive) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     http_status_reason(response.status) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  wire += "\r\n";
  wire += response.body;

  std::size_t sent = 0;
  while (sent < wire.size()) {
    if (limits_.write_timeout_ms > 0) {
      pollfd waiter{};
      waiter.fd = fd_;
      waiter.events = POLLOUT;
      const int ready = ::poll(&waiter, 1, limits_.write_timeout_ms);
      if (ready == 0) return false;  // peer stopped reading: drop it
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
    }
    // MSG_NOSIGNAL: a vanished peer must surface as an error, not SIGPIPE.
    // Under a deadline the send must not block: a blocking send waits for
    // room for all it was given, however long the peer takes to read.
    const int flags =
        MSG_NOSIGNAL | (limits_.write_timeout_ms > 0 ? MSG_DONTWAIT : 0);
    const ssize_t wrote =
        ::send(fd_, wire.data() + sent, wire.size() - sent, flags);
    if (wrote < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

tcp_listener::tcp_listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw http_error(500, std::string("socket(): ") + std::strerror(errno));
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw http_error(500, "bind/listen on port " + std::to_string(port) +
                              ": " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_size);
  port_ = ntohs(bound.sin_port);
  fd_.store(fd);
}

tcp_listener::~tcp_listener() { shut_down(); }

int tcp_listener::accept_connection() {
  for (;;) {
    const int listen_fd = fd_.load();
    if (listen_fd < 0) return -1;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;  // listener shut down (or unrecoverable): stop accepting
  }
}

void tcp_listener::shut_down() {
  // exchange() makes a concurrent or repeated shut_down close exactly once.
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // shutdown() unblocks a concurrent accept(); close() releases the port.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

}  // namespace ppg
