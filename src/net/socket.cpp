#include "cts/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "cts/net/frame.hpp"
#include "cts/util/clock.hpp"

namespace cts::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Polls `fd` for `events` until `deadline`; false on expiry.  Throws
/// NetError when poll itself fails.
bool poll_until(int fd, short events, double deadline) {
  for (;;) {
    const double remaining = deadline - util::monotonic_s();
    if (remaining <= 0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int timeout_ms =
        remaining > 3600 ? 3600 * 1000 : static_cast<int>(remaining * 1e3) + 1;
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r > 0) return true;
    if (r == 0) continue;  // re-check the deadline
    if (errno == EINTR) continue;
    throw NetError("poll: " + errno_text());
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<Endpoint> parse_worker_list(const std::string& csv) {
  std::vector<Endpoint> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string entry = csv.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (comma == std::string::npos) break;
      throw util::InvalidArgument("--workers: empty entry in \"" + csv + "\"");
    }
    const std::size_t colon = entry.rfind(':');
    util::require(colon != std::string::npos && colon > 0,
                  "--workers: \"" + entry + "\" is not host:port");
    const std::string port_text = entry.substr(colon + 1);
    char* endp = nullptr;
    errno = 0;
    const unsigned long port = std::strtoul(port_text.c_str(), &endp, 10);
    util::require(endp != nullptr && *endp == '\0' && !port_text.empty() &&
                      errno == 0 && port >= 1 && port <= 65535,
                  "--workers: \"" + entry + "\" has an invalid port");
    out.push_back({entry.substr(0, colon), static_cast<std::uint16_t>(port)});
    if (comma == std::string::npos) break;
  }
  util::require(!out.empty(), "--workers: no worker endpoints in \"" + csv +
                                  "\"");
  return out;
}

Socket listen_on(std::uint16_t port, std::uint16_t* actual_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw NetError("socket: " + errno_text());
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw NetError("bind to port " + std::to_string(port) + ": " +
                   errno_text());
  }
  if (::listen(sock.fd(), 16) != 0) {
    throw NetError("listen: " + errno_text());
  }
  if (actual_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throw NetError("getsockname: " + errno_text());
    }
    *actual_port = ntohs(bound.sin_port);
  }
  set_nonblocking(sock.fd());
  return sock;
}

Socket accept_connection(const Socket& listener, double timeout_s) {
  const double deadline = util::monotonic_s() + timeout_s;
  for (;;) {
    if (!poll_until(listener.fd(), POLLIN, deadline)) return Socket();
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      return Socket(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // the pending connection vanished; keep waiting
    }
    throw NetError("accept: " + errno_text());
  }
}

Socket connect_to(const Endpoint& ep, double timeout_s) {
  const double deadline = util::monotonic_s() + timeout_s;
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_text = std::to_string(ep.port);
  const int gai = ::getaddrinfo(ep.host.c_str(), port_text.c_str(), &hints,
                                &res);
  if (gai != 0) {
    throw NetError("resolve " + ep.str() + ": " + ::gai_strerror(gai));
  }
  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Socket sock(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!sock.valid()) {
      last_error = "socket: " + errno_text();
      continue;
    }
    set_nonblocking(sock.fd());
    if (::connect(sock.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return sock;
    }
    if (errno != EINPROGRESS) {
      last_error = "connect " + ep.str() + ": " + errno_text();
      continue;
    }
    try {
      if (!poll_until(sock.fd(), POLLOUT, deadline)) {
        ::freeaddrinfo(res);
        throw NetTimeout("connect " + ep.str() + ": timed out");
      }
    } catch (...) {
      ::freeaddrinfo(res);
      throw;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
        so_error == 0) {
      ::freeaddrinfo(res);
      return sock;
    }
    last_error =
        "connect " + ep.str() + ": " + std::strerror(so_error);
  }
  ::freeaddrinfo(res);
  throw NetError(last_error);
}

void send_frame(const Socket& sock, const std::string& payload,
                double timeout_s) {
  const std::string bytes = encode_frame(payload);
  const double deadline = util::monotonic_s() + timeout_s;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(sock.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_until(sock.fd(), POLLOUT, deadline)) {
        throw NetTimeout("send: timed out after " +
                         std::to_string(timeout_s) + "s");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw NetError("send: " + (n == 0 ? std::string("connection closed")
                                      : errno_text()));
  }
}

std::string recv_frame(const Socket& sock, double timeout_s) {
  const double deadline = util::monotonic_s() + timeout_s;
  FrameDecoder decoder;
  std::string payload;
  char buf[1 << 16];
  for (;;) {
    if (decoder.next(&payload)) return payload;
    if (!poll_until(sock.fd(), POLLIN, deadline)) {
      throw NetTimeout("recv: timed out after " + std::to_string(timeout_s) +
                       "s");
    }
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      throw NetError("recv: connection closed mid-frame (" +
                     std::to_string(decoder.buffered()) + " bytes buffered)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    throw NetError("recv: " + errno_text());
  }
}

}  // namespace cts::net
