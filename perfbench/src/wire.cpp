#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string_view>

namespace pb {

std::int64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t schedule_digest(std::string_view line) noexcept {
  const auto at = line.find("\"solver\":");
  if (at == std::string_view::npos) return 0;
  return std::hash<std::string_view>{}(line.substr(at));
}

namespace {

/// First letter of the "tier" field, or '?' when absent.
char tier_of(std::string_view line) noexcept {
  constexpr std::string_view kTier = "\"tier\":\"";
  const auto at = line.find(kTier);
  if (at == std::string_view::npos || at + kTier.size() >= line.size())
    return '?';
  return line[at + kTier.size()];
}

}  // namespace

WireClient::WireClient(int port, int conns) {
  for (int i = 0; i < conns; ++i) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string err = strerror(errno);
      ::close(c.fd);
      throw std::runtime_error("connect to port " + std::to_string(port) + ": " + err);
    }
    conns_.push_back(std::move(c));
  }
}

WireClient::~WireClient() {
  for (Conn& c : conns_) ::close(c.fd);
}

void WireClient::send_line(Conn& c, const std::string& line) {
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::send(c.fd, line.data() + done, line.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
}

void WireClient::run(const Stream& stream, std::vector<Answer>& out,
                     const std::function<void(const Answer&, std::string_view)>& keep) {
  const auto issue = [&](Conn& c) {
    const std::int64_t key = stream.next();
    if (key < 0) return;
    c.key = static_cast<std::uint32_t>(key);
    c.seq = seq_++;
    const std::string line = stream.line(c.key, c.seq);
    c.busy = true;
    c.send_ns = now_ns();
    send_line(c, line);
  };
  for (Conn& c : conns_) issue(c);

  std::vector<pollfd> fds(conns_.size());
  char chunk[1 << 16];
  while (true) {
    int busy = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i].fd, static_cast<short>(conns_[i].busy ? POLLIN : 0), 0};
      busy += conns_[i].busy ? 1 : 0;
    }
    if (busy == 0) return;
    const int ready = ::poll(fds.data(), fds.size(), 30000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("no reply from csserve within 30 s");
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("csserve closed the connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error("recv: " + std::string(strerror(errno)));
      }
      c.buf.append(chunk, static_cast<std::size_t>(n));
      const auto nl = c.buf.find('\n');
      if (nl == std::string::npos) continue;
      if (nl + 1 != c.buf.size())
        throw std::runtime_error("csserve sent more than one line per request");
      Answer a;
      a.recv_ns = now_ns();
      a.key = c.key;
      a.seq = c.seq;
      a.send_ns = c.send_ns;
      c.busy = false;
      std::string line = std::move(c.buf);
      c.buf.clear();
      issue(c);  // closed loop: the next request goes out before bookkeeping
      line.pop_back();
      a.tier = tier_of(line);
      a.digest = schedule_digest(line);
      keep(a, line);
      out.push_back(a);
    }
  }
}

std::string WireClient::call(const std::string& line) {
  Conn& c = conns_.at(0);
  send_line(c, line);
  char chunk[1 << 16];
  while (true) {
    const auto nl = c.buf.find('\n');
    if (nl != std::string::npos) {
      std::string reply = c.buf.substr(0, nl);
      c.buf.erase(0, nl + 1);
      return reply;
    }
    pollfd fd{c.fd, POLLIN, 0};
    if (::poll(&fd, 1, 30000) <= 0) throw std::runtime_error("no reply from csserve within 30 s");
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n <= 0) throw std::runtime_error("csserve closed the connection");
    c.buf.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace pb
