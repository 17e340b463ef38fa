// Closed-loop wire client: one thread drives up to four connections to a
// running csserve, each waiting for its reply before sending the next
// request, as a scheduler asking for its schedule does.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, as Python's time.monotonic_ns).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// One answered request.
struct Answer {
  std::uint32_t key = 0;     ///< index into the workload's query table
  std::uint64_t seq = 0;     ///< client-wide request number (trace label)
  char tier = '?';           ///< first letter of the v2 "tier" field
  std::int64_t send_ns = 0;  ///< request written
  std::int64_t recv_ns = 0;  ///< full response line read
  std::uint64_t digest = 0;  ///< hash of the response from "solver" on
};

/// The request stream of one phase.  `next()` returns the key of the next
/// request to send, or -1 when the phase is over; `line(key, seq)` renders
/// its request line (newline included).
struct Stream {
  std::function<std::int64_t()> next;
  std::function<std::string(std::uint32_t key, std::uint64_t seq)> line;
};

class WireClient {
 public:
  /// Connect `conns` sockets to 127.0.0.1:`port`; throws on failure.
  WireClient(int port, int conns);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Run `stream` to its end over every connection.  Each answer is
  /// appended to `out`; `keep(key, text)` is offered every response line
  /// after the next request on that connection has been sent.
  void run(const Stream& stream, std::vector<Answer>& out,
           const std::function<void(const Answer&, std::string_view)>& keep);

  /// One request/response exchange on connection 0 (stats, ping).
  [[nodiscard]] std::string call(const std::string& line);

 private:
  struct Conn {
    int fd = -1;
    std::string buf;
    bool busy = false;
    std::uint32_t key = 0;
    std::uint64_t seq = 0;
    std::int64_t send_ns = 0;
  };
  void send_line(Conn& c, const std::string& line);
  std::vector<Conn> conns_;
  std::uint64_t seq_ = 0;
};

/// Hash of the answer's schedule part: everything from the "solver" field
/// on, which a cold answer and every later hit of the same key share byte
/// for byte.  0 when the field is absent (an error response).
[[nodiscard]] std::uint64_t schedule_digest(std::string_view line) noexcept;

}  // namespace pb
