#ifndef UGUIDE_SERVER_LINE_CLIENT_H_
#define UGUIDE_SERVER_LINE_CLIENT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "server/reactor.h"

namespace uguide {

/// \brief A blocking newline-delimited client of a loopback uguided (or any
/// Reactor) port, shared by the load generator, the serving bench and the
/// socket tests.
///
/// Reads are framed by the reactor's own LineBuffer, so both ends split
/// lines alike ("\r" stripped, bare keep-alive newlines skipped). Writes
/// retry EINTR. Any other failure, EOF or an oversize line reads as
/// false / nullopt; the caller then Closes or re-Connects.
class LineClient {
 public:
  /// Far above any frame the daemon writes.
  static constexpr size_t kMaxLineBytes = size_t{16} << 20;

  LineClient() = default;
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY, dropping any previous
  /// connection first.
  bool Connect(int port);
  /// Drops the socket and any half-read bytes.
  void Close();

  /// Sends `line` plus a newline.
  bool WriteLine(std::string_view line);
  /// Sends bytes exactly as given (half-written frames included).
  bool WriteRaw(std::string_view bytes);
  /// Blocks until one full non-empty line arrives.
  std::optional<std::string> ReadLine();

  /// The socket, -1 when closed (for raw probes in tests).
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  LineBuffer in_{kMaxLineBytes};
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_LINE_CLIENT_H_
