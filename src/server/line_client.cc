#include "server/line_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace uguide {

bool LineClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_ = LineBuffer(kMaxLineBytes);
}

bool LineClient::WriteLine(std::string_view line) {
  return WriteRaw(std::string(line) + '\n');
}

bool LineClient::WriteRaw(std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> LineClient::ReadLine() {
  while (true) {
    if (std::optional<std::string> line = in_.NextLine()) return line;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    if (!in_.Append(chunk, static_cast<size_t>(n))) return std::nullopt;
  }
}

}  // namespace uguide
