#include "measure.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

namespace pathbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::vector<double> Values(const std::vector<Stamped>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Stamped& s : samples) values.push_back(s.value);
  return values;
}

double Windowed(const std::vector<Stamped>& samples, double span_ms,
                int windows,
                const std::function<double(std::vector<double>)>& stat) {
  std::vector<std::vector<double>> slices(static_cast<size_t>(windows));
  for (const Stamped& s : samples) {
    const int w = static_cast<int>(s.at_ms / span_ms * windows);
    if (w >= 0 && w < windows) slices[static_cast<size_t>(w)].push_back(s.value);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(stat(std::move(slice)));
  }
  return Median(std::move(per_slice));
}

double GroupBalanced(
    const std::vector<Stamped>& samples,
    const std::function<double(const std::vector<Stamped>&)>& stat) {
  std::map<int, std::vector<Stamped>> groups;
  for (const Stamped& s : samples) groups[s.group].push_back(s);
  std::vector<double> per_group;
  for (const auto& [group, members] : groups) {
    per_group.push_back(stat(members));
  }
  return Mean(per_group);
}

double WindowedRate(const std::vector<double>& event_at_ms, double span_ms,
                    int windows) {
  // Per slice, events after the first over the time since the first: a
  // continuous estimate, where a count per slice would be quantized.
  std::vector<std::vector<double>> slices(static_cast<size_t>(windows));
  for (double at : event_at_ms) {
    const int w = static_cast<int>(at / span_ms * windows);
    if (w >= 0 && w < windows) slices[static_cast<size_t>(w)].push_back(at);
  }
  std::vector<double> rates;
  for (std::vector<double>& slice : slices) {
    if (slice.size() < 2) continue;
    const auto [first, last] = std::minmax_element(slice.begin(), slice.end());
    if (*last > *first) {
      rates.push_back(static_cast<double>(slice.size() - 1) /
                      ((*last - *first) / 1000.0));
    }
  }
  return Median(std::move(rates));
}

std::string SampleNote(const std::vector<double>& answer_ms,
                       const std::vector<double>& open_ms, size_t sessions,
                       size_t setups) {
  std::string note = "samples: sessions=" + std::to_string(sessions) +
                     " answers=" + std::to_string(answer_ms.size()) +
                     " opens=" + std::to_string(open_ms.size()) +
                     " setups=" + std::to_string(setups);
  if (answer_ms.size() >= 1000) {
    note += " answer_p99_ms=" + std::to_string(Quantile(answer_ms, 0.99));
  }
  if (open_ms.size() >= 100) {
    note += " open_p90_ms=" + std::to_string(Quantile(open_ms, 0.90));
  }
  return note;
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int BenchThreads() {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(4, nproc);
}

double ProcessCpuMs() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

void MetricList::Set(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

double MetricList::Get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Connect(int port, int timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

bool LineClient::WriteLine(const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace pathbench
