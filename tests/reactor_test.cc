// The epoll reactor: newline framing under pathological chunking (one byte
// per read), backpressure through the short-write/EPOLLOUT path, the
// max_connections gate, and oversize-line defense. A scripted blocking
// client plays the peer; the handler is a plain echo so the framing logic
// is observable byte-for-byte.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "server/line_client.h"
#include "server/reactor.h"

namespace uguide {
namespace {

// --- LineBuffer (no sockets) ------------------------------------------------

TEST(LineBufferTest, FramesOneByteAtATime) {
  LineBuffer buffer(/*max_line_bytes=*/64);
  const std::string wire = "ab\ncd\r\n\nef\n";
  std::vector<std::string> lines;
  for (char c : wire) {
    ASSERT_TRUE(buffer.Append(&c, 1));
    while (std::optional<std::string> line = buffer.NextLine()) {
      lines.push_back(*line);
    }
  }
  // "\r" is stripped, the bare keep-alive newline is skipped.
  EXPECT_EQ(lines, (std::vector<std::string>{"ab", "cd", "ef"}));
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(LineBufferTest, SplitsArbitraryChunks) {
  LineBuffer buffer(64);
  ASSERT_TRUE(buffer.Append("first\nsec", 9));
  EXPECT_EQ(buffer.NextLine(), "first");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  ASSERT_TRUE(buffer.Append("ond\nthird\n", 10));
  EXPECT_EQ(buffer.NextLine(), "second");
  EXPECT_EQ(buffer.NextLine(), "third");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
}

TEST(LineBufferTest, BoundsUnextractedBytes) {
  LineBuffer buffer(8);
  // Eight bytes and no newline: still within bounds.
  ASSERT_TRUE(buffer.Append("12345678", 8));
  // The ninth pending byte crosses the line bound.
  EXPECT_FALSE(buffer.Append("9", 1));
  // Pipelined *small* lines never trip the bound as long as the caller
  // drains between appends.
  LineBuffer drained(8);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(drained.Append("abc\n", 4));
    EXPECT_EQ(drained.NextLine(), "abc");
  }
}

// --- Reactor end-to-end -----------------------------------------------------

// Each byte in its own send(): the worst framing a peer can produce.
bool WriteByByte(LineClient& client, const std::string& bytes) {
  for (char c : bytes) {
    if (::send(client.fd(), &c, 1, MSG_NOSIGNAL) != 1) return false;
  }
  return true;
}

// Drains until EOF; true when the peer closed the connection.
bool ReadUntilClosed(LineClient& client) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(client.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

ReactorOptions EchoOptions(ThreadPool* pool = nullptr) {
  ReactorOptions options;
  options.pool = pool;
  options.handler = [](std::string_view line,
                       std::chrono::steady_clock::time_point) {
    return std::vector<std::string>{"echo:" + std::string(line)};
  };
  return options;
}

TEST(ReactorTest, EchoesOneByteAtATimeClient) {
  auto reactor = Reactor::Start(EchoOptions()).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  ASSERT_TRUE(WriteByByte(client, "hello\nworld\r\n"));
  EXPECT_EQ(client.ReadLine(), "echo:hello");
  EXPECT_EQ(client.ReadLine(), "echo:world");
  reactor->Shutdown();
}

TEST(ReactorTest, PreservesOrderAcrossPipelinedLinesAndPool) {
  // A multi-thread pool makes DrainLines a real pool task; per-connection
  // FIFO must still hold for a burst of pipelined requests.
  ThreadPool pool(3);
  auto reactor = Reactor::Start(EchoOptions(&pool)).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += "line" + std::to_string(i) + "\n";
  ASSERT_TRUE(client.WriteRaw(burst));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.ReadLine(), "echo:line" + std::to_string(i));
  }
  reactor->Shutdown();
}

TEST(ReactorTest, ShortWritesDrainThroughEpollout) {
  // The client stops reading while thousands of padded replies queue up,
  // forcing the reactor through send() EAGAIN and the EPOLLOUT re-arm
  // path; every byte must still arrive, in order.
  ReactorOptions options;
  const std::string padding(100, 'p');
  options.handler = [&padding](std::string_view line,
                               std::chrono::steady_clock::time_point) {
    return std::vector<std::string>{std::string(line) + ":" + padding};
  };
  auto reactor = Reactor::Start(options).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  constexpr int kLines = 5000;  // ~500 KiB of replies, far over the buffers
  std::string burst;
  for (int i = 0; i < kLines; ++i) burst += std::to_string(i) + "\n";
  ASSERT_TRUE(client.WriteRaw(burst));
  for (int i = 0; i < kLines; ++i) {
    ASSERT_EQ(client.ReadLine(), std::to_string(i) + ":" + padding) << i;
  }
  reactor->Shutdown();
}

TEST(ReactorTest, RefusesConnectionsOverTheCap) {
  ReactorOptions options = EchoOptions();
  options.max_connections = 1;
  auto reactor = Reactor::Start(options).ValueOrDie();

  LineClient first;
  ASSERT_TRUE(first.Connect(reactor->port()));
  // A full round-trip pins the first connection as registered.
  ASSERT_TRUE(first.WriteRaw("hi\n"));
  EXPECT_EQ(first.ReadLine(), "echo:hi");

  LineClient second;
  ASSERT_TRUE(second.Connect(reactor->port()));
  EXPECT_TRUE(ReadUntilClosed(second));
  EXPECT_GE(reactor->stats().refused, 1);
  EXPECT_EQ(reactor->active_connections(), 1);

  // The slot frees once the first client leaves.
  first.Close();
  LineClient third;
  ASSERT_TRUE(third.Connect(reactor->port()));
  bool served = false;
  for (int attempt = 0; attempt < 50 && !served; ++attempt) {
    if (!third.WriteRaw("again\n")) {
      third.Close();
      ASSERT_TRUE(third.Connect(reactor->port()));
      continue;
    }
    std::optional<std::string> reply = third.ReadLine();
    if (reply.has_value()) {
      EXPECT_EQ(*reply, "echo:again");
      served = true;
    } else {
      // Raced the slot still being torn down; reconnect and retry.
      third.Close();
      ASSERT_TRUE(third.Connect(reactor->port()));
    }
  }
  EXPECT_TRUE(served);
  reactor->Shutdown();
}

TEST(ReactorTest, ReapsSlowLorisHoldingAPartialLine) {
  // A peer that trickles a frame but never finishes it must not pin a
  // connection slot forever: the maintenance tick reaps any connection
  // with no complete line inside read_idle_ms.
  ReactorOptions options = EchoOptions();
  options.read_idle_ms = 50.0;
  options.tick_interval_ms = 10.0;
  auto reactor = Reactor::Start(options).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  ASSERT_TRUE(client.WriteRaw("{\"op\":\"op"));  // no newline, ever
  EXPECT_TRUE(ReadUntilClosed(client));      // blocks until the reap
  EXPECT_GE(reactor->stats().reaped_idle, 1);
  EXPECT_GE(reactor->stats().dropped, 1);
  EXPECT_GE(reactor->stats().ticks, 1);
  reactor->Shutdown();
}

TEST(ReactorTest, DropsSlowReaderOverThePendingOutputCap) {
  // A client that pipelines thousands of requests and never reads grows
  // the reply buffer; past max_pending_out_bytes it is hard-dropped and
  // counted separately from protocol drops.
  ReactorOptions options;
  const std::string padding(1024, 'p');
  options.handler = [&padding](std::string_view line,
                               std::chrono::steady_clock::time_point) {
    return std::vector<std::string>{std::string(line) + ":" + padding};
  };
  options.max_pending_out_bytes = 16 << 10;
  auto reactor = Reactor::Start(options).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += std::to_string(i) + "\n";
  ASSERT_TRUE(client.WriteRaw(burst));  // ~2 MiB of replies, 16 KiB allowed
  EXPECT_TRUE(ReadUntilClosed(client));
  EXPECT_GE(reactor->stats().dropped_slow_reader, 1);
  EXPECT_GE(reactor->stats().dropped, 1);
  reactor->Shutdown();
}

TEST(ReactorTest, MaintenanceTickDrivesOnTickCallback) {
  std::atomic<int> ticks{0};
  ReactorOptions options = EchoOptions();
  options.tick_interval_ms = 10.0;
  options.on_tick = [&ticks] { ++ticks; };
  auto reactor = Reactor::Start(options).ValueOrDie();
  for (int i = 0; i < 500 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ticks.load(), 3);
  EXPECT_GE(reactor->stats().ticks, 3);
  reactor->Shutdown();
  // Shutdown stops the tick: the counter settles.
  const int after = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(ticks.load(), after);
}

TEST(ReactorTest, DropsConnectionFeedingAnOversizeLine) {
  ReactorOptions options = EchoOptions();
  options.max_line_bytes = 64;
  auto reactor = Reactor::Start(options).ValueOrDie();
  LineClient client;
  ASSERT_TRUE(client.Connect(reactor->port()));
  ASSERT_TRUE(client.WriteRaw(std::string(200, 'x')));  // no newline ever
  EXPECT_TRUE(ReadUntilClosed(client));
  EXPECT_GE(reactor->stats().dropped, 1);
  reactor->Shutdown();
}

}  // namespace
}  // namespace uguide
