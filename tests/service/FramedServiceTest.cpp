//===- tests/service/FramedServiceTest.cpp - Service skeleton tests -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The lifecycle both daemons inherit from support/FramedService, driven
// through a trivial echo service: connection threads are joined while
// the service runs, the idle clock ignores only connections parked
// between requests, and the drain runs in its documented order.
//
//===----------------------------------------------------------------------===//

#include "support/FramedService.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;

long long msSince(Clock::time_point T) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               T)
      .count();
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-svc-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

/// Echoes every request back on a persistent connection. A request
/// "slow" is answered after SlowMs.
class EchoService : public FramedService {
public:
  static constexpr unsigned SlowMs = 1000;

  explicit EchoService(const ServiceConfig &Config)
      : FramedService("echod", Config) {}
  ~EchoService() override { stopAndJoin(); }

  bool start(const std::string &Path, std::string *Err) {
    return listenOn(Path, Err);
  }
  int serve() { return run(); }

  /// Whether the socket file still existed when drain() ran.
  bool DrainSawSocket = true;

private:
  bool serveRequest(UnixSocket &Conn, const std::string &Request) override {
    if (Request == "slow")
      std::this_thread::sleep_for(std::chrono::milliseconds(SlowMs));
    return Conn.sendFrame(Request, FrameDeadlineMs);
  }
  std::string metricsText() override {
    return "echo_connections " + std::to_string(activeConnections()) + "\n";
  }
  void drain() override {
    DrainSawSocket = std::filesystem::exists(socketPath());
  }
};

struct EchoFixture {
  TempDir Dir;
  std::string SockPath;
  std::unique_ptr<EchoService> Service;
  std::thread Serve;
  int Code = -1;

  explicit EchoFixture(ServiceConfig Config = {}) {
    std::signal(SIGPIPE, SIG_IGN);
    SockPath = Dir.Path + "/echo.sock";
    Config.Quiet = true;
    Service = std::make_unique<EchoService>(Config);
    std::string Err;
    bool Started = Service->start(SockPath, &Err);
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Serve = std::thread([this] { Code = Service->serve(); });
  }
  ~EchoFixture() { stop(); }

  void stop() {
    if (Serve.joinable()) {
      Service->requestStop();
      Serve.join();
    }
  }

  UnixSocket connect() {
    std::string Err;
    UnixSocket S = UnixSocket::connectTo(SockPath, &Err);
    EXPECT_TRUE(S.valid()) << Err;
    return S;
  }
};

std::string roundTrip(UnixSocket &S, const std::string &Request) {
  std::string Reply;
  EXPECT_TRUE(S.sendFrame(Request));
  EXPECT_TRUE(S.recvFrame(Reply, 5000));
  return Reply;
}

} // namespace

// A long-lived daemon must not accumulate the threads of connections
// that already closed: finished threads are joined on every accept
// slice, not only at exit.
TEST(FramedService, ReapsClosedConnectionsWithinTwoSlices) {
  EchoFixture F;
  for (int I = 0; I != 200; ++I) {
    UnixSocket S = F.connect();
    ASSERT_EQ(roundTrip(S, "ping " + std::to_string(I)),
              "ping " + std::to_string(I));
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2 * FramedService::SliceMs + 100));
  EXPECT_EQ(F.Service->connectionThreads(), 0u);
  EXPECT_EQ(F.Service->activeConnections(), 0u);
}

// A connection counts as activity while it is served, but not while it
// is parked waiting for its next request: a slow request outlives the
// idle timeout, and a parked client does not keep the service alive.
TEST(FramedService, IdleClockIgnoresOnlyParkedConnections) {
  ServiceConfig Config;
  Config.IdleTimeoutMs = EchoService::SlowMs / 2;
  EchoFixture F(Config);
  UnixSocket S = F.connect();
  EXPECT_EQ(roundTrip(S, "slow"), "slow");
  EXPECT_TRUE(std::filesystem::exists(F.SockPath));

  const auto Parked = Clock::now();
  F.Serve.join(); // Returns on its own: the idle timeout fired.
  EXPECT_LE(msSince(Parked),
            Config.IdleTimeoutMs + 2 * FramedService::SliceMs + 500);
  EXPECT_EQ(F.Code, 0);
}

// Drain order: the socket is gone before the drain hook runs (new
// clients fail fast), parked connections are closed and joined, and
// the final metrics dump sees the drained state.
TEST(FramedService, DrainClosesListenerBeforeHookAndDumpsLast) {
  TempDir Out;
  ServiceConfig Config;
  Config.MetricsOut = Out.Path + "/metrics.prom";
  EchoFixture F(Config);
  UnixSocket S = F.connect();
  EXPECT_EQ(roundTrip(S, "hello"), "hello");

  F.stop();
  EXPECT_EQ(F.Code, 0);
  EXPECT_FALSE(F.Service->DrainSawSocket);
  EXPECT_FALSE(std::filesystem::exists(F.SockPath));
  EXPECT_EQ(F.Service->connectionThreads(), 0u);

  // The parked client was disconnected, not left hanging.
  std::string Reply;
  UnixSocket::RecvStatus Status = UnixSocket::RecvStatus::Ok;
  EXPECT_FALSE(S.recvFrame(Reply, 2000, &Status));
  EXPECT_EQ(Status, UnixSocket::RecvStatus::Disconnected);

  std::ifstream In(Config.MetricsOut);
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_EQ(Text.str(), "echo_connections 0\n");
}
