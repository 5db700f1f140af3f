//===- tests/service/CacheDaemonDeadlineTest.cpp - sccached deadlines -----===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// sccached serves through the same framed-socket skeleton as scbuildd,
// so it keeps the same hardening: a peer that dribbles a frame or
// stalls halfway through one loses its connection at the frame
// deadline — it neither pins a server thread forever nor desyncs the
// stream — while a persistent connection that is merely idle between
// requests survives any length of quiet. The last property is what a
// resident `scbuildd --remote-cache` relies on: its client latches the
// first transport error and stays local-only for the daemon's lifetime.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;

/// How late a disconnect may be observed past the deadline it enforces:
/// one service slice plus scheduling slack on a loaded machine.
constexpr long long LateMs = FramedService::SliceMs + 800;

long long msSince(Clock::time_point T) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               T)
      .count();
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-cdl-XXXXXX";
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

/// A CacheDaemon over an in-memory store on a real socket.
struct CacheFixture {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::unique_ptr<CacheDaemon> Daemon;
  std::thread Serve;
  std::string SockPath;

  CacheFixture() {
    std::signal(SIGPIPE, SIG_IGN);
    SockPath = Dir.Path + "/cache.sock";
    CacheDaemonConfig Config;
    Config.SocketPath = SockPath;
    Config.Quiet = true;
    Daemon = std::make_unique<CacheDaemon>(StoreFS, Config);
    std::string Err;
    bool Started = Daemon->start(&Err);
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Serve = std::thread([this] { Daemon->serve(); });
  }
  ~CacheFixture() {
    if (Serve.joinable()) {
      Daemon->requestStop();
      Serve.join();
    }
  }

  /// A raw POSIX connection, so a test can write partial frames.
  int rawConnect() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, SockPath.c_str(), SockPath.size() + 1);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
    return Fd;
  }
};

/// The 4-byte little-endian frame header announcing \p Len bytes.
std::string frameHeader(uint32_t Len) {
  std::string H(4, '\0');
  for (int I = 0; I != 4; ++I)
    H[I] = static_cast<char>((Len >> (8 * I)) & 0xff);
  return H;
}

/// Waits up to \p BudgetMs for the server to close \p Fd. True when the
/// peer hung up without sending any byte first.
bool closedWithoutReply(int Fd, long long BudgetMs) {
  pollfd P{Fd, POLLIN, 0};
  if (::poll(&P, 1, static_cast<int>(BudgetMs)) <= 0)
    return false;
  char C;
  return ::recv(Fd, &C, 1, 0) <= 0;
}

} // namespace

// A peer that dribbles one byte every 300 ms keeps its connection only
// until the frame deadline, counted from its first byte.
TEST(CacheDaemonDeadline, SlowPeerIsDroppedAtFrameDeadline) {
  CacheFixture F;
  const int Fd = F.rawConnect();
  // Announce 100 bytes: at 300 ms a byte the frame would need 31 s.
  const std::string Frame = frameHeader(100) + std::string(100, 'x');
  const auto FirstByte = Clock::now();
  bool Dropped = false;
  for (char C : Frame) {
    if (msSince(FirstByte) > FramedService::FrameDeadlineMs + LateMs)
      break;
    if (::send(Fd, &C, 1, MSG_NOSIGNAL) != 1 || closedWithoutReply(Fd, 300)) {
      Dropped = true;
      break;
    }
  }
  const long long Elapsed = msSince(FirstByte);
  EXPECT_TRUE(Dropped) << "still connected after " << Elapsed << " ms";
  EXPECT_GE(Elapsed, FramedService::FrameDeadlineMs - FramedService::SliceMs);
  EXPECT_LE(Elapsed, FramedService::FrameDeadlineMs + LateMs);
  ::close(Fd);
}

// Half a frame followed by silence: the server must hang up at the
// deadline instead of reading the rest of the stream out of frame.
// The daemon keeps serving other peers.
TEST(CacheDaemonDeadline, HalfFrameStallDisconnectsInsteadOfDesyncing) {
  CacheFixture F;
  const int Fd = F.rawConnect();
  const std::string Half = frameHeader(64) + std::string(16, '{');
  const auto Sent = Clock::now();
  ASSERT_EQ(::send(Fd, Half.data(), Half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Half.size()));
  EXPECT_TRUE(closedWithoutReply(Fd, FramedService::FrameDeadlineMs + LateMs))
      << "still connected after " << msSince(Sent) << " ms";
  ::close(Fd);

  std::string Err;
  auto Client = RemoteCacheClient::connect(F.SockPath, &Err);
  ASSERT_NE(Client, nullptr) << Err;
  CacheStats Stats;
  EXPECT_EQ(Client->stats(Stats), RemoteCacheClient::Result::Hit);
}

// Quiet between requests is not a stalled frame: a persistent client
// idle for longer than the frame deadline still gets its next answer.
TEST(CacheDaemonDeadline, IdlePersistentConnectionOutlivesFrameDeadline) {
  CacheFixture F;
  std::string Err;
  auto Client = RemoteCacheClient::connect(F.SockPath, &Err);
  ASSERT_NE(Client, nullptr) << Err;
  const std::string Bytes = "object bytes";
  const uint64_t Digest = hashString(Bytes);
  ASSERT_EQ(Client->publish(0x42, Digest, Bytes),
            RemoteCacheClient::Result::Hit);

  std::this_thread::sleep_for(std::chrono::milliseconds(
      FramedService::FrameDeadlineMs + FramedService::SliceMs + 300));

  uint64_t Fetched = 0;
  std::string Got;
  EXPECT_EQ(Client->fetch(0x42, Fetched, Got), RemoteCacheClient::Result::Hit);
  EXPECT_EQ(Got, Bytes);
  EXPECT_FALSE(Client->failed());
}
