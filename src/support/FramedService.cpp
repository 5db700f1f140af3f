//===- support/FramedService.cpp - Framed Unix-socket server --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FramedService.h"

#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;

/// The service SIGINT/SIGTERM stop. A lock-free atomic pointer, so the
/// handler's load is async-signal-safe.
std::atomic<FramedService *> SignalTarget{nullptr};

void onStopSignal(int) {
  if (FramedService *S = SignalTarget.load())
    S->requestStop();
}

} // namespace

FramedService::FramedService(const char *Name, const ServiceConfig &Config)
    : Name(Name), Config(Config) {}

FramedService::~FramedService() {
  FramedService *Self = this;
  SignalTarget.compare_exchange_strong(Self, nullptr);
  stopAndJoin();
}

void FramedService::installStopSignals() {
  SignalTarget.store(this);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  SA.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &SA, nullptr);
}

void FramedService::chat(const char *Fmt, ...) const {
  if (Config.Quiet)
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
}

bool FramedService::listenOn(const std::string &Path, std::string *Err) {
  // A leftover socket file from a dead server would make bind() fail
  // with EADDRINUSE forever; a live server answers a connect. Probe
  // before unlinking so a serving daemon's socket is never stolen.
  if (UnixSocket::connectTo(Path, nullptr).valid()) {
    if (Err)
      *Err = std::string("another ") + Name + " is already serving '" + Path +
             "'";
    return false;
  }
  ::unlink(Path.c_str());
  std::string SockErr;
  Listener = UnixSocket::listenOn(Path, &SockErr);
  if (!Listener.valid()) {
    if (Err)
      *Err = "could not listen on '" + Path + "': " + SockErr;
    return false;
  }
  SockPath = Path;
  return true;
}

void FramedService::closeListener() {
  // Only the owner of a bound listener removes the socket file.
  if (!Listener.valid())
    return;
  Listener.close();
  ::unlink(SockPath.c_str());
}

void FramedService::stopAndJoin() {
  Stop.store(true);
  closeListener();
  reapConnections(/*JoinAll=*/true);
}

void FramedService::dumpMetricsFile() {
  if (Config.MetricsOut.empty())
    return;
  const std::string Text = metricsText();
  const std::string Tmp = Config.MetricsOut + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  const bool Wrote = std::fwrite(Text.data(), 1, Text.size(), F) ==
                     Text.size();
  std::fclose(F);
  if (!Wrote || ::rename(Tmp.c_str(), Config.MetricsOut.c_str()) != 0)
    ::unlink(Tmp.c_str());
}

//===----------------------------------------------------------------------===//
// Connections
//===----------------------------------------------------------------------===//

bool FramedService::readRequest(UnixSocket &Conn, std::string &Payload,
                                bool First) {
  // Wait for the request's first byte in slices so stop is noticed;
  // once bytes flow, recvFrame's total deadline bounds the whole frame.
  // Only the first request is held to a deadline before it starts: a
  // persistent connection may sit between requests for as long as the
  // service runs, and while it does it is not activity.
  const auto Deadline =
      Clock::now() + std::chrono::milliseconds(FrameDeadlineMs);
  if (!First)
    Working.fetch_sub(1);
  bool Ready = false;
  while (!Ready && !Stop.load() && (!First || Clock::now() < Deadline))
    Ready = Conn.readable(SliceMs);
  if (!First)
    Working.fetch_add(1);
  return Ready && Conn.recvFrame(Payload, FrameDeadlineMs);
}

void FramedService::connectionMain(UnixSocket Conn) {
  std::string Request;
  for (bool First = true; readRequest(Conn, Request, First); First = false) {
    RequestTick.fetch_add(1);
    if (!serveRequest(Conn, Request))
      break;
  }
  Working.fetch_sub(1);
  Live.fetch_sub(1);
}

void FramedService::reapConnections(bool JoinAll) {
  for (auto It = Connections.begin(); It != Connections.end();) {
    if (JoinAll || It->Finished.load()) {
      if (It->T.joinable())
        It->T.join();
      It = Connections.erase(It);
      Threads.fetch_sub(1);
    } else {
      ++It;
    }
  }
}

//===----------------------------------------------------------------------===//
// Accept loop + drain
//===----------------------------------------------------------------------===//

int FramedService::run() {
  auto LastActivity = Clock::now();
  auto LastMetricsDump = Clock::now();
  dumpMetricsFile(); // The scrape file exists from the first slice on.
  uint64_t LastTick = RequestTick.load();
  while (!Stop.load()) {
    if (!Config.MetricsOut.empty() &&
        Clock::now() - LastMetricsDump >=
            std::chrono::milliseconds(Config.MetricsIntervalMs)) {
      dumpMetricsFile();
      LastMetricsDump = Clock::now();
    }
    const uint64_t Tick = RequestTick.load();
    if (Tick != LastTick || Working.load() != 0) {
      LastTick = Tick;
      LastActivity = Clock::now();
    }
    if (Config.IdleTimeoutMs &&
        Clock::now() - LastActivity >=
            std::chrono::milliseconds(Config.IdleTimeoutMs)) {
      chat("%s: idle for %u ms, exiting\n", Name, Config.IdleTimeoutMs);
      break;
    }
    UnixSocket Conn = Listener.accept(SliceMs, /*TimedOut=*/nullptr);
    reapConnections(/*JoinAll=*/false);
    if (!Conn.valid())
      continue; // Timeout slice (or transient accept error): re-poll.
    LastActivity = Clock::now();
    Live.fetch_add(1);
    Working.fetch_add(1);
    Threads.fetch_add(1);
    Connections.emplace_back();
    Connection &C = Connections.back();
    C.T = std::thread(
        [this, &C](UnixSocket S) {
          connectionMain(std::move(S));
          C.Finished.store(true);
        },
        std::move(Conn));
  }

  // Connections parked between requests see Stop and close; the rest
  // finish the request they are serving.
  Stop.store(true);
  closeListener();
  drain();
  reapConnections(/*JoinAll=*/true);
  dumpMetricsFile();
  return 0;
}
