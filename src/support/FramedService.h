//===- support/FramedService.h - Framed Unix-socket server ------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server lifecycle shared by both long-lived daemons (`scbuildd`,
/// `sccached`): a Unix-domain listener speaking UnixSocket frames, one
/// thread per connection, an idle clock, a periodic metrics file, a
/// signal-driven stop and an ordered drain. A daemon derives from
/// FramedService and supplies only what is its own: how one request is
/// served (serveRequest), its metrics text, and an optional drain hook.
///
/// Lifecycle:
///
///  * Bind (listenOn): a socket file that answers a connect belongs to a
///    live server and is never displaced; a dead one is unlinked and
///    the path re-bound.
///  * Accept (run): the listener is polled in SliceMs slices. Each
///    connection gets its own thread; threads that finished are joined
///    on every slice, so a long-lived daemon holds no dead threads.
///  * Requests: the first request of a connection must begin within
///    FrameDeadlineMs of the accept. After a request is served, a
///    persistent connection may wait for its next one until stop; that
///    wait is sliced with UnixSocket::readable, so no frame is ever
///    read in part. Every frame, in either direction, must complete
///    within FrameDeadlineMs: a peer that dribbles or stalls mid-frame
///    is disconnected, never desynced.
///  * Idle clock (ServiceConfig::IdleTimeoutMs): accepts, requests and
///    connections count as activity, except a connection that is
///    waiting for its next request.
///  * Metrics file (ServiceConfig::MetricsOut): metricsText() rewritten
///    atomically (temp + rename) at start, every MetricsIntervalMs, and
///    once more after the drain.
///  * Stop: requestStop() (async-signal-safe), a handler asking for it,
///    the idle timeout, or SIGINT/SIGTERM after installStopSignals().
///  * Drain, in order: close the listener and unlink the socket (new
///    clients fail fast), the drain() hook, join every connection
///    thread, final metrics-file dump.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_FRAMEDSERVICE_H
#define SC_SUPPORT_FRAMEDSERVICE_H

#include "support/Socket.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <thread>

namespace sc {

/// Lifecycle settings shared by every FramedService daemon's config.
struct ServiceConfig {
  /// Exit after this many milliseconds without activity (0 = never).
  unsigned IdleTimeoutMs = 0;

  /// When non-empty: host path that receives metricsText(), rewritten
  /// atomically every MetricsIntervalMs and once more on drain — a
  /// scrape file for collectors that cannot speak the socket protocol.
  std::string MetricsOut;

  /// Period of the MetricsOut dump, in milliseconds.
  unsigned MetricsIntervalMs = 1000;

  /// Suppress the daemon's lifecycle chatter on stderr.
  bool Quiet = false;
};

class FramedService {
public:
  /// Total deadline for one frame, read or written.
  static constexpr unsigned FrameDeadlineMs = 10000;
  /// Granularity of the accept poll and of a connection's wait for its
  /// next request: the latency of noticing stop, idle and reaping.
  static constexpr unsigned SliceMs = 200;

  FramedService(const FramedService &) = delete;
  FramedService &operator=(const FramedService &) = delete;

  /// Asks run() to drain and return. Async-signal-safe; callable from
  /// any thread.
  void requestStop() { Stop.store(true); }

  /// Routes SIGINT and SIGTERM to this service's requestStop() (via
  /// sigaction without SA_RESTART, so a signal cuts the accept poll
  /// short) and ignores SIGPIPE, so a peer dying mid-frame costs only
  /// its own connection.
  void installStopSignals();

  /// Host path of the bound socket (valid after listenOn()).
  const std::string &socketPath() const { return SockPath; }

  /// Connections accepted and not yet closed.
  uint32_t activeConnections() const { return Live.load(); }

  /// Connection threads spawned and not yet joined.
  size_t connectionThreads() const { return Threads.load(); }

protected:
  /// \p Name prefixes every lifecycle message ("sccached: ...").
  FramedService(const char *Name, const ServiceConfig &Config);
  virtual ~FramedService();

  /// Binds and listens on \p Path, reclaiming a stale socket file but
  /// never a live server's. False + \p Err on failure.
  bool listenOn(const std::string &Path, std::string *Err);

  /// Accepts and serves until stop or idle timeout, then drains.
  /// Returns the process exit code (0 = clean).
  int run();

  /// Serves one request frame on its connection's thread. Replies go
  /// out with FrameDeadlineMs; a frame that continues the request is
  /// read with the same deadline. Returns true to keep the connection
  /// open for its next request.
  virtual bool serveRequest(UnixSocket &Conn, const std::string &Request) = 0;

  /// The text written to ServiceConfig::MetricsOut.
  virtual std::string metricsText() = 0;

  /// Runs after the listener is closed and before connection threads
  /// are joined: the place to finish or cancel work they wait on.
  virtual void drain() {}

  bool stopping() const { return Stop.load(); }

  /// printf-style lifecycle message on stderr, unless Quiet.
  void chat(const char *Fmt, ...) const;

  /// Stops, closes the listener and joins every connection thread.
  /// Derived destructors call it first, so no thread still runs
  /// serveRequest() while the derived object is torn down.
  void stopAndJoin();

private:
  struct Connection {
    std::thread T;
    std::atomic<bool> Finished{false};
  };

  void connectionMain(UnixSocket Conn);
  bool readRequest(UnixSocket &Conn, std::string &Payload, bool First);
  void reapConnections(bool JoinAll);
  void closeListener();
  void dumpMetricsFile();

  const char *Name;
  ServiceConfig Config;
  std::string SockPath;
  UnixSocket Listener;
  std::atomic<bool> Stop{false};

  /// Owned by the run() thread (and the destructor after it).
  std::list<Connection> Connections;
  std::atomic<size_t> Threads{0};
  std::atomic<uint32_t> Live{0};
  /// Live connections not parked waiting for their next request.
  std::atomic<uint32_t> Working{0};
  /// Bumped per request read, so a request served between two accept
  /// slices still resets the idle clock.
  std::atomic<uint64_t> RequestTick{0};
};

} // namespace sc

#endif // SC_SUPPORT_FRAMEDSERVICE_H
