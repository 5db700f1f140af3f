//===- cache_sys/CacheDaemon.h - Shared object-cache daemon -----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server side of `sccached`: a FramedService serving the
/// CacheProtocol get/put/touch/stats/metrics/shutdown verbs over a
/// CacheStore. Unlike the build daemon (one request at a time against
/// resident compiler caches), this is a plain concurrent key-value
/// service: connections are persistent (a build issues hundreds of
/// requests over one connection), each is served on its own thread,
/// and the store's internal lock is the only serialization point.
///
/// The socket lifecycle — bind probe, accept loop, frame deadlines
/// (the binary payload of a `put obj` included), idle clock, metrics
/// file, signal stop, drain — is support/FramedService. What is this
/// daemon's own: the store, the verb switch, and the publication of
/// the store's totals as cache.* metrics.
///
//===----------------------------------------------------------------------===//

#ifndef SC_CACHE_SYS_CACHEDAEMON_H
#define SC_CACHE_SYS_CACHEDAEMON_H

#include "cache_sys/CacheStore.h"
#include "support/FramedService.h"
#include "support/Metrics.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace sc {

/// IdleTimeoutMs, MetricsOut (the Prometheus text of the cache.*
/// metrics), MetricsIntervalMs and Quiet come from ServiceConfig.
struct CacheDaemonConfig : ServiceConfig {
  std::string SocketPath;      ///< Host path to bind.
  std::string CacheRoot = "cache"; ///< Entry root inside the store FS.
  uint64_t MaxBytes = 0;       ///< LRU budget; 0 = unlimited.
};

class CacheDaemon : public FramedService {
public:
  /// \p FS backs the store (RealFileSystem in production; tests may
  /// pass an in-memory one).
  CacheDaemon(VirtualFileSystem &FS, CacheDaemonConfig Config);
  ~CacheDaemon() override;

  /// Binds the socket and indexes the cache root. False (with \p Err)
  /// when another live sccached owns the socket.
  bool start(std::string *Err);

  /// Accept loop; returns the process exit code. Blocks until
  /// requestStop(), a client `shutdown`, or idle timeout.
  int serve();

  const CacheStore &store() const { return *Store; }

  /// The daemon's cache.* metrics registry (tests; refreshed from the
  /// store by publishMetrics before every render).
  const MetricsRegistry &metricsRegistry() const { return Metrics; }

private:
  bool serveRequest(UnixSocket &Conn, const std::string &Header) override;
  /// Mirrors the store's lifetime totals into the registry as cache.*
  /// counters/gauges (delta-published so counters stay monotonic).
  void publishMetrics();
  /// Prometheus text of the registry, refreshed at render time.
  std::string metricsText() override;

  VirtualFileSystem &FS;
  CacheDaemonConfig Config;
  std::unique_ptr<CacheStore> Store;

  /// cache.* metrics, rendered by the `metrics` verb and --metrics-out.
  /// MetricsMu serializes delta publication (connection threads race);
  /// LastPublished holds the totals already folded into the counters.
  MetricsRegistry Metrics;
  std::mutex MetricsMu;
  CacheStats LastPublished;
};

} // namespace sc

#endif // SC_CACHE_SYS_CACHEDAEMON_H
