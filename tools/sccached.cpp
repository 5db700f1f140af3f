//===- tools/sccached.cpp - Shared object-cache daemon ---------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `sccached` — a content-addressed object-cache daemon shared by a
/// fleet of builders. One warm builder publishes every object it
/// compiles; every other machine's `scbuild --remote-cache=SOCKET`
/// then fetches verified objects instead of recompiling unchanged TUs.
/// Entries persist under the cache directory across daemon restarts.
///
///   sccached --socket=PATH [options]          serve
///   sccached --socket=PATH --stats            print a serving daemon's stats
///   sccached --socket=PATH --stats --json     the same as JSON, carrying the
///                                             registry under the "metrics"
///                                             key (the shape scbuildd
///                                             --report-json uses)
///   sccached --socket=PATH --metrics          print the daemon's metrics in
///                                             Prometheus text exposition
///   sccached --socket=PATH --shutdown         stop a serving daemon
///
/// Options (serve mode):
///   --cache-dir=DIR      entry storage (default: `<socket dir>/sccache`)
///   --max-bytes=N        LRU budget over stored payload bytes
///                        (default 0 = unlimited); at the budget the
///                        least-recently-used entries are evicted
///   --idle-timeout-ms=N  exit after N ms without a request (0 = never)
///   --metrics-out=FILE   periodically (and on exit) rewrite FILE atomically
///                        with the cache.* metrics in Prometheus text
///                        exposition format
///   --metrics-interval-ms=N
///                        period of the --metrics-out dump (default 1000)
///   --quiet              suppress lifecycle messages
///
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/CliArgs.h"
#include "support/FileSystem.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

using namespace sc;

int main(int argc, char **argv) {
  std::string Socket, CacheDir;
  CacheDaemonConfig Config;
  bool Stats = false, Shutdown = false;
  bool Json = false, Metrics = false;

  CliArgs Args("sccached", argc, argv);
  std::string MaxBytesText, IdleText, MetricsIntervalText;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Args.value(Arg, "--socket", I, Socket) ||
        Args.value(Arg, "--cache-dir", I, CacheDir) ||
        Args.value(Arg, "--max-bytes", I, MaxBytesText) ||
        Args.value(Arg, "--metrics-out", I, Config.MetricsOut) ||
        Args.value(Arg, "--metrics-interval-ms", I, MetricsIntervalText) ||
        Args.value(Arg, "--idle-timeout-ms", I, IdleText))
      continue;
    if (Arg == "--quiet")
      Config.Quiet = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--json")
      Json = true;
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--help" || Arg == "-h") {
      std::fprintf(stderr,
                   "usage: sccached --socket=PATH [--cache-dir=DIR] "
                   "[--max-bytes=N]\n                [--idle-timeout-ms=N] "
                   "[--metrics-out=FILE] [--metrics-interval-ms=N]\n"
                   "                [--quiet] [--stats [--json]] [--metrics] "
                   "[--shutdown]\n");
      return 0;
    } else {
      std::fprintf(stderr, "sccached: error: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    }
  }
  if (Args.failed())
    return 1;
  if (Socket.empty()) {
    std::fprintf(stderr, "sccached: error: --socket=PATH is required\n");
    return 1;
  }
  if (!Args.number(MaxBytesText, "--max-bytes", Config.MaxBytes) ||
      !Args.number(IdleText, "--idle-timeout-ms", Config.IdleTimeoutMs) ||
      !Args.number(MetricsIntervalText, "--metrics-interval-ms",
                   Config.MetricsIntervalMs))
    return 1;
  Config.MetricsIntervalMs = std::max(1u, Config.MetricsIntervalMs);

  //===--- Client modes ---------------------------------------------------===//

  if (Stats || Metrics || Shutdown) {
    std::string Err;
    std::unique_ptr<RemoteCacheClient> Client =
        RemoteCacheClient::connect(Socket, &Err);
    if (!Client) {
      if (Shutdown) {
        std::fprintf(stderr,
                     "sccached: no daemon is serving '%s' (nothing to stop)\n",
                     Socket.c_str());
        return 0;
      }
      std::fprintf(stderr, "sccached: no daemon is serving '%s'\n",
                   Socket.c_str());
      return 1;
    }
    if (Shutdown) {
      if (!Client->shutdownServer()) {
        std::fprintf(stderr, "sccached: error: shutdown request failed\n");
        return 1;
      }
      return 0;
    }
    if (Metrics) {
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit) {
        std::fprintf(stderr, "sccached: error: metrics request failed\n");
        return 1;
      }
      std::fputs(Text.c_str(), stdout);
      return 0;
    }
    CacheStats CS;
    if (Client->stats(CS) != RemoteCacheClient::Result::Hit) {
      std::fprintf(stderr, "sccached: error: stats request failed\n");
      return 1;
    }
    if (Json) {
      // The same "metrics" key (and registry shape) as scbuildd
      // --report-json, so live and offline fleet views line up.
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit) {
        std::fprintf(stderr, "sccached: error: metrics request failed\n");
        return 1;
      }
      std::printf("{\n  \"schema\": \"sccached-stats\",\n"
                  "  \"schema_version\": 1,\n"
                  "  \"entries\": %llu,\n  \"bytes_stored\": %llu,\n"
                  "  \"max_bytes\": %llu,\n  \"gets\": %llu,\n"
                  "  \"hits\": %llu,\n  \"misses\": %llu,\n"
                  "  \"puts\": %llu,\n  \"touches\": %llu,\n"
                  "  \"evictions\": %llu,\n  \"corrupt_dropped\": %llu,\n"
                  "  \"metrics\": %s\n}\n",
                  static_cast<unsigned long long>(CS.Entries),
                  static_cast<unsigned long long>(CS.BytesStored),
                  static_cast<unsigned long long>(CS.MaxBytes),
                  static_cast<unsigned long long>(CS.Gets),
                  static_cast<unsigned long long>(CS.Hits),
                  static_cast<unsigned long long>(CS.Misses),
                  static_cast<unsigned long long>(CS.Puts),
                  static_cast<unsigned long long>(CS.Touches),
                  static_cast<unsigned long long>(CS.Evictions),
                  static_cast<unsigned long long>(CS.CorruptDropped),
                  MetricsJson.c_str());
      return 0;
    }
    std::printf("sccached: entries %llu, bytes %llu (budget %llu)\n"
                "sccached: gets %llu (hits %llu, misses %llu), puts %llu, "
                "touches %llu\n"
                "sccached: evictions %llu, corrupt dropped %llu\n",
                static_cast<unsigned long long>(CS.Entries),
                static_cast<unsigned long long>(CS.BytesStored),
                static_cast<unsigned long long>(CS.MaxBytes),
                static_cast<unsigned long long>(CS.Gets),
                static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.Misses),
                static_cast<unsigned long long>(CS.Puts),
                static_cast<unsigned long long>(CS.Touches),
                static_cast<unsigned long long>(CS.Evictions),
                static_cast<unsigned long long>(CS.CorruptDropped));
    return 0;
  }

  //===--- Serve ----------------------------------------------------------===//

  // The cache root lives on the real filesystem next to the socket by
  // default. RealFileSystem paths are relative to its root, so root
  // the VFS at the cache directory and store under "cache".
  if (CacheDir.empty()) {
    size_t Slash = Socket.find_last_of('/');
    CacheDir = (Slash == std::string::npos ? std::string(".")
                                           : Socket.substr(0, Slash)) +
               "/sccache";
  }
  RealFileSystem FS(CacheDir);
  Config.SocketPath = Socket;
  Config.CacheRoot = "cache";

  CacheDaemon Daemon(FS, Config);
  std::string Err;
  if (!Daemon.start(&Err)) {
    std::fprintf(stderr, "sccached: error: %s\n", Err.c_str());
    return 1;
  }
  Daemon.installStopSignals();
  return Daemon.serve();
}
