//===- perfbench/bench.cpp - Edit-to-build benchmark -----------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload of the edit-to-build benchmark (README.md in
/// this directory explains the workloads and the layer table). A run
/// repeats *rounds* until --seconds have passed: a round sets up a fresh
/// workspace (timed as set-up), then applies a stream of ops drawn from
/// (seed, round). One op = apply one edit, build (the timed span), then
/// verify the result outside the timed span:
///
///   * the program is relinked from the `out/` the op left in its
///     workspace with readObject + linkObjects and run on the VM;
///   * the result must equal interpretIR on the unoptimised IRGen output
///     of the same sources (an independent reference, not the compiler
///     under test).
///
/// Timed spans are reported host-scaled (hostScaled): each is bracketed
/// by a fixed probe of benchmark-owned work, which factors out how fast
/// the shared host happened to be.
///
/// With --trace 1 an untraced and a traced round replay each stream, and
/// their per-op results must agree (the determinism check). A traced op
/// runs its build through a timing filesystem decorator and is followed
/// by a *layer probe* that re-runs each layer's public entry point on the
/// op's own inputs.
///
/// Usage:
///   perfbench --workload edit_cli|daemon_storm|ci_cold --seed N
///             --seconds S --trace 0|1 --scbuildd PATH --sccached PATH
///             --work DIR
///
/// The last line of stdout is the JSON result
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/DaemonClient.h"
#include "build_sys/DependencyScanner.h"
#include "build_sys/History.h"
#include "build_sys/ImportGraph.h"
#include "build_sys/Manifest.h"
#include "cache_sys/RemoteCacheClient.h"
#include "codegen/ObjectFile.h"
#include "driver/Compiler.h"
#include "driver/IRGen.h"
#include "lang/Diagnostics.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "state/BuildStateDB.h"
#include "support/AtomicFile.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "support/TaskPool.h"
#include "support/Trace.h"
#include "vm/IRInterpreter.h"
#include "vm/VM.h"
#include "workload/Scenario.h"
#include "workload/Workload.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

using namespace sc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// The workload's project. Fixed per run (not drawn from --seed) so that
/// sizes and costs are comparable across seeds; --seed drives the edit
/// stream.
constexpr const char *ProfileName = "http_server";
constexpr uint64_t ProjectSeed = 20240302;

/// Build concurrency: scbuild's -j capped at 2, which leaves the other
/// hardware threads of a small machine to the benchmark process, the
/// daemons and verification.
unsigned benchJobs() {
  return std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
}

/// scbuild's defaults: O2, HeuristicSkip, decision recording on.
BuildOptions scbuildOptions() {
  BuildOptions O;
  O.Compiler.Opt = OptLevel::O2;
  O.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  O.Compiler.RecordDecisions = true;
  O.Jobs = benchJobs();
  return O;
}

std::optional<std::string> readHostFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

uint64_t hostFileSize(const std::string &Path) {
  std::error_code EC;
  uint64_t N = fs::file_size(Path, EC);
  return EC ? 0 : N;
}

/// Bytes of the files under `out/` of a workspace (sockets and the like
/// are not files to listFiles).
uint64_t outBytes(VirtualFileSystem &FS) {
  uint64_t N = 0;
  for (const std::string &Path : FS.listFiles())
    if (Path.compare(0, 4, "out/") == 0)
      N += FS.readFile(Path).value_or("").size();
  return N;
}

/// VmHWM (peak resident set) of \p Pid in MiB; 0 when unreadable.
double peakRssMb(pid_t Pid) {
  std::optional<std::string> S =
      readHostFile("/proc/" + std::to_string(Pid) + "/status");
  if (!S)
    return 0;
  size_t At = S->find("VmHWM:");
  if (At == std::string::npos)
    return 0;
  return std::strtod(S->c_str() + At + 6, nullptr) / 1024.0;
}

/// The project's sources as the build sees them: every `.mc` file at
/// the workspace root.
std::map<std::string, std::string> readSources(VirtualFileSystem &FS) {
  std::map<std::string, std::string> Out;
  for (const std::string &Path : FS.listFiles())
    if (Path.find('/') == std::string::npos && Path.size() > 3 &&
        Path.compare(Path.size() - 3, 3, ".mc") == 0)
      Out[Path] = FS.readFile(Path).value_or("");
  return Out;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Host-speed probe: a fixed, compiler-like slice of work (string
/// formatting, ordered-map inserts, hashing, a sort) that never calls
/// into the program under test, so no change to the program moves it.
/// On a shared host the CPU that the benchmark gets swings by a quarter
/// within seconds; the probe, timed right before and right after a timed
/// span, measures how fast the host was during that span.
double hostProbeUs() {
  auto T0 = Clock::now();
  std::map<std::string, uint64_t> M;
  uint64_t X = 7;
  for (int I = 0; I != 6000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    M[std::to_string(X >> 20)] += I;
  }
  std::vector<uint64_t> V;
  V.reserve(M.size());
  for (const auto &[K, N] : M)
    V.push_back(std::hash<std::string>()(K) ^ N);
  std::sort(V.begin(), V.end());
  static volatile uint64_t Sink;
  Sink = V[V.size() / 2];
  return usSince(T0);
}

/// The probe's time on the reference host speed: a 4-vCPU x86-64 VM
/// (2.3-2.9 ms there, depending on its neighbours).
constexpr double ReferenceProbeUs = 2500;

/// A span's wall time scaled to the reference host speed: wall time x
/// ReferenceProbeUs / the mean of the probes taken right before and
/// right after the span. A span that got a slower share of the host
/// reads the same as on a quiet one; a change to the program moves it
/// as it moves wall time.
double hostScaled(double WallUs, double Probe0, double Probe1) {
  return WallUs * ReferenceProbeUs / ((Probe0 + Probe1) / 2);
}

/// Linear-interpolated percentile \p P (0..100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - Lo);
}

//===----------------------------------------------------------------------===//
// Timing filesystem decorator (traced runs)
//===----------------------------------------------------------------------===//

enum IOClass { IOSources, IOObjects, IOManifest, IOState, IOTelemetry, IOOther,
               NumIOClasses };

/// Path class of a build artifact; atomic-write temps
/// (`<path>.tmp.<pid>.<n>`) count as their destination.
IOClass classifyPath(std::string P) {
  size_t Tmp = P.find(".tmp.");
  if (Tmp != std::string::npos)
    P.resize(Tmp);
  auto EndsWith = [&](const char *S) {
    size_t N = std::strlen(S);
    return P.size() >= N && P.compare(P.size() - N, N, S) == 0;
  };
  if (EndsWith(".mc"))
    return IOSources;
  if (EndsWith(".o"))
    return IOObjects;
  if (EndsWith("manifest.bin"))
    return IOManifest;
  if (EndsWith("state.db"))
    return IOState;
  if (EndsWith("history.jsonl") || EndsWith("decisions.bin"))
    return IOTelemetry;
  return IOOther;
}

/// Wraps the build's filesystem and times every call by path class.
class TimingFileSystem : public VirtualFileSystem {
public:
  explicit TimingFileSystem(VirtualFileSystem &Inner) : Inner(Inner) {}

  double Us[NumIOClasses] = {};
  uint64_t BytesWritten[NumIOClasses] = {};

  /// Runs \p F, adding its wall time to class \p C.
  template <typename Fn> auto timed(IOClass C, Fn &&F) {
    auto T0 = Clock::now();
    auto R = F();
    Us[C] += usSince(T0);
    return R;
  }

  std::optional<std::string> readFile(const std::string &Path) override {
    return timed(classifyPath(Path), [&] { return Inner.readFile(Path); });
  }
  bool writeFile(const std::string &Path, const std::string &Content) override {
    IOClass C = classifyPath(Path);
    BytesWritten[C] += Content.size();
    return timed(C, [&] { return Inner.writeFile(Path, Content); });
  }
  bool exists(const std::string &Path) override {
    return timed(classifyPath(Path), [&] { return Inner.exists(Path); });
  }
  bool removeFile(const std::string &Path) override {
    return timed(classifyPath(Path), [&] { return Inner.removeFile(Path); });
  }
  std::vector<std::string> listFiles() override {
    return timed(IOSources, [&] { return Inner.listFiles(); });
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    return timed(classifyPath(To), [&] { return Inner.renameFile(From, To); });
  }
  bool syncFile(const std::string &Path) override {
    return timed(classifyPath(Path), [&] { return Inner.syncFile(Path); });
  }
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override {
    IOClass C = classifyPath(Path);
    BytesWritten[C] += Content.size();
    return timed(C, [&] { return Inner.createExclusive(Path, Content); });
  }
  std::string lastError() const override { return Inner.lastError(); }

private:
  VirtualFileSystem &Inner;
};

/// A CI runner's scratch workspace, like a tmpfs checkout that is thrown
/// away after the job: files live in memory and syncFile (fsync) costs
/// nothing. Calls are serialized, as the build writes objects from
/// several threads.
class ScratchFileSystem : public VirtualFileSystem {
public:
  std::optional<std::string> readFile(const std::string &Path) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.readFile(Path);
  }
  bool writeFile(const std::string &Path, const std::string &Content) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.writeFile(Path, Content);
  }
  bool exists(const std::string &Path) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.exists(Path);
  }
  bool removeFile(const std::string &Path) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.removeFile(Path);
  }
  std::vector<std::string> listFiles() override {
    std::lock_guard<std::mutex> L(M);
    return Inner.listFiles();
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.renameFile(From, To);
  }
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override {
    std::lock_guard<std::mutex> L(M);
    return Inner.createExclusive(Path, Content);
  }

private:
  std::mutex M;
  InMemoryFileSystem Inner;
};

//===----------------------------------------------------------------------===//
// Child processes (scbuildd, sccached)
//===----------------------------------------------------------------------===//

/// A spawned daemon. The destructor stops it (SIGTERM, then SIGKILL)
/// and reaps it, so no process outlives the benchmark.
class ChildProcess {
public:
  ChildProcess(const std::vector<std::string> &Argv, const std::string &Log) {
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    if (posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ) != 0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&FA);
  }
  ~ChildProcess() { stop(); }
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  bool running() const { return Pid > 0; }
  pid_t pid() const { return Pid; }

  /// Waits up to \p GraceMs for a voluntary exit, then terminates.
  void stop(unsigned GraceMs = 3000) {
    if (Pid <= 0)
      return;
    if (!waitFor(GraceMs)) {
      ::kill(Pid, SIGTERM);
      if (!waitFor(2000)) {
        ::kill(Pid, SIGKILL);
        waitFor(~0u);
      }
    }
    Pid = -1;
  }

private:
  bool waitFor(unsigned Ms) {
    auto T0 = Clock::now();
    for (;;) {
      int Status = 0;
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid || (R < 0 && errno != EINTR))
        return true;
      if (usSince(T0) / 1000 >= Ms)
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// Correctness: reference interpreter and the program left in out/
//===----------------------------------------------------------------------===//

struct ProgramResult {
  bool Ok = false;
  std::string Error;
  bool Trapped = false;
  std::optional<int64_t> Ret;
  std::vector<int64_t> Output;
  uint64_t Cost = 0; // VM weighted cost (not part of equality).

  bool sameBehaviour(const ProgramResult &O) const {
    return Ok && O.Ok && Trapped == O.Trapped && Ret == O.Ret &&
           Output == O.Output;
  }
};

ProgramResult fromExec(const ExecResult &E) {
  ProgramResult R;
  R.Ok = true;
  R.Trapped = E.Trapped;
  R.Ret = E.ReturnValue;
  R.Output = E.Output;
  R.Cost = E.Cost;
  return R;
}

/// interpretIR over the unoptimised IRGen output of the sources. Results
/// are memoised by the hash of every (path, content) pair: the same
/// sources always give the same reference result.
class ReferenceOracle {
public:
  const ProgramResult &expected(const std::map<std::string, std::string> &Src) {
    HashBuilder H;
    for (const auto &[Path, Text] : Src)
      H.addString(Path).addString(Text);
    auto [It, Inserted] = Memo.try_emplace(H.digest());
    if (Inserted)
      It->second = compute(Src);
    return It->second;
  }

private:
  static ProgramResult compute(const std::map<std::string, std::string> &Src) {
    ProgramResult R;
    DiagnosticEngine Diags;
    std::map<std::string, std::unique_ptr<ModuleAST>> ASTs;
    for (const auto &[Path, Text] : Src) {
      Parser P(Text, Diags);
      ASTs[Path] = P.parseModule();
      if (Diags.hasErrors()) {
        R.Error = "reference: parse error in " + Path;
        return R;
      }
    }
    // Dependencies before dependents (depth-first over import decls).
    std::vector<std::string> Order;
    std::map<std::string, int> Mark; // 1 = visiting, 2 = done
    std::function<bool(const std::string &)> Visit =
        [&](const std::string &Path) {
          int &M = Mark[Path];
          if (M == 2)
            return true;
          if (M == 1 || !ASTs.count(Path))
            return false;
          M = 1;
          for (const ImportDecl &I : ASTs[Path]->Imports)
            if (!Visit(I.Path))
              return false;
          Mark[Path] = 2;
          Order.push_back(Path);
          return true;
        };
    for (const auto &[Path, AST] : ASTs)
      if (!Visit(Path)) {
        R.Error = "reference: unresolvable import graph at " + Path;
        return R;
      }
    std::map<std::string, ModuleInterface> Exported;
    std::vector<std::unique_ptr<Module>> Modules;
    for (const std::string &Path : Order) {
      ModuleAST &AST = *ASTs[Path];
      ModuleInterface Imported;
      for (const ImportDecl &I : AST.Imports)
        Imported.insert(Imported.end(), Exported[I.Path].begin(),
                        Exported[I.Path].end());
      ModuleInterface Own = analyzeModule(AST, Imported, Diags);
      if (Diags.hasErrors()) {
        R.Error = "reference: sema error in " + Path;
        return R;
      }
      ModuleInterface Callables = Imported;
      Callables.insert(Callables.end(), Own.begin(), Own.end());
      Modules.push_back(generateIR(AST, Path, Callables));
      Exported[Path] = std::move(Own);
    }
    std::vector<const Module *> Ptrs;
    for (const auto &M : Modules)
      Ptrs.push_back(M.get());
    return fromExec(interpretIR(Ptrs, "main", {}));
  }

  std::map<uint64_t, ProgramResult> Memo;
};

/// What an op left in `<ws>/out`: the manifest, the verified objects,
/// and the behaviour of the program relinked from them.
struct OutSnapshot {
  bool Ok = false;
  std::string Error;
  std::map<std::string, uint64_t> ObjectHash;
  std::map<std::string, std::string> ObjectBytes;
  uint64_t CodeBytes = 0;
  uint64_t StateDBBytes = 0;
  uint64_t StateDBTUs = 0; // Translation units state.db holds state for.
  ProgramResult Run;
};

OutSnapshot loadOut(VirtualFileSystem &FS) {
  OutSnapshot S;
  BuildManifest M;
  if (!M.loadFromFile(FS, "out/manifest.bin")) {
    S.Error = "unreadable manifest";
    return S;
  }
  std::vector<MModule> Objs;
  Objs.reserve(M.entries().size());
  for (const auto &[Path, E] : M.entries()) {
    std::optional<std::string> Bytes = FS.readFile("out/" + Path + ".o");
    if (!Bytes || hashString(*Bytes) != E.ObjectHash) {
      S.Error = "object of " + Path + " missing or not the manifest's";
      return S;
    }
    std::optional<MModule> Obj = readObject(*Bytes);
    if (!Obj) {
      S.Error = "object of " + Path + " does not parse";
      return S;
    }
    Objs.push_back(std::move(*Obj));
    S.CodeBytes += Bytes->size();
    S.ObjectHash[Path] = E.ObjectHash;
    S.ObjectBytes[Path] = std::move(*Bytes);
  }
  std::vector<const MModule *> Ptrs;
  for (const MModule &O : Objs)
    Ptrs.push_back(&O);
  LinkResult L = linkObjects(Ptrs);
  if (!L.succeeded()) {
    S.Error = "relink failed: " + (L.Errors.empty() ? "" : L.Errors[0]);
    return S;
  }
  VM Machine(*L.Program);
  S.Run = fromExec(Machine.run());
  if (std::optional<std::string> State = FS.readFile("out/state.db")) {
    BuildStateDB DB;
    if (!DB.deserialize(*State)) {
      S.Error = "state.db does not load";
      return S;
    }
    S.StateDBBytes = State->size();
    S.StateDBTUs = DB.numTUs();
  }
  S.Ok = true;
  return S;
}

//===----------------------------------------------------------------------===//
// Builds
//===----------------------------------------------------------------------===//

/// What one timed build did, from whichever entry point ran it.
struct BuildRun {
  bool Ok = false;
  std::string Error;
  double TotalUs = 0; // The timed span.
  std::vector<std::string> Dirty;
  uint64_t ObjectsParsed = 0;
  uint64_t InterfaceScans = 0, ScanCacheHits = 0;
  uint64_t RemoteHits = 0, RemoteMisses = 0, RemoteErrors = 0;
  uint64_t PassesRun = 0, PassesSkipped = 0;
  uint64_t PoolSteals = 0;
  double PoolParkWaitUs = 0;
  bool Fallback = false; // Daemon unreachable: scbuild would build in-process.
  unsigned BusyRetries = 0;
  // The build's own phase timers (BuildStats), a cross-check only.
  double StatsScanUs = 0, StatsCompileUs = 0, StatsLinkUs = 0,
         StatsStateIOUs = 0, StatsTotalUs = 0;
};

/// `scbuild [--remote-cache=SOCK]` in-process: a fresh driver, trace
/// recorder and metrics registry per build, as a new scbuild process
/// would have.
BuildRun buildInProcess(VirtualFileSystem &FS, const std::string &Remote) {
  MetricsRegistry Metrics;
  BuildStats S;
  BuildRun R;
  auto T0 = Clock::now();
  {
    TraceRecorder Trace;
    Trace.setThreadName("build-main");
    BuildOptions O = scbuildOptions();
    O.RemoteCache = Remote;
    O.Compiler.Trace = &Trace;
    O.Compiler.Metrics = &Metrics;
    BuildDriver Driver(FS, O);
    S = Driver.build();
  }
  R.TotalUs = usSince(T0);
  R.Ok = S.Success;
  R.Error = S.ErrorText;
  R.Dirty = S.DirtyTUs;
  R.ObjectsParsed = S.ObjectsParsed;
  R.InterfaceScans = S.InterfaceScans;
  R.ScanCacheHits = S.ScanCacheHits;
  R.RemoteHits = S.RemoteHits;
  R.RemoteMisses = S.RemoteMisses;
  R.RemoteErrors = S.RemoteErrors;
  R.PassesRun = S.Skip.PassesRun;
  R.PassesSkipped = S.Skip.PassesSkipped;
  R.PoolSteals = Metrics.counter("pool.steals").value();
  R.PoolParkWaitUs = Metrics.counter("pool.park_wait_ns").value() / 1000.0;
  R.StatsScanUs = S.ScanUs;
  R.StatsCompileUs = S.CompileUs;
  R.StatsLinkUs = S.LinkUs;
  R.StatsStateIOUs = S.StateIOUs;
  R.StatsTotalUs = S.TotalUs;
  return R;
}

/// The last record of a history ledger on the host.
std::optional<HistoryRecord> lastHistoryRecord(const std::string &Path) {
  std::optional<std::string> Text = readHostFile(Path);
  if (!Text)
    return std::nullopt;
  size_t End = Text->find_last_not_of('\n');
  if (End == std::string::npos)
    return std::nullopt;
  size_t Begin = Text->rfind('\n', End);
  Begin = Begin == std::string::npos ? 0 : Begin + 1;
  HistoryRecord R;
  if (!BuildHistory::parseRecord(Text->substr(Begin, End - Begin + 1), R))
    return std::nullopt;
  return R;
}

uint64_t counterOf(const HistoryRecord &R, const char *Name) {
  auto It = R.Counters.find(Name);
  return It == R.Counters.end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// Layer probe (traced ops)
//===----------------------------------------------------------------------===//

/// Per-op sums of the traced layer metrics, averaged at the end.
struct LayerAccum {
  std::map<std::string, double> Sum;
  unsigned Ops = 0;
  void add(const std::string &K, double V) { Sum[K] += V; }
  double get(const std::string &K) const {
    auto It = Sum.find(K);
    return It == Sum.end() ? 0 : It->second;
  }
};

/// Layer self times that, with unattributed_us, sum to the op total.
const char *const ClosureLayers[] = {
    "scan.us",          "graph.us",           "frontend.us",
    "middle.us",        "backend.us",         "state.fingerprint_us",
    "state.load_us",    "state.save_us",      "objects.read_us",
    "objects.write_us", "link.us",            "manifest.io_us",
    "telemetry.write_us", "io.sources_us",    "io.objects_us",
    "io.state_db_us",   "io.other_us",        "daemon.overhead_us",
    "cache.get_us",     "cache.put_us",
};

/// Everything the probe needs to know about one op.
struct ProbeInput {
  std::map<std::string, std::string> Sources; // After the edit.
  BuildManifest PreManifest;  // out/manifest.bin before the op.
  std::string PreState;       // out/state.db before the op ("" = none).
  bool FreshDriver = true;    // The build loaded state and objects from disk.
  /// The resident daemon's scan cache, mirrored; null for a fresh driver,
  /// whose scan cache starts empty.
  DependencyScanner *Scanner = nullptr;
  RemoteCacheClient *Remote = nullptr;  // ci_cold only.
  std::set<uint64_t> *CachedKeys = nullptr; // Input keys the cache holds.
  /// Out-of-process builds (daemon_storm), whose filesystem calls the
  /// timing decorator cannot see: the workspace, and a scratch directory
  /// in which the probe replays the build's persistence I/O.
  std::string Workspace, ReplayDir;
  std::string PreHistory; // out/history.jsonl before the op.
};

uint64_t configHash() {
  HashBuilder H;
  H.addU32(static_cast<uint32_t>(OptLevel::O2));
  H.addU32(CompilerOptions().CompilerVersion);
  return H.digest();
}

uint64_t remoteInputKey(uint64_t Content, uint64_t ImportsEff) {
  HashBuilder H;
  H.addU64(Content);
  H.addU64(ImportsEff);
  H.addU64(configHash());
  return H.digest();
}

/// Replays, in a scratch directory on the same filesystem, the I/O an
/// out-of-process build did: read every source, atomically write the
/// dirty objects, state.db and the manifest, append the history record
/// and rewrite decisions.bin.
bool replayPersistence(const ProbeInput &In,
                       const std::vector<std::string> &Dirty,
                       const std::vector<std::string> &DirtyBytes,
                       const std::string &StateBytes, LayerAccum &Acc,
                       std::string &Why) {
  RealFileSystem Ws(In.Workspace);
  std::vector<std::string> SortedDirty = Dirty;
  std::sort(SortedDirty.begin(), SortedDirty.end());
  BuildManifest PostManifest;
  std::optional<HistoryRecord> Rec =
      lastHistoryRecord(In.Workspace + "/out/history.jsonl");
  std::string Decisions = Ws.readFile("out/decisions.bin").value_or("");
  fs::remove_all(In.ReplayDir);
  fs::create_directories(In.ReplayDir + "/out");
  RealFileSystem Replay(In.ReplayDir);
  if (!PostManifest.loadFromFile(Ws, "out/manifest.bin") || !Rec ||
      !Replay.writeFile("out/history.jsonl", In.PreHistory)) {
    Why = "probe: cannot stage the persistence replay";
    return false;
  }
  // The build lists the tree twice (temp sweep, then sources), reads
  // every source, and re-reads every clean object to check its hash.
  auto T0 = Clock::now();
  Ws.listFiles();
  for (const std::string &Path : Ws.listFiles())
    if (classifyPath(Path) == IOSources)
      Ws.readFile(Path);
  Acc.add("io.sources_us", usSince(T0));
  T0 = Clock::now();
  for (const auto &[Path, E] : PostManifest.entries())
    if (!std::binary_search(SortedDirty.begin(), SortedDirty.end(), Path))
      Ws.readFile("out/" + Path + ".o");
  bool Ok = true;
  for (size_t I = 0; I != Dirty.size(); ++I)
    Ok &= atomicWriteFile(Replay, "out/" + Dirty[I] + ".o", DirtyBytes[I]);
  Acc.add("io.objects_us", usSince(T0));
  T0 = Clock::now();
  Ok &= atomicWriteFile(Replay, "out/state.db", StateBytes);
  Acc.add("io.state_db_us", usSince(T0));
  T0 = Clock::now();
  Ok &= PostManifest.saveToFile(Replay, "out/manifest.bin");
  Acc.add("manifest.io_us", usSince(T0));
  T0 = Clock::now();
  Ok &= atomicWriteFile(Replay, "out/decisions.bin", Decisions);
  double DecisionsUs = usSince(T0);
  T0 = Clock::now();
  Ok &= BuildHistory::append(Replay, "out/history.jsonl", *Rec, 512);
  // The ledger append runs after the server stops its TotalUs clock;
  // the driver subtracts it from daemon.overhead_us.
  Acc.add("#history.append_us", usSince(T0));
  Acc.add("telemetry.write_us", DecisionsUs + Acc.get("#history.append_us"));
  Acc.add("telemetry.bytes_written",
          hostFileSize(In.ReplayDir + "/out/history.jsonl") -
              In.PreHistory.size() + Decisions.size());
  if (!Ok)
    Why = "probe: persistence replay failed";
  return Ok;
}

/// Re-runs each layer that ran inside the op's build, on the op's own
/// inputs, adding its time to \p Acc. Returns false (with \p Why) when
/// the probe's work differs from the build's: dirty set, per-TU object
/// hashes, or program behaviour.
bool runProbe(ProbeInput &In, const BuildRun &Build, const OutSnapshot &Post,
              TaskPool &Pool, LayerAccum &Acc, std::string &Why) {
  // Scan.
  DependencyScanner Fresh;
  DependencyScanner &Scanner = In.Scanner ? *In.Scanner : Fresh;
  uint64_t Hits0 = Scanner.cacheHits(), Miss0 = Scanner.cacheMisses();
  std::map<std::string, const ScanResult *> Scans;
  auto T0 = Clock::now();
  for (const auto &[Path, Text] : In.Sources)
    Scans[Path] = &Scanner.scan(Path, Text);
  Acc.add("scan.us", usSince(T0));
  Acc.add("scan.files", Scans.size());
  Acc.add("#scan.hits", Scanner.cacheHits() - Hits0);
  Acc.add("#scan.lookups",
          Scanner.cacheHits() - Hits0 + Scanner.cacheMisses() - Miss0);

  // Import graph and dirty set.
  const uint64_t Config = configHash();
  std::vector<std::string> Dirty;
  std::vector<std::pair<std::string, uint64_t>> Keys; // ci_cold
  T0 = Clock::now();
  ImportGraph Graph = ImportGraph::build(Scans);
  for (const std::string &Path : Graph.topologicalOrder()) {
    const ScanResult *SR = Scans.at(Path);
    const uint64_t ImportsEff = Graph.importsEffectiveHash(Path);
    if (In.Remote) {
      uint64_t Key = remoteInputKey(SR->ContentHash, ImportsEff);
      Keys.emplace_back(Path, Key);
      if (!In.CachedKeys->count(Key))
        Dirty.push_back(Path);
      continue;
    }
    const ManifestEntry *E = In.PreManifest.lookup(Path);
    if (!E || E->ConfigHash != Config || E->ContentHash != SR->ContentHash ||
        E->ImportsEffectiveHash != ImportsEff)
      Dirty.push_back(Path);
  }
  Acc.add("graph.us", usSince(T0));
  if (!Graph.valid()) {
    Why = "probe: import graph invalid";
    return false;
  }
  Acc.add("dirty.tus", Dirty.size());
  std::vector<std::string> A = Dirty, B = Build.Dirty;
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  if (A != B) {
    Why = "probe: dirty set differs from the build's (" +
          std::to_string(A.size()) + " vs " + std::to_string(B.size()) + ")";
    return false;
  }

  // Remote cache reads: the build fetched every TU (the workspace is
  // empty, so every TU is a local miss).
  if (In.Remote) {
    for (const auto &[Path, Key] : Keys) {
      uint64_t Digest = 0;
      std::string Bytes;
      T0 = Clock::now();
      RemoteCacheClient::Result R = In.Remote->fetch(Key, Digest, Bytes);
      Acc.add("cache.get_us", usSince(T0));
      if (R == RemoteCacheClient::Result::Error) {
        Why = "probe: remote cache error";
        return false;
      }
    }
    Acc.add("#cache.hits", Keys.size() - Dirty.size());
    Acc.add("#cache.lookups", Keys.size());
  }

  // Compile the dirty TUs against the pre-op state, with the build's
  // concurrency; the wall time is split by each phase's CPU share.
  BuildStateDB DB;
  if (!In.PreState.empty()) {
    T0 = Clock::now();
    bool Loaded = DB.deserialize(In.PreState);
    double LoadUs = usSince(T0);
    if (In.FreshDriver)
      Acc.add("state.load_us", LoadUs);
    if (!Loaded) {
      Why = "probe: pre-op state.db does not load";
      return false;
    }
  }
  CompilerOptions CO = scbuildOptions().Compiler;
  CO.DeferStateWrite = true;
  CO.Workers = &Pool;
  FingerprintMemo Memo;
  CO.FPMemo = &Memo;
  std::vector<CompileResult> Results(Dirty.size());
  std::vector<std::unique_ptr<Compiler>> PerSlot(Pool.maxSlots());
  T0 = Clock::now();
  Pool.parallelFor(Dirty.size(), [&](size_t I, unsigned Slot) {
    if (!PerSlot[Slot])
      PerSlot[Slot] = std::make_unique<Compiler>(CO, &DB);
    ModuleInterface Imports;
    for (const std::string &Dep : Graph.imports(Dirty[I])) {
      const ModuleInterface &Iface = Scans.at(Dep)->Interface;
      Imports.insert(Imports.end(), Iface.begin(), Iface.end());
    }
    Results[I] =
        PerSlot[Slot]->compile(Dirty[I], In.Sources.at(Dirty[I]), Imports);
  });
  const double CompileWallUs = usSince(T0);
  PhaseTimings CPU;
  uint64_t Run = 0, Skipped = 0, Reused = 0;
  for (const CompileResult &R : Results) {
    if (!R.Success) {
      Why = "probe: compile failed";
      return false;
    }
    CPU.accumulate(R.Timings);
    Run += R.SkipStats.PassesRun;
    Skipped += R.SkipStats.PassesSkipped;
    Reused += R.SkipStats.FunctionsReused;
  }
  const double CPUSum = CPU.totalUs();
  auto Share = [&](double Us) {
    return CPUSum > 0 ? CompileWallUs * Us / CPUSum : 0.0;
  };
  Acc.add("frontend.us", Share(CPU.FrontendUs));
  Acc.add("middle.us", Share(CPU.MiddleUs));
  Acc.add("backend.us", Share(CPU.BackendUs));
  Acc.add("state.fingerprint_us", Share(CPU.StateUs));
  Acc.add("middle.passes_run", Run);
  Acc.add("middle.passes_skipped", Skipped);
  Acc.add("backend.functions_reused", Reused);

  // Object serialization (and, on ci_cold, publishing the misses).
  std::map<std::string, const MModule *> Linked;
  std::vector<std::string> DirtyBytes;
  for (size_t I = 0; I != Dirty.size(); ++I) {
    T0 = Clock::now();
    std::string Bytes = writeObject(Results[I].Object);
    Acc.add("objects.write_us", usSince(T0));
    Acc.add("objects.bytes_written", Bytes.size());
    const uint64_t Digest = hashString(Bytes);
    auto It = Post.ObjectHash.find(Dirty[I]);
    if (It == Post.ObjectHash.end() || It->second != Digest) {
      Why = "probe: object of " + Dirty[I] + " differs from the manifest's";
      return false;
    }
    if (In.Remote) {
      uint64_t Key = 0;
      for (const auto &[Path, K] : Keys)
        if (Path == Dirty[I])
          Key = K;
      T0 = Clock::now();
      RemoteCacheClient::Result R = In.Remote->publish(Key, Digest, Bytes);
      Acc.add("cache.put_us", usSince(T0));
      if (R == RemoteCacheClient::Result::Error) {
        Why = "probe: remote cache error";
        return false;
      }
    }
    Linked[Dirty[I]] = &Results[I].Object;
    DirtyBytes.push_back(std::move(Bytes));
  }

  // Object parsing: a fresh driver parses every object it did not
  // compile; the resident daemon parses only what it reports.
  std::vector<MModule> Parsed;
  Parsed.reserve(Post.ObjectBytes.size());
  uint64_t ParsedCounted = 0;
  const uint64_t ToCount =
      In.FreshDriver ? Post.ObjectBytes.size() : Build.ObjectsParsed;
  for (const auto &[Path, Bytes] : Post.ObjectBytes) {
    if (Linked.count(Path))
      continue;
    // Every build re-hashes each clean object against the manifest.
    T0 = Clock::now();
    volatile uint64_t Digest = hashString(Bytes);
    (void)Digest;
    double HashUs = usSince(T0);
    T0 = Clock::now();
    std::optional<MModule> Obj = readObject(Bytes);
    double Us = usSince(T0);
    Acc.add("objects.read_us", HashUs);
    if (!Obj) {
      Why = "probe: object of " + Path + " does not parse";
      return false;
    }
    if (ParsedCounted < ToCount) {
      ++ParsedCounted;
      Acc.add("objects.read_us", Us);
    }
    Parsed.push_back(std::move(*Obj));
    Linked[Path] = &Parsed.back();
  }
  Acc.add("objects.parsed", ParsedCounted);

  // Link.
  std::vector<const MModule *> Ptrs;
  for (const auto &[Path, M] : Linked)
    Ptrs.push_back(M);
  T0 = Clock::now();
  LinkResult L = linkObjects(Ptrs);
  Acc.add("link.us", usSince(T0));
  Acc.add("link.objects", Ptrs.size());
  if (!L.succeeded()) {
    Why = "probe: link failed";
    return false;
  }

  // State write-back and serialization.
  std::vector<std::pair<std::string, TUState>> Batch;
  for (size_t I = 0; I != Dirty.size(); ++I)
    if (Results[I].HasNewState)
      Batch.emplace_back(Dirty[I], std::move(Results[I].NewState));
  DB.applyBatch(std::move(Batch));
  T0 = Clock::now();
  std::string StateBytes = DB.serialize();
  Acc.add("state.save_us", usSince(T0));
  Acc.add("state.db_bytes", StateBytes.size());

  if (!In.ReplayDir.empty() &&
      !replayPersistence(In, Dirty, DirtyBytes, StateBytes, Acc, Why))
    return false;

  VM Machine(*L.Program);
  if (!fromExec(Machine.run()).sameBehaviour(Post.Run)) {
    Why = "probe: relinked program behaves differently";
    return false;
  }
  if (In.Remote)
    for (const auto &[Path, Key] : Keys)
      In.CachedKeys->insert(Key);
  return true;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// A workload: per-round set-up, then a seeded stream of edits, each
/// followed by one timed build.
class Workload {
public:
  virtual ~Workload() = default;

  /// Fresh workspace, cold build, daemons started and warm; the round's
  /// edits are drawn from \p StreamSeed.
  virtual bool setup(bool Traced, uint64_t StreamSeed, std::string &Err) = 0;
  /// Applies the next op's edit; returns its edit-log line.
  virtual std::string edit() = 0;
  /// Captures what the probe needs before the build (traced ops).
  virtual void beforeBuild(ProbeInput &In) = 0;
  /// The timed span.
  virtual BuildRun build(bool Traced, TimingFileSystem *&Timing) = 0;
  /// The workspace the op's build ran in: its sources and out/.
  virtual VirtualFileSystem &workspace() = 0;
  /// Stops the round's daemons; returns their peak RSS in MiB.
  virtual double teardown() = 0;

  /// Ops per round.
  virtual unsigned opsPerRound() const = 0;
};

/// Sends one `scbuild --daemon`-style request and waits for it.
int daemonRequest(const std::string &Sock, const DaemonRequest &Req,
                  DaemonFrame &Exit, unsigned &Busy, std::string &Err) {
  DaemonClient::RetryPolicy P;
  P.OnBackoff = [&](unsigned, unsigned) { ++Busy; };
  std::string ErrText;
  int Code = DaemonClient::requestWithRetry(
      Sock, Req, [](const std::string &) {},
      [&](const std::string &T) { ErrText += T; }, P, &Exit, &Err);
  if (Code > 0 && Err.empty())
    Err = ErrText;
  return Code;
}

bool waitUntil(const std::function<bool()> &Ready, unsigned TimeoutMs) {
  auto T0 = Clock::now();
  while (!Ready()) {
    if (usSince(T0) / 1000 > TimeoutMs)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

std::string joinPaths(const std::vector<std::string> &V) {
  std::string S;
  for (const std::string &P : V)
    S += (S.empty() ? "" : ",") + P;
  return S;
}

/// edit_cli: the developer running `scbuild` after each save.
class EditCli : public Workload {
public:
  unsigned opsPerRound() const override { return 40; }
  VirtualFileSystem &workspace() override { return *Disk; }

  bool setup(bool, uint64_t StreamSeed, std::string &Err) override {
    fs::remove_all("cli");
    fs::create_directories("cli");
    Disk = std::make_unique<RealFileSystem>("cli");
    Model = ProjectModel::generate(profileByName(ProfileName), ProjectSeed);
    Model.renderAll(*Disk);
    Rand = RNG(StreamSeed);
    BuildRun R = buildInProcess(*Disk, "");
    if (!R.Ok)
      Err = "edit_cli: cold build failed: " + R.Error;
    return R.Ok;
  }

  std::string edit() override {
    return "commit " + joinPaths(Model.applyCommit(Rand, *Disk));
  }

  void beforeBuild(ProbeInput &In) override {
    RealFileSystem FS("cli");
    In.PreManifest.loadFromFile(FS, "out/manifest.bin");
    In.PreState = FS.readFile("out/state.db").value_or("");
    In.FreshDriver = true;
  }

  BuildRun build(bool Traced, TimingFileSystem *&Timing) override {
    if (!Traced)
      return buildInProcess(*Disk, "");
    Timing = &Timed.emplace(*Disk);
    return buildInProcess(*Timing, "");
  }

  double teardown() override { return 0; }

private:
  std::unique_ptr<RealFileSystem> Disk;
  std::optional<TimingFileSystem> Timed;
  ProjectModel Model = ProjectModel::generate(profileByName(ProfileName), 1);
  RNG Rand{1};
};

/// The edit stream of daemon_storm, in the scenario DSL: one op is one
/// iteration of the phase, four interface-churning edits (hot header,
/// signature change, import edge, new function) beside a commit, so that
/// dirty sets are wide. A fixed mix per op, not a weighted choice, keeps
/// the op's width steady across seeds. The `seed:` line is unused: the
/// benchmark's --seed drives every random pick.
constexpr const char *StormScenario = R"(scenario: daemon-storm
profile: http_server
seed: 1
phase: storm
  hot-header
  signature-change
  import-change
  add-function
  commit
)";

/// daemon_storm: one resident scbuildd, one closed-loop client.
class DaemonStorm : public Workload {
public:
  explicit DaemonStorm(std::string Scbuildd) : Scbuildd(std::move(Scbuildd)) {
    using K = ScenarioNode::Kind;
    if (!ScenarioParser::parse(StormScenario, Spec, SpecError))
      return;
    if (Spec.Phases.size() != 1)
      SpecError = "want exactly one phase";
    else
      for (const ScenarioNode &N : Spec.Phases[0].Nodes)
        if (N.K != K::HotHeader && N.K != K::SignatureChange &&
            N.K != K::ImportChange && N.K != K::AddFunction &&
            N.K != K::Commit)
          SpecError = std::string("unsupported node ") + scenarioNodeName(N.K);
  }

  unsigned opsPerRound() const override { return 12; }
  VirtualFileSystem &workspace() override { return *Disk; }

  bool setup(bool, uint64_t StreamSeed, std::string &Err) override {
    if (!SpecError.empty()) {
      Err = "daemon_storm: bad scenario: " + SpecError;
      return false;
    }
    fs::remove_all("ds");
    fs::create_directories("ds/out");
    Disk = std::make_unique<RealFileSystem>("ds");
    Model = ProjectModel::generate(profileByName(ProfileName), ProjectSeed);
    Model.renderAll(*Disk);
    Rand = RNG(StreamSeed);
    Daemon = std::make_unique<ChildProcess>(
        std::vector<std::string>{Scbuildd, "ds", "-j",
                                 std::to_string(benchJobs()), "--quiet"},
        "ds-daemon.log");
    const std::string Sock = daemonSocketPath("ds", "out");
    if (!Daemon->running() ||
        !waitUntil([&] { return fs::exists(Sock); }, 10000)) {
      Err = "daemon_storm: scbuildd did not start";
      return false;
    }
    // The cold build through the daemon warms its caches.
    TimingFileSystem *Unused = nullptr;
    BuildRun R = build(false, Unused);
    if (!R.Ok)
      Err = "daemon_storm: cold build failed: " + R.Error;
    Scanner.clear();
    for (const auto &[Path, Text] : readSources(*Disk))
      Scanner.scan(Path, Text);
    return R.Ok;
  }

  std::string edit() override {
    std::vector<std::string> Changed;
    std::string Line;
    for (const ScenarioNode &N : Spec.Phases[0].Nodes)
      for (unsigned Rep = 0; Rep != N.Count; ++Rep) {
        std::vector<std::string> Files = apply(N.K);
        Line += std::string(scenarioNodeName(N.K)) + " ";
        Changed.insert(Changed.end(), Files.begin(), Files.end());
      }
    std::sort(Changed.begin(), Changed.end());
    Changed.erase(std::unique(Changed.begin(), Changed.end()), Changed.end());
    return Line + joinPaths(Changed);
  }

  void beforeBuild(ProbeInput &In) override {
    RealFileSystem FS("ds");
    In.PreManifest.loadFromFile(FS, "out/manifest.bin");
    In.PreState = FS.readFile("out/state.db").value_or("");
    In.FreshDriver = false;
    In.Scanner = &Scanner; // The daemon's scan cache stays warm.
    In.Workspace = "ds";
    In.ReplayDir = "ds-replay";
    In.PreHistory = FS.readFile("out/history.jsonl").value_or("");
  }

  BuildRun build(bool, TimingFileSystem *&) override {
    DaemonRequest Req;
    Req.Quiet = true;
    Req.Jobs = benchJobs();
    DaemonFrame Exit;
    BuildRun R;
    auto T0 = Clock::now();
    int Code = daemonRequest(daemonSocketPath("ds", "out"), Req, Exit,
                             R.BusyRetries, R.Error);
    R.TotalUs = usSince(T0);
    if (Code < 0) {
      R.Fallback = true;
      return R;
    }
    R.Ok = Code == 0 && Exit.HasStats;
    R.ObjectsParsed = Exit.ObjectsParsed;
    R.InterfaceScans = Exit.InterfaceScans;
    R.ScanCacheHits = Exit.ScanCacheHits;
    R.RemoteErrors = Exit.RemoteErrors;
    // The server's view of the same build, from its history ledger.
    std::optional<HistoryRecord> Rec = lastHistoryRecord("ds/out/history.jsonl");
    if (!Rec) {
      R.Ok = false;
      R.Error = "daemon_storm: no history record for the build";
      return R;
    }
    R.Dirty = Rec->DirtyTUs;
    R.StatsScanUs = Rec->ScanUs;
    R.StatsCompileUs = Rec->CompileUs;
    R.StatsLinkUs = Rec->LinkUs;
    R.StatsStateIOUs = Rec->StateIOUs;
    R.StatsTotalUs = Rec->TotalUs;
    R.PassesRun = counterOf(*Rec, "build.passes_run") -
                  counterOf(Prev, "build.passes_run");
    R.PassesSkipped = counterOf(*Rec, "build.passes_skipped") -
                      counterOf(Prev, "build.passes_skipped");
    R.PoolSteals =
        counterOf(*Rec, "pool.steals") - counterOf(Prev, "pool.steals");
    R.PoolParkWaitUs = (counterOf(*Rec, "pool.park_wait_ns") -
                        counterOf(Prev, "pool.park_wait_ns")) /
                       1000.0;
    Prev = std::move(*Rec);
    return R;
  }

  double teardown() override {
    if (!Daemon)
      return 0;
    double Mb = peakRssMb(Daemon->pid());
    DaemonRequest Req;
    Req.Verb = "shutdown";
    DaemonFrame Exit;
    std::string Err;
    DaemonClient C = DaemonClient::connect(daemonSocketPath("ds", "out"));
    if (C.connected())
      C.roundTrip(Req, [](const std::string &) {},
                  [](const std::string &) {}, &Exit, &Err, 10000);
    Daemon.reset();
    Prev = HistoryRecord();
    return Mb;
  }

private:
  /// Applies one node of the storm phase (the kinds StormScenario uses).
  std::vector<std::string> apply(ScenarioNode::Kind K) {
    switch (K) {
    case ScenarioNode::Kind::HotHeader:
      return Model.hotHeaderChurn(Rand, *Disk);
    case ScenarioNode::Kind::SignatureChange:
      return Model.applyEdit(EditKind::SignatureChange, Rand, *Disk);
    case ScenarioNode::Kind::ImportChange:
      return Model.applyEdit(EditKind::ImportChange, Rand, *Disk);
    case ScenarioNode::Kind::AddFunction:
      return Model.applyEdit(EditKind::AddFunction, Rand, *Disk);
    default: // Commit; the constructor rejects every other kind.
      return Model.applyCommit(Rand, *Disk);
    }
  }

  std::string Scbuildd;
  Scenario Spec;
  std::string SpecError;
  std::unique_ptr<RealFileSystem> Disk;
  std::unique_ptr<ChildProcess> Daemon;
  HistoryRecord Prev;
  ProjectModel Model = ProjectModel::generate(profileByName(ProfileName), 1);
  RNG Rand{1};
  DependencyScanner Scanner;
};

/// ci_cold: each op checks commit k out into an empty scratch workspace
/// (ScratchFileSystem: the runner's throwaway in-memory checkout) and
/// builds it against one shared, warm sccached.
class CiCold : public Workload {
public:
  explicit CiCold(std::string Sccached) : Sccached(std::move(Sccached)) {}

  unsigned opsPerRound() const override { return 25; }
  VirtualFileSystem &workspace() override { return *Ws; }

  bool setup(bool Traced, uint64_t StreamSeed, std::string &Err) override {
    Client.reset();
    fs::remove_all("ci");
    fs::create_directories("ci");
    Daemon = std::make_unique<ChildProcess>(
        std::vector<std::string>{Sccached, "--socket=" + Sock,
                                 "--cache-dir=ci/store", "--quiet"},
        "ci-cache.log");
    if (!Daemon->running() || !waitUntil([&] {
          std::string E;
          return (Client = RemoteCacheClient::connect(Sock, &E)) != nullptr;
        }, 10000)) {
      Err = "ci_cold: sccached did not start";
      return false;
    }
    Model = ProjectModel::generate(profileByName(ProfileName), ProjectSeed);
    ModelFS = InMemoryFileSystem();
    Model.renderAll(ModelFS);
    Rand = RNG(StreamSeed);
    // Warm-up: a CI job of the base commit publishes every object.
    checkout();
    BuildRun R = buildInProcess(*Ws, Sock);
    if (!R.Ok || R.RemoteErrors) {
      Err = "ci_cold: warm-up build failed: " + R.Error;
      return false;
    }
    CachedKeys.clear();
    if (Traced) {
      // The keys the warm-up published, for the probe's dirty set.
      DependencyScanner S;
      std::map<std::string, const ScanResult *> Scans;
      for (const auto &[Path, Text] : readSources(*Ws))
        Scans[Path] = &S.scan(Path, Text);
      ImportGraph G = ImportGraph::build(Scans);
      for (const auto &[Path, SR] : Scans)
        CachedKeys.insert(
            remoteInputKey(SR->ContentHash, G.importsEffectiveHash(Path)));
    }
    return true;
  }

  std::string edit() override {
    std::string Line = "commit " + joinPaths(Model.applyCommit(Rand, ModelFS));
    checkout();
    return Line;
  }

  void beforeBuild(ProbeInput &In) override {
    In.FreshDriver = true;
    In.Remote = Client.get();
    In.CachedKeys = &CachedKeys;
  }

  BuildRun build(bool Traced, TimingFileSystem *&Timing) override {
    if (!Traced)
      return buildInProcess(*Ws, Sock);
    Timing = &Timed.emplace(*Ws);
    return buildInProcess(*Timing, Sock);
  }

  double teardown() override {
    if (!Daemon)
      return 0;
    double Mb = peakRssMb(Daemon->pid());
    if (Client)
      Client->shutdownServer();
    Client.reset();
    Daemon.reset();
    return Mb;
  }

private:
  /// Renders the current commit into a new, empty workspace.
  void checkout() {
    Ws = std::make_unique<ScratchFileSystem>();
    for (const std::string &Path : ModelFS.listFiles())
      Ws->writeFile(Path, *ModelFS.readFile(Path));
  }

  std::string Sccached;
  const std::string Sock = "ci/cache.sock";
  std::unique_ptr<ChildProcess> Daemon;
  std::unique_ptr<RemoteCacheClient> Client;
  ProjectModel Model = ProjectModel::generate(profileByName(ProfileName), 1);
  InMemoryFileSystem ModelFS;
  RNG Rand{1};
  std::unique_ptr<ScratchFileSystem> Ws; // The current commit's checkout.
  std::set<uint64_t> CachedKeys;
  std::optional<TimingFileSystem> Timed;
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload, Scbuildd, Sccached, Work;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == 0 && !V.empty();
    } else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "0" ? 0 : V == "1" ? 1 : -1;
    else if (K == "--scbuildd")
      A.Scbuildd = V;
    else if (K == "--sccached")
      A.Sccached = V;
    else if (K == "--work")
      A.Work = V;
    else
      return false;
  }
  return Argc % 2 == 1 && HaveSeed && A.Seconds > 0 && A.Trace >= 0 &&
         !A.Workload.empty() && !A.Scbuildd.empty() && !A.Sccached.empty() &&
         !A.Work.empty();
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// The tail percentile of build_tail_ms: the highest that keeps at
/// least ten samples beyond it at every workload's op rate in a run of
/// the configured length (>= 100 timed ops).
constexpr double TailPercentile = 90;

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload edit_cli|daemon_storm|ci_cold "
                 "--seed N --seconds S --trace 0|1 --scbuildd PATH "
                 "--sccached PATH --work DIR\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  A.Scbuildd = fs::absolute(A.Scbuildd).string();
  A.Sccached = fs::absolute(A.Sccached).string();
  std::error_code EC;
  fs::create_directories(A.Work, EC);
  if (EC || ::chdir(A.Work.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use work directory '%s'\n",
                 A.Work.c_str());
    return 2;
  }

  std::unique_ptr<Workload> W;
  if (A.Workload == "edit_cli")
    W = std::make_unique<EditCli>();
  else if (A.Workload == "daemon_storm")
    W = std::make_unique<DaemonStorm>(A.Scbuildd);
  else if (A.Workload == "ci_cold")
    W = std::make_unique<CiCold>(A.Sccached);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  const bool TraceMode = A.Trace == 1;
  const auto Start = Clock::now();
  ReferenceOracle Oracle;
  TaskPool ProbePool(benchJobs());
  LayerAccum Layers;
  // Timed spans (builds, set-ups) are host-scaled (hostScaled); WallUs
  // keeps the untraced builds' plain wall times for the summary.
  std::vector<double> UntracedUs, TracedUs, SetupS, VerifyUs, WallUs;
  // Per-op fingerprints (edit, dirty set, program result, sizes, pass
  // counts) of round 0, and of the current edit stream.
  std::vector<std::string> Round0Prints, StreamPrints;
  unsigned Attempted = 0, Failed = 0, Fallbacks = 0, BusyRetries = 0,
           CacheErrors = 0;
  bool Deterministic = true;
  // Seed-deterministic outputs, taken over the ops of the first
  // FixedRounds rounds, which every run completes and which hold at
  // least MinFixedOps ops: the summed VM cost,
  // per-op means of the object and out/ bytes after each op, and the
  // state.db bytes per translation unit it holds (ci_cold's state holds
  // only the TUs its op compiled, so a per-TU figure is comparable
  // across workloads and steady across seeds).
  constexpr unsigned MinFixedOps = 180;
  const unsigned FixedRounds =
      (MinFixedOps + W->opsPerRound() - 1) / W->opsPerRound();
  uint64_t CodeCost = 0;
  double CodeBytes = 0, StateBytes = 0, StateTUs = 0, OutBytes = 0;
  unsigned FixedOps = 0;
  double DaemonPeakMb = 0;
  unsigned Rounds = 0;

  for (unsigned Round = 0;; ++Round) {
    const bool Required = Round < (TraceMode ? 2 : FixedRounds);
    if (!Required && usSince(Start) / 1e6 >= A.Seconds)
      break;
    // Each round draws a new edit stream from the seed, so a run covers
    // many distinct edits; with --trace 1 an untraced round and a traced
    // round replay each stream, which makes the pair comparable
    // (trace_overhead_ratio) and checks determinism.
    const bool Traced = TraceMode && Round % 2 == 1;
    const uint64_t Stream = TraceMode ? Round / 2 : Round;
    if (!Traced)
      StreamPrints.clear();
    std::string Err;
    double Probe0 = hostProbeUs();
    auto T0 = Clock::now();
    bool SetupOk =
        W->setup(Traced, HashBuilder().addU64(A.Seed).addU64(Stream).digest(),
                 Err);
    double SetupUs = usSince(T0);
    SetupS.push_back(hostScaled(SetupUs, Probe0, hostProbeUs()) / 1e6);
    if (!SetupOk) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      W->teardown();
      return 1;
    }
    ++Rounds;
    std::vector<double> RoundUs;
    for (unsigned Op = 0; Op != W->opsPerRound(); ++Op) {
      if (!Required && usSince(Start) / 1e6 >= A.Seconds)
        break;
      const std::string Line = W->edit();
      ProbeInput In;
      if (Traced)
        W->beforeBuild(In);
      TimingFileSystem *Timing = nullptr;
      double Probe0 = hostProbeUs();
      BuildRun B = W->build(Traced, Timing);
      const double ScaledUs = hostScaled(B.TotalUs, Probe0, hostProbeUs());
      ++Attempted;

      auto V0 = Clock::now();
      OutSnapshot Post = loadOut(W->workspace());
      std::map<std::string, std::string> Sources = readSources(W->workspace());
      const ProgramResult &Expect = Oracle.expected(Sources);
      std::string Why;
      if (!B.Ok)
        Why = B.Fallback ? "daemon unreachable (in-process fallback)"
                         : "build failed: " + B.Error;
      else if (B.RemoteErrors)
        Why = "remote cache error";
      else if (!Post.Ok)
        Why = "out/: " + Post.Error;
      else if (!Expect.Ok)
        Why = Expect.Error;
      else if (!Post.Run.sameBehaviour(Expect))
        Why = "program result differs from the reference interpreter";
      VerifyUs.push_back(usSince(V0));
      Fallbacks += B.Fallback;
      BusyRetries += B.BusyRetries;
      CacheErrors += B.RemoteErrors;

      if (Why.empty() && Traced) {
        In.Sources = std::move(Sources);
        LayerAccum Op1;
        if (runProbe(In, B, Post, ProbePool, Op1, Why)) {
          if (Timing) {
            Op1.add("io.sources_us", Timing->Us[IOSources]);
            Op1.add("io.objects_us", Timing->Us[IOObjects]);
            Op1.add("manifest.io_us", Timing->Us[IOManifest]);
            Op1.add("io.state_db_us", Timing->Us[IOState]);
            Op1.add("telemetry.write_us", Timing->Us[IOTelemetry]);
            Op1.add("io.other_us", Timing->Us[IOOther]);
            Op1.add("telemetry.bytes_written", Timing->BytesWritten[IOTelemetry]);
          } else {
            Op1.add("daemon.overhead_us", B.TotalUs - B.StatsTotalUs -
                                              Op1.get("#history.append_us"));
          }
          double Attributed = 0;
          for (const char *L : ClosureLayers)
            Attributed += Op1.get(L);
          Op1.add("op.total_us", B.TotalUs);
          Op1.add("unattributed_us", B.TotalUs - Attributed);
          Op1.add("#scan.build_hits", B.ScanCacheHits);
          Op1.add("#scan.build_lookups", B.ScanCacheHits + B.InterfaceScans);
          Op1.add("pool.steals", B.PoolSteals);
          Op1.add("pool.park_wait_us", B.PoolParkWaitUs);
          Op1.add("stats.scan_us", B.StatsScanUs);
          Op1.add("stats.compile_us", B.StatsCompileUs);
          Op1.add("stats.link_us", B.StatsLinkUs);
          Op1.add("stats.state_io_us", B.StatsStateIOUs);
          Op1.add("stats.total_us", B.StatsTotalUs);
          Op1.add("#files.total", Post.ObjectHash.size());
          for (const auto &[K, V] : Op1.Sum)
            Layers.add(K, V);
          ++Layers.Ops;
        }
      }
      if (!Why.empty()) {
        ++Failed;
        if (Failed <= 5)
          std::fprintf(stderr, "perfbench: round %u op %u failed: %s\n", Round,
                       Op, Why.c_str());
        continue;
      }
      (Traced ? TracedUs : UntracedUs).push_back(ScaledUs);
      if (!Traced)
        WallUs.push_back(B.TotalUs);
      RoundUs.push_back(ScaledUs);

      std::vector<std::string> Dirty = B.Dirty;
      std::sort(Dirty.begin(), Dirty.end());
      std::string Print = Line + " | dirty " + joinPaths(Dirty) +
                          " | ret " + std::to_string(Post.Run.Ret.value_or(0)) +
                          " cost " + std::to_string(Post.Run.Cost) + " code " +
                          std::to_string(Post.CodeBytes) + " state " +
                          std::to_string(Post.StateDBBytes) + " passes " +
                          std::to_string(B.PassesRun) + "/" +
                          std::to_string(B.PassesSkipped);
      if (Round == 0)
        Round0Prints.push_back(Print);
      if (Round < FixedRounds && !TraceMode) {
        ++FixedOps;
        CodeCost += Post.Run.Cost;
        CodeBytes += Post.CodeBytes;
        StateBytes += Post.StateDBBytes;
        StateTUs += Post.StateDBTUs;
        OutBytes += outBytes(W->workspace());
      }
      if (!Traced) {
        StreamPrints.push_back(Print);
      } else if (Op >= StreamPrints.size() || Print != StreamPrints[Op]) {
        if (Deterministic)
          std::fprintf(stderr,
                       "perfbench: round %u op %u differs from its untraced "
                       "replay:\n  %s\n  %s\n",
                       Round, Op, Print.c_str(),
                       Op < StreamPrints.size() ? StreamPrints[Op].c_str()
                                                : "(no such op)");
        Deterministic = false;
      }
    }
    DaemonPeakMb = std::max(DaemonPeakMb, W->teardown());
    std::fprintf(stderr, "perfbench: round %u%s: set-up %.3f s, %zu ops, "
                 "p50 %.2f ms\n", Round, Traced ? " (traced)" : "",
                 SetupS.back(), RoundUs.size(), median(RoundUs) / 1000);
  }
  fs::remove_all("cli");
  fs::remove_all("ds");
  fs::remove_all("ds-replay");
  fs::remove_all("ci");

  // Edit-log digest: equal across runs of one seed.
  HashBuilder LogHash;
  for (const std::string &P : Round0Prints)
    LogHash.addString(P);
  std::fprintf(stderr, "perfbench: %s seed %llu: %u rounds, %u ops, edit-log "
               "digest %016llx\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               Rounds, Attempted,
               static_cast<unsigned long long>(LogHash.digest()));

  std::vector<Metric> Out;
  if (!TraceMode) {
    const double P = TailPercentile;
    double SumUs = 0;
    for (double U : UntracedUs)
      SumUs += U;
    Out = {
        {"build_p50_ms", "ms", median(UntracedUs) / 1000},
        {"build_tail_ms", "ms", percentile(UntracedUs, P) / 1000},
        {"ops_per_s", "1/s", SumUs > 0 ? UntracedUs.size() / (SumUs / 1e6) : 0},
        {"code_cost", "count", static_cast<double>(CodeCost)},
        {"code_bytes", "bytes", CodeBytes / std::max(1u, FixedOps)},
        {"state_db_bytes", "bytes/TU", StateTUs > 0 ? StateBytes / StateTUs : 0},
        {"out_bytes", "bytes", OutBytes / std::max(1u, FixedOps)},
        {"peak_rss_mb", "MiB", peakRssMb(::getpid()) + DaemonPeakMb},
        {"setup_s", "s", median(SetupS)},
    };
    std::printf("build_tail_ms is p%g over %zu timed ops (%zu beyond it)%s; "
                "%u attempted, %u failed (failed_ratio %g)\n",
                P, UntracedUs.size(),
                static_cast<size_t>(UntracedUs.size() * (100 - P) / 100),
                UntracedUs.size() * (100 - P) / 100 >= 10 ? ""
                                                         : " - too few samples",
                Attempted, Failed,
                Attempted ? double(Failed) / Attempted : 0.0);
    std::printf("timings are host-scaled to a %g us probe; unscaled build "
                "p50 %.3f ms, p%g %.3f ms\n",
                ReferenceProbeUs, median(WallUs) / 1000, P,
                percentile(WallUs, P) / 1000);
  } else {
    const double N = std::max(1u, Layers.Ops);
    auto Mean = [&](const char *K) { return Layers.get(K) / N; };
    auto Ratio = [&](const char *Num, const char *Den) {
      double D = Layers.get(Den);
      return D > 0 ? Layers.get(Num) / D : 0.0;
    };
    for (const char *L : ClosureLayers)
      Out.push_back({L, "us", Mean(L)});
    double Run = Layers.get("middle.passes_run"),
           Skip = Layers.get("middle.passes_skipped");
    std::vector<Metric> More = {
        {"op.total_us", "us", Mean("op.total_us")},
        {"unattributed_us", "us", Mean("unattributed_us")},
        {"scan.files", "count", Mean("scan.files")},
        {"scan.cache_hit_ratio", "ratio", Ratio("#scan.hits", "#scan.lookups")},
        {"dirty.tus", "count", Mean("dirty.tus")},
        {"dirty.ratio", "ratio", Ratio("dirty.tus", "#files.total")},
        {"middle.passes_run", "count", Mean("middle.passes_run")},
        {"middle.passes_skipped", "count", Mean("middle.passes_skipped")},
        {"middle.skip_ratio", "ratio", Run + Skip > 0 ? Skip / (Run + Skip) : 0},
        {"backend.functions_reused", "count", Mean("backend.functions_reused")},
        {"state.db_bytes", "bytes", Mean("state.db_bytes")},
        {"objects.bytes_written", "bytes", Mean("objects.bytes_written")},
        {"objects.parsed", "count", Mean("objects.parsed")},
        {"link.objects", "count", Mean("link.objects")},
        {"telemetry.bytes_written", "bytes", Mean("telemetry.bytes_written")},
        {"daemon.fallbacks", "count", static_cast<double>(Fallbacks)},
        {"daemon.busy", "count", static_cast<double>(BusyRetries)},
        {"pool.steals", "count", Mean("pool.steals")},
        {"pool.park_wait_us", "us", Mean("pool.park_wait_us")},
        {"cache.hit_ratio", "ratio", Ratio("#cache.hits", "#cache.lookups")},
        {"cache.errors", "count", static_cast<double>(CacheErrors)},
        {"trace_overhead_ratio", "ratio",
         median(UntracedUs) > 0 ? median(TracedUs) / median(UntracedUs) : 0},
        {"verify.us", "us", median(VerifyUs)},
        {"stats.scan_us", "us", Mean("stats.scan_us")},
        {"stats.compile_us", "us", Mean("stats.compile_us")},
        {"stats.link_us", "us", Mean("stats.link_us")},
        {"stats.state_io_us", "us", Mean("stats.state_io_us")},
        {"stats.total_us", "us", Mean("stats.total_us")},
        {"stats.scan_cache_hit_ratio", "ratio",
         Ratio("#scan.build_hits", "#scan.build_lookups")},
    };
    Out.insert(Out.end(), More.begin(), More.end());
    std::printf("%u traced ops (layer means per op); %u attempted, %u failed\n",
                Layers.Ops, Attempted, Failed);
  }
  for (const Metric &M : Out)
    std::printf("  %-28s %14.3f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  const bool Correct = Failed == 0 && Deterministic && Attempted > 0;
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Out.size(); ++I)
    J += (I ? ", " : "") + std::string("\"") + Out[I].Name +
         "\": {\"value\": " + fmt(Out[I].Value) + ", \"unit\": \"" +
         Out[I].Unit + "\"}";
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
