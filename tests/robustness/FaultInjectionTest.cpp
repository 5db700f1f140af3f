//===- tests/robustness/FaultInjectionTest.cpp - e2e fault sweeps ---------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end fault injection over the whole build system: a
/// FaultyFileSystem decorator fires torn writes, disk-full errors,
/// read errors, and crash-points at every interesting operation index,
/// and the suite proves the paper-level safety claim — an injected
/// fault yields, at worst, a colder build, never a wrong program. The
/// linked output after every fault (and after recovery in a fresh
/// process) is byte-compared against a clean build's.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "codegen/ObjectFile.h"
#include "support/FaultyFileSystem.h"
#include "support/FileSystem.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <unistd.h>

using namespace sc;

namespace {

/// A three-TU project with an import chain so interface hashing, the
/// DAG, and dormancy all participate.
void writeProject(VirtualFileSystem &FS) {
  FS.writeFile("alpha.mc", R"(
    fn twice(x: int) -> int { return x + x; }
    fn quad(x: int) -> int { return twice(twice(x)); }
  )");
  FS.writeFile("bravo.mc", R"(
    import "alpha.mc";
    fn inc(x: int) -> int { return quad(x) + 1; }
  )");
  FS.writeFile("charlie.mc", R"(
    import "bravo.mc";
    fn main() -> int { return inc(10); }
  )");
}

BuildOptions baseOptions() {
  BuildOptions BO;
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  BO.Compiler.Stateful.ReuseFunctionCode = true;
  BO.LockTimeoutMs = 50; // Tests must not stall on stale locks.
  BO.LockBackoffMs = 2;
  return BO;
}

/// Bytes of the linked program from a clean build on a pristine
/// in-memory filesystem — the ground truth every faulted build's
/// output must match.
std::string referenceBytes(StatefulConfig::Mode Mode) {
  InMemoryFileSystem FS;
  writeProject(FS);
  BuildOptions BO = baseOptions();
  BO.Compiler.Stateful.SkipMode = Mode;
  BuildDriver Driver(FS, BO);
  BuildStats S = Driver.build();
  EXPECT_TRUE(S.Success) << S.ErrorText;
  if (!S.Success || !Driver.program())
    return {};
  return writeObject(*Driver.program());
}

std::string programBytes(const BuildDriver &Driver) {
  return Driver.program() ? writeObject(*Driver.program()) : std::string();
}

/// Copies every file of \p From into a fresh filesystem (simulating
/// re-running over a snapshot of the same directory tree).
void cloneInto(VirtualFileSystem &From, VirtualFileSystem &To) {
  for (const std::string &Path : From.listFiles())
    To.writeFile(Path, From.readFile(Path).value_or(""));
}

} // namespace

TEST(FaultInjectionE2E, CleanStatefulMatchesStatelessOutput) {
  // Anchors the whole suite: the stateful reference used below is the
  // same program a stateless clean build produces.
  std::string Stateful = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  std::string Stateless = referenceBytes(StatefulConfig::Mode::Stateless);
  ASSERT_FALSE(Stateful.empty());
  EXPECT_EQ(Stateful, Stateless);
}

TEST(FaultInjectionE2E, TornWriteSweepNeverCorruptsAnyBuild) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  // Probe: count the writes of one cold build.
  unsigned TotalWrites;
  {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem Probe(Base);
    BuildDriver Driver(Probe, baseOptions());
    ASSERT_TRUE(Driver.build().Success);
    TotalWrites = Probe.writeOps();
  }
  ASSERT_GE(TotalWrites, 5u); // 3 objects + manifest + state DB.

  for (unsigned K = 1; K <= TotalWrites; ++K) {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem Faulty(Base);
    Faulty.arm(FaultyFileSystem::Fault::TornWrite, K);

    // The faulted build itself still links the right program: every
    // persistent write is staged (atomicWriteFile), so a torn write
    // only costs persistence, surfaced as a warning.
    BuildDriver Driver(Faulty, baseOptions());
    BuildStats S = Driver.build();
    ASSERT_TRUE(S.Success) << "torn:" << K << ": " << S.ErrorText;
    EXPECT_EQ(programBytes(Driver), Ref) << "torn:" << K;
    EXPECT_FALSE(S.Warnings.empty()) << "torn:" << K;

    // A fresh process over the (possibly partially persisted) tree
    // recovers to the identical program.
    BuildDriver Recovery(Base, baseOptions());
    BuildStats R = Recovery.build();
    ASSERT_TRUE(R.Success) << "torn:" << K << " recovery: " << R.ErrorText;
    EXPECT_EQ(programBytes(Recovery), Ref) << "torn:" << K << " recovery";
  }
}

TEST(FaultInjectionE2E, StickyDiskFullStillLinksCorrectly) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  InMemoryFileSystem Base;
  writeProject(Base);
  FaultyFileSystem Faulty(Base);
  ASSERT_TRUE(Faulty.armSpec("enospc*:1")); // Disk full from the start.

  BuildDriver Driver(Faulty, baseOptions());
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(programBytes(Driver), Ref);
  // Objects, manifest, and state DB all failed to persist — each class
  // gets its own warning.
  EXPECT_GE(S.Warnings.size(), 3u);
  VM Vm(*Driver.program());
  EXPECT_EQ(Vm.run().ReturnValue.value_or(-1), 41);

  // Nothing usable landed on disk; the next process simply goes cold.
  BuildDriver Recovery(Base, baseOptions());
  BuildStats R = Recovery.build();
  ASSERT_TRUE(R.Success) << R.ErrorText;
  EXPECT_EQ(R.FilesCompiled, 3u); // Cold, as expected.
  EXPECT_EQ(programBytes(Recovery), Ref);
}

TEST(FaultInjectionE2E, ReadErrorSweepOnWarmTree) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  // Warm the tree once, cleanly.
  InMemoryFileSystem Golden;
  writeProject(Golden);
  {
    BuildDriver Driver(Golden, baseOptions());
    ASSERT_TRUE(Driver.build().Success);
  }

  // Probe: reads of a warm no-op build (sources + state + manifest +
  // object validation).
  unsigned TotalReads;
  {
    InMemoryFileSystem Base;
    cloneInto(Golden, Base);
    FaultyFileSystem Probe(Base);
    BuildDriver Driver(Probe, baseOptions());
    ASSERT_TRUE(Driver.build().Success);
    TotalReads = Probe.readOps();
  }
  ASSERT_GE(TotalReads, 8u);

  for (unsigned K = 1; K <= TotalReads; ++K) {
    InMemoryFileSystem Base;
    cloneInto(Golden, Base);
    FaultyFileSystem Faulty(Base);
    Faulty.arm(FaultyFileSystem::Fault::ReadError, K);

    BuildDriver Driver(Faulty, baseOptions());
    BuildStats S = Driver.build();
    if (S.Success) {
      // Unreadable artifacts degrade to recompilation; the program is
      // still the right one.
      EXPECT_EQ(programBytes(Driver), Ref) << "read:" << K;
    } else {
      // An unreadable *source* is a user-visible build error — but a
      // clean one, with diagnostics, not a crash or a wrong binary.
      EXPECT_FALSE(S.ErrorText.empty()) << "read:" << K;
    }

    // With the fault gone the same tree builds perfectly again.
    BuildDriver Recovery(Base, baseOptions());
    BuildStats R = Recovery.build();
    ASSERT_TRUE(R.Success) << "read:" << K << " recovery: " << R.ErrorText;
    EXPECT_EQ(programBytes(Recovery), Ref) << "read:" << K << " recovery";
  }
}

TEST(FaultInjectionE2E, CrashSweepEveryMutationBoundaryRecovers) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  // Probe: mutating ops (writes, renames, removes, lock create) of one
  // cold build.
  unsigned TotalMutations;
  {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem Probe(Base);
    BuildDriver Driver(Probe, baseOptions());
    ASSERT_TRUE(Driver.build().Success);
    TotalMutations = Probe.mutatingOps();
  }
  ASSERT_GE(TotalMutations, 10u);

  for (unsigned N = 1; N <= TotalMutations; ++N) {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem Faulty(Base);
    Faulty.arm(FaultyFileSystem::Fault::Crash, N);

    BuildDriver Doomed(Faulty, baseOptions());
    bool Crashed = false;
    BuildStats S;
    try {
      S = Doomed.build();
    } catch (const CrashPoint &) {
      Crashed = true; // Process "died" at mutation boundary N.
    }
    if (!Crashed) {
      // The crash landed in the end-of-build unlock (swallowed by the
      // noexcept destructor, leaving a stale lock file): the build
      // itself completed correctly.
      ASSERT_TRUE(S.Success) << "crash:" << N << ": " << S.ErrorText;
      EXPECT_EQ(programBytes(Doomed), Ref) << "crash:" << N;
    }

    // Recovery in a "new process" over whatever the crash left behind:
    // possibly torn temp files, missing artifacts, or a stale lock —
    // the rebuild must still produce the identical program.
    BuildDriver Recovery(Base, baseOptions());
    BuildStats R = Recovery.build();
    ASSERT_TRUE(R.Success) << "crash:" << N << " recovery: " << R.ErrorText;
    EXPECT_EQ(programBytes(Recovery), Ref) << "crash:" << N << " recovery";
  }
}

TEST(FaultInjectionE2E, ConcurrentLockDegradesToReadOnly) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  InMemoryFileSystem FS;
  writeProject(FS);
  // Another "build" already holds the lock. Use our own (live) PID so
  // stale-lock reclaim correctly refuses to steal it.
  ASSERT_TRUE(FS.createExclusive(
      "out/.lock", "pid " + std::to_string(::getpid()) + "\n"));

  BuildOptions BO = baseOptions();
  BO.LockTimeoutMs = 30;
  BuildDriver Driver(FS, BO);
  BuildStats S = Driver.build();

  // Correct program, nothing persisted, loud about it.
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_TRUE(S.ReadOnly);
  ASSERT_FALSE(S.Warnings.empty());
  EXPECT_NE(S.Warnings[0].find("read-only"), std::string::npos);
  EXPECT_EQ(programBytes(Driver), Ref);
  EXPECT_FALSE(FS.exists("out/state.db"));
  EXPECT_FALSE(FS.exists("out/manifest.bin"));
  EXPECT_FALSE(FS.exists("out/charlie.mc.o"));
  // The foreign lock is not ours to remove.
  EXPECT_TRUE(FS.exists("out/.lock"));

  // Holder goes away: the same driver's next build acquires the lock
  // and persists normally.
  FS.removeFile("out/.lock");
  BuildStats S2 = Driver.build();
  ASSERT_TRUE(S2.Success) << S2.ErrorText;
  EXPECT_FALSE(S2.ReadOnly);
  EXPECT_EQ(programBytes(Driver), Ref);
  EXPECT_TRUE(FS.exists("out/state.db"));
  EXPECT_TRUE(FS.exists("out/manifest.bin"));
  EXPECT_FALSE(FS.exists("out/.lock")); // Released on the way out.
}

TEST(FaultContainment, FailingTUDoesNotAbortOthers) {
  InMemoryFileSystem FS;
  FS.writeFile("good_a.mc", "fn fa() -> int { return 1; }\n");
  FS.writeFile("bad.mc",
               "fn fb() -> int { return nonexistent_symbol; }\n");
  FS.writeFile("good_c.mc", "fn main() -> int { return 3; }\n");

  BuildOptions BO = baseOptions();
  BO.Jobs = 3;
  BuildDriver Driver(FS, BO);
  BuildStats S = Driver.build();

  // The build fails, but only because of bad.mc; both good TUs were
  // compiled, persisted, and their compiler state recorded.
  ASSERT_FALSE(S.Success);
  EXPECT_NE(S.ErrorText.find("bad.mc"), std::string::npos);
  EXPECT_EQ(S.ErrorText.find("good_a.mc"), std::string::npos);
  EXPECT_EQ(S.FilesCompiled, 2u);
  EXPECT_TRUE(FS.exists("out/good_a.mc.o"));
  EXPECT_TRUE(FS.exists("out/good_c.mc.o"));
  EXPECT_NE(Driver.stateDB().lookup("good_a.mc"), nullptr);
  EXPECT_NE(Driver.stateDB().lookup("good_c.mc"), nullptr);
  EXPECT_TRUE(FS.exists("out/manifest.bin")); // Saved despite failure.

  // Fix the bad TU; a *fresh* driver (new process) recompiles only it,
  // proving the succeeded TUs' manifest entries survived the failure.
  FS.writeFile("bad.mc", "fn fb() -> int { return 2; }\n");
  BuildDriver Fresh(FS, baseOptions());
  BuildStats S2 = Fresh.build();
  ASSERT_TRUE(S2.Success) << S2.ErrorText;
  EXPECT_EQ(S2.FilesCompiled, 1u);
}

TEST(FaultContainment, DiagnosticsDeterministicallySortedAtAnyJobs) {
  auto buildErrors = [](unsigned Jobs) {
    InMemoryFileSystem FS;
    // Deliberately created in non-sorted key order.
    FS.writeFile("zulu.mc", "fn fz() -> int { return oops_z; }\n");
    FS.writeFile("alpha.mc", "fn fa() -> int { return oops_a; }\n");
    FS.writeFile("mike.mc", "fn fm() -> int { return oops_m; }\n");
    FS.writeFile("kilo.mc", "fn fk() -> int { return oops_k; }\n");
    BuildOptions BO;
    BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
    BO.Jobs = Jobs;
    BuildDriver Driver(FS, BO);
    BuildStats S = Driver.build();
    EXPECT_FALSE(S.Success);
    return S.ErrorText;
  };

  std::string Serial = buildErrors(1);
  // TU-key-sorted order, independent of completion order.
  size_t A = Serial.find("alpha.mc"), K = Serial.find("kilo.mc"),
         M = Serial.find("mike.mc"), Z = Serial.find("zulu.mc");
  ASSERT_NE(A, std::string::npos);
  ASSERT_NE(K, std::string::npos);
  ASSERT_NE(M, std::string::npos);
  ASSERT_NE(Z, std::string::npos);
  EXPECT_LT(A, K);
  EXPECT_LT(K, M);
  EXPECT_LT(M, Z);

  // And byte-identical at higher parallelism (run a few rounds to give
  // a racy ordering a chance to show itself).
  for (int Round = 0; Round != 3; ++Round)
    EXPECT_EQ(buildErrors(4), Serial) << "round " << Round;
}

TEST(FaultInjectionE2E, SalvagePreservesDormancyForUntouchedTUs) {
  const std::string Ref = referenceBytes(StatefulConfig::Mode::HeuristicSkip);
  ASSERT_FALSE(Ref.empty());

  InMemoryFileSystem FS;
  writeProject(FS);
  {
    BuildDriver Warmup(FS, baseOptions());
    ASSERT_TRUE(Warmup.build().Success);
  }

  // Corrupt exactly bravo.mc's segment in the persisted state DB (its
  // TU key lives inside the checksummed segment bytes), and drop the
  // manifest so every TU recompiles — the point is to watch which TUs
  // still benefit from their salvaged dormancy records.
  std::string StateBytes = FS.readFile("out/state.db").value();
  size_t Pos = StateBytes.find("bravo.mc");
  ASSERT_NE(Pos, std::string::npos);
  StateBytes[Pos + 1] ^= 0x08;
  ASSERT_TRUE(FS.writeFile("out/state.db", StateBytes));
  ASSERT_TRUE(FS.removeFile("out/manifest.bin"));

  BuildDriver Driver(FS, baseOptions());
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 3u); // No manifest: everything recompiles.
  EXPECT_EQ(S.StateTUsDropped, 1u);
  EXPECT_EQ(S.StateTUsSalvaged, 2u);
  ASSERT_FALSE(S.Warnings.empty());
  EXPECT_NE(S.Warnings[0].find("salvaged"), std::string::npos);
  // The two surviving TUs recompiled against warm records: passes were
  // skipped. (A fully cold build would skip none.)
  EXPECT_GT(S.Skip.PassesSkipped, 0u);
  // And salvage is only ever a performance event, never a correctness
  // one.
  EXPECT_EQ(programBytes(Driver), Ref);
  VM Vm(*Driver.program());
  EXPECT_EQ(Vm.run().ReturnValue.value_or(-1), 41);
}

TEST(FaultInjectionE2E, BuildSweepsCrashDebrisFromItsOneListing) {
  // Staging temps a crash left under out/ are swept at the start of
  // the next build, from the same tree listing the source scan uses:
  // one walk per build, however many readers it has.
  struct CountingFS : InMemoryFileSystem {
    unsigned Listings = 0;
    std::vector<std::string> listFiles() override {
      ++Listings;
      return InMemoryFileSystem::listFiles();
    }
  } FS;
  writeProject(FS);
  BuildDriver Driver(FS, baseOptions());
  ASSERT_TRUE(Driver.build().Success);
  ASSERT_TRUE(FS.writeFile("out/state.db.tmp.4242.7", "crash debris"));
  ASSERT_TRUE(FS.writeFile("out/alpha.mc.o.tmp.4242.8", "crash debris"));
  ASSERT_TRUE(FS.writeFile("notes.tmp.4242.9", "not under out/"));

  FS.Listings = 0;
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(FS.Listings, 1u);
  EXPECT_EQ(S.TempFilesSwept, 2u);
  EXPECT_FALSE(FS.exists("out/state.db.tmp.4242.7"));
  EXPECT_FALSE(FS.exists("out/alpha.mc.o.tmp.4242.8"));
  EXPECT_TRUE(FS.exists("notes.tmp.4242.9"));
  EXPECT_EQ(S.FilesCompiled, 0u);
}
