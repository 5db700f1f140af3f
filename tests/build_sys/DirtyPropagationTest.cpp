//===- tests/build_sys/DirtyPropagationTest.cpp ---------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end dirty-set behavior of the BuildDriver: body edits stay
/// local, interface edits ripple to every transitive importer, no-op
/// rebuilds compile nothing, and parallel builds are byte-identical to
/// serial ones. A fresh driver re-parses only the sources whose content
/// changed (the manifest carries every other file's scan), and that
/// shortcut never changes what gets built.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/Manifest.h"
#include "vm/VM.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace sc;

namespace {

/// util.mc <- mid.mc <- main.mc (main imports mid only, so util is a
/// transitive, not direct, dependency of main).
void writeChain(VirtualFileSystem &FS) {
  FS.writeFile("util.mc", R"(
    fn base(x: int) -> int { return x + 1; }
  )");
  FS.writeFile("mid.mc", R"(
    import "util.mc";
    fn mid(x: int) -> int { return base(x) * 2; }
  )");
  FS.writeFile("main.mc", R"(
    import "mid.mc";
    fn main() -> int { return mid(20); }
  )");
}

TEST(DirtyPropagation, NoopRebuildCompilesNothing) {
  InMemoryFileSystem FS;
  writeChain(FS);
  BuildDriver Driver(FS, BuildOptions{});
  BuildStats Cold = Driver.build();
  ASSERT_TRUE(Cold.Success) << Cold.ErrorText;
  EXPECT_EQ(Cold.FilesCompiled, 3u);
  EXPECT_EQ(Cold.FilesTotal, 3u);

  BuildStats Warm = Driver.build();
  ASSERT_TRUE(Warm.Success) << Warm.ErrorText;
  EXPECT_EQ(Warm.FilesCompiled, 0u);
  ASSERT_NE(Driver.program(), nullptr);
  EXPECT_EQ(VM(*Driver.program()).run().ReturnValue.value_or(-1), 42);
}

TEST(DirtyPropagation, BodyEditRecompilesOnlyTheEditedFile) {
  InMemoryFileSystem FS;
  writeChain(FS);
  BuildDriver Driver(FS, BuildOptions{});
  ASSERT_TRUE(Driver.build().Success);

  FS.writeFile("util.mc", R"(
    fn base(x: int) -> int { return x + 2; }
  )");
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 1u)
      << "a body-only edit must not dirty importers";
  EXPECT_EQ(VM(*Driver.program()).run().ReturnValue.value_or(-1), 44);
}

TEST(DirtyPropagation, InterfaceEditRecompilesTransitiveImporters) {
  InMemoryFileSystem FS;
  writeChain(FS);
  BuildDriver Driver(FS, BuildOptions{});
  ASSERT_TRUE(Driver.build().Success);

  // Adding a function changes util's exported interface.
  FS.writeFile("util.mc", R"(
    fn base(x: int) -> int { return x + 1; }
    fn extra(x: int) -> int { return x; }
  )");
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 3u)
      << "an interface edit must dirty direct AND transitive importers";
  EXPECT_EQ(VM(*Driver.program()).run().ReturnValue.value_or(-1), 42);
}

TEST(DirtyPropagation, FreshDriverTrustsPersistedManifest) {
  InMemoryFileSystem FS;
  writeChain(FS);
  {
    BuildDriver First(FS, BuildOptions{});
    ASSERT_TRUE(First.build().Success);
  }
  // New driver, same FS: the manifest + objects must carry over, and
  // so must the interface scans — nothing is re-parsed.
  BuildDriver Second(FS, BuildOptions{});
  BuildStats S = Second.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 0u);
  EXPECT_EQ(S.InterfaceScans, 0u);
  EXPECT_EQ(S.ScanCacheHits, S.FilesTotal);
  EXPECT_EQ(VM(*Second.program()).run().ReturnValue.value_or(-1), 42);
}

TEST(DirtyPropagation, ParallelBuildMatchesSerialByteForByte) {
  InMemoryFileSystem SerialFS, ParallelFS;
  ProjectModel Model =
      ProjectModel::generate(profileByName("small_cli"), 21);
  Model.renderAll(SerialFS);
  Model.renderAll(ParallelFS);

  BuildOptions Serial, Parallel;
  Serial.Jobs = 1;
  Parallel.Jobs = 8;
  BuildDriver DS(SerialFS, Serial);
  BuildDriver DP(ParallelFS, Parallel);
  BuildStats SS = DS.build(), SP = DP.build();
  ASSERT_TRUE(SS.Success) << SS.ErrorText;
  ASSERT_TRUE(SP.Success) << SP.ErrorText;
  EXPECT_EQ(SS.FilesCompiled, SP.FilesCompiled);

  for (const std::string &Path : SerialFS.listFiles()) {
    if (Path.size() < 2 || Path.substr(Path.size() - 2) != ".o")
      continue;
    EXPECT_EQ(SerialFS.readFile(Path), ParallelFS.readFile(Path)) << Path;
  }
  ExecResult RS = VM(*DS.program()).run();
  ExecResult RP = VM(*DP.program()).run();
  EXPECT_EQ(RS.ReturnValue, RP.ReturnValue);
  EXPECT_EQ(RS.Output, RP.Output);
}

TEST(DirtyPropagation, DeletedFileDropsOutOfTheProgram) {
  InMemoryFileSystem FS;
  FS.writeFile("main.mc", R"(
    import "extra.mc";
    fn main() -> int { return helper(); }
  )");
  FS.writeFile("extra.mc", R"(
    fn helper() -> int { return 7; }
  )");
  BuildDriver Driver(FS, BuildOptions{});
  ASSERT_TRUE(Driver.build().Success);

  // Remove the import and the file; the stale object must not linger
  // in the link set.
  FS.writeFile("main.mc", R"(
    fn main() -> int { return 9; }
  )");
  FS.removeFile("extra.mc");
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesTotal, 1u);
  EXPECT_EQ(VM(*Driver.program()).run().ReturnValue.value_or(-1), 9);
}

/// Every object file under out/, by path.
std::map<std::string, std::string> objectFiles(VirtualFileSystem &FS) {
  std::map<std::string, std::string> Objects;
  for (const std::string &Path : FS.listFiles())
    if (Path.size() > 2 && Path.compare(Path.size() - 2, 2, ".o") == 0)
      Objects[Path] = FS.readFile(Path).value_or("");
  return Objects;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fresh drivers: scans seeded from the manifest
//===----------------------------------------------------------------------===//

TEST(FreshDriverScan, BodyEditParsesOnlyTheEditedFile) {
  InMemoryFileSystem FS;
  writeChain(FS);
  ASSERT_TRUE(BuildDriver(FS, BuildOptions{}).build().Success);

  FS.writeFile("util.mc", R"(
    fn base(x: int) -> int { return x + 2; }
  )");
  BuildDriver Fresh(FS, BuildOptions{});
  BuildStats S = Fresh.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 1u);
  EXPECT_EQ(S.InterfaceScans, 1u);
  EXPECT_EQ(S.ScanCacheHits, 2u);
  EXPECT_EQ(VM(*Fresh.program()).run().ReturnValue.value_or(-1), 44);
}

TEST(FreshDriverScan, ConfigChangeRescansEveryFile) {
  InMemoryFileSystem FS;
  writeChain(FS);
  ASSERT_TRUE(BuildDriver(FS, BuildOptions{}).build().Success);

  // A different -O level is a ConfigHash mismatch: no entry seeds.
  BuildOptions O1;
  O1.Compiler.Opt = OptLevel::O1;
  BuildDriver Fresh(FS, O1);
  BuildStats S = Fresh.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 3u);
  EXPECT_EQ(S.InterfaceScans, 3u);
  EXPECT_EQ(S.ScanCacheHits, 0u);
}

TEST(FreshDriverScan, SyntaxErrorIsNeverSeededAndImportersMatchResident) {
  // The same edit stream through a fresh driver per build (seeded from
  // the manifest) and through one resident driver (whose scan cache
  // holds only real parses): every build must agree.
  const char *UtilGood = R"(
    fn base(x: int) -> int { return x + 1; }
  )";
  const char *UtilBroken = R"(
    fn base(x: int) -> int { return x + ; }
  )";
  const char *UtilFixed = R"(
    fn base(x: int) -> int { return x + 3; }
  )";
  const std::vector<const char *> Stream = {UtilGood, UtilBroken, UtilBroken,
                                            UtilFixed, UtilFixed};
  InMemoryFileSystem FreshFS, ResidentFS;
  writeChain(FreshFS);
  writeChain(ResidentFS);
  BuildDriver Resident(ResidentFS, BuildOptions{});
  for (size_t Step = 0; Step != Stream.size(); ++Step) {
    FreshFS.writeFile("util.mc", Stream[Step]);
    ResidentFS.writeFile("util.mc", Stream[Step]);
    BuildDriver Fresh(FreshFS, BuildOptions{});
    BuildStats F = Fresh.build();
    BuildStats R = Resident.build();
    EXPECT_EQ(F.Success, R.Success) << "step " << Step;
    EXPECT_EQ(F.ErrorText, R.ErrorText) << "step " << Step;
    EXPECT_EQ(F.DirtyTUs, R.DirtyTUs) << "step " << Step;
    EXPECT_EQ(F.FilesCompiled, R.FilesCompiled) << "step " << Step;
    EXPECT_EQ(objectFiles(FreshFS), objectFiles(ResidentFS)) << "step " << Step;

    BuildManifest M;
    ASSERT_TRUE(M.loadFromFile(FreshFS, "out/manifest.bin"));
    if (Stream[Step] == UtilBroken) {
      EXPECT_FALSE(F.Success);
      EXPECT_EQ(M.lookup("util.mc"), nullptr)
          << "a source that does not parse must not be recorded";
      EXPECT_GE(F.InterfaceScans, 1u) << "the broken file is re-parsed";
    }
  }
  EXPECT_EQ(VM(*Resident.program()).run().ReturnValue.value_or(-1), 46);
}

TEST(FreshDriverScan, ExactSkipChainMatchesScratchByteForByte) {
  ProjectModel Model = ProjectModel::generate(profileByName("small_cli"), 7);
  InMemoryFileSystem FS;
  Model.renderAll(FS);
  BuildOptions Exact;
  Exact.Compiler.Stateful.SkipMode = StatefulConfig::Mode::ExactSkip;
  RNG Rand(7);
  for (int Commit = 0; Commit != 6; ++Commit) {
    std::vector<std::string> Changed;
    if (Commit)
      Changed = Model.applyCommit(Rand, FS);
    BuildDriver Fresh(FS, Exact);
    BuildStats S = Fresh.build();
    ASSERT_TRUE(S.Success) << S.ErrorText;
    if (Commit) {
      EXPECT_EQ(S.InterfaceScans, Changed.size())
          << "commit " << Commit << " must re-parse exactly its edited files";
    }

    InMemoryFileSystem ScratchFS;
    Model.renderAll(ScratchFS);
    BuildOptions Stateless;
    Stateless.Compiler.Stateful.SkipMode = StatefulConfig::Mode::Stateless;
    BuildStats Scratch = BuildDriver(ScratchFS, Stateless).build();
    ASSERT_TRUE(Scratch.Success) << Scratch.ErrorText;
    EXPECT_EQ(objectFiles(FS), objectFiles(ScratchFS)) << "commit " << Commit;
  }
}
