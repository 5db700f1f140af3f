//===- tests/integration/PropertySweepTest.cpp --------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property-based sweeps over generated programs:
///  * every individual pass preserves the observable behavior of a
///    randomly generated module (pass × seed matrix);
///  * the full pipeline at every level matches the IR interpreter;
///  * pass idempotence: running a pass twice equals running it once
///    (the second run must be dormant on the passes where that is an
///    invariant).
///
//===----------------------------------------------------------------------===//

#include "TestUtils.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace sc;
using namespace sc::test;

namespace {

/// Renders a self-contained single module by merging a generated
/// project's files (dropping import lines; all callees are present
/// because files are merged in dependency order).
std::string mergedProgram(uint64_t Seed) {
  ProjectProfile Profile = profileByName("small_cli");
  ProjectModel Model = ProjectModel::generate(Profile, Seed);
  std::string Out;
  for (unsigned I = 0; I != Model.numFiles(); ++I) {
    std::string Text = Model.renderFile(I);
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      if (End == std::string::npos)
        End = Text.size();
      std::string Line = Text.substr(Pos, End - Pos);
      if (Line.rfind("import ", 0) != 0)
        Out += Line + "\n";
      Pos = End + 1;
    }
  }
  return Out;
}

using PassFactory = std::unique_ptr<FunctionPass> (*)();

struct SweepParam {
  const char *PassName;
  PassFactory Factory;
  uint64_t Seed;
};

/// Without this, gtest prints the raw bytes of the parameter, which
/// include the name and factory pointers; under ASLR those change from
/// one process to the next, and so would every discovered test name.
void PrintTo(const SweepParam &Param, std::ostream *OS) {
  *OS << Param.PassName << " seed " << Param.Seed;
}

class PassPreservation : public ::testing::TestWithParam<SweepParam> {};

} // namespace

TEST_P(PassPreservation, BehaviorUnchanged) {
  const SweepParam &Param = GetParam();
  std::string Source = mergedProgram(Param.Seed);

  auto Before = lowerToIR(Source, "sweep");
  auto After = lowerToIR(Source, "sweep");
  ASSERT_NE(Before, nullptr);
  ASSERT_NE(After, nullptr);

  // Prime with mem2reg so mid-pipeline passes see realistic SSA.
  auto Mem2Reg = createMem2RegPass();
  runPass(*After, *Mem2Reg);
  runPass(*Before, *Mem2Reg);

  auto P = Param.Factory();
  runPass(*After, *P);

  ExecResult A = interpretIR({Before.get()}, "main", {});
  ExecResult B = interpretIR({After.get()}, "main", {});
  expectSameBehavior(A, B, std::string(Param.PassName) + " on seed " +
                               std::to_string(Param.Seed));
}

namespace {

std::vector<SweepParam> sweepMatrix() {
  struct Entry {
    const char *Name;
    PassFactory Factory;
  };
  static const Entry Passes[] = {
      {"instsimplify", createInstSimplifyPass},
      {"constfold", createConstantFoldPass},
      {"sccp", createSCCPPass},
      {"dce", createDCEPass},
      {"dse", createDSEPass},
      {"cse", createCSEPass},
      {"loadforward", createLoadForwardPass},
      {"simplifycfg", createSimplifyCFGPass},
      {"licm", createLICMPass},
      {"loopunroll", createLoopUnrollPass},
      {"strengthreduce", createStrengthReducePass},
      {"reassociate", createReassociatePass},
      {"tailrec", createTailRecursionPass},
      {"jumpthread", createJumpThreadingPass},
  };
  std::vector<SweepParam> Out;
  for (const Entry &E : Passes)
    for (uint64_t Seed : {11u, 22u, 33u})
      Out.push_back({E.Name, E.Factory, Seed});
  return Out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Matrix, PassPreservation, ::testing::ValuesIn(sweepMatrix()),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      return std::string(Info.param.PassName) + "_seed" +
             std::to_string(Info.param.Seed);
    });

//===----------------------------------------------------------------------===//
// Full pipeline vs interpreter, more seeds
//===----------------------------------------------------------------------===//

class PipelineOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineOracle, AllLevelsMatchInterpreter) {
  std::string Source = mergedProgram(GetParam());
  ExecResult Ref = interpretSource(Source);
  ASSERT_FALSE(Ref.Trapped) << Ref.TrapReason;
  for (OptLevel Level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
    ExecResult R = compileAndRun(Source, Level);
    expectSameBehavior(Ref, R, std::string("level ") + optLevelName(Level) +
                                   " seed " + std::to_string(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineOracle,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

//===----------------------------------------------------------------------===//
// Idempotence / convergence of the cleanup passes
//===----------------------------------------------------------------------===//

namespace {

class PassConvergence : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(PassConvergence, SecondConsecutiveRunIsDormant) {
  // The contract backing the dormancy records: running a pass twice in
  // a row, the second run must report no change. (A pass may well find
  // new work after OTHER passes ran — that is exactly what awakening
  // is — but it must converge against its own output.)
  std::string Source = mergedProgram(GetParam());
  auto M = lowerToIR(Source, "conv");
  ASSERT_NE(M, nullptr);

  PassPipeline Pipeline = buildPipeline(OptLevel::O2);
  AnalysisManager AM(*M);
  Pipeline.run(*M, AM, nullptr, /*VerifyEach=*/true);

  struct Entry {
    const char *Name;
    PassFactory Factory;
  };
  static const Entry Idempotent[] = {
      {"instsimplify", createInstSimplifyPass},
      {"constfold", createConstantFoldPass},
      {"dce", createDCEPass},
      {"dse", createDSEPass},
      {"cse", createCSEPass},
      {"loadforward", createLoadForwardPass},
      {"simplifycfg", createSimplifyCFGPass},
      {"licm", createLICMPass},
      {"reassociate", createReassociatePass},
      {"strengthreduce", createStrengthReducePass},
      {"tailrec", createTailRecursionPass},
      {"jumpthread", createJumpThreadingPass},
      {"mem2reg", createMem2RegPass},
  };
  for (const Entry &E : Idempotent) {
    auto P = E.Factory();
    runPass(*M, *P); // May change (awakened by other passes).
    auto P2 = E.Factory();
    EXPECT_FALSE(runPass(*M, *P2))
        << E.Name << " did not converge against its own output (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassConvergence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));
