//===- tests/build_sys/ManifestTest.cpp -----------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The build manifest is persisted bytes a fresh driver trusts for its
/// dirty set and, since v2, for every unchanged file's interface scan.
/// So its decoder must round-trip exactly, and reject (never half-load)
/// any truncation, any byte flip its checksum catches, any forged
/// out-of-range type byte, and any older format version.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/Manifest.h"
#include "support/Hashing.h"
#include "support/Serializer.h"

#include <gtest/gtest.h>

using namespace sc;

namespace {

FunctionSignature sig(std::string Name, std::vector<TypeName> Params,
                      TypeName Ret) {
  FunctionSignature S;
  S.Name = std::move(Name);
  S.ParamTypes = std::move(Params);
  S.ReturnType = Ret;
  return S;
}

ManifestEntry entry(uint64_t Seed, ModuleInterface Interface,
                    std::vector<std::string> Imports) {
  ManifestEntry E;
  E.ContentHash = 0x1111111111111111ULL * Seed;
  E.ImportsEffectiveHash = 0x0101010101010101ULL + Seed;
  E.ObjectHash = 0xabcdef0000000000ULL | Seed;
  E.ConfigHash = 0x5eed000000000000ULL + Seed;
  E.Interface = std::move(Interface);
  E.Imports = std::move(Imports);
  return E;
}

BuildManifest sampleManifest() {
  BuildManifest M;
  M.update("main.mc",
           entry(1, {sig("main", {}, TypeName::Int)}, {"mid.mc", "util.mc"}));
  M.update("mid.mc",
           entry(2,
                 {sig("mid", {TypeName::Int, TypeName::Bool}, TypeName::Int),
                  sig("log", {TypeName::Int}, TypeName::Void)},
                 {"util.mc"}));
  M.update("util.mc", entry(3, {}, {}));
  return M;
}

bool sameEntry(const ManifestEntry &A, const ManifestEntry &B) {
  return A.ContentHash == B.ContentHash &&
         A.ImportsEffectiveHash == B.ImportsEffectiveHash &&
         A.ObjectHash == B.ObjectHash && A.ConfigHash == B.ConfigHash &&
         A.Interface == B.Interface && A.Imports == B.Imports;
}

bool sameManifest(const BuildManifest &A, const BuildManifest &B) {
  if (A.entries().size() != B.entries().size())
    return false;
  for (const auto &[Path, E] : A.entries()) {
    const ManifestEntry *O = B.lookup(Path);
    if (!O || !sameEntry(E, *O))
      return false;
  }
  return true;
}

/// A manifest holding one sentinel entry: a failed decode must leave
/// exactly this in place.
BuildManifest liveManifest() {
  BuildManifest M;
  M.update("live.mc", entry(9, {sig("live", {}, TypeName::Bool)}, {"x.mc"}));
  return M;
}

/// Re-seals \p Payload with the trailing checksum the decoder expects.
std::string seal(std::string Payload) {
  BinaryWriter Tail;
  Tail.writeU64(hashString(Payload));
  Payload.append(reinterpret_cast<const char *>(Tail.data().data()),
                 Tail.size());
  return Payload;
}

std::string bytesOf(const BinaryWriter &W) {
  return std::string(reinterpret_cast<const char *>(W.data().data()),
                     W.size());
}

} // namespace

TEST(Manifest, V2RoundTripsInterfacesAndImports) {
  BuildManifest M = sampleManifest();
  std::string Bytes = M.serialize();

  BuildManifest Back;
  bool Outdated = true;
  ASSERT_TRUE(Back.deserialize(Bytes, &Outdated));
  EXPECT_FALSE(Outdated);
  EXPECT_TRUE(sameManifest(M, Back));
  const ManifestEntry *Mid = Back.lookup("mid.mc");
  ASSERT_NE(Mid, nullptr);
  ASSERT_EQ(Mid->Interface.size(), 2u);
  EXPECT_EQ(Mid->Interface[0].ParamTypes,
            (std::vector<TypeName>{TypeName::Int, TypeName::Bool}));
  EXPECT_EQ(Mid->Interface[1].ReturnType, TypeName::Void);
  EXPECT_EQ(Back.lookup("main.mc")->Imports,
            (std::vector<std::string>{"mid.mc", "util.mc"}));
  // The encoding is a fixed point.
  EXPECT_EQ(Back.serialize(), Bytes);

  InMemoryFileSystem FS;
  ASSERT_TRUE(M.saveToFile(FS, "out/manifest.bin"));
  BuildManifest Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(FS, "out/manifest.bin"));
  EXPECT_TRUE(sameManifest(M, Loaded));
}

TEST(Manifest, EveryTruncationIsRejected) {
  const std::string Bytes = sampleManifest().serialize();
  const BuildManifest Live = liveManifest();
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    BuildManifest M = liveManifest();
    EXPECT_FALSE(M.deserialize(Bytes.substr(0, Len))) << "length " << Len;
    EXPECT_TRUE(sameManifest(M, Live)) << "length " << Len;
  }
}

TEST(Manifest, EveryByteFlipIsRejectedOrDecodesIdentically) {
  const BuildManifest Original = sampleManifest();
  const std::string Bytes = Original.serialize();
  const BuildManifest Live = liveManifest();
  unsigned Accepted = 0;
  for (size_t Pos = 0; Pos != Bytes.size(); ++Pos) {
    for (unsigned Mask = 1; Mask != 256; ++Mask) {
      std::string Flipped = Bytes;
      Flipped[Pos] = static_cast<char>(Flipped[Pos] ^ Mask);
      BuildManifest M = liveManifest();
      if (M.deserialize(Flipped)) {
        ++Accepted;
        EXPECT_TRUE(sameManifest(M, Original))
            << "byte " << Pos << " ^ " << Mask << " decoded to other entries";
      } else {
        EXPECT_TRUE(sameManifest(M, Live))
            << "byte " << Pos << " ^ " << Mask << " touched the live manifest";
      }
    }
  }
  EXPECT_EQ(Accepted, 0u) << "the checksum should catch every flip";
}

TEST(Manifest, OutOfRangeTypeNameIsRejected) {
  // A checksum-valid manifest whose only signature carries a type byte
  // no TypeName has: first as the return type, then as a parameter.
  for (bool InParam : {false, true}) {
    BinaryWriter W;
    W.writeU32(0x53434d46); // "SCMF"
    W.writeU32(2);
    W.writeVarU64(1);
    W.writeString("a.mc");
    for (int I = 0; I != 4; ++I)
      W.writeU64(7 + I);
    W.writeVarU64(1); // One signature.
    W.writeString("f");
    W.writeU8(InParam ? static_cast<uint8_t>(TypeName::Int) : 3);
    W.writeVarU64(1); // One parameter.
    W.writeU8(InParam ? 0xff : static_cast<uint8_t>(TypeName::Bool));
    W.writeVarU64(0); // No imports.
    std::string Forged = seal(bytesOf(W));

    BuildManifest M = liveManifest();
    EXPECT_FALSE(M.deserialize(Forged)) << (InParam ? "param" : "return");
    EXPECT_TRUE(sameManifest(M, liveManifest()));
  }
}

TEST(Manifest, V1FileIsRejectedWithoutTouchingTheLiveManifest) {
  // The v1 layout: per entry a path and four hashes, no scan.
  BinaryWriter W;
  W.writeU32(0x53434d46);
  W.writeU32(1);
  W.writeVarU64(1);
  W.writeString("a.mc");
  for (int I = 0; I != 4; ++I)
    W.writeU64(7 + I);
  InMemoryFileSystem FS;
  FS.writeFile("out/manifest.bin", seal(bytesOf(W)));

  BuildManifest M = liveManifest();
  bool Outdated = false;
  EXPECT_FALSE(M.loadFromFile(FS, "out/manifest.bin", &Outdated));
  EXPECT_TRUE(Outdated);
  EXPECT_TRUE(sameManifest(M, liveManifest()));

  // Damage is not an older version.
  FS.writeFile("out/manifest.bin", "garbage bytes, not a manifest");
  EXPECT_FALSE(M.loadFromFile(FS, "out/manifest.bin", &Outdated));
  EXPECT_FALSE(Outdated);
}

TEST(Manifest, V1FileCostsOneQuietFullRecompile) {
  InMemoryFileSystem FS;
  FS.writeFile("util.mc", "fn base(x: int) -> int { return x + 1; }\n");
  FS.writeFile("main.mc",
               "import \"util.mc\";\nfn main() -> int { return base(41); }\n");
  {
    BuildDriver Cold(FS, BuildOptions{});
    ASSERT_TRUE(Cold.build().Success);
  }
  // Rewrite the manifest in the v1 layout, with the entries' real hashes.
  BuildManifest Current;
  ASSERT_TRUE(Current.loadFromFile(FS, "out/manifest.bin"));
  BinaryWriter W;
  W.writeU32(0x53434d46);
  W.writeU32(1);
  W.writeVarU64(Current.entries().size());
  for (const auto &[Path, E] : Current.entries()) {
    W.writeString(Path);
    W.writeU64(E.ContentHash);
    W.writeU64(E.ImportsEffectiveHash);
    W.writeU64(E.ObjectHash);
    W.writeU64(E.ConfigHash);
  }
  FS.writeFile("out/manifest.bin", seal(bytesOf(W)));

  BuildDriver Upgraded(FS, BuildOptions{});
  BuildStats S = Upgraded.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_TRUE(S.Warnings.empty()) << S.Warnings.front();
  EXPECT_EQ(S.FilesCompiled, 2u);
  EXPECT_EQ(S.InterfaceScans, 2u);

  // The rewrite is v2, and the next fresh driver trusts it.
  BuildDriver Next(FS, BuildOptions{});
  BuildStats N = Next.build();
  ASSERT_TRUE(N.Success) << N.ErrorText;
  EXPECT_EQ(N.FilesCompiled, 0u);
  EXPECT_EQ(N.InterfaceScans, 0u);
}
