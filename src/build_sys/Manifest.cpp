//===- build_sys/Manifest.cpp - Persistent build manifest ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Manifest.h"

#include "support/AtomicFile.h"
#include "support/Hashing.h"
#include "support/Serializer.h"

using namespace sc;

namespace {

constexpr uint32_t ManifestMagic = 0x53434d46; // "SCMF"
/// v2 added each entry's interface scan.
constexpr uint32_t ManifestVersion = 2;

void writeType(BinaryWriter &W, TypeName T) {
  W.writeU8(static_cast<uint8_t>(T));
}

/// False on a byte that names no TypeName (Void is the last one).
bool readType(BinaryReader &R, TypeName &T) {
  uint8_t B = R.readU8();
  if (B > static_cast<uint8_t>(TypeName::Void))
    return false;
  T = static_cast<TypeName>(B);
  return !R.failed();
}

bool readSignature(BinaryReader &R, FunctionSignature &Sig) {
  Sig.Name = R.readString();
  if (!readType(R, Sig.ReturnType))
    return false;
  uint64_t NParams = R.readVarU64();
  // Each parameter is one byte, so a count past the input fails the
  // reader long before the vector grows large.
  for (uint64_t I = 0; I != NParams && !R.failed(); ++I)
    if (!readType(R, Sig.ParamTypes.emplace_back()))
      return false;
  return !R.failed();
}

} // namespace

const ManifestEntry *BuildManifest::lookup(const std::string &Path) const {
  auto It = Entries.find(Path);
  return It == Entries.end() ? nullptr : &It->second;
}

void BuildManifest::update(const std::string &Path, ManifestEntry Entry) {
  Entries[Path] = std::move(Entry);
}

void BuildManifest::remove(const std::string &Path) { Entries.erase(Path); }

void BuildManifest::clear() { Entries.clear(); }

std::string BuildManifest::serialize() const {
  BinaryWriter W;
  W.writeU32(ManifestMagic);
  W.writeU32(ManifestVersion);
  W.writeVarU64(Entries.size());
  for (const auto &[Path, E] : Entries) {
    W.writeString(Path);
    W.writeU64(E.ContentHash);
    W.writeU64(E.ImportsEffectiveHash);
    W.writeU64(E.ObjectHash);
    W.writeU64(E.ConfigHash);
    W.writeVarU64(E.Interface.size());
    for (const FunctionSignature &Sig : E.Interface) {
      W.writeString(Sig.Name);
      writeType(W, Sig.ReturnType);
      W.writeVarU64(Sig.ParamTypes.size());
      for (TypeName T : Sig.ParamTypes)
        writeType(W, T);
    }
    W.writeVarU64(E.Imports.size());
    for (const std::string &Import : E.Imports)
      W.writeString(Import);
  }
  std::string Bytes(reinterpret_cast<const char *>(W.data().data()),
                    W.size());
  uint64_t Checksum = hashString(Bytes);
  BinaryWriter Tail;
  Tail.writeU64(Checksum);
  Bytes.append(reinterpret_cast<const char *>(Tail.data().data()),
               Tail.size());
  return Bytes;
}

bool BuildManifest::deserialize(const std::string &Bytes, bool *Outdated) {
  // Parse into a scratch map; malformed input leaves the live manifest
  // untouched (the caller decides whether to clear).
  if (Outdated)
    *Outdated = false;
  if (Bytes.size() < 8)
    return false;
  uint64_t Payload = Bytes.size() - 8;
  BinaryReader R(reinterpret_cast<const uint8_t *>(Bytes.data()),
                 Bytes.size());
  if (R.readU32() != ManifestMagic)
    return false;
  if (uint32_t Version = R.readU32(); Version != ManifestVersion) {
    if (Outdated)
      *Outdated = Version < ManifestVersion;
    return false;
  }
  uint64_t N = R.readVarU64();
  std::map<std::string, ManifestEntry> Loaded;
  for (uint64_t I = 0; I != N && !R.failed(); ++I) {
    std::string Path = R.readString();
    ManifestEntry E;
    E.ContentHash = R.readU64();
    E.ImportsEffectiveHash = R.readU64();
    E.ObjectHash = R.readU64();
    E.ConfigHash = R.readU64();
    uint64_t NSigs = R.readVarU64();
    for (uint64_t J = 0; J != NSigs && !R.failed(); ++J)
      if (!readSignature(R, E.Interface.emplace_back()))
        return false;
    uint64_t NImports = R.readVarU64();
    for (uint64_t J = 0; J != NImports && !R.failed(); ++J)
      E.Imports.push_back(R.readString());
    Loaded.emplace(std::move(Path), std::move(E));
  }
  if (R.failed() || R.position() != Payload)
    return false;
  uint64_t Expected = R.readU64();
  if (R.failed() || !R.atEnd() ||
      hashBytes(Bytes.data(), Payload) != Expected)
    return false;
  Entries = std::move(Loaded);
  return true;
}

bool BuildManifest::saveToFile(VirtualFileSystem &FS,
                               const std::string &Path) const {
  return atomicWriteFile(FS, Path, serialize());
}

bool BuildManifest::loadFromFile(VirtualFileSystem &FS,
                                 const std::string &Path, bool *Outdated) {
  if (Outdated)
    *Outdated = false;
  std::optional<std::string> Bytes = FS.readFile(Path);
  if (!Bytes)
    return false;
  return deserialize(*Bytes, Outdated);
}
