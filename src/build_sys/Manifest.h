//===- build_sys/Manifest.h - Persistent build manifest ---------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the previous build knew about every translation unit: the
/// content hash it compiled, the combined effective interface hash of
/// its imports, the hash of the object file it produced, and the TU's
/// interface scan (exports and imports). The next build's dirty set is
/// exactly the disagreement between the manifest and the current
/// project, and the recorded scans let a fresh driver skip re-parsing
/// every source whose content is unchanged.
///
/// The on-disk form is versioned, magic-tagged, and checksummed; a
/// missing or damaged manifest degrades to a full recompile, never to
/// stale artifacts or stale interfaces being trusted. A manifest of an
/// older format version is treated like a missing one.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_MANIFEST_H
#define SC_BUILD_SYS_MANIFEST_H

#include "lang/Sema.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sc {

/// Per-TU facts recorded after a successful compilation.
struct ManifestEntry {
  uint64_t ContentHash = 0;
  uint64_t ImportsEffectiveHash = 0;
  uint64_t ObjectHash = 0; // Hash of the serialized object bytes.
  uint64_t ConfigHash = 0; // Compiler config (opt level, version).

  /// The scan of the source ContentHash names. Entries exist only for
  /// TUs that compiled (or were fetched), which requires a successful
  /// scan, so these are always an Ok ScanResult's fields.
  ModuleInterface Interface;
  std::vector<std::string> Imports;
};

class BuildManifest {
public:
  /// Returns the entry for \p Path, or null when unknown.
  const ManifestEntry *lookup(const std::string &Path) const;

  void update(const std::string &Path, ManifestEntry Entry);
  void remove(const std::string &Path);
  void clear();

  const std::map<std::string, ManifestEntry> &entries() const {
    return Entries;
  }

  std::string serialize() const;

  /// Replaces the contents from serialized bytes; false (leaving the
  /// manifest unchanged) on malformed input. \p Outdated, when given,
  /// is set to whether the bytes are an older format version (an
  /// expected upgrade, not damage).
  bool deserialize(const std::string &Bytes, bool *Outdated = nullptr);

  /// Crash-safe: stages through atomicWriteFile.
  bool saveToFile(VirtualFileSystem &FS, const std::string &Path) const;
  bool loadFromFile(VirtualFileSystem &FS, const std::string &Path,
                    bool *Outdated = nullptr);

private:
  std::map<std::string, ManifestEntry> Entries;
};

} // namespace sc

#endif // SC_BUILD_SYS_MANIFEST_H
