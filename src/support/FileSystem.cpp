//===- support/FileSystem.cpp - Virtual filesystem implementations -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileSystem.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace sc;

namespace fs = std::filesystem;

VirtualFileSystem::~VirtualFileSystem() = default;

bool VirtualFileSystem::renameFile(const std::string &From,
                                   const std::string &To) {
  std::optional<std::string> Content = readFile(From);
  if (!Content)
    return false;
  if (!writeFile(To, *Content))
    return false;
  removeFile(From);
  return true;
}

bool VirtualFileSystem::syncFile(const std::string &) { return true; }

bool VirtualFileSystem::createExclusive(const std::string &Path,
                                        const std::string &Content) {
  if (exists(Path))
    return false;
  return writeFile(Path, Content);
}

std::string VirtualFileSystem::lastError() const { return std::string(); }

//===----------------------------------------------------------------------===//
// InMemoryFileSystem
//===----------------------------------------------------------------------===//

std::optional<std::string>
InMemoryFileSystem::readFile(const std::string &Path) {
  auto It = Files.find(Path);
  if (It == Files.end())
    return std::nullopt;
  return It->second;
}

bool InMemoryFileSystem::writeFile(const std::string &Path,
                                   const std::string &Content) {
  Files[Path] = Content;
  return true;
}

bool InMemoryFileSystem::exists(const std::string &Path) {
  return Files.count(Path) != 0;
}

bool InMemoryFileSystem::removeFile(const std::string &Path) {
  return Files.erase(Path) != 0;
}

std::vector<std::string> InMemoryFileSystem::listFiles() {
  std::vector<std::string> Paths;
  Paths.reserve(Files.size());
  for (const auto &[Path, Content] : Files)
    Paths.push_back(Path);
  return Paths;
}

bool InMemoryFileSystem::renameFile(const std::string &From,
                                    const std::string &To) {
  auto It = Files.find(From);
  if (It == Files.end())
    return false;
  Files[To] = std::move(It->second);
  Files.erase(From);
  return true;
}

bool InMemoryFileSystem::createExclusive(const std::string &Path,
                                         const std::string &Content) {
  return Files.emplace(Path, Content).second;
}

uint64_t InMemoryFileSystem::totalBytes() const {
  uint64_t Sum = 0;
  for (const auto &[Path, Content] : Files)
    Sum += Content.size();
  return Sum;
}

//===----------------------------------------------------------------------===//
// RealFileSystem
//===----------------------------------------------------------------------===//

RealFileSystem::RealFileSystem(std::string Root) : Root(std::move(Root)) {
  std::error_code EC;
  fs::create_directories(this->Root, EC);
}

std::string RealFileSystem::absolute(const std::string &Path) const {
  return (fs::path(Root) / Path).string();
}

std::optional<std::string> RealFileSystem::readFile(const std::string &Path) {
  std::ifstream In(absolute(Path), std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool RealFileSystem::writeFile(const std::string &Path,
                               const std::string &Content) {
  fs::path Abs(absolute(Path));
  std::error_code EC;
  if (Abs.has_parent_path())
    fs::create_directories(Abs.parent_path(), EC);
  errno = 0;
  std::ofstream Out(Abs, std::ios::binary | std::ios::trunc);
  if (!Out) {
    LastErr = std::strerror(errno);
    return false;
  }
  Out.write(Content.data(), static_cast<std::streamsize>(Content.size()));
  if (!Out) {
    LastErr = std::strerror(errno ? errno : EIO);
    return false;
  }
  return true;
}

bool RealFileSystem::exists(const std::string &Path) {
  std::error_code EC;
  return fs::exists(absolute(Path), EC);
}

bool RealFileSystem::removeFile(const std::string &Path) {
  std::error_code EC;
  return fs::remove(absolute(Path), EC);
}

bool RealFileSystem::renameFile(const std::string &From,
                                const std::string &To) {
  std::error_code EC;
  fs::rename(absolute(From), absolute(To), EC);
  if (EC) {
    LastErr = EC.message();
    return false;
  }
  return true;
}

bool RealFileSystem::syncFile(const std::string &Path) {
  // fsync the file, then its directory so the entry itself is durable.
  int FD = ::open(absolute(Path).c_str(), O_RDONLY);
  if (FD < 0) {
    LastErr = std::strerror(errno);
    return false;
  }
  bool OK = ::fsync(FD) == 0;
  if (!OK)
    LastErr = std::strerror(errno);
  ::close(FD);
  fs::path Parent = fs::path(absolute(Path)).parent_path();
  int DirFD = ::open(Parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFD >= 0) {
    ::fsync(DirFD); // Best effort; some filesystems reject dir fsync.
    ::close(DirFD);
  }
  return OK;
}

bool RealFileSystem::createExclusive(const std::string &Path,
                                     const std::string &Content) {
  fs::path Abs(absolute(Path));
  std::error_code EC;
  if (Abs.has_parent_path())
    fs::create_directories(Abs.parent_path(), EC);
  int FD = ::open(Abs.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (FD < 0) {
    LastErr = std::strerror(errno);
    return false;
  }
  size_t Off = 0;
  bool OK = true;
  while (Off != Content.size()) {
    ssize_t N = ::write(FD, Content.data() + Off, Content.size() - Off);
    if (N <= 0) {
      LastErr = std::strerror(errno);
      OK = false;
      break;
    }
    Off += static_cast<size_t>(N);
  }
  ::close(FD);
  return OK;
}

std::string RealFileSystem::lastError() const { return LastErr; }

std::vector<std::string> RealFileSystem::listFiles() {
  std::vector<std::string> Paths;
  std::error_code EC;
  fs::recursive_directory_iterator It(Root, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    // The iterator joins Root, as spelled, with the walk below it, so
    // the relative path is what follows that prefix and its separator:
    // a string strip, where fs::relative would canonicalise both paths
    // with syscalls per file.
    const std::string &Abs = It->path().native();
    size_t Start = Root.size();
    while (Start < Abs.size() && Abs[Start] == '/')
      ++Start;
    Paths.push_back(Abs.substr(Start));
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}
