//===- tests/support/FileSystemTest.cpp ------------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileSystem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

using namespace sc;

TEST(InMemoryFS, BasicOperations) {
  InMemoryFileSystem FS;
  EXPECT_FALSE(FS.exists("a.txt"));
  EXPECT_FALSE(FS.readFile("a.txt").has_value());

  EXPECT_TRUE(FS.writeFile("a.txt", "hello"));
  EXPECT_TRUE(FS.exists("a.txt"));
  EXPECT_EQ(FS.readFile("a.txt").value(), "hello");

  EXPECT_TRUE(FS.writeFile("a.txt", "overwritten"));
  EXPECT_EQ(FS.readFile("a.txt").value(), "overwritten");

  EXPECT_TRUE(FS.removeFile("a.txt"));
  EXPECT_FALSE(FS.exists("a.txt"));
  EXPECT_FALSE(FS.removeFile("a.txt"));
}

TEST(InMemoryFS, ListIsSorted) {
  InMemoryFileSystem FS;
  FS.writeFile("b.mc", "x");
  FS.writeFile("a.mc", "y");
  FS.writeFile("c/d.mc", "z");
  std::vector<std::string> Files = FS.listFiles();
  ASSERT_EQ(Files.size(), 3u);
  EXPECT_EQ(Files[0], "a.mc");
  EXPECT_EQ(Files[1], "b.mc");
  EXPECT_EQ(Files[2], "c/d.mc");
}

TEST(InMemoryFS, TotalBytes) {
  InMemoryFileSystem FS;
  FS.writeFile("a", "1234");
  FS.writeFile("b", "56");
  EXPECT_EQ(FS.totalBytes(), 6u);
}

namespace {

std::string makeTempDir() {
  std::string Template =
      (std::filesystem::temp_directory_path() / "scfsXXXXXX").string();
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  char *Result = mkdtemp(Buf.data());
  EXPECT_NE(Result, nullptr);
  return std::string(Result ? Result : "/tmp");
}

} // namespace

TEST(RealFS, RoundTripAndNesting) {
  std::string Dir = makeTempDir();
  {
    RealFileSystem FS(Dir);
    EXPECT_TRUE(FS.writeFile("x/y/z.mc", "content"));
    EXPECT_TRUE(FS.exists("x/y/z.mc"));
    EXPECT_EQ(FS.readFile("x/y/z.mc").value(), "content");

    std::vector<std::string> Files = FS.listFiles();
    ASSERT_EQ(Files.size(), 1u);
    EXPECT_EQ(Files[0], "x/y/z.mc");

    EXPECT_TRUE(FS.removeFile("x/y/z.mc"));
    EXPECT_FALSE(FS.exists("x/y/z.mc"));
  }
  std::filesystem::remove_all(Dir);
}

TEST(RealFS, MissingFileReadsAsNullopt) {
  std::string Dir = makeTempDir();
  {
    RealFileSystem FS(Dir);
    EXPECT_FALSE(FS.readFile("nope.txt").has_value());
  }
  std::filesystem::remove_all(Dir);
}

TEST(RealFS, BinaryContentPreserved) {
  std::string Dir = makeTempDir();
  {
    RealFileSystem FS(Dir);
    std::string Binary("\x00\x01\xff\x7f binary", 12);
    EXPECT_TRUE(FS.writeFile("bin", Binary));
    EXPECT_EQ(FS.readFile("bin").value(), Binary);
  }
  std::filesystem::remove_all(Dir);
}

TEST(RealFS, ListingIsTheSameForEveryRootSpelling) {
  namespace fs = std::filesystem;
  const std::string Base = makeTempDir();
  // Relative roots resolve against the working directory: run inside
  // Base, and restore the directory and clean up on every exit path.
  struct InDir {
    fs::path Saved = fs::current_path();
    std::string Dir;
    explicit InDir(std::string D) : Dir(std::move(D)) { fs::current_path(Dir); }
    ~InDir() {
      fs::current_path(Saved);
      fs::remove_all(Dir);
    }
  } Cwd(Base);
  {
    RealFileSystem Setup("ws");
    for (const char *P : {"main.mc", "a/b/c/deep.mc", "a/sibling.mc",
                          ".hidden/x.mc", "out/main.mc.o", "name with space.mc",
                          "z/.dotfile"})
      ASSERT_TRUE(Setup.writeFile(P, "x"));
    fs::create_directories("ws/empty/dir");
    // A sibling whose name extends the root's must not leak in.
    RealFileSystem Sibling("ws2");
    ASSERT_TRUE(Sibling.writeFile("other.mc", "y"));
  }
  // What the listing has always been: each file relative to the root,
  // as fs::relative computes it.
  std::vector<std::string> Expected;
  for (const auto &E : fs::recursive_directory_iterator(Base + "/ws"))
    if (E.is_regular_file())
      Expected.push_back(fs::relative(E.path(), Base + "/ws").string());
  std::sort(Expected.begin(), Expected.end());
  ASSERT_EQ(Expected.size(), 7u);

  for (const std::string &Root :
       {std::string("ws"), std::string("ws/"), std::string("./ws"),
        std::string("ws//"), Base + "/ws", Base + "/ws/"}) {
    RealFileSystem FS(Root);
    EXPECT_EQ(FS.listFiles(), Expected) << "root '" << Root << "'";
  }
}
